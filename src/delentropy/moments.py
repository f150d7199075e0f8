"""Moments of the embedding-count random variable and its autocorrelation.

Let W be the number of embeddings of a fixed pattern x (length m) in a
uniform random text of length n.  This module computes:

* exact raw and central moments of W up to order 4, as polynomials in n
  whose Newton coefficients come from a tensor dynamic program over
  r-tuples of embeddings grouped by the text positions they cover, which
  stops after r * m steps (no text enumeration); the tensor is symmetric,
  so it is stored and stepped on the C(m+r, r) sorted index tuples only.
  One pass of O(r*m * nnz) big-int additions, for a step plan of
  nnz < 2^(r+1) * C(m+r, r) terms, runs once per (pattern, order) and is
  cached; each n then costs O(r * r*m) big-int products;
* the autocorrelation coefficient kappa^2(x): the number of ways to
  interleave two copies of x so that they share exactly one position
  carrying equal symbols;
* the leading-order mean and variance of W for large n, and the moment set
  of the Gaussian limit;
* normalized-shape diagnostics (skewness, excess kurtosis).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import core
from .core import DegenerateDistributionError, binomial
from .embedding import _pattern_bits

# Sorted tensor cells times DP steps raw_moments accepts: ~0.3 us each
# (measured at m = 32..45, r = 4), ~40 s.
_MOMENT_CELL_STEPS = 1 << 27

# Newton coefficient tables are cached, one per (pattern, order, steps); the
# bound keeps a scan over many patterns from holding every table for the life
# of the process.  An entry holds r tuples of ``steps`` ints, zero for k < m,
# of up to about r*m*log2(r) bits (8m at order 4): 3.4 KB at m = 10 and
# 12 KB at m = 30, order 4 (sys.getsizeof).  The largest entries the
# cell-step bound admits take about 90 KB (order 2 at m = 511 measured 89 KB;
# order 1 at m = 11584 holds 11584 pointers), so a full cache stays under
# about 12 MB.
_NEWTON_CACHE = 128


@dataclass
class MomentSet:
    """Mean and central moments of orders 2..4, with provenance.

    ``provenance`` is "exact" (rational values from the tensor DP or an
    exact histogram), "asymptotic" (leading-order floats), or "empirical"
    (rational values from a sampled histogram).
    """

    mean: Fraction | float
    central: dict[int, Fraction | float]
    provenance: str

    @property
    def variance(self):
        return self.central[2]


@dataclass
class KappaDecomposition:
    """Matrix view of the autocorrelation sum.

    ``interleavings[r][s]`` counts interleavings of two copies of the
    pattern whose single shared position is the (r+1)-th of one copy and the
    (s+1)-th of the other; ``symbol_mask`` marks where those positions carry
    equal symbols; ``masked`` is their elementwise product, and
    ``kappa_squared`` its total.
    """

    m: int
    symbol_mask: list[list[int]]
    interleavings: list[list[int]]
    masked: list[list[int]]
    kappa_squared: int


@dataclass
class GaussianDiagnostics:
    n: int
    skewness: float
    excess_kurtosis: float


# ---------------------------------------------------------------------------
# exact moments via the tensor dynamic program
# ---------------------------------------------------------------------------

def raw_moments(x: str, n: int, rmax: int = 4) -> list[Fraction]:
    """E[W^j] for j = 1..rmax, exactly.

    Appending symbol b maps each text's prefix counts by A_b = I + N_b
    (c_i += [x_i = b] * c_{i-1}), so sum_b A_b^(x rmax) = 2 + U on the
    tensor of r-fold count products, and E[W^j] = sum_k C(n,k) t_jk / 2^k
    with the Newton coefficients t_jk = (U^k T0)[corner_j] of
    ``_newton_coefficients``.  They do not depend on n and vanish past
    k = rmax * m, so one cached tensor pass per (pattern, order) serves every
    n: the pass costs O(rmax*m * nnz) big-int additions, where
    nnz < 2^(rmax+1) * C(m+rmax, rmax) is the size of the step plan, and each
    n then costs O(rmax * rmax*m) big-int products.  When the full pass would
    pass 2^27 cell-steps it runs min(n, rmax*m) steps for this n only, and
    more than 2^27 cell-steps even then is a CapacityError.
    """
    m = core.check_lengths(len(core.validate_pattern(x)), n)
    if not 1 <= rmax <= 4:
        raise ValueError("moment order must be in 1..4")
    steps = rmax * m
    if steps * binomial(m + rmax, rmax) > _MOMENT_CELL_STEPS:
        steps = min(n, steps)
        check_cell_steps(m, rmax, steps)
    rows = _newton_coefficients(x, rmax, steps)
    scales, scale = [], 1 << steps
    for k in range(1, min(n, steps) + 1):
        scale = scale * (n - k + 1) // (2 * k)  # C(n, k) * 2^(steps - k)
        scales.append(scale)
    return [Fraction(sum(map(operator.mul, scales, row)), 1 << steps) for row in rows]


@functools.lru_cache(maxsize=_NEWTON_CACHE)
def _newton_coefficients(x: str, r: int, steps: int) -> tuple[tuple[int, ...], ...]:
    """t_jk = (U^k T0)[corner_j] for j = 1..r (rows) and k = 1..steps.

    T = U^k T0 counts the r-tuples of prefix embeddings covering exactly
    k text positions; each step advances an index, so T vanishes after
    r * m steps.  T0 is symmetric and U commutes with permuting the axes,
    so T is kept on the C(m+r, r) sorted index tuples only, as an exact-int
    object vector, and one step is one gather and one ``np.add.reduceat``
    along the plan of ``_step_plan``.  t_jk sits at the sorted tuple
    (0, .., 0, m, .., m) with j entries m, whose code is (m+1)^j - 1.
    """
    m = len(x)
    codes, dst, src, starts = _step_plan(_pattern_bits(x), r)
    corners = np.searchsorted(codes, (m + 1) ** np.arange(1, r + 1) - 1)
    tensor = np.zeros(len(codes), dtype=object)
    tensor[0] = 1  # empty text: c = (1, 0, ..., 0)
    rows = []
    for _ in range(steps):
        nxt = np.zeros(len(codes), dtype=object)
        nxt[dst] = np.add.reduceat(tensor[src], starts)
        tensor = nxt
        rows.append(tensor[corners].tolist())
    return tuple(zip(*rows))


def check_cell_steps(m: int, rmax: int, steps: int) -> None:
    """A CapacityError if ``steps`` steps over the C(m+rmax, rmax) cells of
    the order-rmax tensor of a length-m pattern pass 2^27."""
    cells = binomial(m + rmax, rmax)
    if steps * cells > _MOMENT_CELL_STEPS:
        raise core.CapacityError(
            f"order-{rmax} moment tensor needs {steps} steps over {cells} cells "
            f"= {steps * cells} cell-steps, above the bound {_MOMENT_CELL_STEPS}"
        )


def check_range_cell_steps(m: int, rmax: int, ns: range) -> None:
    """A CapacityError, before any work, if the order-rmax moments of a
    length-m pattern at every n of ``ns`` pass 2^27 cell-steps.

    When the full pass of r*m steps fits, ``raw_moments`` runs it once and
    every n reuses its coefficients: the range costs that pass plus
    rmax * min(n, rmax*m) products per n, counted at the largest n.
    Otherwise each n runs its own min(n, rmax*m) steps, summed in closed form.
    """
    full = rmax * m
    lo, hi = ns[0], ns[-1]
    cells = binomial(m + rmax, rmax)
    if full * cells > _MOMENT_CELL_STEPS:
        t = max(lo - 1, min(hi, full))  # n = lo..t take n steps, the rest r*m each
        check_cell_steps(m, rmax, (lo + t) * (t - lo + 1) // 2 + (hi - t) * full)
        return
    evals = len(ns) * rmax * min(hi, full)
    if full * cells + evals > _MOMENT_CELL_STEPS:
        raise core.CapacityError(
            f"order-{rmax} moments at n = {lo}..{hi} need {full} steps over "
            f"{cells} cells plus {len(ns)} evaluations of {rmax * min(hi, full)} "
            f"products = {full * cells + evals} cell-steps, above the bound "
            f"{_MOMENT_CELL_STEPS}"
        )


def _step_plan(xb: np.ndarray, r: int):
    """The step (U T)[i] = sum_b sum_S T[sort(i - e_S)] on sorted r-tuples.

    S runs over the nonempty sets of axes whose index may step back under
    symbol b: index i > 0 may when x_i = b, as in c_i += [x_i = b] * c_{i-1};
    U's -2I cancels the two empty sets.  Returns (codes, dst, src, starts): the
    base-(m+1) codes of the cells in lexicographic (increasing) order, the
    cells that receive a term, and the source cells of their terms grouped
    by destination, group g starting at starts[g].
    """
    m = len(xb)
    cells = np.arange(m + 1)[:, None]
    for _ in range(r - 1):  # append every value >= the current last index
        reps = m + 1 - cells[:, -1]
        first = np.repeat(np.cumsum(reps) - reps, reps)
        cells = np.repeat(cells, reps, axis=0)
        cells = np.column_stack([cells, cells[:, -1] + np.arange(len(cells)) - first])
    place = (m + 1) ** np.arange(r - 1, -1, -1)
    codes = cells @ place
    dst, src = [], []
    for b in (0, 1):
        may = np.r_[False, xb == b][cells]
        for subset in range(1, 1 << r):
            axes = [a for a in range(r) if subset >> a & 1]
            rows = np.flatnonzero(may[:, axes].all(axis=1))
            prev = cells[rows]
            prev[:, axes] -= 1
            prev.sort(axis=1)
            dst.append(rows)
            src.append(np.searchsorted(codes, prev @ place))
    dst = np.concatenate(dst)
    order = np.argsort(dst, kind="stable")
    dst, src = dst[order], np.concatenate(src)[order]
    starts = np.flatnonzero(np.diff(dst, prepend=-1))
    return codes, dst[starts], src, starts


def exact_moment(x: str, n: int, r: int) -> Fraction:
    """E[W^r] as an exact rational, r in 1..4."""
    return raw_moments(x, n, r)[r - 1]


def central_from_raw(raw: list) -> tuple:
    """(mean, mu2, mu3, mu4) from raw moments [E, E2, E3, E4]."""
    e1, e2, e3, e4 = raw
    mu2 = e2 - e1 * e1
    mu3 = e3 - 3 * e2 * e1 + 2 * e1**3
    mu4 = e4 - 4 * e3 * e1 + 6 * e2 * e1**2 - 3 * e1**4
    return e1, mu2, mu3, mu4


def exact_moment_set(x: str, n: int) -> MomentSet:
    """Mean and central moments 2..4 of W, exact, from one order-4 DP pass."""
    mean, mu2, mu3, mu4 = central_from_raw(raw_moments(x, n, 4))
    return MomentSet(mean=mean, central={2: mu2, 3: mu3, 4: mu4}, provenance="exact")


# ---------------------------------------------------------------------------
# autocorrelation coefficient
# ---------------------------------------------------------------------------

# Interleaving tables are cached for lengths m <= _TABLE_CACHE only, one per
# length.  A table holds m^2 exact ints: under 0.3 MiB at m = 64, so the
# cache stays under about 20 MiB; a longer table (35 MiB at m = 500,
# tracemalloc) is built per call and dropped afterwards.
_TABLE_CACHE = 64


@functools.lru_cache(maxsize=_TABLE_CACHE)
def _interleaving_table(m: int) -> tuple[tuple[int, ...], ...]:
    """M for length m, as a tuple of tuples of exact ints.

    M[r][s] = C(r+s, r) * C(2m-r-s-2, m-r-1) for 0-based r, s: the product
    of P[r][s] and P[m-1-r][m-1-s] in the Pascal square P[r][s] = C(r+s, r),
    whose row r is the running sum of row r - 1, so the table costs m^2
    big-int additions and products.  M is symmetric, and every row sums to
    C(2m-1, m) (Chu-Vandermonde), so its total is kappa_max(m).
    """
    pascal = [[1] * m]
    for _ in range(1, m):
        pascal.append(list(itertools.accumulate(pascal[-1])))
    return tuple(
        tuple(map(operator.mul, pascal[r], reversed(pascal[m - 1 - r])))
        for r in range(m)
    )


def _interleavings(m: int) -> tuple[tuple[int, ...], ...]:
    """``_interleaving_table(m)``, from the cache only for m <= _TABLE_CACHE."""
    if m <= _TABLE_CACHE:
        return _interleaving_table(m)
    return _interleaving_table.__wrapped__(m)


def interleaving_matrix(m: int) -> list[list[int]]:
    """M[r][s] = C(r+s, r) * C(2m-r-s-2, m-r-1) for 0-based r, s.

    Counts the interleavings of two length-m index sets sharing exactly one
    position, split around the shared position.  Tables up to length
    _TABLE_CACHE are built once and cached; each call returns a fresh list
    of lists.
    """
    core.check_lengths(m)
    return [list(row) for row in _interleavings(m)]


def kappa_squared(x: str) -> int:
    """Autocorrelation coefficient: single-overlap interleavings of two
    copies of x whose shared position carries equal symbols.

    With symbols b in {0, 1}, [b_r = b_s] = 1 - b_r - b_s + 2 b_r b_s, and
    every row of M sums to C(2m-1, m), so
    kappa2 = (m - 2|b|) C(2m-1, m) + 2 b'Mb over the interleaving table, in
    exact ints for any m.  kappa2 is unchanged by complementing x, so b
    marks the positions of the rarer symbol: at most m^2 / 4 terms.
    """
    core.validate_pattern(x)
    m = len(x)
    mat = _interleavings(m)
    rare = "1" if x.count("1") <= m // 2 else "0"
    pos = [i for i, c in enumerate(x) if c == rare]
    cross = sum(mat[r][s] for r in pos for s in pos)
    return (m - 2 * len(pos)) * binomial(2 * m - 1, m) + 2 * cross


def kappa_decomposition(x: str) -> KappaDecomposition:
    """The symbol mask, interleaving matrix, and their Hadamard product."""
    core.validate_pattern(x)
    m = len(x)
    mat = interleaving_matrix(m)
    mask = [[1 if x[r] == x[s] else 0 for s in range(m)] for r in range(m)]
    masked = [[mask[r][s] * mat[r][s] for s in range(m)] for r in range(m)]
    return KappaDecomposition(
        m=m,
        symbol_mask=mask,
        interleavings=mat,
        masked=masked,
        kappa_squared=sum(sum(row) for row in masked),
    )


def kappa_max(m: int) -> int:
    """Largest possible autocorrelation at length m: m * C(2m-1, m),
    attained exactly by the two constant patterns."""
    core.check_lengths(m)
    return m * binomial(2 * m - 1, m)


def variance_coefficient(kappa2: int, m: int) -> int:
    """Signed interleaving count governing the variance growth of W.

    Single-overlap interleavings contribute +1 when the shared position
    carries equal symbols and -1 otherwise, giving
    2 * kappa2 - m * C(2m-1, m).  The exact variance of W, rescaled by
    2^(2m) * (2m-1)! / n^(2m-1), converges to this number.
    """
    return 2 * kappa2 - kappa_max(m)


def asymptotic_mean(n: int, m: int) -> float:
    """Leading term of E[W]: 2^(-m) * n^m / m!, rounded once from the exact
    ratio so that large n^m cannot overflow on the way."""
    core.check_lengths(m, n)
    ratio = Fraction(n**m, (1 << m) * math.factorial(m))
    return _round_once(ratio, f"asymptotic mean at n={n}, m={m}")


def asymptotic_variance(n: int, m: int, kappa2: int) -> float:
    """Leading term of Var[W] for a pattern with autocorrelation kappa2.

    Matched single-overlap interleavings raise the variance and mismatched
    ones lower it, so the growth constant is the signed count
    2 * kappa2 - m * C(2m-1, m), not kappa2 itself.  The value is rounded
    once from the exact ratio.
    """
    core.check_lengths(m, n)
    coeff = variance_coefficient(kappa2, m)
    ratio = Fraction(
        coeff * n ** (2 * m - 1), (1 << (2 * m)) * math.factorial(2 * m - 1)
    )
    return _round_once(ratio, f"asymptotic variance at n={n}, m={m}")


def _round_once(ratio: Fraction, what: str) -> float:
    try:
        return float(ratio)
    except OverflowError:
        raise core.CapacityError(f"{what} exceeds the float range (1.8e308)") from None


def gaussian_limit_moments(n: int, m: int, kappa2: int) -> MomentSet:
    """Moment set of the Gaussian limit of W at length n.

    Mean and variance are the leading-order terms; the third central moment
    vanishes and the fourth is 3 * variance^2, the normal-law values, as an
    exact Fraction of the rounded variance (its square can pass 1.8e308).
    """
    var = asymptotic_variance(n, m, kappa2)
    return MomentSet(
        mean=asymptotic_mean(n, m),
        central={2: var, 3: 0.0, 4: 3 * Fraction(var) ** 2},
        provenance="asymptotic",
    )


# ---------------------------------------------------------------------------
# shape diagnostics
# ---------------------------------------------------------------------------

def diagnostics_from_moments(moments: MomentSet, n: int) -> GaussianDiagnostics:
    """Skewness and excess kurtosis from a moment set.

    The ratios mu3^2 / mu2^3 and mu4 / mu2^2 - 3 are formed as exact
    Fractions and rounded once each, so neither the cancellation of a nearly
    symmetric distribution nor moments beyond the float range (a 30-bit
    pattern at n = 10^6) reach the result; the skewness is the square root
    of the first, with the sign of mu3.
    """
    mu2, mu3, mu4 = (Fraction(moments.central[j]) for j in (2, 3, 4))
    if mu2 <= 0:
        raise DegenerateDistributionError(
            "variance is zero; skewness and kurtosis are undefined"
        )
    skew = math.sqrt(float(mu3 * mu3 / mu2**3))
    kurt = float(mu4 / (mu2 * mu2) - 3)
    return GaussianDiagnostics(
        n=n, skewness=-skew if mu3 < 0 else skew, excess_kurtosis=kurt
    )


def gaussian_diagnostics(
    x: str, n: int, moments: MomentSet | None = None
) -> GaussianDiagnostics:
    """Diagnostics for pattern x at text length n.

    With no ``moments`` argument the exact tensor DP supplies them; pass an
    empirical moment set (from a histogram) to diagnose sampled data.
    """
    if moments is None:
        moments = exact_moment_set(x, n)
    return diagnostics_from_moments(moments, n)
