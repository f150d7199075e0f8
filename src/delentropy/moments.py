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
  cached, over numpy object vectors or, for a small pass before numpy is
  loaded, over Python lists; each n then costs O(r * r*m) big-int products;
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
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import core
from .core import DegenerateDistributionError, binomial
from .core import _TABLE_CACHE, _interleaving_table, kappa_max  # defined in core for the scans

# Sorted tensor cells times DP steps raw_moments accepts: ~0.3 us each
# (measured at m = 32..45, r = 4), ~40 s.
_MOMENT_CELL_STEPS = 1 << 27

# Cell-steps up to which a pass runs in pure Python while numpy is not yet
# loaded.  Cold CLI runs of ``moments`` at order 4, numpy import and pass
# against pure pass (2-core box, median of 5): 243 against 220 ms at m = 14
# (171,360 cell-steps), 278 against 308 ms at m = 16 (310,080), so 2^17
# keeps a margin below the crossover.
_PURE_CELL_STEPS = 1 << 17

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
    more than 2^27 cell-steps even then is a CapacityError.  The sums come
    as ints over one power of two (``_raw_sums``); the moment set, the
    Gaussian diagnostics and the Renyi-2 entropy read those ints and form
    only the Fractions they return.
    """
    sums, steps = _raw_sums(x, n, rmax)
    return [Fraction(a, 1 << steps) for a in sums]


def _raw_sums(x: str, n: int, r: int) -> tuple[list[int], int]:
    """(sums, steps) with E[W^j] = sums[j - 1] / 2^steps for j = 1..r: the
    Newton sums of ``raw_moments`` as exact ints, each
    sum_k C(n, k) 2^(steps - k) t_jk.  j embeddings cover m to j*m text
    positions, so only k = m..j*m can have t_jk != 0, and the sum runs
    over those terms alone."""
    m = core.check_lengths(len(core.validate_pattern(x)), n)
    if not 1 <= r <= 4:
        raise ValueError("moment order must be in 1..4")
    steps = r * m
    if steps * binomial(m + r, r) > _MOMENT_CELL_STEPS:
        steps = min(n, steps)
        check_cell_steps(m, r, steps)
    rows = _newton_coefficients(x, r, steps)
    scale = binomial(n, m) << (steps - m)
    scales = [scale]
    for k in range(m + 1, min(n, steps) + 1):
        scale = scale * (n - k + 1) // (2 * k)  # C(n, k) * 2^(steps - k)
        scales.append(scale)
    sums = [sum(map(operator.mul, scales, row[m - 1:j * m])) for j, row in enumerate(rows, 1)]
    return sums, steps


@functools.lru_cache(maxsize=_NEWTON_CACHE)
def _newton_coefficients(x: str, r: int, steps: int) -> tuple[tuple[int, ...], ...]:
    """t_jk = (U^k T0)[corner_j] for j = 1..r (rows) and k = 1..steps.

    T = U^k T0 counts the r-tuples of prefix embeddings covering exactly
    k text positions; each step advances an index, so T vanishes after
    r * m steps.  T0 is symmetric and U commutes with permuting the axes,
    so T is kept on the C(m+r, r) sorted index tuples only, as exact ints,
    and one step is one gather and one grouped sum along the rule of
    ``_step_plan``.  t_jk sits at the sorted tuple (0, .., 0, m, .., m)
    with j entries m.  Once numpy is loaded, ``_array_pass`` is the faster
    pass at every size; before, a pass of at most _PURE_CELL_STEPS
    cell-steps runs in ``_pure_pass`` (``core.before_numpy``) and spares
    the process the numpy import, which costs more than the whole pass.
    """
    if core.before_numpy(steps * binomial(len(x) + r, r), _PURE_CELL_STEPS):
        return _pure_pass(x, r, steps)
    return _array_pass(x, r, steps)


def _array_pass(x: str, r: int, steps: int) -> tuple[tuple[int, ...], ...]:
    """``_newton_coefficients`` over an exact-int object vector: one step is
    one gather and one ``np.add.reduceat`` along the plan of ``_step_plan``;
    t_jk sits at code (m+1)^j - 1.  numpy is imported here and in
    ``_step_plan`` only, so the closed forms, kappa2 and small cold passes
    run without it."""
    import numpy as np

    m = len(x)
    xb = np.frombuffer(x.encode(), dtype=np.uint8) - ord("0")
    codes, dst, src, starts = _step_plan(xb, r)
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


def _pure_pass(x: str, r: int, steps: int) -> tuple[tuple[int, ...], ...]:
    """``_newton_coefficients`` over a list of exact ints, with the rule of
    ``_step_plan``: each cell's sources sort(cell - e_S), for every symbol
    and nonempty set S of the axes whose index i > 0 has x_i equal to it,
    are stored flat and grouped by destination, so one step is one
    ``itemgetter`` gather and one ``map(sum, ...)`` over the groups, both in
    C loops.  The cells come in the lexicographic order of ``_step_plan``'s
    codes.  A zero sentinel cell, its own only source, keeps the gather a
    tuple when the plan has one source (m = 1)."""
    cells = list(itertools.combinations_with_replacement(range(len(x) + 1), r))
    index = {cell: i for i, cell in enumerate(cells)}
    src, groups = [], []
    for cell in cells:
        start = len(src)
        for b in "01":
            axes = [a for a, i in enumerate(cell) if i and x[i - 1] == b]
            for k in range(1, len(axes) + 1):
                for subset in itertools.combinations(axes, k):
                    prev = list(cell)
                    for a in subset:
                        prev[a] -= 1
                    src.append(index[tuple(sorted(prev))])
        groups.append(slice(start, len(src)))
    sentinel = len(cells)
    groups.append(slice(len(src), len(src) + 1))
    src.append(sentinel)
    gather = operator.itemgetter(*src)
    corners = [index[(0,) * (r - j) + (len(x),) * j] for j in range(1, r + 1)]
    tensor = [1] + [0] * sentinel  # empty text: c = (1, 0, ..., 0)
    rows = []
    for _ in range(steps):
        terms = gather(tensor)
        tensor = list(map(sum, map(terms.__getitem__, groups)))
        rows.append([tensor[i] for i in corners])
    return tuple(zip(*rows))


def check_cell_steps(m: int, rmax: int, steps: int) -> None:
    """A CapacityError if ``steps`` steps over the C(m+rmax, rmax) cells of
    the order-rmax tensor of a length-m pattern pass 2^27."""
    cells = binomial(m + rmax, rmax)
    core.charge(f"order-{rmax} moment tensor", steps * cells,
                f"{steps} steps over {cells} cells",
                bound=_MOMENT_CELL_STEPS, unit="cell-steps")


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
    products = rmax * min(hi, full)
    core.charge(f"computing order-{rmax} moments at n = {lo}..{hi}",
                full * cells + len(ns) * products,
                f"{full} steps over {cells} cells plus {len(ns)} evaluations of "
                f"{products} products", bound=_MOMENT_CELL_STEPS, unit="cell-steps")


def _step_plan(xb, r: int):
    """The step (U T)[i] = sum_b sum_S T[sort(i - e_S)] on sorted r-tuples.

    S runs over the nonempty sets of axes whose index may step back under
    symbol b: index i > 0 may when x_i = b, as in c_i += [x_i = b] * c_{i-1};
    U's -2I cancels the two empty sets.  Returns (codes, dst, src, starts): the
    base-(m+1) codes of the cells in lexicographic (increasing) order, the
    cells that receive a term, and the source cells of their terms grouped
    by destination, group g starting at starts[g].
    """
    import numpy as np

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
    sums, steps = _raw_sums(x, n, r)
    return Fraction(sums[-1], 1 << steps)


def _central_ints(a1: int, a2: int, a3: int, a4: int, d: int) -> tuple[int, int, int]:
    """(P2, P3, P4) with mu_k = P_k / d^k, for raw moments E_j = a_j / d:
      P2 = a2 d - a1^2,
      P3 = (a3 d - 3 a2 a1) d + 2 a1^3,
      P4 = ((a4 d - 4 a3 a1) d + 6 a2 a1^2) d - 3 a1^4.
    """
    a1a1 = a1 * a1
    p2 = a2 * d - a1a1
    p3 = (a3 * d - 3 * a2 * a1) * d + 2 * a1a1 * a1
    p4 = ((a4 * d - 4 * a3 * a1) * d + 6 * a2 * a1a1) * d - 3 * a1a1 * a1a1
    return p2, p3, p4


def central_from_raw(raw: list) -> tuple:
    """(mean, mu2, mu3, mu4) from exact raw moments [E, E2, E3, E4] (ints or
    Fractions), the central moments as Fractions.

    The raw moments are put over one denominator d, the lcm of theirs, as
    E_j = a_j / d, and each central moment is one Fraction of the integer
    polynomials of ``_central_ints``, reduced once, instead of a chain of
    Fraction products and sums that each reduce.
    """
    dens = [e.denominator for e in raw]
    d = math.lcm(*dens)
    p2, p3, p4 = _central_ints(*(e.numerator * (d // den) for e, den in zip(raw, dens)), d)
    return raw[0], Fraction(p2, d * d), Fraction(p3, d**3), Fraction(p4, d**4)


def exact_moment_set(x: str, n: int) -> MomentSet:
    """Mean and central moments 2..4 of W, exact, from one order-4 DP pass:
    four Fractions of the ints of ``_raw_sums`` and ``_central_ints``."""
    sums, steps = _raw_sums(x, n, 4)
    d = 1 << steps
    p2, p3, p4 = _central_ints(*sums, d)
    return MomentSet(
        mean=Fraction(sums[0], d),
        central={2: Fraction(p2, d * d), 3: Fraction(p3, d**3), 4: Fraction(p4, d**4)},
        provenance="exact",
    )


# ---------------------------------------------------------------------------
# autocorrelation coefficient
# ---------------------------------------------------------------------------

# Lengths whose interleaving rows ``kappa_squared`` packs into fields of at
# most 64 bits: a field holds a column sum of M over some of its rows, at most
# C(2m-1, m) (every column sums to it), and C(67, 34) < 2^64 <= C(69, 35).
_PACKED_M = 34

# Pattern bits per chunk of ``_chunk_tables``.  200 patterns at m = 20..30,
# median of 40 passes: 0.61 / 0.59 / 0.57 ms warm with 5- / 6- / 8-bit
# chunks, and 0.82 / 0.83 / 0.83 ms when a 16 MiB memory sweep precedes each
# pass, so the width is set by the tables' bytes: 0.39 MiB for those lengths
# at 5 bits, against 0.64 MiB at 6 and 1.83 MiB at 8.
_CHUNK_BITS = 5
_CHUNK_MASK = (1 << _CHUNK_BITS) - 1

# maps the characters of a pattern to the bytes 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


@functools.lru_cache(maxsize=_PACKED_M)
def _chunk_tables(m: int):
    """(tables, fields, top) for length m <= _PACKED_M.

    The rows of the interleaving table are packed by ``core._pack_fields``,
    field s of row r holding M[r][s], and ``fields`` is the ``struct`` that
    reads a sum of such rows.  Bit i of ``int(x, 2)`` marks position
    m - 1 - i, and the bits are cut into chunks of _CHUNK_BITS from the
    lowest: entry v of ``tables[c]`` is the sum of the packed rows that the
    bits of v select in chunk c, built by doubling with one addition per
    entry.  top = C(2m-1, m).  One length holds ceil(m / _CHUNK_BITS)
    tables of up to 2^_CHUNK_BITS ints of m fields; by ``sys.getsizeof``,
    25 KiB at m = 20, 53 KiB at m = 30 and 64 KiB at m = 34: 0.39 MiB for
    m = 20..30 and 0.72 MiB for the full cache of m = 1..34.  The rows are
    packed from an interleaving table built for this call and dropped, so a
    length that only ``kappa_squared`` asks for does not also hold its
    tuple table in ``_interleaving_table``'s cache.
    """
    top = binomial(2 * m - 1, m)
    rows, fields = core._pack_fields(_interleaving_table.__wrapped__(m), top)
    bit_rows = rows[::-1]
    tables = []
    for lo in range(0, m, _CHUNK_BITS):
        table = [0]
        for row in bit_rows[lo:lo + _CHUNK_BITS]:
            table += [v + row for v in table]
        tables.append(tuple(table))
    return tuple(tables), fields, top


def _table_bytes(m: int) -> int:
    """Bytes the build of the length-m interleaving table may peak at.

    Every entry of the table and of the Pascal square behind it is at most
    C(2m-1, m), so each of the m^2 entries is charged two ints of that
    binomial's ``sys.getsizeof`` plus a tuple slot and a list slot.
    tracemalloc put the build's peak at 0.92 of this charge at m = 65,
    falling to 0.70 at m = 800 (58 MiB at m = 500, 1252 MiB at m = 1500).
    """
    return m * m * (2 * sys.getsizeof(binomial(2 * m - 1, m)) + 16)


def _interleavings(m: int) -> tuple[tuple[int, ...], ...]:
    """``_interleaving_table(m)``, from the cache only for m <= _TABLE_CACHE.

    A longer table is charged ``_table_bytes(m)`` (``core.charge``) first:
    1 GiB admits m = 1200 and refuses m = 1300.
    """
    if m <= _TABLE_CACHE:
        return _interleaving_table(m)
    core.charge(f"building the interleaving table of length {m}", _table_bytes(m))
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
    exact ints for any m.  Up to m = _PACKED_M, b marks the 1s of x: the
    packed rows they select, S = Mb in fields, are one table entry per
    chunk of ``int(x, 2)`` (``_chunk_tables``), and b'Mb is the sum of S's
    fields at the 1s, picked by ``itertools.compress``.  No field passes
    C(2m-1, m), the column sum of M, whatever |b| is.  200 patterns at
    m = 20..30, median of 40 passes: 0.61 ms warm and 0.82 ms after a
    16 MiB memory sweep, against 0.99 and 1.06 ms for sums of the rarer
    symbol's packed rows.  Past _PACKED_M, kappa2 is unchanged by
    complementing x, so b marks the positions of the rarer symbol: at most
    m^2 / 4 terms, added in C loops over the rows and columns one
    ``itemgetter`` picks.
    """
    core.validate_pattern(x)
    m = len(x)
    if m <= _PACKED_M:
        tables, fields, top = _chunk_tables(m)
        v, mb = int(x, 2), 0
        for table in tables:
            mb += table[v & _CHUNK_MASK]
            v >>= _CHUNK_BITS
        picked = itertools.compress(
            fields.unpack(mb.to_bytes(fields.size, "little")), x.encode().translate(_BIT_BYTES)
        )
        return (m - 2 * x.count("1")) * top + 2 * sum(picked)
    rare = "1" if x.count("1") <= m // 2 else "0"
    pos = [i for i, c in enumerate(x) if c == rare]
    if len(pos) < 2:  # at most one diagonal entry M[r][r]: no table needed
        cross = sum(
            binomial(2 * r, r) * binomial(2 * (m - r - 1), m - r - 1) for r in pos
        )
    else:
        pick = operator.itemgetter(*pos)
        cross = sum(map(sum, map(pick, pick(_interleavings(m)))))
    return (m - 2 * len(pos)) * binomial(2 * m - 1, m) + 2 * cross


def kappa_decomposition(x: str) -> KappaDecomposition:
    """The symbol mask, interleaving matrix, and their Hadamard product.

    Row r of the mask is the row of x's symbol at r: ``ones`` marks the 1s
    of x and ``zeros`` its 0s, each formed once and copied per row.
    """
    core.validate_pattern(x)
    m = len(x)
    mat = interleaving_matrix(m)
    ones = list(x.encode().translate(_BIT_BYTES))
    zeros = [1 - b for b in ones]
    mask = [(ones if b else zeros).copy() for b in ones]
    masked = [list(map(operator.mul, brow, mrow)) for brow, mrow in zip(mask, mat)]
    return KappaDecomposition(
        m=m,
        symbol_mask=mask,
        interleavings=mat,
        masked=masked,
        kappa_squared=sum(map(sum, masked)),
    )


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
    """Skewness and excess kurtosis from a moment set, by ``_shape`` on its
    central moments as exact Fractions."""
    return _shape(*(Fraction(moments.central[j]) for j in (2, 3, 4)), n)


def _shape(p2, p3, p4, n: int) -> GaussianDiagnostics:
    """Diagnostics from the central moments mu2, mu3, mu4, or from any
    P_k = mu_k d^k (exact ints or Fractions).

    The ratios mu3^2 / mu2^3 = P3^2 / P2^3 and
    mu4 / mu2^2 - 3 = (P4 - 3 P2^2) / P2^2 are formed exactly and rounded
    once each (Fraction to float and int / int true division both round
    the exact ratio once), so neither the cancellation of a nearly
    symmetric distribution nor moments beyond the float range (a 30-bit
    pattern at n = 10^6) reach the result; the skewness is the square root
    of the first, with the sign of mu3.
    """
    if p2 <= 0:
        raise DegenerateDistributionError(
            "variance is zero; skewness and kurtosis are undefined"
        )
    skew = math.sqrt(float(p3 * p3 / p2**3))
    kurt = float((p4 - 3 * p2 * p2) / (p2 * p2))
    return GaussianDiagnostics(
        n=n, skewness=-skew if p3 < 0 else skew, excess_kurtosis=kurt
    )


def gaussian_diagnostics(
    x: str, n: int, moments: MomentSet | None = None
) -> GaussianDiagnostics:
    """Diagnostics for pattern x at text length n.

    With no ``moments`` argument the exact tensor DP supplies them, as the
    ints P_k of ``_central_ints``, so no Fraction is formed; pass an
    empirical moment set (from a histogram) to diagnose sampled data.
    """
    if moments is not None:
        return diagnostics_from_moments(moments, n)
    sums, steps = _raw_sums(x, n, 4)
    return _shape(*_central_ints(*sums, 1 << steps), n)
