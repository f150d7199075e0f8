"""Exhaustive extremal scans over all patterns of a fixed length.

The autocorrelation maximum is a proved statement and any counterexample is
a hard error; the autocorrelation minimum and the finite-length entropy
minimum are evidence-gathering scans whose deviations are reported as
findings, never silently absorbed.  Every ``workers`` argument is accepted
for compatibility and ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import core
from .entropy import shannon_entropy
from .moments import _interleaving_table, kappa_max

# The scan's int64 partial sums stay within +-4 * kappa_max(m): sum(M) is
# kappa_max(m) = m C(2m-1, m), so each of 2|b| C(2m-1, m), 2 b'Mb and the
# cross term 4 l'M_lh h is at most 2 * kappa_max(m).
# 4 * kappa_max(30) = 7.1e18 < 2^63.
_KAPPA_M_MAX = 30

# Patterns per block of the kappa2 scan, a power of two: a block holds the
# patterns sharing their high bits and running over all log2(_KAPPA_BLOCK)
# low bits.  Larger blocks raise peak memory without making the scan faster.
_KAPPA_BLOCK = 1 << 11


class ExtremalInvariantError(Exception):
    """An exhaustive scan contradicted a proved extremal statement."""


@dataclass
class ExtremalResult:
    """Witnesses attaining an extremal value, with the predicted witness set.

    ``finding`` is non-None when the scan deviates from the prediction; for
    evidence-gathering criteria this is a notable finding, not an error.
    """

    criterion: str
    m: int
    value: object
    witnesses: list[str]
    expected: list[str] | None = None
    n: int | None = None

    @property
    def finding(self) -> dict | None:
        if self.expected is None or self.witnesses == self.expected:
            return None
        return {
            "criterion": self.criterion,
            "m": self.m,
            "n": self.n,
            "value": str(self.value),
            "witnesses": self.witnesses,
            "expected": self.expected,
        }


@dataclass
class OrderingTable:
    """All patterns of length m ranked by autocorrelation, with entropies.

    Rows are (pattern, kappa_squared, shannon_bits), kappa descending and
    ties broken lexicographically.  ``violations`` lists every strict
    kappa pair whose entropies are not strictly reversed, and every
    equal-kappa class whose entropies are not all equal.
    """

    n: int
    m: int
    rows: list[tuple[str, int, float]]
    violations: list[dict] = field(default_factory=list)

    @property
    def ordering_ok(self) -> bool:
        return not self.violations


def constant_patterns(m: int) -> list[str]:
    return ["0" * m, "1" * m]


def alternating_patterns(m: int) -> list[str]:
    a = "".join("01"[i % 2] for i in range(m))
    return sorted({a, core.complement(a)})


def kappa_blocks(m: int):
    """Yield (patterns, kappa2) int64 array blocks over all 2^m patterns.

    Patterns are integer values in increasing (lexicographic) order.  With
    symbols b in {0, 1} and M symmetric, [b_r = b_s] expands to
    1 - b_r - b_s + 2 b_r b_s, and every row of M sums to c = C(2m-1, m), so
    kappa2(b) = (m - 2|b|) c + 2 b'Mb.
    Splitting b into its high bits h and its k = log2(_KAPPA_BLOCK) low bits
    l, the terms in l alone are formed once for all l, and a block (one h)
    adds a scalar in h and the cross term l @ (4 M_lh h): 2^k * k
    multiply-adds per block instead of 2^k * m^2.
    """
    if m < 1:
        raise ValueError("pattern length must be >= 1")
    if m > _KAPPA_M_MAX:
        raise core.CapacityError(
            f"kappa2 scan over 2^{m} patterns refused: m <= {_KAPPA_M_MAX} "
            f"keeps 4 * kappa_max(m) within int64"
        )
    mat = np.array(_interleaving_table(m), dtype=np.int64)
    c = core.binomial(2 * m - 1, m)
    k = min(m, _KAPPA_BLOCK.bit_length() - 1)
    hi = m - k
    low = np.arange(1 << k)
    lbits = (low[:, None] >> np.arange(k - 1, -1, -1)) & 1
    # base[l] = kappa2 of the pattern with high bits 0 and low bits l
    quad = ((lbits @ mat[hi:, hi:]) * lbits).sum(axis=1)
    base = (m - 2 * lbits.sum(axis=1)) * c + 2 * quad
    mat_hh, cross = mat[:hi, :hi], 4 * mat[hi:, :hi]
    shifts = np.arange(hi - 1, -1, -1)
    for h in range(1 << hi):
        b = (h >> shifts) & 1
        scalar = 2 * int(b @ (mat_hh @ b) - c * b.sum())
        yield low + (h << k), base + (scalar + lbits @ (cross @ b))


def _kappa_extremes(m: int):
    """(max, max witnesses, min, min witnesses) of kappa2 over all 2^m
    patterns, keeping running extremes; witnesses are in lexicographic order."""
    best_max = best_min = None
    wits_max: list[int] = []
    wits_min: list[int] = []
    for v, k in kappa_blocks(m):
        top, low = int(k.max()), int(k.min())
        if best_max is None or top > best_max:
            best_max, wits_max = top, []
        if best_min is None or low < best_min:
            best_min, wits_min = low, []
        if top == best_max:
            wits_max += v[k == top].tolist()
        if low == best_min:
            wits_min += v[k == low].tolist()
    fmt = f"0{m}b"
    return (
        best_max,
        [format(v, fmt) for v in wits_max],
        best_min,
        [format(v, fmt) for v in wits_min],
    )


def verify_kappa_max(m: int, *, workers: int = 1) -> ExtremalResult:
    """Exhaustively confirm that exactly the constant patterns maximize the
    autocorrelation, at the closed-form value m * C(2m-1, m).

    A deviation would falsify a proved statement, so it raises instead of
    being reported as a finding.
    """
    best, witnesses, _, _ = _kappa_extremes(m)
    expected_value = kappa_max(m)
    expected = constant_patterns(m)
    if best != expected_value or witnesses != sorted(expected):
        raise ExtremalInvariantError(
            f"autocorrelation maximum scan at m={m} found {best} on "
            f"{witnesses}, expected {expected_value} on {expected}"
        )
    return ExtremalResult(
        criterion="kappa-max",
        m=m,
        value=best,
        witnesses=witnesses,
        expected=sorted(expected),
    )


def search_kappa_min(m: int, *, workers: int = 1) -> ExtremalResult:
    """Exhaustive argmin of the autocorrelation.

    The alternating patterns are the predicted minimizers; the scan reports
    whatever it finds and leaves the comparison to the caller (a deviation
    is a notable finding, not an error).
    """
    _, _, best, witnesses = _kappa_extremes(m)
    return ExtremalResult(
        criterion="kappa-min",
        m=m,
        value=best,
        witnesses=witnesses,
        expected=alternating_patterns(m),
    )


def _entropy_rows(n: int, m: int, guard: int | None) -> list[tuple[str, float]]:
    """(x, Shannon bits) for all 2^m patterns in lexicographic order, one
    exact histogram per symmetry orbit: complement and reversal leave the
    histogram, and so the bits, unchanged."""
    return core.per_orbit(m, lambda x: shannon_entropy(x, n, guard=guard))


def ordering_table(
    n: int, m: int, *, guard: int | None = None, workers: int = 1
) -> OrderingTable:
    """Rank all 2^m patterns by autocorrelation and check the entropy order.

    For every pair with strictly larger kappa the entropy must be strictly
    smaller; equal-kappa classes must agree in entropy exactly, which
    decides ties exactly: equal histograms give bit-identical entropies.
    Failures land in ``violations``.
    """
    if m < 1:
        raise ValueError("pattern length must be >= 1")
    if m > 16:
        raise core.CapacityError(f"ordering table over 2^{m} patterns refused: m <= 16")
    if n < m:
        raise ValueError(f"text length {n} shorter than pattern length {m}")
    core.check_guard(n, guard)
    kappas = [k for _, block in kappa_blocks(m) for k in block.tolist()]
    rows = sorted(
        ((x, kappa, h) for (x, h), kappa in zip(_entropy_rows(n, m, guard), kappas)),
        key=lambda row: (-row[1], row[0]),
    )
    return OrderingTable(n=n, m=m, rows=rows, violations=_ordering_violations(rows))


def _ordering_violations(rows) -> list[dict]:
    """Tie mismatches, then strict-pair inversions, of rows sorted by
    (-kappa2, pattern), in one pass.

    A group is a run of equal kappa2.  A row can head an inversion only if
    its H is not below the suffix minimum of H past its group; the later
    rows with H_low <= H_high are then its inversions, in row order.
    """
    xs, ks, hs = zip(*rows)
    h = np.array(hs)
    starts = np.flatnonzero(np.r_[True, np.diff(ks) != 0])
    ends = np.r_[starts[1:], len(rows)]
    lo = np.minimum.reduceat(h, starts).tolist()
    hi = np.maximum.reduceat(h, starts).tolist()
    violations = [
        dict(kind="tie-mismatch", kappa2=ks[s], patterns=list(xs[s:e]), H_spread=b - a)
        for s, e, a, b in zip(starts.tolist(), ends.tolist(), lo, hi)
        if b > a
    ]
    # later[i]: the first row past row i's group; suffix_min[j]: min H over j..
    later = np.repeat(ends, ends - starts)
    suffix_min = np.r_[np.minimum.accumulate(h[::-1])[::-1], np.inf]
    for i in np.flatnonzero(h >= suffix_min[later]).tolist():
        first = int(later[i])
        for j in (first + np.flatnonzero(h[first:] <= h[i])).tolist():
            violations.append(dict(
                kind="ordering", pattern_high=xs[i], pattern_low=xs[j],
                kappa2_high=ks[i], kappa2_low=ks[j], H_high=hs[i], H_low=hs[j],
            ))
    return violations


def check_entropy_min(
    m: int,
    n_values,
    *,
    guard: int | None = None,
    workers: int = 1,
) -> list[ExtremalResult]:
    """Exhaustive entropy argmin over all patterns, one result per n.

    The constant patterns are predicted to minimize for large n; each result
    records whether they do at this n (deviations surface as findings).
    The guard is checked on the largest n before any entropy is computed; a
    range is not materialized for it, since its largest value is an end.
    """
    if m < 1:
        raise ValueError("pattern length must be >= 1")
    if isinstance(n_values, range):
        top = max(n_values[0], n_values[-1]) if n_values else 0
    else:
        n_values = list(n_values)
        top = max(n_values, default=0)
    core.check_guard(top, guard)
    results = []
    for n in n_values:
        rows = _entropy_rows(n, m, guard)
        best = min(h for _, h in rows)
        witnesses = sorted(x for x, h in rows if h == best)
        results.append(
            ExtremalResult(
                criterion="entropy-min",
                m=m,
                n=n,
                value=best,
                witnesses=witnesses,
                expected=constant_patterns(m),
            )
        )
    return results
