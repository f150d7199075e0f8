"""Exhaustive extremal scans over all patterns of a fixed length.

The autocorrelation maximum is a proved statement and any counterexample is
a hard error; the autocorrelation minimum and the finite-length entropy
minimum are evidence-gathering scans whose deviations are reported as
findings, never silently absorbed.  Every ``workers`` argument is accepted
for compatibility and ignored.

``kappa_blocks`` is the one kappa2 kernel behind both autocorrelation
scans, the ordering table's kappa2 column and ``kappa --all``.  It writes
kappa2 of a pattern with high field h, middle field u and low field v as a
table over (u, v), built once per length and block size, plus one row in u
and one row in v per h, so each pattern costs two int64 additions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import core, embedding
from .entropy import shannon_entropy
from .moments import _interleaving_table, kappa_max

# The scan's int64 values stay within +-3 * kappa_max(m).  M >= 0 entrywise,
# each row sums to c and sum(M) = kappa_max(m) = m c, so for 0/1 fields f, g
# of disjoint positions (see kappa_blocks) each term f_i (A_ff f)_i of own(f)
# is in [-2c, 0], and 2 f'A_fg g = 4 f'M_fg g in [0, 2 * kappa_max(m)]; the
# matmuls forming them stay within +-2 * kappa_max(m).  Left to right,
# m c + own(u) + own(v) is in +-kappa_max(m), the table (a kappa2) in
# [0, kappa_max(m)], row_u = own(h) + 2 h'A_hu u in +-2 * kappa_max(m), and
# table + row_u in [-2, 3] * kappa_max(m); 4 * kappa_max(30) = 7.1e18 < 2^63.
_KAPPA_M_MAX = 30

# Patterns per block of the kappa2 scan, a power of two: a block holds the
# patterns sharing their high field and running over all log2(_KAPPA_BLOCK)
# low bits.  At 2^13 a block's int64 arrays are 64 KiB.  With the set-up
# cached, 2^14 blocks scan m = 13..15 no slower and m = 24 faster (25 ms
# against 31 ms); 2^15 blocks are slower at m = 15..16, 2^16 from m = 15.
_KAPPA_BLOCK = 1 << 13

# Bytes one ordering finding costs while the list of findings is built: its
# dict and its list slot, 281 B held and at most 281.22 B at the peak per
# finding at ``table 8 8``, ``9 9`` and ``10 10`` (by tracemalloc); the
# patterns, kappa2 values and H floats are shared with the rows.
_FINDING_BYTES = 282


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


def _own(bits: np.ndarray, a_ff: np.ndarray) -> np.ndarray:
    """own(f) = f'A_ff f for each 0/1 row f of bits."""
    return ((bits @ a_ff) * bits).sum(axis=1)


@lru_cache(maxsize=_KAPPA_M_MAX)
def _kappa_plan(m: int, k: int):
    """The read-only (low, table, to_u, to_v, A_hh) of ``kappa_blocks``."""
    c = core.binomial(2 * m - 1, m)
    a = 2 * np.array(_interleaving_table(m), dtype=np.int64)
    a -= 2 * c * np.eye(m, dtype=np.int64)
    hi, k1 = m - k, k // 2
    h_f, u_f, v_f = slice(0, hi), slice(hi, hi + k1), slice(hi + k1, m)
    u_bits, v_bits = embedding._half_bits(k1).T, embedding._half_bits(k - k1).T
    table = m * c + _own(u_bits, a[u_f, u_f])[:, None] + _own(v_bits, a[v_f, v_f])
    table += 2 * (u_bits @ a[u_f, v_f] @ v_bits.T)
    to_u, to_v = 2 * a[h_f, u_f] @ u_bits.T, 2 * a[h_f, v_f] @ v_bits.T
    plan = np.arange(1 << k), table, to_u, to_v, a[h_f, h_f]
    for arr in plan:
        arr.flags.writeable = False
    return plan


def kappa_blocks(m: int):
    """Yield (patterns, kappa2) int64 array blocks over all 2^m patterns.

    Patterns are integer values in increasing (lexicographic) order, and
    every block holds min(_KAPPA_BLOCK, 2^m) of them.  With symbols b in
    {0, 1} and M symmetric, [b_r = b_s] expands to 1 - b_r - b_s + 2 b_r b_s,
    and every row of M sums to c = C(2m-1, m), so, as b_r^2 = b_r,
    kappa2(b) = m c + b'Ab with A = 2M - 2cI.
    Cut b into a high field h, a middle field u of k1 bits and a low field v
    of k2 bits, k1 + k2 = k = log2 of the block size, and write
    own(f) = f'A_ff f.  Then kappa2 is the sum of
      table[u, v] = m c + own(u) + own(v) + 2 u'A_uv v;
      row_u[h, u] = own(h) + 2 h'A_hu u;
      row_v[h, v] = 2 h'A_hv v,
    so the block of one h is table + row_u[h][:, None] + row_v[h]: two
    additions per pattern.  ``_kappa_plan`` forms all that depends on (m, k)
    alone once; the row terms are small matmuls over the bit rows of at most
    2^k1 high values at a time, sliced from one ``embedding._half_bits(hi)``
    per scan (2.2 MB at m = 30), so no row array outgrows a block.
    """
    core.check_lengths(m)
    if m > _KAPPA_M_MAX:
        raise core.CapacityError(
            f"kappa2 scan over 2^{m} patterns refused: m <= {_KAPPA_M_MAX} "
            f"keeps 4 * kappa_max(m) within int64"
        )
    k = min(m, _KAPPA_BLOCK.bit_length() - 1)
    low, table, to_u, to_v, a_hh = _kappa_plan(m, k)
    hi, step = m - k, len(table)
    all_bits = embedding._half_bits(hi).T
    for start in range(0, 1 << hi, step):
        h_bits = all_bits[start : start + step]
        rows_u = h_bits @ to_u + _own(h_bits, a_hh)[:, None]
        rows_v = h_bits @ to_v
        for h, (row_u, row_v) in enumerate(zip(rows_u, rows_v), start):
            block = table + row_u[:, None]
            block += row_v
            yield low + (h << k), block.ravel()


def _kappa_extreme(m: int, largest: bool) -> tuple[int, list[str]]:
    """(value, witnesses) of the largest or the smallest kappa2 over all 2^m
    patterns: one reduction per block and one running witness list, so the
    witnesses come out in lexicographic order.  A scan has a handful of
    witnesses, so each is formatted from its int (about 1 us) rather than by
    ``bit_strings``, whose column loop costs about 5 us per bit column
    whatever the row count."""
    best, wits = None, []
    for v, k in kappa_blocks(m):
        ext = int(k.max() if largest else k.min())
        if best is None or (ext > best if largest else ext < best):
            best, wits = ext, []
        if ext == best:
            wits.append(v[k == ext])
    return best, [format(v, f"0{m}b") for v in np.concatenate(wits).tolist()]


def verify_kappa_max(m: int, *, workers: int = 1) -> ExtremalResult:
    """Exhaustively confirm that exactly the constant patterns maximize the
    autocorrelation, at the closed-form value m * C(2m-1, m).

    A deviation would falsify a proved statement, so it raises instead of
    being reported as a finding.
    """
    best, witnesses = _kappa_extreme(m, largest=True)
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
    best, witnesses = _kappa_extreme(m, largest=False)
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
    Failures land in ``violations``.  The lengths, the guard and the byte
    bound of the half tables are checked before the kappa2 scan.
    """
    if m > 16:
        raise core.CapacityError(f"ordering table over 2^{m} patterns refused: m <= 16")
    core.check_lengths(m, n)
    embedding.check_enumeration(n, m, guard)
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
    rows with H_low <= H_high are then its inversions, in row order.  The
    findings are counted exactly before any is formed, and more than
    ``core.MAX_BYTES`` at ``_FINDING_BYTES`` each is a CapacityError: near
    n = m their number approaches 2^(2m-1).
    """
    xs, ks, hs = zip(*rows)
    h = np.array(hs)
    starts = np.flatnonzero(np.r_[True, np.diff(ks) != 0])
    ends = np.r_[starts[1:], len(rows)]
    lo = np.minimum.reduceat(h, starts).tolist()
    hi = np.maximum.reduceat(h, starts).tolist()
    ties = [
        (s, e, a, b)
        for s, e, a, b in zip(starts.tolist(), ends.tolist(), lo, hi)
        if b > a
    ]
    # later[i]: the first row past row i's group; suffix_min[j]: min H over j..
    later = np.repeat(ends, ends - starts).tolist()
    suffix_min = np.r_[np.minimum.accumulate(h[::-1])[::-1], np.inf]
    heads = np.flatnonzero(h >= suffix_min[later]).tolist()
    count = len(ties) + sum(int(np.count_nonzero(h[later[i]:] <= h[i])) for i in heads)
    need = count * _FINDING_BYTES
    if need > core.MAX_BYTES:
        raise core.CapacityError(
            f"the entropy ordering of {len(rows)} patterns has {count} findings, "
            f"which need {need} bytes ({_FINDING_BYTES} per finding), over the "
            f"{core.MAX_BYTES}-byte bound"
        )
    violations = [
        dict(kind="tie-mismatch", kappa2=ks[s], patterns=list(xs[s:e]), H_spread=b - a)
        for s, e, a, b in ties
    ]
    for i in heads:
        first = later[i]
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
    The guard and the byte bound of the half tables are checked on the
    largest n, then the lengths on the smallest, before any entropy is
    computed; a range is not materialized for them, since its extremes are
    its ends.
    """
    core.check_lengths(m)
    if isinstance(n_values, range):
        ends = [n_values[0], n_values[-1]] if n_values else []
    else:
        ends = n_values = list(n_values)
    embedding.check_enumeration(max(ends, default=0), m, guard)
    core.check_lengths(m, min(ends, default=None))
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
