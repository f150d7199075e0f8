"""Exhaustive extremal scans over all patterns of a fixed length.

The autocorrelation maximum is a proved statement and any counterexample is
a hard error; the autocorrelation minimum and the finite-length entropy
minimum are evidence-gathering scans whose deviations are reported as
findings, never silently absorbed.  Every ``workers`` argument is accepted
for compatibility and ignored.

kappa2 over a whole pattern space has one formula in two forms, with the
same blocks in the same order: ``kappa_blocks``, an int64 numpy kernel,
and ``_pure_blocks``, over Python ints.  Both scans, the ordering table's
kappa2 column and ``kappa --all`` take ``_pure_blocks`` while numpy is not
loaded and 2^m <= _PURE_PATTERNS (``core.before_numpy``), where it costs
less than the numpy import alone, and ``kappa_blocks`` otherwise.  numpy
is imported only inside the functions that build arrays, ``embedding``
only inside those and the entropy jobs, and the interleaving table comes
from ``core``, so a small cold scan loads none of numpy, ``embedding``
and ``moments``.  A table or an entropy minimum chooses its form once, on
all its histograms' texts, before its first kernel
(``embedding._pure_enumeration``), and its scan follows.  The ordering
findings have one kernel, in pure Python, and no form switch: a Fenwick
tree counts them and one sorted walk lists them.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass, field
from functools import lru_cache

from . import core
from .core import ExtremalInvariantError, _interleaving_table, kappa_max

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

# Patterns up to which a kappa2 scan runs in pure Python while numpy is not
# loaded.  Cold CLI runs, numpy import and kernel against pure scan (2-core
# box, median of 15): ``extremal --criterion kappa-min`` 286 against 114 ms
# at m = 14 and 276 against 158 ms at m = 18, ``kappa --all`` 400 against
# 284 ms at m = 17 and 524 against 475 ms at m = 18; at m = 20 (3 runs)
# the kernel wins both, 308 against 316 ms and 1191 against 1605 ms.  2^17
# keeps a margin below both crossovers.
_PURE_PATTERNS = 1 << 17

# Pattern lengths up to which ``ordering_table`` and ``check_entropy_min``
# run: each forms one exact histogram per symmetry orbit of the 2^m
# patterns and n, 16,512 of them at m = 16 and 4,196,352 at m = 24.
_ENTROPY_M_MAX = 16

# Bytes one ordering finding costs while the list of findings is built: its
# dict and its list slot, 281 B held and at most 281.24 B at the peak per
# finding at ``table 8 8``, ``9 9`` and ``10 10`` (by tracemalloc); the
# patterns, kappa2 values and H floats are shared with the rows.
_FINDING_BYTES = 282


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


def _check_scan(m: int) -> None:
    """Admit a kappa2 scan over all 2^m patterns, in either form."""
    core.check_lengths(m)
    if m > _KAPPA_M_MAX:
        raise core.CapacityError(
            f"kappa2 scan over 2^{m} patterns refused: m <= {_KAPPA_M_MAX} "
            f"keeps 4 * kappa_max(m) within int64"
        )


def _pure_scan(m: int) -> bool:
    """Check m, then whether a scan over all 2^m patterns takes
    ``_pure_blocks``: before numpy loads, up to _PURE_PATTERNS patterns."""
    _check_scan(m)
    return core.before_numpy(1 << m, _PURE_PATTERNS)


def _own(bits, a_ff):
    """own(f) = f'A_ff f for each 0/1 row f of the int array bits."""
    return ((bits @ a_ff) * bits).sum(axis=1)


@lru_cache(maxsize=_KAPPA_M_MAX)
def _kappa_plan(m: int, k: int):
    """The read-only (low, table, to_u, to_v, A_hh) of ``kappa_blocks``."""
    import numpy as np

    from .embedding import _half_bits

    c = core.binomial(2 * m - 1, m)
    a = 2 * np.array(_interleaving_table(m), dtype=np.int64)
    a -= 2 * c * np.eye(m, dtype=np.int64)
    hi, k1 = m - k, k // 2
    h_f, u_f, v_f = slice(0, hi), slice(hi, hi + k1), slice(hi + k1, m)
    u_bits, v_bits = _half_bits(k1).T, _half_bits(k - k1).T
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
    _check_scan(m)
    from .embedding import _half_bits

    k = min(m, _KAPPA_BLOCK.bit_length() - 1)
    low, table, to_u, to_v, a_hh = _kappa_plan(m, k)
    hi, step = m - k, len(table)
    all_bits = _half_bits(hi).T
    for start in range(0, 1 << hi, step):
        h_bits = all_bits[start : start + step]
        rows_u = h_bits @ to_u + _own(h_bits, a_hh)[:, None]
        rows_v = h_bits @ to_v
        for h, (row_u, row_v) in enumerate(zip(rows_u, rows_v), start):
            block = table + row_u[:, None]
            block += row_v
            yield low + (h << k), block.ravel()


def _subset_sums(start: int, steps) -> list[int]:
    """[start + sum of steps[j] over the set bits j of i] for i < 2^len(steps),
    by doubling from the lowest bit: one C-loop addition per entry."""
    sums = [start]
    for step in steps:
        sums += list(map(step.__add__, sums))
    return sums


def _own_sums(a, pos) -> list[int]:
    """own(f) = f'A_ff f for every 0/1 field f over the positions pos,
    lowest bit first, indexed by the field's value: setting bit t adds
    A_pp + 2 sum_{q in f} A_pq for p = pos[t], a subset sum over the lower
    bits."""
    own = [0]
    for t, p in enumerate(pos):
        cross = _subset_sums(a[p][p], [2 * a[p][q] for q in pos[:t]])
        own += list(map(operator.add, own, cross))
    return own


def _pure_blocks(m: int):
    """Yield (patterns, kappa2) blocks over all 2^m patterns, as ``range``
    and list of exact ints: the formula, blocks and order of
    ``kappa_blocks`` over Python ints, with no array module.

    Cut b into the high field h and the low field l of k = log2 of the block
    size bits.  With own(f) = f'A_ff f, kappa2 = m c + b'Ab is
      base[l] + own(h) + sum of g(h)_j over the set bits j of l,
    where base[l] = m c + own(l), formed once per scan, and
    g(h) = 2 A_lh h, formed for all h by doubling.  The block of one h is
    base plus the subset sums of g(h) started at own(h), built by doubling
    from the lowest bit: two list additions per pattern, in C loops.
    """
    _check_scan(m)
    k = min(m, _KAPPA_BLOCK.bit_length() - 1)
    c = core.binomial(2 * m - 1, m)
    a = [[2 * v for v in row] for row in _interleaving_table(m)]
    for i in range(m):
        a[i][i] -= 2 * c
    # pattern positions, first character 0, of each field's bits, lowest first
    low, high = range(m - 1, m - 1 - k, -1), range(m - k - 1, -1, -1)
    base = list(map((m * c).__add__, _own_sums(a, low)))
    gs = [[0] * k]
    for p in high:
        row = [2 * a[p][q] for q in low]
        gs += [list(map(operator.add, g, row)) for g in gs]
    for h, (own_h, g) in enumerate(zip(_own_sums(a, high), gs)):
        yield range(h << k, (h + 1) << k), list(map(operator.add, base, _subset_sums(own_h, g)))


def _positions(vs, ks: list[int], value: int) -> list[int]:
    """vs[i] for every i with ks[i] == value, in order, by ``list.index``."""
    hits, i = [], -1
    for _ in range(ks.count(value)):
        i = ks.index(value, i + 1)
        hits.append(vs[i])
    return hits


def _kappa_extreme(m: int, largest: bool) -> tuple[int, list[str]]:
    """(value, witnesses) of the largest or the smallest kappa2 over all 2^m
    patterns: one reduction per block and one running witness list, so the
    witnesses come out in lexicographic order.  A scan has a handful of
    witnesses, so each is formatted from its int (about 1 us) rather than by
    ``bit_strings``, whose column loop costs about 5 us per bit column
    whatever the row count."""
    if _pure_scan(m):
        blocks, reduce, hits = _pure_blocks(m), (max if largest else min), _positions
    else:
        blocks = kappa_blocks(m)
        reduce = lambda k: int(k.max() if largest else k.min())
        hits = lambda v, k, ext: v[k == ext].tolist()
    best, wits = None, []
    for v, k in blocks:
        ext = reduce(k)
        if best is None or (ext > best if largest else ext < best):
            best, wits = ext, []
        if ext == best:
            wits += hits(v, k, ext)
    return best, [format(v, f"0{m}b") for v in wits]


def kappa_rows(m: int):
    """Yield the (pattern, kappa2) rows of all 2^m patterns in lexicographic
    order, one list per block of the form ``_pure_scan`` picks: patterns
    formatted from their ints after ``_pure_blocks``, by ``bit_strings``
    after ``kappa_blocks``."""
    if _pure_scan(m):
        name = f"{{:0{m}b}}".format
        for v, k in _pure_blocks(m):
            yield list(zip(map(name, v), k))
        return
    from .embedding import bit_strings

    for v, k in kappa_blocks(m):
        yield list(zip(bit_strings(v, m), k.tolist()))


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
    histogram, and so the bits, unchanged.  The histograms take the form
    their job chose (``embedding._pure_enumeration``)."""
    from .entropy import shannon_entropy

    return core.per_orbit(m, lambda x: shannon_entropy(x, n, guard=guard))


def ordering_table(
    n: int, m: int, *, guard: int | None = None, workers: int = 1
) -> OrderingTable:
    """Rank all 2^m patterns by autocorrelation and check the entropy order.

    For every pair with strictly larger kappa the entropy must be strictly
    smaller; equal-kappa classes must agree in entropy exactly, which
    decides ties exactly: equal histograms give bit-identical entropies.
    Failures land in ``violations``.  The lengths, the guard and the byte
    bound of the half tables are checked, and the form chosen on the
    histograms' texts, before the kappa2 scan.
    """
    from .embedding import _pure_enumeration

    if m > _ENTROPY_M_MAX:
        raise core.CapacityError(f"ordering table over 2^{m} patterns refused: "
                                 f"m <= {_ENTROPY_M_MAX}")
    core.check_lengths(m, n)
    core.check_enumeration(n, m, guard)
    _pure_enumeration(core.orbit_count(m) << n)
    scan = [row for rows in kappa_rows(m) for row in rows]
    rows = sorted(
        ((x, kappa, h) for (x, kappa), (_, h) in zip(scan, _entropy_rows(n, m, guard))),
        key=lambda row: (-row[1], row[0]),
    )
    return OrderingTable(n=n, m=m, rows=rows, violations=_ordering_violations(rows))


def _ordering_violations(rows) -> list[dict]:
    """Tie mismatches, then strict-pair inversions, of rows sorted by
    (-kappa2, pattern).

    A group is a run of equal kappa2, and a row's inversions are the rows
    past its group with H_low <= H_high, in row order.  ``_count_below``
    gives their number per row, so the findings are counted exactly and
    charged ``_FINDING_BYTES`` each (``core.charge``) before any is formed:
    near n = m their number approaches 2^(2m-1).  They are then listed in
    one walk over the groups that keeps the rows past the current group
    sorted by (H, row) in one list: a row with k inversions has them as the
    first k entries, put back in row order.
    """
    xs, ks, hs = zip(*rows)
    ends = list(itertools.accumulate(len(list(g)) for _, g in itertools.groupby(ks)))
    groups = list(zip([0, *ends[:-1]], ends))
    ties = [(s, e, a, b) for s, e in groups if (a := min(hs[s:e])) < (b := max(hs[s:e]))]
    below = _count_below(groups, hs)
    count = len(ties) + sum(below)
    core.charge(f"listing the {count} findings of the entropy ordering of {len(rows)} patterns",
                count * _FINDING_BYTES, f"{_FINDING_BYTES} per finding")
    violations = [
        dict(kind="tie-mismatch", kappa2=ks[s], patterns=list(xs[s:e]), H_spread=b - a)
        for s, e, a, b in ties
    ]
    key = lambda j: (hs[j], j)
    past = sorted(range(len(rows)), key=key)
    for s, e in groups:
        for i in range(s, e):
            del past[bisect.bisect_left(past, (hs[i], i), key=key)]
        for i in range(s, e):
            if below[i]:
                x, k, h = rows[i]
                violations += [
                    dict(kind="ordering", pattern_high=x, pattern_low=xs[j],
                         kappa2_high=k, kappa2_low=ks[j], H_high=h, H_low=hs[j])
                    for j in sorted(past[:below[i]])
                ]
    return violations


def _count_below(groups, hs) -> list[int]:
    """For each row, the number of rows past its group whose H is at or
    below its own: a Fenwick tree of counts over the ranks of H (P. M.
    Fenwick, Softw. Pract. Exper. 24(3), 1994), filled one group at a time
    from the last, each row asking before its own group goes in.  Every
    query and insertion costs O(log rows)."""
    rank = {h: r for r, h in enumerate(sorted(set(hs)), 1)}
    ranks, top = [rank[h] for h in hs], len(rank)
    tree, below = [0] * (top + 1), [0] * len(hs)
    for s, e in reversed(groups):
        for i in range(s, e):
            r, c = ranks[i], 0
            while r:
                c += tree[r]
                r &= r - 1
            below[i] = c
        for r in ranks[s:e]:
            while r <= top:
                tree[r] += 1
                r += r & -r
    return below


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
    largest n, then the lengths on the smallest, then m, and the form is
    chosen on all the histograms' texts, before any entropy is computed; a
    range is not materialized for the checks, since its extremes are its
    ends.
    """
    from .embedding import _pure_enumeration

    core.check_lengths(m)
    if isinstance(n_values, range):
        ends = [n_values[0], n_values[-1]] if n_values else []
    else:
        ends = n_values = list(n_values)
    core.check_enumeration(max(ends, default=0), m, guard)
    core.check_lengths(m, min(ends, default=None))
    if m > _ENTROPY_M_MAX:
        raise core.CapacityError(f"entropy minimum over 2^{m} patterns refused: "
                                 f"m <= {_ENTROPY_M_MAX}")
    _pure_enumeration(core.orbit_count(m) * sum(1 << n for n in n_values))
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
