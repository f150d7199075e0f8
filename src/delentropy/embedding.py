"""Subsequence embedding counts and the exact posterior over supersequences.

For a pattern x of length m and a text y of length n, the weight of y is the
number of ways x embeds into y as a subsequence (the number of increasing
index sets projecting y onto x).  Conditioned on observing x, a text carries
posterior probability weight / total, where the total over all length-n texts
is C(n, m) * 2^(n-m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Callable, Iterator

import numpy as np

from . import core

# Texts whose weights ``uncertainty_blocks`` forms at once: with the
# zero-weight texts dropped, a block holds at most this many rows, which
# bounds the character block of bit_strings to (n + 1) * 16 KiB.
_ROWS = 1 << 14

# Bytes per row of the dict ``posterior`` returns, on top of the n
# characters of its text key: the str and int objects and the dict slot,
# plus the weight row and text indices held while it fills.  The peak is
# 95-112 + n bytes per row, measured with tracemalloc for m = 1..5 at
# n = 16..20.
_DICT_ROW_BYTES = 120

# Patterns whose compiled text walks ``count_embeddings`` keeps.
_WALKERS = 256


@dataclass
class WeightDistribution:
    """Posterior over the texts compatible with a pattern.

    ``entries`` maps each text with weight >= 1 to its weight, in
    lexicographic text order; weights sum to ``normalizer``.
    """

    pattern: str
    text_length: int
    entries: dict[str, int]
    normalizer: int

    def probability(self, y: str):
        from fractions import Fraction

        return Fraction(self.entries.get(y, 0), self.normalizer)


def count_embeddings(x: str, y: str) -> int:
    """Number of ways x occurs in y as a subsequence (0 if it does not).

    Standard prefix dynamic program: d_i counts embeddings of x[:i] in the
    scanned part of y, and each text symbol c adds d_(i-1) to d_i for the
    rows i of x holding c, in descending order.  The walk is straight-line
    code per pattern from ``_walker``, so the counts are local variables,
    exact Python ints.  The first text of a new pattern pays its one-off
    compile (0.05-0.2 ms at m <= 10, about 0.5 ms at m = 100); a text
    shorter than x returns 0 before any walker is built.
    """
    core.validate_pattern(x)
    core.validate_text(y)
    if len(y) < len(x):
        return 0
    return _walker(x)(y)


@lru_cache(maxsize=_WALKERS)
def _walker(x: str) -> Callable[[str], int]:
    """The compiled text walk of pattern x: a function of a 0/1 string y
    returning the embedding count of x in y.

    For x = 0110 the loop body is ``if c == '0': d4 += d3; d1 += 1`` /
    ``else: d3 += d2; d2 += d1``.  The source is built from row indices and
    the literals '0' and '1' alone; ``count_embeddings`` validates x first.
    """
    m = len(x)

    def updates(c):
        rows = [f"d{i} += d{i - 1}" for i in range(m, 1, -1) if x[i - 1] == c]
        rows += ["d1 += 1"] if x[0] == c else []
        return [f"            {row}" for row in rows or ["pass"]]

    source = "\n".join([
        "def walk(y):",
        "    " + " = ".join(f"d{i}" for i in range(1, m + 1)) + " = 0",
        "    for c in y:",
        "        if c == '0':",
        *updates("0"),
        "        else:",
        *updates("1"),
        f"    return d{m}",
    ])
    namespace = {}
    exec(compile(source, f"<walker of a length-{m} pattern>", "exec"), namespace)
    return namespace["walk"]


def _pattern_bits(x: str) -> np.ndarray:
    """The pattern as a uint8 array of 0/1 symbols."""
    return np.frombuffer(x.encode(), dtype=np.uint8) - ord("0")


def _extend(dp: np.ndarray, bits: np.ndarray, xb: np.ndarray) -> None:
    """Append symbol bits[j] to text j of the integer (m+1, N) prefix-count
    table dp, in place; the product is formed from the old rows first."""
    dp[1:] += (bits == xb[:, None]) * dp[:-1]


@lru_cache(maxsize=1024)
def _rung_ends(m: int, steps: int) -> tuple[int, int, int]:
    """The steps of a ``steps``-step walk of a length-m pattern that the
    uint8, uint16 and uint32 rungs of ``_prefix_counts`` hold, as the
    cumulative counts of steps done before each widening.

    After s steps a count is at most max_{i <= m} C(s, i) =
    C(s, min(m, s // 2)), which never decreases in s; a rung holds every
    step whose bound is within its maximum.  Cached, since every block of
    a sample walks the same two halves.
    """
    ends, s = [], 0
    for dtype in (np.uint8, np.uint16, np.uint32):
        limit = np.iinfo(dtype).max
        while s < steps and math.comb(s + 1, min(m, (s + 1) // 2)) <= limit:
            s += 1
        ends.append(s)
    return tuple(ends)


def _prefix_counts(xb: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """The int64 (m+1, N) prefix-count table of pattern bits xb over the N
    texts whose symbols are the rows of the (t, N) array bits.

    The table is stepped by ``_extend`` in the narrowest type of the ladder
    uint8 -> uint16 -> uint32 -> int64 that holds it, widened by one
    ``astype`` at each of the ``_rung_ends``, so the unsigned rungs never
    overflow.
    """
    dp = np.zeros((len(xb) + 1, bits.shape[1]), dtype=np.uint8)
    dp[0] = 1
    cols, s = iter(bits), 0
    for end, wider in zip(_rung_ends(len(xb), len(bits)), (np.uint16, np.uint32, np.int64)):
        for col in islice(cols, end - s):
            _extend(dp, col, xb)
        s = end
        dp = dp.astype(wider)
    for col in cols:
        _extend(dp, col, xb)
    return dp


def _half_counts(x: str, ubits: np.ndarray, vbits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pre, suf): the int64 (m+1, N) half-count tables of pattern x over N
    texts y = uv, the symbols of u and of v being the rows of the (|u|, N)
    array ubits and the (|v|, N) array vbits.

    pre[i] counts x[:i] in u and suf[i] counts x[i:] in v, so pre[0] =
    suf[m] = 1 and W(uv) = sum_i pre[i] * suf[i].  Both are
    ``_prefix_counts``: suf is that of reverse(x) over reverse(v), whose
    row j counts x[m-j:], rows flipped.
    """
    xb = _pattern_bits(x)
    return _prefix_counts(xb, ubits), _prefix_counts(xb[::-1], vbits[::-1])[::-1]


def total_masks(n: int, m: int) -> int:
    """Total embedding count over all length-n texts: C(n, m) * 2^(n-m)."""
    core.check_lengths(m, n)
    return core.binomial(n, m) * (1 << (n - m))


def bit_strings(values: np.ndarray, width: int) -> list[str]:
    """The width-bit binary strings of nonnegative int64 values, most
    significant bit first.

    The digits are written one column at a time into a uint8 character
    matrix with a newline column, which is decoded once and split, so no
    (rows, width) int64 temporary and no per-value format call is needed.
    """
    chars = np.full((len(values), width + 1), ord("\n"), dtype=np.uint8)
    for j in range(width):
        chars[:, j] = ((values >> (width - 1 - j)) & 1) + ord("0")
    return chars.tobytes().decode("ascii").splitlines()


def _validate(x: str, n: int, guard: int | None) -> int:
    """Check x and n for an enumeration of all 2^n texts, apply
    ``core.check_enumeration``, and return m; nothing is allocated before
    the checks."""
    m = core.check_lengths(len(core.validate_pattern(x)), n)
    core.check_enumeration(n, m, guard)
    return m


def _half_bits(k: int) -> np.ndarray:
    """The (k, 2^k) uint8 symbol rows of all k-bit half-texts, column v
    holding the text of binary value v, most significant bit in row 0.

    Row j is 2^j repeats of 2^(k-1-j) zeros then as many ones, so its ones
    are written in place through a (2^j, 2, 2^(k-1-j)) view and no
    (2^k, k) temporary is formed.  The kappa2 scan takes its bit rows of
    consecutive integers from the transpose.
    """
    rows = np.zeros((k, 1 << k), dtype=np.uint8)
    for j in range(k):
        rows[j].reshape(1 << j, 2, -1)[:, 1] = 1
    return rows


def _half_tables(x: str, n: int, guard: int | None) -> tuple[np.ndarray, np.ndarray]:
    """(pre, suf): the ``_half_counts`` of x over all 2^|u| halves u and
    all 2^|v| halves v of y = uv split by ``core._halves``, column u of pre
    and column v of suf being the texts of binary value u and v.

    An embedding puts some prefix x[:i] in u and the rest in v, so
    W(uv) = pre[:, u] @ suf[:, v]; the exact histogram and the posterior
    rows both take their half counts from here.  n <= 62 keeps each half
    within 31 steps, so the ladder never leaves uint32.  x and n are
    checked, and the guard and byte bound applied (``_validate``), before
    any table is built.
    """
    _validate(x, n, guard)
    # contiguous uint8 symbol rows, as the sampled texts are drawn, step
    # about twice as fast as int64 ones at n = 22
    return _half_counts(x, *map(_half_bits, core._halves(n)))


def _check_dict(x: str, n: int, guard: int | None) -> None:
    """Check a posterior dict of x over 2^n texts as ``_validate`` does, and
    charge its ``_support_size(n, m)`` rows at their peak (``core.charge``):
    1 GiB admits n = 22 and refuses n = 23 for m = 1."""
    rows = _support_size(n, _validate(x, n, guard))
    per_row = n + _DICT_ROW_BYTES
    core.charge(f"posterior over 2^{n} texts refused: a dict of {rows} rows",
                rows * per_row, f"{per_row} per row at peak")


def _support_size(n: int, m: int) -> int:
    """Number of length-n texts holding a length-m pattern as a subsequence:
    sum_{i=m}^{n} C(n, i), the same for every binary pattern."""
    return sum(core.binomial(n, i) for i in range(m, n + 1))


def uncertainty_blocks(
    x: str, n: int, *, guard: int | None = None
) -> Iterator[tuple[list[str], list[int]]]:
    """Yield the rows of ``uncertainty_set`` as (texts, weights) list pairs
    of at most ``_ROWS`` rows each, in the same order.

    A block is a run of ``_ROWS`` consecutive texts uv of ``pre.T @ suf``
    over the half tables of ``_half_tables``: several whole u-rows when
    2^|v| <= _ROWS, else a ``_ROWS``-wide slice of one u-row.  Its
    zero-weight texts are dropped and the text strings of the rest come
    from ``bit_strings``, |v| being log2 of the width of suf.  Memory is
    O(m * 2^(n/2) + _ROWS), so only the enumeration guard bounds the stream.

    Let a(u) be the longest prefix of x that u holds and b(v) the start of
    the longest suffix of x that v holds.  The tables are prefix- and
    suffix-closed, so W(uv) > 0 exactly when a(u) >= b(v), and a block
    whose u-rows all have a(u) < min_v b(v) holds only zero weights: it is
    skipped unformed (constant patterns leave one live u-row).
    """
    pre, suf = _half_tables(x, n, guard)
    pre = np.ascontiguousarray(pre.T)
    reach = (pre > 0).sum(axis=1) - 1  # a(u)
    start = len(x) + 1 - (suf > 0).sum(axis=0)  # b(v)
    live = reach >= start.min()
    k = suf.shape[1].bit_length() - 1
    width = min(_ROWS, 1 << k)
    step = max(1, _ROWS >> k)
    for u in range(0, len(pre), step):
        if not live[u : u + step].any():
            continue
        for lo in range(0, 1 << k, width):
            # entry j of the block is text (u << k) + lo + j in either shape
            weights = (pre[u : u + step] @ suf[:, lo : lo + width]).ravel()
            texts = np.flatnonzero(weights)
            if len(texts):
                yield bit_strings(texts + ((u << k) + lo), n), weights[texts].tolist()


def uncertainty_set(
    x: str, n: int, *, guard: int | None = None, workers: int = 1
) -> Iterator[tuple[str, int]]:
    """Yield (text, weight) for every length-n text with weight >= 1.

    Texts come out in lexicographic order, each exactly once; the rows
    come in blocks from ``uncertainty_blocks``, so only its two half tables
    and one block are held.  ``workers`` is accepted for compatibility and
    ignored.
    """
    for texts, weights in uncertainty_blocks(x, n, guard=guard):
        yield from zip(texts, weights)


def posterior(
    x: str, n: int, *, guard: int | None = None, workers: int = 1
) -> WeightDistribution:
    """Exact posterior weight distribution over the compatible texts.

    The dict holds one row per text of ``_support_size(n, m)``, and
    ``_check_dict`` charges those rows against the byte bound first;
    ``uncertainty_blocks`` streams the same rows without the dict.
    """
    _check_dict(x, n, guard)
    entries: dict[str, int] = {}
    for texts, weights in uncertainty_blocks(x, n, guard=guard):
        entries.update(zip(texts, weights))
    return WeightDistribution(
        pattern=x,
        text_length=n,
        entries=entries,
        normalizer=total_masks(n, len(x)),
    )
