"""Subsequence embedding counts and the exact posterior over supersequences.

For a pattern x of length m and a text y of length n, the weight of y is the
number of ways x embeds into y as a subsequence (the number of increasing
index sets projecting y onto x).  Conditioned on observing x, a text carries
posterior probability weight / total, where the total over all length-n texts
is C(n, m) * 2^(n-m).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import core

# Posterior rows are formed this many texts at a time, which bounds the
# character block of bit_strings to (n + 1) * 16 KiB.
_ROWS = 1 << 14

# Peak bytes a posterior's prefix table may take.  prefix_table(x, n) holds
# (m + 1) * 2^n int64 cells; at its last doubling step np.repeat and
# _extend's temporaries bring the peak to about 17 * (m + 1) * 2^n bytes
# (2.12x the table, measured with tracemalloc for m = 1..16).  1 GiB admits
# n = 20 for every m <= 20, and n = 24 for m = 1; with the dict of
# ``posterior`` counted, n = 22 for m = 1.
_TABLE_BYTES = 1 << 30

# Bytes per row of the dict ``posterior`` returns, on top of the n
# characters of its text key: the str and int objects and the dict slot,
# plus the weight row and text indices held while it fills.  The peak is
# 95-112 + n bytes per row, measured with tracemalloc for m = 1..5 at
# n = 16..20.
_DICT_ROW_BYTES = 120


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

    Standard prefix dynamic program: dp[i] counts embeddings of x[:i] in the
    scanned part of y, updated in place per text symbol.  The pattern rows
    holding each symbol are listed once per call, in descending order, so a
    text symbol touches only its own rows.  Counts are exact Python ints.
    """
    core.validate_pattern(x)
    core.validate_text(y)
    m = len(x)
    rows = {c: [i for i in range(m, 0, -1) if x[i - 1] == c] for c in "01"}
    dp = [1] + [0] * m
    for c in y:
        for i in rows[c]:
            dp[i] += dp[i - 1]
    return dp[m]


def _pattern_bits(x: str) -> np.ndarray:
    """The pattern as a uint8 array of 0/1 symbols."""
    return np.frombuffer(x.encode(), dtype=np.uint8) - ord("0")


def _extend(dp: np.ndarray, bits: np.ndarray, xb: np.ndarray) -> None:
    """Append symbol bits[j] to text j of the int64 (m+1, N) prefix-count
    table dp, in place; the product is formed from the old rows first."""
    dp[1:] += (bits == xb[:, None]) * dp[:-1]


def prefix_table(x: str, k: int) -> np.ndarray:
    """Prefix embedding counts of x in every length-k text.

    Entry (i, v) counts embeddings of x[:i] in the text whose binary value
    is v, so columns run in lexicographic text order.  Entries stay exact in
    int64 while C(k, m) < 2^63, which the enumeration guard ensures.
    """
    xb = _pattern_bits(x)
    dp = np.zeros((len(x) + 1, 1), dtype=np.int64)
    dp[0] = 1
    for _ in range(k):
        dp = np.repeat(dp, 2, axis=1)
        _extend(dp, np.arange(dp.shape[1]) % 2, xb)
    return dp


def total_masks(n: int, m: int) -> int:
    """Total embedding count over all length-n texts: C(n, m) * 2^(n-m)."""
    if m < 1:
        raise ValueError("pattern length must be >= 1")
    if m > n:
        raise ValueError(f"pattern length {m} exceeds text length {n}")
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


def _admit(x: str, n: int, guard: int | None, with_dict: bool) -> int:
    """Validate a posterior of x over 2^n texts and return m.

    Refuses it with CapacityError, naming the estimate and the bound, when
    its estimated peak bytes pass ``_TABLE_BYTES``: the prefix table's, plus
    with ``with_dict`` those of a dict of ``_support_size(n, m)`` rows.
    """
    core.validate_pattern(x)
    m = len(x)
    if n < m:
        raise ValueError(f"text length {n} shorter than pattern length {m}")
    core.check_guard(n, guard)
    need = 17 * (m + 1) << n
    what = "its prefix-count table"
    if with_dict:
        rows = _support_size(n, m)
        need += rows * (n + _DICT_ROW_BYTES)
        what += f" and a dict of {rows} rows"
    if need > _TABLE_BYTES:
        raise core.CapacityError(
            f"posterior over 2^{n} texts refused: {what} "
            f"needs about {need} bytes ({need / 2**30:.1f} GiB) at peak, "
            f"above the bound of {_TABLE_BYTES} bytes"
        )
    return m


def _support_size(n: int, m: int) -> int:
    """Number of length-n texts holding a length-m pattern as a subsequence:
    sum_{i=m}^{n} C(n, i), the same for every binary pattern."""
    return sum(core.binomial(n, i) for i in range(m, n + 1))


def uncertainty_blocks(
    x: str, n: int, *, guard: int | None = None
) -> Iterator[tuple[list[str], list[int]]]:
    """Yield the rows of ``uncertainty_set`` as (texts, weights) list pairs
    of at most ``_ROWS`` rows each, in the same order.

    The weights are the last row of ``prefix_table(x, n)``, built in
    O(2^n * m) and refused with CapacityError when its peak bytes would
    pass ``_TABLE_BYTES``; only that row is kept, and each block's text
    strings come from ``bit_strings``.
    """
    m = _admit(x, n, guard, with_dict=False)
    weights = prefix_table(x, n)[m].copy()
    texts = np.flatnonzero(weights)
    for lo in range(0, len(texts), _ROWS):
        block = texts[lo : lo + _ROWS]
        yield bit_strings(block, n), weights[block].tolist()


def uncertainty_set(
    x: str, n: int, *, guard: int | None = None, workers: int = 1
) -> Iterator[tuple[str, int]]:
    """Yield (text, weight) for every length-n text with weight >= 1.

    Texts come out in lexicographic order, each exactly once; the rows
    come in blocks from ``uncertainty_blocks``, so after the prefix table
    only its weight row and one block are held.  ``workers`` is accepted
    for compatibility and ignored.
    """
    for texts, weights in uncertainty_blocks(x, n, guard=guard):
        yield from zip(texts, weights)


def posterior(
    x: str, n: int, *, guard: int | None = None, workers: int = 1
) -> WeightDistribution:
    """Exact posterior weight distribution over the compatible texts.

    The dict holds one row per text of ``_support_size(n, m)``, so its bytes
    join the prefix table's in the estimate that ``_TABLE_BYTES`` bounds;
    ``uncertainty_blocks`` streams the same rows without the dict.
    """
    _admit(x, n, guard, with_dict=True)
    entries: dict[str, int] = {}
    for texts, weights in uncertainty_blocks(x, n, guard=guard):
        entries.update(zip(texts, weights))
    return WeightDistribution(
        pattern=x,
        text_length=n,
        entries=entries,
        normalizer=total_masks(n, len(x)),
    )
