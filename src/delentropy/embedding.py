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
    scanned part of y, updated in place per text symbol.
    """
    core.validate_pattern(x)
    core.validate_text(y)
    m = len(x)
    dp = [1] + [0] * m
    for c in y:
        for i in range(m, 0, -1):
            if x[i - 1] == c:
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


def uncertainty_set(
    x: str, n: int, *, guard: int | None = None, workers: int = 1
) -> Iterator[tuple[str, int]]:
    """Yield (text, weight) for every length-n text with weight >= 1.

    Texts come out in lexicographic order, each exactly once.  The weights
    are the last row of ``prefix_table(x, n)``, built in O(2^n * m).
    ``workers`` is accepted for compatibility and ignored.
    """
    core.validate_pattern(x)
    m = len(x)
    if n < m:
        raise ValueError(f"text length {n} shorter than pattern length {m}")
    core.check_guard(n, guard)
    weights = prefix_table(x, n)[m]
    texts = np.flatnonzero(weights)
    weights = weights[texts].tolist()
    for v, w in zip(texts.tolist(), weights):
        yield format(v, f"0{n}b"), w


def posterior(
    x: str, n: int, *, guard: int | None = None, workers: int = 1
) -> WeightDistribution:
    """Exact posterior weight distribution over the compatible texts."""
    entries = dict(uncertainty_set(x, n, guard=guard))
    return WeightDistribution(
        pattern=x,
        text_length=n,
        entries=entries,
        normalizer=total_masks(n, len(x)),
    )
