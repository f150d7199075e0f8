"""Independent reference implementations used as test oracles.

Everything here recomputes results from first principles (explicit mask
enumeration, direct posterior sums, Pascal recurrences) without touching the
package's dynamic programs, so agreement is meaningful.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np


def brute_count(x: str, y: str) -> int:
    """Embedding count by explicit mask enumeration."""
    m, n = len(x), len(y)
    if m > n:
        return 0
    return sum(
        1
        for pi in itertools.combinations(range(n), m)
        if all(y[j] == x[k] for k, j in enumerate(pi))
    )


def mask_tally(y: str, m: int) -> dict:
    """Map each length-m pattern to its embedding count in y, by walking
    every mask of y exactly once."""
    tally: dict[str, int] = {}
    for pi in itertools.combinations(range(len(y)), m):
        s = "".join(y[j] for j in pi)
        tally[s] = tally.get(s, 0) + 1
    return tally


def all_texts(n: int):
    for v in range(1 << n):
        yield format(v, f"0{n}b") if n else ""


def counts_all_texts(x: str, n: int) -> np.ndarray:
    """Embedding counts of x in every length-n text, indexed by the text's
    integer value (equals lexicographic order).  Vectorized re-implementation
    of the prefix DP; validated against brute_count in the tests."""
    m = len(x)
    idx = np.arange(1 << n, dtype=np.int64)
    dp = np.zeros((1 << n, m + 1), dtype=np.int64)
    dp[:, 0] = 1
    for t in range(n):
        bit = (idx >> (n - 1 - t)) & 1
        for i in range(m, 0, -1):
            want = 1 if x[i - 1] == "1" else 0
            dp[:, i] += (bit == want) * dp[:, i - 1]
    return dp[:, m]


def vector_histogram(x: str, n: int) -> dict:
    """Weight histogram over all length-n texts from counts_all_texts."""
    values, tallies = np.unique(counts_all_texts(x, n), return_counts=True)
    return {int(w): int(c) for w, c in zip(values, tallies)}


def complement_perm(n: int) -> np.ndarray:
    """Index permutation sending each text to its bitwise complement."""
    return np.arange(1 << n, dtype=np.int64) ^ ((1 << n) - 1)


def reverse_perm(n: int) -> np.ndarray:
    """Index permutation sending each text to its reversal."""
    out = np.zeros(1 << n, dtype=np.int64)
    for v in range(1 << n):
        out[v] = int(format(v, f"0{n}b")[::-1], 2)
    return out


def brute_posterior(x: str, n: int) -> dict:
    return {y: w for y in all_texts(n) if (w := brute_count(x, y)) > 0}


def brute_histogram(x: str, n: int) -> dict:
    h: dict[int, int] = {}
    for y in all_texts(n):
        w = brute_count(x, y)
        h[w] = h.get(w, 0) + 1
    return h


def brute_raw_moments(x: str, n: int, rmax: int) -> list:
    sums = [0] * (rmax + 1)
    for y in all_texts(n):
        w = brute_count(x, y)
        p = 1
        for j in range(1, rmax + 1):
            p *= w
            sums[j] += p
    return [Fraction(sums[j], 1 << n) for j in range(1, rmax + 1)]


def brute_mu(n: int, m: int) -> int:
    return math.comb(n, m) * (1 << (n - m))


def histogram_mass_checks(hist) -> None:
    """Raise if an exact histogram breaks its counting identities: its
    multiplicities sum to 2^n and its weights to C(n, m) * 2^(n-m)."""
    if hist.mode != "exact":
        return
    n, m = hist.text_length, len(hist.pattern)
    if hist.total() != 1 << n:
        raise AssertionError("exact multiplicities must sum to 2^n")
    weighted = sum(w * c for w, c in hist.counts.items())
    if weighted != brute_mu(n, m):
        raise AssertionError("weighted sum must equal C(n,m) * 2^(n-m)")


def brute_shannon(x: str, n: int) -> float:
    """Direct -sum p log2 p over the posterior, one term per text."""
    mu = brute_mu(n, len(x))
    acc = 0.0
    for w in brute_posterior(x, n).values():
        p = w / mu
        acc -= p * math.log2(p)
    return acc


def brute_renyi2(x: str, n: int) -> float:
    mu = brute_mu(n, len(x))
    collision = sum(Fraction(w, mu) ** 2 for w in brute_posterior(x, n).values())
    return -math.log2(float(collision))


def brute_min_entropy(x: str, n: int) -> float:
    mu = brute_mu(n, len(x))
    return -math.log2(max(brute_posterior(x, n).values()) / mu)


def pascal_triangle(rows: int) -> list:
    tri = [[1]]
    for n in range(1, rows):
        prev = tri[-1]
        tri.append(
            [1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1]
        )
    return tri


def single_overlap_interleavings(m: int) -> list:
    """Every way to lay two copies of a length-m pattern on 2m - 1 positions,
    each position covered, sharing exactly one, as (r, s): the shared
    position is the r-th of the first copy and the s-th of the second."""
    places = range(2 * m - 1)
    out = []
    for first in itertools.combinations(places, m):
        rest = [p for p in places if p not in first]
        for r, shared in enumerate(first):
            second = sorted(rest + [shared])
            out.append((r, second.index(shared)))
    return out


def single_overlap_tally(m: int) -> dict:
    """``single_overlap_interleavings(m)`` tallied as {(r, s): count},
    without listing them: the positions before the shared one hold r of the
    first copy and s of the second in any order, and those after it the
    rest, and each side is counted as monotone lattice paths, one step at a
    time."""
    paths = [[1] * m for _ in range(m)]
    for a in range(1, m):
        for b in range(1, m):
            paths[a][b] = paths[a - 1][b] + paths[a][b - 1]
    return {(r, s): paths[r][s] * paths[m - 1 - r][m - 1 - s]
            for r in range(m) for s in range(m)}


def brute_kappa_squared(x: str, interleavings=None) -> int:
    """kappa2 by counting the single-overlap interleavings of two copies of x
    whose shared position carries equal symbols.

    ``interleavings`` is the list of ``single_overlap_interleavings`` or
    its tally {(r, s): count}, which counts the same list in m^2 terms.
    """
    if interleavings is None:
        interleavings = single_overlap_interleavings(len(x))
    if isinstance(interleavings, dict):
        return sum(c for (r, s), c in interleavings.items() if x[r] == x[s])
    return sum(x[r] == x[s] for r, s in interleavings)


def brute_ordering_violations(rows) -> list:
    """Tie mismatches, then inverted strict pairs, of rows sorted by
    (-kappa2, pattern), by comparing every pair of rows."""
    ties = []
    for k in dict.fromkeys(k for _, k, _ in rows):
        members = [(x, h) for x, k2, h in rows if k2 == k]
        hs = [h for _, h in members]
        if max(hs) != min(hs):
            ties.append(
                {
                    "kind": "tie-mismatch",
                    "kappa2": k,
                    "patterns": [x for x, _ in members],
                    "H_spread": max(hs) - min(hs),
                }
            )
    pairs = [
        {
            "kind": "ordering",
            "pattern_high": x,
            "pattern_low": x2,
            "kappa2_high": k,
            "kappa2_low": k2,
            "H_high": h,
            "H_low": h2,
        }
        for x, k, h in rows
        for x2, k2, h2 in rows
        if k > k2 and h >= h2
    ]
    return ties + pairs


def per_class_central_moments(counts: dict) -> tuple:
    """(mean, mu2, mu3, mu4) of a weight histogram, one exact Fraction term
    (w - mean)^r * c per weight class."""
    total = sum(counts.values())
    mean = Fraction(sum(w * c for w, c in counts.items()), total)
    return (mean,) + tuple(
        sum((Fraction(w) - mean) ** r * c for w, c in counts.items()) / total
        for r in (2, 3, 4)
    )


def exact_form_cases() -> list:
    """The (x, n) on which the two forms of an exact enumeration are held to
    each other: every pattern with m <= 4 at n <= 12, seeded random patterns
    with m <= 10 at n <= 16, and constant and alternating patterns and
    m = n at n = 16."""
    cases = [
        ("".join(p), n)
        for m in range(1, 5)
        for p in itertools.product("01", repeat=m)
        for n in range(m, 13)
    ]
    rng = random.Random(27)
    for _ in range(30):
        m = rng.randint(1, 10)
        cases.append(("".join(rng.choice("01") for _ in range(m)), rng.randint(m, 16)))
    cases += [(x, 16) for x in ("0" * 8, "1" * 3, "01" * 4, "10101", "0110100110010110")]
    return cases

