"""Independent reference values for checking the benchmark's outputs.

Nothing here imports delentropy or calls its dynamic programs.  Weights come
from a vectorized numpy prefix counter run over every text (n <= 22) or over
given texts; moments at large n come from the binomial-polynomial form of the
power sums, fitted exactly on small n; the autocorrelation comes from its
closed-form interleaving matrix; sampled histograms are re-drawn from the
documented PRNG stream contract and counted here.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Sampling contract of delentropy.sample_histogram: sample index s is drawn
# by stream s // SAMPLE_BLOCK, and stream j is PCG64(seed).jumped(j).
SAMPLE_BLOCK = 8192

# Texts per numpy block in power_sums; bounds the oracle's memory.
_WALK_BLOCK = 1 << 15


def total_weight(n: int, m: int) -> int:
    """Sum of W over all length-n texts: C(n, m) * 2^(n - m)."""
    return math.comb(n, m) << (n - m)


def _check_int64(length: int, m: int) -> None:
    if math.comb(length, m) >= 1 << 62:
        raise ValueError(f"weights of a length-{m} pattern in length-{length} texts overflow int64")


def all_text_weights(x: str, n: int) -> np.ndarray:
    """W(x, y) for every length-n text y, indexed by int(y, 2)."""
    if n > 22:
        raise ValueError("the all-text oracle is limited to n <= 22")
    _check_int64(n, len(x))
    idx = np.arange(1 << n, dtype=np.int64)
    bits = [((idx >> (n - 1 - t)) & 1).astype(bool) for t in range(n)]
    return _prefix_counts(x, bits, 1 << n)


def row_weights(x: str, rows: np.ndarray) -> np.ndarray:
    """W(x, y) for each row y of a (texts, length) 0/1 array."""
    _check_int64(rows.shape[1], len(x))
    cols = [rows[:, t].astype(bool) for t in range(rows.shape[1])]
    return _prefix_counts(x, cols, rows.shape[0])


def _prefix_counts(x: str, columns, size: int) -> np.ndarray:
    m = len(x)
    dp = [np.ones(size, dtype=np.int64)] + [np.zeros(size, dtype=np.int64) for _ in range(m)]
    for col in columns:
        masks = {"1": col, "0": ~col}
        for i in range(m, 0, -1):
            np.add(dp[i], dp[i - 1], out=dp[i], where=masks[x[i - 1]])
    return dp[m]


def histogram(weights: np.ndarray) -> dict[int, int]:
    values, counts = np.unique(weights, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def exact_histogram(x: str, n: int) -> dict[int, int]:
    return histogram(all_text_weights(x, n))


def sampled_histogram(x: str, n: int, sample_size: int, seed: int) -> dict[int, int]:
    """Histogram of W over the texts the sampling contract draws."""
    out: dict[int, int] = {}
    for j in range((sample_size + SAMPLE_BLOCK - 1) // SAMPLE_BLOCK):
        size = min(SAMPLE_BLOCK, sample_size - j * SAMPLE_BLOCK)
        rng = np.random.Generator(np.random.PCG64(seed).jumped(j))
        rows = rng.integers(0, 2, size=(size, n), dtype=np.uint8)
        for w, c in histogram(row_weights(x, rows)).items():
            out[w] = out.get(w, 0) + c
    return out


def entropies(hist: dict[int, int], n: int, m: int) -> tuple[float, float, float]:
    """(Shannon, Renyi-2, min-entropy) in bits of the posterior whose text
    weights have multiplicities ``hist``."""
    mu = total_weight(n, m)
    acc = math.fsum(
        float(Fraction(c * w, mu)) * math.log2(w) for w, c in sorted(hist.items()) if w > 1
    )
    collisions = sum(c * w * w for w, c in hist.items())
    w_max = max(w for w, c in hist.items() if c)
    return (
        math.log2(mu) - acc,
        2.0 * math.log2(mu) - math.log2(collisions),
        math.log2(mu) - math.log2(w_max),
    )


def central_moments(raw: list[Fraction]) -> tuple[Fraction, ...]:
    """(mean, mu2, mu3, mu4) from raw moments E[W], ..., E[W^4]."""
    e1, e2, e3, e4 = raw
    return (
        e1,
        e2 - e1 * e1,
        e3 - 3 * e2 * e1 + 2 * e1**3,
        e4 - 4 * e3 * e1 + 6 * e2 * e1 * e1 - 3 * e1**4,
    )


def power_sums(x: str, nmax: int, rmax: int) -> list[list[int]]:
    """S[n][r-1] = sum of W(x, y)^r over all length-n texts, n = 0..nmax.

    Walks the text trie in numpy blocks of at most _WALK_BLOCK texts.
    """
    if nmax > 22:
        raise ValueError("power sums are enumerated for n <= 22 only")
    _check_int64(nmax, len(x))
    m = len(x)
    sums = [[0] * rmax for _ in range(nmax + 1)]

    def walk(dp: np.ndarray, t: int) -> None:
        for w, c in histogram(dp[m]).items():
            for r in range(rmax):
                sums[t][r] += c * w ** (r + 1)
        if t == nmax:
            return
        children = []
        for b in "01":
            child = dp.copy()
            for i in range(m, 0, -1):
                if x[i - 1] == b:
                    child[i] += child[i - 1]
            children.append(child)
        if 2 * dp.shape[1] <= _WALK_BLOCK:
            walk(np.concatenate(children, axis=1), t + 1)
        else:
            for child in children:
                walk(child, t + 1)

    start = np.zeros((m + 1, 1), dtype=np.int64)
    start[0] = 1
    walk(start, 0)
    return sums


class MomentPolynomial:
    """Exact E[W^r] at any n for one pattern.

    W^r sums over r-tuples of embeddings; grouping the tuples by the size k
    of the union of their positions gives E[W^r](n) = sum_k C(n, k) d_k with
    constants d_k (k <= r*m) that do not depend on n.  The d_k are found by
    binomial inversion from the exact power sums at n = 0..r*m.
    """

    def __init__(self, x: str, rmax: int):
        self.m = len(x)
        self.rmax = rmax
        # direct[n][r-1] for n <= rmax*m holds orders up to 4 exactly
        table = power_sums(x, rmax * self.m, 4)
        self.direct = table
        self.coeffs = []
        for r in range(1, rmax + 1):
            top = r * self.m
            c = [Fraction(table[j][r - 1], 1 << j) for j in range(top + 1)]
            self.coeffs.append(
                [
                    sum((-1) ** (k - j) * math.comb(k, j) * c[j] for j in range(k + 1))
                    for k in range(top + 1)
                ]
            )

    def raw(self, r: int, n: int) -> Fraction:
        return sum(math.comb(n, k) * d for k, d in enumerate(self.coeffs[r - 1]))


def interleaving_matrix(m: int) -> list[list[int]]:
    """M[r][s]: interleavings of two length-m index sets sharing exactly one
    position, which is the (r+1)-th of one and the (s+1)-th of the other.
    r + s earlier positions interleave in C(r+s, r) ways and the
    2m-2-r-s later ones in C(2m-2-r-s, m-1-r) ways."""
    return [
        [math.comb(r + s, r) * math.comb(2 * m - 2 - r - s, m - 1 - r) for s in range(m)]
        for r in range(m)
    ]


def kappa(x: str) -> int:
    mat = interleaving_matrix(len(x))
    return sum(mat[r][s] for r in range(len(x)) for s in range(len(x)) if x[r] == x[s])


def kappa_all(m: int) -> np.ndarray:
    """kappa2 of every length-m pattern, indexed by its integer value.

    With bits b and symmetric M, [b_r == b_s] = 1 - b_r - b_s + 2 b_r b_s, so
    kappa2(b) = sum(M) - 2 b.rowsum(M) + 2 b'Mb.
    """
    if m > 20:
        raise ValueError("the vectorized kappa oracle is limited to m <= 20")
    mat = np.array(interleaving_matrix(m), dtype=np.int64)
    v = np.arange(1 << m, dtype=np.int64)
    b = np.stack([(v >> (m - 1 - r)) & 1 for r in range(m)], axis=1)
    quad = ((b @ mat) * b).sum(axis=1)
    return int(mat.sum()) - 2 * (b @ mat.sum(axis=1)) + 2 * quad


def kappa_max(m: int) -> int:
    return m * math.comb(2 * m - 1, m)


def patterns(m: int, values) -> list[str]:
    return [format(int(v), f"0{m}b") for v in values]


def asymptotic_mean(n: int, m: int) -> float:
    """Leading term of E[W], n^m / (2^m m!), rounded once from the exact ratio."""
    return float(Fraction(n**m, (1 << m) * math.factorial(m)))


def shannon_all_patterns(m: int, n: int) -> dict[str, float]:
    """Exact posterior Shannon entropy of every length-m pattern at n."""
    return {
        x: entropies(exact_histogram(x, n), n, m)[0]
        for x in patterns(m, range(1 << m))
    }


TIE_RTOL = 1e-9  # delentropy's documented tie tolerance for float entropies


def ordering(m: int, n: int) -> tuple[list[tuple[str, int, float]], set]:
    """Rows (pattern, kappa2, H) ranked kappa-descending then by pattern, and
    the set of ordering violations, keyed without their float payloads."""
    ent = shannon_all_patterns(m, n)
    kap = kappa_all(m)
    rows = sorted(
        ((x, int(kap[int(x, 2)]), ent[x]) for x in ent), key=lambda row: (-row[1], row[0])
    )
    groups: dict[int, list[tuple[str, float]]] = {}
    for x, k, h in rows:
        groups.setdefault(k, []).append((x, h))
    keys = sorted(groups, reverse=True)
    violations = set()
    for k in keys:
        hs = [h for _, h in groups[k]]
        if max(hs) - min(hs) > TIE_RTOL * max(1.0, abs(max(hs))):
            violations.add(("tie-mismatch", k, tuple(x for x, _ in groups[k])))
    for i, k in enumerate(keys):
        for k2 in keys[i + 1 :]:
            for x, h in groups[k]:
                for x2, h2 in groups[k2]:
                    if h >= h2:
                        violations.add(("ordering", x, x2))
    return rows, violations


def entropy_minimizers(m: int, n: int) -> tuple[float, list[str]]:
    ent = shannon_all_patterns(m, n)
    best = min(ent.values())
    tol = TIE_RTOL * max(1.0, abs(best))
    return best, sorted(x for x, h in ent.items() if h <= best + tol)


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * max(1.0, abs(b))
