"""Exhaustive invariant checks at their contract ranges.

Each function raises AssertionError on the first violation and returns the
number of instances checked, so the acceptance suite can report coverage.
"""

import itertools

import numpy as np

from delentropy import (
    binomial,
    complement,
    count_embeddings,
    entropy_report,
    exact_histogram,
    kappa_max,
    kappa_squared,
    reverse,
    total_masks,
)
from delentropy.moments import interleaving_matrix

import oracles


def check_embedding_oracle() -> int:
    """count_embeddings == mask enumeration for all |x| <= 4, |y| <= 10,
    and the vectorized per-text counter agrees on the same range."""
    checked = 0
    for n in range(0, 11):
        vec = {}
        for m in range(1, min(4, n) + 1):
            vec[m] = {
                x: oracles.counts_all_texts(x, n)
                for x in ("".join(p) for p in itertools.product("01", repeat=m))
            }
        for v, y in enumerate(oracles.all_texts(n)):
            for m in range(1, min(4, n) + 1):
                tally = oracles.mask_tally(y, m)
                for x, arr in vec[m].items():
                    got = count_embeddings(x, y)
                    assert got == tally.get(x, 0), (x, y)
                    assert got == int(arr[v]), (x, y)
                    checked += 1
    return checked


def check_embedding_symmetries() -> int:
    """w(x, y) = w(~x, ~y) = w(rev x, rev y) for |x| <= 4, |y| <= 10."""
    checked = 0
    for n in range(1, 11):
        comp = oracles.complement_perm(n)
        rev = oracles.reverse_perm(n)
        for m in range(1, min(4, n) + 1):
            for x in ("".join(p) for p in itertools.product("01", repeat=m)):
                arr = oracles.counts_all_texts(x, n)
                assert (arr == oracles.counts_all_texts(complement(x), n)[comp]).all()
                assert (arr == oracles.counts_all_texts(reverse(x), n)[rev]).all()
                checked += 1
    return checked


def check_mask_sum_identity() -> int:
    """sum over all texts of w equals C(n,m) * 2^(n-m) for m <= 4, n <= 12."""
    checked = 0
    for n in range(1, 13):
        for m in range(1, min(4, n) + 1):
            for x in ("".join(p) for p in itertools.product("01", repeat=m)):
                total = int(oracles.counts_all_texts(x, n).sum())
                assert total == total_masks(n, m), (x, n)
                checked += 1
    return checked


def check_dual_identity() -> int:
    """For every text y (n <= 12) and every m <= n, summing w over all
    patterns of length m gives C(n, m).

    One depth-first walk over the trie of patterns of length <= 12 serves
    every n and m at once.  A node holds its pattern's embedding counts in
    every prefix of every length-12 text, and the length-n texts are the
    length-n prefixes of those.  Child x + b embeds in prefix t wherever x
    embeds in a shorter prefix t' followed by y[t'] = b, so each node costs
    one cumsum over a (13, 2^12) array.
    """
    top = 12
    bits = (np.arange(1 << top) >> np.arange(top - 1, -1, -1)[:, None]) & 1
    hits = [(bits == b).astype(np.int32) for b in (0, 1)]
    # acc[m][n, v]: summed counts of the length-m patterns in text v[:n]
    acc = np.zeros((top + 1, top + 1, 1 << top), dtype=np.int32)

    def walk(counts, m):
        acc[m] += counts
        if m == top:
            return
        for hit in hits:
            child = np.zeros_like(counts)
            np.cumsum(hit * counts[:-1], axis=0, out=child[1:])
            walk(child, m + 1)

    walk(np.ones((top + 1, 1 << top), dtype=np.int32), 0)
    checked = 0
    for n in range(1, top + 1):
        for m in range(1, n + 1):
            assert (acc[m][n] == binomial(n, m)).all(), (n, m)
            checked += 1 << n
    return checked


def check_kappa_bounds() -> int:
    """4^(m-1) <= kappa2 <= m * C(2m-1, m) for all patterns, m <= 12, and
    the diagonal of the interleaving matrix sums to exactly 4^(m-1)."""
    checked = 0
    for m in range(1, 13):
        mat = interleaving_matrix(m)
        assert sum(mat[r][r] for r in range(m)) == 4 ** (m - 1)
        lo, hi = 4 ** (m - 1), kappa_max(m)
        for x in ("".join(p) for p in itertools.product("01", repeat=m)):
            k = kappa_squared(x)
            assert lo <= k <= hi, (x, k)
            checked += 1
    return checked


def check_kappa_symmetries() -> int:
    """kappa2 invariant under complement and reversal, all m <= 12."""
    checked = 0
    for m in range(1, 13):
        for x in ("".join(p) for p in itertools.product("01", repeat=m)):
            k = kappa_squared(x)
            assert k == kappa_squared(complement(x))
            assert k == kappa_squared(reverse(x))
            checked += 1
    return checked


def check_entropy_symmetries() -> int:
    """Shannon, Renyi-2 and min-entropy invariant under complement and
    reversal for m <= 5, n <= 10."""
    checked = 0
    for m in range(1, 6):
        for n in range(m, 11):
            reports = {
                x: entropy_report(x, n)
                for x in ("".join(p) for p in itertools.product("01", repeat=m))
            }
            for x, rep in reports.items():
                for other in (complement(x), reverse(x)):
                    mate = reports[other]
                    assert abs(rep.shannon_bits - mate.shannon_bits) < 1e-9
                    assert abs(rep.renyi2_bits - mate.renyi2_bits) < 1e-9
                    assert abs(rep.min_entropy_bits - mate.min_entropy_bits) < 1e-9
                checked += 1
    return checked


def check_histogram_symmetries() -> int:
    """Histograms invariant under complement and reversal, m <= 4, n <= 10."""
    checked = 0
    for m in range(1, 5):
        for n in range(m, 11):
            for x in ("".join(p) for p in itertools.product("01", repeat=m)):
                counts = exact_histogram(x, n).counts
                assert counts == exact_histogram(complement(x), n).counts
                assert counts == exact_histogram(reverse(x), n).counts
                checked += 1
    return checked


def check_entropy_ordering() -> int:
    """Hmin <= R <= H on every exact instance, m <= 4 with n <= 12, plus
    the m=5, n=8 family."""
    cases = [
        (m, n)
        for m in range(1, 5)
        for n in range(m, 13)
    ] + [(5, 8)]
    checked = 0
    for m, n in cases:
        for x in ("".join(p) for p in itertools.product("01", repeat=m)):
            rep = entropy_report(x, n)
            assert rep.min_entropy_bits <= rep.renyi2_bits + 1e-9
            assert rep.renyi2_bits <= rep.shannon_bits + 1e-9
            checked += 1
    return checked
