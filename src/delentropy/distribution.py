"""Exact and sampled distributions of the embedding count over random texts.

The histogram of W (embedding count of a fixed pattern in a uniform random
text) includes the zero bin: texts that cannot produce the pattern are part
of the text space even though they carry no posterior mass.

Both histograms split each text at its midpoint (``core._halves``),
and form W(uv) = sum_i c_i(u) * s_i(v) from prefix counts of x in u and
suffix counts of x in v: the exact one over all half-texts at once, the
sampled one per drawn text.  Both take c_i and s_i from
``embedding._half_counts``, as the posterior rows do, stepped in the
narrowest type of the uint8 -> uint16 -> uint32 -> int64 ladder that
holds them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import core
from .embedding import _half_counts, _half_tables, _walker
from .moments import MomentSet, central_from_raw

# Sample index s is drawn by PRNG stream s // _BLOCK; stream j is the raw
# output of PCG64(seed).jumped(j) (see _stream_bits), so results depend on
# (seed, sample_size) alone.
_BLOCK = 8192

# The draws one PCG64.jumped() step skips: (phi - 1) * 2^128, phi the golden
# ratio, as numpy's PCG64 documents it.
_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835

# Pairs of half-text classes whose weights exact_histogram forms at once,
# the sampled weights one np.unique reduces at once (_PAIRS // _BLOCK
# blocks), and the fewest pending entries _tally merges; bounds their
# temporaries to a few MiB.
_PAIRS = 1 << 18


@dataclass
class WeightHistogram:
    """Multiplicity of each attained weight value.

    Exact mode: multiplicities over all 2^n texts (they sum to 2^n).
    Sampled mode: counts over ``sample_size`` texts drawn i.i.d. uniform.
    In both, ``_tally`` fills ``counts`` in ascending weight order and holds
    only attained weights, so every count is at least 1.
    """

    pattern: str
    text_length: int
    counts: dict[int, int]
    mode: str  # "exact" | "sampled"
    sample_size: int | None = None
    seed: int | None = None

    def total(self) -> int:
        return sum(self.counts.values())


def exact_histogram(x: str, n: int, *, guard: int | None = None) -> WeightHistogram:
    """Exact multiplicity of every weight value over all 2^n texts.

    Meet in the middle on the half tables of ``_half_tables``: each text
    splits as y = uv at its midpoint, and W(uv) = sum_i c_i(u) * s_i(v),
    where c_i(u) counts x[:i] in u and s_i(v) counts x[i:] in v.  Halves
    with equal count columns are merged with their multiplicities
    (``_distinct_columns``), and W = C.T @ S is tallied over all pairs of
    distinct columns in chunks, in exact integer arithmetic.
    """
    pre, suf = _half_tables(x, n, guard)
    pre, pre_mult = _distinct_columns(pre)
    suf, suf_mult = _distinct_columns(suf)
    step = max(1, _PAIRS // len(suf))
    counts = _tally(
        _merge(
            (pre[lo : lo + step] @ suf.T).ravel(),
            np.multiply.outer(pre_mult[lo : lo + step], suf_mult).ravel(),
        )
        for lo in range(0, len(pre), step)
    )
    return WeightHistogram(pattern=x, text_length=n, counts=counts, mode="exact")


def _distinct_columns(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct columns of a 2-D table, as the rows of the result, with
    their multiplicities.

    Each column of the contiguous transpose is one opaque row-bytes key, so
    one 1-D ``np.unique`` finds them; its order is a byte order, not the
    numeric one, which the weight-sorted tally never sees.
    """
    rows = np.ascontiguousarray(table.T)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, mult = np.unique(keys, return_index=True, return_counts=True)
    return rows[first], mult


def _merge(weights: np.ndarray, mult: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct weights, ascending, with their summed multiplicities:
    argsort + np.add.reduceat."""
    order = np.argsort(weights)
    weights, mult = weights[order], mult[order]
    starts = np.flatnonzero(np.r_[True, weights[1:] != weights[:-1]])
    return weights[starts], np.add.reduceat(mult, starts)


def _tally(blocks) -> dict[int, int]:
    """Exact {weight: multiplicity} summed over (weights, multiplicities)
    blocks, each already reduced to distinct weights (``np.unique`` or
    ``_merge``).

    Weights are int64, or object arrays of Python ints; multiplicities are
    int64.  Pending blocks are concatenated and merged once they hold at
    least _PAIRS entries and twice what the last merge kept, so memory
    stays O(distinct weights + _PAIRS) and each entry is re-sorted O(1)
    times, amortized.  A lone pending block is already merged.  The dict,
    in ascending weight order, is filled from _BLOCK-entry slices of the
    merged arrays, so no full-length list of Python ints is held beside it.
    """
    pending, size, limit = [], 0, _PAIRS
    for block in blocks:
        pending.append(block)
        size += len(block[0])
        if size >= limit:
            pending = [_merge(*map(np.concatenate, zip(*pending)))]
            size = len(pending[0][0])
            limit = max(_PAIRS, 2 * size)
    if len(pending) > 1:
        pending = [_merge(*map(np.concatenate, zip(*pending)))]
    weights, mult = pending[0]
    counts = {}
    for lo in range(0, len(weights), _BLOCK):
        hi = lo + _BLOCK
        counts.update(zip(weights[lo:hi].tolist(), mult[lo:hi].tolist()))
    return counts


def _count_block(x: str, n: int, seed: int, stream: int, size: int) -> np.ndarray:
    """Weights of one PRNG stream's slice of the sample index space.

    The texts are the columns of ``_stream_bits``.  Each splits at its
    midpoint (``core._halves``) as y = uv, |u| = h, as in ``exact_histogram``,
    and W(uv) = sum_i c_i(u) * s_i(v) is summed in int64 over the
    ``_half_counts`` of bits[:h] and bits[h:], each half stepped in the
    narrowest type of the uint8 -> uint16 -> uint32 -> int64 ladder that
    holds it, and viewed as uint64 when C(n, m) >= 2^63.  When C(n, m) >=
    2^64 could overflow even that, the weights come from the
    ``count_embeddings`` walker instead, as an object array of exact ints
    (same bits): the block's texts are rendered as one byte string of
    '0'/'1' characters, and each n-byte slice is decoded and walked.
    """
    bits = _stream_bits(seed, stream, size, n)
    m = len(x)
    top = core.binomial(n, m)
    if top >= 2**64:
        # an object rung atop the ladder was slower at m = 200 and outgrew the bytes charged
        bits += ord("0")  # in place: the block's own bits, no third copy
        chars = bits.T.tobytes()
        walk = _walker(x)
        return np.array(
            [walk(chars[i : i + n].decode("ascii")) for i in range(0, size * n, n)],
            dtype=object,
        )
    h = core._halves(n)[0]
    pre, suf = _half_counts(x, bits[:h], bits[h:])
    # Half rows may pass 2^64 and wrap (C(70, 35) > 2^64 at x = "0" * 135,
    # n = 140), but int64 arithmetic is exact mod 2^64 and W <= C(n, m) <
    # 2^64, so the wrapped sum, read as uint64, is W itself.
    pre *= suf
    weights = pre.sum(axis=0)
    return weights.view(np.uint64) if top >= 2**63 else weights


def _stream_bits(seed: int, stream: int, size: int, n: int) -> np.ndarray:
    """The (n, size) uint8 bits of ``size`` texts of length n from one
    stream: text t is stream bits t*n .. t*n + n - 1.

    Bit k is the top bit of byte k of PCG64(seed).jumped(stream).random_raw(
    ceil(size * n / 8)), the words read little-endian; these are the bits
    ``Generator.integers(0, 2, size=(size, n), dtype=np.uint8)`` draws.
    They are shifted straight into the layout the prefix table walks.
    ``jumped(j)`` advances a copy by j * _JUMP draws; advancing PCG64(seed)
    in place reaches the same state without the copy, which ``jumped``
    first seeds from OS entropy (about half the cost of a one-text block).
    """
    raw = np.random.PCG64(seed).advance(stream * _JUMP).random_raw(-(-size * n // 8))
    stream_bytes = raw.astype("<u8", copy=False).view(np.uint8)[: size * n]
    bits = np.empty((n, size), dtype=np.uint8)
    np.right_shift(stream_bytes.reshape(size, n).T, 7, out=bits)
    return bits


def check_sample_block(n: int, m: int, sample_size: int) -> int:
    """The group size of a sample, the weights one np.unique reduces at
    once: max(1, _PAIRS // _BLOCK) whole blocks, or the whole sample if
    smaller.  A CapacityError instead if one block of length-n texts, for
    a length-m pattern, or the tally of the whole sample (charged on its
    own) passes the byte bound of ``core.charge``.

    A block holds its texts' bits twice while they are drawn (raw stream
    bytes and the (n, size) uint8 layout), then the bits, the int64 prefix
    table and, at worst, the int64 suffix table with one step's bool mask
    and int64 product: under 2n + 25(m+1) bytes per text (3548 of 3680 at
    x = "0" * 135, n = 140, by tracemalloc).  Whatever its size it also
    holds the text walked on the big-int path (2n + 82 bytes) and numpy's
    casting buffers (up to 64 KiB): 3n + 2^16 bytes per block, which covers
    the tracemalloc peak of every block size 1..64 (59310 B over the
    per-text charge at x = "0" * 135, n = 140, size 61; 40331 B at
    x = "01101", n = 20000, size 2).  The tally holds a group's weights
    while np.unique reduces them (41 B per weight at its peak by
    tracemalloc, plus the weight's Python int on the big-int path), and
    peaks as its dict last doubles, with the old and new tables (at most
    90 B per entry), the key ints and the merged weight and multiplicity
    arrays (16 B) alive: 107 + b bytes per distinct weight,
    b = sys.getsizeof(C(n, m)) bounding a key, for at most
    min(sample_size, C(n, m) + 1) weights (by tracemalloc, 123 B per weight
    beside the arrays at 87382 int64 weights of 32 B, just past a doubling:
    the worst case, and 91 + b).
    """
    block = min(_BLOCK, sample_size)
    per_text = 2 * n + 25 * (m + 1)
    per_block = 3 * n + (1 << 16)
    core.charge(f"a sample block of {block} texts of length {n}",
                block * per_text + per_block,
                f"{per_text} per text for a length-{m} pattern, plus {per_block} per block")
    top = core.binomial(n, m)
    distinct = min(sample_size, top + 1)
    group = min(sample_size, max(1, _PAIRS // _BLOCK) * _BLOCK)
    b = sys.getsizeof(top)
    per_weight, per_pending = 107 + b, 41 + b
    core.charge(
        f"the tally of {sample_size} sampled texts of length {n}",
        distinct * per_weight + group * per_pending,
        f"{per_weight} per distinct weight, up to {distinct} for a length-{m} "
        f"pattern, plus {per_pending} per weight of a {group}-weight group",
    )
    return group


def sample_histogram(
    x: str,
    n: int,
    sample_size: int,
    seed: int,
    *,
    workers: int = 1,
) -> WeightHistogram:
    """Histogram of weights over sample_size uniform random texts.

    Reproducible: the (seed, sample_size) pair fully determines the result
    (see the block-to-stream rule above).  The weights of each group of
    blocks from ``_count_block``, sized by ``check_sample_block``, are
    concatenated and reduced by one ``np.unique``, and the groups are summed
    by ``_tally``, so no more than ``_PAIRS`` per-sample weights are held at
    a time and memory stays O(distinct weights + ``_PAIRS``).  ``workers``
    is accepted for compatibility and ignored.  There is no enumeration
    guard, so this extends histograms past it; a block or a tally over the
    byte bound of ``core.charge`` is refused before any draw.
    """
    m = core.check_lengths(len(core.validate_pattern(x)), n)
    if sample_size < 1:
        raise ValueError("sample_size must be >= 1")
    group = check_sample_block(n, m, sample_size)
    counts = _tally(
        np.unique(
            np.concatenate([
                _count_block(x, n, seed, j // _BLOCK, min(_BLOCK, sample_size - j))
                for j in range(lo, min(lo + group, sample_size), _BLOCK)
            ]),
            return_counts=True,
        )
        for lo in range(0, sample_size, group)
    )
    return WeightHistogram(
        pattern=x,
        text_length=n,
        counts=counts,
        mode="sampled",
        sample_size=sample_size,
        seed=seed,
    )


def empirical_moments(hist: WeightHistogram) -> MomentSet:
    """Mean and central moments 2..4 of a histogram, as exact rationals
    from its exact power sums."""
    total = hist.total()
    if total == 0:
        raise ValueError("histogram is empty")
    items = hist.counts.items()
    raw = [Fraction(sum(w**j * c for w, c in items), total) for j in (1, 2, 3, 4)]
    mean, mu2, mu3, mu4 = central_from_raw(raw)
    return MomentSet(
        mean=mean,
        central={2: mu2, 3: mu3, 4: mu4},
        provenance="exact" if hist.mode == "exact" else "empirical",
    )

