import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from delentropy import (
    count_embeddings,
    empirical_moments,
    exact_histogram,
    exact_moment,
    sample_histogram,
    total_masks,
)
from delentropy import core, distribution
from delentropy.core import CapacityError

import oracles


def test_exact_histogram_examples():
    assert exact_histogram("01", 2).counts == {0: 3, 1: 1}
    assert exact_histogram("0", 1).counts == {0: 1, 1: 1}
    h = exact_histogram("01", 4)
    assert sum(h.counts.values()) == 16
    assert sum(w * c for w, c in h.counts.items()) == 24


def test_exact_histogram_matches_enumeration():
    # n up to 13 splits texts into equal and unequal halves alike
    for m in range(1, 6):
        for x in ("".join(p) for p in itertools.product("01", repeat=m)):
            for n in range(m, 14):
                want = oracles.vector_histogram(x, n)
                if m < 4 and n < 10:
                    assert want == oracles.brute_histogram(x, n)
                assert exact_histogram(x, n).counts == want


def test_tally_merges_across_chunks(monkeypatch):
    # a tiny pair budget splits the weights into many chunks and forces the
    # running merges of the tally; the results must not change
    sampled = sample_histogram("0110", 20, 3 * 8192 + 77, seed=5).counts
    # int64 weights, uint64 weights (2^63 <= C(n, m) < 2^64), then object
    # weights (C(n, m) >= 2^64)
    assert math.comb(96, 8) < 2**62 <= math.comb(66, 33)
    assert 2**63 <= math.comb(67, 33) < 2**64 <= math.comb(68, 34)
    grouped = {
        args: sample_histogram(*args, seed=5).counts
        for args in (
            ("11001000", 96, 5 * 8192 + 77),
            ("01" * 16 + "0", 66, 2 * 8192 + 77),
            ("1" * 33, 67, 2 * 8192 + 77),
            ("01" * 17, 68, 2 * 8192 + 77),
        )
    }
    monkeypatch.setattr(distribution, "_PAIRS", 64)
    for x, n in (("01010", 14), ("0110", 13), ("1", 9), ("000", 12)):
        assert exact_histogram(x, n).counts == oracles.vector_histogram(x, n)
    assert sample_histogram("0110", 20, 3 * 8192 + 77, seed=5).counts == sampled
    # groups of two blocks plus a partial last one, each reduced by its own
    # np.unique, so the tally merges across groups; neither the counts nor
    # their ascending key order may change
    monkeypatch.setattr(distribution, "_PAIRS", 2 * distribution._BLOCK)
    for args, want in grouped.items():
        got = sample_histogram(*args, seed=5).counts
        assert got == want and list(got) == list(want) == sorted(want)


def _ascending_and_attained(hist):
    return list(hist.counts) == sorted(hist.counts) and min(hist.counts.values()) >= 1


def test_counts_ascend_and_are_attained(monkeypatch):
    # the order the CLI renders as given, and the floor the entropies rely on
    for x, n in (("0", 1), ("01", 5), ("0110", 11), ("01010", 14), ("111", 12)):
        assert _ascending_and_attained(exact_histogram(x, n)), (x, n)
    # int64 weights, uint64 weights, then object weights of exact ints
    # (C(n, m) >= 2^64)
    assert math.comb(66, 33) >= 2**62 and 2**63 <= math.comb(67, 33) < 2**64
    assert _ascending_and_attained(sample_histogram("10010110", 200, 20000, seed=1))
    assert _ascending_and_attained(sample_histogram("01" * 16 + "0", 66, 3000, seed=2))
    assert _ascending_and_attained(sample_histogram("1" * 33, 67, 3000, seed=2))
    assert _ascending_and_attained(sample_histogram("01" * 17, 68, 3000, seed=2))
    # a sample spread over several groups, each reduced on its own
    monkeypatch.setattr(distribution, "_PAIRS", 2 * distribution._BLOCK)
    assert distribution.check_sample_block(96, 8, 5 * 8192 + 77) < 5 * 8192 + 77
    assert _ascending_and_attained(sample_histogram("11001000", 96, 5 * 8192 + 77, seed=5))


def test_sample_tally_peak_beside_histogram(monkeypatch):
    # beside the dict it returns, the sampled tally holds at its peak the
    # merged weight and multiplicity arrays (16 B per distinct weight), the
    # dict's old table while it last doubles (at most 30 B per weight) and
    # one _BLOCK-entry slice, not two full-length lists of the weights
    import tracemalloc

    sample_histogram("11001000", 96, 100, seed=1)
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    h = sample_histogram("11001000", 96, 10**5, seed=1)
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(h.counts) > 99_000
    assert peak - held <= 46 * len(h.counts) + 2**19
    assert held - base > 64 * len(h.counts)
    # and the peak is within the bytes check_sample_block charges the tally
    monkeypatch.setattr(core, "MAX_BYTES", peak - base - 1)
    with pytest.raises(CapacityError, match="the tally of 100000 sampled texts"):
        distribution.check_sample_block(96, 8, 10**5)


def test_distinct_columns_match_unique_axis1():
    # same (column, multiplicity) multiset as np.unique(axis=1), whatever
    # the order the byte keys sort into
    from delentropy.embedding import _half_tables

    for x, n in (("0", 1), ("01", 5), ("0110", 11), ("01010", 14), ("111", 12)):
        for table in _half_tables(x, n, None):
            cols, mult = distribution._distinct_columns(table)
            want_cols, want_mult = np.unique(table, axis=1, return_counts=True)
            got = sorted(zip(map(tuple, cols.tolist()), mult.tolist()))
            want = sorted(zip(map(tuple, want_cols.T.tolist()), want_mult.tolist()))
            assert got == want


def test_exact_histogram_mass_identities():
    for m in range(1, 5):
        for x in ("".join(p) for p in itertools.product("01", repeat=m)):
            for n in range(m, 13):
                h = exact_histogram(x, n)
                oracles.histogram_mass_checks(h)
                assert h.total() == 1 << n
                assert sum(w * c for w, c in h.counts.items()) == total_masks(n, m)


def test_exact_histogram_guard():
    with pytest.raises(CapacityError):
        exact_histogram("01", 31)
    exact_histogram("01", 31, guard=31)  # explicit override
    with pytest.raises(CapacityError, match="62"):
        exact_histogram("01", 63, guard=100)  # int64 bound, whatever the guard


def test_empirical_moments_examples():
    ms = empirical_moments(exact_histogram("01", 4))
    assert ms.mean == Fraction(3, 2)
    assert ms.central[2] == Fraction(13, 8)
    assert ms.provenance == "exact"
    bernoulli = empirical_moments(exact_histogram("0", 1))
    assert bernoulli.central[2] == Fraction(1, 4)


def test_empirical_moments_point_mass():
    from delentropy import WeightHistogram

    point = WeightHistogram(
        pattern="01", text_length=6, counts={3: 17}, mode="sampled",
        sample_size=17, seed=0,
    )
    ms = empirical_moments(point)
    assert ms.mean == 3
    assert ms.central[2] == 0 and ms.central[3] == 0 and ms.central[4] == 0
    assert ms.provenance == "empirical"


def test_empirical_mean_is_expected_count():
    for m in range(1, 4):
        for x in ("".join(p) for p in itertools.product("01", repeat=m)):
            for n in range(m, 11):
                ms = empirical_moments(exact_histogram(x, n))
                assert ms.mean == Fraction(math.comb(n, m), 1 << m)


def test_empirical_moments_match_per_class_formula():
    from delentropy import WeightHistogram

    hists = [exact_histogram(x, n) for x, n in [("01", 9), ("0110", 14), ("1", 3)]]
    hists += [
        sample_histogram("0110", 20, 3000, seed=5),
        sample_histogram("01" * 16 + "0", 66, 40, seed=3),  # big-int path
        WeightHistogram(
            pattern="01", text_length=66, counts={0: 5, 2**64 + 1: 2, 2**70: 1},
            mode="sampled", sample_size=8, seed=0,
        ),
    ]
    assert max(hists[-2].counts) ** 4 >= 2**63  # power sums pass int64
    for hist in hists:
        ms = empirical_moments(hist)
        got = (ms.mean, ms.central[2], ms.central[3], ms.central[4])
        assert got == oracles.per_class_central_moments(hist.counts)


def test_empirical_moments_match_moment_dp():
    from delentropy import exact_moment_set

    for m in range(1, 4):
        for x in ("".join(p) for p in itertools.product("01", repeat=m)):
            for n in range(m, 13):
                from_hist = empirical_moments(exact_histogram(x, n))
                from_dp = exact_moment_set(x, n)
                assert from_hist.mean == from_dp.mean
                assert from_hist.central == from_dp.central


def test_sample_histogram_deterministic():
    a = sample_histogram("01", 10, 500, seed=42)
    b = sample_histogram("01", 10, 500, seed=42)
    assert a.counts == b.counts
    assert a.mode == "sampled" and a.seed == 42 and a.sample_size == 500
    assert a.total() == 500


def test_sample_histogram_worker_invariance():
    serial = sample_histogram("011", 9, 20000, seed=7)
    parallel = sample_histogram("011", 9, 20000, seed=7, workers=4)
    assert serial.counts == parallel.counts


def _redrawn_histogram(x, n, sample_size, seed):
    """Tally of count_embeddings over the documented draws: sample s comes
    from stream s // 8192, and stream j is PCG64(seed).jumped(j)."""
    counts = {}
    for j in range((sample_size + 8191) // 8192):
        size = min(8192, sample_size - j * 8192)
        rng = np.random.Generator(np.random.PCG64(seed).jumped(j))
        for row in rng.integers(0, 2, size=(size, n), dtype=np.uint8):
            w = count_embeddings(x, "".join(str(b) for b in row))
            counts[w] = counts.get(w, 0) + 1
    return counts


@pytest.mark.parametrize(
    "x,n,sample_size,seed",
    [
        ("0110", 20, 8192 + 300, 11),  # int64 kernel, two streams
        ("0000", 30, 3 * 8192 + 77, 17),  # four streams, few distinct weights
        ("011010011", 111, 1000, 23),  # odd n: halves of 55 and 56 reach int64
        ("0" * 135, 140, 60, 29),  # half rows can pass 2^64; C(140, 135) < 2^62
        ("01" * 16 + "0", 66, 40, 3),  # C(66, 33) >= 2^62: int64 sums
        ("1" * 33, 67, 40, 4),  # 2^63 <= C(67, 33) < 2^64: uint64 sums
        ("01" * 17, 68, 40, 3),  # C(68, 34) >= 2^64: big-int fallback
    ],
)
def test_sample_histogram_matches_redrawn_counts(x, n, sample_size, seed):
    got = sample_histogram(x, n, sample_size, seed=seed).counts
    assert got == _redrawn_histogram(x, n, sample_size, seed)


def test_stream_bits_match_generator_integers():
    # bit k is the top bit of raw byte k; sizes with size * n % 8 != 0 leave
    # part of the last word unused
    for seed, stream, size, n in itertools.product(
        (0, 1, 2024), (0, 1, 3, 12), (1, 3, 7, 100, 8192), (1, 5, 8, 13, 64)
    ):
        rng = np.random.Generator(np.random.PCG64(seed).jumped(stream))
        want = rng.integers(0, 2, size=(size, n), dtype=np.uint8)
        got = distribution._stream_bits(seed, stream, size, n)
        assert got.shape == (n, size) and got.dtype == np.uint8
        assert np.array_equal(got.T, want), (seed, stream, size, n)
    # per-text weights, in draw order, on every weight path
    for x, n, seed, stream, size in (
        ("0110", 13, 9, 2, 301),
        ("01" * 16 + "0", 66, 3, 0, 9),
        ("1" * 33, 67, 3, 1, 9),
        ("01" * 17, 68, 3, 0, 9),
    ):
        rng = np.random.Generator(np.random.PCG64(seed).jumped(stream))
        rows = rng.integers(0, 2, size=(size, n), dtype=np.uint8)
        want = [count_embeddings(x, "".join(map(str, row.tolist()))) for row in rows]
        assert distribution._count_block(x, n, seed, stream, size).tolist() == want


def test_big_int_block_matches_count_embeddings():
    # C(n, m) >= 2^64 sends a block to the walker over its rendered texts,
    # below it the int64 sums are W, read as uint64 from 2^63; per text, in
    # draw order, at n = 66 to 69, where n * size is not always a multiple
    # of 8 and the stream's last word is then partly used
    for x, n, seed, stream, size in (
        ("01" * 16 + "0", 66, 5, 1, 300),
        ("0110" * 8 + "01", 67, 6, 2, 301),
        ("1" * 33, 67, 7, 0, 257),
        ("01" * 17, 68, 8, 3, 300),
        ("0110" * 8 + "010", 69, 9, 1, 301),
    ):
        top = math.comb(n, len(x))
        assert top >= 2**62
        rng = np.random.Generator(np.random.PCG64(seed).jumped(stream))
        rows = rng.integers(0, 2, size=(size, n), dtype=np.uint8)
        want = [count_embeddings(x, "".join(map(str, row.tolist()))) for row in rows]
        got = distribution._count_block(x, n, seed, stream, size)
        dtype = object if top >= 2**64 else np.uint64 if top >= 2**63 else np.int64
        assert got.dtype == dtype and got.tolist() == want, (x, n)
        assert any(w > 0 for w in want)


def _last_steps(m, most):
    """The last walk step each of uint8, uint16 and uint32 holds for a
    length-m pattern, by the bound max_i C(s, i), among steps <= most."""
    ends = []
    for limit in (2**8 - 1, 2**16 - 1, 2**32 - 1):
        s = ends[-1] if ends else 0
        while s < most and math.comb(s + 1, min(m, (s + 1) // 2)) <= limit:
            s += 1
        if s < most:
            ends.append(s)
    return ends


def _assert_block_counts(monkeypatch, x, rows, dtype=np.int64):
    """_count_block on the given texts (rows of 0/1) equals count_embeddings
    per text, in weights of ``dtype``."""
    bits = np.ascontiguousarray(np.array(rows, dtype=np.uint8).T)
    monkeypatch.setattr(distribution, "_stream_bits", lambda *args: bits)
    got = distribution._count_block(x, bits.shape[0], 0, 0, bits.shape[1])
    want = [count_embeddings(x, "".join(map(str, row))) for row in rows]
    assert got.dtype == dtype and got.tolist() == want, (x, bits.shape[0])


def test_count_block_exact_on_every_rung(monkeypatch):
    # Constant texts give a constant pattern the largest count the bound
    # allows at every step, so a half that widens one step late overflows.
    # n = 2s, 2s + 1, 2s + 2 around each switch s lets the suffix half, then
    # both halves, take one step past it; n = 1 leaves the prefix half empty.
    rng = np.random.default_rng(14)
    for m in range(1, 11):
        ns = {n for n in (1, m, m + 1, 2 * m + 1) if n >= m}
        for s in _last_steps(m, 3000):
            ns |= {2 * s, 2 * s + 1, 2 * s + 2}
        for n in sorted(ns):
            assert math.comb(n, m) < 2**62  # the int64 path
            rows = [[0] * n, [1] * n, [j % 2 for j in range(n)], [1 - j % 2 for j in range(n)]]
            rows += rng.integers(0, 2, size=(4, n)).tolist()
            for x in ("0" * m, "1" * m, "0110100110"[:m]):
                _assert_block_counts(monkeypatch, x, rows)


def test_count_block_wraps_exactly(monkeypatch):
    # At x = "0" * 135, n = 140 the all-zero half of 70 bits counts
    # C(70, 35) > 2^64 copies of x[:35]; texts with up to five ones hold x
    rng = np.random.default_rng(140)
    rows = [[0] * 140]
    for ones in (1, 2, 5, 6):
        row = [0] * 140
        for j in rng.choice(140, ones, replace=False):
            row[j] = 1
        rows.append(row)
    assert math.comb(70, 35) >= 2**64 and math.comb(140, 135) < 2**62
    _assert_block_counts(monkeypatch, "0" * 135, rows)
    _assert_block_counts(monkeypatch, "0" * 60 + "1" + "0" * 74, rows)


def test_count_block_weights_up_to_two_to_the_64(monkeypatch):
    # the all-ones text holds "1" * m C(n, m) times: past 2^63 at m = 33,
    # n = 67, where the int64 sum wraps negative and is read as uint64, and
    # past 2^64 at m = 34, n = 68, where the walker counts in exact ints
    rng = np.random.default_rng(64)
    for m, n, dtype in ((33, 67, np.uint64), (34, 68, object)):
        assert (2**63 <= math.comb(n, m) < 2**64) == (dtype is np.uint64)
        rows = [[1] * n, [1] * (n - 1) + [0], [j % 2 for j in range(n)]]
        rows += rng.integers(0, 2, size=(4, n)).tolist()
        for x in ("1" * m, "1" * (m - 1) + "0"):
            _assert_block_counts(monkeypatch, x, rows, dtype)


@pytest.mark.parametrize(
    "x,n", [("01", 200), ("10001001", 64), ("0" * 135, 140)], ids=["m2", "m8", "m135"]
)
def test_count_block_memory_within_estimate(monkeypatch, x, n):
    # the tracemalloc peak of one block, bit draw included, is within the
    # bytes check_sample_block charges it: a bound one byte under the peak
    # must refuse the block
    import tracemalloc

    size = 4096
    distribution._count_block(x, n, 1, 0, 8)
    tracemalloc.start()
    distribution._count_block(x, n, 1, 0, size)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    monkeypatch.setattr(core, "MAX_BYTES", peak - 1)
    with pytest.raises(CapacityError, match=f"{size} texts of length {n} needs"):
        distribution.check_sample_block(n, len(x), size)


def test_small_blocks_within_charge(monkeypatch):
    # on the big-int path a block also holds the text being walked, which
    # the per-block term of check_sample_block charges: the tracemalloc peak
    # of every block size 1..64 at n = 20000 is within the bytes charged
    import tracemalloc

    x, n = "01101", 20000
    assert math.comb(n, len(x)) >= 2**62

    def assert_within_charge(x, n, size):
        tracemalloc.start()
        distribution._count_block(x, n, 1, 0, size)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        with monkeypatch.context() as patch:
            patch.setattr(core, "MAX_BYTES", peak - 1)
            with pytest.raises(CapacityError, match=f"plus {3 * n + (1 << 16)} per block"):
                distribution.check_sample_block(n, len(x), size)

    distribution._count_block(x, n, 1, 0, 2)
    for size in (1, 2, 3, 4):
        assert_within_charge(x, n, size)
    # the walk's own ints are transient, so a walker that only takes the
    # text's length leaves the peak in place and keeps tracemalloc from
    # tracing some 10^8 big-int additions
    monkeypatch.setattr(distribution, "_walker", lambda x: len)
    for size in range(1, 65):
        assert_within_charge(x, n, size)
    # on the int64 path numpy's casting buffers are the per-block excess
    for size in range(1, 65):
        assert_within_charge("0" * 135, 140, size)


def test_sample_histogram_single_draw():
    h = sample_histogram("01", 12, 1, seed=123)
    assert h.total() == 1
    assert h.counts == sample_histogram("01", 12, 1, seed=123).counts


def test_sample_histogram_seed_sensitivity_smoke():
    # different seeds almost surely differ; recorded, not asserted
    a = sample_histogram("01", 10, 1000, seed=1)
    b = sample_histogram("01", 10, 1000, seed=2)
    assert a.total() == b.total() == 1000


def test_sample_histogram_mean_near_exact_mean():
    # 5 standard errors of the exact mean, deliberately wide
    n, draws = 12, 100_000
    exact_mean = float(exact_moment("01", n, 1))
    variance = float(exact_moment("01", n, 2)) - exact_mean**2
    h = sample_histogram("01", n, draws, seed=2024)
    sample_mean = sum(w * c for w, c in h.counts.items()) / draws
    se = math.sqrt(variance / draws)
    assert abs(sample_mean - exact_mean) < 5 * se


def test_sample_histogram_mean_n10():
    # deterministic under the fixed seed, so the 3-SE band is safe to pin
    n, draws = 10, 100_000
    h = sample_histogram("01", n, draws, seed=404)
    sample_mean = sum(w * c for w, c in h.counts.items()) / draws
    exact_mean = 11.25  # C(10,2) / 4
    variance = float(exact_moment("01", n, 2)) - exact_mean**2
    assert abs(sample_mean - exact_mean) < 3 * math.sqrt(variance / draws)


def test_sample_histogram_beyond_guard():
    h = sample_histogram("01", 64, 100, seed=5)
    assert h.total() == 100


def test_sample_histogram_block_bytes(monkeypatch):
    # a full block at n = 10^6 would hold 2 * 8192 * 10^6 bytes of bits
    def no_draw(*args):
        raise AssertionError("a block was drawn before the refusal")

    monkeypatch.setattr(distribution, "_count_block", no_draw)
    with pytest.raises(CapacityError, match="above the bound of 1073741824 bytes"):
        sample_histogram("01", 10**6, 100_000, seed=1)
    # the tally of 10^8 texts can hold 10^8 distinct weights, some 13.9 GB
    with pytest.raises(CapacityError, match="the tally of 100000000 sampled texts"):
        sample_histogram("10010110", 200, 10**8, seed=1)
    monkeypatch.undo()
    for n in (64, 200):
        assert sample_histogram("01", n, 10_000, seed=1).total() == 10_000
    # the 10^5-text sampled jobs of the text-enum benchmark stay admitted
    for m, n in ((5, 64), (8, 96), (8, 128), (8, 200)):
        distribution.check_sample_block(n, m, 100_000)


def test_one_byte_bound_for_tables_dicts_blocks_and_tallies(monkeypatch):
    # every byte check reads core.MAX_BYTES when it runs: at 4 MiB the half
    # tables of n = 34, a posterior dict of 65535 rows, a block of 8192
    # texts of length 200 and the tally of 10^5 weights at n = 20 are each
    # refused, naming the one bound; the default bound admits them all
    from delentropy import embedding

    def checks():
        yield "half-texts need", lambda: embedding._half_tables("0", 34, 40)
        yield "a dict of 65535 rows", lambda: embedding.posterior("0", 16)
        yield "a sample block of 8192", lambda: distribution.check_sample_block(200, 8, 8192)
        yield "the tally of 100000", lambda: distribution.check_sample_block(20, 8, 10**5)

    monkeypatch.setattr(core, "MAX_BYTES", 1 << 22)
    for what, check in checks():
        with pytest.raises(CapacityError, match=f"{what}.*(bound of|the) 4194304"):
            check()
    monkeypatch.undo()
    embedding._validate("0", 34, 40)
    embedding._check_dict("0", 16, None)
    assert distribution.check_sample_block(200, 8, 8192) == 8192
    assert distribution.check_sample_block(20, 8, 10**5) == 10**5


def test_sample_groups_are_the_charged_groups(monkeypatch):
    # sample_histogram reduces, by one np.unique each, exactly the groups
    # whose size check_sample_block charges and returns
    block, unique, sizes = distribution._BLOCK, np.unique, []

    def recording_unique(weights, **kwargs):
        sizes.append(len(weights))
        return unique(weights, **kwargs)

    for pairs in (1, 2 * block, 3 * block + 5):
        monkeypatch.setattr(distribution, "_PAIRS", pairs)
        for sample_size in (77, 2 * block, 7 * block + 5):
            group = distribution.check_sample_block(20, 4, sample_size)
            assert group == sample_size or group % block == 0
            sizes.clear()
            with monkeypatch.context() as patch:
                patch.setattr(distribution.np, "unique", recording_unique)
                sample_histogram("0110", 20, sample_size, seed=3)
            full, rest = divmod(sample_size, group)
            assert sizes == [group] * full + [rest] * (rest > 0), (pairs, sample_size)


def test_sample_histogram_validation():
    with pytest.raises(ValueError):
        sample_histogram("01", 10, 0, seed=1)
    with pytest.raises(ValueError):
        sample_histogram("01", 1, 10, seed=1)
