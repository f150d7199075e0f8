import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delentropy import count_embeddings, posterior, total_masks, uncertainty_set
from delentropy.core import CapacityError

import oracles


@pytest.mark.parametrize(
    "x,y,want",
    [
        ("01", "0101", 3),
        ("11", "1111", 6),
        ("0", "1", 0),
        ("10", "0011", 0),
        ("0101", "0101", 1),
        ("01", "0", 0),  # pattern longer than text
        ("1", "", 0),
    ],
)
def test_count_embeddings_examples(x, y, want):
    assert count_embeddings(x, y) == want


def test_count_embeddings_identity_mask():
    for bits in itertools.product("01", repeat=4):
        s = "".join(bits)
        assert count_embeddings(s, s) == 1


def test_count_embeddings_matches_mask_enumeration_small():
    # the full |x| <= 4, |y| <= 10 sweep runs in the acceptance suite
    for n in range(0, 8):
        for y in oracles.all_texts(n):
            for m in range(1, min(4, n) + 1):
                tally = oracles.mask_tally(y, m)
                for x in ("".join(p) for p in itertools.product("01", repeat=m)):
                    assert count_embeddings(x, y) == tally.get(x, 0)


@pytest.mark.parametrize("n,m,want", [(8, 5, 448), (7, 7, 1), (2, 1, 4), (8, 2, 1792)])
def test_total_masks(n, m, want):
    assert total_masks(n, m) == want


def test_total_masks_rejects_bad_shapes():
    with pytest.raises(ValueError):
        total_masks(4, 0)
    with pytest.raises(ValueError):
        total_masks(4, 5)


def test_uncertainty_set_example():
    assert dict(uncertainty_set("0", 2)) == {"00": 2, "01": 1, "10": 1}


def test_uncertainty_set_point_mass():
    assert list(uncertainty_set("0000", 4)) == [("0000", 1)]


def test_uncertainty_set_size_and_order():
    rows = list(uncertainty_set("01", 4))
    assert len(rows) == 11
    texts = [y for y, _ in rows]
    assert texts == sorted(texts)
    assert all(w >= 1 for _, w in rows)
    # exactly the zero-weight texts are missing
    missing = set(oracles.all_texts(4)) - set(texts)
    assert missing == {"0000", "1000", "1100", "1110", "1111"}


def test_uncertainty_set_guard():
    from delentropy import embedding

    with pytest.raises(CapacityError):
        list(uncertainty_set("01", 40))
    # at the n guard the stream holds two half tables and one block, so its
    # first block comes at once
    texts, weights = next(embedding.uncertainty_blocks("01", 30))
    assert 0 < len(texts) == len(weights) <= embedding._ROWS
    # raising the guard explicitly is allowed
    rows = list(uncertainty_set("01", 12, guard=12))
    assert len(rows) == len(oracles.brute_posterior("01", 12))


def test_uncertainty_set_workers_match_serial():
    serial = list(uncertainty_set("010", 9))
    assert serial == list(uncertainty_set("010", 9, workers=4))


def test_posterior_counts_its_dict(monkeypatch):
    from delentropy import embedding

    # the support is the same for every pattern of a length
    for n in range(1, 13):
        for m in range(1, n + 1):
            size = embedding._support_size(n, m)
            for x in ("0" * m, ("01" * m)[:m], ("0110" * m)[:m]):
                assert size == np.count_nonzero(oracles.counts_all_texts(x, n))
    # the estimate depends on m and n only: every pattern at n = 17 and "0"
    # at n = 20 are admitted; at n = 23 the stream is, the dict is not
    for m in range(1, 18):
        embedding._check_dict(("01" * 9)[:m], 17, None)
    embedding._check_dict("0", 20, None)
    next(embedding.uncertainty_blocks("0", 23))
    with pytest.raises(CapacityError):
        embedding._check_dict("0", 23, None)
    # a bound below the dict's estimate: the stream is admitted, the dict
    # is refused, naming its estimate and the bound
    monkeypatch.setattr(embedding, "_TABLE_BYTES", 200_000)
    assert len(list(uncertainty_set("0", 12))) == 4095
    refusal = r"dict of 4095 rows needs about \d+ bytes .*bound of 200000 bytes"
    with pytest.raises(CapacityError, match=refusal):
        posterior("0", 12)


def test_posterior_example():
    dist = posterior("0", 2)
    assert dist.entries == {"00": 2, "01": 1, "10": 1}
    assert dist.normalizer == 4
    assert float(dist.probability("00")) == 0.5
    assert dist.probability("11") == 0


def test_posterior_point_mass():
    dist = posterior("010", 3)
    assert dist.entries == {"010": 1}
    assert dist.normalizer == 1


def test_posterior_weights_sum_to_normalizer():
    # integer identity equivalent to posterior probabilities summing to 1;
    # rows also come out in lexicographic text order.  The oracle posteriors
    # come from one mask walk per (n, m): want[x, n][y] counts x in y.
    want = {}
    for n in range(1, 11):
        for m in range(1, min(n, 4) + 1):
            for y in oracles.all_texts(n):
                for x, w in oracles.mask_tally(y, m).items():
                    want.setdefault((x, n), {})[y] = w
    for m in range(1, 5):
        for x in ("".join(p) for p in itertools.product("01", repeat=m)):
            for n in range(m, 11):
                assert list(uncertainty_set(x, n)) == sorted(want[x, n].items())
                dist = posterior(x, n)
                assert sum(dist.entries.values()) == dist.normalizer
                assert dist.entries == want[x, n]


def _recurrence_count(x, y):
    """The prefix recurrence with a compare on every (symbol, row) pair."""
    dp = [1] + [0] * len(x)
    for c in y:
        for i in range(len(x), 0, -1):
            if x[i - 1] == c:
                dp[i] += dp[i - 1]
    return dp[len(x)]


def test_count_embeddings_long_texts():
    rng = random.Random(200)
    texts = [format(rng.getrandbits(200), "0200b") for _ in range(20)]
    texts += ["0" * 200, "1" * 200, "01" * 100]
    for x in ("0", "1", "01", "110", "0110", "00000", "010110", "1" * 12):
        for y in texts:
            assert count_embeddings(x, y) == _recurrence_count(x, y)


def _oracle_rows(x, n):
    weights = oracles.counts_all_texts(x, n)
    return [(format(v, f"0{n}b"), int(weights[v])) for v in np.flatnonzero(weights)]


@st.composite
def _pattern_and_length(draw):
    x = draw(st.text("01", min_size=1, max_size=6))
    return x, draw(st.integers(len(x), 14))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_pattern_and_length(), st.text("01", max_size=14))
@example(("0110", 4), "0110")  # n = m
@example(("000000", 14), "0" * 14)  # constant pattern, one text per weight class
@example(("1", 1), "")
def test_embedding_differential(case, y):
    x, n = case
    want = oracles.counts_all_texts(x, len(y))[int(y, 2) if y else 0]
    assert count_embeddings(x, y) == want
    assert list(uncertainty_set(x, n)) == _oracle_rows(x, n)


def test_uncertainty_set_spans_blocks():
    # 2^14 rows per block: these cross three to four block boundaries
    for x, n in (("0", 16), ("0110", 16), ("11", 15)):
        assert list(uncertainty_set(x, n)) == _oracle_rows(x, n)
        dist = posterior(x, n)
        assert list(dist.entries.items()) == _oracle_rows(x, n)


def test_uncertainty_set_sparse_support_at_n22():
    # 254 of the 2^22 texts hold a 20-bit pattern; the stream walks them all
    from delentropy import embedding

    x = ("01" * 11)[:20]
    rows = list(uncertainty_set(x, 22))
    assert len(rows) == embedding._support_size(22, 20) == 254
    assert sum(w for _, w in rows) == total_masks(22, 20)
    assert all(count_embeddings(x, y) == w for y, w in rows)


def test_half_tables_match_count_embeddings():
    # every row of both half tables, per half-text, against count_embeddings;
    # row 0 of pre and row m of suf count the empty pattern.  Halves of 10
    # and 11 steps at n = 20..22 reach and cross the uint8 -> uint16 switch
    # at step 10; n = 1 leaves u empty
    from delentropy.embedding import _half_tables

    cases = [
        (x, n)
        for m in range(1, 5)
        for x in map("".join, itertools.product("01", repeat=m))
        for n in range(m, 13)
    ]
    cases += [(x, n) for x in ("0" * 10, "1" * 10, "0110100110") for n in (20, 21, 22)]
    for x, n in cases:
        m = len(x)
        us, vs = (
            list(map("".join, itertools.product("01", repeat=k))) for k in (n // 2, n - n // 2)
        )
        pre, suf = _half_tables(x, n, None)
        assert pre.shape == (m + 1, len(us)) and suf.shape == (m + 1, len(vs))
        assert pre[0].tolist() == [1] * len(us) and suf[m].tolist() == [1] * len(vs)
        for i in range(1, m + 1):
            assert pre[i].tolist() == [count_embeddings(x[:i], u) for u in us], (x, n, i)
        for i in range(m):
            assert suf[i].tolist() == [count_embeddings(x[i:], v) for v in vs], (x, n, i)


def test_uncertainty_blocks_both_shapes(monkeypatch):
    # _ROWS = 8 cuts every u-row into slices, _ROWS = 64 at n = 9 takes two
    # whole u-rows per block; the rows must not change
    from delentropy import embedding

    for rows in (8, 64):
        monkeypatch.setattr(embedding, "_ROWS", rows)
        for x, n in (("0", 12), ("0110", 13), ("11", 9)):
            blocks = list(embedding.uncertainty_blocks(x, n))
            assert all(len(t) == len(w) <= rows for t, w in blocks)
            got = [row for t, w in blocks for row in zip(t, w)]
            assert got == _oracle_rows(x, n)


def test_uncertainty_blocks_skip_dead_rows(monkeypatch):
    # constant and near-constant patterns leave few u-rows with any
    # nonzero weight; skipping the rest must not change a row, in either
    # block shape
    from delentropy import embedding

    cases = [("1" * 8, 15), ("0" * 9, 14), ("1" * 16, 16), ("0" * 13 + "1", 16),
             ("1" + "0" * 11, 14), ("11110111", 13), ("000000", 6)]
    want = {case: _oracle_rows(*case) for case in cases}
    for rows in (8, 64, embedding._ROWS):
        monkeypatch.setattr(embedding, "_ROWS", rows)
        for x, n in cases:
            got = [row for t, w in embedding.uncertainty_blocks(x, n) for row in zip(t, w)]
            assert got == want[x, n], (x, n, rows)
    monkeypatch.undo()
    # past the all-text oracle: the support and mass identities, per-text
    # counts, and lexicographic order
    for x, n in (("1" * 20, 20), ("0" * 19 + "1", 20), ("1" + "0" * 18, 20), ("1" * 24, 24)):
        got = list(uncertainty_set(x, n))
        assert len(got) == embedding._support_size(n, len(x))
        assert sum(w for _, w in got) == total_masks(n, len(x))
        assert [y for y, _ in got] == sorted(y for y, _ in got)
        assert all(count_embeddings(x, y) == w for y, w in got)


def test_uncertainty_blocks_memory():
    # the stream holds two half tables and one block, whatever n is
    import tracemalloc

    from delentropy import embedding

    tracemalloc.start()
    try:
        rows = sum(len(t) for t, _ in embedding.uncertainty_blocks("0110100110", 20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == embedding._support_size(20, 10)
    assert peak < 16 << 20
