import itertools

import pytest

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
    with pytest.raises(CapacityError):
        list(uncertainty_set("01", 40))
    # raising the guard explicitly is allowed
    rows = list(uncertainty_set("01", 12, guard=12))
    assert len(rows) == len(oracles.brute_posterior("01", 12))


def test_uncertainty_set_workers_match_serial():
    serial = list(uncertainty_set("010", 9))
    assert serial == list(uncertainty_set("010", 9, workers=4))


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
    # rows also come out in lexicographic text order
    for m in range(1, 5):
        for x in ("".join(p) for p in itertools.product("01", repeat=m)):
            for n in range(m, 11):
                want = oracles.brute_posterior(x, n)
                assert list(uncertainty_set(x, n)) == sorted(want.items())
                dist = posterior(x, n)
                assert sum(dist.entries.values()) == dist.normalizer
                assert dist.entries == want
