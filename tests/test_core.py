import itertools

import pytest

from delentropy import (
    all_bitstrings,
    binomial,
    check_entropy_min,
    cli,
    complement,
    distribution,
    embedding,
    moments,
    ordering_table,
    reverse,
    runs,
)
from delentropy.core import validate_pattern, validate_text
from delentropy.extremal import kappa_blocks

import oracles


@pytest.mark.parametrize(
    "n,k,want", [(8, 5, 56), (0, 0, 1), (9, 5, 126), (5, 8, 0), (64, 32, 1832624140942590534)]
)
def test_binomial_values(n, k, want):
    assert binomial(n, k) == want


def test_binomial_matches_pascal_recurrence_up_to_64():
    tri = oracles.pascal_triangle(65)
    for n in range(65):
        for k in range(n + 1):
            assert binomial(n, k) == tri[n][k]
        assert binomial(n, n + 1) == 0


def test_binomial_rejects_negative():
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError):
        binomial(3, -2)


@pytest.mark.parametrize(
    "s,want",
    [
        ("11000", [("1", 2), ("0", 3)]),
        ("00000", [("0", 5)]),
        ("01010", [("0", 1), ("1", 1), ("0", 1), ("1", 1), ("0", 1)]),
    ],
)
def test_runs_examples(s, want):
    assert runs(s) == want


def test_runs_rejects_empty():
    with pytest.raises(ValueError):
        runs("")


def test_complement_reverse_examples():
    assert complement("01010") == "10101"
    assert reverse("00010") == "01000"


def test_bit_ops_and_runs_exhaustive_to_length_12():
    for m in range(1, 13):
        for bits in itertools.product("01", repeat=m):
            s = "".join(bits)
            assert complement(complement(s)) == s
            assert reverse(reverse(s)) == s
            assert complement(reverse(s)) == reverse(complement(s))
            decomposition = runs(s)
            assert "".join(sym * length for sym, length in decomposition) == s
            assert all(length >= 1 for _, length in decomposition)
            assert all(
                a[0] != b[0] for a, b in zip(decomposition, decomposition[1:])
            )


def test_validators():
    assert validate_pattern("0101") == "0101"
    assert validate_text("") == ""
    for bad in ("", "012", "ab", None, 5):
        with pytest.raises(ValueError):
            validate_pattern(bad)
    with pytest.raises(ValueError):
        validate_text("2")


def test_all_bitstrings_lexicographic():
    assert list(all_bitstrings(2)) == ["00", "01", "10", "11"]
    assert list(all_bitstrings(1)) == ["0", "1"]
    with pytest.raises(ValueError):
        list(all_bitstrings(0))


# (id, library call or CLI argv, pattern length m, text length n or None):
# every entry that takes a length, at m = 0 where it takes m and at n = m - 1
_LENGTH_CASES = [
    ("all_bitstrings", lambda: list(all_bitstrings(0)), 0, None),
    ("total_masks-m", lambda: embedding.total_masks(3, 0), 0, 3),
    ("total_masks-n", lambda: embedding.total_masks(3, 4), 4, 3),
    ("posterior", lambda: embedding.posterior("0101", 3), 4, 3),
    ("exact_histogram", lambda: distribution.exact_histogram("0101", 3), 4, 3),
    ("sample_histogram", lambda: distribution.sample_histogram("0101", 3, 10, 1), 4, 3),
    ("raw_moments", lambda: moments.raw_moments("0101", 3), 4, 3),
    ("interleaving_matrix", lambda: moments.interleaving_matrix(0), 0, None),
    ("kappa_max", lambda: moments.kappa_max(0), 0, None),
    ("asymptotic_mean-m", lambda: moments.asymptotic_mean(3, 0), 0, 3),
    ("asymptotic_mean-n", lambda: moments.asymptotic_mean(3, 4), 4, 3),
    ("asymptotic_variance-m", lambda: moments.asymptotic_variance(3, 0, 1), 0, 3),
    ("asymptotic_variance-n", lambda: moments.asymptotic_variance(3, 4, 1), 4, 3),
    ("kappa_blocks", lambda: next(kappa_blocks(0)), 0, None),
    ("ordering_table-m", lambda: ordering_table(5, 0), 0, 5),
    ("ordering_table-n", lambda: ordering_table(3, 4), 4, 3),
    ("check_entropy_min-m", lambda: check_entropy_min(0, [5]), 0, 5),
    ("check_entropy_min-n", lambda: check_entropy_min(4, range(3, 6)), 4, 3),
    ("cli-kappa-all", ["kappa", "--all", "0"], 0, None),
    ("cli-kappa-max", ["extremal", "--criterion", "kappa-max", "0"], 0, None),
    ("cli-kappa-min", ["extremal", "--criterion", "kappa-min", "0"], 0, None),
    ("cli-entropy-min-m", ["extremal", "--criterion", "entropy-min", "0", "--n-range", "3..5"], 0, 3),
    ("cli-entropy-min-n", ["extremal", "--criterion", "entropy-min", "4", "--n-range", "3..5"], 4, 3),
    ("cli-table-m", ["table", "5", "0"], 0, 5),
    ("cli-table-n", ["table", "3", "4"], 4, 3),
    ("cli-hist", ["hist", "0101", "3"], 4, 3),
    ("cli-hist-sample", ["hist", "0101", "3", "--sample", "10", "--seed", "1"], 4, 3),
    ("cli-posterior", ["posterior", "0101", "3"], 4, 3),
    ("cli-entropy", ["entropy", "0101", "3"], 4, 3),
    ("cli-entropy-estimate", ["entropy", "0101", "3", "--mode", "estimate"], 4, 3),
    ("cli-moments", ["moments", "0101", "3", "--r", "2"], 4, 3),
    ("cli-moments-asymptotic", ["moments", "0101", "3", "--r", "1", "--mode", "asymptotic"], 4, 3),
    ("cli-gaussian", ["gaussian", "0101", "3"], 4, 3),
]


@pytest.mark.parametrize(
    "entry,m,n", [case[1:] for case in _LENGTH_CASES], ids=[case[0] for case in _LENGTH_CASES]
)
def test_one_length_rule(entry, m, n, capsys):
    msg = ("pattern length must be >= 1" if m < 1
           else f"text length {n} shorter than pattern length {m}")
    if isinstance(entry, list):
        assert cli.main(entry) == 2
        assert capsys.readouterr() == ("", f"usage error: {msg}\n")
    else:
        with pytest.raises(ValueError) as exc:
            entry()
        assert str(exc.value) == msg
