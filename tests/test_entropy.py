import itertools
import math
from dataclasses import replace
from fractions import Fraction

import pytest

from delentropy import (
    complement,
    entropy_report,
    exact_histogram,
    exact_moment_set,
    gaussian_limit_moments,
    kappa_squared,
    min_entropy,
    moment_entropy_estimate,
    renyi2_entropy,
    reverse,
    shannon_entropy,
    total_masks,
)
from delentropy import entropy
from delentropy.core import CapacityError
from delentropy.moments import MomentSet

import oracles

# Printed reference values are truncated to 4 decimals, so the computed
# entropy lies in [value, value + 1e-4).
TABLE_N8 = {
    "11111": 5.4649,
    "00001": 5.7581,
    "11000": 5.8838,
    "00010": 6.0132,
    "10011": 6.1076,
    "01101": 6.2375,
    "01010": 6.3498,
}


@pytest.mark.parametrize("x,lo", sorted(TABLE_N8.items()))
def test_shannon_reference_values(x, lo):
    h = shannon_entropy(x, 8)
    assert lo - 1e-9 <= h < lo + 1e-4


def test_shannon_small_cases():
    assert shannon_entropy("0", 2) == pytest.approx(1.5)
    for s in ("0", "01", "1101"):
        assert shannon_entropy(s, len(s)) == 0.0


def test_shannon_matches_direct_posterior_sum():
    for m in range(1, 4):
        for x in ("".join(p) for p in itertools.product("01", repeat=m)):
            for n in range(m, 10):
                assert shannon_entropy(x, n) == pytest.approx(
                    oracles.brute_shannon(x, n), abs=1e-12
                )


@pytest.mark.parametrize("m,n", [(5, 8), (5, 10), (6, 12), (7, 12)])
def test_shannon_bit_identical_on_symmetry_orbits(m, n):
    # mates share a histogram, so the float sum must not depend on its order
    for x in ("".join(p) for p in itertools.product("01", repeat=m)):
        h = shannon_entropy(x, n)
        assert shannon_entropy(complement(x), n) == h
        assert shannon_entropy(reverse(x), n) == h


@pytest.mark.parametrize("x,n", [("01101", 12), ("0110100110", 16), ("000", 14)])
def test_shannon_bit_identical_on_reversed_counts(x, n):
    # fsum rounds once whatever the order, so the same counts inserted in
    # reverse give the same bits
    hist = exact_histogram(x, n)
    flipped = replace(hist, counts=dict(reversed(hist.counts.items())))
    assert list(flipped.counts) != list(hist.counts)
    assert entropy._shannon_bits(flipped) == entropy._shannon_bits(hist)


def test_shannon_guard():
    with pytest.raises(CapacityError):
        shannon_entropy("01", 32)


def test_shannon_bounded_by_support_size():
    for m in range(1, 4):
        for x in ("".join(p) for p in itertools.product("01", repeat=m)):
            for n in range(m, 10):
                support = len(oracles.brute_posterior(x, n))
                assert shannon_entropy(x, n) <= math.log2(support) + 1e-12


def test_renyi2_values():
    expected = 2 * math.log2(24) - math.log2(62)
    assert renyi2_entropy("01", 4) == pytest.approx(expected, abs=1e-12)
    assert renyi2_entropy("010", 3) == 0.0


def test_renyi2_matches_enumeration():
    for m in range(1, 4):
        for x in ("".join(p) for p in itertools.product("01", repeat=m)):
            for n in range(m, 10):
                assert renyi2_entropy(x, n) == pytest.approx(
                    oracles.brute_renyi2(x, n), abs=1e-10
                )


def test_renyi2_has_no_guard():
    # moment DP path: far beyond the enumeration guard
    assert renyi2_entropy("01", 64) > 0


def test_renyi2_matches_the_exact_ints():
    # the logs are taken without forming 2^n E[W^2] or C(n, m) 2^(n-m), and
    # equal math.log2 of those ints bit for bit, also where they pass 2^1024
    from delentropy.moments import raw_moments

    for x in ("0", "01", "0110", "10010110"):
        for n in range(len(x), 1101):
            sum_w2 = int(raw_moments(x, n, 2)[1] * (1 << n))
            want = 2 * math.log2(total_masks(n, len(x))) - math.log2(sum_w2)
            assert renyi2_entropy(x, n) == want, (x, n)


def test_renyi2_at_huge_n_holds_no_big_int():
    # an n-bit int at n = 10^12 would be 125 GB; the answer needs a few KB
    import tracemalloc

    tracemalloc.start()
    try:
        r = renyi2_entropy("0110", 10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 10**12 - 1 < r < 10**12
    assert peak < 1 << 20


def test_min_entropy_values():
    assert min_entropy("0", 2) == pytest.approx(1.0)
    assert min_entropy("011", 3) == 0.0
    for m in range(1, 4):
        for x in ("".join(p) for p in itertools.product("01", repeat=m)):
            for n in range(m, 9):
                assert min_entropy(x, n) == pytest.approx(
                    oracles.brute_min_entropy(x, n), abs=1e-12
                )


def test_entropy_report_ordering():
    rep = entropy_report("01101", 8)
    assert rep.mode == "exact"
    assert rep.min_entropy_bits <= rep.renyi2_bits <= rep.shannon_bits


def test_report_renyi2_equals_the_moment_dp():
    # the report sums c * w^2 over its histogram; the moment DP gives the
    # same collision sum, so the two logs agree bit for bit
    cases = [
        (x, n)
        for m in range(1, 6)
        for x in ("".join(p) for p in itertools.product("01", repeat=m))
        for n in range(m, 15)
    ]
    cases += [("0110", 20), ("01101", 20), ("0110100110", 20)]
    cases += [("01", 24), ("00100", 24), ("11111", 24)]
    for x, n in cases:
        assert entropy_report(x, n).renyi2_bits == renyi2_entropy(x, n), (x, n)


def test_report_and_repro_run_no_moment_dp(tmp_path, capsys, monkeypatch):
    # an exact report takes all three entropies from its one histogram
    from delentropy import cli, moments

    want = entropy_report("01101", 15)

    def no_dp(*args, **kwargs):
        raise AssertionError("an exact report ran the moment DP")

    monkeypatch.setattr(moments, "_newton_coefficients", no_dp)
    assert entropy_report("01101", 15) == want
    # repro exits 0 only when all 13 files equal the checked-in references
    assert cli.main(["repro", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


def test_log2_total_matches_math_log2():
    # C(n, m) and a shift give math.log2 of the n-bit int bit for bit, also
    # where the int passes 2^1024
    for n in range(1, 301):
        for m in range(1, n + 1):
            assert entropy._log2_total(n, m) == math.log2(total_masks(n, m)), (n, m)
    for n in (1000, 1025, 10**4, 123457, 10**5 + 3):
        for m in (1, 2, 4, 7, 30):
            assert entropy._log2_total(n, m) == math.log2(total_masks(n, m)), (n, m)


# ---------------------------------------------------------------------------
# moment-based estimator
# ---------------------------------------------------------------------------

def test_estimate_point_mass():
    flat = MomentSet(
        mean=Fraction(1), central={2: Fraction(0), 3: Fraction(0), 4: Fraction(0)},
        provenance="exact",
    )
    est = moment_entropy_estimate(flat, 1)
    assert est.estimate_bits == 0.0
    assert est.error_bound_bits == 0.0


def test_estimate_rejects_nonpositive_mean():
    bad = MomentSet(mean=Fraction(0), central={2: 0, 3: 0, 4: 0}, provenance="exact")
    with pytest.raises(ValueError):
        moment_entropy_estimate(bad, 4)


def test_estimate_encloses_exact_entropy():
    x, n = "01", 12
    est = moment_entropy_estimate(exact_moment_set(x, n), total_masks(n, 2))
    exact = shannon_entropy(x, n)
    assert abs(est.estimate_bits - exact) <= est.error_bound_bits
    assert est.error_bound_bits >= 0


def test_estimate_gap_shrinks_with_n():
    gaps = []
    for n in (10, 14, 18, 22):
        est = moment_entropy_estimate(exact_moment_set("01", n), total_masks(n, 2))
        exact = shannon_entropy("01", n, guard=22)
        gaps.append(abs(est.estimate_bits - exact))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_estimate_at_huge_n_holds_no_big_int():
    # the private estimate takes log2 of the total, not the n-bit int that
    # would be 125 GB at n = 10^12
    import tracemalloc

    n = 10**12
    ms = exact_moment_set("0110", n)
    tracemalloc.start()
    try:
        est, bound = entropy._moment_estimate(ms, entropy._log2_total(n, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n - 1 < est <= n and 0 <= bound < 1e-6  # within half an ulp of n
    assert peak < 1 << 20


def test_estimate_from_asymptotic_moments():
    # not a rigorous enclosure, but should land near the exact value
    x, n = "01", 40
    ms = gaussian_limit_moments(n, 2, kappa_squared(x))
    est = moment_entropy_estimate(ms, total_masks(n, 2))
    exact_est = moment_entropy_estimate(exact_moment_set(x, n), total_masks(n, 2))
    assert est.error_bound_bits >= 0
    assert abs(est.estimate_bits - exact_est.estimate_bits) < 0.2
    # a 30-bit pattern at n = 10^6: mu4 near 10^546 and mean^4 near 10^554
    # overflow a float, their ratio does not
    x, n = "011010011100101101000111010110", 10**6
    ms = gaussian_limit_moments(n, 30, kappa_squared(x))
    est = moment_entropy_estimate(ms, total_masks(n, 30))
    assert math.isfinite(est.estimate_bits) and math.isfinite(est.error_bound_bits)
    assert 0 < est.error_bound_bits < 1e-6
    assert n - 1 < est.estimate_bits < n  # the posterior spans under 2^n texts
