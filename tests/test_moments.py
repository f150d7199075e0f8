import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delentropy import (
    asymptotic_mean,
    asymptotic_variance,
    exact_moment,
    exact_moment_set,
    gaussian_diagnostics,
    gaussian_limit_moments,
    kappa_decomposition,
    kappa_max,
    kappa_squared,
    moments,
    raw_moments,
    variance_coefficient,
)
from delentropy.core import CapacityError, DegenerateDistributionError
from delentropy.moments import (
    MomentSet,
    _newton_coefficients,
    diagnostics_from_moments,
    interleaving_matrix,
)

import oracles


# ---------------------------------------------------------------------------
# exact moments
# ---------------------------------------------------------------------------

def test_exact_moment_examples():
    assert exact_moment("01010", 8, 1) == Fraction(7, 4)
    assert exact_moment("11111", 8, 1) == Fraction(7, 4)
    assert exact_moment("01", 4, 2) == Fraction(62, 16)
    for s in ("0", "01", "0110"):
        assert exact_moment(s, len(s), 1) == Fraction(1, 1 << len(s))


def test_exact_moments_match_enumeration():
    for x in ("0", "1", "01", "10", "00", "010", "011", "000"):
        for n in range(len(x), 9):
            assert raw_moments(x, n, 4) == oracles.brute_raw_moments(x, n, 4)
    # past n = r * m = 12 the order-4 tensor has vanished and only the
    # binomial weights still grow with n
    for x in ("".join(p) for p in itertools.product("01", repeat=3)):
        for n in range(9, 14):
            assert raw_moments(x, n, 4) == _power_sums(x, n, 4)
    # sorted-tuple tensors with repeated and distinct indices at m = 4, 5
    for m in (4, 5):
        for x in ("".join(p) for p in itertools.product("01", repeat=m)):
            for n in range(m, 13):
                assert raw_moments(x, n, 4) == _power_sums(x, n, 4), (x, n)


def _power_sums(x, n, rmax):
    """E[W^r] for r = 1..rmax from the histogram of all 2^n texts."""
    hist = oracles.vector_histogram(x, n)
    return [
        Fraction(sum(c * w**r for w, c in hist.items()), 1 << n)
        for r in range(1, rmax + 1)
    ]


@settings(derandomize=True, deadline=None)
@given(
    st.text(alphabet="01", min_size=1, max_size=7).flatmap(
        lambda x: st.tuples(st.just(x), st.integers(len(x), 13))
    )
)
def test_exact_moments_differential(case):
    x, n = case
    assert raw_moments(x, n, 4) == _power_sums(x, n, 4)


def test_exact_mean_closed_form():
    for m in range(1, 4):
        for x in ("".join(p) for p in itertools.product("01", repeat=m)):
            for n in range(m, 13):
                assert exact_moment(x, n, 1) == Fraction(math.comb(n, m), 1 << m)
            for n in (50, 200):
                assert raw_moments(x, n, 4)[0] == Fraction(math.comb(n, m), 1 << m)
    # 128 steps over C(36, 4) sorted cells, within the cell-step bound
    x = "01" * 16
    four = raw_moments(x, 200, 4)
    assert four[0] == Fraction(math.comb(200, 32), 1 << 32)
    assert four[1] == raw_moments(x, 200, 2)[1]


def test_second_moment_newton_coefficients():
    # E[W^2](n) = sum_k c_k C(n, k) / 2^k, c_k counting pairs of embeddings
    # that cover k positions: disjoint pairs give c_2m = C(2m, m), pairs
    # sharing one position with equal symbols give c_(2m-1) = kappa2(x)
    for m in range(1, 7):
        for x in ("".join(p) for p in itertools.product("01", repeat=m)):
            values = [0] * m + [raw_moments(x, n, 2)[1] for n in range(m, 2 * m + 1)]
            for k, want in ((2 * m - 1, kappa_squared(x)), (2 * m, math.comb(2 * m, m))):
                diff = sum(
                    (-1) ** (k - i) * math.comb(k, i) * values[i] for i in range(k + 1)
                )
                assert diff * (1 << k) == want, (x, k)
    # the same two coefficients read straight from the tensor pass
    for m in range(1, 11):
        for x in ("".join(p) for p in itertools.product("01", repeat=m)):
            second = _newton_coefficients(x, 2, 2 * m)[1]
            assert second[2 * m - 2] == kappa_squared(x), x
            assert second[2 * m - 1] == math.comb(2 * m, m), x


def test_newton_coefficients_serve_every_n():
    # one pass per (pattern, order) serves n < r*m, n = r*m and n > r*m, in
    # either order, cold or warm, with the same Fractions as enumeration
    cases = [(x, r) for x in ("0", "01", "011", "010") for r in (1, 2, 3, 4)]
    cases += [("0110", 2), ("01011", 2), ("0110", 3)]
    want = {}
    for x in {x for x, _ in cases}:
        for n in range(len(x), 14):
            want[x, n] = (_power_sums(x, n, 4) if n > 9
                          else oracles.brute_raw_moments(x, n, 4))
    _newton_coefficients.cache_clear()
    for x, r in cases:
        m = len(x)
        assert r * m <= 12
        ns = list(range(13, m - 1, -1))
        for n in ns + ns[::-1]:
            assert raw_moments(x, n, r) == want[x, n][:r], (x, n, r)
        with pytest.raises(ValueError):
            raw_moments(x, m - 1, r)
    info = _newton_coefficients.cache_info()
    assert info.misses == len(cases) and info.currsize == len(cases)


def test_over_budget_pass_runs_min_n_steps(monkeypatch):
    # past the cell-step bound the pass stops at min(n, r*m) steps for each
    # n: the same Fractions, and a refusal exactly when those steps do not fit
    cases = [("0110", 4, 700), ("0110100", 3, 1000), ("01011", 2, 120), ("011", 4, 300)]
    want = {(x, n, r): raw_moments(x, n, r)
            for x, r, _ in cases for n in range(len(x), 4 * len(x) + 3)}
    _newton_coefficients.cache_clear()
    for x, r, budget in cases:
        monkeypatch.setattr(moments, "_MOMENT_CELL_STEPS", budget)
        m, cells = len(x), math.comb(len(x) + r, r)
        assert r * m * cells > budget  # the full pass does not fit
        for n in range(m, 4 * m + 3):
            if min(n, r * m) * cells > budget:
                refusal = f"cell-steps \\(.*\\), above the bound of {budget} cell-steps"
                with pytest.raises(CapacityError, match=refusal):
                    raw_moments(x, n, r)
            else:
                assert raw_moments(x, n, r) == want[(x, n, r)], (x, n, r)
    # each accepted n ran its own pass
    accepted = sum(min(n, r * len(x)) * math.comb(len(x) + r, r) <= budget
                   for x, r, budget in cases for n in range(len(x), 4 * len(x) + 3))
    assert 0 < _newton_coefficients.cache_info().misses == accepted


def _assert_passes_agree(x, r, steps):
    want = moments._array_pass(x, r, steps)
    assert moments._pure_pass(x, r, steps) == want, (x, r, steps)
    assert len(want) == r and all(len(row) == steps for row in want)


def test_pure_pass_matches_array_pass():
    # every pattern up to m = 6 at orders 1..4, full passes and a short one
    for m in range(1, 7):
        for x in ("".join(p) for p in itertools.product("01", repeat=m)):
            for r in range(1, 5):
                _assert_passes_agree(x, r, r * m)
                _assert_passes_agree(x, r, max(1, m - 1))
    # orders 5 and 6 at small m, as the certificates may call them
    for m in range(1, 5):
        for x in ("".join(p) for p in itertools.product("01", repeat=m)):
            for r in (5, 6):
                _assert_passes_agree(x, r, r * m)
    # random patterns up to the size the pure pass takes, the largest m at
    # each order among them
    rng = random.Random(24)
    for r in (1, 2, 3, 4):
        fits = [m for m in range(1, 400)
                if r * m * math.comb(m + r, r) <= moments._PURE_CELL_STEPS]
        for m in (fits[-1], rng.choice(fits), rng.choice(fits)):
            _assert_passes_agree("".join(rng.choice("01") for _ in range(m)), r, r * m)


def test_pass_chosen_by_numpy_and_size(monkeypatch):
    # with numpy loaded every pass is the array pass
    def refuse(*args):
        raise AssertionError("pure pass run with numpy loaded")

    want = raw_moments("011010", 200, 4)
    monkeypatch.setattr(moments, "_pure_pass", refuse)
    _newton_coefficients.cache_clear()
    assert "numpy" in sys.modules and raw_moments("011010", 200, 4) == want
    monkeypatch.undo()
    # before numpy loads, the pure pass up to _PURE_CELL_STEPS, above it the
    # array pass; both are replaced here, so numpy is not imported again
    monkeypatch.delitem(sys.modules, "numpy")
    monkeypatch.setattr(moments, "_pure_pass", lambda *args: "pure")
    monkeypatch.setattr(moments, "_array_pass", lambda *args: "array")
    # 5,040, 87,360, 171,360 and 2 cell-steps against 2^17
    cases = {("011010", 4, 24): "pure", ("0" * 12, 4, 48): "pure",
             ("0" * 14, 4, 56): "array", ("0", 1, 1): "pure"}
    assert moments._PURE_CELL_STEPS == 1 << 17
    for (x, r, steps), want in cases.items():
        assert _newton_coefficients.__wrapped__(x, r, steps) == want, (x, r, steps)


def test_moment_order_contract():
    for bad in (0, 5, -1):
        with pytest.raises(ValueError):
            exact_moment("01", 4, bad)
    with pytest.raises(ValueError):
        exact_moment("01", 1, 2)  # n < m
    # 240 steps over C(64,4) cells is beyond the cell-step bound
    with pytest.raises(CapacityError, match="cell-steps"):
        raw_moments("01" * 30, 1000, 4)


def test_exact_moment_set_consistency():
    ms = exact_moment_set("01", 4)
    assert ms.provenance == "exact"
    assert ms.mean == Fraction(3, 2)
    assert ms.central[2] == Fraction(62, 16) - Fraction(9, 4)
    assert ms.central[2] >= 0 and ms.central[4] >= 0


def _central_by_fractions(raw):
    """The central moments by the textbook Fraction formulas."""
    e1, e2, e3, e4 = raw
    return (
        e1,
        e2 - e1 * e1,
        e3 - 3 * e2 * e1 + 2 * e1**3,
        e4 - 4 * e3 * e1 + 6 * e2 * e1**2 - 3 * e1**4,
    )


def test_central_from_raw_matches_fraction_formulas():
    from delentropy import empirical_moments, sample_histogram

    # dyadic raw moments from the tensor DP, over one denominator 2^steps
    rng = random.Random(17)
    cases = [("0", 1), ("01", 4), ("0110", 4), ("1" * 9, 9), ("0110100110", 40)]
    cases += [("".join(rng.choice("01") for _ in range(m)), n)
              for m, n in ((3, 7), (5, 30), (12, 50), (20, 200))]
    for x, n in cases:
        raw = raw_moments(x, n, 4)
        got = moments.central_from_raw(raw)
        assert got == _central_by_fractions(raw), (x, n)
        assert all(type(v) is Fraction for v in got[1:])
        ms = exact_moment_set(x, n)
        assert (ms.mean, ms.central[2], ms.central[3], ms.central[4]) == got
    # non-dyadic raw moments of sampled histograms (sample sizes 3^k, 1000)
    for x, n, size, seed in (("01", 12, 243, 1), ("0110", 30, 1000, 2), ("011", 9, 7, 3)):
        hist = sample_histogram(x, n, size, seed)
        raw = [Fraction(sum(w**j * c for w, c in hist.counts.items()), size)
               for j in (1, 2, 3, 4)]
        assert any(r.denominator & (r.denominator - 1) for r in raw)
        ms = empirical_moments(hist)
        want = _central_by_fractions(raw)
        assert (ms.mean, ms.central[2], ms.central[3], ms.central[4]) == want
        assert moments.central_from_raw(raw) == want
    # ints, and denominators with no common factor
    for raw in ([3, 10, 36, 138], [Fraction(1, 3), Fraction(1, 2), 5, Fraction(7, 9)],
                [Fraction(-2, 5), Fraction(4, 7), Fraction(-1, 11), Fraction(13, 2)]):
        assert moments.central_from_raw(raw) == _central_by_fractions(raw)


# ---------------------------------------------------------------------------
# autocorrelation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "x,want",
    [("11111", 630), ("00000", 630), ("01010", 350), ("01", 4), ("0", 1), ("1", 1)],
)
def test_kappa_squared_values(x, want):
    assert kappa_squared(x) == want


def test_kappa_decomposition_m2():
    dec = kappa_decomposition("01")
    assert dec.interleavings == [[2, 1], [1, 2]]
    assert dec.symbol_mask == [[1, 0], [0, 1]]
    assert dec.masked == [[2, 0], [0, 2]]
    assert dec.kappa_squared == 4


def test_kappa_decomposition_constant_pattern():
    for m in (1, 3, 5):
        dec = kappa_decomposition("1" * m)
        assert all(all(v == 1 for v in row) for row in dec.symbol_mask)
        assert dec.masked == dec.interleavings
        assert dec.kappa_squared == kappa_max(m)
    # every row of M sums to C(2m-1, m) (Chu-Vandermonde), which kappa2's
    # closed form relies on
    for m in range(1, 41):
        want = math.comb(2 * m - 1, m)
        assert all(sum(row) == want for row in interleaving_matrix(m))


def test_symbol_mask_complement_invariant():
    for x in ("01101", "0010", "111000"):
        from delentropy import complement

        assert kappa_decomposition(x).symbol_mask == kappa_decomposition(
            complement(x)
        ).symbol_mask


@pytest.mark.parametrize("m,want", [(5, 630), (1, 1), (2, 6), (14, 280816200)])
def test_kappa_max_values(m, want):
    assert kappa_max(m) == want


def _masked_sum(x, tri):
    """kappa2 as the masked double sum of C(r+s, r) * C(2m-r-s-2, m-r-1),
    read off a Pascal triangle."""
    m = len(x)
    return sum(
        tri[r + s][r] * tri[2 * m - r - s - 2][m - r - 1]
        for r in range(m)
        for s in range(m)
        if x[r] == x[s]
    )


def test_kappa_squared_past_int64():
    # lengths 31..64, past the scans' int64 bound; kappa_max(32) > 2^63
    tri = oracles.pascal_triangle(127)
    rng = random.Random(64)
    for m in range(31, 65):
        xs = ["0" * m, "01" * (m // 2) + "0" * (m % 2), "1" + "0" * (m - 1)]
        xs += ["".join(rng.choice("01") for _ in range(m)) for _ in range(3)]
        for x in xs:
            assert kappa_squared(x) == _masked_sum(x, tri), x
    assert 2 * kappa_max(31) > 2**63 and kappa_max(32) > 2**63


def _kappa_by_generator(x):
    """kappa2 by the closed form over interleaving_matrix, summing b'Mb with a
    generator over the rare symbol's positions."""
    m = len(x)
    mat = interleaving_matrix(m)
    rare = "1" if x.count("1") <= m // 2 else "0"
    pos = [i for i, c in enumerate(x) if c == rare]
    cross = sum(mat[r][s] for r in pos for s in pos)
    return (m - 2 * len(pos)) * math.comb(2 * m - 1, m) + 2 * cross


def test_kappa_squared_every_pattern_to_m10():
    # each pattern against the interleavings counted one by one, tallied
    # by (r, s) so that m = 10 (923780 interleavings) stays quick
    from collections import Counter

    from delentropy import all_bitstrings

    for m in range(1, 11):
        lays = Counter(oracles.single_overlap_interleavings(m))
        for x in all_bitstrings(m):
            assert kappa_squared(x) == oracles.brute_kappa_squared(x, lays), x


def test_kappa_squared_few_rare_symbols_and_long_patterns():
    # no rare symbol (constants) and exactly one, where one index is picked,
    # at every m up to 70; then random patterns at m = 31 (past the scans'
    # int64 bound), at m = 34 and 35 (the last packed length and the first
    # unpacked one) and at m = 65 (past the table cache)
    assert moments._PACKED_M == 34
    assert math.comb(67, 34) < 2**64 <= math.comb(69, 35)
    for m in range(1, 71):
        xs = ["0" * m, "1" * m]
        for i in range(m):
            xs += ["0" * i + "1" + "0" * (m - 1 - i), "1" * i + "0" + "1" * (m - 1 - i)]
        for x in xs:
            assert kappa_squared(x) == _kappa_by_generator(x), x
        assert kappa_squared("0" * m) == kappa_max(m)
    rng = random.Random(65)
    for m in (31, 34, 35, 64, 65):
        for ones in (2, 3, m // 2, m // 2 + 1, m - 2):
            for _ in range(4):
                bits = ["0"] * m
                for i in rng.sample(range(m), ones):
                    bits[i] = "1"
                x = "".join(bits)
                assert kappa_squared(x) == _kappa_by_generator(x), x


def test_kappa_tables_are_not_shared():
    x = "0110100"
    k = kappa_squared(x)
    dec = kappa_decomposition(x)
    dec.interleavings[0][0] += 99
    dec.masked[1][1] = -5
    mat = interleaving_matrix(len(x))
    mat[2][3] = 0
    mat.append([1])
    assert kappa_squared(x) == k
    assert kappa_decomposition(x).interleavings == interleaving_matrix(len(x))
    assert interleaving_matrix(len(x)) != mat
    assert kappa_decomposition(x).kappa_squared == k


def test_kappa_cache_keeps_short_tables_only():
    from delentropy.moments import _interleaving_table

    size = _interleaving_table.cache_info().currsize
    x = "01" * 250
    assert kappa_squared(x) == _masked_sum(x, oracles.pascal_triangle(999))
    assert _interleaving_table.cache_info().currsize == size


def test_uncached_table_costed_before_it_is_built(monkeypatch):
    # past the cache, the table is refused on its bytes before any entry
    # is formed; at exactly its charge it is built as before
    from delentropy import cli, core

    m = moments._TABLE_CACHE + 1
    x = "0110" * 16 + "1"
    want = (kappa_squared(x), kappa_decomposition(x), interleaving_matrix(m))
    need = moments._table_bytes(m)

    def no_build(m):
        raise AssertionError("table built before its cost was checked")

    monkeypatch.setattr(core, "MAX_BYTES", need - 1)
    build = moments._interleaving_table.__wrapped__
    monkeypatch.setattr(moments._interleaving_table, "__wrapped__", no_build)
    for call in (lambda: kappa_squared(x), lambda: kappa_decomposition(x),
                 lambda: interleaving_matrix(m)):
        with pytest.raises(CapacityError, match=f"about {need} bytes"):
            call()
    assert cli.main(["kappa", x]) == 3
    # no rare symbol, or one, reads the diagonal without any table
    assert kappa_squared("0" * m) == kappa_max(m)
    one = "0" * 9 + "1" + "0" * (m - 10)
    assert kappa_squared(one) == _masked_sum(one, oracles.pascal_triangle(2 * m))
    monkeypatch.setattr(moments._interleaving_table, "__wrapped__", build)
    monkeypatch.setattr(core, "MAX_BYTES", need)
    assert (kappa_squared(x), kappa_decomposition(x), interleaving_matrix(m)) == want


@pytest.mark.parametrize("m", [65, 200])
def test_table_bytes_bound_the_build(m):
    import tracemalloc

    tracemalloc.start()
    try:
        moments._interleaving_table.__wrapped__(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= moments._table_bytes(m)


def test_kappa_rejects_empty():
    with pytest.raises(ValueError):
        kappa_squared("")
    with pytest.raises(ValueError):
        kappa_max(0)


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

def test_asymptotic_mean_example():
    assert asymptotic_mean(100, 2) == pytest.approx(1250.0)


def test_exact_over_asymptotic_mean_ratio():
    # C(100,2)/4 over 100^2/8
    ratio = float(exact_moment("01", 100, 1)) / asymptotic_mean(100, 2)
    assert ratio == pytest.approx(0.99, abs=1e-12)


def test_variance_coefficient_values():
    # signed interleaving counts, cross-checked against the exact variance
    # growth of the moment DP (see test_asymptotic_variance_is_the_limit)
    assert variance_coefficient(4, 2) == 2
    assert variance_coefficient(6, 2) == 6
    assert variance_coefficient(18, 3) == 6
    assert variance_coefficient(22, 3) == 14
    assert variance_coefficient(30, 3) == 30
    assert variance_coefficient(kappa_max(5), 5) == kappa_max(5)


def test_asymptotic_variance_values():
    assert asymptotic_variance(100, 2, 4) == pytest.approx(20833.333333, rel=1e-9)
    assert asymptotic_variance(100, 2, 6) == pytest.approx(62500.0)


def test_asymptotic_variance_is_the_limit():
    # the exact variance over the asymptotic one approaches 1, for a
    # non-constant pattern where the unsigned count would be off by 3x
    x = "010"
    k2 = kappa_squared(x)
    ratios = []
    for n in (40, 80, 160):
        e1, e2 = raw_moments(x, n, 2)
        exact_var = float(e2 - e1 * e1)
        ratios.append(exact_var / asymptotic_variance(n, 3, k2))
    assert abs(ratios[-1] - 1.0) < 1e-3
    assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)


def test_gaussian_limit_moments():
    ms = gaussian_limit_moments(100, 2, 4)
    assert ms.provenance == "asymptotic"
    assert ms.mean == pytest.approx(1250.0)
    assert ms.central[3] == 0.0
    assert ms.central[4] == 3 * Fraction(ms.central[2]) ** 2
    # at n = 10^6 a 30-bit variance fits a float but its square does not
    big = gaussian_limit_moments(10**6, 30, kappa_max(30))
    assert math.isfinite(big.central[2])
    assert big.central[4] == 3 * Fraction(big.central[2]) ** 2
    assert big.central[4] > 1e308


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_gaussian_diagnostics_bernoulli():
    diag = gaussian_diagnostics("0", 1)
    assert diag.skewness == pytest.approx(0.0)
    assert diag.excess_kurtosis == pytest.approx(-2.0)


def test_gaussian_diagnostics_trend():
    skew5 = gaussian_diagnostics("01", 5).skewness
    skew15 = gaussian_diagnostics("01", 15).skewness
    assert abs(skew15) < abs(skew5)


def test_gaussian_diagnostics_from_histogram_moments():
    from delentropy import empirical_moments, exact_histogram

    ms = empirical_moments(exact_histogram("01", 8))
    via_hist = gaussian_diagnostics("01", 8, moments=ms)
    direct = gaussian_diagnostics("01", 8)
    assert via_hist.skewness == pytest.approx(direct.skewness)
    assert via_hist.excess_kurtosis == pytest.approx(direct.excess_kurtosis)
    # a 30-bit limit at n = 10^6: variance^1.5 and mu4 pass 1.8e308
    wide = "011010011100101101000111010110"
    limit = gaussian_limit_moments(10**6, 30, kappa_squared(wide))
    diag = gaussian_diagnostics(wide, 10**6, moments=limit)
    assert math.isfinite(diag.skewness) and abs(diag.skewness) < 1e-12
    assert math.isfinite(diag.excess_kurtosis) and abs(diag.excess_kurtosis) < 1e-12


def test_gaussian_diagnostics_degenerate():
    flat = MomentSet(mean=Fraction(1), central={2: Fraction(0), 3: 0, 4: 0},
                     provenance="exact")
    with pytest.raises(DegenerateDistributionError):
        diagnostics_from_moments(flat, 4)


def test_normalized_moment_convergence():
    # third normalized moment shrinks toward 0, fourth rises toward 3
    norm3, norm4 = [], []
    for n in (8, 16, 32, 64):
        ms = exact_moment_set("01", n)
        v = float(ms.central[2])
        norm3.append(float(ms.central[3]) / v**1.5)
        norm4.append(float(ms.central[4]) / v**2)
    assert all(a > b for a, b in zip(norm3, norm3[1:]))
    assert all(abs(a - 3) > abs(b - 3) for a, b in zip(norm4, norm4[1:]))
    assert abs(norm3[-1]) < 1e-3
    assert abs(norm4[-1] - 3) < 0.1
