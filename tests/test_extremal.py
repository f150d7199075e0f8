import itertools

import numpy as np
import pytest

from delentropy import (
    all_bitstrings,
    check_entropy_min,
    complement,
    kappa_squared,
    ordering_table,
    reverse,
    search_kappa_min,
    verify_kappa_max,
)
from delentropy import cli, core, entropy, extremal
from delentropy.core import CapacityError
from delentropy.extremal import (
    ExtremalInvariantError,
    alternating_patterns,
    constant_patterns,
    kappa_blocks,
)
from delentropy.moments import kappa_max

import oracles


def test_verify_kappa_max_small():
    res = verify_kappa_max(1)
    assert res.value == 1 and res.witnesses == ["0", "1"]
    res = verify_kappa_max(2)
    assert res.value == 6 and res.witnesses == ["00", "11"]
    res = verify_kappa_max(5)
    assert res.value == 630 and res.witnesses == ["00000", "11111"]
    assert res.finding is None


def test_verify_kappa_max_raises_on_contradiction(monkeypatch):
    import delentropy.extremal as ex

    monkeypatch.setattr(ex, "kappa_max", lambda m: -1)
    with pytest.raises(ExtremalInvariantError):
        verify_kappa_max(3)


def test_search_kappa_min_small():
    res = search_kappa_min(5)
    assert res.value == 350 and res.witnesses == ["01010", "10101"]
    assert res.finding is None
    res = search_kappa_min(2)
    assert res.value == 4 and res.witnesses == ["01", "10"]
    res = search_kappa_min(1)
    assert res.value == 1 and res.witnesses == ["0", "1"]
    assert res.finding is None  # degenerate: max == min


def test_kappa_scans_match_direct_evaluation():
    for m in range(1, 11):
        kappas = {x: kappa_squared(x) for x in all_bitstrings(m)}
        hi, lo = max(kappas.values()), min(kappas.values())
        res = verify_kappa_max(m)
        assert res.value == hi
        assert res.witnesses == [x for x, k in kappas.items() if k == hi]
        res = search_kappa_min(m)
        assert res.value == lo
        assert res.witnesses == [x for x, k in kappas.items() if k == lo]


def _scan(m):
    blocks = list(kappa_blocks(m))
    patterns = np.concatenate([v for v, _ in blocks])
    assert (patterns == np.arange(1 << m)).all()
    return [len(v) for v, _ in blocks], np.concatenate([k for _, k in blocks])


def test_kappa_blocks_match_kappa_squared(monkeypatch):
    import delentropy.extremal as ex

    want = {
        m: np.array([kappa_squared(x) for x in all_bitstrings(m)])
        for m in range(1, 17)
    }
    for m, kappas in want.items():
        sizes, got = _scan(m)
        assert sizes == [1 << min(m, 13)] * (1 << max(0, m - 13))
        assert (got == kappas).all(), m
    # small blocks: every m > 3 crosses many high-bit blocks
    monkeypatch.setattr(ex, "_KAPPA_BLOCK", 1 << 3)
    for m, kappas in want.items():
        sizes, got = _scan(m)
        assert sizes == [1 << min(m, 3)] * (1 << max(0, m - 3))
        assert (got == kappas).all(), m


@pytest.mark.parametrize("bits", [1, 2, 4, 5])
def test_kappa_blocks_field_splits(monkeypatch, bits):
    # block = 2^bits (2^3 is above): bits = 1 leaves no middle field
    # (k1 = 0), m <= bits leaves no high field, and odd bits split unevenly
    # (k2 = k1 + 1)
    monkeypatch.setattr(extremal, "_KAPPA_BLOCK", 1 << bits)
    for m in range(1, 12):
        sizes, got = _scan(m)
        assert sizes == [1 << min(m, bits)] * (1 << max(0, m - bits))
        assert got.tolist() == [kappa_squared(x) for x in all_bitstrings(m)], m


def test_kappa_matches_interleaving_count(monkeypatch):
    # the oracle counts interleavings one by one; no interleaving table
    for bits in (13, 2):
        monkeypatch.setattr(extremal, "_KAPPA_BLOCK", 1 << bits)
        for m in range(1, 8):
            lays = oracles.single_overlap_interleavings(m)
            assert len(lays) == kappa_max(m)
            want = [oracles.brute_kappa_squared(x, lays) for x in all_bitstrings(m)]
            assert [kappa_squared(x) for x in all_bitstrings(m)] == want, m
            assert _scan(m)[1].tolist() == want, m


def test_kappa_extremes_m17_to_20_pinned():
    # values frozen from the per-block matvec scan this kernel replaced
    mins = {17: 10218366630, 18: 42004911960, 19: 172427570700, 20: 706905276000}
    for m, low in mins.items():
        res = search_kappa_min(m)
        assert (res.value, res.witnesses) == (low, alternating_patterns(m))
        res = verify_kappa_max(m)
        assert (res.value, res.witnesses) == (kappa_max(m), constant_patterns(m))
    assert verify_kappa_max(20).value == 1378465288200


def test_kappa_blocks_m30_first_blocks():
    # past the full scans of m <= 20, up to the largest admitted m = 30: the
    # first block is the table alone (h = 0) and the second adds the row
    # terms of h = 1
    rng = np.random.default_rng(30)
    for m in range(21, 31):
        (v0, k0), (v1, k1) = itertools.islice(kappa_blocks(m), 2)
        assert v0[0] == 0 and k0[0] == kappa_max(m)
        assert v1[0] == len(v0) == extremal._KAPPA_BLOCK
        for v, k in ((v0, k0), (v1, k1)):
            for i in rng.choice(len(v), 200, replace=False).tolist():
                assert k[i] == kappa_squared(format(int(v[i]), f"0{m}b")), m


def test_kappa_plan_built_once_per_length():
    # both scans and a bare block stream share one plan per (m, block size)
    extremal._kappa_plan.cache_clear()
    search_kappa_min(14)
    verify_kappa_max(14)
    next(kappa_blocks(14))
    info = extremal._kappa_plan.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_kappa_plan_arrays_read_only():
    # a caller cannot corrupt a later scan through the cached arrays, and
    # the blocks it is handed are its own
    next(kappa_blocks(20))
    for arr in extremal._kappa_plan(20, 13):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1
    patterns, block = next(kappa_blocks(20))
    patterns[0] = block[0] = -1
    patterns, block = next(kappa_blocks(20))
    assert (patterns[0], block[0]) == (0, kappa_max(20))


def test_scan_witnesses_match_bit_strings():
    # witnesses formatted from their ints read as bit_strings renders the
    # same values, at every m = 1..16, for both extremes
    from delentropy import embedding

    for m in range(1, 17):
        for largest in (True, False):
            best, wits = extremal._kappa_extreme(m, largest)
            values = np.concatenate([v[k == best] for v, k in kappa_blocks(m)])
            assert wits == embedding.bit_strings(values, m), (m, largest)
            if m <= 12:
                want = [x for x in all_bitstrings(m) if kappa_squared(x) == best]
                assert wits == want, (m, largest)


def test_search_kappa_min_memory():
    # blocks of 2^13 int64 patterns: a few 64 KiB arrays live at once,
    # never one over all 2^22 patterns (32 MiB) or all high fields
    import tracemalloc

    search_kappa_min(12)
    tracemalloc.start()
    try:
        res = search_kappa_min(22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.witnesses == alternating_patterns(22)
    assert peak < 1 << 20


def test_search_workers_match_serial():
    assert search_kappa_min(8, workers=4) == search_kappa_min(8)


def test_search_kappa_min_m14_value():
    # frozen from an independent exhaustive scan
    res = search_kappa_min(14)
    assert res.value == 145608400
    assert res.witnesses == ["01010101010101", "10101010101010"]


def test_witness_sets_closed_under_symmetries():
    for m in range(1, 13):
        for res in (verify_kappa_max(m), search_kappa_min(m)):
            wits = set(res.witnesses)
            assert {complement(w) for w in wits} == wits
            assert {reverse(w) for w in wits} == wits


def test_expected_pattern_helpers():
    assert constant_patterns(3) == ["000", "111"]
    assert alternating_patterns(4) == ["0101", "1010"]
    assert alternating_patterns(1) == ["0", "1"]


def test_finding_payload():
    res = search_kappa_min(6)
    tampered = type(res)(
        criterion=res.criterion,
        m=res.m,
        value=res.value,
        witnesses=["000111"],
        expected=res.expected,
    )
    assert tampered.finding is not None
    assert tampered.finding["expected"] == alternating_patterns(6)


# ---------------------------------------------------------------------------
# ordering table
# ---------------------------------------------------------------------------

def test_ordering_table_shape():
    table = ordering_table(8, 5)
    assert len(table.rows) == 32
    kappas = [k for _, k, _ in table.rows]
    assert kappas == sorted(kappas, reverse=True)
    # ties broken lexicographically
    for (xa, ka, _), (xb, kb, _) in zip(table.rows, table.rows[1:]):
        if ka == kb:
            assert xa < xb
    patterns = {x for x, _, _ in table.rows}
    assert len(patterns) == 32


def test_ordering_table_reference_rows():
    table = ordering_table(8, 5)
    by_pattern = {x: (k, h) for x, k, h in table.rows}
    for x, k, h_lo in [
        ("11111", 630, 5.4649),
        ("00000", 630, 5.4649),
        ("00001", 518, 5.7581),
        ("11000", 486, 5.8838),
        ("00010", 458, 6.0132),
        ("10011", 398, 6.1076),
        ("01101", 366, 6.2375),
        ("01010", 350, 6.3498),
    ]:
        got_k, got_h = by_pattern[x]
        assert got_k == k
        assert h_lo - 1e-9 <= got_h < h_lo + 1e-4


def test_ordering_violations_at_n8_m5():
    # the printed reference rows order perfectly, but the full 32-pattern
    # table does not: kappa2 ties across distinct symmetry orbits carry
    # different entropies, and at least one strict pair inverts
    table = ordering_table(8, 5)
    assert not table.ordering_ok
    kinds = {v["kind"] for v in table.violations}
    assert kinds == {"tie-mismatch", "ordering"}
    ties = [v for v in table.violations if v["kind"] == "tie-mismatch"]
    assert [v["kappa2"] for v in ties] == [398]
    strict = [v for v in table.violations if v["kind"] == "ordering"]
    assert {(v["pattern_high"], v["pattern_low"]) for v in strict} == {
        ("00100", "01110"),
        ("00100", "10001"),
        ("11011", "01110"),
        ("11011", "10001"),
    }


def test_ordering_table_clean_at_small_m():
    # every strict pair ordered and every tie an exact symmetry orbit
    for n, m in [(6, 2), (7, 3), (8, 4)]:
        assert ordering_table(n, m).ordering_ok


def test_ordering_table_degenerate_n_equals_m():
    table = ordering_table(3, 3)
    assert len(table.rows) == 8
    assert all(h == 0.0 for _, _, h in table.rows)
    # all entropies tie at 0, so strict kappa pairs cannot order
    assert not table.ordering_ok


def _ranked(rows):
    return sorted(rows, key=lambda row: (-row[1], row[0]))


def test_ordering_violations_match_all_pairs_on_random_rows():
    # few kappa2 values and few H values: ties within groups, exactly equal
    # H across groups, and inversions all occur
    rng = np.random.default_rng(10)
    for _ in range(300):
        size = int(rng.integers(1, 48))
        patterns = [format(int(v), "06b") for v in rng.permutation(64)[:size]]
        kappas = rng.integers(0, int(rng.integers(1, 8)), size).tolist()
        hs = rng.choice([0.0, 0.25, 0.5, 1.0, 2.5], size).tolist()
        rows = _ranked(zip(patterns, kappas, hs))
        assert extremal._ordering_violations(rows) == oracles.brute_ordering_violations(rows)


def test_ordering_violations_match_all_pairs_on_edge_rows():
    ordered = [("a", 9, 0.5), ("b", 7, 1.0), ("c", 7, 1.0), ("d", 2, 3.0)]
    one_group = [("a", 4, 1.0), ("b", 4, 1.0), ("c", 4, 2.0)]
    equal_across = [("a", 9, 1.0), ("b", 8, 1.0), ("c", 7, 1.0)]
    for rows in (ordered, one_group, equal_across, ordered[:1]):
        assert extremal._ordering_violations(rows) == oracles.brute_ordering_violations(rows)
    assert extremal._ordering_violations(ordered) == []
    assert [v["kind"] for v in extremal._ordering_violations(one_group)] == ["tie-mismatch"]
    assert len(extremal._ordering_violations(equal_across)) == 3


def test_ordering_violations_match_all_pairs_on_real_tables(monkeypatch):
    # the findings are counted exactly before they are formed: at a bound
    # of exactly their charge the list comes back, one byte below it the
    # count is named in the refusal
    for m in range(1, 9):
        for n in (m, m + 2, m + 4):
            table = ordering_table(n, m)
            assert table.violations == oracles.brute_ordering_violations(table.rows)
            charge = len(table.violations) * extremal._FINDING_BYTES
            with monkeypatch.context() as patch:
                patch.setattr(core, "MAX_BYTES", charge)
                assert extremal._ordering_violations(table.rows) == table.violations
                if table.violations:
                    patch.setattr(core, "MAX_BYTES", charge - 1)
                    with pytest.raises(CapacityError,
                                       match=f" {len(table.violations)} findings"):
                        extremal._ordering_violations(table.rows)


def test_ties_are_decided_exactly(monkeypatch):
    # one ulp apart is not a tie: equal histograms give bit-identical floats
    h = 2.0
    ulp = float(np.nextafter(h, 3.0))
    rows = [("00", 6, h), ("11", 6, ulp), ("01", 2, 3.0)]
    (tie,) = extremal._ordering_violations(rows)
    assert tie["kind"] == "tie-mismatch" and tie["H_spread"] == ulp - h
    monkeypatch.setattr(
        extremal, "_entropy_rows", lambda n, m, guard: [("00", h), ("01", ulp), ("11", h)]
    )
    (res,) = check_entropy_min(2, [4])
    assert res.value == h and res.witnesses == ["00", "11"]


def test_ordering_table_workers_match_serial():
    assert ordering_table(8, 4, workers=4) == ordering_table(8, 4)


# ---------------------------------------------------------------------------
# entropy minimization scan
# ---------------------------------------------------------------------------

def test_entropy_min_m5_n8():
    (res,) = check_entropy_min(5, [8])
    assert res.witnesses == ["00000", "11111"]
    assert 5.4649 <= res.value < 5.4650
    assert res.finding is None


def test_entropy_min_m3_sweep():
    for res in check_entropy_min(3, range(4, 9)):
        assert res.witnesses == ["000", "111"]
        assert res.finding is None


def test_entropy_rows_equal_per_pattern_entropies():
    from delentropy import shannon_entropy

    for m in range(1, 8):
        for n in range(m, 14):
            want = [(x, shannon_entropy(x, n)) for x in all_bitstrings(m)]
            assert extremal._entropy_rows(n, m, None) == want


def test_one_histogram_per_orbit(monkeypatch):
    # 20 orbits of {x, ~x, rev x, ~rev x} at m = 6, 6 at m = 4
    from delentropy import distribution
    from delentropy.core import orbit_representative

    seen = []
    real = distribution.exact_histogram

    def counting(x, n, **kwargs):
        seen.append((x, n))
        return real(x, n, **kwargs)

    monkeypatch.setattr(distribution, "exact_histogram", counting)
    ordering_table(11, 6)
    assert len(seen) == len(set(seen)) == 20
    assert all(orbit_representative(x) == x for x, _ in seen)
    seen.clear()
    check_entropy_min(4, range(8, 13))
    assert sorted(seen) == sorted(
        (x, n) for n in range(8, 13) for x in ("0000", "0001", "0010", "0011", "0101", "0110")
    )


def test_entropy_min_guard_before_work(monkeypatch):
    def no_entropy(*args, **kwargs):
        raise AssertionError("entropy computed before the guard refusal")

    monkeypatch.setattr(entropy, "shannon_entropy", no_entropy)
    with pytest.raises(CapacityError, match="2\\^33 texts"):
        check_entropy_min(3, range(8, 34))
    # then the lengths on its smallest n, wherever it sits
    for ns in ([12, 3], range(12, 2, -1)):
        with pytest.raises(ValueError, match="text length 3 shorter than pattern length 4"):
            check_entropy_min(4, ns)
    argv = ["extremal", "--criterion", "entropy-min", "4", "--n-range", "2..40"]
    assert cli.main(argv) == 3
    # a range is refused on its endpoints, never materialized
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="2\\^1000000000000 texts"):
            check_entropy_min(4, range(8, 10**12 + 1))
        with pytest.raises(CapacityError, match="2\\^31 texts"):
            check_entropy_min(4, range(31, 7, -1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_entropy_min_degenerate_all_tie():
    (res,) = check_entropy_min(3, [3])
    assert res.value == 0.0
    assert len(res.witnesses) == 8  # every pattern ties at zero entropy
    assert res.finding is not None  # reported, not asserted
