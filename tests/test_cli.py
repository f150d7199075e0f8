import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from delentropy import (
    asymptotic_variance,
    check_entropy_min,
    cli,
    core,
    distribution,
    entropy,
    entropy_report,
    exact_histogram,
    exact_moment,
    exact_moment_set,
    extremal,
    gaussian_diagnostics,
    kappa_decomposition,
    kappa_max,
    kappa_squared,
    min_entropy,
    moment_entropy_estimate,
    moments,
    ordering_table,
    posterior,
    renyi2_entropy,
    sample_histogram,
    search_kappa_min,
    total_masks,
    verify_kappa_max,
)
from delentropy.cli import _parse_n_range, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_n_range():
    assert _parse_n_range("8") == range(8, 9)
    assert _parse_n_range("5..8") == range(5, 9)
    assert list(_parse_n_range("5..8")) == [5, 6, 7, 8]
    with pytest.raises(ValueError):
        _parse_n_range("9..5")
    with pytest.raises(ValueError):
        _parse_n_range("abc")


def test_kappa_single(capsys):
    code, out, _ = run(capsys, "kappa", "11111")
    assert code == 0
    assert out == "pattern,kappa2\n11111,630\n"


def test_kappa_all(capsys):
    code, out, _ = run(capsys, "kappa", "--all", "2")
    assert code == 0
    assert out.splitlines() == ["pattern,kappa2", "00,6", "01,4", "10,4", "11,6"]
    code, out, _ = run(capsys, "kappa", "--all", "7")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert code == 0 and len(rows) == 128
    assert rows == [[format(v, "07b"), str(kappa_squared(format(v, "07b")))]
                    for v in range(128)]


def test_kappa_all_json_lines(capsys):
    # blocks of 2^13 patterns: m = 14 renders two chunks
    for m in (3, 14):
        code, out, _ = run(capsys, "kappa", "--all", str(m), "--format", "json")
        assert code == 0
        assert out == "".join(
            json.dumps({"pattern": format(v, f"0{m}b"),
                        "kappa2": kappa_squared(format(v, f"0{m}b"))}) + "\n"
            for v in range(1 << m)
        )


def test_kappa_usage_errors(capsys):
    code, _, err = run(capsys, "kappa")
    assert code == 2 and "usage error" in err
    code, _, err = run(capsys, "kappa", "01", "--all", "3")
    assert code == 2


def test_kappa_decomposition(capsys):
    code, out, _ = run(capsys, "kappa", "01", "--decomposition")
    assert code == 0
    assert out == "# B\n1,0\n0,1\n# M\n2,1\n1,2\n# R\n2,0\n0,2\n# kappa2=4\n"
    code, out, _ = run(capsys, "kappa", "0110", "--decomposition", "--format", "json")
    dec = kappa_decomposition("0110")
    assert code == 0
    assert out == json.dumps({
        "pattern": "0110", "m": dec.m, "kappa2": dec.kappa_squared,
        "B": dec.symbol_mask, "M": dec.interleavings, "R": dec.masked,
    }) + "\n"
    code, out, err = run(capsys, "kappa", "--all", "3", "--decomposition")
    assert (code, out) == (2, "")
    assert err == "usage error: --decomposition needs a single pattern\n"


def test_csv_json_equivalence(capsys):
    _, csv_out, _ = run(capsys, "entropy", "01010", "8")
    _, json_out, _ = run(capsys, "entropy", "01010", "8", "--format", "json")
    csv_header, csv_row = csv_out.splitlines()
    obj = json.loads(json_out)
    row = dict(zip(csv_header.split(","), csv_row.split(",")))
    assert obj["pattern"] == row["pattern"] == "01010"
    assert obj["H"] == float(row["H"])
    assert obj["R"] == float(row["R"])
    assert obj["Hmin"] == float(row["Hmin"])
    assert obj["mode"] == row["mode"] == "exact"


def test_entropy_reference_value(capsys):
    code, out, _ = run(capsys, "entropy", "01010", "8")
    assert code == 0
    assert out.splitlines()[1].split(",")[2] == "6.3498"


def test_entropy_point_mass(capsys):
    code, out, _ = run(capsys, "entropy", "0", "1")
    assert code == 0
    assert out.splitlines()[1] == "0,1,0.0000,0.0000,0.0000,exact"


def test_hist_single_cell(capsys):
    code, out, _ = run(capsys, "hist", "0", "1")
    assert code == 0
    assert out.splitlines()[1:3] == ["0,1", "1,1"]


def test_extremal_kappa_min_m6(capsys):
    code, out, _ = run(capsys, "extremal", "--criterion", "kappa-min", "6")
    assert code == 0
    assert "010101;101010" in out


def test_entropy_modes(capsys):
    code, out, _ = run(capsys, "entropy", "01", "12", "--mode", "estimate")
    assert code == 0
    header, row = out.splitlines()
    assert header == "pattern,n,estimate,bound,moments"
    fields = row.split(",")
    assert fields[-1] == "exact"
    assert float(fields[3]) >= 0
    code, out, _ = run(capsys, "entropy", "01", "64", "--mode", "renyi2")
    assert code == 0  # no guard on the moment path
    code, _, err = run(capsys, "entropy", "01", "64", "--mode", "exact")
    assert code == 3 and "capacity" in err
    # the order-2 tensor of a 60-bit pattern stays within the moment bound
    wide = "011010011100101101000111010110010011101100010110100111001010"
    code, out, err = run(capsys, "entropy", wide, "1000", "--mode", "renyi2")
    assert code == 0, err
    assert out.startswith(f"pattern,n,R\n{wide},1000,")
    # n = 10^11 forms no n-bit int, so it is answered, not out of memory
    code, out, err = run(capsys, "entropy", "01", "100000000000", "--mode", "renyi2")
    assert code == 0 and err == ""
    assert out.startswith("pattern,n,R\n01,100000000000,")


def test_estimate_at_huge_n_in_a_bounded_child():
    # n = 10^11 would need a 12.5 GB total as an int; in a child under a
    # 3 GiB address-space limit it is answered, not out of memory
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "delentropy.cli", "entropy", "01", "100000000000",
         "--mode", "estimate"],
        capture_output=True, text=True, env=_module_env(), preexec_fn=limit, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[1].startswith("01,100000000000,")


def test_full_precision_flag(capsys):
    _, short, _ = run(capsys, "entropy", "0", "2")
    _, full, _ = run(capsys, "entropy", "0", "2", "--full-precision")
    assert "1.5000" in short
    assert "1.5," in full  # repr(1.5) == '1.5'


def test_hist_exact(capsys):
    code, out, _ = run(capsys, "hist", "01", "2")
    assert code == 0
    assert out == "omega,count\n0,3\n1,1\n# mode=exact\n# n=2\n# pattern=01\n"


def test_hist_sampled_footer(capsys):
    code, out, _ = run(capsys, "hist", "01", "10", "--sample", "100", "--seed", "9")
    assert code == 0
    assert "# mode=sampled" in out and "# seed=9" in out
    code, _, err = run(capsys, "hist", "01", "10", "--sample", "100")
    assert code == 2  # seed required with sample


def test_hist_range_writes_files(tmp_path, capsys):
    code, _, _ = run(capsys, "hist", "01", "5..7", "--out", str(tmp_path))
    assert code == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["hist_01_n05.csv", "hist_01_n06.csv", "hist_01_n07.csv"]
    body = (tmp_path / "hist_01_n05.csv").read_text()
    assert body.startswith("omega,count\n")
    assert body.endswith("# mode=exact\n# n=5\n# pattern=01\n")


def test_range_refused_before_work(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the guard refusal")

    monkeypatch.setattr(distribution, "exact_histogram", no_work)
    monkeypatch.setattr(entropy, "shannon_entropy", no_work)
    dest = tmp_path / "d"
    code, _, err = run(capsys, "hist", "01", "5..8", "--guard", "6", "--out", str(dest))
    assert code == 3 and err.startswith("capacity error:") and "(6)" in err
    assert not dest.exists()
    code, _, err = run(capsys, "extremal", "--criterion", "entropy-min", "3",
                       "--n-range", "8..33", "--out", str(dest))
    assert code == 3 and "2^33" in err
    assert not dest.exists()


def test_huge_range_refused_at_once(tmp_path, capsys):
    # the range is refused on its largest n without being listed
    import tracemalloc

    dest = tmp_path / "d"
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "hist", "01", "5..1000000000000", "--out", str(dest))
        assert code == 3 and err.startswith("capacity error:") and "2^1000000000000" in err
        code, _, err = run(capsys, "extremal", "--criterion", "entropy-min", "4",
                           "--n-range", "8..1000000000000", "--out", str(dest))
        assert code == 3 and err.startswith("capacity error:") and "2^1000000000000" in err
        code, _, err = run(capsys, "gaussian", "01", "5..1000000000000", "--out", str(dest))
        assert code == 3 and err.startswith("capacity error:")
        assert "cell-steps" in err and "134217728" in err
        code, _, err = run(capsys, "hist", "01", "5..1000000000000", "--sample", "10",
                           "--seed", "1", "--out", str(dest))
        assert code == 3 and err.startswith("capacity error:") and "bytes" in err
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not dest.exists()
    assert peak < 1 << 20


def test_hist_range_takes_one_form(tmp_path, capsys, monkeypatch):
    # an exact range chooses its form once, on the sum of its 2^n, before
    # its first file: 10..17 holds 260,096 texts, so numpy is loaded first
    # and every n takes the array form; 5..15 holds 65,504, so every n is
    # pure and numpy is never loaded.  Loading numpy puts this process's
    # module back, so it is not imported again
    from delentropy import embedding

    for ns in ("10..17", "5..15"):
        assert run(capsys, "hist", "0110", ns, "--out", str(tmp_path / "want"))[0] == 0
    want = {path.name: path.read_text() for path in (tmp_path / "want").iterdir()}
    real, forms = sys.modules["numpy"], []
    monkeypatch.delitem(sys.modules, "numpy")
    monkeypatch.setattr(embedding, "_load_numpy", lambda: sys.modules.__setitem__("numpy", real))

    def recording(name):
        tally = getattr(distribution, name)
        return lambda x, n, *rest: forms.append((name, n)) or tally(x, n, *rest)

    for name in ("_pure_tally", "_array_tally"):
        monkeypatch.setattr(distribution, name, recording(name))
    for ns, form, loaded in (("5..15", "_pure_tally", False), ("10..17", "_array_tally", True)):
        forms.clear()
        assert run(capsys, "hist", "0110", ns, "--out", str(tmp_path / "got"))[0] == 0
        assert forms == [(form, n) for n in _parse_n_range(ns)]
        assert ("numpy" in sys.modules) == loaded
    got = {path.name: path.read_text() for path in (tmp_path / "got").iterdir()}
    assert got == want and len(got) == 13


def test_hist_range_needs_out(capsys):
    code, _, err = run(capsys, "hist", "01", "5..7")
    assert code == 2 and "needs --out" in err


def test_table_reports_findings(capsys):
    code, out, err = run(capsys, "table", "8", "5")
    assert code == 4
    assert out.splitlines()[0] == "pattern,kappa2,H_bits"
    assert len(out.splitlines()) == 33
    assert "tie-mismatch" in err and "ordering" in err


def test_table_clean_exit(capsys):
    code, out, _ = run(capsys, "table", "8", "4")
    assert code == 0
    assert len(out.splitlines()) == 17


def test_extremal_kappa_commands(capsys):
    code, out, _ = run(capsys, "extremal", "--criterion", "kappa-max", "5")
    assert code == 0
    assert "00000;11111" in out and "630" in out
    code, out, _ = run(
        capsys, "extremal", "--criterion", "kappa-min", "5", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["witnesses"] == ["01010", "10101"]
    assert obj["value"] == 350
    assert obj["violations"] == []


def test_extremal_entropy_min(capsys):
    code, out, _ = run(
        capsys, "extremal", "--criterion", "entropy-min", "3", "--n-range", "4..5"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("entropy-min,3,4,")
    code, _, err = run(capsys, "extremal", "--criterion", "entropy-min", "3")
    assert code == 2  # n-range required


@pytest.mark.parametrize("criterion", ["kappa-max", "kappa-min"])
def test_n_range_applies_to_entropy_min_only(criterion, capsys):
    # given with a kappa2 criterion, --n-range is a usage error, not ignored
    code, out, err = run(capsys, "extremal", "--criterion", criterion, "14", "--n-range", "5")
    assert (code, out) == (2, "")
    assert err == "usage error: --n-range applies to --criterion entropy-min only\n"


def test_extremal_finding_exit_code(capsys, monkeypatch):
    from delentropy.extremal import ExtremalResult

    fake = ExtremalResult(
        criterion="kappa-min", m=4, value=99, witnesses=["0011"],
        expected=["0101", "1010"],
    )
    monkeypatch.setattr(extremal, "search_kappa_min", lambda m, workers: fake)
    code, _, err = run(capsys, "extremal", "--criterion", "kappa-min", "4")
    assert code == 4
    assert "finding" in err


def test_internal_error_exit(capsys, monkeypatch):
    # a contradicted proved statement exits 1 with a message, not a traceback
    monkeypatch.setattr(extremal, "kappa_max", lambda m: -1)
    code, out, err = run(capsys, "extremal", "--criterion", "kappa-max", "3")
    assert (code, out) == (1, "")
    assert err.startswith("internal error: autocorrelation maximum scan at m=3")
    assert "Traceback" not in err


def test_moments_exact(capsys):
    code, out, _ = run(capsys, "moments", "01", "4", "--r", "2")
    assert code == 0
    assert out.splitlines()[1] == "01,4,2,31,8,exact"


def test_moments_asymptotic(capsys):
    code, out, _ = run(
        capsys, "moments", "01", "100", "--r", "2", "--mode", "asymptotic"
    )
    assert code == 0
    assert out.splitlines()[1] == "01,100,2,20833.3333,asymptotic"
    code, _, err = run(
        capsys, "moments", "01", "100", "--r", "3", "--mode", "asymptotic"
    )
    assert code == 2
    # at n = 10^6, n^m and n^(2m-1) overflow a float but these ratios do not
    wide = "011010011100101101000111010110010011101100010110100111001010"
    mean = Fraction(10**360, 2**60 * math.factorial(60))
    coeff = 2 * kappa_squared(wide[:30]) - kappa_max(30)
    var = Fraction(coeff * 10**354, 2**60 * math.factorial(59))
    for x, r, want in [(wide, 1, mean), (wide[:30], 2, var)]:
        code, out, err = run(
            capsys, "moments", x, "1000000", "--r", str(r), "--mode", "asymptotic"
        )
        assert code == 0, err
        assert float(out.splitlines()[1].split(",")[3]) == float(want)
    # the 60-bit variance, near 10^517, is refused without a traceback
    code, _, err = run(
        capsys, "moments", wide, "1000000", "--r", "2", "--mode", "asymptotic"
    )
    assert code == 3 and err.startswith("capacity error:")
    assert "float range" in err and "Traceback" not in err


def test_gaussian_series(capsys):
    code, out, _ = run(capsys, "gaussian", "01", "5..7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "pattern,n,skewness,excess_kurtosis"
    assert len(lines) == 4


def test_posterior_output(capsys):
    code, out, _ = run(capsys, "posterior", "0", "2")
    assert code == 0
    assert out == "y,omega\n00,2\n01,1\n10,1\n# mu=4\n"


def test_posterior_streams_entries(tmp_path, capsys):
    # "0" at n = 16 has 65535 rows: four blocks of the row stream
    for x, n in (("0", 16), ("0110", 9)):
        dist = posterior(x, n)
        want = {
            "csv": "y,omega\n"
            + "".join(f"{y},{w}\n" for y, w in dist.entries.items())
            + f"# mu={dist.normalizer}\n",
            "json": "".join(
                json.dumps({"y": y, "omega": w}) + "\n" for y, w in dist.entries.items()
            )
            + json.dumps({"mu": dist.normalizer})
            + "\n",
        }
        for fmt, text in want.items():
            code, out, _ = run(capsys, "posterior", x, str(n), "--format", fmt)
            assert code == 0 and out == text
            dest = tmp_path / f"{x}-{fmt}.txt"
            code, out, _ = run(capsys, "posterior", x, str(n), "--format", fmt,
                               "--out", str(dest))
            assert code == 0 and out == "" and dest.read_text() == text
    # a refusal comes before the first block, so no file is left behind
    dest = tmp_path / "refused" / "rows.csv"
    code, _, err = run(capsys, "posterior", "0", "31", "--out", str(dest))
    assert code == 3 and err.startswith("capacity error:")
    assert not dest.parent.exists()


def test_capacity_exit(capsys):
    wide = "011010011100101101000111010110010011101100010110100111001010"
    for argv, bound in [
        (["posterior", "0", "33"], "30"),
        (["hist", "01", "63", "--guard", "100"], "62"),  # int64, whatever the guard
        (["extremal", "--criterion", "kappa-min", "31"], "30"),
        (["extremal", "--criterion", "kappa-max", "31"], "30"),
        (["kappa", "--all", "31"], "30"),
        # order-4 moment tensors of a 60-bit pattern: 240 steps over C(64,4) cells
        (["moments", wide, "1000", "--r", "4"], "134217728"),
        (["entropy", wide, "1000", "--mode", "estimate"], "134217728"),
        (["gaussian", wide, "1000"], "134217728"),
        # the 240-step full pass does not fit, so each n runs its own pass
        # and their steps are summed: 19910 steps over C(64, 4) cells
        (["gaussian", wide, "5..200"], "134217728"),
        # one 12-step pass, then 4 * 12 products for each of ~10^9 n
        (["gaussian", "011", "10..1000000000"], "134217728"),
        (["table", "20", "17"], "2^17 patterns"),
        (["extremal", "--criterion", "entropy-min", "24", "--n-range", "24"],
         "2^24 patterns refused: m <= 16"),
        # uint8 symbol rows and int64 half tables of 2 * 2^31 half-texts,
        # (31 + 8 (m + 1)) * 2^31 bytes for the first half and
        # (31 + 12 (m + 1)) * 2^31 for the second, costed before any is built
        (["table", "62", "2", "--guard", "100"], "261993005056 bytes"),
        (["hist", "01", "62", "--guard", "100"], "261993005056 bytes"),
        (["posterior", "0", "62", "--guard", "100"], "219043332096 bytes"),
    ]:
        code, _, err = run(capsys, *argv)
        assert code == 3 and err.startswith("capacity error:")
        assert bound in err and "Traceback" not in err


def test_ordering_findings_charged_before_forming(capsys, monkeypatch):
    # table 8 8 has 32272 findings; one byte below their charge
    # ordering_table refuses them before any finding or row is written, and
    # at the charge they are all reported
    from delentropy import core, extremal

    charge = 32272 * extremal._FINDING_BYTES
    monkeypatch.setattr(core, "MAX_BYTES", charge - 1)
    code, out, err = run(capsys, "table", "8", "8")
    assert code == 3 and out == "" and err.count("\n") == 1
    assert err.startswith("capacity error:") and "32272 findings" in err
    assert f"needs about {charge} bytes" in err
    monkeypatch.setattr(core, "MAX_BYTES", charge)
    code, out, err = run(capsys, "table", "8", "8")
    assert code == 4 and err.count("finding: ") == 32272


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    # --out below, or as, a regular file: one usage error naming the path,
    # exit 2, and no file created
    afile = tmp_path / "afile"
    afile.write_text("")
    for argv, path in [
        (["hist", "01", "5", "--out", str(afile / "x.csv")], afile / "x.csv"),
        (["hist", "01", "5..6", "--out", str(afile)], afile / "hist_01_n05.csv"),
        (["repro", "--out", str(afile)], afile / "table_n8_m5.csv"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert f"cannot write {path}: " in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]
        assert afile.read_text() == ""


def _half_table_bytes(n, m):
    """The bytes of the half tables of an enumeration over 2^n texts."""
    h, k = n // 2, n - n // 2
    return ((h + 8 * (m + 1)) << h) + ((k + 12 * (m + 1)) << k)


def test_exact_range_refused_on_table_bytes(tmp_path, capsys, monkeypatch):
    # with the byte bound at the cost of n = 11, a range reaching n = 14 is
    # refused on n = 14, with its per-n message, before any file or entropy
    from delentropy import core

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the byte refusal")

    monkeypatch.setattr(core, "MAX_BYTES", _half_table_bytes(11, 2))
    monkeypatch.setattr(distribution, "exact_histogram", no_work)
    monkeypatch.setattr(entropy, "shannon_entropy", no_work)
    monkeypatch.setattr(extremal, "kappa_blocks", no_work)
    need = f"about {_half_table_bytes(14, 2)} bytes"
    dest = tmp_path / "d"
    for argv in (
        ["hist", "01", "8..14", "--out", str(dest)],
        ["extremal", "--criterion", "entropy-min", "2", "--n-range", "8..14",
         "--out", str(dest)],
        ["table", "14", "2", "--out", str(dest)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and err.startswith("capacity error:"), argv
        assert "2^14 texts" in err and need in err and "Traceback" not in err
        assert not dest.exists()
    monkeypatch.undo()
    # n = 11 itself is admitted at that bound
    monkeypatch.setattr(core, "MAX_BYTES", _half_table_bytes(11, 2))
    code, _, _ = run(capsys, "hist", "01", "8..11", "--out", str(dest))
    assert code == 0 and len(list(dest.iterdir())) == 4


def test_memory_error_exits_capacity(tmp_path, capsys, monkeypatch):
    # an escaped MemoryError is a capacity error naming the subcommand, with
    # no traceback and no file, not exit 1
    def out_of_memory(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_hist", out_of_memory)
    dest = tmp_path / "h.csv"
    code, out, err = run(capsys, "hist", "01", "5", "--out", str(dest))
    assert code == 3 and out == ""
    assert err == "capacity error: hist ran out of memory\n"
    assert not dest.exists()

    # a MemoryError after the first chunk removes the partial file
    def half_written(args):
        def chunks():
            yield "pattern,kappa2\n"
            raise MemoryError

        cli._write(args, chunks())

    monkeypatch.setattr(cli, "_cmd_kappa", half_written)
    code, out, err = run(capsys, "kappa", "01", "--out", str(dest))
    assert code == 3 and err == "capacity error: kappa ran out of memory\n"
    assert not dest.exists()


def test_half_table_refusal_allocates_nothing(capsys):
    import tracemalloc

    tracemalloc.start()
    try:
        code, _, err = run(capsys, "table", "62", "2", "--guard", "100")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and "bytes" in err
    assert peak < 1 << 20


def test_gaussian_range_reuses_one_pass(capsys):
    moments._newton_coefficients.cache_clear()
    code, out, _ = run(capsys, "gaussian", "0110100110", "10..24")
    assert code == 0 and len(out.splitlines()) == 16
    assert moments._newton_coefficients.cache_info().misses == 1


def test_gaussian_range_costed_as_one_pass(capsys):
    # 1937 n of a 16-bit pattern: summed per-n passes would be 123968 steps
    # over C(20, 4) cells, but one 64-step pass plus the evaluations fits
    x = "0110100111001011"
    code, out, err = run(capsys, "gaussian", x, "64..2000")
    assert code == 0, err
    moments._newton_coefficients.cache_clear()
    rows = [(x, n, d.skewness, d.excess_kurtosis)
            for n in range(64, 2001) for d in [gaussian_diagnostics(x, n)]]
    header = ["pattern", "n", "skewness", "excess_kurtosis"]
    assert out == _reference_text("csv", False, header, rows, {})


def test_gaussian_range_costed_as_summed_passes(capsys, monkeypatch):
    # with the full 28-step pass over C(11, 4) = 330 cells (9240 cell-steps)
    # above the bound, n = 7..9 fit as their own passes: 24 steps, 7920
    x = "0110100"
    rows = [(x, n, d.skewness, d.excess_kurtosis)
            for n in range(7, 10) for d in [gaussian_diagnostics(x, n)]]
    monkeypatch.setattr(moments, "_MOMENT_CELL_STEPS", 8000)
    moments._newton_coefficients.cache_clear()
    code, out, err = run(capsys, "gaussian", x, "7..9")
    assert code == 0, err
    header = ["pattern", "n", "skewness", "excess_kurtosis"]
    assert out == _reference_text("csv", False, header, rows, {})
    assert moments._newton_coefficients.cache_info().misses == 3


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "table", "8", "4")
    _, second, _ = run(capsys, "table", "8", "4")
    assert first == second
    _, parallel, _ = run(capsys, "table", "8", "4", "--workers", "3")
    assert first == parallel


def test_repro_roundtrip(tmp_path, capsys):
    code, out, err = run(capsys, "repro", "--out", str(tmp_path / "a"))
    assert code == 0, err
    assert out.count("ok ") == 13
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert "table_n8_m5.csv" in files
    assert "fig1_hist_01_n05.csv" in files and "fig1_hist_01_n15.csv" in files
    assert "fig2_entropy_m5_n8.csv" in files


def test_repro_reports_mismatch_and_missing(tmp_path, capsys, monkeypatch):
    good = "fig1_hist_01_n05.csv"
    text = resources.files("delentropy").joinpath("repro_expected", good).read_text()
    files = {"table_n8_m5.csv": "pattern\n", "extra.csv": "", good: text}
    monkeypatch.setattr(cli, "build_repro_files", lambda: files)
    code, out, err = run(capsys, "repro", "--out", str(tmp_path))
    assert code == 1
    assert out == f"ok {good}\n"
    assert err == "MISMATCH table_n8_m5.csv\nmissing expected file: extra.csv\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


def _module_env():
    """The environment of a ``python -m delentropy.cli`` subprocess that
    imports this package."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point_matches_main(capsys):
    # perfbench runs the CLI as ``python -m delentropy.cli``
    for argv in (["kappa", "0110"], ["table", "10", "17"]):
        proc = subprocess.run([sys.executable, "-m", "delentropy.cli", *argv],
                              capture_output=True, text=True, env=_module_env(),
                              timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)
    assert proc.returncode == 3


def test_closed_stdout_exits_141():
    # a reader that stops after one line: exit 128 + SIGPIPE, no traceback
    argv = [sys.executable, "-m", "delentropy.cli", "kappa", "--all", "16"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=_module_env()) as proc:
        assert proc.stdout.readline() == "pattern,kappa2\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (141, "")


def test_out_file_single(tmp_path, capsys):
    dest = tmp_path / "kappa.csv"
    code, out, _ = run(capsys, "kappa", "0", "--out", str(dest))
    assert code == 0 and out == ""
    assert dest.read_text() == "pattern,kappa2\n0,1\n"


def test_out_creates_missing_parent_directories(tmp_path, capsys):
    # a file path and a sweep directory, each two levels below tmp_path
    dest = tmp_path / "a" / "b" / "kappa.csv"
    assert run(capsys, "kappa", "0", "--out", str(dest)) == (0, "", "")
    assert dest.read_text() == "pattern,kappa2\n0,1\n"
    sweep = tmp_path / "c" / "d"
    assert run(capsys, "hist", "01", "2..3", "--out", str(sweep)) == (0, "", "")
    assert sorted(p.name for p in sweep.iterdir()) == ["hist_01_n02.csv", "hist_01_n03.csv"]


def _hist_table(hist):
    footer = {"mode": hist.mode, "n": hist.text_length, "pattern": hist.pattern}
    if hist.mode == "sampled":
        footer["seed"] = hist.seed
    return ["omega", "count"], sorted(hist.counts.items()), footer


def _extremal_table(results):
    rows = [
        (r.criterion, r.m, "" if r.n is None else r.n, r.value, ";".join(r.witnesses))
        for r in results
    ]
    objs = [
        {
            "m": r.m,
            "criterion": r.criterion,
            **({"n": r.n} if r.n is not None else {}),
            "value": r.value,
            "witnesses": r.witnesses,
            "violations": [r.finding] if r.finding else [],
        }
        for r in results
    ]
    code = 4 if any(r.finding for r in results) else 0
    return ["criterion", "m", "n", "value", "witnesses"], rows, {}, objs, code


def _estimate_table(x, n):
    ms = exact_moment_set(x, n)
    est = moment_entropy_estimate(ms, total_masks(n, len(x)))
    rows = [(x, n, est.estimate_bits, est.error_bound_bits, ms.provenance)]
    return ["pattern", "n", "estimate", "bound", "moments"], rows, {}


def _ordering_table():
    table = ordering_table(8, 4)
    code = 4 if table.violations else 0
    return ["pattern", "kappa2", "H_bits"], table.rows, {}, None, code


def _exact_moment_table():
    value = exact_moment("011", 7, 3)
    rows = [("011", 7, 3, value.numerator, value.denominator, "exact")]
    return ["pattern", "n", "r", "value_num", "value_den", "provenance"], rows, {}


def _posterior_table():
    dist = posterior("010", 6)
    return ["y", "omega"], sorted(dist.entries.items()), {"mu": dist.normalizer}


def _report_row(x, n):
    rep = entropy_report(x, n)
    return (x, n, rep.shannon_bits, rep.renyi2_bits, rep.min_entropy_bits, rep.mode)


# argv -> the table the library gives for it: (header, rows, footer[, json
# objects, exit code]); the JSON objects default to one per row plus the
# footer, the exit code to 0
_TABLES = {
    ("kappa", "0110"): lambda: (["pattern", "kappa2"], [("0110", kappa_squared("0110"))], {}),
    ("kappa", "--all", "4"): lambda: (
        ["pattern", "kappa2"],
        [(format(v, "04b"), kappa_squared(format(v, "04b"))) for v in range(16)],
        {},
    ),
    ("entropy", "01010", "8"): lambda: (
        ["pattern", "n", "H", "R", "Hmin", "mode"], [_report_row("01010", 8)], {}
    ),
    ("entropy", "011", "9", "--mode", "renyi2"): lambda: (
        ["pattern", "n", "R"], [("011", 9, renyi2_entropy("011", 9))], {}
    ),
    ("entropy", "011", "9", "--mode", "min"): lambda: (
        ["pattern", "n", "Hmin"], [("011", 9, min_entropy("011", 9))], {}
    ),
    # the CLI logs the total from C(n, m) and a shift, the library logs the
    # int it is handed: the same floats
    ("entropy", "0110", "9", "--mode", "estimate"): lambda: _estimate_table("0110", 9),
    ("entropy", "01101", "40", "--mode", "estimate"): lambda: _estimate_table("01101", 40),
    ("entropy", "011010", "120", "--mode", "estimate"): lambda: _estimate_table("011010", 120),
    ("entropy", "0110", "1000000", "--mode", "estimate"): lambda: (
        _estimate_table("0110", 10**6)
    ),
    ("hist", "011", "9"): lambda: _hist_table(exact_histogram("011", 9)),
    ("hist", "011", "40", "--sample", "3000", "--seed", "5"): lambda: _hist_table(
        sample_histogram("011", 40, 3000, 5)
    ),
    ("table", "8", "4"): _ordering_table,
    ("extremal", "--criterion", "kappa-max", "5"): lambda: _extremal_table(
        [verify_kappa_max(5)]
    ),
    ("extremal", "--criterion", "kappa-min", "6"): lambda: _extremal_table(
        [search_kappa_min(6)]
    ),
    ("extremal", "--criterion", "entropy-min", "3", "--n-range", "4..6"): lambda: (
        _extremal_table(check_entropy_min(3, [4, 5, 6]))
    ),
    ("moments", "011", "7", "--r", "3"): _exact_moment_table,
    ("moments", "011", "50", "--r", "2", "--mode", "asymptotic"): lambda: (
        ["pattern", "n", "r", "value", "provenance"],
        [("011", 50, 2, asymptotic_variance(50, 3, kappa_squared("011")),
          "asymptotic")],
        {},
    ),
    ("gaussian", "011", "5..8"): lambda: (
        ["pattern", "n", "skewness", "excess_kurtosis"],
        [("011", n, d.skewness, d.excess_kurtosis)
         for n in range(5, 9) for d in [gaussian_diagnostics("011", n)]],
        {},
    ),
    ("posterior", "010", "6"): _posterior_table,
}


def _reference_text(fmt, full, header, rows, footer, objs=None, code=0):
    """The table as csv.writer and json.dumps write it: floats to 4 decimals
    (CSV) or rounded to 4 places (JSON) unless full precision is asked."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [(repr(v) if full else f"{v:.4f}") if isinstance(v, float) else v
                 for v in row]
            )
        buf.write("".join(f"# {k}={v}\n" for k, v in footer.items()))
        return buf.getvalue()
    if objs is None:
        objs = [dict(zip(header, row)) for row in rows] + ([footer] if footer else [])
    return "".join(
        json.dumps({k: v if full or not isinstance(v, float) else round(v, 4)
                    for k, v in obj.items()}) + "\n"
        for obj in objs
    )


@pytest.mark.parametrize("full", [False, True], ids=["default", "full"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", list(_TABLES), ids=" ".join)
def test_table_bytes(capsys, argv, fmt, full):
    table = _TABLES[argv]()
    flags = ["--format", fmt] + (["--full-precision"] if full else [])
    code, out, _ = run(capsys, *argv, *flags)
    want = _reference_text(fmt, full, *table)
    assert code == (table[4] if len(table) > 4 else 0)
    assert out == want


def _format_chunks(args, header, blocks):
    """The per-row ``str.format`` rendering ``_row_chunks`` replaced by one
    ``%`` format per block: the same template in ``{}`` cells."""
    as_csv, template = args.format == "csv", None
    for rows in blocks:
        if template is None:
            floats = [isinstance(v, float) for v in rows[0]]
            rounded = not (as_csv or args.full_precision) and any(floats)
            if as_csv:
                yield ",".join(header) + "\n"
                cell = "{}" if args.full_precision else "{:.4f}"
                template = ",".join(cell if f else "{}" for f in floats) + "\n"
            else:
                template = "{{%s}}\n" % ", ".join(
                    f'"{h}": "{{}}"' if isinstance(v, str) else f'"{h}": {{}}'
                    for h, v in zip(header, rows[0])
                )
        if rounded:
            rows = [[round(v, 4) if f else v for v, f in zip(row, floats)] for row in rows]
        yield "".join(template.format(*row) for row in rows)


def test_block_format_matches_row_format():
    import argparse

    import numpy as np

    blocks = [
        [("0110", 7, 1.23456789, np.int64(12), np.float64(2.5) / 3, "exact")],
        [("1", -3, float("inf"), np.int64(-1), np.float64(1e-9), "sampled"),
         ("10", 0, 2.0, np.int64(2**62), np.float64(float("-inf")), "")],
        [],
        [("111", 10**30, 1 / 3, np.int64(0), np.float64(123456.78915), "a b")],
    ]
    header = ["y", "omega", "H", "count", "ratio", "mode"]
    for fmt, full in ((f, p) for f in ("csv", "json") for p in (False, True)):
        args = argparse.Namespace(format=fmt, full_precision=full)
        want = list(_format_chunks(args, header, blocks))
        assert list(cli._row_chunks(args, header, blocks)) == want, (fmt, full)
    # a '%' in a header name is escaped, not read as a conversion
    args = argparse.Namespace(format="json", full_precision=False)
    assert list(cli._row_chunks(args, ["p%s", "x"], [[("a", 1.0)]])) == ['{"p%s": "a", "x": 1.0}\n']
    # the sampled histogram renders its 100,000 rows as one block
    rows = list(sample_histogram("01101001", 200, 10**5, 3).counts.items())
    args = argparse.Namespace(format="csv", full_precision=False)
    assert list(cli._row_chunks(args, ["omega", "count"], [rows])) == list(
        _format_chunks(args, ["omega", "count"], [rows])
    )


def _failing_write(dest, first="head\n"):
    import argparse

    def chunks():
        yield first
        yield "more\n"
        raise RuntimeError("chunk failed")

    with pytest.raises(RuntimeError, match="chunk failed"):
        cli._write(argparse.Namespace(out=str(dest)), chunks())


def test_out_failure_keeps_an_existing_file(tmp_path):
    dest = tmp_path / "kept.csv"
    dest.write_text("old bytes\n")
    os.chmod(dest, 0o640)
    _failing_write(dest)
    assert dest.read_text() == "old bytes\n"
    assert (dest.stat().st_mode & 0o777) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv"]


def test_out_failure_leaves_no_new_file(tmp_path):
    dest = tmp_path / "sub" / "new.csv"
    _failing_write(dest)
    assert list(dest.parent.iterdir()) == []


def test_out_file_mode_and_replaced_mode(tmp_path, capsys):
    # a new file gets what open("w") gives, 0o666 less the umask; a replaced
    # file keeps its permissions, and a symlink keeps pointing at it
    mask = os.umask(0o027)
    try:
        new = tmp_path / "new.csv"
        assert run(capsys, "kappa", "0", "--out", str(new))[0] == 0
        reference = tmp_path / "reference"
        reference.open("w").close()
        assert new.stat().st_mode & 0o777 == reference.stat().st_mode & 0o777 == 0o640
    finally:
        os.umask(mask)
    old = tmp_path / "old.csv"
    old.write_text("x\n")
    os.chmod(old, 0o600)
    link = tmp_path / "link.csv"
    link.symlink_to(old)
    assert run(capsys, "kappa", "01", "--out", str(link))[0] == 0
    assert link.is_symlink() and old.read_text() == "pattern,kappa2\n01,4\n"
    assert old.stat().st_mode & 0o777 == 0o600
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "link.csv", "new.csv", "old.csv", "reference",
    ]


def test_out_dev_null_written_in_place(capsys):
    assert run(capsys, "kappa", "0110", "--out", os.devnull) == (0, "", "")
    import stat

    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_repro_files_unchanged_through_out(tmp_path, capsys):
    # repro writes its 13 files through the same temporary-file path
    code, out, _ = run(capsys, "repro", "--out", str(tmp_path))
    assert code == 0 and out.count("ok ") == 13
    expected = resources.files("delentropy").joinpath("repro_expected")
    for path in tmp_path.iterdir():
        assert path.read_text() == expected.joinpath(path.name).read_text()
    assert len(list(tmp_path.iterdir())) == 13


@st.composite
def _argv(draw):
    """argv of one subcommand over small patterns (some malformed), lengths
    and short ranges, with the output flags."""
    x = draw(st.text("01", min_size=1, max_size=8))
    if draw(st.integers(0, 9)) == 0:
        x = draw(st.sampled_from(["", "012"]))
    n, m = draw(st.integers(len(x) - 1, 14)), str(draw(st.integers(0, 8)))
    span = draw(st.sampled_from([str(n), f"{n}..{n + draw(st.integers(-1, 3))}", "5..x"]))
    command = draw(st.sampled_from([
        ["kappa", x], ["kappa", x, "--decomposition"], ["kappa", "--all", m],
        ["entropy", x, str(n), "--mode", draw(st.sampled_from(["exact", "estimate", "renyi2", "min"]))],
        ["hist", x, span],
        ["hist", x, str(n), "--sample", str(draw(st.integers(0, 300))), "--seed", "1"],
        ["table", str(n), str(min(int(m), 6))],
        ["extremal", "--criterion", draw(st.sampled_from(["kappa-max", "kappa-min"])), m],
        ["extremal", "--criterion", "entropy-min", str(min(int(m), 5)), "--n-range", span],
        ["moments", x, str(n), "--r", str(draw(st.integers(1, 4))),
         "--mode", draw(st.sampled_from(["exact", "asymptotic"]))],
        ["gaussian", x, span],
        ["posterior", x, str(n)],
    ]))
    flags = draw(st.lists(st.sampled_from([["--format", "json"], ["--full-precision"],
                                           ["--out", "{out}"]]), unique_by=tuple, max_size=3))
    if command[0] in ("entropy", "hist", "posterior", "table") and draw(st.booleans()):
        flags.append(["--guard", str(draw(st.integers(0, 14)))])
    return command + [f for flag in flags for f in flag]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_drawn_argv_exit_cleanly(argv, tmp_path_factory, capsys):
    # every drawn command, under a 4 MiB byte bound, ends in a documented
    # exit code: 0, 2 (usage, argparse's included), 3 (capacity) or 4
    # (finding), never in an uncaught exception
    if "{out}" in argv:
        argv[argv.index("{out}")] = str(tmp_path_factory.mktemp("argv") / "out")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "MAX_BYTES", 1 << 22)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err, argv
