"""Cold start: ``import delentropy`` loads no submodule, its public names
resolve on first use, and the closed-form subcommands, small moment
tensors, small kappa2 scans and small exact enumerations never import
numpy; an exact histogram loads no moment code, and ``json`` is loaded
only for JSON output."""

import subprocess
import sys
from pathlib import Path

import pytest

import delentropy
from delentropy.cli import main

_SRC = str(Path(delentropy.__file__).parents[1])


def _child(code, *argv):
    """Run ``code`` in a fresh interpreter that imports this package, with
    ``argv`` as its ``sys.argv[1:]``; returns (returncode, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {_SRC!r})\n{code}", *argv],
        capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


# the modules of this package and numpy that a child holds, printed last
_LOADED = (
    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'"
    " or m.startswith('delentropy.')), file=sys.stderr)"
)


def test_import_loads_no_submodule_and_no_numpy():
    code, _, err = _child(f"import delentropy\n{_LOADED}")
    assert (code, err) == (0, "[]\n")
    # a submodule read off the package is imported then, and moments alone
    # loads no numpy
    code, out, err = _child(
        f"import delentropy\nprint(delentropy.moments.kappa_max(3))\n{_LOADED}"
    )
    assert (code, out, err) == (0, "30\n", "['delentropy.core', 'delentropy.moments']\n")


@pytest.mark.parametrize(
    "argv, want",
    [
        (["moments", "0110", "1000000", "--r", "1", "--mode", "asymptotic"], 0),
        (["kappa", "0110"], 0),
        (["kappa", "0110", "--decomposition"], 0),
        (["hist", "01", "31"], 3),
        (["posterior", "01", "31"], 3),
        # small moment tensors run their pass in pure Python until numpy is
        # loaded; this process has it loaded, so its bytes come from the
        # numpy pass
        (["moments", "0110", "200", "--r", "4"], 0),
        (["gaussian", "0110", "10..24"], 0),
        (["entropy", "0110", "120", "--mode", "estimate"], 0),
        (["entropy", "0110", "40", "--mode", "renyi2"], 0),
        # so do kappa2 scans over at most 2^17 patterns, whose bytes here
        # come from the int64 kernel
        (["extremal", "--criterion", "kappa-min", "14"], 0),
        (["extremal", "--criterion", "kappa-max", "13"], 0),
        (["kappa", "--all", "12"], 0),
        (["kappa", "--all", "12", "--format", "json"], 0),
        # and their refusals, of either form
        (["kappa", "--all", "0"], 2),
        (["kappa", "--all", "31"], 3),
        (["extremal", "--criterion", "kappa-max", "31"], 3),
        # and so do exact enumerations of at most 2^16 texts, whose bytes
        # here come from the array forms; table 10 6 finds inversions
        (["table", "10", "6"], 4),
        (["hist", "01101001", "16"], 0),
        (["posterior", "011", "16"], 0),
        (["entropy", "01101001", "16"], 0),
        (["extremal", "--criterion", "entropy-min", "4", "--n-range", "8..12"], 0),
        (["repro", "--out", "{tmp}"], 0),
    ],
)
def test_closed_form_commands_never_import_numpy(argv, want, capsys, tmp_path):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code, out, err = _child(
        "from delentropy.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "sys.stdout.flush()\n"
        "print(code, file=sys.stderr)\n"
        f"{_LOADED}",
        *argv,
    )
    assert code == 0
    *msg, exit_line, loaded = err.splitlines(keepends=True)
    assert int(exit_line) == want
    assert "numpy" not in loaded
    # the same bytes as the command run in this process
    assert main(argv) == want
    assert (out, "".join(msg)) == capsys.readouterr()


def test_large_moment_tensor_imports_numpy(capsys):
    # 56 steps over C(18, 4) cells: 171,360 cell-steps, above the pure pass
    argv = ["moments", "01101001101001", "56", "--r", "4"]
    code, out, err = _child(f"from delentropy.cli import main\nmain(sys.argv[1:])\n{_LOADED}", *argv)
    assert code == 0
    assert "'numpy'" in err.splitlines()[-1]
    assert main(argv) == 0 and capsys.readouterr().out == out


@pytest.mark.parametrize(
    "argv", [["hist", "01101001", "17"], ["entropy", "01101001", "17"], ["table", "12", "6"]]
)
def test_large_enumeration_imports_numpy(argv, capsys):
    # 2^17 texts, or 20 orbits of 2^12 texts, above the pure tally
    code, out, err = _child(f"from delentropy.cli import main\nmain(sys.argv[1:])\n{_LOADED}", *argv)
    assert code == 0
    assert "'numpy'" in err.splitlines()[-1]
    main(argv)
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("argv", [["posterior", "011", "17"], ["posterior", "0110100110", "20"]])
def test_large_posterior_loads_no_numpy(argv, capsys):
    # the posterior rows have one pure form, at 2^17 and at 2^20 texts
    code, out, err = _child(f"from delentropy.cli import main\nmain(sys.argv[1:])\n{_LOADED}", *argv)
    assert code == 0
    assert "numpy" not in err.splitlines()[-1]
    main(argv)
    assert capsys.readouterr().out == out


def test_large_kappa_scan_imports_numpy(capsys):
    # 2^18 patterns, above the pure scan
    argv = ["extremal", "--criterion", "kappa-min", "18"]
    code, out, err = _child(f"from delentropy.cli import main\nmain(sys.argv[1:])\n{_LOADED}", *argv)
    assert code == 0
    assert "'numpy'" in err.splitlines()[-1]
    assert main(argv) == 0 and capsys.readouterr().out == out


@pytest.mark.parametrize(
    "argv", [["kappa", "--all", "8"], ["extremal", "--criterion", "kappa-max", "8"]]
)
def test_kappa_scans_never_import_entropy(argv):
    # the scans load neither the entropies nor the histograms, whichever
    # form they take
    code, _, err = _child(f"from delentropy.cli import main\nmain(sys.argv[1:])\n{_LOADED}", *argv)
    assert code == 0
    loaded = err.splitlines()[-1]
    assert "delentropy.extremal" in loaded
    assert "delentropy.entropy" not in loaded and "delentropy.distribution" not in loaded


def test_public_names_are_their_modules_objects():
    import importlib

    assert len(delentropy.__all__) == len(set(delentropy.__all__)) == 45
    listed = dir(delentropy)
    for module, names in delentropy._MODULES.items():
        mod = importlib.import_module(f"delentropy.{module}")
        for name in names:
            assert getattr(delentropy, name) is getattr(mod, name), name
            assert name in listed and name in delentropy.__all__
    assert set(delentropy.__all__) == {n for ns in delentropy._MODULES.values() for n in ns}
    # the exception moved to core is the one extremal raises
    assert delentropy.extremal.ExtremalInvariantError is delentropy.ExtremalInvariantError


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        delentropy.no_such_name
    assert not hasattr(delentropy, "_step_plan")
    with pytest.raises(ImportError):
        from delentropy import no_such_name  # noqa: F401


def test_exact_hist_loads_no_moments():
    # an exact histogram forms no moment, so neither the moment module nor
    # fractions is loaded for it
    code, out, err = _child(
        "from delentropy.cli import main\n"
        "main(['hist', '10110111', '16'])\n"
        "print(sorted({'delentropy.moments', 'fractions'} & set(sys.modules)), file=sys.stderr)"
    )
    assert (code, err) == (0, "[]\n")
    assert out.startswith("omega,count\n")


@pytest.mark.parametrize("argv, loads", [
    (["kappa", "--all", "12"], False),
    (["kappa", "0110", "--decomposition"], False),
    (["kappa", "0110", "--decomposition", "--format", "json"], True),
    (["extremal", "--criterion", "kappa-min", "12", "--format", "json"], True),
])
def test_json_loaded_only_for_json_output(argv, loads, capsys):
    code, out, err = _child(
        "from delentropy.cli import main\n"
        "main(sys.argv[1:])\n"
        "print('json' in sys.modules, file=sys.stderr)",
        *argv,
    )
    assert (code, err) == (0, f"{loads}\n")
    assert main(argv) == 0 and capsys.readouterr().out == out


# One command per kernel that switches form on whether numpy is loaded (the
# tensor pass, the kappa2 scan, the exact tally), and the posterior rows and
# the table's ordering findings (exit 4), which have one form each; a
# posterior past 2^16 texts, whose cold run once took the array form
_CROSS_FORM = [
    "moments 0110 200 --r 4",
    "gaussian 0110 10..14",
    "kappa --all 10",
    "extremal --criterion kappa-min 12",
    "hist 01101001 14",
    "posterior 011 12",
    "posterior 0110 17",
    "entropy 0110 14",
    "table 10 6",
    "repro --out {out}",
]


@pytest.mark.parametrize("command", _CROSS_FORM)
def test_cold_and_warm_runs_give_the_same_bytes(command, tmp_path):
    # each command in one fresh child that loads no numpy, so its kernels
    # take their pure forms, and in one that imports numpy first, so they
    # take their array forms: equal exit codes, stdout, stderr and files
    runs = []
    for warm in (False, True):
        out = tmp_path / ("warm" if warm else "cold")
        code, stdout, err = _child(
            ("import numpy\n" if warm else "")
            + "from delentropy.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "sys.stdout.flush()\n"
            "print('numpy' in sys.modules, file=sys.stderr)\n"
            "sys.exit(code)",
            *command.format(out=out).split(),
        )
        *msg, loaded = err.splitlines(keepends=True)
        assert loaded == f"{warm}\n", (command, err)
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir() else {}
        runs.append((code, stdout, "".join(msg), files))
    assert runs[0] == runs[1]
    assert runs[0][0] in (0, 4) and "Traceback" not in runs[0][2]
    assert ("{out}" in command) == (len(runs[0][3]) == 13)
