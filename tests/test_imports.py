"""Cold start: ``import delentropy`` loads no submodule, its public names
resolve on first use, and the closed-form subcommands and small moment
tensors never import numpy."""

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
    ],
)
def test_closed_form_commands_never_import_numpy(argv, want, capsys):
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
    "argv", [["kappa", "--all", "8"], ["extremal", "--criterion", "kappa-max", "8"]]
)
def test_kappa_scans_never_import_entropy(argv):
    # the scans need numpy but neither the entropies nor the histograms
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
