"""Start-up hygiene: a command loads only the layers it runs.

Each case runs in a fresh interpreter, since this test process has long
since imported numpy and scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import octagap

_ENV = dict(os.environ, PYTHONPATH=str(Path(octagap.__file__).resolve().parents[1]))


def _fresh_run(statements: str) -> tuple[int, set[str]]:
    """Exit code (the value of ``code``) and sys.modules after the statements."""
    script = f"import sys\ncode = 0\n{statements}\nprint(*sys.modules)\nsys.exit(code)\n"
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_ENV, timeout=120
    )
    assert result.stdout, result.stderr
    return result.returncode, set(result.stdout.splitlines()[-1].split())


@pytest.mark.parametrize(
    "statements, absent",
    [
        ("import octagap.cli", {"numpy", "scipy"}),
        ("import octagap.geometry", {"scipy"}),
        ("import octagap.spectral", {"scipy"}),
    ],
    ids=["cli", "geometry", "spectral"],
)
def test_import_leaves_heavy_modules_out(statements, absent):
    code, modules = _fresh_run(statements)
    assert code == 0
    assert not absent & modules


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["verify-group"], {"numpy", "scipy"}),
        (["scattering", "--oracle-radius", "20", "--tolerance", "0.01"], {"scipy"}),
        (["delta", "--group", "inf", "--word-length", "6", "--window", "1,4"], {"scipy"}),
        (
            ["cover", "--n", "3", "--seed", "1"],
            {"scipy", "numpy.ma", "octagap.geometry", "octagap.spectral"},
        ),
        (
            ["cover", "--n", "3", "--walk-steps", "2", "--seed", "1"],
            {"scipy", "numpy.ma", "octagap.geometry", "octagap.spectral"},
        ),
        (
            ["bounds-and-budgets", "--seed", "3", "--horoball-samples", "500"],
            {"scipy", "numpy.ma", "octagap.covers"},
        ),
    ],
    ids=["verify-group", "scattering", "delta", "cover", "cover-walk", "bounds-and-budgets"],
)
def test_command_loads_only_its_layers(argv, absent):
    code, modules = _fresh_run(f"from octagap.cli import main\ncode = main({argv!r})")
    assert code == 0
    assert not absent & modules
