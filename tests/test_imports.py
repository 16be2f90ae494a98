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
        ("import octagap.covers", {"scipy", "numpy.ma"}),
    ],
    ids=["cli", "geometry", "spectral", "covers"],
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
        (
            ["delta", "--group", "inf", "--word-length", "6", "--window", "1,4"],
            {"scipy", "numpy.ma", "octagap.covers", "octagap.spectral"},
        ),
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


def test_library_integrals_run_on_numpy_alone():
    """Every public spectral function and cap_volume, called once, load no scipy."""
    calls = {
        "riemann_zeta": "(3.0)",
        "dirichlet_beta": "(2.0)",
        "dedekind_zeta_qi": "(2.0)",
        "gaussian_lattice_zeta": "(2.0, 20.0)",
        "scattering_coefficient": "(2.5)",
        "scattering_lattice_sum": "(2.5, 1, 20.0)",
        "scattering_oracle_value": "(2.5, 1, 20.0)",
        "scattering_pole_scan": "(1, grid_points=20)",
        "selberg_h": "(2.0, 0.5)",
        "selberg_h_quadrature": "(2.0, 0.5)",
        "ball_delocalization_bound": "(ball, 2.0, 0.5)",
        "cusp_kernel_growth": "([(2, 2.0, 1.0)], 4.0)",
        "tangle_delocalization_bound": "(4.0, 0.4, 0.8, 0.01)",
        "cusp_decay_ratio_zeroth": "(0.5)",
        "bessel_k": "(0.5, 1.0)",
        "cusp_decay_ratio_bessel": "(0.6)",
        "flattening_budget": "([(1.0, 1.0, 1.0)], 4.0, 0.4, 0.8, 0.01)",
    }
    statements = "\n".join(
        [
            "import inspect",
            "from octagap import geometry, spectral",
            "geometry.cap_volume(2.0, 1.0)",
            "ball = geometry.orbit_ball('free', geometry.DEFAULT_BASE_POINT, 3)",
            *(f"spectral.{name}{args}" for name, args in calls.items()),
            "public = {name for name, f in inspect.getmembers(spectral, inspect.isfunction)",
            "          if f.__module__ == spectral.__name__ and not name.startswith('_')}",
            f"code = int(public != {set(calls)!r})",
        ]
    )
    code, modules = _fresh_run(statements)
    assert code == 0, "the calls above must cover every public spectral function"
    assert "scipy" not in modules
