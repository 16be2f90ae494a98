"""End-to-end tests for the command line interface."""

import argparse
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import octagap
from octagap.cli import EXIT_COMPUTE, EXIT_OK, EXIT_USAGE, _build_parser, main


def _read_json(path):
    with open(path) as handle:
        return json.load(handle)


# -- verify-group ----------------------------------------------------------------


def test_verify_group_passes_and_reports_counts(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify-group", "--out", str(out)]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out
    report = _read_json(out)
    assert report["schema"] == 1
    assert report["command"] == "verify-group"
    assert report["passed"] is True
    assert report["involution_checks"] == 8
    assert report["edge_checks"] == 12
    assert report["non_edge_checks"] == 16
    assert all(check["passed"] for check in report["checks"])


def test_verify_group_detects_a_corrupted_generator(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify-group", "--corrupt-generator", "r2", "--out", str(out)]) == EXIT_COMPUTE
    captured = capsys.readouterr()
    assert "FAIL" in captured.err
    report = _read_json(out)
    assert report["passed"] is False
    failing = [check["name"] for check in report["checks"] if not check["passed"]]
    assert failing and any("r2" in name for name in failing)


def test_verify_group_csv_lists_the_checks(tmp_path):
    out = tmp_path / "checks.csv"
    assert main(["verify-group", "--format", "csv", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "check,passed"
    assert len(lines) == 1 + 8 + 12 + 16 + 1 + 3 + 8
    assert all(line.endswith(",true") for line in lines[1:])


# -- scattering ------------------------------------------------------------------


def test_scattering_grid_passes_at_modest_radius(tmp_path):
    out = tmp_path / "scattering.json"
    args = [
        "scattering",
        "--s-min", "2.5",
        "--s-max", "3.0",
        "--grid", "2",
        "--oracle-radius", "40",
        "--out", str(out),
    ]
    assert main(args) == EXIT_OK
    report = _read_json(out)
    assert report["passed"] is True
    assert report["pole_scan"]["points"] == []
    assert report["pole_scan"]["verdict"] == "no poles"
    assert len(report["rows"]) == 2
    for row in report["rows"]:
        assert row["flag"] == "ok"
        assert row["relgap"] < report["tolerance"]


def test_scattering_flags_formula_only_points(tmp_path):
    out = tmp_path / "scattering.json"
    args = [
        "scattering",
        "--s-min", "1.5",
        "--s-max", "2.5",
        "--grid", "3",
        "--oracle-radius", "40",
        "--out", str(out),
    ]
    assert main(args) == EXIT_OK
    report = _read_json(out)
    flags = [row["flag"] for row in report["rows"]]
    assert flags[0] == "formula-only"
    assert flags[-1] == "ok"


def test_scattering_validates_its_window():
    assert main(["scattering", "--s-min", "0.5"]) == EXIT_USAGE
    assert main(["scattering", "--s-min", "3.0", "--s-max", "2.0"]) == EXIT_USAGE
    assert main(["scattering", "--oracle-radius", "700"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "flags",
    [["--tolerance", "nan"], ["--tolerance", "inf"], ["--s-max", "inf", "--grid", "3"]],
    ids=["nan-tolerance", "infinite-tolerance", "infinite-s-max"],
)
def test_scattering_rejects_non_finite_input(tmp_path, capsys, flags):
    """Each exits 2 with one error line; an infinite tolerance printed PASS."""
    out = tmp_path / "r.json"
    args = ["scattering", "--oracle-radius", "20", "--grid", "2", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args + flags) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"got {flags[1]}" in err
    assert not out.exists()


def test_scattering_csv_rows(tmp_path):
    out = tmp_path / "rows.csv"
    args = [
        "scattering",
        "--s-min", "2.5",
        "--s-max", "3.0",
        "--grid", "2",
        "--oracle-radius", "40",
        "--format", "csv",
        "--out", str(out),
    ]
    assert main(args) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,formula,oracle,relgap,flag"
    assert len(lines) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["--level", "121", "--oracle-radius", "120"],
        ["--level", "3037000500", "--oracle-radius", "20", "--grid", "2"],
    ],
    ids=["empty-sum", "int64-overflow"],
)
def test_scattering_refuses_a_level_above_the_oracle_radius(tmp_path, capsys, argv):
    """Level 121 printed oracle=0 and FAIL; level 3037000500 raised a raw
    OverflowError out of main."""
    out = tmp_path / "report.json"
    assert main(["scattering", *argv, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "need level <= radius" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--level", "85", "--oracle-radius", "120", "--grid", "2"],
        ["--level", "84", "--oracle-radius", "120", "--grid", "2"],
        ["--level", "1000000000000000003", "--s-min", "1.5", "--s-max", "1.9", "--grid", "1"],
        ["--level", "1000000000000000003"],
        ["--level", "2", "--s-min", "600", "--s-max", "600", "--grid", "1"],
    ],
    ids=["empty-inner-sum", "one-class-inner-sum", "formula-only-huge-level", "huge-level", "underflow"],
)
def test_scattering_refuses_what_the_oracle_or_the_formula_cannot_serve(tmp_path, capsys, argv):
    """Level 85 at radius 120 printed relgap 1.19 and FAIL, and level 84,
    whose inner sum holds one class, relgap 2.3e-2 and FAIL; level
    1000000000000000003 factored by trial division for longer than 20 s;
    s = 600 at level 2 raised ZeroDivisionError at the relgap."""
    out = tmp_path / "report.json"
    start = time.monotonic()
    assert main(["scattering", *argv, "--out", str(out)]) == EXIT_USAGE
    assert time.monotonic() - start < 2.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_scattering_serves_a_small_coefficient_above_the_underflow(tmp_path):
    out = tmp_path / "report.json"
    argv = ["--level", "2", "--s-min", "300", "--s-max", "300", "--grid", "1"]
    assert main(["scattering", *argv, "--out", str(out)]) == EXIT_OK
    assert _read_json(out)["rows"][0]["flag"] == "ok"


# -- delta -----------------------------------------------------------------------


def test_delta_estimates_the_face_subgroup_exponent(tmp_path):
    out = tmp_path / "delta.json"
    args = ["delta", "--group", "ap", "--word-length", "10", "--seed", "1", "--out", str(out)]
    assert main(args) == EXIT_OK
    report = _read_json(out)
    assert report["passed"] is True
    assert report["orbit_group"] == "free"
    assert report["orbit_points"] == 2 * 3**10 - 1
    assert report["band"][0] <= report["estimate"] <= report["band"][1]
    bounds = report["bounds"]
    assert 0 < bounds["lower"] < bounds["upper"] < 1
    assert bounds["es_at_reference"] == pytest.approx(0.9065556242941605, rel=1e-12)


def test_delta_reads_parameters_from_a_config_file(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"group": "inf", "word_length": 6}))
    out = tmp_path / "delta.json"
    assert main(["delta", "--config", str(config), "--seed", "1", "--out", str(out)]) == EXIT_OK
    report = _read_json(out)
    assert report["group"] == "inf"
    assert report["word_length"] == 6
    assert report["orbit_group"] == "kernel"


def test_delta_inf_fails_below_the_kernel_bound(tmp_path, capsys):
    """The kernel group's band is [2 - delta_face / 2, 2], the bound behind
    the upper gap, so a window whose fit falls below it fails the command."""
    from octagap.geometry import FREE_SUBGROUP_CRITICAL_EXPONENT

    out = tmp_path / "delta.json"
    args = ["delta", "--group", "inf", "--word-length", "6", "--window", "2,3"]
    assert main([*args, "--seed", "1", "--out", str(out)]) == EXIT_COMPUTE
    assert capsys.readouterr().out.splitlines()[-1] == "FAIL"
    report = _read_json(out)
    assert report["passed"] is False
    assert report["band"] == [2.0 - FREE_SUBGROUP_CRITICAL_EXPONENT / 2.0, 2.0]
    assert report["estimate"] == pytest.approx(1.146044, abs=1e-6)


def test_delta_rejects_unknown_groups():
    with pytest.raises(SystemExit) as excinfo:
        main(["delta", "--group", "xx", "--seed", "1"])
    assert excinfo.value.code == EXIT_USAGE


def test_delta_rejects_a_zero_word_length():
    assert main(["delta", "--group", "ap", "--word-length", "0", "--seed", "1"]) == EXIT_USAGE


@pytest.mark.parametrize("base_point", ["0.3,0.4,inf", "nan,0.4,0.9", "0.3,-inf,0.9"])
def test_delta_rejects_a_non_finite_base_point_before_walking(capsys, base_point):
    args = ["delta", "--group", "sa", "--base-point", base_point, "--seed", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == EXIT_USAGE
    assert "coordinates must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("base_point", ["1e308,0,1", "1e150,0,1", "0,0,1e-300", "0,0,1e300"])
def test_delta_refuses_a_base_point_too_far_out_with_one_error_line(capsys, base_point):
    args = ["delta", "--group", "ap", "--word-length", "3", "--base-point", base_point]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*args, "--seed", "1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_delta_csv_is_the_counting_function(tmp_path):
    out = tmp_path / "counts.csv"
    args = [
        "delta",
        "--group", "ap",
        "--word-length", "8",
        "--seed", "1",
        "--format", "csv",
        "--out", str(out),
    ]
    assert main(args) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0].count(",") == 1
    assert len(lines) > 10


def test_delta_prints_its_verdict_once_from_a_split_walk(tmp_path):
    """A fresh process on a pipe, so that a forked walker that ran on past
    its half, or flushed the stdout buffer it inherited, would print twice.
    The full ball of word length 9 is large enough to be split."""
    env = dict(os.environ, PYTHONPATH=str(Path(octagap.__file__).resolve().parents[1]))
    out = tmp_path / "delta.json"
    argv = ["delta", "--group", "sa", "--word-length", "9", "--seed", "1", "--out", str(out)]
    result = subprocess.run(
        [sys.executable, "-m", "octagap.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == EXIT_OK, result.stderr
    assert result.stdout.splitlines().count("PASS") == 1
    assert result.stderr == ""
    assert _read_json(out)["orbit_points"] == 4394521


# -- cover -----------------------------------------------------------------------


def test_cover_reports_the_sampled_graph(tmp_path):
    out = tmp_path / "cover.json"
    assert main(["cover", "--n", "20", "--seed", "7", "--out", str(out)]) == EXIT_OK
    report = _read_json(out)
    assert report["n"] == 20 and report["seed"] == 7
    assert report["num_vertices"] == 40
    assert report["num_edges"] == 80
    assert isinstance(report["connected"], bool)
    assert report["lambda1"] >= 0.0
    assert report["tangle_free_radius"] >= 0
    assert "walk" not in report


def test_cover_walk_summary(tmp_path):
    out = tmp_path / "cover.json"
    args = ["cover", "--n", "12", "--seed", "7", "--walk-steps", "5", "--out", str(out)]
    assert main(args) == EXIT_OK
    walk = _read_json(out)["walk"]
    assert walk["steps"] == 5
    assert len(walk["lambda1_series"]) == 6
    assert len(walk["signing_hashes"]) == 6
    assert walk["lambda1_series"][0] == pytest.approx(0.0, abs=1e-9)
    assert all(0.0 <= value <= 8.0 for value in walk["lambda1_series"])


def test_cover_is_deterministic_for_a_seed(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["cover", "--n", "15", "--seed", "3", "--out", str(first)]) == EXIT_OK
    assert main(["cover", "--n", "15", "--seed", "3", "--out", str(second)]) == EXIT_OK
    a, b = _read_json(first), _read_json(second)
    a.pop("timestamp")
    b.pop("timestamp")
    assert a == b


def test_cover_csv_is_the_edge_list_without_a_walk(tmp_path):
    out = tmp_path / "edges.csv"
    argv = ["cover", "--n", "6", "--seed", "7", "--format", "csv", "--out", str(out)]
    assert main(argv) == EXIT_OK
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    assert header == ["u", "v", "color", "sign"]
    assert len(rows) == 4 * 6
    cells = [[int(cell) for cell in row] for row in rows]
    assert all(0 <= u < v < 12 and sign == 1 for u, v, _, sign in cells)
    for color in range(1, 5):
        ends = [end for u, v, c, _ in cells if c == color for end in (u, v)]
        assert sorted(ends) == list(range(12)), f"color {color} is not a perfect matching"


def test_cover_csv_is_the_walk_table_with_the_report_hashes(tmp_path):
    argv = ["cover", "--n", "12", "--seed", "7", "--walk-steps", "5"]
    report, table = tmp_path / "cover.json", tmp_path / "walk.csv"
    assert main([*argv, "--out", str(report)]) == EXIT_OK
    assert main([*argv, "--format", "csv", "--out", str(table)]) == EXIT_OK
    walk = _read_json(report)["walk"]
    header, *rows = [line.split(",") for line in table.read_text().splitlines()]
    assert header == ["step", "signing_hash", "lambda1"]
    assert [int(step) for step, _, _ in rows] == list(range(6))
    assert [h for _, h, _ in rows] == walk["signing_hashes"]
    assert [float(lam) for _, _, lam in rows] == pytest.approx(walk["lambda1_series"], rel=1e-11)


def test_cover_requires_seed_and_size(capsys):
    assert main(["cover", "--n", "10"]) == EXIT_USAGE
    assert "seed" in capsys.readouterr().err
    assert main(["cover", "--seed", "1"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["cover", "--n", str(10**13), "--seed", "1"],
        ["cover", "--n", "3", "--walk-steps", "1", "--bins", str(10**13), "--seed", "1"],
        ["scattering", "--grid", str(10**13)],
    ],
    ids=["cover-n", "cover-bins", "scattering-grid"],
)
def test_sizes_over_the_byte_limit_fail_the_command_with_a_message(tmp_path, capsys, argv):
    """Each size raised numpy's MemoryError out of main before its guard."""
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == EXIT_COMPUTE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "GiB" in err
    assert not out.exists()


def test_cover_refuses_oversized_bins_before_the_cover_and_the_walk(monkeypatch, capsys):
    """The byte guard on --bins ran only after every walk step."""
    from octagap import covers

    def not_reached(*args, **kwargs):
        raise AssertionError("ran before the bins were checked")

    monkeypatch.setattr(covers, "sample_cover", not_reached)
    monkeypatch.setattr(covers, "switching_walk", not_reached)
    argv = ["cover", "--n", "3000", "--walk-steps", "200", "--bins", str(10**13), "--seed", "7"]
    assert main(argv) == EXIT_COMPUTE
    assert capsys.readouterr().err == (
        "error: a histogram of 10000000000000 bins needs 530853.9 GiB, over the 1 GiB limit\n"
    )


def test_cover_refuses_an_oversized_walk_before_the_cover(tmp_path, monkeypatch, capsys):
    """Ten million walk steps ran for minutes towards about 5 GiB."""
    from octagap import covers

    def not_reached(*args, **kwargs):
        raise AssertionError("ran before the walk length was checked")

    monkeypatch.setattr(covers, "sample_cover", not_reached)
    out = tmp_path / "report.json"
    argv = ["cover", "--n", "1", "--walk-steps", str(10**7), "--seed", "1", "--out", str(out)]
    assert main(argv) == EXIT_COMPUTE
    assert capsys.readouterr().err == (
        "error: a switching walk of 10000000 steps needs 5.6 GiB, over the 1 GiB limit\n"
    )
    assert not out.exists()


# -- bounds-and-budgets ------------------------------------------------------------


def test_bounds_and_budgets_report(tmp_path):
    out = tmp_path / "bounds.json"
    args = ["bounds-and-budgets", "--seed", "3", "--horoball-samples", "2000", "--out", str(out)]
    assert main(args) == EXIT_OK
    report = _read_json(out)
    assert report["passed"] is True
    assert report["caps_within_bound"] is True
    assert report["budget_decreasing"] is True
    assert report["horoball_ok"] is True
    totals = [row["total"] for row in report["budgets"]]
    assert all(a > b for a, b in zip(totals, totals[1:]))
    horoball = report["horoball"]
    assert horoball["covered_fraction"] == 1.0
    assert horoball["max_multiplicity"] <= 3


def test_bounds_and_budgets_csv_is_the_cap_sweep(tmp_path):
    out = tmp_path / "caps.csv"
    args = [
        "bounds-and-budgets",
        "--seed", "3",
        "--horoball-samples", "500",
        "--format", "csv",
        "--out", str(out),
    ]
    assert main(args) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 6 * 3


@pytest.mark.parametrize(
    "config",
    [
        {"cap_radii": [400]},
        {"cap_radii": [354], "cap_separations": [0.5]},
        {"cap_radii": ["nan"]},
        {"cap_radii": ["-inf"]},
        {"cap_separations": ["inf"]},
    ],
    ids=[
        "overflowing-radius",
        "overflowing-bound",
        "nan-radius",
        "infinite-radius",
        "infinite-separation",
    ],
)
def test_bounds_and_budgets_rejects_non_finite_and_overflowing_caps(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "bounds.json"
    args = ["bounds-and-budgets", "--config", str(path), "--seed", "3", "--out", str(out)]
    assert main(args + ["--horoball-samples", "500"]) == EXIT_USAGE
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


def _bounds_and_budgets_error(tmp_path, capsys, config) -> str:
    """Run bounds-and-budgets on a config that must fail with exit code 2,
    writing no report; return its one stderr line."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "bounds.json"
    args = ["bounds-and-budgets", "--config", str(path), "--seed", "3", "--out", str(out)]
    assert main(args + ["--horoball-samples", "500"]) == EXIT_USAGE
    assert not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize("eps", ["inf", "nan"])
def test_bounds_and_budgets_rejects_a_non_finite_slack(tmp_path, capsys, eps):
    """An infinite slack used to end FAIL with Infinity and NaN in the report."""
    assert "slack" in _bounds_and_budgets_error(tmp_path, capsys, {"eps": eps})


def test_bounds_and_budgets_rejects_an_overflowing_budget_length(tmp_path, capsys):
    """A tangle radius of 1e6 used to die with an OverflowError traceback."""
    error = _bounds_and_budgets_error(tmp_path, capsys, {"budget_lengths": [10.0, 1e6]})
    assert "tangle radius" in error


@pytest.mark.parametrize("lengths", [[10, 10, 15], [15, 10, 15.0]])
def test_bounds_and_budgets_rejects_repeated_budget_lengths(tmp_path, capsys, lengths):
    """Equal tangle radii give equal budgets, which used to be computed and
    then reported as not decreasing, ending FAIL with exit code 1."""
    error = _bounds_and_budgets_error(tmp_path, capsys, {"budget_lengths": lengths})
    assert "distinct" in error


# -- shared behavior ----------------------------------------------------------------


def test_unknown_config_keys_are_rejected(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bogus": 1}))
    assert main(["scattering", "--config", str(config)]) == EXIT_USAGE
    assert "bogus" in capsys.readouterr().err


def test_flags_override_config_values(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 10, "seed": 1}))
    out = tmp_path / "cover.json"
    args = ["cover", "--config", str(config), "--seed", "2", "--out", str(out)]
    assert main(args) == EXIT_OK
    report = _read_json(out)
    assert report["n"] == 10
    assert report["seed"] == 2


def test_reports_are_byte_identical_up_to_the_timestamp(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify-group", "--out", str(first)]) == EXIT_OK
    assert main(["verify-group", "--out", str(second)]) == EXIT_OK
    a, b = _read_json(first), _read_json(second)
    a.pop("timestamp")
    b.pop("timestamp")
    assert a == b


def test_unwritable_output_path_is_a_compute_error(tmp_path):
    target = tmp_path / "missing" / "report.json"
    assert main(["verify-group", "--out", str(target)]) == EXIT_COMPUTE
    assert not target.exists()


def test_seed_must_be_an_unsigned_64_bit_integer():
    assert main(["cover", "--n", "5", "--seed", "-1"]) == EXIT_USAGE
    assert main(["cover", "--n", "5", "--seed", str(2**64)]) == EXIT_USAGE


def test_horoball_check_fails_when_every_point_is_excluded(tmp_path):
    out = tmp_path / "bounds.json"
    args = ["bounds-and-budgets", "--seed", "3", "--horoball-samples", "500"]
    assert main(args + ["--exclusion-radius", "1e6", "--out", str(out)]) == EXIT_COMPUTE
    report = _read_json(out)
    assert report["horoball"]["n_checked"] == 0
    assert report["horoball_ok"] is False
    for radius in ("nan", "inf"):
        assert main(args + ["--exclusion-radius", radius]) == EXIT_USAGE


# -- parameter table ----------------------------------------------------------------


_COMMON_FLAGS = {"-h", "--help", "--config", "--seed", "--out", "--format"}
_COMMAND_FLAGS = {
    "verify-group": {"--corrupt-generator"},
    "scattering": {"--level", "--s-min", "--s-max", "--grid", "--oracle-radius", "--tolerance"},
    "delta": {"--group", "--word-length", "--base-point", "--window"},
    "cover": {"--n", "--walk-steps", "--bins"},
    "bounds-and-budgets": {
        "--lam", "--lam0", "--eps", "--horoball-samples", "--exclusion-radius"
    },
}


def test_each_subcommand_has_exactly_its_flags():
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(_COMMAND_FLAGS)
    for name, subparser in commands.choices.items():
        flags = {flag for action in subparser._actions for flag in action.option_strings}
        assert flags == _COMMON_FLAGS | _COMMAND_FLAGS[name], name
        choices = {
            action.option_strings[-1]: tuple(action.choices)
            for action in subparser._actions
            if action.choices is not None
        }
        expected = {"--format": ("json", "csv")}
        if name == "delta":
            expected["--group"] = ("ap", "sa", "inf")
        assert choices == expected, name


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("cover", {"n": 2.9, "seed": 1}, "n"),
        ("cover", {"n": True, "seed": 1}, "n"),
        ("delta", {"group": "ap", "word_length": 6.7, "seed": 1}, "word_length"),
        ("cover", {"n": 5, "seed": 1.5}, "seed"),
        ("cover", {"n": 5, "seed": True}, "seed"),
        ("cover", {"n": 5, "seed": "abc"}, "seed"),
        ("verify-group", {"out": 3.5}, "out"),
    ],
    ids=["n-fraction", "n-bool", "word-length-fraction", "seed-fraction", "seed-bool",
         "seed-text", "out-number"],
)
def test_config_values_are_cast_strictly(tmp_path, monkeypatch, capsys, command, config, key):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(config))
    args = [command, "--config", "config.json"]
    if key != "out":
        args += ["--out", "report.json"]
    assert main(args) == EXIT_USAGE
    assert f"bad value for {key}" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["config.json"]


def test_integral_config_floats_are_integers(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 10.0, "seed": 1}))
    out = tmp_path / "cover.json"
    assert main(["cover", "--config", str(config), "--out", str(out)]) == EXIT_OK
    assert _read_json(out)["num_vertices"] == 20
