"""Tests of the benchmark itself: python3 -m pytest bench/check_bench.py"""

import json
import math
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import traced  # noqa: E402


@pytest.fixture(autouse=True)
def work_dir():
    run.WORK.mkdir(parents=True, exist_ok=True)


def span(id_, parent, start, end):
    return {"id": id_, "parent": parent, "name": f"s{id_}", "start": start, "end": end}


def test_self_time_subtracts_only_direct_children():
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 4.0), span(2, 1, 2.0, 3.0), span(3, 0, 5.0, 9.0)]
    assert traced.self_times(spans) == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})


def test_tracer_records_parents_and_self_times_sum_to_the_root():
    tracer = traced.Tracer()
    with tracer.span("root"):
        with tracer.span("a") as counts:
            counts["items"] = 3
            with tracer.span("b"):
                time.sleep(0.001)
        with tracer.span("c"):
            pass
    parents = {s["name"]: s["parent"] for s in tracer.spans}
    assert parents == {"root": None, "a": 0, "b": 1, "c": 0}
    assert tracer.spans[1]["counts"] == {"items": 3}
    assert all(s["rss_kb"] >= s["rss_start_kb"] > 0 for s in tracer.spans)
    root = tracer.spans[0]
    assert sum(traced.self_times(tracer.spans).values()) == pytest.approx(root["end"] - root["start"])


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile(1) is None
    assert run.tail_percentile(99) is None
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(999) == 90.0
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(10000) == 99.9


def test_summary_reports_median_count_and_tail():
    assert run.summarize([3.0, 1.0, 2.0, 10.0]) == {"median": 2.5, "n": 4}
    summary = run.summarize([float(v) for v in range(100, 0, -1)])
    assert summary == {"median": 50.5, "n": 100, "p90": 90.0}


def test_a_failing_command_is_counted_not_raised():
    deadline = time.monotonic() + 60
    bad = run.run_command("verify_group", ["verify-group", "--corrupt-generator", "r2"], 7, deadline)
    good = run.run_command("verify_group", ["verify-group"], 7, deadline)
    assert bad["problems"] == ["exit code 1"]
    assert good["problems"] == []
    assert run.counts([bad, good]) == (2, 1)


def write(tmp_path, report):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    return path


def test_seeded_outputs_are_checked_at_the_default_seed_only(tmp_path):
    stored = run.reference()["default_seed"]["cover"]
    drifted = write(tmp_path, {"passed": True, "lambda1": stored["lambda1"] + 1e-6, "tangle_free_radius": 1})
    assert run.judge("cover", 0, drifted, run.DEFAULT_SEED)[0] == [
        f"lambda1 is {stored['lambda1'] + 1e-6}, stored value {stored['lambda1']}"
    ]
    assert run.judge("cover", 0, drifted, run.DEFAULT_SEED + 1) == ([], None)
    close = write(tmp_path, {"passed": True, "lambda1": stored["lambda1"] + 1e-10, "tangle_free_radius": 1})
    assert run.judge("cover", 0, close, run.DEFAULT_SEED) == ([], None)


def test_orbit_counts_and_accuracy_are_checked_at_every_seed(tmp_path):
    points = run.reference()["every_seed"]["delta_ap"]["orbit_points"]
    err = run.reference()["accuracy"]["delta_ap"]
    estimate = run.DELTA_REFERENCE["delta_ap"] - err
    ok = write(tmp_path, {"passed": True, "orbit_points": points, "estimate": estimate})
    assert run.judge("delta_ap", 0, ok, 12345) == ([], pytest.approx(err))
    worse = write(tmp_path, {"passed": True, "orbit_points": points + 1, "estimate": estimate - 0.2 * err})
    problems, _ = run.judge("delta_ap", 0, worse, 12345)
    assert len(problems) == 2
    failed = write(tmp_path, {"passed": False, "orbit_points": points, "estimate": estimate})
    assert run.judge("delta_ap", 0, failed, 12345)[0] == ["report says passed is not true"]


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("radius", [10.0, 17.5, 24.0])
def test_oracle_class_count_matches_the_library(level, radius):
    from octagap import spectral

    norms, _ = spectral._scattering_counts(level, int(radius * radius + 1e-9))
    assert run.oracle_classes(level, radius) == len(norms)


def test_import_times_sum_the_outermost_imports_of_a_package():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     numpy.core",
            "import time:       200 |        300 |   numpy",
            "import time:        50 |         50 |     scipy.linalg",
            "import time:        10 |         60 |   scipy.sparse",
            "import time:       500 |        860 | octagap.covers",
            "import time:        40 |         40 | scipy.integrate",
        ]
    )
    times = run.import_times(text, ("numpy", "scipy", "octagap.covers"))
    assert times == pytest.approx({"numpy": 300e-6, "scipy": 100e-6, "octagap.covers": 860e-6})


def test_traced_command_records_library_spans_under_the_cli_span():
    row = run.run_command("cover", ["cover", "--n", "20", "--seed", "1"], 1, time.monotonic() + 60, traced=True)
    assert row["problems"] == []
    names = [s["name"] for s in row["spans"]]
    assert names[0] == "cli.cover"
    assert {"covers.sample_cover", "covers.graph_lambda1", "covers.tangle_free_radius"} <= set(names)
    assert all(s["parent"] == 0 for s in row["spans"][1:])
    assert next(s for s in row["spans"] if s["name"] == "covers.dual_graph")["counts"] == {"vertices": 40}
    assert math.isfinite(run.layer_metrics({w: [row] if w == "cover" else [] for w in run.WORKLOADS})[
        "covers.graph_lambda1_s.cover"
    ][0])
