"""Golden reports: each README and benchmark command, and one failing run,
repeats its exit code, stdout, stderr and JSON report (up to the timestamp)
exactly.  ``python tools/golden.py --write`` regenerates the files."""

import importlib.util
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", _TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.mark.parametrize("stem", list(golden.COMMANDS))
def test_report_matches_its_golden_file(stem):
    expected = (golden.GOLDEN / f"{stem}.txt").read_text()
    assert golden.run(golden.COMMANDS[stem]) == expected


def test_every_bench_command_has_a_golden_file(monkeypatch):
    """Each argv that ``bench/run.py`` runs is a golden command, so a change
    to a benchmarked report shows in the golden diff."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))  # run.py imports traced
    spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    golden_argvs = list(golden.COMMANDS.values())
    for workload in run.WORKLOADS:
        for _, argv in run.workload_commands(workload, run.DEFAULT_SEED):
            assert argv in golden_argvs, f"{workload}: {argv} has no golden file"
