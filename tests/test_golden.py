"""Golden reports: each README and benchmark command, and one failing run,
repeats its exit code, stdout, stderr and JSON report (up to the timestamp)
exactly.  ``python tools/golden.py --write`` regenerates the files."""

import importlib.util
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
