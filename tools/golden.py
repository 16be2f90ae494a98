"""Golden reports of the command line: one file per command under tests/golden/.

Each file holds one run of ``octagap.cli.main`` in this process: its argv,
exit code, stdout, stderr, and the JSON report text without its timestamp
line.  ``tests/test_golden.py`` reruns every command in ``COMMANDS`` and
compares the text exactly.  A change that moves a number on purpose
rewrites the files, so the move shows in the diff:

    python tools/golden.py --write
"""

import argparse
import io
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

#: File stem -> argv (without ``--out``): the README and benchmark runs, and
#: one run whose check fails.
COMMANDS = {
    "verify-group": ["verify-group"],
    "scattering-readme": [
        "scattering", "--s-min", "2.5", "--s-max", "4.0", "--grid", "10",
        "--oracle-radius", "120",
    ],
    "scattering-level1": ["scattering", "--oracle-radius", "80"],
    "scattering-level2": ["scattering", "--level", "2", "--oracle-radius", "120"],
    "delta-ap": ["delta", "--group", "ap", "--seed", "1"],
    "delta-sa": ["delta", "--group", "sa", "--seed", "1"],
    "delta-inf": ["delta", "--group", "inf", "--seed", "1"],
    "delta-inf-fails": ["delta", "--group", "inf", "--word-length", "6", "--window", "2,3"],
    "cover-readme": ["cover", "--n", "200", "--seed", "7", "--walk-steps", "50"],
    "cover-3000": ["cover", "--n", "3000", "--seed", "7"],
    "cover-walk": ["cover", "--n", "300", "--walk-steps", "50", "--seed", "7"],
    "bounds-readme": ["bounds-and-budgets", "--seed", "3"],
    "bounds-bench": ["bounds-and-budgets", "--seed", "7"],
}


def run(argv: list[str]) -> str:
    """The golden text of one run of the command line."""
    from octagap.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main([*argv, "--out", str(out)])
        report = out.read_text() if out.exists() else ""
    kept = [line for line in report.splitlines(True) if not line.startswith('  "timestamp": ')]
    return (
        f"argv: {shlex.join(argv)}\nexit: {code}\n"
        f"--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}"
        f"--- report\n{''.join(kept)}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", required=True, help="rewrite every file")
    parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for stem, argv in COMMANDS.items():
        (GOLDEN / f"{stem}.txt").write_text(run(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
