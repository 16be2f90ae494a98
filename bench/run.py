"""Benchmark of the octagap command line, end to end and layer by layer.

    python3 bench/run.py --workload orbit --seed 7 --seconds 24 --trace 0
    python3 bench/run.py --workload all            # every workload, one table
    python3 bench/run.py --workload all --trace 1  # per-layer metrics, overheads
    python3 -m pytest bench/check_bench.py         # the benchmark's own tests

Run it from anywhere; it benchmarks the ``src/`` tree next to ``bench/``.
Each workload is a closed loop with one client: the commands below run one
at a time, each as ``python3 -m octagap.cli`` in a fresh interpreter, and the
loop repeats while another pass is expected to end within half a pass of
``--seconds``.  Children run with BLAS and OpenMP pinned to one thread.  The
benchmark seed feeds ``cover`` and ``bounds-and-budgets``; ``delta`` takes
``--seed 1`` as in the README (it draws nothing at random) and
``scattering`` takes no seed.

Workloads, and why each was chosen:

* ``orbit``: ``delta`` for the face subgroup, the full group and the kernel.
  This is the vectorized orbit walker, about 85% of the CLI's wall time and
  its 2.2 GB memory peak.
* ``oracle``: ``scattering`` at level 1 (radius 80) and level 2 (radius 120),
  the Theta(R^4) Euclid counting oracle.  Radius 80 keeps the README's code
  path at a sixth of its cost.
* ``cover``: one cover with n = 3000 (6000 vertices): sparse ``eigsh``
  and the all-pairs tangle-free radius.
* ``checks``: ``verify-group``, ``bounds-and-budgets`` and a small cover
  with a 50-step switching walk: exact ``group`` arithmetic, the per-point
  horoball check, the dense eigenvalue path, and three interpreter start-ups.

End-to-end metrics (``--trace 0``), all per workload: ``wall_s`` (spawn to
exit, summed over one pass of the commands, median over passes), ``cpu_s``
(user plus system time of the children, read per child with ``os.wait4``),
``peak_rss_mb`` (largest per-child high-water mark of a pass, median over
passes) and ``setup_s`` (median over fresh interpreters that only import
``octagap.cli``, one after every command).  The table also shows
``failed_frac`` and, for ``orbit`` and ``oracle``, the accuracy against the
closed forms.  Accuracy is not a JSON metric, because every JSON metric must
exist on every workload; the correctness gate guards it instead.

A command fails, and is counted, not raised, when it exits non-zero, its
report says ``"passed": false``, an output that does not depend on the seed
differs from ``reference.json`` (orbit point counts), an accuracy is worse
than the stored one by more than ``ACCURACY_SLACK``, or, at the default seed,
a seeded output differs from ``reference.json`` (cover lambda1 and walk
series to ``FLOAT_TOLERANCE``, tangle radius and signing hashes exactly).

The traced run (``--trace 1``) gives the per-layer metrics.  Every traced
run reports every per-layer metric, so each one traces the commands of all
four workloads (see ``traced.py``), times fresh imports
under ``python -X importtime``, and runs the chosen workload once more
untraced: its traced minus untraced wall time is ``trace.overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record with
machine facts, every command's timings and the spans is written to
``bench/results/``; reports and stderr of the children go to ``bench/.work/``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from traced import self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
RESULTS = BENCH / "results"
#: The seed at which ``reference.json`` stored its seeded outputs.
DEFAULT_SEED = 7
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_IMPORTS = 5
IMPORTTIME_PROBES = 3
#: Children still running this long after the benchmark started are killed.
RUN_LIMIT_S = 170.0
FLOAT_TOLERANCE = 1e-9
#: An accuracy may be this share worse than the stored one before it fails.
ACCURACY_SLACK = 0.1
WORKLOADS = ("orbit", "oracle", "cover", "checks")
IMPORTED_MODULES = ("numpy", "scipy", "octagap.geometry", "octagap.covers", "octagap.spectral")

#: Closed forms the accuracy metrics compare against.
DELTA_REFERENCE = {"delta_ap": 1.30568672804987718, "delta_sa": 2.0}
ACCURACY_NAMES = {
    "delta_ap": "delta_ap_abs_err",
    "delta_sa": "delta_sa_abs_err",
    "scattering_l1": "oracle_max_relgap",
    "scattering_l2": "oracle_max_relgap",
}

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def workload_commands(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """The (key, argv) pairs of one pass of a workload."""
    s = str(seed)
    return {
        "orbit": [
            ("delta_ap", ["delta", "--group", "ap", "--seed", "1"]),
            ("delta_sa", ["delta", "--group", "sa", "--seed", "1"]),
            ("delta_inf", ["delta", "--group", "inf", "--seed", "1"]),
        ],
        "oracle": [
            ("scattering_l1", ["scattering", "--oracle-radius", "80"]),
            ("scattering_l2", ["scattering", "--level", "2", "--oracle-radius", "120"]),
        ],
        "cover": [("cover", ["cover", "--n", "3000", "--seed", s])],
        "checks": [
            ("verify_group", ["verify-group"]),
            ("bounds", ["bounds-and-budgets", "--seed", s]),
            ("cover_walk", ["cover", "--n", "300", "--walk-steps", "50", "--seed", s]),
        ],
    }[workload]


# -- statistics ---------------------------------------------------------------

#: Tail percentiles in tenths of a percent, highest first.
TAIL_PERMILLE = (999, 990, 900)
TAIL_BEYOND = 10


def rank(permille: int, n: int) -> int:
    """Nearest-rank position (1-based) of a percentile among n samples."""
    return -(-permille * n // 1000)


def tail_percentile(n: int) -> float | None:
    """Highest percentile with at least ten of ``n`` samples beyond it."""
    for permille in TAIL_PERMILLE:
        if n - rank(permille, n) >= TAIL_BEYOND:
            return permille / 10
    return None


def summarize(values: list[float]) -> dict:
    """Median, sample count, and the tail percentile when there is one."""
    ordered = sorted(values)
    summary = {"median": statistics.median(ordered), "n": len(ordered)}
    p = tail_percentile(len(ordered))
    if p is not None:
        summary[f"p{p:g}"] = ordered[rank(round(p * 10), len(ordered)) - 1]
    return summary


def describe(summary: dict) -> str:
    tails = [f"{k} {v:.6g}" for k, v in summary.items() if k.startswith("p")]
    tail = tails[0] if tails else f"no tail percentile under {TAIL_BEYOND * 10} samples"
    return f"median of n={summary['n']}; {tail}"


# -- child processes ----------------------------------------------------------


@dataclass(frozen=True)
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def spawn(args: list[str], deadline: float, stdout: Path | None = None, stderr: Path | None = None) -> Child:
    """Run ``python3 *args`` to completion and read its own rusage.

    ``os.wait4`` gives this child's CPU time and high-water mark alone;
    ``RUSAGE_CHILDREN`` would carry the largest child seen so far.  A child
    still running at ``deadline`` (a ``time.monotonic`` value) is killed.
    """
    actions = []
    for fd, path in ((1, stdout), (2, stderr)):
        target = os.devnull if path is None else str(path)
        actions.append((os.POSIX_SPAWN_OPEN, fd, target, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644))
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], child_env(), file_actions=actions)
    reaped = False
    try:
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(deadline - time.monotonic(), 0.0))
        finally:
            os.close(pidfd)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return Child(
        code=os.waitstatus_to_exitcode(status),
        wall_s=time.perf_counter() - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


# -- correctness gate ---------------------------------------------------------


def same(want, got) -> bool:
    if isinstance(want, float):
        return isinstance(got, (int, float)) and abs(got - want) <= FLOAT_TOLERANCE
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(same, want, got))
    return want == got


@functools.cache
def reference() -> dict:
    """Outputs stored at the commit that defined the benchmark."""
    return json.loads((BENCH / "reference.json").read_text())


def accuracy(key: str, report: dict) -> float:
    if key in DELTA_REFERENCE:
        return abs(report["estimate"] - DELTA_REFERENCE[key])
    return report["max_relgap"]


def judge(key: str, code: int, report_path: Path, seed: int) -> tuple[list[str], float | None]:
    """Problems with one command's outcome, and its accuracy if it has one."""
    if code != 0:
        return [f"exit code {code}"], None
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as exc:
        return [f"no readable report: {exc}"], None
    problems = [] if report.get("passed") is True else ["report says passed is not true"]
    expected = dict(reference()["every_seed"].get(key, {}))
    if seed == DEFAULT_SEED:
        expected.update(reference()["default_seed"].get(key, {}))
    for field, want in expected.items():
        got = report
        for part in field.split("."):
            got = got.get(part) if isinstance(got, dict) else None
        if not same(want, got):
            problems.append(f"{field} is {str(got)[:80]}, stored value {str(want)[:80]}")
    value = None
    if key in ACCURACY_NAMES:
        try:
            value = float(accuracy(key, report))
        except (KeyError, TypeError, ValueError) as exc:
            return problems + [f"no accuracy in report: {exc!r}"], None
        stored = reference()["accuracy"][key]
        if not value <= stored * (1.0 + ACCURACY_SLACK):
            problems.append(f"{ACCURACY_NAMES[key]} {value:.6g} is worse than stored {stored:.6g}")
    return problems, value


def run_command(key: str, argv: list[str], seed: int, deadline: float, traced: bool = False) -> dict:
    """Run one CLI command in a fresh interpreter and judge its outcome."""
    report = WORK / f"{key}.json"
    spans_path = WORK / f"{key}.spans.json"
    err = WORK / f"{key}.err"
    for path in (report, spans_path):
        path.unlink(missing_ok=True)
    cli_args = [*argv, "--out", str(report)]
    if traced:
        args = [str(BENCH / "traced.py"), str(spans_path), "--", *cli_args]
    else:
        args = ["-m", "octagap.cli", *cli_args]
    child = spawn(args, deadline, stderr=err)
    problems, value = judge(key, child.code, report, seed)
    row = {
        "command": key,
        "argv": argv,
        "wall_s": child.wall_s,
        "cpu_s": child.cpu_s,
        "rss_mb": child.rss_mb,
        "accuracy": value,
        "problems": problems,
    }
    if traced:
        try:
            row["spans"] = json.loads(spans_path.read_text())["spans"]
        except (OSError, ValueError, KeyError) as exc:
            row["spans"] = []
            problems.append(f"no spans: {exc}")
    for problem in problems:
        print(f"FAILED {key}: {problem}", file=sys.stderr)
    if problems and err.exists():
        sys.stderr.write(err.read_text()[-2000:])
    return row


def run_pass(workload: str, seed: int, deadline: float, traced: bool = False) -> list[dict]:
    return [run_command(key, argv, seed, deadline, traced) for key, argv in workload_commands(workload, seed)]


# -- end to end ---------------------------------------------------------------


def setup_time(deadline: float) -> float:
    """Wall time of a fresh interpreter that imports the CLI and exits."""
    child = spawn(["-c", "import octagap.cli"], deadline)
    if child.code != 0:
        raise SystemExit(f"error: importing octagap.cli failed with exit code {child.code}")
    return child.wall_s


def measure_workload(workload: str, seed: int, seconds: float, deadline: float) -> tuple[list[list[dict]], list[float]]:
    """Closed loop of passes over the workload's commands, and set-up times.

    Another pass starts while it is expected to end no later than half a
    pass after ``seconds``.  One set-up import follows every command, so the
    set-up samples spread over the whole run, and imports after the loop
    bring them up to ``SETUP_IMPORTS``.
    """
    passes, setup = [], []
    start = time.monotonic()
    while True:
        pass_start = time.monotonic()
        rows = []
        for key, argv in workload_commands(workload, seed):
            rows.append(run_command(key, argv, seed, deadline))
            setup.append(setup_time(deadline))
        passes.append(rows)
        now = time.monotonic()
        last = now - pass_start
        if now - start + last / 2 > seconds or now + last > deadline:
            break
    while len(setup) < SETUP_IMPORTS:
        setup.append(setup_time(deadline))
    return passes, setup


def end_to_end(passes: list[list[dict]], setup: list[float]) -> dict[str, dict]:
    """Summary of each end-to-end metric; its value is the median."""
    return {
        "wall_s": summarize([sum(r["wall_s"] for r in rows) for rows in passes]),
        "cpu_s": summarize([sum(r["cpu_s"] for r in rows) for rows in passes]),
        "peak_rss_mb": summarize([max(r["rss_mb"] for r in rows) for rows in passes]),
        "setup_s": summarize(setup),
    }


def accuracies(rows: list[dict]) -> dict[str, float]:
    found: dict[str, float] = {}
    for row in rows:
        if row["accuracy"] is not None:
            name = ACCURACY_NAMES[row["command"]]
            found[name] = max(found.get(name, 0.0), row["accuracy"])
    return found


def counts(rows: list[dict]) -> tuple[int, int]:
    return len(rows), sum(1 for r in rows if r["problems"])


# -- per layer ----------------------------------------------------------------


def oracle_classes(level: int, radius: float) -> int:
    """Lattice points x >= 1, y >= 0 with x^2 + y^2 <= floor(R^2 / level^2)."""
    cut = int(radius * radius + 1e-9) // (level * level)
    return sum(math.isqrt(cut - x * x) + 1 for x in range(1, math.isqrt(cut) + 1))


def import_times(text: str, modules=IMPORTED_MODULES) -> dict[str, float]:
    """Seconds spent importing each module, from ``-X importtime`` output.

    A module's figure is the cumulative time of its outermost imports, so
    ``scipy`` sums every ``scipy.*`` import that no other ``scipy`` import
    pulled in.  The output lists children before their parent, indented
    two spaces per level.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, int(cumulative) * 1e-6, name.strip()))
    totals = dict.fromkeys(modules, 0.0)
    ancestors: list[str] = []

    def inside(name: str, module: str) -> bool:
        return name == module or name.startswith(module + ".")

    for depth, seconds, name in reversed(entries):
        del ancestors[depth:]
        for module in modules:
            if inside(name, module) and not any(inside(a, module) for a in ancestors):
                totals[module] += seconds
        ancestors.append(name)
    return totals


def layer_metrics(traced: dict[str, list[dict]]) -> dict[str, tuple[float, str]]:
    """Per-layer (value, unit) pairs from the spans of each workload's traced commands."""

    def spans(workload: str, name: str) -> list[dict]:
        return [s for row in traced[workload] for s in row["spans"] if s["name"] == name]

    def total(workload: str, name: str) -> float:
        return sum(s["end"] - s["start"] for s in spans(workload, name))

    def per(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    m: dict[str, tuple[float, str]] = {}
    for s in spans("orbit", "geometry.orbit_ball"):
        group, points = s["counts"]["group"], s["counts"]["points"]
        seconds = s["end"] - s["start"]
        growth = 1024.0 * (s["rss_kb"] - s["rss_start_kb"])
        m[f"geometry.orbit_ball_s.{group}"] = (seconds, "s")
        m[f"geometry.orbit_ball.points.{group}"] = (points, "count")
        m[f"geometry.orbit_ball.points_per_s.{group}"] = (per(points, seconds), "points/s")
        m[f"geometry.orbit_ball.peak_rss_mb.{group}"] = (s["rss_kb"] / 1024.0, "MB")
        m[f"geometry.orbit_ball.bytes_per_point.{group}"] = (per(growth, points), "B/point")
        if group == "kernel":
            kept = per(points, s["counts"]["enumerated"])
            m["geometry.orbit_ball.kernel_kept_ratio"] = (kept, "ratio")
    m["geometry.estimate_critical_exponent_s"] = (total("orbit", "geometry.estimate_critical_exponent"), "s")
    horoball = total("checks", "geometry.horoball_cover_check")
    samples = sum(s["counts"]["samples"] for s in spans("checks", "geometry.horoball_cover_check"))
    m["geometry.horoball_cover_check_s"] = (horoball, "s")
    m["geometry.horoball_cover_check.samples_per_s"] = (per(samples, horoball), "samples/s")
    m["geometry.cap_volume_s"] = (total("checks", "geometry.cap_volume"), "s")

    # verify-group makes its process's only call, so the cached group is cold.
    m["group.octa_symmetry_group_s"] = (total("checks", "group.octa_symmetry_group"), "s")
    products = len(spans("checks", "group.ProjIsom.__mul__"))
    m["group.projisom_products"] = (products, "count")
    m["group.projisom_products_per_s"] = (
        per(products, total("checks", "group.ProjIsom.__mul__")),
        "products/s",
    )

    warm = []
    for row in traced["oracle"]:
        calls = [s for s in row["spans"] if s["name"] == "spectral.scattering_oracle_value"]
        if not calls:
            continue
        # Each command is a fresh process: its first oracle call builds the counts.
        cold = calls[0]
        level = cold["counts"]["level"]
        classes = oracle_classes(level, cold["counts"]["radius"])
        seconds = cold["end"] - cold["start"]
        m[f"spectral.scattering_oracle_value_s.cold.level{level}"] = (seconds, "s")
        m[f"spectral.oracle.classes.level{level}"] = (classes, "count")
        m[f"spectral.oracle.classes_per_s.level{level}"] = (per(classes, seconds), "classes/s")
        warm.extend(s["end"] - s["start"] for s in calls[1:])
    if warm:
        m["spectral.scattering_oracle_value_s.warm"] = (statistics.median(warm), "s")
    for name, workload in (
        ("scattering_pole_scan", "oracle"),
        ("scattering_coefficient", "oracle"),
        ("flattening_budget", "checks"),
    ):
        m[f"spectral.{name}_s"] = (total(workload, f"spectral.{name}"), "s")

    for workload in ("cover", "checks"):
        for name in ("sample_cover", "dual_graph", "is_connected", "graph_lambda1", "tangle_free_radius"):
            m[f"covers.{name}_s.{workload}"] = (total(workload, f"covers.{name}"), "s")
        vertices = sum(s["counts"]["vertices"] for s in spans(workload, "covers.dual_graph"))
        m[f"covers.vertices.{workload}"] = (vertices, "count")
        layer = [s for row in traced[workload] for s in row["spans"] if s["name"].startswith("covers.")]
        if layer:
            growth = max(s["rss_kb"] for s in layer) - min(s["rss_start_kb"] for s in layer)
            m[f"covers.rss_growth_mb.{workload}"] = (growth / 1024.0, "MB")
    walk = total("checks", "covers.switching_walk")
    entries = sum(s["counts"]["entries"] for s in spans("checks", "covers.switching_walk"))
    m["covers.switching_walk_s"] = (walk, "s")
    m["covers.walk_step_s"] = (per(walk, entries), "s")

    for workload, rows in traced.items():
        own = 0.0
        for row in rows:
            selfs = self_times(row["spans"])
            own += sum(selfs[s["id"]] for s in row["spans"] if s["parent"] is None)
        m[f"cli.self_s.{workload}"] = (own, "s")
    return m


def trace_run(overhead_for: tuple[str, ...], seed: int, deadline: float) -> tuple[dict, list[dict], dict]:
    """Per-layer metrics, every command row, and the raw spans."""
    probes = []
    for index in range(IMPORTTIME_PROBES):
        err = WORK / f"importtime{index}.err"
        child = spawn(["-X", "importtime", "-c", "import octagap.cli"], deadline, stderr=err)
        if child.code != 0:
            raise SystemExit(f"error: importing octagap.cli failed with exit code {child.code}")
        probes.append(import_times(err.read_text()))
    untraced = {w: run_pass(w, seed, deadline) for w in overhead_for}
    traced = {w: run_pass(w, seed, deadline, traced=True) for w in WORKLOADS}

    metrics = layer_metrics(traced)
    for module in IMPORTED_MODULES:
        metrics[f"import.{module}_s"] = (statistics.median(p[module] for p in probes), "s")
    for w in overhead_for:
        name = "trace.overhead_s" if len(overhead_for) == 1 else f"trace.overhead_s.{w}"
        traced_wall = sum(r["wall_s"] for r in traced[w])
        metrics[name] = (traced_wall - sum(r["wall_s"] for r in untraced[w]), "s")
    rows = [r for w in overhead_for for r in untraced[w]] + [r for w in WORKLOADS for r in traced[w]]
    spans = {f"{w}.{r['command']}": r.pop("spans") for w in WORKLOADS for r in traced[w]}
    return metrics, rows, spans


# -- run record ---------------------------------------------------------------

PROBE = """
import json, platform, numpy, scipy, octagap, octagap.cli
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except (AttributeError, KeyError, TypeError) as exc:
    blas = f"unknown ({exc!r})"
print(json.dumps({"octagap_file": octagap.__file__, "python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}))
"""


def provenance(deadline: float) -> dict:
    """Machine and software facts; the probe also warms the bytecode cache."""
    out = WORK / "probe.out"
    child = spawn(["-c", PROBE], deadline, stdout=out, stderr=WORK / "probe.err")
    if child.code != 0:
        raise SystemExit(f"error: cannot import octagap from {ROOT / 'src'} (see {WORK / 'probe.err'})")
    facts = json.loads(out.read_text())
    if not Path(facts["octagap_file"]).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"error: octagap was imported from {facts['octagap_file']}, not {ROOT / 'src'}")
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    revision = None
    if (ROOT / ".git").exists():
        result = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
        revision = result.stdout.strip() or None
    facts.update(
        {
            "nproc": len(os.sched_getaffinity(0)),
            "ram_gb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30,
            "cpu_model": cpu_model,
            "platform": platform.platform(),
            "threads": THREAD_ENV,
            "git_revision": revision,
        }
    )
    return facts


def print_metric(workload: str, name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{workload:>7}  {name:<52} {value:>14.6g} {unit:<10} {note}".rstrip())


# -- main ---------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "octagap" / "cli.py").is_file():
        print(f"error: no octagap sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S * (len(WORKLOADS) if args.workload == "all" else 1)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    WORK.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    facts = provenance(deadline)
    print(
        f"octagap {facts['git_revision'] or 'checkout'} | {facts['nproc']} cpus {facts['cpu_model']} | "
        f"{facts['ram_gb']:.1f} GiB | python {facts['python']} numpy {facts['numpy']} "
        f"scipy {facts['scipy']} {facts['blas']} | {' '.join(f'{k}={v}' for k, v in THREAD_ENV.items())} "
        f"| seed {args.seed}"
    )
    record = {"argv": sys.argv, "seed": args.seed, "seconds": args.seconds, "provenance": facts}

    metrics: dict[str, dict] = {}
    if args.trace:
        values, rows, spans = trace_run(workloads, args.seed, deadline)
        for name, (value, unit) in values.items():
            metrics[name] = {"value": value, "unit": unit}
            print_metric("traced", name, value, unit)
        record.update(rows=rows, spans=spans)
    else:
        rows = []
        for workload in workloads:
            passes, setup = measure_workload(workload, args.seed, args.seconds, deadline)
            workload_rows = [r for rows_ in passes for r in rows_]
            rows.extend(workload_rows)
            prefix = "" if len(workloads) == 1 else f"{workload}."
            for name, summary in end_to_end(passes, setup).items():
                metrics[prefix + name] = {"value": summary["median"], "unit": E2E_UNITS[name]}
                print_metric(workload, name, summary["median"], E2E_UNITS[name], describe(summary))
            attempted, failed = counts(workload_rows)
            print_metric(workload, "failed_frac", failed / attempted, "ratio", f"{failed} of {attempted} commands")
            for name, value in accuracies(passes[-1]).items():
                print_metric(workload, name, value, "abs" if name.startswith("delta") else "rel")
        record["rows"] = rows
    attempted, failed = counts(rows)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    name = f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
