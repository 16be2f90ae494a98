"""Run one octagap CLI command in-process with a span around each library call.

Usage (the benchmark spawns this, one fresh interpreter per command):

    python3 bench/traced.py SPANS.json -- delta --group ap --seed 1 --out r.json

``cli.main(argv)`` runs under a ``cli.<command>`` span.  The public library
functions that ``cli.py`` calls are replaced, as module attributes, by
wrappers that open a child span.  Per-point helpers (``apply_isom``,
``dist``, ``in_standard_horoball``) are never wrapped: a bounds run calls
them about 700k times.  Each span records its parent id, its counts, and the
process's ``ru_maxrss`` at its start and end.  Spans stay in memory and are
written to SPANS.json when the command ends; the exit code is the CLI's.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import time
from contextlib import contextmanager


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory span recorder for one thread of calls."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record a span; yields its counts dict, which may be filled later."""
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "counts": {},
            "rss_start_kb": _maxrss_kb(),
            "start": time.perf_counter(),
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            record["rss_kb"] = _maxrss_kb()
            self._open.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a traced call.

        ``count(bound_arguments, result)`` runs after the span has closed, so
        the work it does to derive counts is not timed.
        """
        original = getattr(owner, attr)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = original(*args, **kwargs)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts.update(count(bound.arguments, result))
            return result

        setattr(owner, attr, traced)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children of a span never overlap and the
    part of its interval they cover is the sum of their durations.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def install(tracer: Tracer) -> None:
    """Wrap the library functions that the CLI handlers call."""
    from octagap import covers, geometry, group, spectral, words

    def orbit_counts(args, ball):
        counts = {"group": args["group"], "points": ball.count}
        if args["group"] == "kernel":
            # The kernel walk enumerates the whole full-group ball and keeps a few.
            counts["enumerated"] = words.racg_ball_count(args["max_len"])
        return counts

    for name, count in (
        ("orbit_ball", orbit_counts),
        ("estimate_critical_exponent", lambda a, fit: {"fit_points": fit.n_points}),
        ("horoball_cover_check", lambda a, rep: {"samples": rep.n_checked}),
        ("cap_volume", None),
    ):
        tracer.wrap(geometry, name, f"geometry.{name}", count)
    for name, count in (
        ("scattering_coefficient", None),
        (
            "scattering_oracle_value",
            lambda a, value: {"level": a["level"], "radius": a["radius"]},
        ),
        ("scattering_pole_scan", None),
        ("flattening_budget", None),
    ):
        tracer.wrap(spectral, name, f"spectral.{name}", count)
    for name, count in (
        ("sample_cover", None),
        ("dual_graph", lambda a, graph: {"vertices": graph.num_vertices}),
        ("is_connected", None),
        ("graph_lambda1", None),
        ("tangle_free_radius", None),
        ("switching_walk", lambda a, walk: {"entries": len(walk)}),
        ("walk_summary", None),
    ):
        tracer.wrap(covers, name, f"covers.{name}", count)
    tracer.wrap(group, "octa_symmetry_group", "group.octa_symmetry_group")
    tracer.wrap(group.ProjIsom, "__mul__", "group.ProjIsom.__mul__")


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: traced.py SPANS.json -- COMMAND [ARGS...]", file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[0], argv[2:]
    from octagap import cli

    tracer = Tracer()
    install(tracer)
    with tracer.span(f"cli.{cli_argv[0]}"):
        code = cli.main(cli_argv)
    with open(spans_path, "w") as handle:
        json.dump({"exit_code": code, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
