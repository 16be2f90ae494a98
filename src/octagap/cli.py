"""Batch command line front end.

One subcommand per computational story: exact group verification, scattering
formula against the lattice oracle, critical-exponent estimates, random cover
experiments, and the cap-volume, flattening-budget, and horoball-cover
checks.  Every run is reproducible from its seed, parameters may come from a
JSON config file (flags override, unknown keys are rejected), and reports are
written as JSON (schema version field, deterministic key order) or CSV (comma
separator, '.' decimal point, mandatory header, 12 significant digits).

``_PARAM_SPECS`` is the one declaration of the parameters: per subcommand,
each name maps to its caster, its default, and the keyword arguments of its
flag (None for a config-only key).  The parser is built from it, and flag
strings and config values pass through the same strict caster.  Range checks
that the library already makes are left to the library's ``DomainError``.

Each handler imports the layers it runs, so a command loads no numpy or
library module it does not use, and no command loads scipy.  Handlers call
the layers through their modules (``covers.graph_lambda1(...)``), which the
benchmark's tracer wraps.

One report path serves every command.  A handler ``_cmd_*`` computes,
prints its summary and verdict lines, and returns ``(fields, table)``: the
report fields, plain Python values with ``passed`` among them, and the CSV
header and rows.  ``main`` alone adds ``schema``, ``command`` and ``timestamp``,
writes the JSON report or the CSV table to ``--out``, and maps ``passed`` to
the exit code.  ``tests/golden/`` pins the report, stdout and stderr of the
README and benchmark commands (``tools/golden.py --write`` regenerates them).

Exit codes: 0 when all checks of the subcommand pass, 1 for a computational
failure or a failed check, 2 for invalid input.  Output files are written
only after a computation finishes, so invalid input and mid-run failures
never leave partial files behind.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys

from .errors import DomainError, OctagapError, PoleError, check_bytes

__all__ = ["main"]

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_USAGE = 2


# Casters take a flag string or a JSON value and raise ValueError on misfit.


def _integer(value) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _seed(value) -> int:
    seed = _integer(value)
    if not 0 <= seed < 2**64:
        raise ValueError(f"must fit an unsigned 64-bit integer, got {seed}")
    return seed


def _one_of(*choices: str):
    def cast(value) -> str:
        if value not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, got {value!r}")
        return value

    cast.choices = choices
    return cast


def _numbers(length: int | None = None):
    """Caster for a list of numbers, given as "a,b,..." or as a JSON list."""

    def cast(value) -> tuple[float, ...]:
        parts = value.split(",") if isinstance(value, str) else value
        if not isinstance(parts, (list, tuple)) or not parts or length not in (None, len(parts)):
            count = "a nonempty list of" if length is None else length
            raise ValueError(f"expected {count} numbers, got {value!r}")
        return tuple(_real(v) for v in parts)

    return cast


def _area_table(value) -> tuple[tuple[float, ...], ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"expected a nonempty list of area rows, got {value!r}")
    return tuple(_numbers()(row) for row in value)


#: Per delta group token: orbit group, default word length, exponent band.
#: The kernel's band is the bound behind the upper gap, delta_kernel >=
#: 2 - delta_face / 2, which ``_cmd_delta`` reads from the geometry layer.
_DELTA_GROUPS = {
    "ap": ("free", 14, (1.15, 1.45)),
    "sa": ("full", 10, (1.6, 2.0)),
    "inf": ("kernel", 10, None),
}

_COMMON_SPECS = {
    "seed": (_seed, None, {"help": "RNG seed (u64)"}),
    "out": (_text, None, {"help": "output file path"}),
    "format": (_one_of("json", "csv"), "json", {"help": "output format"}),
}

#: Per subcommand: name -> (caster, default, flag keyword arguments or None
#: for a config-only key).  Config files may set exactly these keys.
_PARAM_SPECS: dict[str, dict[str, tuple]] = {
    "verify-group": {
        "corrupt_generator": (_text, None, {"help": argparse.SUPPRESS}),
    },
    "scattering": {
        "level": (_integer, 1, {}),
        "s_min": (_real, 2.2, {}),
        "s_max": (_real, 4.0, {}),
        "grid": (_integer, 10, {}),
        "oracle_radius": (_real, 120.0, {}),
        "tolerance": (_real, 1e-3, {}),
    },
    "delta": {
        "group": (_one_of(*_DELTA_GROUPS), "sa", {}),
        "word_length": (_integer, None, {}),
        "base_point": (_numbers(3), None, {"help": "x,y,t"}),
        "window": (_numbers(2), None, {"help": "Tmin,Tmax"}),
    },
    "cover": {
        "n": (_integer, None, {}),
        "walk_steps": (_integer, 0, {}),
        "bins": (_integer, 20, {}),
    },
    "bounds-and-budgets": {
        "cap_radii": (_numbers(), (0.5, 1.0, 1.5, 2.0, 2.5, 3.0), None),
        "cap_separations": (_numbers(), (0.5, 1.0, 2.0), None),
        "budget_lengths": (_numbers(), (10.0, 15.0, 20.0, 25.0), None),
        "lam": (_real, 0.4, {}),
        "lam0": (_real, 0.8, {}),
        "eps": (_real, 0.01, {}),
        "areas": (_area_table, ((1.0, 1.0, 1.0),), None),
        "horoball_samples": (_integer, 100000, {}),
        "exclusion_radius": (_real, 1e-3, {}),
    },
}
for _spec in _PARAM_SPECS.values():
    _spec.update(_COMMON_SPECS)


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per command, one flag per table entry, all strings."""
    parser = argparse.ArgumentParser(
        prog="octagap", description="Reflection group, cover, and bound checks."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary) in _COMMANDS.items():
        subparser = sub.add_parser(command, help=summary)
        subparser.add_argument("--config", help="JSON config file")
        for name, (caster, _, flag) in _PARAM_SPECS[command].items():
            if flag is not None:
                option = "--" + name.replace("_", "-")
                subparser.add_argument(option, choices=getattr(caster, "choices", None), **flag)
    return parser


def _load_config(path: str, spec: dict) -> dict:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - set(spec))
    if unknown:
        raise DomainError(f"unknown config keys: {', '.join(unknown)}")
    return data


def _merge_params(args: argparse.Namespace) -> dict:
    """Resolve parameters: explicit flag beats config file beats default."""
    spec = _PARAM_SPECS[args.command]
    config = _load_config(args.config, spec) if args.config else {}
    params: dict = {"command": args.command}
    for name, (caster, default, _) in spec.items():
        value = getattr(args, name, None)
        if value is None and name not in config:
            params[name] = default
            continue
        try:
            params[name] = caster(config[name] if value is None else value)
        except ValueError as exc:
            raise DomainError(f"bad value for {name}: {exc}") from exc
    return params


def _require_seed(params: dict) -> int:
    if params["seed"] is None:
        raise DomainError(f"{params['command']} is stochastic and needs --seed")
    return params["seed"]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_output(params: dict, report: dict, table: tuple) -> None:
    if params["out"] is None:
        return
    if params["format"] == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        header, rows = table
        lines = [",".join(header)]
        lines.extend(",".join(_csv_cell(cell) for cell in row) for row in rows)
        text = "\n".join(lines) + "\n"
    with open(params["out"], "w") as handle:
        handle.write(text)


# -- verify-group ------------------------------------------------------------


def _cmd_verify_group(params: dict) -> tuple[dict, tuple]:
    from . import group

    table = dict(group.STANDARD_GENERATORS)
    corrupt = params.get("corrupt_generator")
    if corrupt is not None:
        if corrupt not in table:
            raise DomainError(f"unknown generator {corrupt!r}")
        stand_in = "r1p" if corrupt != "r1p" else "r1"
        table[corrupt] = table[stand_in]
    ident = group.identity()
    checks: list[tuple[str, bool]] = []
    for name in group.GENERATOR_NAMES:
        checks.append((f"involution:{name}", table[name] * table[name] == ident))
    cube_ok = True
    for i, a in enumerate(group.GENERATOR_NAMES):
        for b in group.GENERATOR_NAMES[i + 1 :]:
            expected = group.cube_commutes(a, b)
            measured = table[a] * table[b] == table[b] * table[a]
            kind = "cube-edge" if expected else "cube-non-edge"
            ok = measured == expected
            cube_ok = cube_ok and ok
            checks.append((f"{kind}:{a},{b}", ok))
    checks.append(("commutation-graph-is-cube", cube_ok))
    checks.append(("octa-symmetry-order-24", len(group.octa_symmetry_group()) == 24))
    checks.append(("rotation-order-3", group.ROTATION_ORDER3**3 == ident))
    checks.append(("rotation-order-4", group.ROTATION_ORDER4**4 == ident))
    # Each generator is the plain conjugation times a level-2 congruence
    # element: conjugation bit set, matrix congruent to the identity mod 2.
    rho = group.STANDARD_GENERATORS["r1p"]
    for name in group.GENERATOR_NAMES:
        checks.append(
            (
                f"level2-congruence:{name}",
                table[name].conj == 1
                and group.in_level2_congruence(table[name] * rho),
            )
        )

    failures = [name for name, ok in checks if not ok]
    if failures:
        print(f"FAIL: {failures[0]} (and {len(failures) - 1} more)", file=sys.stderr)
    else:
        print(f"PASS: all {len(checks)} group checks (24-element symmetry group confirmed)")
    fields = {
        "checks": [{"name": name, "passed": ok} for name, ok in checks],
        "involution_checks": 8,
        "edge_checks": 12,
        "non_edge_checks": 16,
        "passed": not failures,
    }
    return fields, (["check", "passed"], [[name, ok] for name, ok in checks])


# -- scattering --------------------------------------------------------------

#: Bytes a grid point of ``scattering`` holds at the command's peak: its row,
#: and the row's copy and text in the JSON report (tracemalloc, 1,820 to 1,908
#: bytes a point at 2,000 to 100,000 points on s in [2.2, 4] with --out).
_SCATTERING_BYTES_PER_POINT = 1900


def _cmd_scattering(params: dict) -> tuple[dict, tuple]:
    import numpy as np

    from . import spectral

    level = params["level"]
    s_min, s_max = params["s_min"], params["s_max"]
    grid, radius = params["grid"], params["oracle_radius"]
    tolerance = params["tolerance"]
    for name in ("s_min", "s_max"):
        if not math.isfinite(params[name]):
            raise DomainError(f"{name} must be finite, got {params[name]}")
    if not s_min <= s_max:
        raise DomainError(f"need s_min <= s_max, got ({s_min}, {s_max})")
    if grid < 1:
        raise DomainError(f"grid must be at least 1, got {grid}")
    check_bytes(f"a scattering grid of {grid} points", grid * _SCATTERING_BYTES_PER_POINT)
    if not 10.0 <= radius <= 500.0:
        raise DomainError(f"oracle radius must lie in [10, 500], got {radius}")
    # before the formula, whose trial division of the level takes O(sqrt(level))
    if level > radius:
        raise DomainError(f"need level <= radius, got level {level} and radius {radius}")
    if not 0 < tolerance < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tolerance}")

    rows = []
    for s in np.linspace(s_min, s_max, grid).tolist():
        try:
            formula = spectral.scattering_coefficient(s, level)
        except PoleError:
            formula = None
        oracle = relgap = None
        if formula is not None and s > 2.0:
            oracle = spectral.scattering_oracle_value(s, level, radius)
            relgap = abs(formula - oracle) / abs(formula)
        flag = "POLE" if formula is None else "formula-only" if oracle is None else "ok"
        rows.append({"s": s, "formula": formula, "oracle": oracle, "relgap": relgap, "flag": flag})
    max_relgap = max((r["relgap"] for r in rows if r["relgap"] is not None), default=None)
    poles = spectral.scattering_pole_scan(level)
    scan_verdict = "no poles" if not poles else f"{len(poles)} pole candidates"
    passed = not poles and (max_relgap is None or max_relgap < tolerance)

    for r in rows:
        if r["flag"] == "ok":
            print(
                f"s={r['s']:.6g}  formula={r['formula']:.12g}  "
                f"oracle={r['oracle']:.12g}  relgap={r['relgap']:.3e}"
            )
        else:
            value = "" if r["formula"] is None else f"  formula={r['formula']:.12g}"
            print(f"s={r['s']:.6g}{value}  [{r['flag']}]")
    print(f"pole scan {spectral.POLE_SCAN_INTERVAL} at level {level}: {scan_verdict}")
    if max_relgap is not None:
        print(f"max relgap {max_relgap:.3e} (tolerance {tolerance:g})")
    print("PASS" if passed else "FAIL")
    fields = {
        "level": level,
        "oracle_radius": radius,
        "tolerance": tolerance,
        "rows": rows,
        "pole_scan": {
            "interval": list(spectral.POLE_SCAN_INTERVAL),
            "verdict": scan_verdict,
            "points": poles,
        },
        "max_relgap": max_relgap,
        "passed": passed,
    }
    header = ["s", "formula", "oracle", "relgap", "flag"]
    return fields, (header, [[r[k] for k in header] for r in rows])


# -- delta -------------------------------------------------------------------


def _cmd_delta(params: dict) -> tuple[dict, tuple]:
    from . import geometry

    token = params["group"]
    orbit_group, default_len, band = _DELTA_GROUPS[token]
    if band is None:
        band = (2.0 - geometry.FREE_SUBGROUP_CRITICAL_EXPONENT / 2.0, 2.0)
    reference = {"ap": geometry.FREE_SUBGROUP_CRITICAL_EXPONENT, "sa": 2.0}.get(token)
    word_length = default_len if params["word_length"] is None else params["word_length"]
    if word_length < 1:
        raise DomainError(f"word length must be positive, got {word_length}")
    if params["base_point"] is None:
        base = geometry.DEFAULT_BASE_POINT
    else:
        base = geometry.point(*params["base_point"])

    ball = geometry.orbit_ball(orbit_group, base, word_length)
    fit = geometry.estimate_critical_exponent(ball, window=params["window"])
    bounds = geometry.spectral_gap_bounds()
    in_band = band[0] <= fit.exponent <= band[1]

    print(
        f"group {token}: estimate {fit.exponent:.6f} from {fit.n_points} points "
        f"on window [{fit.window[0]:.2f}, {fit.window[1]:.2f}], band [{band[0]}, {band[1]}]"
    )
    print(f"gap bounds: lower {bounds.lower:.10g}, upper {bounds.upper:.10g}")
    print("PASS" if in_band else "FAIL")
    fields = {
        "group": token,
        "orbit_group": orbit_group,
        "word_length": word_length,
        "base_point": [base.z.real, base.z.imag, base.t],
        "estimate": fit.exponent,
        "fit": {
            "intercept": fit.intercept,
            "n_points": fit.n_points,
            "window": list(fit.window),
            "t_values": list(fit.t_values),
            "counts": list(fit.counts),
        },
        "band": list(band),
        "reference": reference,
        "orbit_points": ball.count,
        "bounds": {
            "lower": bounds.lower,
            "upper": bounds.upper,
            "es_at_reference": geometry.elstrodt_sullivan(
                geometry.FREE_SUBGROUP_CRITICAL_EXPONENT
            ),
        },
        "passed": in_band,
    }
    return fields, (["t", "count"], [[t, c] for t, c in zip(fit.t_values, fit.counts)])


# -- cover -------------------------------------------------------------------

#: Bytes a step of the switching walk holds at ``cover``'s peak: its
#: trajectory entry, the summary's copy and the step's text in the JSON report
#: (tracemalloc, 568 to 579 bytes a step at 10,000 to 30,000 steps with --out).
_WALK_BYTES_PER_STEP = 600


def _cmd_cover(params: dict) -> tuple[dict, tuple]:
    import numpy as np

    from . import covers

    seed = _require_seed(params)
    n = params["n"]
    if n is None:
        raise DomainError("cover needs --n")
    walk_steps = params["walk_steps"]
    if walk_steps < 0:
        raise DomainError(f"walk steps must be nonnegative, got {walk_steps}")
    check_bytes(f"a switching walk of {walk_steps} steps", walk_steps * _WALK_BYTES_PER_STEP)
    # checked before the walk, which takes far longer than the check
    bins = covers.check_histogram_bins(params["bins"])

    cover = covers.sample_cover(n, seed)
    graph = covers.dual_graph(cover)
    connected = covers.is_connected(graph)
    lambda1 = covers.graph_lambda1(graph)
    radius = covers.tangle_free_radius(graph)

    fields = {
        "n": n,
        "seed": seed,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "connected": connected,
        "lambda1": lambda1,
        "tangle_free_radius": radius,
    }
    checks = [0.0 <= lambda1 <= 8.0]
    print(
        f"n={n}: {graph.num_vertices} vertices, connected={connected}, "
        f"lambda1={lambda1:.6g}, tangle-free radius {radius}"
    )
    if walk_steps >= 1:
        trajectory = covers.switching_walk(graph, walk_steps, seed)
        summary = covers.walk_summary(n, seed, trajectory, bins=bins)
        summary["signing_hashes"] = [h for h, _ in trajectory]
        fields["walk"] = summary
        first = trajectory[0][1]
        checks.append(first <= 1e-9)
        checks.append(all(0.0 <= lam <= 8.0 for _, lam in trajectory))
        table = (
            ["step", "signing_hash", "lambda1"],
            [[i, h, lam] for i, (h, lam) in enumerate(trajectory)],
        )
        print(
            f"switching walk: {walk_steps} steps, first lambda1 {first:.3g}, "
            f"max {max(lam for _, lam in trajectory):.6g}"
        )
    else:

        def edge_rows():
            # A generator, so the table is built only when CSV output reads it.
            ones = np.ones(graph.num_edges, dtype=np.int64)
            yield from np.column_stack([*graph.edges(), ones]).tolist()

        table = (["u", "v", "color", "sign"], edge_rows())
    fields["passed"] = all(checks)
    print("PASS" if fields["passed"] else "FAIL")
    return fields, table


# -- bounds and budgets ------------------------------------------------------


def _cmd_bounds_and_budgets(params: dict) -> tuple[dict, tuple]:
    from . import geometry, spectral

    seed = _require_seed(params)
    radii = params["cap_radii"]
    separations = params["cap_separations"]
    lengths = sorted(params["budget_lengths"])
    lam, lam0, eps = params["lam"], params["lam0"], params["eps"]
    areas = params["areas"]
    samples = params["horoball_samples"]
    exclusion = params["exclusion_radius"]
    if any(r <= 0 for r in radii):
        raise DomainError("cap radii must be positive")
    if len(set(lengths)) < len(lengths):
        # equal tangle radii give equal budgets, which cannot decrease
        raise DomainError(f"budget lengths must be distinct, got {params['budget_lengths']}")

    cap_rows = []
    for radius in radii:
        for separation in separations:
            volume = geometry.cap_volume(radius, separation)
            bound = geometry.cap_volume_bound(radius, separation)
            ok = volume <= bound * (1.0 + 1e-12)
            cap_rows.append(
                {
                    "radius": radius,
                    "separation": separation,
                    "volume": volume,
                    "bound": bound,
                    "ok": ok,
                }
            )
    caps_ok = all(row["ok"] for row in cap_rows)

    budgets = [spectral.flattening_budget(areas, length, lam, lam0, eps) for length in lengths]
    totals = [budget.total for budget in budgets]
    decreasing = all(b < a for a, b in zip(totals, totals[1:]))

    horoball = geometry.horoball_cover_check(samples, seed, exclusion_radius=exclusion)
    horoball_ok = (
        horoball.n_checked >= 1
        and horoball.max_multiplicity <= 3
        and horoball.covered_fraction == 1.0
    )
    passed = caps_ok and decreasing and horoball_ok

    print(f"cap sweep: {len(cap_rows)} rows, all within bound: {caps_ok}")
    print(
        "budget totals over lengths "
        + ", ".join(f"{length:g}: {total:.6e}" for length, total in zip(lengths, totals))
        + f" (decreasing: {decreasing})"
    )
    print(
        f"horoball cover: {samples} samples, coverage {horoball.covered_fraction:.6f}, "
        f"max multiplicity {horoball.max_multiplicity}"
    )
    print("PASS" if passed else "FAIL")
    fields = {
        "cap_sweep": cap_rows,
        "caps_within_bound": caps_ok,
        "budgets": [
            {"tangle_radius": length, "e1": b.e1, "e2": b.e2, "e3": b.e3, "total": b.total}
            for length, b in zip(lengths, budgets)
        ],
        "budget_decreasing": decreasing,
        "horoball": {
            "n_checked": horoball.n_checked,
            "n_excluded": horoball.n_excluded,
            "covered_fraction": horoball.covered_fraction,
            "max_multiplicity": horoball.max_multiplicity,
            "multiplicity_counts": horoball.multiplicity_counts,
        },
        "horoball_ok": horoball_ok,
        "passed": passed,
    }
    header = ["radius", "separation", "volume", "bound", "ok"]
    return fields, (header, [[row[k] for k in header] for row in cap_rows])


#: Per subcommand: (handler, one-line help).
_COMMANDS = {
    "verify-group": (_cmd_verify_group, "exact reflection-group invariants"),
    "scattering": (_cmd_scattering, "scattering formula vs lattice oracle"),
    "delta": (_cmd_delta, "critical exponent estimate and gap bounds"),
    "cover": (_cmd_cover, "random cover sampling and switching walks"),
    "bounds-and-budgets": (
        _cmd_bounds_and_budgets,
        "cap volume sweep, flattening budgets, horoball cover",
    ),
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        params = _merge_params(args)
        fields, table = _COMMANDS[args.command][0](params)
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
        report = {"schema": SCHEMA_VERSION, "command": args.command, "timestamp": stamp, **fields}
        _write_output(params, report, table)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OctagapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    return EXIT_OK if fields["passed"] else EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
