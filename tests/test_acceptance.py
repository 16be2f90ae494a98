"""Acceptance checklist for the whole package.

One test per criterion, each printing a single pass/fail line with its
timing so the verbose run doubles as a report.  Tolerances and time budgets
are asserted, not just printed.
"""

import itertools
import math
import statistics
import time

import numpy as np
import scipy.stats

from octagap import covers, geometry, group, spectral, words

DELTA_AP_REFERENCE = 1.3056867280


def _report(number, label, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {label}: {status} ({detail}, {elapsed:.2f}s / {budget:.0f}s)")


# -- 1: exact group structure ----------------------------------------------------


def test_criterion_01_group_exactness():
    start = time.monotonic()
    identity = group.identity()
    ok = True
    details = []

    for name in group.GENERATOR_NAMES:
        g = group.STANDARD_GENERATORS[name]
        ok &= (g * g).is_identity() and not g.is_identity()
    details.append("8 involutions")

    graph = group.commutation_graph()
    degrees = sorted(len(nbrs) for nbrs in graph.values())
    ok &= degrees == [3] * 8
    for x, y in itertools.combinations(group.GENERATOR_NAMES, 2):
        a, b = group.STANDARD_GENERATORS[x], group.STANDARD_GENERATORS[y]
        ok &= (y in graph[x]) == (a * b == b * a)
    for x, y in itertools.combinations(group.GENERATOR_NAMES, 2):
        if y in graph[x]:
            expected_common = 0
        elif y == group.opposite_generator(x):
            expected_common = 0
        else:
            expected_common = 2
        ok &= len(graph[x] & graph[y]) == expected_common
    details.append("cube commutation graph")

    symmetries = group.octa_symmetry_group()
    ok &= len(set(symmetries)) == 24
    r3, r4 = group.ROTATION_ORDER3, group.ROTATION_ORDER4
    ok &= (r3 * r3 * r3).is_identity() and not r3.is_identity()
    ok &= (r4 * r4 * r4 * r4).is_identity() and not (r4 * r4).is_identity()
    details.append("24 symmetries")

    conj = group.STANDARD_GENERATORS["r1p"]
    for name in group.GENERATOR_NAMES:
        g = group.STANDARD_GENERATORS[name]
        ok &= g.conj == 1 and group.in_level2_congruence(g * conj)
    details.append("congruence cosets")

    elapsed = time.monotonic() - start
    _report(1, "group-exactness", ok and elapsed < 1.0, ", ".join(details), elapsed, 1)
    assert ok
    assert elapsed < 1.0


# -- 2: the free product has no short relations ------------------------------------


def test_criterion_02_free_product_sanity():
    start = time.monotonic()
    identity = group.identity()
    letters = [group.STANDARD_GENERATORS[f"r{k}"] for k in range(1, 5)]
    frontier = [(-1, identity)]
    checked = 0
    trivial = 0
    for _ in range(10):
        successors = []
        for last, g in frontier:
            for index, letter in enumerate(letters):
                if index == last:
                    continue
                product = g * letter
                if product.is_identity():
                    trivial += 1
                successors.append((index, product))
        frontier = successors
        checked += len(frontier)
    elapsed = time.monotonic() - start
    ok = trivial == 0 and checked == words.free_ball_count(10) - 1
    detail = f"{checked} reduced words"
    _report(2, "free-product-sanity", ok and elapsed < 30.0, detail, elapsed, 30)
    assert trivial == 0
    assert checked == words.free_ball_count(10) - 1
    assert elapsed < 30.0


# -- 3: scattering formula against the counting oracle ------------------------------


def test_criterion_03_scattering_formula_vs_oracle():
    start = time.monotonic()
    worst = 0.0
    for s, level in itertools.product((2.5, 3.0, 4.0), (1, 2)):
        formula = spectral.scattering_coefficient(s, level)
        oracle = spectral.scattering_oracle_value(s, level, radius=120.0)
        worst = max(worst, abs(oracle - formula) / abs(formula))
    poles = sum(len(spectral.scattering_pole_scan(level)) for level in (1, 2, 3))
    elapsed = time.monotonic() - start
    ok = worst < 1e-3 and poles == 0 and elapsed < 120.0
    _report(3, "scattering-oracle", ok, f"max relgap {worst:.2e}, {poles} poles", elapsed, 120)
    assert worst < 1e-3
    assert poles == 0
    assert elapsed < 120.0


# -- 4: Dedekind zeta factorization ---------------------------------------------------


def test_criterion_04_zeta_factorization():
    start = time.monotonic()
    worst = max(
        abs(spectral.gaussian_lattice_zeta(s) - spectral.dedekind_zeta_qi(s)) for s in (2.0, 3.0)
    )
    elapsed = time.monotonic() - start
    ok = worst < 1e-5 and elapsed < 10.0
    _report(4, "zeta-factorization", ok, f"max abs error {worst:.2e}", elapsed, 10)
    assert worst < 1e-5
    assert elapsed < 10.0


# -- 5: cap volumes ---------------------------------------------------------------------


def test_criterion_05_cap_volume():
    start = time.monotonic()
    radii = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    separations = [0.5, 1.0, 2.0]

    exact = geometry.cap_volume(2.0, 1.0)
    estimate = geometry.cap_volume_monte_carlo(2.0, 1.0, 1_000_000, seed=11)
    mc_error = abs(estimate - exact) / exact

    ball_error = max(
        abs(geometry.cap_volume(r, 0.0) - math.pi * (math.sinh(2 * r) - 2 * r)) for r in radii
    )
    bound_ok = all(
        geometry.cap_volume(r, d) <= geometry.cap_volume_bound(r, d) * (1 + 1e-12)
        for r, d in itertools.product(radii, separations)
    )
    elapsed = time.monotonic() - start
    ok = mc_error < 0.02 and ball_error < 1e-8 and bound_ok and elapsed < 60.0
    detail = f"MC error {mc_error:.4f}, ball error {ball_error:.1e}, sweep bound {bound_ok}"
    _report(5, "cap-volume", ok, detail, elapsed, 60)
    assert mc_error < 0.02
    assert ball_error < 1e-8
    assert bound_ok
    assert elapsed < 60.0


# -- 6: critical exponents ----------------------------------------------------------------


def test_criterion_06_critical_exponents():
    start = time.monotonic()
    free_fit = geometry.estimate_critical_exponent(
        geometry.orbit_ball("free", geometry.DEFAULT_BASE_POINT, 14)
    )
    full_fit = geometry.estimate_critical_exponent(
        geometry.orbit_ball("full", geometry.DEFAULT_BASE_POINT, 10)
    )
    elapsed = time.monotonic() - start
    free_ok = 1.15 <= free_fit.exponent <= 1.45
    full_ok = 1.6 <= full_fit.exponent <= 2.0
    ok = free_ok and full_ok and elapsed < 300.0
    detail = f"free {free_fit.exponent:.4f}, full {full_fit.exponent:.4f}"
    _report(6, "critical-exponents", ok, detail, elapsed, 300)
    assert free_ok
    assert full_ok
    assert elapsed < 300.0


# -- 7: gap bound constants ------------------------------------------------------------------


def test_criterion_07_gap_bound_constants():
    start = time.monotonic()
    bounds = geometry.spectral_gap_bounds(delta_free=DELTA_AP_REFERENCE)
    es = geometry.elstrodt_sullivan(DELTA_AP_REFERENCE)
    lower_ok = f"{bounds.lower:.10f}".startswith("0.00141498")
    upper_ok = f"{bounds.upper:.10f}".startswith("0.879482")
    es_ok = f"{es:.10f}".startswith("0.906555")
    elapsed = time.monotonic() - start
    ok = lower_ok and upper_ok and es_ok and elapsed < 1.0
    detail = f"lower {bounds.lower:.8f}, upper {bounds.upper:.6f}, es {es:.6f}"
    _report(7, "gap-bound-constants", ok, detail, elapsed, 1)
    assert lower_ok
    assert upper_ok
    assert es_ok
    assert elapsed < 1.0


# -- 8: replacement product gap ----------------------------------------------------------------


def test_criterion_08_replacement_product_gap():
    start = time.monotonic()
    rhos = [covers.dirichlet_rho(radius) for radius in range(1, 13)]
    limit = 1.0 + math.sqrt(5.0 + 2.0 * math.sqrt(3.0))
    in_band = 3.80 <= rhos[-1] <= limit + 1e-6
    monotone = all(a < b for a, b in zip(rhos, rhos[1:]))
    gap = 3.0 - math.sqrt(5.0 + 2.0 * math.sqrt(3.0))
    consistent = abs((4.0 - limit) - gap) < 1e-15 and abs(gap - 0.0906871) < 1e-7
    elapsed = time.monotonic() - start
    ok = in_band and monotone and consistent and elapsed < 120.0
    detail = f"rho(12) {rhos[-1]:.6f}, gap {gap:.7f}"
    _report(8, "replacement-gap", ok, detail, elapsed, 120)
    assert in_band
    assert monotone
    assert consistent
    assert elapsed < 120.0


# -- 9: 2-lift spectral decomposition -------------------------------------------------------------


def test_criterion_09_two_lift_decomposition():
    start = time.monotonic()
    rng = np.random.default_rng(20260818)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 31))
        graph = covers.dual_graph(covers.sample_cover(n, int(rng.integers(0, 2**32))))
        signing = covers.all_plus_signing(graph)
        for index in np.flatnonzero(rng.random(graph.num_edges) < 0.5):
            signing = covers.simple_switching(signing, int(index))
        old, new = covers.two_cover_spectra(graph, signing)
        lift = covers.lift_graph(graph, signing)
        lifted = np.linalg.eigvalsh(covers.adjacency_matrix(lift).astype(float))
        combined = np.sort(np.concatenate([old, new]))
        worst = max(worst, float(np.max(np.abs(combined - lifted))))

    base = covers.dual_graph(covers.sample_cover(25, 7))
    plus_lift = covers.lift_graph(base, covers.all_plus_signing(base))
    plus_lambda1 = covers.graph_lambda1(plus_lift)
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and plus_lambda1 < 1e-12 and elapsed < 60.0
    detail = f"max multiset gap {worst:.1e}, trivial signing lambda1 {plus_lambda1:.1e}"
    _report(9, "two-lift-decomposition", ok, detail, elapsed, 60)
    assert worst < 1e-8
    assert plus_lambda1 < 1e-12
    assert elapsed < 60.0


# -- 10: horoball covering ----------------------------------------------------------------------


def test_criterion_10_horoball_covering():
    start = time.monotonic()
    report = geometry.horoball_cover_check(100_000, seed=5, exclusion_radius=1e-3)
    elapsed = time.monotonic() - start
    ok = report.covered_fraction == 1.0 and report.max_multiplicity <= 3 and elapsed < 60.0
    detail = f"coverage {report.covered_fraction:.4f}, max multiplicity {report.max_multiplicity}"
    _report(10, "horoball-covering", ok, detail, elapsed, 60)
    assert report.covered_fraction == 1.0
    assert report.max_multiplicity <= 3
    assert elapsed < 60.0


# -- 11: Selberg transform and cusp decay ---------------------------------------------------------


def test_criterion_11_selberg_transform():
    start = time.monotonic()
    transform_gap = max(
        abs(spectral.selberg_h(t, lam) - spectral.selberg_h_quadrature(t, lam))
        for t, lam in itertools.product((1.0, 2.5, 4.0), (0.2, 0.5, 0.9))
    )
    zeroth_gap = max(
        abs(spectral.cusp_decay_ratio_zeroth(s) - (4.0**s - 1.0)) for s in (0.25, 0.5, 0.75)
    )
    elapsed = time.monotonic() - start
    ok = transform_gap < 1e-10 and zeroth_gap <= 1e-12 and elapsed < 10.0
    detail = f"transform gap {transform_gap:.1e}, zeroth gap {zeroth_gap:.1e}"
    _report(11, "selberg-transform", ok, detail, elapsed, 10)
    assert transform_gap < 1e-10
    assert zeroth_gap <= 1e-12
    assert elapsed < 10.0


# -- 12: flattening budget ------------------------------------------------------------------------


def test_criterion_12_flattening_budget():
    start = time.monotonic()
    totals = [
        spectral.flattening_budget([(1.0, 1.0, 1.0)], float(length), 0.4, 0.8, 0.01).total
        for length in (10, 15, 20, 25)
    ]
    decreasing = all(a > b for a, b in zip(totals, totals[1:]))
    elapsed = time.monotonic() - start
    ok = decreasing and elapsed < 1.0
    detail = "totals " + ", ".join(f"{t:.3e}" for t in totals)
    _report(12, "flattening-budget", ok, detail, elapsed, 1)
    assert decreasing
    assert elapsed < 1.0


# -- 13: sampler statistics -----------------------------------------------------------------------


def test_criterion_13_model_statistics():
    start = time.monotonic()
    counts = {}
    for seed in range(10_000):
        key = tuple(covers.sample_cover(3, seed)[0].tolist())
        counts[key] = counts.get(key, 0) + 1
    chi_ok = len(counts) == 15
    pvalue = float(scipy.stats.chisquare(list(counts.values())).pvalue)
    chi_ok &= pvalue > 0.001

    connected = sum(
        covers.is_connected(covers.dual_graph(covers.sample_cover(50, seed)))
        for seed in range(200)
    )
    connectivity = connected / 200.0

    radii = [
        covers.tangle_free_radius(covers.dual_graph(covers.sample_cover(200, 1000 + seed)))
        for seed in range(31)
    ]
    median_radius = statistics.median(radii)

    elapsed = time.monotonic() - start
    ok = chi_ok and connectivity >= 0.95 and median_radius >= 1 and elapsed < 180.0
    detail = (
        f"chi2 p {pvalue:.3f}, connectivity {connectivity:.3f}, median radius {median_radius}"
    )
    _report(13, "model-statistics", ok, detail, elapsed, 180)
    assert chi_ok
    assert connectivity >= 0.95
    assert median_radius >= 1
    assert elapsed < 180.0
