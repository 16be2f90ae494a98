"""Tests for upper half space geometry, orbit balls, and volume bounds."""

import io
import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from octagap.errors import DomainError, InsufficientDataError, TruncationError
from octagap.geometry import (
    DEFAULT_BASE_POINT,
    FREE_SUBGROUP_CRITICAL_EXPONENT,
    IDEAL_VERTICES,
    OCTA_CENTER,
    ORBIT_GROUPS,
    CuspDatum,
    Point3,
    apply_isom,
    ball_volume,
    cap_volume,
    cap_volume_bound,
    cap_volume_monte_carlo,
    cusp_height_standard,
    dist,
    elstrodt_sullivan,
    estimate_critical_exponent,
    horoball_cover_check,
    horoball_cover_maps,
    in_fundamental_corner,
    in_standard_horoball,
    move_to_corner,
    orbit_ball,
    point,
    spectral_gap_bounds,
)
from octagap.group import (
    GENERATOR_NAMES,
    ROTATION_ORDER3,
    STANDARD_GENERATORS,
    octa_symmetry_group,
)
from octagap.words import (
    enumerate_free_ball,
    enumerate_racg_ball,
    free_to_face_word,
    in_perp_kernel,
)

GAP_LOWER_BOUND = 0.0014149807552836344
GAP_UPPER_BOUND = 0.8794822700984786
ES_AT_REFERENCE = 0.9065556242941605
REFERENCE_EXPONENT = 1.3056867280498772

points = st.builds(
    point,
    st.floats(-2.0, 3.0),
    st.floats(-2.0, 3.0),
    st.floats(0.05, 4.0),
)
isometries = st.sampled_from(
    [STANDARD_GENERATORS[name] for name in GENERATOR_NAMES]
    + [ROTATION_ORDER3, ROTATION_ORDER3.inverse()]
)


# -- the metric and the action -------------------------------------------------


@given(points, points)
def test_dist_is_symmetric_and_separates(p, q):
    assert dist(p, q) == pytest.approx(dist(q, p), abs=1e-12)
    assert dist(p, p) == 0.0
    if abs(p.z - q.z) > 1e-6 or abs(p.t - q.t) > 1e-6:
        assert dist(p, q) > 0.0


@given(points, points, points)
def test_dist_satisfies_the_triangle_inequality(p, q, r):
    assert dist(p, r) <= dist(p, q) + dist(q, r) + 1e-9


def test_dist_along_a_vertical_geodesic_is_log_of_the_height_ratio():
    assert dist(point(0, 0, 1), point(0, 0, math.e)) == pytest.approx(1.0, abs=1e-12)
    assert dist(point(0.5, 0.5, 0.1), point(0.5, 0.5, 1.0)) == pytest.approx(
        math.log(10.0), abs=1e-12
    )


@given(isometries, points, points)
def test_group_elements_act_by_isometries(g, p, q):
    assert dist(apply_isom(g, p), apply_isom(g, q)) == pytest.approx(dist(p, q), abs=1e-9)


@given(isometries, isometries, points)
def test_action_is_compatible_with_the_product(g, h, p):
    composite = apply_isom(g * h, p)
    stepwise = apply_isom(g, apply_isom(h, p))
    assert composite.z == pytest.approx(stepwise.z, abs=1e-10)
    assert composite.t == pytest.approx(stepwise.t, abs=1e-10)


@given(isometries, points)
def test_inverse_undoes_the_action(g, p):
    q = apply_isom(g.inverse(), apply_isom(g, p))
    assert q.z == pytest.approx(p.z, abs=1e-9)
    assert q.t == pytest.approx(p.t, abs=1e-9)


def test_scalar_action_returns_python_numbers_and_checks_heights():
    image = apply_isom(STANDARD_GENERATORS["r1"], DEFAULT_BASE_POINT)
    assert type(image.z) is complex and type(image.t) is float
    assert type(dist(image, DEFAULT_BASE_POINT)) is float
    with pytest.raises(DomainError):
        apply_isom(STANDARD_GENERATORS["r1"], Point3(0.3 + 0.4j, 0.0))
    with pytest.raises(DomainError):
        dist(DEFAULT_BASE_POINT, Point3(0.3 + 0.4j, -1.0))


def test_octahedral_symmetries_fix_the_center():
    """The order-four rotation has determinant modulus two; the action must not care."""
    for g in octa_symmetry_group():
        image = apply_isom(g, OCTA_CENTER)
        assert image.z == pytest.approx(OCTA_CENTER.z, abs=1e-12)
        assert image.t == pytest.approx(OCTA_CENTER.t, abs=1e-12)


def test_point_requires_positive_height():
    with pytest.raises(DomainError):
        point(0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        point(0.0, 0.0, -1.0)


# -- fundamental domain pieces ---------------------------------------------------


def test_octa_center_lies_in_the_fundamental_corner():
    assert in_fundamental_corner(OCTA_CENTER)


@given(
    st.sampled_from(octa_symmetry_group()),
    st.floats(0.26, 0.42),
    st.floats(0.44, 0.56),
    st.floats(0.75, 0.95),
)
def test_move_to_corner_returns_an_orbit_point_in_the_corner(symmetry, x, y, t):
    """Scrambling a corner point by a symmetry and moving back stays in orbit."""
    start = point(x, y, t)
    assume(in_fundamental_corner(start))
    p = apply_isom(symmetry, start)
    g, q = move_to_corner(p)
    assert in_fundamental_corner(q)
    moved = apply_isom(g, p)
    assert moved.z == pytest.approx(q.z, abs=1e-9)
    assert moved.t == pytest.approx(q.t, abs=1e-9)


def test_standard_horoball_is_the_truncated_unit_square_piece():
    assert in_standard_horoball(point(0.2, 0.2, 1.5))
    assert in_standard_horoball(point(0.2, 0.2, 0.71))
    assert not in_standard_horoball(point(0.2, 0.2, 0.70))
    assert not in_standard_horoball(point(1.3, 0.2, 1.5))


def test_horoball_cover_maps_label_the_ideal_vertices():
    labels = [label for label, _ in horoball_cover_maps()]
    assert labels == [label for label, _, _ in IDEAL_VERTICES]
    assert len(labels) == 6


def test_horoball_cover_check_reports_full_coverage():
    report = horoball_cover_check(3000, seed=20260818)
    assert report.covered_fraction == 1.0
    assert report.max_multiplicity <= 3
    assert report.n_checked + report.n_excluded == 3000
    assert sum(report.multiplicity_counts.values()) == report.n_checked
    wide = horoball_cover_check(3000, seed=20260818, exclusion_radius=0.4)
    assert wide.n_excluded > 0
    assert wide.n_checked == 3000 - wide.n_excluded
    assert sum(wide.multiplicity_counts.values()) == wide.n_checked


@pytest.mark.parametrize("radius", [math.nan, math.inf, -1e-3])
def test_horoball_cover_check_rejects_an_exclusion_radius_that_checks_nothing(radius):
    # NaN and inf exclude every point, so no multiplicity would be checked.
    with pytest.raises(DomainError):
        horoball_cover_check(100, seed=1, exclusion_radius=radius)


# -- cusp data --------------------------------------------------------------------


def test_rank_two_cusp_area_is_the_lattice_covolume():
    datum = CuspDatum.rank2(2.0 + 0.0j, 3.0j)
    assert datum.rank == 2
    assert datum.area == pytest.approx(6.0)


def test_rank_two_cusp_rejects_dependent_translations():
    with pytest.raises(DomainError):
        CuspDatum.rank2(1.0 + 1.0j, 2.0 + 2.0j)


def test_rank_one_cusp_rejects_the_trivial_translation():
    assert CuspDatum.rank1(2.0j).length == pytest.approx(2.0)
    with pytest.raises(DomainError):
        CuspDatum.rank1(0.0j)


def test_cusp_height_maximizes_over_the_representatives():
    p = point(0.3, 0.4, 0.9)
    reps = octa_symmetry_group()
    height = cusp_height_standard(p, reps)
    assert height >= p.t
    assert height == pytest.approx(max(apply_isom(g, p).t for g in reps), abs=1e-12)


def test_cusp_height_validates_the_lattice_rank():
    with pytest.raises(DomainError):
        cusp_height_standard(point(0.3, 0.4, 0.9), [], lattice=CuspDatum.rank1(1.0 + 0.0j))


# -- volumes ----------------------------------------------------------------------


def test_ball_volume_closed_form():
    for radius in (0.5, 1.0, 2.0, 3.0):
        assert ball_volume(radius) == pytest.approx(
            math.pi * (math.sinh(2 * radius) - 2 * radius), rel=1e-12
        )


def test_cap_volume_degenerates_correctly():
    assert cap_volume(2.0, 0.0) == pytest.approx(ball_volume(2.0), rel=1e-12)
    assert cap_volume(2.0, 4.0) == 0.0
    assert cap_volume(2.0, 5.0) == 0.0


def test_cap_volume_is_monotone_and_bounded():
    radii = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    separations = [0.5, 1.0, 2.0]
    for separation in separations:
        volumes = [cap_volume(radius, separation) for radius in radii]
        assert all(a <= b + 1e-12 for a, b in zip(volumes, volumes[1:]))
        for radius, volume in zip(radii, volumes):
            assert volume <= ball_volume(radius) + 1e-12
            assert volume <= cap_volume_bound(radius, separation) * (1 + 1e-12)
    for radius in radii:
        assert cap_volume(radius, 2.0) <= cap_volume(radius, 0.5) + 1e-12


def test_cap_volume_monte_carlo_agrees_with_quadrature():
    exact = cap_volume(2.0, 1.0)
    estimate = cap_volume_monte_carlo(2.0, 1.0, 200_000, seed=20260818)
    assert abs(estimate - exact) / exact < 0.02


def test_cap_volume_rejects_bad_arguments():
    with pytest.raises(DomainError):
        cap_volume(-1.0, 0.0)
    with pytest.raises(DomainError):
        cap_volume(2.0, -0.1)


# -- orbit balls and the critical exponent ------------------------------------------


def test_orbit_ball_counts_match_the_word_counts():
    free = orbit_ball("free", DEFAULT_BASE_POINT, 6)
    assert free.count == 2 * 3**6 - 1
    full = orbit_ball("full", DEFAULT_BASE_POINT, 4)
    assert full.count == 1401
    kernel = orbit_ball("kernel", DEFAULT_BASE_POINT, 4)
    assert 1 <= kernel.count <= full.count
    assert set(ORBIT_GROUPS) == {"free", "full", "kernel"}


@pytest.mark.parametrize("label, keep, count", [("full", None, 1401), ("kernel", in_perp_kernel, 197)])
def test_vectorized_reflection_group_balls_match_the_word_route(label, keep, count):
    def words(max_len):
        return (w for w in enumerate_racg_ball(max_len) if keep is None or keep(w))

    slow = orbit_ball(words, DEFAULT_BASE_POINT, 4)
    fast = orbit_ball(label, DEFAULT_BASE_POINT, 4)
    assert slow.count == fast.count == count
    assert max(abs(a - b) for a, b in zip(slow.displacements, fast.displacements)) < 1e-9


@pytest.mark.parametrize("label", ORBIT_GROUPS)
def test_orbit_ball_rejects_negative_lengths(label):
    with pytest.raises(DomainError):
        orbit_ball(label, DEFAULT_BASE_POINT, -1)


def test_orbit_ball_displacements_are_sorted_from_zero():
    ball = orbit_ball("free", DEFAULT_BASE_POINT, 5)
    d = ball.displacements
    assert d[0] == 0.0
    assert all(a <= b for a, b in zip(d, d[1:]))
    assert ball.radius == d[-1]
    assert ball.counting_function(0.0) == 1
    assert ball.counting_function(ball.radius) == ball.count


def test_orbit_ball_callable_route_matches_the_vectorized_route():
    def words(max_len):
        return (free_to_face_word(w) for w in enumerate_free_ball(max_len))

    slow = orbit_ball(words, DEFAULT_BASE_POINT, 4)
    fast = orbit_ball("free", DEFAULT_BASE_POINT, 4)
    assert slow.count == fast.count
    assert slow.words is not None
    assert max(abs(a - b) for a, b in zip(slow.displacements, fast.displacements)) < 1e-9


def test_orbit_ball_csv_has_one_row_per_point():
    def words(max_len):
        return (free_to_face_word(w) for w in enumerate_free_ball(max_len))

    ball = orbit_ball(words, DEFAULT_BASE_POINT, 3)
    buffer = io.StringIO()
    ball.to_csv(buffer)
    lines = buffer.getvalue().strip().splitlines()
    assert len(lines) == ball.count + 1
    assert lines[0].strip() == "word,displacement"


def test_vectorized_orbit_ball_has_no_words_to_export():
    ball = orbit_ball("free", DEFAULT_BASE_POINT, 3)
    with pytest.raises(DomainError):
        ball.to_csv(io.StringIO())


def test_orbit_ball_rejects_unknown_group_labels():
    with pytest.raises(DomainError):
        orbit_ball("fre", DEFAULT_BASE_POINT, 4)


def test_critical_exponent_estimate_for_the_face_subgroup():
    ball = orbit_ball("free", DEFAULT_BASE_POINT, 12)
    fit = estimate_critical_exponent(ball)
    assert 1.15 <= fit.exponent <= 1.35
    assert fit.n_points >= 10
    assert fit.window[0] < fit.window[1] <= ball.radius


def test_critical_exponent_is_stable_under_base_point_moves():
    fit1 = estimate_critical_exponent(orbit_ball("free", DEFAULT_BASE_POINT, 10))
    fit2 = estimate_critical_exponent(orbit_ball("free", point(0.35, 0.38, 0.95), 10))
    assert abs(fit1.exponent - fit2.exponent) < 0.02


def test_critical_exponent_window_validation():
    ball = orbit_ball("free", DEFAULT_BASE_POINT, 8)
    with pytest.raises(DomainError):
        estimate_critical_exponent(ball, window=(2.0, ball.radius + 5.0))
    with pytest.raises(InsufficientDataError):
        estimate_critical_exponent(orbit_ball("free", DEFAULT_BASE_POINT, 2))


# -- spectral gap bounds --------------------------------------------------------------


def test_elstrodt_sullivan_profile():
    assert elstrodt_sullivan(0.3) == 1.0
    assert elstrodt_sullivan(1.0) == 1.0
    assert elstrodt_sullivan(1.5) == pytest.approx(0.75, rel=1e-12)
    assert elstrodt_sullivan(2.0) == 0.0
    assert elstrodt_sullivan(REFERENCE_EXPONENT) == pytest.approx(ES_AT_REFERENCE, rel=1e-12)
    with pytest.raises(DomainError):
        elstrodt_sullivan(-0.1)
    with pytest.raises(DomainError):
        elstrodt_sullivan(2.1)


def test_spectral_gap_bounds_frozen_values():
    bounds = spectral_gap_bounds()
    assert bounds.lower == pytest.approx(GAP_LOWER_BOUND, rel=1e-12)
    assert bounds.upper == pytest.approx(GAP_UPPER_BOUND, rel=1e-12)
    assert 0 < bounds.lower < bounds.upper < 1


def test_spectral_gap_bounds_structure():
    """The upper bound pushes the free exponent through the kernel estimate."""
    kernel_exponent = 2.0 - FREE_SUBGROUP_CRITICAL_EXPONENT / 2.0
    assert spectral_gap_bounds().upper == pytest.approx(
        elstrodt_sullivan(kernel_exponent), rel=1e-12
    )
    assert spectral_gap_bounds(mu=0.5).lower < spectral_gap_bounds(mu=1.0).lower
    with pytest.raises(DomainError):
        spectral_gap_bounds(mu=0.0)
