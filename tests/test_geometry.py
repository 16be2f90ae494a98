"""Tests for upper half space geometry, orbit balls, and volume bounds."""

import math
import os
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, given
from hypothesis import strategies as st

from octagap import _ballfast, geometry
from octagap.errors import DomainError, InsufficientDataError, MemoryGuardError, TruncationError
from octagap.geometry import (
    DEFAULT_BASE_POINT,
    FREE_SUBGROUP_CRITICAL_EXPONENT,
    GRID_STEP,
    IDEAL_VERTICES,
    OCTA_CENTER,
    ORBIT_GROUPS,
    CuspDatum,
    OrbitBall,
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
    evaluate_word,
    free_to_face_word,
    in_perp_kernel,
    is_normal_form,
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


@pytest.mark.parametrize(
    "coords", [(0.3, 0.4, math.inf), (math.nan, 0.4, 0.9), (0.3, -math.inf, 0.9), (0.3, 0.4, math.nan)]
)
def test_point_rejects_non_finite_coordinates(coords):
    with pytest.raises(DomainError, match="finite"):
        point(*coords)


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


@pytest.mark.parametrize("n_samples", [0, 10.5, True])
def test_horoball_cover_check_takes_a_positive_integer_sample_count(n_samples):
    with pytest.raises(DomainError):
        horoball_cover_check(n_samples, seed=1)


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


# -- volumes ----------------------------------------------------------------------


def test_ball_volume_closed_form():
    for radius in (0.5, 1.0, 2.0, 3.0):
        assert ball_volume(radius) == pytest.approx(
            math.pi * (math.sinh(2 * radius) - 2 * radius), rel=1e-12
        )


@pytest.mark.parametrize("radius", [1e-8, 1e-6, 1e-3, 0.3, 0.4999, 0.5, 0.5001, 354.0])
def test_ball_volume_matches_mpmath(radius):
    with mpmath.workdps(50):
        T = mpmath.mpf(radius)
        exact = mpmath.pi * (mpmath.sinh(2 * T) - 2 * T)
    assert ball_volume(radius) == pytest.approx(float(exact), rel=1e-14, abs=0)


def _cap_volume_mpmath(radius, separation):
    """Oracle: 50 significant digits of the closed-form cap volume.

    On r in [|T - delta|, T] the cap integrand sinh^2 r (1 - q) has the
    antiderivative F(r) / sinh delta with F(r) = cosh T cosh r - cosh(2r - delta) / 4
    - r sinh delta / 2.  F(T) - F(|T - delta|) cancels up to 45 digits at
    T = 1e-6, so the form runs with 100 and with 120 working digits, and the
    two must agree to 50.
    """

    def closed_form(dps):
        with mpmath.workdps(dps):
            T, delta = mpmath.mpf(radius), mpmath.mpf(separation)
            inner = max(T - delta, 0)
            full = mpmath.pi * (mpmath.sinh(2 * inner) - 2 * inner)

            def F(r):
                cosh_term = mpmath.cosh(T) * mpmath.cosh(r) - mpmath.cosh(2 * r - delta) / 4
                return cosh_term - r * mpmath.sinh(delta) / 2

            return full + 2 * mpmath.pi * (F(T) - F(abs(T - delta))) / mpmath.sinh(delta)

    value, check = closed_form(100), closed_form(120)
    assert abs(value - check) <= abs(check) * mpmath.mpf(10) ** -50
    return value


def _cap_volume_quad(radius, separation):
    """Twin: the route cap_volume took before, scipy's quad over the clamped cap fraction.

    Its epsabs of 1e-12 limits it where the lens is small: up to 1.5e-8
    relative at delta = 1.99 T, no digits at 1.9999 T.  The cosh products of
    q cancel at small T (2e-4 relative at T = 1e-6), and from T = 50 up quad
    misses most of the lens.  So it runs on the middle of the grid only.
    """
    T, delta = float(radius), float(separation)
    inner = max(0.0, T - delta)
    full = math.pi * (math.sinh(2.0 * inner) - 2.0 * inner)

    def integrand(r):
        if r <= 0.0:
            return 0.0
        q = (math.cosh(r) * math.cosh(delta) - math.cosh(T)) / (math.sinh(r) * math.sinh(delta))
        return math.sinh(r) ** 2 * min(max(1.0 - q, 0.0), 2.0)

    lens, _ = scipy.integrate.quad(integrand, inner, T, epsabs=1e-12, epsrel=1e-12, limit=200)
    return full + 2.0 * math.pi * lens


_CAP_FRACTIONS = (1e-8, 0.5, 1.0, 1.5, 1.99, 1.9999)


@pytest.mark.parametrize("radius", [1e-6, 1e-3, 0.05, 0.3, 1.0, 2.0, 3.0, 8.0, 50.0, 300.0])
def test_cap_volume_matches_mpmath(radius):
    for fraction in _CAP_FRACTIONS:
        separation = fraction * radius
        exact = float(_cap_volume_mpmath(radius, separation))
        assert cap_volume(radius, separation) == pytest.approx(exact, rel=1e-12, abs=0), fraction


@pytest.mark.parametrize("radius", [0.05, 0.3, 1.0, 2.0, 3.0, 8.0])
def test_cap_volume_matches_the_quadrature_twin(radius):
    for fraction in _CAP_FRACTIONS[:-1]:
        separation = fraction * radius
        twin = _cap_volume_quad(radius, separation)
        assert cap_volume(radius, separation) == pytest.approx(twin, rel=1e-7, abs=0), fraction


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


@pytest.mark.parametrize("radius", [20.0, 30.0, 100.0])
def test_cap_volume_monte_carlo_agrees_with_quadrature_at_large_radii(radius):
    """From T = 20 on, cosh T - sinh T rounds to 0: the envelope's lower
    height must come from e^(-T)."""
    exact = cap_volume(radius, 1.0)
    estimate = cap_volume_monte_carlo(radius, 1.0, 200_000, seed=20260818)
    assert abs(estimate - exact) / exact < 0.03


@pytest.mark.parametrize("radius, separation", [(300.0, 500.0), (354.0, 700.0)])
def test_cap_volume_monte_carlo_stays_finite_for_far_centers(radius, separation):
    """The far center sits at height e^delta, past the square root of the
    largest float, where cosh d in the form 1 + (|z|^2 + (t - h)^2) / (2 t h)
    overflows.  The cap is a share of about e^(-delta) of the ball, too small
    for 1000 samples to hit."""
    estimate = cap_volume_monte_carlo(radius, separation, 1000, seed=1)
    assert 0.0 <= estimate <= cap_volume(radius, separation)


@pytest.mark.parametrize(
    "radius, separation, n_samples",
    [
        (math.inf, 1.0, 1000),
        (math.nan, 1.0, 1000),
        (800.0, 1.0, 1000),
        (-1.0, 1.0, 1000),
        (2.0, math.nan, 1000),
        (2.0, math.inf, 1000),
        (2.0, -0.1, 1000),
        (2.0, 1.0, 10.5),
        (2.0, 1.0, 0),
    ],
)
def test_cap_volume_monte_carlo_rejects_bad_arguments(radius, separation, n_samples):
    with pytest.raises(DomainError):
        cap_volume_monte_carlo(radius, separation, n_samples, seed=1)


def test_cap_volume_rejects_bad_arguments():
    with pytest.raises(DomainError):
        cap_volume(-1.0, 0.0)
    with pytest.raises(DomainError):
        cap_volume(2.0, -0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_volumes_reject_non_finite_arguments(value):
    calls = [
        lambda: ball_volume(value),
        lambda: cap_volume(value, 1.0),
        lambda: cap_volume(1.0, value),
        lambda: cap_volume_bound(value, 1.0),
        lambda: cap_volume_bound(1.0, value),
    ]
    for call in calls:
        with pytest.raises(DomainError):
            call()


def test_volumes_reject_radii_that_overflow():
    for radius in (355.0, 400.0):
        with pytest.raises(DomainError):
            ball_volume(radius)
        with pytest.raises(DomainError):
            cap_volume(radius, 1.0)
    for radius, separation in ((354.0, 0.5), (400.0, 1.0), (1e6, 0.0)):
        with pytest.raises(DomainError):
            cap_volume_bound(radius, separation)
    assert math.isfinite(ball_volume(354.0))
    assert math.isfinite(cap_volume(354.0, 1e-6))
    assert math.isfinite(cap_volume_bound(354.0, 2.0))
    assert cap_volume_bound(400.0, 800.0) == pytest.approx(8 * math.pi)


# -- orbit balls and the critical exponent ------------------------------------------


def test_orbit_ball_counts_match_the_word_counts():
    free = orbit_ball("free", DEFAULT_BASE_POINT, 6)
    assert free.count == 2 * 3**6 - 1
    full = orbit_ball("full", DEFAULT_BASE_POINT, 4)
    assert full.count == 1401
    kernel = orbit_ball("kernel", DEFAULT_BASE_POINT, 4)
    assert kernel.count == 197
    assert set(ORBIT_GROUPS) == {"free", "full", "kernel"}


#: The twins' base points: the default one and one off its symmetry lines.
TWIN_BASE_POINTS = (DEFAULT_BASE_POINT, point(0.35, 0.38, 0.95))


def _walked(ball):
    """The displacements of the ball's slices, joined and sorted."""
    return np.sort(np.concatenate(list(ball.slices())))


def _face_word(word):
    """Whether the word uses face letters only: in the reflection group's
    normal forms, exactly the reduced words of the free face subgroup."""
    return not any(letter.endswith("p") for letter in word)


def _twin_words(max_len, keep):
    """The normal forms of length <= max_len that pass keep (None keeps all)."""
    return [w for w in enumerate_racg_ball(max_len) if keep is None or keep(w)]


def _word_route_displacements(words, base):
    """Sorted displacements of the words at the base point.

    Each word acts on the base point one letter at a time, last letter first,
    so no product matrix is ever formed.
    """
    mats, conj = _ballfast.isom_table([STANDARD_GENERATORS[name] for name in GENERATOR_NAMES])
    index = {name: k for k, name in enumerate(GENERATOR_NAMES)}
    z = np.full(len(words), base.z, dtype=np.complex128)
    t = np.full(len(words), base.t)
    for j in range(max(map(len, words)) - 1, -1, -1):
        rows = np.array([k for k, w in enumerate(words) if len(w) > j], dtype=np.int64)
        letters = np.array([index[words[k][j]] for k in rows], dtype=np.int64)
        z[rows], t[rows] = _ballfast.act(mats[:, letters], conj[letters], z[rows], t[rows])
    return np.sort(_ballfast.distance(z, t, base.z, base.t))


_TWIN_GROUPS = [("free", _face_word), ("full", None), ("kernel", in_perp_kernel)]


def _assert_walk_matches_the_word_route(label, keep, max_len):
    words = _twin_words(max_len, keep)
    for base in TWIN_BASE_POINTS:
        fast = _walked(orbit_ball(label, base, max_len))
        slow = _word_route_displacements(words, base)
        assert fast.size == slow.size
        assert np.max(np.abs(fast - slow)) < 1e-9


@pytest.mark.parametrize("max_len", [4, 5, 6])
@pytest.mark.parametrize("label, keep", _TWIN_GROUPS)
def test_pruned_and_streamed_walks_match_the_word_route(label, keep, max_len):
    _assert_walk_matches_the_word_route(label, keep, max_len)


@pytest.mark.parametrize("label, keep", _TWIN_GROUPS)
def test_walks_match_the_word_route_across_slice_boundaries(monkeypatch, label, keep):
    """Seven-row slices, so that every level but the first few spans several."""
    monkeypatch.setattr(_ballfast, "_CHUNK", 7)
    _assert_walk_matches_the_word_route(label, keep, 5)


@pytest.mark.parametrize("label, max_len", [("free", 8), ("full", 6), ("kernel", 6)])
def test_counting_function_matches_the_word_route_exactly(label, max_len):
    """N(T) at every 0.1 grid point, the counts the exponent fit reads."""
    if label == "free":
        words = [free_to_face_word(w) for w in enumerate_free_ball(max_len)]
    else:
        words = _twin_words(max_len, in_perp_kernel if label == "kernel" else None)
    ball = orbit_ball(label, DEFAULT_BASE_POINT, max_len)
    slow = _word_route_displacements(words, DEFAULT_BASE_POINT)
    grid = [k * 0.1 for k in range(math.ceil(ball.radius / 0.1) + 2)]
    assert [ball.counting_function(t) for t in grid] == [
        int(np.searchsorted(slow, t, side="right")) for t in grid
    ]


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("label, max_len", [("free", 8), ("full", 6), ("kernel", 6)])
def test_grid_counts_are_searchsorted_over_the_walked_slices(monkeypatch, label, max_len, chunk):
    """The streamed bins against the sorted join of the same slices, also
    with seven-row walker slices."""
    if chunk is not None:
        monkeypatch.setattr(_ballfast, "_CHUNK", chunk)
    ball = orbit_ball(label, DEFAULT_BASE_POINT, max_len)
    walked = _walked(ball)
    grid = np.arange(ball.grid_counts.size) * GRID_STEP
    assert ball.grid_counts.tolist() == np.searchsorted(walked, grid, side="right").tolist()
    assert ball.count == walked.size
    assert ball.radius == walked[-1]


@pytest.mark.parametrize("label, max_len", [("free", 8), ("full", 6), ("kernel", 6)])
def test_walk_does_not_depend_on_the_block_size(monkeypatch, label, max_len):
    """Single-parent and seven-parent blocks give the same bits as the
    default: every displacement is summed in one order, wherever its parent
    sits in its block."""
    walks = []
    for chunk in (1, 7, _ballfast._CHUNK):
        monkeypatch.setattr(_ballfast, "_CHUNK", chunk)
        walks.append(_walked(orbit_ball(label, DEFAULT_BASE_POINT, max_len)).tobytes())
    assert walks[0] == walks[1] == walks[2]


@pytest.mark.parametrize("label, max_len", [("free", 6), ("full", 4), ("kernel", 5)])
def test_walked_displacements_match_the_exact_word_products(label, max_len):
    """The carried Gram vectors against act and distance on each word's exact
    Gaussian-integer product, within 1e-13 at both twin base points."""
    if label == "free":
        words = [free_to_face_word(w) for w in enumerate_free_ball(max_len)]
    else:
        words = _twin_words(max_len, in_perp_kernel if label == "kernel" else None)
    mats, conj = _ballfast.isom_table([evaluate_word(word) for word in words])
    for base in TWIN_BASE_POINTS:
        w, t = _ballfast.act(mats, conj, base.z, base.t)
        exact = np.sort(_ballfast.distance(w, t, base.z, base.t))
        walked = _walked(orbit_ball(label, base, max_len))
        assert walked.size == exact.size
        assert np.max(np.abs(walked - exact)) < 1e-13


@pytest.mark.parametrize("label, max_len", [("free", 10), ("full", 7), ("kernel", 7)])
def test_walker_slices_hold_at_most_one_block_of_children(label, max_len):
    """A block of _CHUNK parents has at most eight children, so no slice
    outgrows 65,536 floats; the identity's 0 comes first."""
    base = DEFAULT_BASE_POINT
    walk = _ballfast._sphere_displacements(base.z, base.t, max_len, label)
    sizes = [piece.size for piece in walk]
    assert 8 * _ballfast._CHUNK == 1 << 16
    assert sizes[0] == 1
    assert max(sizes) <= 8 * _ballfast._CHUNK


def test_orbit_ball_memory_is_bounded_by_the_blocks_of_the_walk(monkeypatch):
    """Peak of numpy's allocations, as tracemalloc sees them, while the full
    ball of word length 9 (4.4M elements) is built: 7.8 MB for the
    depth-first walk, 41.8 MB for the level-by-level walk before it, which
    held the widest sphere.  The bound is their geometric mean.  The walk
    stays in this process, where tracemalloc sees all of it."""
    monkeypatch.setattr(geometry, "_part_count", lambda: 1)
    orbit_ball("full", DEFAULT_BASE_POINT, 3)
    tracemalloc.start()
    try:
        orbit_ball("full", DEFAULT_BASE_POINT, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < math.sqrt(41.84e6 * 7.80e6)


@pytest.mark.parametrize(
    "label, all_children_peak, one_block_peak",
    [("full", 7_392_718, 3_692_498), ("kernel", 5_669_199, 3_080_328)],
)
def test_walk_forms_one_child_block_at_a_time(
    monkeypatch, label, all_children_peak, one_block_peak
):
    """Peak of numpy's allocations, as tracemalloc sees them, while the full
    and the kernel ball of word length 9 are built: 3.69 and 3.08 MB for a
    walk that forms its children one block of _CHUNK at a time, 7.39 and
    5.67 MB for the walk before it, whose blocks formed all of their up to
    8 _CHUNK children before walking the first.  Each bound is the
    geometric mean of the two peaks.  The walk stays in this process, where
    tracemalloc sees all of it."""
    monkeypatch.setattr(geometry, "_part_count", lambda: 1)
    orbit_ball(label, DEFAULT_BASE_POINT, 3)
    tracemalloc.start()
    try:
        orbit_ball(label, DEFAULT_BASE_POINT, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < math.sqrt(all_children_peak * one_block_peak)


@pytest.mark.parametrize(
    "label, all_children_peak, one_block_peak",
    [("full", 7_392_718, 3_692_498), ("kernel", 5_669_199, 3_080_328)],
)
def test_each_part_of_a_split_walk_forms_one_child_block_at_a_time(
    label, all_children_peak, one_block_peak
):
    """The bound of the test above on each part of the walk split in two,
    each walked and binned here as ``_split_counts`` has a child walk it,
    so that tracemalloc sees the part a child would walk."""
    geometry._walk_part(label, DEFAULT_BASE_POINT, 3, (1, 2))
    for p in range(2):
        tracemalloc.start()
        try:
            geometry._walk_part(label, DEFAULT_BASE_POINT, 9, (p, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < math.sqrt(all_children_peak * one_block_peak)


def _call_depth():
    """The recursion depth at the caller as the interpreter's limit counts
    it, which under a test runner is more than the frames on the stack."""

    def down(n):
        try:
            return down(n + 1)
        except RecursionError:
            return n

    return sys.getrecursionlimit() - down(1)


def test_deep_walks_stay_clear_of_the_recursion_limit(monkeypatch):
    """Free L = 12 in seven-parent blocks, under a recursion limit ten calls
    deeper than the caller's: the walk keeps its levels on a stack of its
    own, so its call depth does not grow with the word length.  A walk of
    nested generators, one per level, raises RecursionError here; it needs
    about sixteen."""
    base = DEFAULT_BASE_POINT
    # a first walk fills the caches whose first calls run deeper than a walk
    orbit_ball("free", base, 3)
    monkeypatch.setattr(_ballfast, "_CHUNK", 7)
    walked = 0
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_call_depth() + 10)
    try:
        for piece in _ballfast._sphere_displacements(base.z, base.t, 12, "free"):
            walked += piece.size
    finally:
        sys.setrecursionlimit(limit)
    assert walked == 2 * 3**12 - 1


def test_grid_bins_are_exact_at_and_next_to_the_grid_points():
    """Zero, every k GRID_STEP up to 20 and its neighbours on both sides,
    split over unsorted slices of several sizes."""
    grid = np.arange(201) * GRID_STEP
    values = np.concatenate(
        [[0.0], grid, np.nextafter(grid[1:], 0.0), np.nextafter(grid, np.inf)]
    )
    shuffled = np.random.default_rng(5).permutation(values)
    pieces = np.split(shuffled, [1, 8, 300])
    ball = OrbitBall(DEFAULT_BASE_POINT, 0, lambda: iter(pieces))
    ordered = np.sort(values)
    assert ball.count == values.size
    assert ball.radius == ordered[-1] == np.nextafter(20.0, np.inf)
    expected = np.searchsorted(ordered, grid, side="right")
    assert [ball.counting_function(t) for t in grid] == expected.tolist()
    assert ball.grid_counts.tolist() == np.searchsorted(
        ordered, np.arange(ball.grid_counts.size) * GRID_STEP, side="right"
    ).tolist()
    assert ball.counting_function(ball.radius) == ball.count
    assert ball.counting_function(-GRID_STEP) == 0


def test_counting_function_is_defined_on_the_grid_and_past_the_radius():
    ball = orbit_ball("free", DEFAULT_BASE_POINT, 6)
    assert ball.counting_function(3 * GRID_STEP) == int(ball.grid_counts[3])
    # 0.3 is not the float 3 * 0.1 = 0.30000000000000004
    for t in (0.05, 0.3, np.nextafter(3 * GRID_STEP, 1.0), ball.radius - 1e-9, math.nan, -math.inf):
        with pytest.raises(DomainError, match="multiples"):
            ball.counting_function(t)
    for t in (ball.radius, ball.radius + 0.05, math.inf):
        assert ball.counting_function(t) == ball.count


def _random_normal_form(rng, letters, length):
    """A uniformly stepped random normal form on the letters: each letter is
    drawn among those that keep the word a normal form."""
    word = ()
    for _ in range(length):
        options = [name for name in letters if is_normal_form(word + (name,))]
        word += (options[rng.integers(len(options))],)
    return word


@pytest.mark.parametrize("base", TWIN_BASE_POINTS, ids=["default", "second"])
def test_carried_gram_rows_give_the_displacements(base):
    """The identity's row pushed through the letter maps one letter at a time,
    then read out, against act and distance on the exact word matrix, up to
    the guarded lengths of both letter sets."""
    rng = np.random.default_rng(11)
    maps = _ballfast._letter_maps()
    start, readout = _ballfast._frame(base.z, base.t)
    index = {name: k for k, name in enumerate(GENERATOR_NAMES)}
    face = [name for name in GENERATOR_NAMES if not name.endswith("p")]
    guards = ((face, _ballfast.MAX_FREE_LEN), (GENERATOR_NAMES, _ballfast.MAX_RACG_LEN))
    for letters, guard in guards:
        for length in range(guard + 1):
            for _ in range(3):
                word = _random_normal_form(rng, letters, length)
                assert len(word) == length
                row = start
                for j, name in enumerate(word):
                    row = row @ maps[j % 2, index[name]]
                w, t = _ballfast.act(*_ballfast.isom_table([evaluate_word(word)]), base.z, base.t)
                slow = np.cosh(_ballfast.distance(w, t, base.z, base.t))[0]
                np.testing.assert_allclose(row @ readout[length % 2], slow, rtol=1e-12, atol=0)


def test_letter_maps_of_the_two_parities_are_inverse():
    """Every letter is an involution, so G conj(G) is a unit scalar and the
    two parity maps of a letter undo each other."""
    maps = _ballfast._letter_maps()
    for g in range(len(GENERATOR_NAMES)):
        np.testing.assert_allclose(maps[0, g] @ maps[1, g], np.eye(4), rtol=0, atol=1e-14)
        np.testing.assert_allclose(maps[1, g] @ maps[0, g], np.eye(4), rtol=0, atol=1e-14)


@pytest.mark.parametrize("error", [-1, 1])
@pytest.mark.parametrize("label", ORBIT_GROUPS)
def test_walker_growth_check_catches_a_wrong_sphere_count(monkeypatch, label, error):
    """Off by one on the last sphere only: for the kernel, that sphere is
    checked through the continuation count of the pruned prefixes."""
    max_len = 6
    *head, count = _ballfast._WALKS[label]
    wrong = (*head, lambda n: count(n) + error * (n == max_len))
    monkeypatch.setitem(_ballfast._WALKS, label, wrong)
    with pytest.raises(AssertionError):
        orbit_ball(label, DEFAULT_BASE_POINT, max_len)


#: The shortest split lengths as shipped, before ``forks`` lowers them.
_SHIPPED_SPLIT_FROM = geometry._SPLIT_FROM


@pytest.fixture
def forks(monkeypatch):
    """Walks split at any size; the list of the pids of the children forked."""
    monkeypatch.setattr(geometry, "_SPLIT_FROM", dict.fromkeys(ORBIT_GROUPS, 0))
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize(
    "label, max_len, chunk",
    [
        ("free", 8, None),
        ("full", 6, None),
        ("kernel", 6, None),
        ("free", 7, 7),
        ("full", 5, 7),
        ("kernel", 5, 7),
    ],
)
def test_split_walk_counts_equal_the_whole_walk_bit_for_bit(
    monkeypatch, forks, label, max_len, parts, chunk
):
    """A ball walked in parts, all but one in forked children, against the
    same ball built from the whole walk's slices, at both twin base points;
    with seven-parent blocks the split level deals several blocks."""
    if chunk is not None:
        monkeypatch.setattr(_ballfast, "_CHUNK", chunk)
    monkeypatch.setattr(geometry, "_part_count", lambda: parts)
    for base in TWIN_BASE_POINTS:
        split = orbit_ball(label, base, max_len)
        whole = OrbitBall(base, max_len, split.slices)
        assert split.grid_counts.dtype == whole.grid_counts.dtype == np.int64
        assert split.grid_counts.tobytes() == whole.grid_counts.tobytes()
        assert (split.count, split.radius) == (whole.count, whole.radius)
    assert len(forks) == 2 * (parts - 1)
    _assert_no_child_left()


@pytest.mark.parametrize("error", [-1, 1])
@pytest.mark.parametrize("label", ORBIT_GROUPS)
def test_split_walk_growth_check_runs_on_the_summed_tallies(monkeypatch, forks, label, error):
    """The wrong last sphere of the test above, in a walk split in two: no
    part's tally alone makes a sphere count, so the check runs in the parent,
    on the tallies summed over the parts."""
    monkeypatch.setattr(geometry, "_part_count", lambda: 2)
    max_len = 6
    *head, count = _ballfast._WALKS[label]
    wrong = (*head, lambda n: count(n) + error * (n == max_len))
    monkeypatch.setitem(_ballfast._WALKS, label, wrong)
    with pytest.raises(AssertionError, match=f"sphere {max_len}:"):
        orbit_ball(label, DEFAULT_BASE_POINT, max_len)
    assert len(forks) == 1
    _assert_no_child_left()


def _fail_in_part(monkeypatch, failing, failure):
    """Make the walk of part ``failing`` of a split walk call ``failure``."""
    walk = _ballfast._sphere_displacements

    def patched(z0, t0, max_len, group, part=(0, 1)):
        if part[0] == failing and part[1] > 1:
            failure()
        return walk(z0, t0, max_len, group, part)

    monkeypatch.setattr(_ballfast, "_sphere_displacements", patched)


def _raise_runtime_error():
    raise RuntimeError("part failed")


@pytest.mark.parametrize(
    "failing, failure, raised",
    [
        (1, _raise_runtime_error, RuntimeError),
        (1, lambda: os._exit(3), ChildProcessError),
        (0, _raise_runtime_error, RuntimeError),
    ],
    ids=["child-raises", "child-dies", "parent-raises"],
)
def test_no_process_outlives_a_split_walk(monkeypatch, forks, failing, failure, raised):
    """After a split walk returns, and after a part fails in a child or in
    the parent, the failure surfaces in the parent and no child is left."""
    monkeypatch.setattr(geometry, "_part_count", lambda: 3)
    assert orbit_ball("full", DEFAULT_BASE_POINT, 6).count == 35149
    assert len(forks) == 2
    _assert_no_child_left()
    _fail_in_part(monkeypatch, failing, failure)
    with pytest.raises(raised):
        orbit_ball("full", DEFAULT_BASE_POINT, 6)
    assert len(forks) == 4
    _assert_no_child_left()


@pytest.mark.parametrize("label, max_len", [("free", 16), ("full", 11), ("kernel", 11)])
def test_split_walk_refuses_guarded_lengths_before_forking(monkeypatch, forks, label, max_len):
    monkeypatch.setattr(geometry, "_part_count", lambda: 2)
    with pytest.raises(MemoryGuardError):
        orbit_ball(label, DEFAULT_BASE_POINT, max_len)
    assert forks == []


def _no_fork():
    raise AssertionError("the walk forked")


@pytest.mark.parametrize("reason", ["one CPU", "a second thread", "a small ball"])
def test_walk_falls_back_to_one_process(monkeypatch, forks, reason):
    """Counts equal to the split walk's, with os.fork made to fail; the
    small ball is small by the shipped ``_SPLIT_FROM``."""
    monkeypatch.setattr(geometry, "_part_count", lambda: 2)
    split = orbit_ball("kernel", DEFAULT_BASE_POINT, 7)
    assert len(forks) == 1
    monkeypatch.setattr(os, "fork", _no_fork)
    if reason == "one CPU":
        monkeypatch.setattr(geometry, "_part_count", lambda: 1)
    elif reason == "a small ball":
        monkeypatch.setattr(geometry, "_SPLIT_FROM", _SHIPPED_SPLIT_FROM)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    if reason == "a second thread":
        thread.start()
    try:
        whole = orbit_ball("kernel", DEFAULT_BASE_POINT, 7)
    finally:
        done.set()
        if thread.is_alive():
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert whole.grid_counts.tobytes() == split.grid_counts.tobytes()
    assert (whole.count, whole.radius) == (split.count, split.radius)


@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
def test_part_count_is_capped_at_the_measured_parts(monkeypatch, cpus):
    """A walk is split into no more parts than a split has been measured
    on, however many CPUs the affinity mask or, without one, os.cpu_count
    offers; no walk runs here."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert geometry._part_count() == min(cpus, geometry._MAX_PARTS) == min(cpus, 2)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert geometry._part_count() == min(cpus, 2)


@pytest.mark.parametrize("label, max_len", [("free", 16), ("full", 11), ("kernel", 11)])
def test_orbit_ball_refuses_lengths_past_the_memory_guard(label, max_len):
    with pytest.raises(MemoryGuardError):
        orbit_ball(label, DEFAULT_BASE_POINT, max_len)


@pytest.mark.parametrize("label", ORBIT_GROUPS)
def test_orbit_ball_rejects_negative_lengths(label):
    with pytest.raises(DomainError):
        orbit_ball(label, DEFAULT_BASE_POINT, -1)


@pytest.mark.parametrize("max_len", [True, 2.0, "3"])
def test_orbit_ball_rejects_lengths_that_are_not_integers(max_len):
    with pytest.raises(DomainError, match="integer"):
        orbit_ball("free", DEFAULT_BASE_POINT, max_len)


def test_orbit_ball_takes_numpy_integer_lengths():
    assert orbit_ball("free", DEFAULT_BASE_POINT, np.int64(3)).count == 2 * 3**3 - 1


@pytest.mark.parametrize("base", [Point3(complex(math.nan, 0.0), 1.0), Point3(0.5j, math.inf)])
def test_orbit_ball_rejects_a_non_finite_base_point(base):
    with pytest.raises(DomainError, match="finite"):
        orbit_ball("full", base, 3)


def test_orbit_ball_displacements_are_sorted_from_zero():
    """The walker yields the identity's 0 first; the ball counts one point
    at 0 and all of them at the radius."""
    walk = orbit_ball("free", DEFAULT_BASE_POINT, 5)
    assert next(iter(walk.slices())).tolist() == [0.0]
    assert walk.radius == _walked(walk)[-1]
    assert walk.counting_function(0.0) == 1
    assert walk.counting_function(walk.radius) == walk.count


def test_orbit_ball_rejects_unknown_group_labels():
    """Only the names in ORBIT_GROUPS select a walk; a word generator does not."""

    def words(max_len):
        return (free_to_face_word(w) for w in enumerate_free_ball(max_len))

    for group in ("fre", words):
        with pytest.raises(DomainError):
            orbit_ball(group, DEFAULT_BASE_POINT, 4)


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
    for mu in (math.inf, math.nan):
        with pytest.raises(DomainError):
            spectral_gap_bounds(mu=mu)
