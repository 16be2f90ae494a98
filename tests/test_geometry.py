"""Tests for upper half space geometry, orbit balls, and volume bounds."""

import io
import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, given
from hypothesis import strategies as st

from octagap import _ballfast
from octagap.errors import DomainError, InsufficientDataError, MemoryGuardError, TruncationError
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
    evaluate_word,
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


#: The twins' base points: the default one and one off its symmetry lines.
TWIN_BASE_POINTS = (DEFAULT_BASE_POINT, point(0.35, 0.38, 0.95))


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
        fast = orbit_ball(label, base, max_len).displacements
        slow = _word_route_displacements(words, base)
        assert fast.size == slow.size
        assert np.max(np.abs(fast - slow)) < 1e-9


@pytest.mark.parametrize("max_len", [5, 6])
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


@pytest.mark.parametrize("base", TWIN_BASE_POINTS, ids=["default", "second"])
def test_gram_weights_give_the_child_displacements(base):
    """<S, w> for every letter and both parent parities against act and distance."""
    rng = np.random.default_rng(11)
    table, _ = _ballfast.isom_table([STANDARD_GENERATORS[name] for name in GENERATOR_NAMES])
    weights = _ballfast._letter_weights(table, base.z, base.t)
    for length in range(7):
        for _ in range(4):
            word = tuple(GENERATOR_NAMES[k] for k in rng.integers(8, size=length))
            mats, conj = _ballfast.isom_table([evaluate_word(word)])
            assert conj[0] == length % 2
            fast = _ballfast._gram(mats, base.z, base.t) @ weights[length % 2]
            children = [evaluate_word(word + (name,)) for name in GENERATOR_NAMES]
            w, t = _ballfast.act(*_ballfast.isom_table(children), base.z, base.t)
            slow = np.cosh(_ballfast.distance(w, t, base.z, base.t))
            np.testing.assert_allclose(fast[0], slow, rtol=1e-12, atol=0)


@pytest.mark.parametrize("error", [-1, 1])
@pytest.mark.parametrize("label", ORBIT_GROUPS)
def test_walker_growth_check_catches_a_wrong_sphere_count(monkeypatch, label, error):
    """Off by one on the last sphere only: for the kernel, that sphere is
    checked through the continuation count of the pruned prefixes."""
    max_len = 6
    letters = _ballfast.FACE_LETTERS if label == "free" else _ballfast.ALL_LETTERS
    guard, count = _ballfast._WALKS[letters]
    monkeypatch.setitem(
        _ballfast._WALKS, letters, (guard, lambda n: count(n) + error * (n == max_len))
    )
    with pytest.raises(AssertionError):
        orbit_ball(label, DEFAULT_BASE_POINT, max_len)


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
