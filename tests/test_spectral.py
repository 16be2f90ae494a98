"""Tests for zeta values, scattering coefficients, and spectral bound terms."""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from octagap.errors import DomainError, MemoryGuardError, PoleError, TruncationError
from octagap.geometry import DEFAULT_BASE_POINT, orbit_ball
from octagap.spectral import (
    FlatteningBudget,
    SpectralParams,
    _scattering_counts,
    ball_delocalization_bound,
    bessel_k,
    cusp_decay_ratio_bessel,
    cusp_decay_ratio_zeroth,
    cusp_kernel_growth,
    dedekind_zeta_qi,
    dirichlet_beta,
    flattening_budget,
    gaussian_lattice_zeta,
    riemann_zeta,
    scattering_coefficient,
    scattering_lattice_sum,
    scattering_oracle_value,
    scattering_pole_scan,
    selberg_h,
    selberg_h_quadrature,
    tangle_delocalization_bound,
)

SCATTERING_VALUES = {
    (2.5, 1): 0.92922461599435269,
    (3.0, 1): 0.50799902055086488,
    (4.0, 1): 0.28488158024837779,
    (2.5, 2): 0.008818466716113877,
    (3.0, 2): 0.0022678527703163609,
    (4.0, 2): 0.00029675164609206022,
}


# -- zeta functions ------------------------------------------------------------


@pytest.mark.parametrize("s", [1.5, 2.0, 2.5, 3.0, 4.0])
def test_riemann_zeta_matches_mpmath(s):
    assert riemann_zeta(s) == pytest.approx(float(mpmath.zeta(s)), rel=1e-12)


@pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 4.0])
def test_dirichlet_beta_matches_the_hurwitz_expression(s):
    expected = 4.0**-s * float(mpmath.zeta(s, 0.25) - mpmath.zeta(s, 0.75))
    assert dirichlet_beta(s) == pytest.approx(expected, rel=1e-12)


def test_dirichlet_beta_special_values():
    assert dirichlet_beta(1.0) == pytest.approx(math.pi / 4.0, rel=1e-12)
    assert dirichlet_beta(2.0) == pytest.approx(float(mpmath.catalan), rel=1e-12)


@pytest.mark.parametrize("s", [2.0, 3.0])
def test_dedekind_zeta_factors_and_matches_the_lattice_sum(s):
    product = riemann_zeta(s) * dirichlet_beta(s)
    assert dedekind_zeta_qi(s) == pytest.approx(product, rel=1e-12)
    assert abs(gaussian_lattice_zeta(s) - dedekind_zeta_qi(s)) < 1e-5


def test_gaussian_lattice_zeta_guards_its_radius():
    with pytest.raises(MemoryGuardError):
        gaussian_lattice_zeta(2.0, radius=5000.0)
    with pytest.raises(DomainError):
        gaussian_lattice_zeta(1.0)


# -- scattering coefficients -----------------------------------------------------


@pytest.mark.parametrize(("s", "level"), sorted(SCATTERING_VALUES))
def test_scattering_formula_frozen_values(s, level):
    assert scattering_coefficient(s, level) == pytest.approx(
        SCATTERING_VALUES[(s, level)], rel=1e-13
    )


@pytest.mark.parametrize(("s", "level"), [(2.5, 1), (3.0, 1), (3.0, 2)])
def test_scattering_formula_matches_the_counting_oracle(s, level):
    formula = scattering_coefficient(s, level)
    oracle = scattering_oracle_value(s, level, radius=60.0)
    assert abs(oracle - formula) / abs(formula) < 2e-4


def test_tail_correction_tightens_the_truncated_sum():
    formula = scattering_coefficient(2.5, 1)
    raw = scattering_lattice_sum(2.5, 1, radius=60.0)
    corrected = scattering_oracle_value(2.5, 1, radius=60.0)
    assert abs(corrected - formula) < abs(raw - formula)


def test_scattering_has_a_pole_at_two():
    with pytest.raises(PoleError):
        scattering_coefficient(2.0)
    near = scattering_coefficient(1.9999)
    assert near < 0 and abs(near) > 1e3


@pytest.mark.parametrize("s", [math.nan, math.inf])
def test_scattering_coefficient_rejects_non_finite_s(s):
    with pytest.raises(DomainError):
        scattering_coefficient(s)


def test_scattering_pole_scan_is_empty_inside_the_strip():
    for level in (1, 2, 3):
        assert scattering_pole_scan(level, grid_points=200) == []


def test_scattering_pole_scan_flags_what_the_scalar_coefficient_exceeds():
    grid = np.linspace(1.05, 1.95, 60)
    scalar = [abs(scattering_coefficient(float(s), 2)) for s in grid]
    ranked = sorted(scalar)
    threshold = (ranked[29] + ranked[30]) / 2.0  # far from every value
    expected = [float(s) for s, value in zip(grid, scalar) if value > threshold]
    assert len(expected) == 30
    assert scattering_pole_scan(2, grid_points=60, threshold=threshold) == expected


def test_scattering_pole_scan_flags_non_finite_values(monkeypatch):
    def formula(s, level):
        values = np.ones_like(s)
        values[1], values[3] = np.inf, np.nan
        return values

    monkeypatch.setattr("octagap.spectral._scattering_formula", formula)
    grid = np.linspace(1.1, 1.9, 5)
    assert scattering_pole_scan(1, (1.1, 1.9), 5) == [grid[1], grid[3]]


def test_scattering_rejects_bad_arguments():
    with pytest.raises(DomainError):
        scattering_coefficient(1.0)
    with pytest.raises(DomainError):
        scattering_coefficient(2.5, level=0)
    with pytest.raises(DomainError):
        scattering_coefficient(2.5, level=True)
    with pytest.raises(DomainError):
        scattering_lattice_sum(2.5, True, radius=20.0)
    with pytest.raises(DomainError):
        scattering_lattice_sum(1.5, 1)
    with pytest.raises(DomainError):
        scattering_lattice_sum(2.5, 1, radius=5.0)
    with pytest.raises(MemoryGuardError):
        scattering_lattice_sum(2.5, 1, radius=1000.0)


@given(st.floats(2.05, 6.0), st.sampled_from([1, 2, 3]))
def test_scattering_formula_is_finite_and_positive_past_the_pole(s, level):
    value = scattering_coefficient(s, level)
    assert math.isfinite(value) and value > 0


# -- the sieved counting oracle against its brute-force twin -----------------------


def _round_div(t: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Elementwise nearest integer of t / n for positive n."""
    return (2 * t + n) // (2 * n)


def _coprime_shift_count(x: int, y: int, level: int) -> int:
    """Number of k in a transversal of Z[i]/(x + iy) with gcd(x + iy, 1 + level k) a unit."""
    nn = x * x + y * y
    g = math.gcd(x, y)
    kx = np.arange(nn // g, dtype=np.int64)
    ky = np.arange(g, dtype=np.int64)
    bre = np.repeat(1 + level * kx, g)
    bim = np.tile(level * ky, nn // g)
    are = np.full(bre.shape, x, dtype=np.int64)
    aim = np.full(bre.shape, y, dtype=np.int64)
    while True:
        active = (bre != 0) | (bim != 0)
        if not active.any():
            break
        ar, ai = are[active], aim[active]
        br, bi = bre[active], bim[active]
        nb = br * br + bi * bi
        qre = _round_div(ar * br + ai * bi, nb)
        qim = _round_div(ai * br - ar * bi, nb)
        are[active], aim[active] = br, bi
        bre[active] = ar - (qre * br - qim * bi)
        bim[active] = ai - (qre * bi + qim * br)
    return int(np.count_nonzero(are * are + aim * aim == 1))


def _class_representatives(level: int, norm_cut: int) -> list[tuple[int, int]]:
    """The classes x + iy (x > 0, y >= 0) in the order the oracle returns them."""
    cut = norm_cut // (level * level)
    pairs = [
        (x, y)
        for x in range(1, math.isqrt(cut) + 1)
        for y in range(math.isqrt(cut - x * x) + 1)
    ]
    order = np.argsort([x * x + y * y for x, y in pairs], kind="stable")
    return [pairs[i] for i in order]


@pytest.mark.parametrize("level", [1, 2, 3, 5, 6])
def test_sieved_counts_match_the_euclid_count_per_class(level):
    """Ramified (2), inert (3), split (5) and composite (6) levels, |c| <= 30."""
    norms, counts = _scattering_counts(level, 30 * 30)
    classes = _class_representatives(level, 30 * 30)
    assert norms.tolist() == [level * level * (x * x + y * y) for x, y in classes]
    assert counts.tolist() == [_coprime_shift_count(x, y, level) for x, y in classes]


#: level -> (classes, sum of counts, lattice sum at s = 3), all at radius 120,
#: as the per-class Euclid count gave them.
ORACLE_AT_RADIUS_120 = {
    1: (11306, 54033376, 1.2935726799949365),
    2: (2822, 4490143, 0.02309713740876685),
    3: (1256, 673418, 0.0017764820716541258),
}


@pytest.mark.parametrize("level", sorted(ORACLE_AT_RADIUS_120))
def test_oracle_at_radius_120_is_pinned(level):
    n_classes, total, lattice_sum = ORACLE_AT_RADIUS_120[level]
    norms, counts = _scattering_counts(level, 120 * 120)
    assert (len(norms), len(counts), int(counts.sum())) == (n_classes, n_classes, total)
    assert norms.dtype == counts.dtype == np.int64
    assert scattering_lattice_sum(3.0, level, 120.0) == lattice_sum


def test_cached_oracle_arrays_are_read_only():
    norms, counts = _scattering_counts(2, 30 * 30)
    with pytest.raises(ValueError):
        norms[0] = 0
    with pytest.raises(ValueError):
        counts[0] = 0


# -- the Selberg transform ---------------------------------------------------------


@pytest.mark.parametrize("truncation", [1.0, 2.5, 4.0])
@pytest.mark.parametrize("lam", [0.2, 0.5, 0.9])
def test_selberg_closed_form_matches_quadrature(truncation, lam):
    closed = selberg_h(truncation, lam)
    quad = selberg_h_quadrature(truncation, lam)
    assert abs(closed - quad) < 1e-12


def test_selberg_at_the_bottom_of_the_spectrum():
    assert selberg_h(2.0, 1.0) == pytest.approx(selberg_h_quadrature(2.0, 1.0), abs=1e-12)
    assert selberg_h(2.0, 1.0 - 1e-10) == pytest.approx(selberg_h(2.0, 1.0), rel=1e-6)


def test_selberg_is_positive_and_grows_with_truncation():
    values = [selberg_h(t, 0.5) for t in (1.0, 2.0, 3.0, 4.0)]
    assert all(v > 0 for v in values)
    assert all(a < b for a, b in zip(values, values[1:]))


def test_selberg_large_truncation_asymptotics():
    """For large T the transform behaves like 2 pi sinh(sT) / (s (s + 1))."""
    for lam in (0.2, 0.5, 0.75):
        s = math.sqrt(1.0 - lam)
        for truncation in (28.0, 34.0):
            ratio = selberg_h(truncation, lam) * s / math.sinh(s * truncation)
            assert ratio == pytest.approx(2.0 * math.pi / (s + 1.0), rel=1e-9)


def test_selberg_rejects_bad_arguments():
    with pytest.raises(DomainError):
        selberg_h(0.0, 0.5)
    with pytest.raises(DomainError):
        selberg_h(2.0, 1.5)
    with pytest.raises(DomainError):
        selberg_h(2.0, -0.1)


# -- cusp decay ratios ----------------------------------------------------------------


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_zeroth_mode_decay_ratio_closed_form(s):
    assert cusp_decay_ratio_zeroth(s) == pytest.approx(4.0**s - 1.0, rel=1e-12)


@pytest.mark.parametrize(("order", "x"), [(0.1, 0.5), (0.5, 0.1), (0.5, 5.0), (0.9, 20.0)])
def test_bessel_k_matches_scipy(order, x):
    assert bessel_k(order, x) == pytest.approx(scipy.special.kv(order, x), rel=1e-10)


def test_bessel_k_only_covers_the_open_unit_order_interval():
    with pytest.raises(DomainError):
        bessel_k(1.3, 1.0)
    with pytest.raises(DomainError):
        bessel_k(0.5, 0.0)


def test_bessel_mode_decay_ratio_matches_direct_quadrature():
    s, frequency, radius = 0.6, 1.0, 1.0

    def integrand(t):
        return scipy.special.kv(s, 2.0 * math.pi * frequency * t) ** 2 / t

    window, _ = scipy.integrate.quad(integrand, radius, 2.0 * radius)
    tail, _ = scipy.integrate.quad(integrand, 2.0 * radius, 8.0)
    assert cusp_decay_ratio_bessel(s, frequency, radius) == pytest.approx(
        window / tail, rel=1e-6
    )


def test_bessel_mode_decay_ratio_grows_with_the_radius():
    assert cusp_decay_ratio_bessel(0.6, 1.0, 2.0) > cusp_decay_ratio_bessel(0.6, 1.0, 1.0) > 1.0


# -- kernel growth and budget terms ------------------------------------------------------


def test_kernel_growth_closed_forms():
    assert cusp_kernel_growth([(2, 1.0, 1.0)], 4.0) == pytest.approx(
        math.log(math.sinh(2.0)), rel=1e-12
    )
    expected = (2.0 / 1.5) * math.log(2.0 * math.sinh(2.0) / 1.5)
    assert cusp_kernel_growth([(1, 2.0, 1.5)], 4.0) == pytest.approx(expected, rel=1e-12)


def test_kernel_growth_skips_low_cusps_and_adds_contributions():
    assert cusp_kernel_growth([(2, 0.5, 1.0)], 4.0) == 0.0
    assert cusp_kernel_growth([], 4.0) == 0.0
    both = cusp_kernel_growth([(2, 1.0, 1.0), (1, 2.0, 1.5)], 4.0)
    assert both == pytest.approx(
        cusp_kernel_growth([(2, 1.0, 1.0)], 4.0) + cusp_kernel_growth([(1, 2.0, 1.5)], 4.0),
        rel=1e-12,
    )


def test_kernel_growth_validates_ranks_and_truncation():
    with pytest.raises(DomainError):
        cusp_kernel_growth([(3, 1.0, 1.0)], 4.0)
    with pytest.raises(DomainError):
        cusp_kernel_growth([(2, 1.0, 1.0)], 0.0)


def test_flattening_budget_frozen_totals_decrease_in_the_tangle_radius():
    totals = [
        flattening_budget([(1.0, 1.0, 1.0)], float(length), 0.4, 0.8, 0.01).total
        for length in (10, 15, 20, 25)
    ]
    assert totals[0] == pytest.approx(0.055886729844661358, rel=1e-12)
    assert totals[-1] == pytest.approx(0.00013619994449965277, rel=1e-12)
    assert all(a > b for a, b in zip(totals, totals[1:]))


def test_flattening_heights_take_the_larger_of_area_and_growth_scales():
    budget = flattening_budget([(1.0, 1e10, 4.0)], 20.0, 0.4, 0.8, 0.01)
    growth = math.exp(math.sqrt(1.0 - 0.8) * 20.0)
    assert budget.tau[0][0] == pytest.approx(growth, rel=1e-12)
    assert budget.tau[0][1] == pytest.approx(1e5, rel=1e-12)
    assert growth == pytest.approx(7663.866573592062, rel=1e-12)


def test_flattening_budget_terms_are_nonnegative_and_sum():
    budget = flattening_budget([(1.0, 2.0, 0.5)], 12.0, 0.3, 0.7, 0.05)
    assert budget.e1 >= 0 and budget.e2 >= 0 and budget.e3 >= 0
    assert budget.total == pytest.approx(budget.e1 + budget.e2 + budget.e3, rel=1e-12)
    assert isinstance(budget, FlatteningBudget)


def test_flattening_budget_validates_parameters():
    with pytest.raises(DomainError):
        flattening_budget([(1.0, 1.0, 1.0)], 10.0, 0.9, 0.8, 0.01)
    with pytest.raises(DomainError):
        flattening_budget([(1.0, 1.0, 1.0)], 10.0, 0.4, 0.8, 0.0)


def test_flattening_budget_with_no_faces_costs_nothing():
    budget = flattening_budget([], 10.0, 0.4, 0.8, 0.01)
    assert budget.total == 0.0
    assert budget.tau == ()


# -- delocalization bounds ----------------------------------------------------------------


def test_ball_delocalization_matches_a_direct_sum():
    ball = orbit_ball("free", DEFAULT_BASE_POINT, 6)
    truncation, lam = 4.0, 0.4
    bound = ball_delocalization_bound(ball, truncation, lam)
    d = np.asarray(ball.displacements)
    expected = (
        (1.0 - lam)
        / math.sinh(truncation * math.sqrt(1.0 - lam)) ** 2
        * float(np.exp(-d[d <= truncation]).sum())
    )
    assert bound == pytest.approx(expected, rel=1e-12)


def test_ball_delocalization_needs_a_big_enough_ball():
    ball = orbit_ball("free", DEFAULT_BASE_POINT, 6)
    with pytest.raises(TruncationError):
        ball_delocalization_bound(ball, ball.radius + 1.0, 0.4)


def test_tangle_delocalization_matches_the_stated_formula():
    length, lam, lam0, eps = 10.0, 0.4, 0.8, 0.01
    bound = tangle_delocalization_bound(
        length, lam, lam0, eps, cusps=[(2, 1.0, 1.0)], cover_cusps=[(1.5, 2.0)]
    )
    rest = cusp_kernel_growth([(2, 1.0, 1.0)], length)
    rest += 1.5**2 / 2.0 * math.log(1.5 * math.sinh(length / 2.0) / 2.0)
    expected = (
        (1.0 - lam)
        * math.exp(-2.0 * length * math.sqrt(1.0 - lam))
        * (math.exp(length * (math.sqrt(1.0 - lam0) + eps)) + rest)
    )
    assert bound == pytest.approx(expected, rel=1e-12)


def test_tangle_delocalization_skips_low_cover_cusps():
    base = tangle_delocalization_bound(10.0, 0.4, 0.8, 0.01)
    with_low = tangle_delocalization_bound(10.0, 0.4, 0.8, 0.01, cover_cusps=[(0.5, 2.0)])
    assert with_low == base


@pytest.mark.parametrize(
    "length, lam, lam0, eps",
    [
        (0.0, 0.4, 0.8, 0.01),
        (-1.0, 0.4, 0.8, 0.01),
        (10.0, 0.8, 0.8, 0.01),
        (10.0, 0.9, 0.8, 0.01),
        (10.0, 0.4, 0.8, 0.0),
        (10.0, 0.4, 0.8, -0.01),
    ],
)
def test_tangle_delocalization_validates_parameters(length, lam, lam0, eps):
    with pytest.raises(DomainError):
        tangle_delocalization_bound(length, lam, lam0, eps)


@given(st.floats(0.05, 0.7), st.floats(6.0, 20.0))
def test_tangle_delocalization_decays_in_the_tangle_radius(lam, length):
    near = tangle_delocalization_bound(length, lam, 0.8, 0.01)
    far = tangle_delocalization_bound(length + 2.0, lam, 0.8, 0.01)
    assert far < near


def test_spectral_params_validate_their_ranges():
    params = SpectralParams(lam=0.4)
    assert params.lam0 == 0.8 and params.eps == 0.01
    with pytest.raises(DomainError):
        SpectralParams(lam=0.4, eps=-1.0)
    with pytest.raises(DomainError):
        SpectralParams(lam=1.5)
    with pytest.raises(DomainError):
        SpectralParams(lam=0.9)
