"""Tests for zeta values, scattering coefficients, and spectral bound terms."""

import math
import re
import sys
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from octagap.errors import DomainError, MemoryGuardError, PoleError
from octagap.geometry import cap_volume_monte_carlo, horoball_cover_check
from octagap import spectral
from octagap.spectral import (
    POLE_SCAN_INTERVAL,
    FlatteningBudget,
    _scattering_counts,
    cusp_decay_ratio_zeroth,
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


@pytest.mark.parametrize("lo, hi", [(0.99, 0.999999), (1.000001, 1.01)], ids=["below", "above"])
def test_riemann_zeta_keeps_its_digits_next_to_the_pole(lo, hi):
    """1 - 2^(1-s) cancels as s -> 1; the zeta route must not."""
    near = 1.0 + math.copysign(1.0, lo - 1.0) * np.logspace(-6, -2, 41)
    with mpmath.workdps(40):
        for s in np.concatenate([np.linspace(lo, hi, 41), near]).tolist():
            value = riemann_zeta(s)
            assert type(value) is float
            expected = mpmath.zeta(mpmath.mpf(s))
            assert abs(value - expected) <= 5e-15 * abs(expected), s


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: riemann_zeta(math.nan),
        lambda: dirichlet_beta(math.nan),
        lambda: dedekind_zeta_qi(math.nan),
        lambda: gaussian_lattice_zeta(math.nan),
        lambda: scattering_lattice_sum(math.nan),
        lambda: scattering_lattice_sum(3.0, radius=math.nan),
        lambda: scattering_oracle_value(math.nan),
        lambda: scattering_oracle_value(3.0, radius=math.nan),
    ],
    ids=[
        "riemann_zeta",
        "dirichlet_beta",
        "dedekind_zeta_qi",
        "gaussian_lattice_zeta-s",
        "scattering_lattice_sum-s",
        "scattering_lattice_sum-radius",
        "scattering_oracle_value-s",
        "scattering_oracle_value-radius",
    ],
)
def test_range_checks_reject_nan(call):
    """A NaN fails every comparison, so each bound is written as not (x > bound)."""
    with pytest.raises(DomainError):
        call()


def test_gaussian_lattice_zeta_needs_s_above_one():
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
        assert scattering_pole_scan(level) == []


def test_scattering_pole_scan_flags_what_the_scalar_coefficient_exceeds(monkeypatch):
    grid = np.linspace(*POLE_SCAN_INTERVAL, 60)
    scalar = [abs(scattering_coefficient(float(s), 2)) for s in grid]
    ranked = sorted(scalar)
    threshold = (ranked[29] + ranked[30]) / 2.0  # far from every value
    expected = [float(s) for s, value in zip(grid, scalar) if value > threshold]
    assert len(expected) == 30
    monkeypatch.setattr(spectral, "_POLE_SCAN_POINTS", 60)
    monkeypatch.setattr(spectral, "_POLE_SCAN_THRESHOLD", threshold)
    assert scattering_pole_scan(2) == expected


def test_scattering_pole_scan_flags_non_finite_values(monkeypatch):
    def formula(s, level):
        values = np.ones_like(s)
        values[1], values[3] = np.inf, np.nan
        return values

    monkeypatch.setattr(spectral, "_scattering_formula", formula)
    monkeypatch.setattr(spectral, "_POLE_SCAN_POINTS", 5)
    grid = np.linspace(*POLE_SCAN_INTERVAL, 5)
    assert scattering_pole_scan(1) == [grid[1], grid[3]]


@pytest.mark.parametrize(
    "call, error, match",
    [
        (
            lambda: flattening_budget([(1.0, 1.0, math.inf)], 10.0, 0.4, 0.8, 0.01),
            DomainError,
            "finite",
        ),
        (lambda: scattering_lattice_sum(2.5, 1, math.inf), DomainError, "finite"),
        (lambda: horoball_cover_check(100, seed=-1), DomainError, "seed"),
        (lambda: cap_volume_monte_carlo(2.0, 0.5, 100, -1), DomainError, "seed"),
    ],
    ids=[
        "infinite-cusp-area",
        "infinite-radius",
        "horoball-seed",
        "cap-seed",
    ],
)
def test_out_of_range_arguments_raise_the_package_errors(call, error, match):
    """Each raised a bare TypeError, ValueError or numpy MemoryError before."""
    with pytest.raises(error, match=match):
        call()


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


@pytest.mark.parametrize("level, radius", [(121, 120.0), (3037000500, 20.0)])
def test_oracle_refuses_a_level_above_its_radius(level, radius):
    """Its denominators c = level c' have |c| >= level.  Above the radius the
    oracle read 0 at level 121, and from level 3037000500 on level^2 times a
    class norm overflowed int64."""
    for oracle in (scattering_lattice_sum, scattering_oracle_value):
        with pytest.raises(DomainError, match=f"got level {level} and radius"):
            oracle(3.0, level, radius)


def test_oracle_at_a_level_equal_to_its_radius_sums_one_class():
    norms, terms = spectral._scattering_terms(3.0, 20, 20.0)
    assert norms.tolist() == [400]
    assert terms.tolist() == [400.0**-3.0]


def test_oracle_refuses_a_level_above_its_inner_radius():
    """The Richardson step subtracts the sum over |c| <= radius/sqrt(2), and
    every |c| >= level: level 85 at radius 120 (84.85) left that sum empty
    and read a relgap of 1.19."""
    with pytest.raises(DomainError, match=r"level <= radius/sqrt\(2\), got level 85 and"):
        scattering_oracle_value(3.0, 85, 120.0)
    assert scattering_lattice_sum(3.0, 85, 120.0) == 85.0**-6.0
    # above the radius the lattice sum's own message comes first
    with pytest.raises(DomainError, match="need level <= radius, got level 121 and"):
        scattering_oracle_value(3.0, 121, 120.0)


@pytest.mark.parametrize("level, radius, classes", [(84, 120.0, 1), (10, 120.0, 56), (5, 80.0, 101)])
def test_oracle_refuses_an_inner_sum_too_thin_to_extrapolate(level, radius, classes):
    """Level 84 at radius 120 left one class inside radius/sqrt(2) and read
    a relgap of 2.3e-2, blamed on the formula; 100 classes is the least the
    oracle extrapolates from, and 101 pass."""
    norms, _ = spectral._scattering_terms(3.0, level, radius)
    assert np.searchsorted(norms, radius * radius / 2.0, side="right") == classes
    if classes < spectral._ORACLE_INNER_CLASSES:
        with pytest.raises(DomainError, match=f"counts {classes} of the 100 classes"):
            scattering_oracle_value(3.0, level, radius)
    else:
        assert 0.0 < scattering_oracle_value(3.0, level, radius) < math.inf


def test_scattering_coefficient_refuses_a_value_below_the_normal_floats():
    """level^(-2s-2) underflows to 0 at level 2 and s = 600, and the report's
    relgap divided by it."""
    with pytest.raises(DomainError, match="underflows"):
        scattering_coefficient(600.0, 2)
    assert scattering_coefficient(300.0, 2) > sys.float_info.min
    assert scattering_coefficient(600.0, 1) > sys.float_info.min


def test_trial_division_refuses_a_level_above_its_cost_guard():
    """The level is factored by trial division, O(sqrt(level)) Python steps:
    ``scattering_coefficient(1.5, 10**18 + 3)`` ran for minutes.  Both
    routes to it refuse a level above 2**40 at once, before factoring."""
    for call in (
        lambda: scattering_coefficient(1.5, 10**18 + 3),
        lambda: scattering_pole_scan(10**18 + 3),
        lambda: scattering_coefficient(2.5, 2**40 + 1),
    ):
        start = time.perf_counter()
        with pytest.raises(MemoryGuardError, match="trial-division cost guard"):
            call()
        assert time.perf_counter() - start < 1.0
    assert spectral._gaussian_prime_norms(2**40) == [2]
    assert math.isfinite(scattering_coefficient(2.5, 2**40))


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
    for transform in (selberg_h, selberg_h_quadrature):
        for truncation in (math.inf, math.nan):
            with pytest.raises(DomainError, match="finite"):
                transform(truncation, 0.4)


def test_selberg_transforms_name_the_truncation_where_they_overflow():
    """The closed form is finite wherever its value is, up to T near 710;
    the quadrature's integrand overflows from T = 355.  Where either
    overflows it must raise a DomainError, not return inf or nan or let a
    bare OverflowError out."""
    for transform, truncation in (
        (selberg_h, 1e6),
        (selberg_h_quadrature, 700.0),
        (selberg_h_quadrature, 1e6),
    ):
        message = re.escape(f"truncation radius {truncation:g} is")
        with pytest.raises(DomainError, match=message):
            transform(truncation, 0.4)
    assert selberg_h(700.0, 0.4) == pytest.approx(_selberg_h_mp(700.0, 0.4), rel=1e-12)
    for truncation in (400.0, 700.0, 720.0):
        for lam in (0.4, 1.0, 1e-11, 0.999):
            try:
                value = selberg_h(truncation, lam)
            except DomainError as err:
                assert f"truncation radius {truncation:g} is too large" in str(err)
            else:
                assert math.isfinite(value) and value > 0


def _selberg_h_mp(truncation, lam):
    """The closed form of selberg_h in 50-digit arithmetic, with the s -> 0
    limit at lam = 1."""
    with mpmath.workdps(50):
        T, lam = mpmath.mpf(truncation), mpmath.mpf(lam)
        if lam == 1:
            return float(2 * mpmath.pi * (T * mpmath.coth(T) - 1))
        s = mpmath.sqrt(1 - lam)
        num = s * mpmath.cosh(s * T) * mpmath.sinh(T) - mpmath.sinh(s * T) * mpmath.cosh(T)
        return float(2 * mpmath.pi * num / (s * (s * s - 1) * mpmath.sinh(T)))


@pytest.mark.parametrize("truncation", [350.0, 360.0, 400.0, 700.0])
@pytest.mark.parametrize("lam", [0.4, 1.0, 1e-11, 0.999])
def test_selberg_h_matches_a_50_digit_closed_form_at_large_truncations(truncation, lam):
    """Each branch (general, s near 1, lam = 1) where cosh(T) sinh(T) and
    T^2 cosh(T) would overflow although the transform does not."""
    assert selberg_h(truncation, lam) == pytest.approx(_selberg_h_mp(truncation, lam), rel=1e-12)


def test_selberg_h_near_the_top_of_the_spectrum_matches_a_50_digit_closed_form():
    """Small lam puts s = sqrt(1 - lam) near 1, where the closed form's
    numerator and s^2 - 1 both vanish, down to lam = 1e-17, where s rounds
    to 1; (712, 1e-2) stays finite although sinh(712) overflows."""
    cases = [
        (truncation, lam)
        for truncation in (1.0, 2.0, 10.0, 50.0, 300.0, 700.0)
        for lam in [*np.geomspace(1e-17, 0.4, 40).tolist(), 1.99e-5]
    ]
    for truncation, lam in [*cases, (712.0, 1e-2)]:
        assert selberg_h(truncation, lam) == pytest.approx(
            _selberg_h_mp(truncation, lam), rel=1e-12
        ), (truncation, lam)


# -- cusp decay ratio -----------------------------------------------------------------


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_zeroth_mode_decay_ratio_closed_form(s):
    assert cusp_decay_ratio_zeroth(s) == pytest.approx(4.0**s - 1.0, rel=1e-12)


# -- flattening budget -------------------------------------------------------------------


def test_flattening_budget_frozen_totals_decrease_in_the_tangle_radius():
    totals = [
        flattening_budget([(1.0, 1.0, 1.0)], float(length), 0.4, 0.8, 0.01).total
        for length in (10, 15, 20, 25)
    ]
    assert totals[0] == pytest.approx(0.055886729844661358, rel=1e-12)
    assert totals[-1] == pytest.approx(0.00013619994449965277, rel=1e-12)
    assert all(a > b for a, b in zip(totals, totals[1:]))


def _budget_terms(areas, taus, L, lam, lam0, eps):
    """e1, e2 and e3 of one face, from the formulas of ``flattening_budget``
    with the given flattening heights."""
    damping = math.exp(-2.0 * L * math.sqrt(1.0 - lam))
    growth = math.exp(L * (math.sqrt(1.0 - lam0) + eps))
    half = math.sinh(L / 2.0)
    ratio = [tau / a * max(math.log(tau * half / a), 0.0) for a, tau in zip(areas, taus)]
    e1 = sum(
        damping * (a / tau**2 * growth + max(math.log(tau * half), 0.0))
        for a, tau in zip(areas, taus)
    )
    e3 = sum(
        tau ** (-2.0 * math.sqrt(1.0 - lam0)) + damping * (growth + r)
        for tau, r in zip(taus, ratio)
    )
    return e1, damping * (growth + sum(ratio)), e3


def test_flattening_heights_take_the_larger_of_area_and_growth_scales():
    """The area-1 cusp takes the growth scale as its height and the area-1e10
    cusp sqrt(1e10) = 1e5: the three terms match those heights, and match
    neither scale taken alone."""
    areas, params = (1.0, 1e10, 4.0), (20.0, 0.4, 0.8, 0.01)
    budget = flattening_budget([areas], *params)
    terms = (budget.e1, budget.e2, budget.e3)
    growth = math.exp(math.sqrt(1.0 - 0.8) * 20.0)
    assert growth == pytest.approx(7663.866573592062, rel=1e-12)
    taus = [max(math.sqrt(a), growth) for a in areas]
    assert taus[:2] == [growth, pytest.approx(1e5, rel=1e-12)]
    assert terms == pytest.approx(_budget_terms(areas, taus, *params), rel=1e-12)
    for alone in ([math.sqrt(a) for a in areas], [growth] * 3):
        assert terms != pytest.approx(_budget_terms(areas, alone, *params), rel=1e-6)


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


@pytest.mark.parametrize(
    "length, lam0",
    [(1e6, 0.8), (2000.0, 0.8), (1500.0, 0.99999), (800.0, 0.8)],
    ids=["exp-overflow", "growth-overflow", "sinh-overflow", "log-overflow"],
)
def test_flattening_budget_names_the_tangle_radius_on_overflow(length, lam0):
    """e^(L sqrt(1 - lam0)), e^(L (sqrt(1 - lam0) + eps)), sinh(L/2) or the
    budget itself overflowing is a DomainError, not an OverflowError or NaN."""
    with pytest.raises(DomainError, match="tangle radius"):
        flattening_budget([(1.0, 1.0, 1.0)], length, 0.4, lam0, 0.01)


@pytest.mark.parametrize(
    "length, lam, lam0, eps",
    [
        (0.0, 0.4, 0.8, 0.01),
        (-1.0, 0.4, 0.8, 0.01),
        (10.0, 0.8, 0.8, 0.01),
        (10.0, 0.9, 0.8, 0.01),
        (10.0, 0.4, 0.8, 0.0),
        (10.0, 0.4, 0.8, -0.01),
        (math.inf, 0.4, 0.8, 0.01),
        (math.nan, 0.4, 0.8, 0.01),
        (10.0, 0.4, 0.8, math.inf),
        (1e6, 0.4, 0.8, 0.01),
        (1500.0, 0.4, 0.99999, 0.01),
    ],
)
def test_tangle_delocalization_validates_parameters(length, lam, lam0, eps):
    """The tangle-radius parameters (L, lam, lam0, eps) are validated in
    ``_radius_terms``, here through the flattening budget, its one caller:
    non-finite input and radii whose exponentials overflow raise too."""
    with pytest.raises(DomainError):
        flattening_budget([(1.0, 1.0, 1.0)], length, lam, lam0, eps)


def test_flattening_budget_with_no_faces_costs_nothing():
    budget = flattening_budget([], 10.0, 0.4, 0.8, 0.01)
    assert budget.total == 0.0
    assert (budget.e1, budget.e2, budget.e3) == (0.0, 0.0, 0.0)


# -- spectral parameters -----------------------------------------------------------------


def test_spectral_params_validate_their_ranges():
    """flattening_budget refuses a slack, an eigenvalue or a reference out of range."""
    def budget(lam=0.4, eps=0.01):
        return flattening_budget([(1.0, 1.0, 1.0)], 10.0, lam, 0.8, eps)

    assert budget().total > 0.0
    with pytest.raises(DomainError, match="slack must be positive and finite"):
        budget(eps=-1.0)
    with pytest.raises(DomainError, match=r"eigenvalue must lie in \(0, 1\)"):
        budget(lam=1.5)
    with pytest.raises(DomainError, match="must be below the reference 0.8"):
        budget(lam=0.9)


@pytest.mark.parametrize("field", ["eps", "tangle_radius"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_spectral_params_reject_non_finite_values(field, value):
    args = {"tangle_radius": 10.0, "lam": 0.4, "lam0": 0.8, "eps": 0.01, field: value}
    with pytest.raises(DomainError, match="must be positive and finite"):
        flattening_budget([(1.0, 1.0, 1.0)], **args)
