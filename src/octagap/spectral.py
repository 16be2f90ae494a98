"""Scalar spectral evaluators: zeta functions of the Gaussian field, the
diagonal scattering coefficient with its counting oracle, pole scanning, the
Selberg transform of the ball kernel, the decay ratio of the constant cusp
mode, and the flattening error budget.

The Riemann and Dirichlet L-functions have one route each on s > 0: an
alternating series (eta for zeta, beta itself) summed with the convergence
acceleration of Cohen, Rodriguez Villegas and Zagier.

Two independent routes exist for the scattering coefficient: a closed formula
built from zeta evaluators and a counting sum over Gaussian integer
denominators.  The counting sum takes its per-class residue counts from an
exact multiplicative sieve over Gaussian primes (a Gaussian totient), which
uses no zeta identity.  Tests compare the two routes; neither calls the
other.  The tests also keep a brute-force Euclid count of the coprime
residues, the sieve's own twin, and compare it class by class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, MemoryGuardError, PoleError, check_count


# ---------------------------------------------------------------------------
# Zeta functions of Q and Q(i).  The private evaluators take a float or an
# ndarray and skip validation; the public ones validate a float.


#: Terms of every alternating series: the error decays like (3 + sqrt(8))^(-n),
#: so 32 terms are far below double precision already.
_ALTERNATING_TERMS = 32


def _alternating_sum(term: Callable[[int], float | np.ndarray]) -> float | np.ndarray:
    """Accelerated value of sum_k (-1)^k term(k) for totally monotone terms,
    by the Chebyshev-style acceleration of Cohen, Rodriguez Villegas and Zagier
    over ``_ALTERNATING_TERMS`` terms."""
    n = _ALTERNATING_TERMS
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    total = 0.0
    for k in range(n):
        c = b - c
        total += c * term(k)
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    return total / d


def _zeta(s: float | np.ndarray) -> float | np.ndarray:
    """Zeta on s > 0 as the eta series over 1 - 2^(1-s), written with expm1
    so that it does not cancel near the pole."""
    eta = _alternating_sum(lambda k: (k + 1.0) ** -s)
    return eta / -np.expm1((1.0 - s) * math.log(2.0))


def _beta(s: float | np.ndarray) -> float | np.ndarray:
    return _alternating_sum(lambda k: (2.0 * k + 1.0) ** -s)


def riemann_zeta(s: float) -> float:
    """Riemann zeta on s > 0, s != 1: the alternating eta series, summed with
    the acceleration of Cohen, Rodriguez Villegas and Zagier, divided by
    1 - 2^(1-s)."""
    s = float(s)
    if not s > 0.0:
        raise DomainError(f"zeta argument must be positive, got {s}")
    if s == 1.0:
        raise PoleError("the zeta function has its pole at s = 1")
    return float(_zeta(s))


def dirichlet_beta(s: float) -> float:
    """Dirichlet beta function (the L-series mod 4) for s > 0."""
    s = float(s)
    if not s > 0.0:
        raise DomainError(f"beta argument must be positive, got {s}")
    return _beta(s)


def dedekind_zeta_qi(s: float) -> float:
    """Dedekind zeta of the Gaussian field for s > 1, as zeta(s) beta(s)."""
    s = float(s)
    if not s > 1.0:
        raise DomainError(f"dedekind_zeta_qi requires s > 1, got {s}")
    return float(_zeta(s) * _beta(s))


#: Radius of the lattice sum of ``gaussian_lattice_zeta``.
_LATTICE_RADIUS = 300


def gaussian_lattice_zeta(s: float) -> float:
    """Truncated direct sum (1/4) sum over (m, n) != 0 of (m^2 + n^2)^(-s).

    Brute-force cross-check for the zeta factorization; one term per nonzero
    Gaussian integer inside radius 300, folded by the four units.
    """
    s = float(s)
    if not s > 1.0:
        raise DomainError(f"the lattice sum needs s > 1, got {s}")
    side = np.arange(-_LATTICE_RADIUS, _LATTICE_RADIUS + 1, dtype=np.float64)
    norms = side[:, None] ** 2 + side[None, :] ** 2
    mask = (norms > 0.0) & (norms <= _LATTICE_RADIUS**2)
    return float(np.sum(norms[mask] ** -s)) / 4.0


# ---------------------------------------------------------------------------
# The diagonal scattering coefficient and its counting oracle.


def _gaussian_prime_norms(level: int) -> list[int]:
    """Norms of the Gaussian primes dividing the level, one entry per prime."""
    norms: list[int] = []
    remaining = level
    p = 2
    while p * p <= remaining:
        if remaining % p == 0:
            while remaining % p == 0:
                remaining //= p
            norms.extend(_prime_split_norms(p))
        p += 1 if p == 2 else 2
    if remaining > 1:
        norms.extend(_prime_split_norms(remaining))
    return norms


def _prime_split_norms(p: int) -> list[int]:
    if p == 2:
        return [2]
    if p % 4 == 1:
        return [p, p]
    return [p * p]


def scattering_coefficient(s: float, level: int = 1) -> float:
    """Diagonal scattering coefficient at the cusp for the given level.

    Closed formula: pi / (4 (s - 1)) times the ratio of Dedekind zeta values
    at s - 1 and s, times level^(-2s-2), times the inverse Euler factors
    (1 - norm(p)^(-s))^(-1) over Gaussian primes p dividing the level.  The
    numerator zeta at s - 1 is continued through (0, 1) by the eta series, so
    the whole expression is defined on (1, 2) and (2, oo), with a simple pole
    at s = 2 inherited from the Riemann zeta factor.
    """
    s = float(s)
    check_count("level", level, 1)
    if not 1.0 < s < math.inf:
        raise DomainError(f"the coefficient is defined for finite s > 1, got {s}")
    if s == 2.0:
        raise PoleError("simple pole at s = 2")
    return float(_scattering_formula(s, level))


def _scattering_formula(s: float | np.ndarray, level: int) -> float | np.ndarray:
    """The closed formula of ``scattering_coefficient`` at unchecked s."""
    numerator = _zeta(s - 1.0) * _beta(s - 1.0)
    denominator = _zeta(s) * _beta(s)
    euler = 1.0
    for norm in _gaussian_prime_norms(level):
        euler /= 1.0 - float(norm) ** -s
    prefactor = math.pi / (4.0 * (s - 1.0))
    return prefactor * numerator / denominator * float(level) ** (-2.0 * s - 2.0) * euler


_ORACLE_RADIUS_GUARD = 500.0


@lru_cache(maxsize=8)
def _scattering_counts(level: int, norm_cut: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-class data for denominators c = level c' with norm(c) <= norm_cut.

    One representative c' = x + iy per unit multiple (x > 0, y >= 0).  Returns
    the norms of c, sorted stably (ties keep x-major, y-minor order), and the
    counts of residues d = 1 + level k, taken over a transversal of the
    quotient by c', that are coprime to c'.  Both arrays are read-only, since
    the cache hands the same ones to every caller.

    Modulo a Gaussian prime p not dividing the level, k -> 1 + level k
    permutes the residues; modulo one dividing it, 1 + level k is 1.  Z[i]
    has unique factorization, so the count is the Gaussian totient
    N(c') prod (1 - 1/N(p)) over the primes p dividing c' but not the level.
    It is sieved exactly in int64 on the (x, y) grid: each Gaussian prime p
    visits only its multiples p m with N(m) <= cut / N(p), and each of them
    takes num //= N(p); num *= N(p) - 1.  The tests check it class by class
    against a brute-force Euclid count.
    """
    cut = norm_cut // (level * level)
    width = math.isqrt(cut) + 1
    x, y = np.divmod(np.arange(width * width, dtype=np.int64), width)
    num = x * x + y * y
    classes = np.flatnonzero((x >= 1) & (num <= cut))
    classes = classes[np.argsort(num[classes], kind="stable")]
    class_norms = num[classes]
    is_prime = np.ones(cut + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, width):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    # Gaussian primes a + ib, one per unit multiple: the classes of prime norm
    # (lying over 2 and over the rational primes = 1 mod 4) and the rational
    # primes = 3 mod 4, which stay prime in Z[i].
    primes = [(int(x[c]), int(y[c]), int(num[c])) for c in classes[is_prime[class_norms]]]
    primes += [(p, 0, p * p) for p in range(3, width, 4) if is_prime[p]]
    for a, b, prime_norm in primes:
        if level % (prime_norm if b else a) == 0:
            continue
        cofactors = classes[: np.searchsorted(class_norms, cut // prime_norm, side="right")]
        re = a * x[cofactors] - b * y[cofactors]
        im = a * y[cofactors] + b * x[cofactors]
        turn = re <= 0  # p m lies in the upper half plane; -i turns it back
        re, im = np.where(turn, im, re), np.where(turn, -re, im)
        hit = re * width + im
        num[hit] = num[hit] // prime_norm * (prime_norm - 1)
    norms = level * level * class_norms
    counts = num[classes]
    norms.setflags(write=False)
    counts.setflags(write=False)
    return norms, counts


def _scattering_terms(s: float, level: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """The class norms |c|^2 with |c| <= radius, sorted, and their terms
    count / |c|^(2s), after validating the arguments.  Every denominator
    c = level c' has |c| >= level, so a level above the radius leaves the
    sum empty and raises DomainError."""
    s = float(s)
    check_count("level", level, 1)
    if not s > 2.0:
        raise DomainError(f"the counting sum converges for s > 2, got {s}")
    if not 10.0 <= radius < math.inf:
        raise DomainError(f"radius must be finite and at least 10, got {radius}")
    if radius > _ORACLE_RADIUS_GUARD:
        raise MemoryGuardError(
            f"radius {radius} exceeds the cost guard of {_ORACLE_RADIUS_GUARD}"
        )
    if level > radius:
        raise DomainError(
            f"the oracle's denominators c = level c' need level <= radius, "
            f"got level {level} and radius {radius}"
        )
    norms, counts = _scattering_counts(level, int(radius * radius + 1e-9))
    return norms, counts * norms.astype(np.float64) ** -s


def scattering_lattice_sum(s: float, level: int = 1, radius: float = 120.0) -> float:
    """Counting-sum oracle behind the scattering coefficient.

    Enumerates denominators c = level c' with |c| <= radius, one per unit
    multiple, and for each counts the residues d = 1 + level k, with k over a
    transversal of the quotient by c', that are coprime to c'.  The counts
    come from the Gaussian-totient sieve of ``_scattering_counts``, in about
    radius^2 log log radius steps; the tests check them against a brute-force
    Euclid count over every residue of every class.  The sum of
    count / |c|^(2s) converges, as the radius grows, to the zeta ratio times
    level^(-2s) times the inverse Euler factors of the closed formula; the
    coefficient itself is pi / (4 (s - 1) level^2) times this limit.

    This is the plain truncated sum: it is monotone in the radius, and its
    tail scales like radius^(4 - 2s).
    """
    return float(_scattering_terms(s, level, radius)[1].sum())


def scattering_oracle_value(s: float, level: int = 1, radius: float = 120.0) -> float:
    """Oracle-side estimate of the scattering coefficient itself.

    pi / (4 (s - 1) level^2) times the limit of the counting sum of
    ``scattering_lattice_sum``, which is estimated by Richardson
    extrapolation: the tail scales like radius^(4 - 2s), so the sums at the
    radius and at radius/sqrt(2) are combined to cancel it.
    """
    norms, terms = _scattering_terms(s, level, radius)
    full = float(terms.sum())
    inner = float(terms[: np.searchsorted(norms, radius * radius / 2.0, side="right")].sum())
    ratio = 2.0 ** (2.0 - s)  # (radius/sqrt(2) / radius)^(2s - 4)
    prefactor = math.pi / (4.0 * (s - 1.0) * level * level)
    return prefactor * ((full - inner * ratio) / (1.0 - ratio))


#: The pole scan's interval inside (1, 2), its grid points and the absolute
#: value above which a grid point is flagged.
POLE_SCAN_INTERVAL = (1.05, 1.95)
_POLE_SCAN_POINTS = 1000
_POLE_SCAN_THRESHOLD = 1e8


def scattering_pole_scan(level: int = 1) -> list[float]:
    """Grid scan for poles of the scattering coefficient inside (1, 2).

    Evaluates the closed formula at once on 1000 evenly spaced points of
    ``POLE_SCAN_INTERVAL``, (1.05, 1.95), and returns the grid points where
    it is not finite or exceeds 1e8 in absolute value; the expected result
    is empty.
    """
    check_count("level", level, 1)
    grid = np.linspace(*POLE_SCAN_INTERVAL, _POLE_SCAN_POINTS)
    with np.errstate(all="ignore"):  # a pole shows as inf or nan, flagged below
        values = _scattering_formula(grid, level)
    return grid[~(np.abs(values) <= _POLE_SCAN_THRESHOLD)].tolist()


# ---------------------------------------------------------------------------
# Selberg transform of the truncated ball kernel.


def _selberg_transform(
    transform: Callable[[float, float], float]
) -> Callable[[float, float], float]:
    """Validate a transform's arguments, and raise DomainError naming the
    truncation where its cosh(T) and sinh(T) terms overflow, in place of an
    inf, a nan or a bare OverflowError."""

    @wraps(transform)
    def checked(truncation: float, lam: float) -> float:
        T, lam = float(truncation), float(lam)
        if not 1.0 <= T < math.inf:
            raise DomainError(f"truncation radius must be finite and at least 1, got {T}")
        if not 0.0 < lam <= 1.0:
            raise DomainError(f"eigenvalue must lie in (0, 1], got {lam}")
        try:
            value = transform(T, lam)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise DomainError(
                f"truncation radius {T:g} is too large: the cosh(T) and sinh(T) terms overflow"
            )
        return value

    return checked


@_selberg_transform
def selberg_h(T: float, lam: float) -> float:
    """Selberg transform of the kernel 1_[0,T] / sinh(T) at the eigenvalue.

    Closed form 2 pi (s cosh(sT) sinh(T) - sinh(sT) cosh(T)) / (s (s^2 - 1)
    sinh(T)) with s = sqrt(1 - lam), and its s -> 0 limit at lam = 1.  For
    s >= 1/2, u = s - 1 rewrites it as 2 pi (cosh(sT) - sinh(uT) / (u sinh(T)))
    / (s (s + 1)), which does not cancel as s -> 1, with sinh(uT) / sinh(T) =
    -e^(-sT) expm1(2uT) / expm1(-2T).  No intermediate outgrows the value.
    """
    coth = 1.0 / math.tanh(T)
    if lam == 1.0:
        return 2.0 * math.pi * (T * coth - 1.0)
    s = math.sqrt(1.0 - lam)
    if s < 0.5:
        num = s * math.cosh(s * T) - math.sinh(s * T) * coth
        return 2.0 * math.pi * num / (s * (s * s - 1.0))
    growth = 2.0 * T if s == 1.0 else math.expm1(2.0 * (s - 1.0) * T) / (s - 1.0)
    ratio = growth * math.exp(-s * T) / math.expm1(-2.0 * T)
    return 2.0 * math.pi * ((math.cosh(s * T) + ratio) / (s * (s + 1.0)))


@_selberg_transform
def selberg_h_quadrature(T: float, lam: float) -> float:
    """The defining Selberg transform integral on the fixed Gauss-Legendre rule."""
    from .geometry import _gauss_legendre

    nodes, weights = _gauss_legendre()
    s = math.sqrt(1.0 - lam)
    r = T * nodes
    with np.errstate(over="ignore"):
        scaled = r if s == 0.0 else np.sinh(s * r) / s
        value = T * float(weights @ (scaled * np.sinh(r)))
    return 2.0 * math.pi * value / math.sinh(T)


# ---------------------------------------------------------------------------
# Cusp window decay ratio.


def cusp_decay_ratio_zeroth(s: float) -> float:
    """Window-to-tail mass ratio of the constant cusp mode: 2^(2s) - 1.

    The mode decays like t^(-1-2s), so the mass over [R, 2R] against the mass
    over [2R, oo) is independent of R and evaluates exactly.
    """
    s = float(s)
    if not 0.0 < s < 1.0:
        raise DomainError(f"spectral parameter must lie in (0, 1), got {s}")
    return 2.0 ** (2.0 * s) - 1.0


# ---------------------------------------------------------------------------
# Flattening error budget.


def _radius_terms(L: float, lam: float, lam0: float, eps: float) -> tuple[float, float, float]:
    """E = e^(-2 L sqrt(1 - lam)), G = e^(L (sqrt(1 - lam0) + eps)) and
    S = sinh(L/2) at tangle radius L, after validating the parameters.

    Raises DomainError naming the tangle radius when G or S overflows; G
    bounds e^(L sqrt(1 - lam0)) from above, so that cannot overflow either.
    """
    if not 0.0 < lam < 1.0:
        raise DomainError(f"eigenvalue must lie in (0, 1), got {lam}")
    if not 0.0 < lam0 < 1.0:
        raise DomainError(f"reference eigenvalue must lie in (0, 1), got {lam0}")
    if not lam < lam0:
        raise DomainError(f"eigenvalue {lam} must be below the reference {lam0}")
    if not 0.0 < eps < math.inf:
        raise DomainError(f"slack must be positive and finite, got {eps}")
    if not 0.0 < L < math.inf:
        raise DomainError(f"tangle radius must be positive and finite, got {L}")
    try:
        growth = math.exp(L * (math.sqrt(1.0 - lam0) + eps))
        half = math.sinh(L / 2.0)
    except OverflowError:
        raise DomainError(
            f"tangle radius {L:g} is too large: e^(L (sqrt(1 - lam0) + eps)) or "
            f"sinh(L/2) overflows"
        ) from None
    return math.exp(-2.0 * L * math.sqrt(1.0 - lam)), growth, half


def _check_finite(value: float, what: str, L: float) -> float:
    if not math.isfinite(value):
        raise DomainError(f"{what} overflows at tangle radius {L:g}")
    return value


@dataclass(frozen=True)
class FlatteningBudget:
    """Error budget for flattening an eigenfunction along interior faces.

    The three budget terms cover the cusp cutoff, the face cutoff, and the
    norm loss; all are nonnegative.
    """

    e1: float
    e2: float
    e3: float

    @property
    def total(self) -> float:
        return self.e1 + self.e2 + self.e3


def flattening_budget(
    areas: Sequence[Sequence[float]],
    tangle_radius: float,
    lam: float,
    lam0: float,
    eps: float,
) -> FlatteningBudget:
    """Three-term flattening budget over the given faces.

    Every face carries the areas of its three incident cusps.  Flattening
    heights are tau = max(sqrt(area), e^(L sqrt(1 - lam0))).  Per face, with
    E = e^(-2 L sqrt(1 - lam)), G = e^(L (sqrt(1 - lam0) + eps)), and
    S = sinh(L/2):

        e1 = sum over cusps of E (area / tau^2 G + log(tau S)),
        e2 = E (G + sum over cusps of tau / area log(tau S / area)),
        e3 = sum over cusps of tau^(-C) + E (G + tau / area log(tau S / area)),

    where C = 2 sqrt(1 - lam0) is the decay rate of the constant cusp mode.
    Log factors are clamped below at zero.  Raises DomainError naming the
    tangle radius when an exponential or the budget overflows.
    """
    L = float(tangle_radius)
    damping, growth, half = _radius_terms(L, lam, lam0, eps)
    decay_exponent = 2.0 * math.sqrt(1.0 - lam0)

    face_areas: list[tuple[float, float, float]] = []
    for face in areas:
        triple = tuple(float(a) for a in face)
        if len(triple) != 3:
            raise DomainError(f"every face carries exactly 3 cusp areas, got {len(triple)}")
        if any(not 0.0 < a < math.inf for a in triple):
            raise DomainError(f"cusp areas must be positive and finite, got {triple}")
        face_areas.append(triple)  # type: ignore[arg-type]

    floor = math.exp(math.sqrt(1.0 - lam0) * L)

    e1 = e2 = e3 = 0.0
    for triple in face_areas:
        tau_face = tuple(max(math.sqrt(a), floor) for a in triple)
        norm_loss = 0.0
        face_e2_sum = 0.0
        for area, tau in zip(triple, tau_face):
            cusp_log = max(math.log(tau * half), 0.0)
            ratio_log = max(math.log(tau * half / area), 0.0)
            e1 += damping * (area / (tau * tau) * growth + cusp_log)
            face_e2_sum += tau / area * ratio_log
            norm_loss += tau ** -decay_exponent + damping * (
                growth + tau / area * ratio_log
            )
        e2 += damping * (growth + face_e2_sum)
        e3 += norm_loss
    _check_finite(e1 + e2 + e3, "the flattening budget", L)
    return FlatteningBudget(e1=e1, e2=e2, e3=e3)
