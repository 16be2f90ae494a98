"""Scalar spectral evaluators: zeta functions of the Gaussian field, the
diagonal scattering coefficient with its counting oracle, pole scanning, the
Selberg transform of the ball kernel, delocalization bounds, cusp growth and
decay terms, and the flattening error budget.

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
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import DomainError, MemoryGuardError, PoleError, TruncationError

if TYPE_CHECKING:
    from .geometry import OrbitBall


@dataclass(frozen=True)
class SpectralParams:
    """Bundle of spectral parameters used by the bound evaluators.

    ``lam`` is the eigenvalue under study, ``lam0`` the reference bass note
    it must stay below, ``eps`` a positive slack, ``tangle_radius`` the
    scale on which short loops are controlled, and ``truncation`` the kernel
    truncation radius.
    """

    lam: float
    lam0: float = 0.8
    eps: float = 0.01
    tangle_radius: float = 10.0
    truncation: float = 4.0

    def __post_init__(self) -> None:
        if not 0.0 < self.lam < 1.0:
            raise DomainError(f"eigenvalue must lie in (0, 1), got {self.lam}")
        if not 0.0 < self.lam0 < 1.0:
            raise DomainError(f"reference eigenvalue must lie in (0, 1), got {self.lam0}")
        if not self.lam < self.lam0:
            raise DomainError(f"eigenvalue {self.lam} must be below the reference {self.lam0}")
        if not self.eps > 0.0:
            raise DomainError(f"slack must be positive, got {self.eps}")
        if not self.tangle_radius > 0.0:
            raise DomainError(f"tangle radius must be positive, got {self.tangle_radius}")
        if not self.truncation >= 1.0:
            raise DomainError(f"truncation radius must be at least 1, got {self.truncation}")

    @property
    def s(self) -> float:
        """Spectral parameter with lam = 1 - s^2."""
        return math.sqrt(1.0 - self.lam)


# ---------------------------------------------------------------------------
# Zeta functions of Q and Q(i).  The private evaluators take a float or an
# ndarray and skip validation; the public ones validate a float.

#: Even-index Bernoulli numbers B_2 .. B_12 for the Euler-Maclaurin tail.
_BERNOULLI_EVEN = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
)

_EULER_MACLAURIN_CUT = 20


def _alternating_sum(
    term: Callable[[int], float | np.ndarray], n: int = 32
) -> float | np.ndarray:
    """Accelerated value of sum_k (-1)^k term(k) for totally monotone terms.

    Chebyshev-style acceleration: error decays like (3 + sqrt(8))^(-n), so the
    default depth is far below double precision already.
    """
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


def _zeta_euler_maclaurin(s: float | np.ndarray) -> float | np.ndarray:
    m = float(_EULER_MACLAURIN_CUT)
    total = sum(k ** -s for k in range(1, _EULER_MACLAURIN_CUT))
    total += m ** (1.0 - s) / (s - 1.0) + 0.5 * m ** -s
    pochhammer = s
    for k, bern in enumerate(_BERNOULLI_EVEN, start=1):
        total += bern / math.factorial(2 * k) * pochhammer * m ** (-s - 2 * k + 1)
        # Not *=: on an ndarray that would write through to s.
        pochhammer = pochhammer * ((s + 2 * k - 1) * (s + 2 * k))
    return total


def _zeta(s: float | np.ndarray) -> float | np.ndarray:
    """Zeta at s > 1 by Euler-Maclaurin, elsewhere on s > 0 by the eta series."""
    if np.all(s > 1.0):
        return _zeta_euler_maclaurin(s)
    eta = _alternating_sum(lambda k: (k + 1.0) ** -s)
    return eta / (1.0 - 2.0 ** (1.0 - s))


def _beta(s: float | np.ndarray) -> float | np.ndarray:
    return _alternating_sum(lambda k: (2.0 * k + 1.0) ** -s)


def riemann_zeta(s: float) -> float:
    """Riemann zeta for s > 1, continued to (0, 1) by the eta series.

    For s > 1 the Dirichlet series is summed with an Euler-Maclaurin tail;
    on (0, 1) the alternating eta series divided by 1 - 2^(1-s) continues it.
    """
    s = float(s)
    if s <= 0.0:
        raise DomainError(f"zeta argument must be positive, got {s}")
    if s == 1.0:
        raise PoleError("the zeta function has its pole at s = 1")
    return _zeta(s)


def dirichlet_beta(s: float) -> float:
    """Dirichlet beta function (the L-series mod 4) for s > 0."""
    s = float(s)
    if s <= 0.0:
        raise DomainError(f"beta argument must be positive, got {s}")
    return _beta(s)


def dedekind_zeta_qi(s: float) -> float:
    """Dedekind zeta of the Gaussian field for s > 1, as zeta(s) beta(s)."""
    s = float(s)
    if s <= 1.0:
        raise DomainError(f"dedekind_zeta_qi requires s > 1, got {s}")
    return _zeta(s) * _beta(s)


def gaussian_lattice_zeta(s: float, radius: float = 300.0) -> float:
    """Truncated direct sum (1/4) sum over (m, n) != 0 of (m^2 + n^2)^(-s).

    Brute-force cross-check for the zeta factorization; one term per nonzero
    Gaussian integer inside the radius, folded by the four units.
    """
    s = float(s)
    if s <= 1.0:
        raise DomainError(f"the lattice sum needs s > 1, got {s}")
    if radius < 1.0:
        raise DomainError(f"radius must be at least 1, got {radius}")
    if radius > 2000.0:
        raise MemoryGuardError(f"lattice radius {radius} exceeds the guard of 2000")
    n = int(radius)
    side = np.arange(-n, n + 1, dtype=np.float64)
    norms = side[:, None] ** 2 + side[None, :] ** 2
    mask = (norms > 0.0) & (norms <= radius * radius)
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


def _validate_level(level: int) -> None:
    if isinstance(level, bool) or not isinstance(level, (int, np.integer)) or level < 1:
        raise DomainError(f"level must be a positive integer, got {level!r}")


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
    _validate_level(level)
    if not 1.0 < s < math.inf:
        raise DomainError(f"the coefficient is defined for finite s > 1, got {s}")
    if s == 2.0:
        raise PoleError("simple pole at s = 2")
    return _scattering_formula(s, level)


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


def scattering_lattice_sum(
    s: float,
    level: int = 1,
    radius: float = 120.0,
    *,
    tail_correction: bool = False,
) -> float:
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

    The plain truncated sum is monotone in the radius and its tail scales
    like radius^(4 - 2s).  With ``tail_correction`` the limit is estimated by
    Richardson extrapolation against a second partial sum at radius/sqrt(2).
    """
    s = float(s)
    _validate_level(level)
    if s <= 2.0:
        raise DomainError(f"the counting sum converges for s > 2, got {s}")
    if radius < 10.0:
        raise DomainError(f"radius must be at least 10, got {radius}")
    if radius > _ORACLE_RADIUS_GUARD:
        raise MemoryGuardError(
            f"radius {radius} exceeds the cost guard of {_ORACLE_RADIUS_GUARD}"
        )
    norms, counts = _scattering_counts(level, int(radius * radius + 1e-9))
    terms = counts * norms.astype(np.float64) ** -s
    full = float(terms.sum())
    if not tail_correction:
        return full
    half_cut = radius * radius / 2.0
    inner = float(terms[: np.searchsorted(norms, half_cut, side="right")].sum())
    ratio = 2.0 ** (2.0 - s)  # (radius/sqrt(2) / radius)^(2s - 4)
    return (full - inner * ratio) / (1.0 - ratio)


def scattering_oracle_value(
    s: float,
    level: int = 1,
    radius: float = 120.0,
    *,
    tail_correction: bool = True,
) -> float:
    """Oracle-side estimate of the scattering coefficient itself."""
    total = scattering_lattice_sum(s, level, radius, tail_correction=tail_correction)
    return math.pi / (4.0 * (s - 1.0) * level * level) * total


def scattering_pole_scan(
    level: int = 1,
    interval: tuple[float, float] = (1.05, 1.95),
    grid_points: int = 1000,
    *,
    threshold: float = 1e8,
) -> list[float]:
    """Grid scan for poles of the scattering coefficient inside (1, 2).

    Evaluates the closed formula on the whole grid at once and returns the
    grid points where it is not finite or exceeds the threshold in absolute
    value; the expected result on (1.05, 1.95) is empty.
    """
    _validate_level(level)
    lo, hi = float(interval[0]), float(interval[1])
    if not 1.0 < lo < hi < 2.0:
        raise DomainError(f"scan interval must sit strictly inside (1, 2), got {interval}")
    if grid_points < 2:
        raise DomainError(f"need at least 2 grid points, got {grid_points}")
    grid = np.linspace(lo, hi, grid_points)
    with np.errstate(all="ignore"):  # a pole shows as inf or nan, flagged below
        values = _scattering_formula(grid, level)
    return grid[~(np.abs(values) <= threshold)].tolist()


# ---------------------------------------------------------------------------
# Selberg transform of the truncated ball kernel.


def _validate_transform_args(truncation: float, lam: float) -> tuple[float, float]:
    T, lam = float(truncation), float(lam)
    if not T >= 1.0:
        raise DomainError(f"truncation radius must be at least 1, got {T}")
    if not 0.0 < lam <= 1.0:
        raise DomainError(f"eigenvalue must lie in (0, 1], got {lam}")
    return T, lam


def selberg_h(truncation: float, lam: float) -> float:
    """Selberg transform of the kernel 1_[0,T] / sinh(T) at the eigenvalue.

    Closed form 2 pi (s cosh(sT) sinh(T) - sinh(sT) cosh(T)) / (s (s^2 - 1)
    sinh(T)) with s = sqrt(1 - lam).  The eigenvalue 1 takes the s -> 0 limit
    and a short expansion covers s near 1, where the closed form cancels.
    """
    T, lam = _validate_transform_args(truncation, lam)
    if lam == 1.0:
        return 2.0 * math.pi * (T * math.cosh(T) - math.sinh(T)) / math.sinh(T)
    s = math.sqrt(1.0 - lam)
    if abs(s - 1.0) < 1e-5:
        u = s - 1.0
        c1 = math.cosh(T) * math.sinh(T) - T
        c2 = T * math.sinh(T) ** 2
        c3 = (3.0 * T * T * math.cosh(T) * math.sinh(T) - T ** 3) / 6.0
        return 2.0 * math.pi * (c1 + c2 * u + c3 * u * u) / (s * (s + 1.0) * math.sinh(T))
    num = s * math.cosh(s * T) * math.sinh(T) - math.sinh(s * T) * math.cosh(T)
    return 2.0 * math.pi * num / (s * (s * s - 1.0) * math.sinh(T))


def selberg_h_quadrature(truncation: float, lam: float) -> float:
    """Adaptive quadrature of the defining Selberg transform integral."""
    from scipy import integrate

    T, lam = _validate_transform_args(truncation, lam)
    s = math.sqrt(1.0 - lam)

    def integrand(r: float) -> float:
        scaled = r if s == 0.0 else math.sinh(s * r) / s
        return scaled * math.sinh(r)

    value, _ = integrate.quad(integrand, 0.0, T, epsabs=1e-13, epsrel=1e-13, limit=200)
    return 2.0 * math.pi * value / math.sinh(T)


# ---------------------------------------------------------------------------
# Delocalization bounds and cusp terms.


def ball_delocalization_bound(ball: OrbitBall, truncation: float, lam: float) -> float:
    """Pre-trace sup-norm bound from an orbit ball at truncation radius T.

    Evaluates (1 - lam) / sinh^2(T sqrt(1 - lam)) times the sum of e^(-d)
    over orbit displacements d <= T.  The ball must extend at least to T so
    no displacement inside the truncation window is missing.
    """
    T = float(truncation)
    if not T > 0.0:
        raise DomainError(f"truncation radius must be positive, got {T}")
    if not 0.0 < lam < 1.0:
        raise DomainError(f"eigenvalue must lie in (0, 1), got {lam}")
    if T > ball.radius:
        raise TruncationError(
            f"truncation {T} exceeds the enumerated radius {ball.radius:.6f}"
        )
    inside = ball.displacements[: np.searchsorted(ball.displacements, T, side="right")]
    total = float(np.exp(-inside).sum())
    root = math.sqrt(1.0 - lam)
    return (1.0 - lam) / math.sinh(T * root) ** 2 * total


def cusp_kernel_growth(
    cusps: Sequence[tuple[int, float, float]], truncation: float
) -> float:
    """Sum of per-cusp kernel growth terms at truncation radius T.

    Each entry is (rank, height, size): rank two carries the coarea of its
    translation lattice as size, rank one its translation length, rank zero
    contributes nothing.  Heights below one sit outside the unit horoball
    region and are skipped; log factors are clamped below at zero so every
    term remains a valid upper bound.
    """
    T = float(truncation)
    if not T > 0.0:
        raise DomainError(f"truncation radius must be positive, got {T}")
    half = math.sinh(T / 2.0)
    total = 0.0
    for rank, height, size in cusps:
        if rank not in (0, 1, 2):
            raise DomainError(f"cusp rank must be 0, 1 or 2, got {rank}")
        if rank == 0 or height < 1.0:
            continue
        if not size > 0.0:
            raise DomainError(f"cusp size must be positive, got {size}")
        if rank == 2:
            weight = height * height / size
            arg = height * height * half / size
        else:
            weight = height / size
            arg = height * half / size
        total += weight * max(math.log(arg), 0.0)
    return total


def tangle_delocalization_bound(
    tangle_radius: float,
    lam: float,
    lam0: float,
    eps: float,
    cusps: Sequence[tuple[int, float, float]] = (),
    cover_cusps: Sequence[tuple[float, float]] = (),
) -> float:
    """Sup-norm bound at points where loops of length tangle_radius are tame.

    Evaluates (1 - lam) e^(-2 L sqrt(1 - lam)) (e^(L (sqrt(1 - lam0) + eps))
    + R) where R collects the kernel growth terms of ``cusps`` plus, for each
    cover-level rank-two cusp (height, area), the term (height^2 / area)
    log(height sinh(L/2) / area) with the height to the first power inside
    the log.
    """
    L = float(tangle_radius)
    SpectralParams(lam, lam0, eps, L)  # raises DomainError on an invalid parameter
    growth = cusp_kernel_growth(cusps, L)
    half = math.sinh(L / 2.0)
    for height, area in cover_cusps:
        if height < 1.0:
            continue
        if not area > 0.0:
            raise DomainError(f"cusp area must be positive, got {area}")
        growth += height * height / area * max(math.log(height * half / area), 0.0)
    main = math.exp(L * (math.sqrt(1.0 - lam0) + eps))
    return (1.0 - lam) * math.exp(-2.0 * L * math.sqrt(1.0 - lam)) * (main + growth)


# ---------------------------------------------------------------------------
# Cusp window decay ratios.


def cusp_decay_ratio_zeroth(s: float) -> float:
    """Window-to-tail mass ratio of the constant cusp mode: 2^(2s) - 1.

    The mode decays like t^(-1-2s), so the mass over [R, 2R] against the mass
    over [2R, oo) is independent of R and evaluates exactly.
    """
    s = float(s)
    if not 0.0 < s < 1.0:
        raise DomainError(f"spectral parameter must lie in (0, 1), got {s}")
    return 2.0 ** (2.0 * s) - 1.0


_INTEGRAND_FLOOR_LOG = -math.log(1e-30)


def bessel_k(order: float, x: float) -> float:
    """Modified Bessel function of the second kind by its integral form.

    Integrates e^(-x cosh u) cosh(order u) du over [0, U] with U chosen so
    the integrand has fallen below 1e-30.  Valid for real order in (0, 1).
    """
    from scipy import integrate

    order, x = float(order), float(x)
    if not 0.0 < order < 1.0:
        raise DomainError(f"order must lie in (0, 1), got {order}")
    if not x > 0.0:
        raise DomainError(f"argument must be positive, got {x}")
    cut = math.acosh((_INTEGRAND_FLOOR_LOG + 60.0) / x + 1.0)
    value, _ = integrate.quad(
        lambda u: math.exp(-x * math.cosh(u)) * math.cosh(order * u),
        0.0,
        cut,
        epsabs=1e-14,
        epsrel=1e-12,
        limit=200,
    )
    return value


def cusp_decay_ratio_bessel(s: float, frequency: float = 1.0, radius: float = 1.0) -> float:
    """Window-to-tail mass ratio of a nonconstant cusp mode.

    Computes the integral of K_s(2 pi frequency t)^2 / t over [R, 2R] divided
    by the same integral over [2R, oo), truncating the tail where the
    exponential Bessel decay drops the integrand below working precision.
    """
    from scipy import integrate

    s = float(s)
    if not 0.0 < s < 1.0:
        raise DomainError(f"spectral parameter must lie in (0, 1), got {s}")
    if not frequency > 0.0:
        raise DomainError(f"frequency must be positive, got {frequency}")
    if not radius > 0.0:
        raise DomainError(f"radius must be positive, got {radius}")
    w = 2.0 * math.pi * frequency

    def integrand(t: float) -> float:
        return bessel_k(s, w * t) ** 2 / t

    window, _ = integrate.quad(integrand, radius, 2.0 * radius, epsabs=0.0, epsrel=1e-9, limit=100)
    tail_cut = 2.0 * radius + (_INTEGRAND_FLOOR_LOG + 20.0) / (2.0 * w)
    tail, _ = integrate.quad(integrand, 2.0 * radius, tail_cut, epsabs=0.0, epsrel=1e-9, limit=200)
    return window / tail


# ---------------------------------------------------------------------------
# Flattening error budget.


@dataclass(frozen=True)
class FlatteningBudget:
    """Error budget for flattening an eigenfunction along interior faces.

    ``areas`` holds the three incident cusp areas per face and ``tau`` the
    matching flattening heights.  The three budget terms cover the cusp
    cutoff, the face cutoff, and the norm loss; all are nonnegative.
    """

    areas: tuple[tuple[float, float, float], ...]
    tau: tuple[tuple[float, float, float], ...]
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
    *,
    decay_exponent: float | None = None,
) -> FlatteningBudget:
    """Three-term flattening budget over the given faces.

    Every face carries the areas of its three incident cusps.  Flattening
    heights are tau = max(sqrt(area), e^(L sqrt(1 - lam0))).  Per face, with
    E = e^(-2 L sqrt(1 - lam)), G = e^(L (sqrt(1 - lam0) + eps)), and
    S = sinh(L/2):

        e1 = sum over cusps of E (area / tau^2 G + log(tau S)),
        e2 = E (G + sum over cusps of tau / area log(tau S / area)),
        e3 = sum over cusps of tau^(-C) + E (G + tau / area log(tau S / area)),

    where C is ``decay_exponent``, by default 2 sqrt(1 - lam0) (the decay
    rate of the constant cusp mode).  Log factors are clamped below at zero.
    """
    L = float(tangle_radius)
    SpectralParams(lam, lam0, eps, L)  # raises DomainError on an invalid parameter
    if decay_exponent is None:
        decay_exponent = 2.0 * math.sqrt(1.0 - lam0)
    if not decay_exponent > 0.0:
        raise DomainError(f"decay exponent must be positive, got {decay_exponent}")

    face_areas: list[tuple[float, float, float]] = []
    for face in areas:
        triple = tuple(float(a) for a in face)
        if len(triple) != 3:
            raise DomainError(f"every face carries exactly 3 cusp areas, got {len(triple)}")
        if any(not a > 0.0 for a in triple):
            raise DomainError(f"cusp areas must be positive, got {triple}")
        face_areas.append(triple)  # type: ignore[arg-type]

    floor = math.exp(math.sqrt(1.0 - lam0) * L)
    damping = math.exp(-2.0 * L * math.sqrt(1.0 - lam))
    growth = math.exp(L * (math.sqrt(1.0 - lam0) + eps))
    half = math.sinh(L / 2.0)

    taus: list[tuple[float, float, float]] = []
    e1 = e2 = e3 = 0.0
    for triple in face_areas:
        tau_face = tuple(max(math.sqrt(a), floor) for a in triple)
        taus.append(tau_face)  # type: ignore[arg-type]
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
    return FlatteningBudget(
        areas=tuple(face_areas), tau=tuple(taus), e1=e1, e2=e2, e3=e3
    )
