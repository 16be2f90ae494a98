"""Upper half space geometry: the isometry action, orbit balls, cap volumes,
the fundamental corner, horoball covers, and critical-exponent estimates.

Points live in upper half space as (z, t) with z complex horizontal coordinate
and t > 0 height.  The action of a matrix over Z[i] with a conjugation bit is
``_ballfast.act``, on arrays; ``_ballfast.isom_table`` lays the matrices out
for it, and since every ``ProjIsom`` has unit determinant, no scaling is
needed.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from numbers import Real
from typing import NamedTuple

import numpy as np

from . import _ballfast
from ._ballfast import GRID_STEP
from .errors import DomainError, InsufficientDataError, SetupError, check_count
from .group import GaussianInt, ProjIsom, octa_symmetry_group

#: Critical exponent of the subgroup generated by the four face reflections
#: (the Apollonian circle packing exponent), used as a pinned input constant.
FREE_SUBGROUP_CRITICAL_EXPONENT = 1.30568672804987718


class Point3(NamedTuple):
    """A point (z, t) of upper half space, t > 0."""

    z: complex
    t: float


def point(x: float, y: float, t: float) -> Point3:
    """The point (x + iy, t); every coordinate must be finite and t positive."""
    if not all(map(math.isfinite, (x, y, t))):
        raise DomainError(f"coordinates must be finite, got ({x}, {y}, {t})")
    if not t > 0:
        raise DomainError(f"height must be positive, got {t}")
    return Point3(complex(x, y), float(t))


def apply_isom(g: ProjIsom, p: Point3) -> Point3:
    """Image of p under the isometry g."""
    if not p.t > 0:
        raise DomainError(f"height must be positive, got {p.t}")
    w, t = _ballfast.act(*_ballfast.isom_table([g]), p.z, p.t)
    return Point3(complex(w[0]), float(t[0]))


def dist(p: Point3, q: Point3) -> float:
    """Hyperbolic distance between two points of upper half space."""
    if not (p.t > 0 and q.t > 0):
        raise DomainError("heights must be positive")
    return float(_ballfast.distance(p.z, p.t, q.z, q.t))


#: Radii up to here keep pi e^(2T) finite: twice the ball volume, and a bound
#: on both terms of cap_volume.
_MAX_RADIUS = 0.5 * math.log(sys.float_info.max / math.pi)


def _check_radius(radius: float) -> float:
    T = float(radius)
    if not 0.0 <= T <= _MAX_RADIUS:
        raise DomainError(
            f"radius must lie in [0, {_MAX_RADIUS:.6g}], beyond which volumes overflow; "
            f"got {radius}"
        )
    return T


def _sinh_minus_x(x: float) -> float:
    """sinh x - x, from its odd Taylor series below x = 1 to avoid cancellation."""
    if x >= 1.0:
        return math.sinh(x) - x
    term = total = x * x * x / 6.0
    for k in range(5, 21, 2):
        term *= x * x / ((k - 1) * k)
        total += term
    return total


def ball_volume(radius: float) -> float:
    """Volume of a hyperbolic ball: pi (sinh(2T) - 2T).

    The radius must lie in [0, _MAX_RADIUS]; small radii take the Taylor
    series of sinh, so the volume keeps full relative precision as T -> 0.
    """
    return math.pi * _sinh_minus_x(2.0 * _check_radius(radius))


def cap_volume(radius: float, separation: float) -> float:
    """Volume of the intersection of two balls of equal radius T.

    The centers sit at distance delta = ``separation``, finite and
    nonnegative; T must lie in [0, _MAX_RADIUS].  The plane bisecting the
    centers cuts the lens into two equal caps.  In Fermi coordinates about
    that plane, ds^2 = du^2 + cosh^2(u) dsigma^2, a point at height u whose
    foot lies at distance s from the foot of a center at distance
    a = delta / 2 from the plane is at distance d from it, where
    cosh d = cosh a cosh u cosh s + sinh a sinh u.  Integrating the disc
    areas 2 pi (cosh s - 1) against cosh^2(u) du over 0 <= u <= b = T - a
    gives, for delta < 2T,

        ball_volume(b) + 2 pi tanh(delta / 2) sinh^2(b),

    a sum of two nonnegative terms, so nothing cancels; for delta >= 2T the
    balls do not overlap and the volume is 0.
    """
    T = _check_radius(radius)
    delta = float(separation)
    if not 0.0 <= delta < math.inf:
        raise DomainError(f"separation must be finite and nonnegative, got {separation}")
    if delta >= 2.0 * T:
        return 0.0
    b = T - 0.5 * delta
    return ball_volume(b) + 2.0 * math.pi * math.tanh(0.5 * delta) * math.sinh(b) ** 2


def cap_volume_bound(radius: float, separation: float) -> float:
    """The exponential upper bound 8 pi e^(2T - delta) for cap_volume.

    Both arguments must be finite and nonnegative, and the bound a finite float.
    """
    T, delta = float(radius), float(separation)
    if not (0.0 <= T < math.inf and 0.0 <= delta < math.inf):
        raise DomainError(
            f"radius and separation must be finite and nonnegative, got ({radius}, {separation})"
        )
    try:
        bound = 8.0 * math.pi * math.exp(2.0 * T - delta)
    except OverflowError:
        bound = math.inf
    if bound == math.inf:
        raise DomainError(f"the bound 8 pi e^(2T - delta) overflows at T={T}, delta={delta}")
    return bound


def cap_volume_monte_carlo(
    radius: float, separation: float, n_samples: int, seed: int
) -> float:
    """Monte Carlo estimate of cap_volume, for cross-checking the closed form.

    The centers are placed on a vertical geodesic at (0, 1) and (0, e^delta).
    Heights are drawn with density proportional to 1/t^3 (the hyperbolic
    volume weight) over the slab spanned by the Euclidean envelope of the
    lower ball, horizontal coordinates uniformly on the disk slicing that
    envelope, and the indicator of the two-ball intersection is averaged.
    The envelope spans the heights e^(-T) to e^T, and its slice at height t
    has squared radius (e^T - t)(t - e^(-T)), so nothing cancels at large T.
    A point (z, t) lies within T of the center (0, h) when
    (|z|/h)^2 + (t/h - 1)^2 <= 2 (t/h) (cosh T - 1), a form in which nothing
    overflows for T up to _MAX_RADIUS.  The arguments are checked as in
    cap_volume, n_samples must be a positive integer and seed a
    non-negative one.
    """
    T = _check_radius(radius)
    delta = float(separation)
    if not 0.0 <= delta < math.inf:
        raise DomainError(f"separation must be finite and nonnegative, got {separation}")
    n_samples = check_count("n_samples", n_samples, 1)
    seed = check_count("seed", seed, 0)
    if delta >= 2.0 * T:
        return 0.0
    rng = np.random.default_rng(seed)
    reach = 2.0 * (math.cosh(T) - 1.0)

    def within(rho2: np.ndarray, t: np.ndarray, h: float) -> np.ndarray:
        q = t / h
        return rho2 / h / h + (q - 1.0) ** 2 <= q * reach

    t1, t2 = math.exp(-T), math.exp(T)
    inv1, inv2 = t1 ** -2.0, t2 ** -2.0
    w_total = 0.0
    chunk = 1 << 18
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        u = rng.random(m)
        t = (inv1 - u * (inv1 - inv2)) ** -0.5
        r_slice = np.sqrt(np.maximum((t2 - t) * (t - t1), 0.0))
        phi = rng.random(m) * (2.0 * math.pi)
        rad = np.sqrt(rng.random(m)) * r_slice
        zx = rad * np.cos(phi)
        zy = rad * np.sin(phi)
        rho2 = zx * zx + zy * zy
        inside = within(rho2, t, 1.0) & within(rho2, t, math.exp(delta))
        area = math.pi * r_slice ** 2
        w_total += float(np.sum(inside * area))
        done += m
    z_norm = (inv1 - inv2) / 2.0
    return w_total / n_samples * z_norm


# -- fundamental corner and horoball cover ----------------------------------

#: The point where all six truncated horoballs of the standard cover meet:
#: the symmetry center of the octahedron.
OCTA_CENTER = Point3(0.5 + 0.5j, math.sqrt(0.5))

#: Slack of the corner and horoball membership tests, against rounding in the action.
_TOL = 1e-9


def in_fundamental_corner(p: Point3) -> bool:
    """Whether p lies in {0 <= x, y <= 1/2, x^2 + y^2 + t^2 >= 1} (with slack _TOL)."""
    x, y = p.z.real, p.z.imag
    return (
        -_TOL <= x <= 0.5 + _TOL
        and -_TOL <= y <= 0.5 + _TOL
        and x * x + y * y + p.t * p.t >= 1.0 - _TOL
    )


def move_to_corner(p: Point3) -> tuple[ProjIsom, Point3]:
    """Find a symmetry of the octahedron carrying p into the fundamental corner.

    Returns the pair (g, g applied to p).  Raises SetupError when no symmetry
    works, which for exact inputs means p is outside the octahedron.
    """
    for g in octa_symmetry_group():
        q = apply_isom(g, p)
        if in_fundamental_corner(q):
            return g, q
    raise SetupError(f"no octahedral symmetry carries {p} into the corner")


def in_standard_horoball(p: Point3) -> bool:
    """The truncated horoball piece {0 <= x, y <= 1, t >= 1/sqrt(2)} (with slack _TOL).

    The coordinates of p may also be numpy arrays; the answer is then a
    bool array.
    """
    x, y = p.z.real, p.z.imag
    return (
        (-_TOL <= x) & (x <= 1.0 + _TOL)
        & (-_TOL <= y) & (y <= 1.0 + _TOL)
        & (p.t >= math.sqrt(0.5) - _TOL)
    )


#: The six ideal vertices of the octahedron as projective pairs (p : q).
IDEAL_VERTICES: tuple[tuple[str, GaussianInt, GaussianInt], ...] = (
    ("inf", GaussianInt(1, 0), GaussianInt(0, 0)),
    ("0", GaussianInt(0, 0), GaussianInt(1, 0)),
    ("1", GaussianInt(1, 0), GaussianInt(1, 0)),
    ("i", GaussianInt(0, 1), GaussianInt(1, 0)),
    ("1+i", GaussianInt(1, 1), GaussianInt(1, 0)),
    ("(1+i)/2", GaussianInt(1, 1), GaussianInt(2, 0)),
)


def horoball_cover_maps() -> list[tuple[str, ProjIsom]]:
    """One octahedral symmetry per ideal vertex, sending infinity to it.

    The cover of the octahedron by six truncated horoballs is the image of
    the standard piece under these maps.  The stabilizer of infinity has
    order four and preserves the standard piece, so any coset representative
    serves.  Raises SetupError if some vertex is not reached.
    """
    found: dict[str, ProjIsom] = {}
    for g in octa_symmetry_group():
        # g(inf) = a/c as a projective pair
        for label, pnum, pden in IDEAL_VERTICES:
            if label in found:
                continue
            cross = g.a * pden - pnum * g.c
            if not cross:
                found[label] = g
    missing = [label for label, _, _ in IDEAL_VERTICES if label not in found]
    if missing:
        raise SetupError(f"no symmetry sends infinity to: {missing}")
    return [(label, found[label]) for label, _, _ in IDEAL_VERTICES]


#: Samples drawn and mapped at once by horoball_cover_check; bounds its memory.
_HOROBALL_CHUNK = 4096

#: Top of the heights horoball_cover_check draws in the fundamental corner.
_HOROBALL_HEIGHT_CAP = 2.5


@dataclass(frozen=True)
class HoroballCoverReport:
    n_checked: int
    n_excluded: int
    covered_fraction: float
    max_multiplicity: int
    multiplicity_counts: dict[int, int]


def horoball_cover_check(
    n_samples: int, seed: int, exclusion_radius: float = 1e-3
) -> HoroballCoverReport:
    """Sample the octahedron and audit the six-horoball cover.

    Points are drawn in the fundamental corner (heights up to
    _HOROBALL_HEIGHT_CAP) and pushed around by random symmetries so the whole
    octahedron is exercised.  For each point the multiplicity counts how many
    of the six truncated horoballs contain it.  Points within
    exclusion_radius (hyperbolic) of the center, where all six pieces meet,
    are excluded from the multiplicity tally but still counted for coverage;
    n_checked counts the rest, so the radius must be finite (NaN or inf
    would exclude every point).  Points are drawn and mapped in chunks of
    _HOROBALL_CHUNK.  n_samples must be a positive integer and seed a
    non-negative one.
    """
    n_samples = check_count("n_samples", n_samples, 1)
    seed = check_count("seed", seed, 0)
    if not 0.0 <= exclusion_radius < math.inf:
        raise DomainError(f"exclusion_radius must be finite and >= 0, got {exclusion_radius}")
    rng = np.random.default_rng(seed)
    syms, sym_conj = _ballfast.isom_table(octa_symmetry_group())
    inv, inv_conj = _ballfast.isom_table([g.inverse() for _, g in horoball_cover_maps()])
    tally = np.zeros(len(IDEAL_VERTICES) + 1, dtype=np.int64)
    n_covered = 0
    for done in range(0, n_samples, _HOROBALL_CHUNK):
        m = min(_HOROBALL_CHUNK, n_samples - done)
        x = rng.random(m) * 0.5
        y = rng.random(m) * 0.5
        t_low = np.sqrt(np.maximum(1.0 - x * x - y * y, 0.0))
        t = t_low + rng.random(m) * (_HOROBALL_HEIGHT_CAP - t_low)
        pick = rng.integers(syms.shape[1], size=m)
        z, t = _ballfast.act(syms[:, pick], sym_conj[pick], x + 1j * y, t)
        mult = np.zeros(m, dtype=np.int64)
        for k in range(len(IDEAL_VERTICES)):
            w, h = _ballfast.act(inv[:, k], inv_conj[k], z, t)
            mult += in_standard_horoball(Point3(w, h))
        n_covered += int(np.count_nonzero(mult))
        far = _ballfast.distance(z, t, OCTA_CENTER.z, OCTA_CENTER.t) >= exclusion_radius
        tally += np.bincount(mult[far], minlength=tally.size)
    counts = {k: int(n) for k, n in enumerate(tally) if n}
    n_checked = int(tally.sum())
    return HoroballCoverReport(
        n_checked=n_checked,
        n_excluded=n_samples - n_checked,
        covered_fraction=n_covered / n_samples,
        max_multiplicity=max(counts, default=0),
        multiplicity_counts=counts,
    )


# -- orbit balls and the critical exponent -----------------------------------

@dataclass(frozen=True, eq=False)
class OrbitBall:
    """Counts of the displacements d(x0, g x0) over a word-length ball of a subgroup.

    ``grid_counts`` holds N(k GRID_STEP) for k = 0, 1, ... up to the first
    grid point at or past every displacement, ``count`` the number of
    points and ``radius`` the largest displacement (the identity's is 0).
    GRID_STEP is 1/16, so every grid point k GRID_STEP is an exact float.
    ``orbit_ball`` builds one from a walk of the orbit walker; the ball
    keeps no words and no displacements.
    """

    word_length: int
    grid_counts: np.ndarray
    radius: float
    count: int

    def counting_function(self, t: float) -> int:
        """Number of orbit points within distance t.

        Exact for t = k GRID_STEP with k an integer (the float product) and for
        t >= radius; any other t raises DomainError.
        """
        t = float(t)
        if t >= self.radius:
            return self.count
        k = round(t / GRID_STEP) if math.isfinite(t) else 0
        if k * GRID_STEP != t:
            raise DomainError(
                f"the ball counts its points at multiples of {GRID_STEP} below its radius "
                f"{self.radius:.6f}, not at {t!r}"
            )
        return int(self.grid_counts[k]) if k >= 0 else 0


#: Built-in orbit groups, one per walk of the orbit walker.
ORBIT_GROUPS = tuple(_ballfast._WALKS)


def orbit_ball(group: str, base: Point3, max_len: int) -> OrbitBall:
    """Orbit ball of a subgroup around a base point, as counts on the grid.

    ``group`` names one of ORBIT_GROUPS, each a walk of the vectorized
    walker: "free" for the subgroup generated by the face letters r1..r4 (a
    free product of four order-two groups), "full" for the whole reflection
    group, "kernel" for the elements of the full ball with trivial image in
    the free product on the perp letters.  Any other value, a callable
    included, raises DomainError, and a length past the walk's guard
    MemoryGuardError.  The walk streams its slices of displacements into
    the ball's counts, so no array of all displacements is ever formed.
    A length of 0 gives the one-point ball of the identity.

    ``_ballfast.ball_counts`` walks the ball and bins it: in this process,
    or in two halves, the second in a forked child, when there are two CPUs
    and the ball is long enough for the group.  The counts equal the whole
    walk's bit for bit either way.
    """
    if not (cmath.isfinite(base.z) and 0 < base.t < math.inf):
        raise DomainError(f"base point must be finite with positive height, got {base}")
    max_len = check_count("max_len", max_len, 0)
    if group not in ORBIT_GROUPS:
        raise DomainError(f"unknown orbit group {group!r}; expected one of {ORBIT_GROUPS}")
    grid_counts, radius = _ballfast.ball_counts(group, base.z, base.t, max_len)
    return OrbitBall(max_len, grid_counts, radius, int(grid_counts[-1]))


DEFAULT_BASE_POINT = Point3(0.3 + 0.4j, 0.9)


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares fit of log N(T) against T over a window of the orbit ball."""

    exponent: float
    intercept: float
    n_points: int
    window: tuple[float, float]
    t_values: tuple[float, ...]
    counts: tuple[int, ...]


#: Distinct counts an exponent fit needs inside its window.
_MIN_FIT_COUNTS = 10


def estimate_critical_exponent(
    ball: OrbitBall, window: tuple[float, float] | None = None
) -> ExponentFit:
    """Estimate the orbital growth exponent from the counting function.

    N(T) is read off at the multiples of GRID_STEP inside the window
    (absolute distance bounds, both included), the grid on which the ball
    counts exactly, and a line is fit to (T, log N(T)).  The window's ends
    divided by GRID_STEP are exact floats, so their ceil and floor miss no
    grid point.  The default window is [0.3, 0.9]
    times the ball's word length: word balls count all orbit points out to
    roughly their word radius and start missing points beyond it, so
    distances past the word length mostly measure that truncation rather
    than growth.  Windows reaching past 0.9 of the displacement radius are
    rejected outright, and so is a window that is not a pair of numbers.
    Raises InsufficientDataError when fewer than _MIN_FIT_COUNTS bins carry
    distinct counts, which happens for balls too small to show their growth
    rate.
    """
    if window is None:
        window = (0.3 * ball.word_length, 0.9 * ball.word_length)
    ends = tuple(window) if np.iterable(window) else ()
    if len(ends) != 2 or not all(isinstance(end, Real) for end in ends):
        raise DomainError(f"window must be a pair (lo, hi) of numbers, got {window!r}")
    t_lo, t_hi = float(ends[0]), float(ends[1])
    radius = ball.radius
    if not (0.0 <= t_lo < t_hi <= 0.9 * radius + 1e-12):
        raise DomainError(
            f"window must satisfy 0 <= lo < hi <= 0.9 * radius ({0.9 * radius:.3f}), got {window}"
        )
    k_lo = math.ceil(t_lo / GRID_STEP)
    k_hi = math.floor(t_hi / GRID_STEP)
    counts = ball.grid_counts[k_lo : k_hi + 1]
    keep = [(k * GRID_STEP, int(n)) for k, n in enumerate(counts, k_lo) if n > 0]
    if len({n for _, n in keep}) < _MIN_FIT_COUNTS:
        raise InsufficientDataError(
            f"only {len({n for _, n in keep})} distinct counts in window; need {_MIN_FIT_COUNTS}"
        )
    t_arr = np.array([t for t, _ in keep])
    n_arr = np.array([n for _, n in keep], dtype=float)
    slope, intercept = np.polyfit(t_arr, np.log(n_arr), 1)
    return ExponentFit(
        exponent=float(slope),
        intercept=float(intercept),
        n_points=len(keep),
        window=(t_lo, t_hi),
        t_values=tuple(float(t) for t, _ in keep),
        counts=tuple(int(n) for _, n in keep),
    )


def elstrodt_sullivan(delta: float) -> float:
    """Bottom of the spectrum as a function of the critical exponent.

    Equals 1 for delta <= 1 and delta (2 - delta) above; the exponent must
    lie in [0, 2].
    """
    if not 0.0 <= delta <= 2.0:
        raise DomainError(f"critical exponent must lie in [0, 2], got {delta}")
    return 1.0 if delta <= 1.0 else delta * (2.0 - delta)


class GapBounds(NamedTuple):
    lower: float
    upper: float


#: Spectral gap of the infinite replacement graph: 3 - sqrt(5 + 2 sqrt(3)).
REPLACEMENT_GRAPH_GAP = 3.0 - math.sqrt(5.0 + 2.0 * math.sqrt(3.0))


def spectral_gap_bounds(delta_free: float = FREE_SUBGROUP_CRITICAL_EXPONENT) -> GapBounds:
    """Two-sided bounds on the limiting spectral gap of the random covers.

    The lower bound transfers the replacement graph's gap through a
    Brooks-style comparison with constant 1, gap / (16 d + gap) with d = 4.
    The upper bound pushes the free subgroup's critical exponent through the
    kernel bound delta >= 2 - delta_free / 2 and the spectral formula.
    """
    gap = REPLACEMENT_GRAPH_GAP
    lower = gap / (16.0 * 4.0 + gap)
    delta_kernel = 2.0 - delta_free / 2.0
    upper = elstrodt_sullivan(delta_kernel)
    return GapBounds(lower=lower, upper=upper)
