"""Upper half space geometry: the isometry action, orbit balls, cap volumes,
the fundamental corner, horoball covers, and critical-exponent estimates.

Points live in upper half space as (z, t) with z complex horizontal coordinate
and t > 0 height.  The action of a matrix over Z[i] with a conjugation bit is
``_ballfast.act``, on arrays; ``_ballfast.isom_table`` scales every matrix to
unit determinant modulus first, so projective representatives with non-unit
determinant (the octahedron rotations, for instance) act correctly.
"""

from __future__ import annotations

import cmath
import math
import os
import pickle
import signal
import sys
import threading
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import _ballfast
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
#: on every intermediate of cap_volume.
_MAX_RADIUS = 0.5 * math.log(sys.float_info.max / math.pi)

#: Gauss-Legendre nodes of the one fixed rule behind every library integral.
#: cap_volume's lens integrand grows like e^u over an interval up to T long;
#: 48 nodes leave 1e-12 relative error at T = 300, 64 stay within 1e-13 up
#: to _MAX_RADIUS.
_GAUSS_LEGENDRE_NODES = 64


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


@lru_cache(maxsize=None)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [0, 1] and their weights (summing to 1).

    Newton's method on P_n from Tricomi's first guess converges quadratically;
    four steps reach rounding level, five are taken.
    """
    n = _GAUSS_LEGENDRE_NODES

    def legendre(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """P_n(x) and P_n'(x) by the three-term recurrence."""
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        return p, n * (p_prev - x * p) / (1.0 - x * x)

    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(5):
        p, slope = legendre(x)
        x = x - p / slope
    slope = legendre(x)[1]
    return 0.5 * (1.0 + x), 1.0 / ((1.0 - x * x) * slope * slope)


def ball_volume(radius: float) -> float:
    """Volume of a hyperbolic ball: pi (sinh(2T) - 2T).

    The radius must lie in [0, _MAX_RADIUS]; small radii take the Taylor
    series of sinh, so the volume keeps full relative precision as T -> 0.
    """
    return math.pi * _sinh_minus_x(2.0 * _check_radius(radius))


def cap_volume(radius: float, separation: float) -> float:
    """Volume of the intersection of two balls of equal radius T.

    The centers sit at distance delta = ``separation``, finite and
    nonnegative; T must lie in [0, _MAX_RADIUS].  In polar coordinates around
    one center the intersection is the full ball of radius T - delta (when
    delta < T) plus, for r in [|T - delta|, T], the spherical cap where
    cos(theta) >= q = (cosh r cosh delta - cosh T) / (sinh r sinh delta).
    The spheres about the two centers meet on that range, so |q| <= 1, and
    the cap's area is 2 pi sinh^2 r (1 - q), where

        sinh^2 r (1 - q) = 2 sinh r sinh((T+delta-r)/2) sinh((T-delta+r)/2) / sinh delta

    is a product of nonnegative factors.  With r = |T - delta| + u no sinh
    argument is a difference of nearly equal numbers: the factors are
    sinh(T - u/2) and sinh(u/2) for delta > T, sinh(delta - u/2) and
    sinh(T - delta + u/2) for delta <= T.  The integrand is entire in u, and
    a fixed Gauss-Legendre rule integrates it to about 1e-13 relative.
    """
    T = _check_radius(radius)
    delta = float(separation)
    if not 0.0 <= delta < math.inf:
        raise DomainError(f"separation must be finite and nonnegative, got {separation}")
    if delta == 0.0:
        return ball_volume(T)
    if delta >= 2.0 * T:
        return 0.0
    nodes, weights = _gauss_legendre()
    if delta > T:
        span = 2.0 * T - delta
        u = span * nodes
        product = np.sinh(delta - T + u) * np.sinh(T - 0.5 * u) * np.sinh(0.5 * u)
        full = 0.0
    else:
        span = delta
        u = span * nodes
        product = np.sinh(T - delta + u) * np.sinh(delta - 0.5 * u) * np.sinh(T - delta + 0.5 * u)
        full = ball_volume(T - delta)
    return full + 4.0 * math.pi * span * float(weights @ product) / math.sinh(delta)


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
    """Monte Carlo estimate of cap_volume, for cross-checking the quadrature.

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


# -- cusp data ----------------------------------------------------------------

@dataclass(frozen=True)
class CuspDatum:
    """Normalized data of a cusp: its rank with the area or length it carries.

    Rank two keeps the coarea of the translation lattice, rank one the
    translation length, rank zero nothing.
    """

    rank: int
    area: float = float("nan")
    length: float = float("nan")

    @classmethod
    def rank2(cls, w1: complex, w2: complex) -> "CuspDatum":
        area = abs((w1.conjugate() * w2).imag)
        if not area > 0:
            raise DomainError("rank-2 translations must be independent")
        return cls(rank=2, area=area)

    @classmethod
    def rank1(cls, w: complex) -> "CuspDatum":
        length = abs(w)
        if not length > 0:
            raise DomainError("rank-1 translation must be nonzero")
        return cls(rank=1, length=length)

    @classmethod
    def rank0(cls) -> "CuspDatum":
        return cls(rank=0)


def cusp_height_standard(p: Point3, reps: Iterable[ProjIsom]) -> float:
    """Height of p at the cusp at infinity, maximized over the supplied orbit.

    The honest height is a supremum over the whole group; this restricts the
    maximum to a finite representative set, which is how every caller uses
    it.  Horizontal translations preserve t, so the cusp's translation
    lattice does not enter.
    """
    best = p.t
    for g in reps:
        best = max(best, apply_isom(g, p).t)
    return best


# -- orbit balls and the critical exponent -----------------------------------

#: Spacing of the grid on which an orbit ball counts its points.
GRID_STEP = 0.1


def _grid_counts(slices: Iterable[np.ndarray]) -> tuple[np.ndarray, float]:
    """N(k GRID_STEP) for k = 0, 1, ..., j(r), and r, the largest displacement.

    Each displacement d goes into bin j(d), the least k with k GRID_STEP >= d,
    guessed as ceil(d * (1 / GRID_STEP)) and then fixed by one compare on
    each side, since the guess's rounding can put it one bin off.  The
    products k * GRID_STEP are the floats the exponent fit reads at, so the
    cumulated bins equal searchsorted(sorted displacements, k * GRID_STEP,
    "right") exactly.  Each slice is binned whole, in place in temporaries
    of its own size, none kept for the next slice: the walker's hold at most
    8 ``_ballfast._CHUNK`` = 65,536 floats, so they stay in cache.
    """
    bins = np.zeros(1, dtype=np.int64)
    radius = 0.0
    for d in slices:
        j = np.multiply(d, 1 / GRID_STEP)
        np.ceil(j, out=j)
        step = np.subtract(j, 1.0)
        np.multiply(step, GRID_STEP, out=step)
        fix = np.greater_equal(step, d)
        np.subtract(j, 1.0, out=j, where=fix)
        np.multiply(j, GRID_STEP, out=step)
        np.less(step, d, out=fix)
        np.add(j, 1.0, out=j, where=fix)
        # freed first, so that the cast is the only other temporary held
        del step, fix
        counts = np.bincount(j.astype(np.intp))
        if counts.size > bins.size:
            bins, counts = counts, bins
        bins[: counts.size] += counts
        radius = float(d.max(initial=radius))
    return np.cumsum(bins), radius


@dataclass
class OrbitBall:
    """Counts of the displacements d(x0, g x0) over a word-length ball of a subgroup.

    ``slices`` is a zero-argument source of the displacements, as an iterable
    of arrays; the ball reads it once when built and keeps only
    ``grid_counts`` (N(k GRID_STEP) for k = 0, 1, ... up to the first grid
    point at or past every displacement), ``count`` and ``radius`` (the
    largest displacement; the identity's is 0).  Readers that need more than
    the counts, such as ``spectral.ball_delocalization_bound``, walk the
    source again.  ``orbit_ball`` builds one from a walk of the orbit
    walker, through ``_counted`` when it has already made the counts from
    the walk's parts.  The ball keeps no words and no array of
    displacements.
    """

    base: Point3
    word_length: int
    slices: Callable[[], Iterable[np.ndarray]]
    grid_counts: np.ndarray = field(init=False)
    radius: float = field(init=False)
    count: int = field(init=False)

    def __post_init__(self) -> None:
        self._set_counts(*_grid_counts(self.slices()))

    def _set_counts(self, grid_counts: np.ndarray, radius: float) -> None:
        self.grid_counts, self.radius = grid_counts, radius
        self.count = int(grid_counts[-1])

    @classmethod
    def _counted(
        cls, base: Point3, word_length: int, slices: Callable[[], Iterable[np.ndarray]],
        grid_counts: np.ndarray, radius: float,
    ) -> OrbitBall:
        """The ball of ``slices`` with its counts already made, which must be
        those ``_grid_counts`` makes from ``slices()``; the slices are not read."""
        ball = cls.__new__(cls)
        ball.base, ball.word_length, ball.slices = base, word_length, slices
        ball._set_counts(grid_counts, radius)
        return ball

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


#: Per orbit group, the shortest word length whose ball is walked in parts.
#: Measured on 2 CPUs, each ball walked once in a fresh process after a
#: warm-up ball, 9 alternating serial / split runs, medians:
#: free L = 11 (354K elements) 10.1 ms serial against 12.5 ms split,
#: L = 12 (1.06M) 32.6 against 25.2 ms; full L = 7 (176K) 7.1 against
#: 10.4 ms, L = 8 (879K) 29.3 against 21.4 ms.  The kernel walk forms only
#: the prefixes that can still return to the kernel, so its ball costs less
#: than the full ball of the same length: L = 8 10.1 against 15.0 ms,
#: L = 9 35.8 against 28.2 ms.
_SPLIT_FROM = {"free": 12, "full": 8, "kernel": 9}

#: Most parts a walk is split into: the most CPUs a split has been measured
#: on.  The parents are dealt at a level of 36 free words, and each part
#: costs a fork and the child's copy-on-write faults whether or not it gets
#: much of the walk.
_MAX_PARTS = 2


def _part_count() -> int:
    """The number of CPUs this process may run on, at most ``_MAX_PARTS``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_PARTS)


def _split_parts(group: str, max_len: int) -> int:
    """How many parts the walk of the ball is split into: one CPU's each, or
    one in all where forking is missing or unsafe or the ball is small."""
    parts = _part_count()
    if parts < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return parts if max_len >= _SPLIT_FROM[group] else 1


def _walk_part(group: str, base: Point3, max_len: int, part: tuple[int, int]) -> tuple:
    """Grid counts, radius, sizes and pruned states of one part of a walk."""
    tallies = []

    def slices():
        tallies.append(
            (yield from _ballfast._sphere_displacements(base.z, base.t, max_len, group, part))
        )

    return (*_grid_counts(slices()), *tallies[0])


def _fork_part(group: str, base: Point3, max_len: int, part: tuple[int, int]) -> tuple[int, int]:
    """Fork a child that walks one part: its pid and the read end of its pipe.

    The child pickles its ``_walk_part``, or the exception that stopped it,
    down the pipe, and leaves only by ``os._exit``, so that no atexit
    handler or inherited stdio buffer runs twice.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                try:
                    reply = (_walk_part(group, base, max_len, part), None)
                except Exception as exc:
                    reply = (None, exc)
                with open(write, "wb") as pipe:
                    pickle.dump(reply, pipe)
                code = 0
            finally:
                os._exit(code)
    except BaseException:
        os.close(read)
        raise
    finally:
        os.close(write)
    return pid, read


def _split_counts(group: str, base: Point3, max_len: int, parts: int) -> tuple[np.ndarray, float]:
    """Grid counts and radius of the ball, walked in parts, all but the first
    in forked children.

    The walker calls no BLAS, only einsum and ufuncs, which is what makes
    forking a process with numpy loaded safe here.  The parent walks part 0
    while the children walk theirs, then sums the parts' counts and level
    tallies and runs the growth check once, on the sums.  Every child is
    reaped before this returns or raises, killed first if the parent's own
    part raised; a child's exception is raised again here, and a child that
    died without a reply raises ChildProcessError.
    """
    children: dict[int, int] = {}
    try:
        for p in range(1, parts):
            pid, read = _fork_part(group, base, max_len, (p, parts))
            children[pid] = read
        results = [_walk_part(group, base, max_len, (0, parts))]
        replies = {}
        for pid, read in children.items():
            with open(read, "rb", closefd=False) as pipe:
                replies[pid] = pipe.read()
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        statuses = {}
        for pid, read in children.items():
            os.close(read)
            statuses[pid] = os.waitpid(pid, 0)[1]
    for pid, status in statuses.items():
        if status:
            code = os.waitstatus_to_exitcode(status)
            raise ChildProcessError(f"orbit walk part in process {pid} ended with status {code}")
        result, error = pickle.loads(replies[pid])
        if error is not None:
            raise error
        results.append(result)
    bins, radii, sizes, dead = zip(*results)
    size = max(b.size for b in bins)
    # cumulated counts: past its own radius a part counts all of its points
    grid_counts = sum(np.pad(b, (0, size - b.size), mode="edge") for b in bins)
    _ballfast._check_growth(
        group, max_len, [sum(n) for n in zip(*sizes)], [sum(c, Counter()) for c in zip(*dead)]
    )
    return grid_counts, max(radii)


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

    The walk is split into one part per CPU this process may run on, each
    part but the first walked in a child made with ``os.fork``
    (``_split_counts``), up to ``_MAX_PARTS`` parts; the counts equal the
    whole walk's bit for bit.  It runs in this process alone when there is
    one CPU, no ``os.fork``, more than one Python thread alive, or a word
    length below the group's ``_SPLIT_FROM`` (free 12, full 8, kernel 9),
    where a fork costs more than a second CPU saves.  The ball's ``slices``
    are always the whole walk.
    """
    if not (cmath.isfinite(base.z) and 0 < base.t < math.inf):
        raise DomainError(f"base point must be finite with positive height, got {base}")
    max_len = check_count("max_len", max_len, 0)
    if group not in ORBIT_GROUPS:
        raise DomainError(f"unknown orbit group {group!r}; expected one of {ORBIT_GROUPS}")
    _ballfast._check_guard(group, max_len)
    parts = _split_parts(group, max_len)

    def slices():
        return _ballfast._sphere_displacements(base.z, base.t, max_len, group)

    if parts == 1:
        return OrbitBall(base, max_len, slices)
    return OrbitBall._counted(base, max_len, slices, *_split_counts(group, base, max_len, parts))


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

    def __float__(self) -> float:
        return self.exponent


#: Distinct counts an exponent fit needs inside its window.
_MIN_FIT_COUNTS = 10


def estimate_critical_exponent(
    ball: OrbitBall, window: tuple[float, float] | None = None
) -> ExponentFit:
    """Estimate the orbital growth exponent from the counting function.

    N(T) is read off at the multiples of GRID_STEP inside the window
    (absolute distance bounds), the grid on which the ball counts exactly,
    and a line is fit to (T, log N(T)).  The default window is [0.3, 0.9]
    times the ball's word length: word balls count all orbit points out to
    roughly their word radius and start missing points beyond it, so
    distances past the word length mostly measure that truncation rather
    than growth.  Windows reaching past 0.9 of the displacement radius are
    rejected outright.  Raises InsufficientDataError when fewer than
    _MIN_FIT_COUNTS bins carry distinct counts, which happens for balls too
    small to show their growth rate.
    """
    if window is None:
        window = (0.3 * ball.word_length, 0.9 * ball.word_length)
    t_lo, t_hi = float(window[0]), float(window[1])
    radius = ball.radius
    if not (0.0 <= t_lo < t_hi <= 0.9 * radius + 1e-12):
        raise DomainError(
            f"window must satisfy 0 <= lo < hi <= 0.9 * radius ({0.9 * radius:.3f}), got {window}"
        )
    k_lo = math.ceil(t_lo / GRID_STEP)
    k_hi = math.floor(t_hi / GRID_STEP)
    ts = [k * GRID_STEP for k in range(k_lo, k_hi + 1)]
    counts = [ball.counting_function(t) for t in ts]
    keep = [(t, n) for t, n in zip(ts, counts) if n > 0]
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


def spectral_gap_bounds(
    delta_free: float = FREE_SUBGROUP_CRITICAL_EXPONENT,
    mu: float = 1.0,
) -> GapBounds:
    """Two-sided bounds on the limiting spectral gap of the random covers.

    The lower bound transfers the replacement graph's gap through a
    Brooks-style comparison, mu * gap / (16 d + mu * gap) with d = 4.  The
    upper bound pushes the free subgroup's critical exponent through the
    kernel bound delta >= 2 - delta_free / 2 and the spectral formula.
    """
    if not 0.0 < mu < math.inf:
        raise DomainError(f"comparison constant mu must be positive and finite, got {mu}")
    gap = REPLACEMENT_GRAPH_GAP
    lower = mu * gap / (16.0 * 4.0 + mu * gap)
    delta_kernel = 2.0 - delta_free / 2.0
    upper = elstrodt_sullivan(delta_kernel)
    return GapBounds(lower=lower, upper=upper)
