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
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import _ballfast
from .errors import DomainError, InsufficientDataError, SetupError, check_count
from .group import GaussianInt, ProjIsom, octa_symmetry_group
from .words import CoxeterWord, evaluate_word, format_word

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

#: Gauss-Legendre nodes for cap_volume's lens integral.  Its integrand grows
#: like e^u over an interval up to T long; 48 nodes leave 1e-12 relative error
#: at T = 300, 64 stay within 1e-13 up to _MAX_RADIUS.
_LENS_NODES = 64


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
def _lens_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [0, 1] and their weights (summing to 1).

    Newton's method on P_n from Tricomi's first guess converges quadratically;
    four steps reach rounding level, five are taken.
    """
    n = _LENS_NODES

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
    nodes, weights = _lens_rule()
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
    """
    T, delta = float(radius), float(separation)
    if T <= 0 or delta < 0:
        raise DomainError("radius must be positive and separation nonnegative")
    if n_samples <= 0:
        raise DomainError("n_samples must be positive")
    if delta >= 2.0 * T:
        return 0.0
    rng = np.random.default_rng(seed)
    x = Point3(0.0 + 0.0j, 1.0)
    y = Point3(0.0 + 0.0j, math.exp(delta))
    # Euclidean envelope of B(x, T): center height cosh(T), radius sinh(T)
    tc, re = math.cosh(T), math.sinh(T)
    t1, t2 = tc - re, tc + re
    inv1, inv2 = t1 ** -2.0, t2 ** -2.0
    w_total = 0.0
    chunk = 1 << 18
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        u = rng.random(m)
        t = (inv1 - u * (inv1 - inv2)) ** -0.5
        r_slice = np.sqrt(np.maximum(re * re - (t - tc) ** 2, 0.0))
        phi = rng.random(m) * (2.0 * math.pi)
        rad = np.sqrt(rng.random(m)) * r_slice
        zx = rad * np.cos(phi)
        zy = rad * np.sin(phi)
        rho2 = zx * zx + zy * zy
        coshd_x = 1.0 + (rho2 + (t - x.t) ** 2) / (2.0 * t * x.t)
        coshd_y = 1.0 + (rho2 + (t - y.t) ** 2) / (2.0 * t * y.t)
        inside = (coshd_x <= math.cosh(T)) & (coshd_y <= math.cosh(T))
        area = math.pi * r_slice ** 2
        w_total += float(np.sum(inside * area))
        done += m
    z_norm = (inv1 - inv2) / 2.0
    return w_total / n_samples * z_norm


# -- fundamental corner and horoball cover ----------------------------------

#: The point where all six truncated horoballs of the standard cover meet:
#: the symmetry center of the octahedron.
OCTA_CENTER = Point3(0.5 + 0.5j, math.sqrt(0.5))


def in_fundamental_corner(p: Point3, tol: float = 1e-9) -> bool:
    """Whether p lies in {0 <= x, y <= 1/2, x^2 + y^2 + t^2 >= 1} (with slack tol)."""
    x, y = p.z.real, p.z.imag
    return (
        -tol <= x <= 0.5 + tol
        and -tol <= y <= 0.5 + tol
        and x * x + y * y + p.t * p.t >= 1.0 - tol
    )


def move_to_corner(p: Point3, tol: float = 1e-9) -> tuple[ProjIsom, Point3]:
    """Find a symmetry of the octahedron carrying p into the fundamental corner.

    Returns the pair (g, g applied to p).  Raises SetupError when no symmetry
    works, which for exact inputs means p is outside the octahedron.
    """
    for g in octa_symmetry_group():
        q = apply_isom(g, p)
        if in_fundamental_corner(q, tol):
            return g, q
    raise SetupError(f"no octahedral symmetry carries {p} into the corner")


def in_standard_horoball(p: Point3, tol: float = 1e-9) -> bool:
    """The truncated horoball piece {0 <= x, y <= 1, t >= 1/sqrt(2)}.

    The coordinates of p may also be numpy arrays; the answer is then a
    bool array.
    """
    x, y = p.z.real, p.z.imag
    return (
        (-tol <= x) & (x <= 1.0 + tol)
        & (-tol <= y) & (y <= 1.0 + tol)
        & (p.t >= math.sqrt(0.5) - tol)
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


@dataclass(frozen=True)
class HoroballCoverReport:
    n_checked: int
    n_excluded: int
    covered_fraction: float
    max_multiplicity: int
    multiplicity_counts: dict[int, int]


def horoball_cover_check(
    n_samples: int,
    seed: int,
    exclusion_radius: float = 1e-3,
    height_cap: float = 2.5,
) -> HoroballCoverReport:
    """Sample the octahedron and audit the six-horoball cover.

    Points are drawn in the fundamental corner (heights up to height_cap) and
    pushed around by random symmetries so the whole octahedron is exercised.
    For each point the multiplicity counts how many of the six truncated
    horoballs contain it.  Points within exclusion_radius (hyperbolic) of the
    center, where all six pieces meet, are excluded from the multiplicity
    tally but still counted for coverage; n_checked counts the rest, so the
    radius must be finite (NaN or inf would exclude every point).  Points
    are drawn and mapped in chunks of _HOROBALL_CHUNK.
    """
    if n_samples <= 0:
        raise DomainError("n_samples must be positive")
    if height_cap <= 1.0:
        raise DomainError("height_cap must exceed the corner floor")
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
        t = t_low + rng.random(m) * (height_cap - t_low)
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


def cusp_height_standard(
    p: Point3, reps: Iterable[ProjIsom], lattice: CuspDatum | None = None
) -> float:
    """Height of p at the cusp at infinity, maximized over the supplied orbit.

    The honest height is a supremum over the whole group; this restricts the
    maximum to a finite representative set, which is how every caller uses
    it.  The optional lattice is validated (the cusp at infinity has rank
    two) but does not affect the value: horizontal translations preserve t.
    """
    if lattice is not None and lattice.rank != 2:
        raise DomainError("the cusp at infinity has rank two")
    best = p.t
    for g in reps:
        best = max(best, apply_isom(g, p).t)
    return best


# -- orbit balls and the critical exponent -----------------------------------

@dataclass
class OrbitBall:
    """Displacements d(x0, g x0) over a word-length ball of a subgroup.

    ``displacements`` is sorted ascending and always starts at 0 (the
    identity).  ``words`` holds the corresponding words when the ball was
    enumerated explicitly, and is None for the vectorized enumerations.
    """

    base: Point3
    word_length: int
    displacements: np.ndarray
    words: list[CoxeterWord] | None = None
    label: str = ""

    @property
    def radius(self) -> float:
        return float(self.displacements[-1])

    @property
    def count(self) -> int:
        return int(self.displacements.size)

    def counting_function(self, t: float) -> int:
        """Number of orbit points within distance t."""
        return int(np.searchsorted(self.displacements, t, side="right"))

    def to_csv(self, fileobj) -> None:
        """Write rows word,displacement.  Requires explicit words."""
        if self.words is None:
            raise DomainError("this ball was enumerated without words")
        fileobj.write("word,displacement\r\n")
        for w, dval in zip(self.words, self.displacements):
            fileobj.write(f"{format_word(w)},{dval:.12g}\r\n")


#: Built-in orbit groups: the walker's letters and whether it keeps only the
#: kernel of the perp retraction.
_ORBIT_WALKS = {
    "free": (_ballfast.FACE_LETTERS, False),
    "full": (_ballfast.ALL_LETTERS, False),
    "kernel": (_ballfast.ALL_LETTERS, True),
}
ORBIT_GROUPS = tuple(_ORBIT_WALKS)


def orbit_ball(
    group: str | Callable[[int], Iterable[CoxeterWord]],
    base: Point3,
    max_len: int,
) -> OrbitBall:
    """Orbit ball of a subgroup around a base point.

    ``group`` selects a built-in vectorized enumeration: "free" for the
    subgroup generated by the face letters r1..r4 (a free product of four
    order-two groups), "full" for the whole reflection group, "kernel" for
    the elements of the full ball with trivial image in the free product on
    the perp letters.  A callable taking max_len and yielding words runs the
    exact word-by-word path and keeps the words.
    """
    if not (cmath.isfinite(base.z) and 0 < base.t < math.inf):
        raise DomainError(f"base point must be finite with positive height, got {base}")
    max_len = check_count("max_len", max_len, 0)
    if callable(group):
        words = [tuple(w) for w in group(max_len)]
        w, t = _ballfast.act(
            *_ballfast.isom_table([evaluate_word(word) for word in words]), base.z, base.t
        )
        disp = _ballfast.distance(w, t, base.z, base.t)
        order = np.argsort(disp, kind="stable")
        return OrbitBall(
            base=base,
            word_length=max_len,
            displacements=disp[order],
            words=[words[k] for k in order],
            label="custom",
        )
    if group not in _ORBIT_WALKS:
        raise DomainError(f"unknown orbit group {group!r}; expected one of {ORBIT_GROUPS}")
    letters, kernel_only = _ORBIT_WALKS[group]
    disp = _ballfast.ball_displacements(base.z, base.t, max_len, letters, kernel_only)
    disp.sort()
    return OrbitBall(
        base=base, word_length=max_len, displacements=disp, words=None, label=group
    )


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


def estimate_critical_exponent(
    ball: OrbitBall,
    window: tuple[float, float] | None = None,
    bin_width: float = 0.1,
    min_points: int = 10,
) -> ExponentFit:
    """Estimate the orbital growth exponent from the counting function.

    N(T) is read off at multiples of bin_width inside the window (absolute
    distance bounds), and a line is fit to (T, log N(T)).  The default window
    is [0.3, 0.9] times the ball's word length: word balls count all orbit
    points out to roughly their word radius and start missing points beyond
    it, so distances past the word length mostly measure that truncation
    rather than growth.  Windows reaching past 0.9 of the displacement radius
    are rejected outright.  Raises InsufficientDataError when fewer than
    min_points bins carry distinct counts, which happens for balls too small
    to show their growth rate.
    """
    if bin_width <= 0:
        raise DomainError("bin_width must be positive")
    if window is None:
        window = (0.3 * ball.word_length, 0.9 * ball.word_length)
    t_lo, t_hi = float(window[0]), float(window[1])
    radius = ball.radius
    if not (0.0 <= t_lo < t_hi <= 0.9 * radius + 1e-12):
        raise DomainError(
            f"window must satisfy 0 <= lo < hi <= 0.9 * radius ({0.9 * radius:.3f}), got {window}"
        )
    k_lo = math.ceil(t_lo / bin_width)
    k_hi = math.floor(t_hi / bin_width)
    ts = [k * bin_width for k in range(k_lo, k_hi + 1)]
    counts = [ball.counting_function(t) for t in ts]
    keep = [(t, n) for t, n in zip(ts, counts) if n > 0]
    if len({n for _, n in keep}) < min_points:
        raise InsufficientDataError(
            f"only {len({n for _, n in keep})} distinct counts in window; need {min_points}"
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
    if mu <= 0:
        raise DomainError("comparison constant mu must be positive")
    gap = REPLACEMENT_GRAPH_GAP
    lower = mu * gap / (16.0 * 4.0 + mu * gap)
    delta_kernel = 2.0 - delta_free / 2.0
    upper = elstrodt_sullivan(delta_kernel)
    return GapBounds(lower=lower, upper=upper)
