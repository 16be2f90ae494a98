"""Exact arithmetic in the reflection group of the right-angled ideal octahedron.

The ambient group is PGL(2, Z[i]) extended by the anti-holomorphic involution
rho(z, t) = (conj(z), t) of upper half space.  An element is a pair (A, s) of a
matrix over the Gaussian integers with unit determinant and a conjugation bit
s, with the twisted product

    (A, s) * (B, t) = (A sigma^s(B), s XOR t),

where sigma conjugates a matrix entrywise.  A unit determinant leaves a
matrix defined up to a unit scalar, and it is kept canonical: scaled by the
unit that gives the first nonzero entry (row-major) positive real part and
nonnegative imaginary part.  That quarter sector contains exactly one
associate of every nonzero Gaussian integer, so equality of isometries is
plain entrywise equality.  All arithmetic is on arbitrary precision integers,
so group identities hold exactly.

The eight standard generators are the reflections in the faces of the regular
right-angled ideal octahedron with ideal vertices {0, 1, i, 1+i, (1+i)/2,
infinity}.  They come in four opposite-face pairs ``r1..r4`` / ``r1p..r4p``;
two reflections commute exactly when their faces meet at a right angle, which
makes the commutation graph the 1-skeleton of a cube.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError, SetupError

_UNITS_CACHE: tuple[GaussianInt, ...]


class GaussianInt:
    """A Gaussian integer re + im*i with exact integer components."""

    __slots__ = ("re", "im")

    def __init__(self, re: int = 0, im: int = 0) -> None:
        self.re = re
        self.im = im

    def __repr__(self) -> str:
        return f"GaussianInt({self.re}, {self.im})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianInt):
            return self.re == other.re and self.im == other.im
        if isinstance(other, int):
            return self.re == other and self.im == 0
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __neg__(self) -> "GaussianInt":
        return GaussianInt(-self.re, -self.im)

    def __add__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianInt | int") -> "GaussianInt":
        if isinstance(other, int):
            return GaussianInt(self.re * other, self.im * other)
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conj(self) -> "GaussianInt":
        return GaussianInt(self.re, -self.im)

    def norm(self) -> int:
        """The field norm re^2 + im^2 (a nonnegative rational integer)."""
        return self.re * self.re + self.im * self.im

    def is_unit(self) -> bool:
        return self.norm() == 1

    def unit_canonical(self) -> tuple["GaussianInt", "GaussianInt"]:
        """Return (u, u*self) with u a unit and u*self in the canonical sector.

        The canonical associate has re > 0 and im >= 0.  Every nonzero
        Gaussian integer has exactly one associate in that quarter sector,
        which is what makes projective equality decidable entrywise.  Zero
        maps to itself with u = 1.
        """
        z = self
        for u in _UNITS_CACHE:
            w = u * z
            if w.re > 0 and w.im >= 0:
                return u, w
        return _UNITS_CACHE[0], z


_UNITS_CACHE = (
    GaussianInt(1, 0),
    GaussianInt(0, 1),
    GaussianInt(-1, 0),
    GaussianInt(0, -1),
)


def _gi(re: int, im: int = 0) -> GaussianInt:
    return GaussianInt(re, im)


class ProjIsom:
    """A projectivized matrix over Z[i] together with a conjugation bit.

    Instances are immutable by convention and always canonical: unit
    determinant and unit-scaled as described in the module docstring.
    Equality and hashing compare the canonical entries and the bit, so they
    decide equality of the underlying isometries of upper half space.
    Construction raises DomainError on a determinant that is not a unit.
    """

    __slots__ = ("a", "b", "c", "d", "conj")

    def __init__(
        self,
        a: GaussianInt,
        b: GaussianInt,
        c: GaussianInt,
        d: GaussianInt,
        conj: int = 0,
    ) -> None:
        if conj not in (0, 1):
            raise DomainError(f"conjugation bit must be 0 or 1, got {conj!r}")
        det = a * d - b * c
        if not det.is_unit():
            raise DomainError(f"determinant {det!r} is not a unit of Z[i]")
        u = _UNITS_CACHE[0]
        for e in (a, b, c, d):
            if e:
                u, _ = e.unit_canonical()
                break
        if u.re != 1 or u.im != 0:
            a, b, c, d = u * a, u * b, u * c, u * d
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        self.conj = conj

    def __repr__(self) -> str:
        def fmt(z: GaussianInt) -> str:
            if z.im == 0:
                return str(z.re)
            if z.re == 0:
                return f"{z.im}i"
            sign = "+" if z.im > 0 else "-"
            return f"{z.re}{sign}{abs(z.im)}i"

        mat = f"[[{fmt(self.a)}, {fmt(self.b)}], [{fmt(self.c)}, {fmt(self.d)}]]"
        return f"ProjIsom({mat}, conj={self.conj})"

    def entries(self) -> tuple[GaussianInt, GaussianInt, GaussianInt, GaussianInt]:
        return (self.a, self.b, self.c, self.d)

    def _key(self) -> tuple[int, ...]:
        """The conjugation bit and the canonical entries' parts, in one tuple
        that equality, hashing and the symmetry group's order all read."""
        a, b, c, d = self.a, self.b, self.c, self.d
        return (self.conj, a.re, a.im, b.re, b.im, c.re, c.im, d.re, d.im)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProjIsom):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __mul__(self, other: "ProjIsom") -> "ProjIsom":
        if not isinstance(other, ProjIsom):
            return NotImplemented
        if self.conj:
            oa, ob = other.a.conj(), other.b.conj()
            oc, od = other.c.conj(), other.d.conj()
        else:
            oa, ob, oc, od = other.a, other.b, other.c, other.d
        return ProjIsom(
            self.a * oa + self.b * oc,
            self.a * ob + self.b * od,
            self.c * oa + self.d * oc,
            self.c * ob + self.d * od,
            self.conj ^ other.conj,
        )

    def inverse(self) -> "ProjIsom":
        a, b, c, d = self.d, -self.b, -self.c, self.a
        if self.conj:
            a, b, c, d = a.conj(), b.conj(), c.conj(), d.conj()
        return ProjIsom(a, b, c, d, self.conj)

    def __pow__(self, n: int) -> "ProjIsom":
        if n < 0:
            return self.inverse() ** (-n)
        result = identity()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_identity(self) -> bool:
        return (
            self.conj == 0
            and not self.b
            and not self.c
            and self.a == self.d
            and self.a.is_unit()
        )


def identity() -> ProjIsom:
    return ProjIsom(_gi(1), _gi(0), _gi(0), _gi(1), 0)


#: The eight face reflections of the octahedron, in the fixed letter order used
#: for normal forms.  Opposite faces pair up as ``rk`` / ``rkp``.
GENERATOR_NAMES: tuple[str, ...] = ("r1", "r1p", "r2", "r2p", "r3", "r3p", "r4", "r4p")

STANDARD_GENERATORS: dict[str, ProjIsom] = {
    "r1": ProjIsom(_gi(1, 2), _gi(-2), _gi(2), _gi(-1, 2), 1),
    "r1p": ProjIsom(_gi(1), _gi(0), _gi(0), _gi(1), 1),
    "r2": ProjIsom(_gi(1), _gi(0), _gi(2), _gi(-1), 1),
    "r2p": ProjIsom(_gi(1), _gi(0, 2), _gi(0), _gi(1), 1),
    "r3": ProjIsom(_gi(-1), _gi(2), _gi(0), _gi(1), 1),
    "r3p": ProjIsom(_gi(1), _gi(0), _gi(0, -2), _gi(1), 1),
    "r4": ProjIsom(_gi(-1), _gi(0), _gi(0), _gi(1), 1),
    "r4p": ProjIsom(_gi(1, -2), _gi(0, 2), _gi(0, -2), _gi(1, 2), 1),
}


def opposite_generator(name: str) -> str:
    """Name of the reflection in the opposite face (r2 <-> r2p etc.)."""
    if name not in STANDARD_GENERATORS:
        raise DomainError(f"unknown generator {name!r}")
    return name[:-1] if name.endswith("p") else name + "p"


def cube_commutes(a: str, b: str) -> bool:
    """Whether the cube rule makes the standard reflections a and b commute:
    one is a face letter and the other a perp letter, not its opposite."""
    return a.endswith("p") != b.endswith("p") and opposite_generator(a) != b


@lru_cache(maxsize=1)
def commutation_graph() -> dict[str, frozenset[str]]:
    """Adjacency of the commutation graph on the eight standard generators.

    Two distinct reflections are adjacent when their product has order two,
    decided by exact arithmetic.  The result is checked against
    ``cube_commutes``, the 1-skeleton of a cube: 3-regular and bipartite
    between the faces and their opposites, with ``rk`` adjacent to ``rjp``
    exactly for j != k.
    """
    names = GENERATOR_NAMES
    adj: dict[str, set[str]] = {n: set() for n in names}
    for i, x in enumerate(names):
        for y in names[i + 1:]:
            prod = STANDARD_GENERATORS[x] * STANDARD_GENERATORS[y]
            if (prod * prod).is_identity():
                adj[x].add(y)
                adj[y].add(x)
    for n in names:
        if adj[n] != {m for m in names if cube_commutes(n, m)}:
            raise SetupError(f"commutation graph is not the cube skeleton at {n}")
    return {n: frozenset(adj[n]) for n in names}


def in_level2_congruence(g: ProjIsom) -> bool:
    """Whether g lies in the level-2 congruence subgroup of PGL(2, Z[i]).

    Membership means no conjugation and matrix congruent to a unit multiple of
    the identity mod 2.  Because the canonical representative is fixed only up
    to the chosen unit scaling, both unit classes 1 and i are admitted.
    """
    if g.conj:
        return False
    for u in (_gi(1), _gi(0, 1)):
        if (
            (g.a - u).re % 2 == 0 and (g.a - u).im % 2 == 0
            and (g.d - u).re % 2 == 0 and (g.d - u).im % 2 == 0
            and g.b.re % 2 == 0 and g.b.im % 2 == 0
            and g.c.re % 2 == 0 and g.c.im % 2 == 0
        ):
            return True
    return False


#: Rotations generating the orientation-preserving symmetries of the octahedron,
#: of orders three and four.  The order-four one is [[1, -1], [0, i]], the
#: unit-determinant multiple of [[1-i, -1+i], [0, 1+i]].
ROTATION_ORDER3 = ProjIsom(_gi(1), _gi(0, -1), _gi(0, -1), _gi(0), 0)
ROTATION_ORDER4 = ProjIsom(_gi(1), _gi(-1), _gi(0), _gi(0, 1), 0)


@lru_cache(maxsize=1)
def octa_symmetry_group() -> tuple[ProjIsom, ...]:
    """The 24 orientation-preserving symmetries of the octahedron.

    Computed as the closure of the order-3 and order-4 rotations under the
    group product.  Raises SetupError if the closure exceeds 100 elements,
    which would mean the generators were transcribed wrongly.
    """
    gens = (ROTATION_ORDER3, ROTATION_ORDER4)
    seen = {identity()}
    frontier = [identity()]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                gh = g * h
                if gh not in seen:
                    seen.add(gh)
                    nxt.append(gh)
                    if len(seen) > 100:
                        raise SetupError("symmetry closure exceeded 100 elements")
        frontier = nxt
    if len(seen) != 24:
        raise SetupError(f"expected 24 octahedral symmetries, found {len(seen)}")

    return tuple(sorted(seen, key=ProjIsom._key))
