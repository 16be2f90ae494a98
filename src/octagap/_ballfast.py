"""The vectorized isometry action and the orbit-ball walker of the geometry module.

``act`` maps arrays of points (z, t) of upper half space under arrays of
matrices with conjugation bits, and ``distance`` is the hyperbolic metric on
arrays; ``isom_table`` turns any list of ``ProjIsom`` into the arrays ``act``
takes.  Every use of the action formula outside the orbit walker goes
through these two functions; the walker needs displacements only, and takes
them from Gram vectors instead.

``_sphere_displacements`` walks the ShortLex normal-form automaton of
``words.shortlex_automaton_masks`` restricted to the letters of an orbit
group (``_WALKS``), carrying four floats per element in numpy arrays instead
of materializing word tuples, which is what makes orbit balls of tens of
millions of elements feasible.  It yields the displacements one slice at a
time and never holds the whole ball: ``geometry.orbit_ball`` bins each slice
into counts on a fixed grid as it arrives.  The face letters r1..r4 pairwise
do not commute, so restricted to them the automaton accepts exactly the
reduced words of their free product; on all eight letters it accepts the
normal forms of the reflection group.  Each level's size is checked against
the group's growth series.

Each element M, of unit determinant modulus, is carried as its Gram vector:
the row (S11, S22, Re S12, Im S12) of S = Q* Q, Q = h^-1 M, where
h = [[sqrt t0, z0 / sqrt t0], [0, 1 / sqrt t0]] carries j = (0, 1) to
x0 = (z0, t0).  Appending a letter G' maps S to G'* S G', which is
real-linear, so a child's row is its parent's row times a fixed real 4x4 map
per letter and parent parity (``_letter_maps``).  The element moves x0 by
cosh d = |h^-1 M h'|_F^2 / 2 (Elstrodt, Grunewald and Mennicke, *Groups
Acting on Hyperbolic Space*, ch. 1), where h' conjugates z0 if the element
does: the row dotted with one readout vector per conjugation bit
(``_frame``).  Each level works in slices of ``_CHUNK`` parents: their rows
times the weights (each letter's map times its children's readout) give the
cosh of all their children at once, masked by the automaton's free letters.
Child rows are formed only for levels that get extended, so the last sphere
never forms one.  The rows carry their rounding from level to level: at the
guarded lengths (free 15, full and kernel 10), at the default base point and
at (0.35 + 0.38i, 0.95), the displacements stay within 6.7e-14 of those from
Gram vectors recomputed at every level from the exact Gaussian-integer
matrices.

The kernel walk never forms a child whose perp image is longer than the
letters left, since such a prefix can never return to the trivial image, and
reads out only the parents whose image has at most one letter, the only
ones with a child of trivial image.  The growth check still covers the
dropped prefixes: their accepted continuations are counted over the
automaton states (``_continuations``) and added to the kept ones.

All generators carry the conjugation bit, so an element of word length L
conjugates iff L is odd; appending a letter to an odd-length element must
right-multiply by the entrywise conjugate of the letter's matrix.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .errors import MemoryGuardError
from .group import GENERATOR_NAMES, STANDARD_GENERATORS, ProjIsom
from .words import (
    free_sphere_count,
    racg_sphere_count,
    shortlex_automaton_masks,
)

_CHUNK = 1 << 16

MAX_FREE_LEN = 15
MAX_RACG_LEN = 10

#: Per orbit group: its letters, as positions in GENERATOR_NAMES (the face
#: letters r1..r4, or all eight); whether only the kernel of the perp
#: retraction is kept; the length guard; and the sphere count each level of
#: the walk must hit.
_WALKS = {
    "free": ((0, 2, 4, 6), False, MAX_FREE_LEN, free_sphere_count),
    "full": (tuple(range(8)), False, MAX_RACG_LEN, racg_sphere_count),
    "kernel": (tuple(range(8)), True, MAX_RACG_LEN, racg_sphere_count),
}


def isom_table(isoms: Sequence[ProjIsom]) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of the isometries for ``act``: entries and conjugation bits.

    The entries come as a (4, n) complex array with rows a, b, c, d, each
    matrix scaled by |det|^(-1/2) so that it has unit determinant modulus
    and the action needs no determinant factor.  The bits are an (n,) bool
    array.
    """
    mats = np.empty((4, len(isoms)), dtype=np.complex128)
    for k, g in enumerate(isoms):
        scale = g.det().norm() ** -0.25
        mats[:, k] = [complex(e.re, e.im) * scale for e in g.entries()]
    return mats, np.array([g.conj for g in isoms], dtype=bool)


def act(
    mats: Sequence[np.ndarray], conj, z, t
) -> tuple[np.ndarray, np.ndarray]:
    """Images (z', t') of the points (z, t) under matrices of unit |det|.

    ``mats`` holds the entries a, b, c, d; they, the conjugation bits and the
    coordinates broadcast against each other.  With z conjugated first where
    the bit is set,

        z' = ((a z + b) conj(c z + d) + a conj(c) t^2) / D
        t' = t / D,          D = |c z + d|^2 + |c|^2 t^2.

    The orbit walker does not call it: it needs displacements only, and
    carries Gram vectors for them (``_letter_maps``, ``_frame``).
    """
    a, b, c, d = mats
    z = np.where(conj, np.conj(z), z)
    czd = c * z + d
    denom = np.abs(czd) ** 2 + np.abs(c) ** 2 * (t * t)
    w = ((a * z + b) * np.conj(czd) + a * np.conj(c) * (t * t)) / denom
    return w, t / denom


def distance(z1, t1, z0, t0) -> np.ndarray:
    """Hyperbolic distance between the points (z1, t1) and (z0, t0), elementwise."""
    coshd = 1.0 + (np.abs(z1 - z0) ** 2 + (t1 - t0) ** 2) / (2.0 * t1 * t0)
    return np.arccosh(np.maximum(coshd, 1.0))


@lru_cache(maxsize=None)
def _letter_maps() -> np.ndarray:
    """The (2, 8, 4, 4) maps of the Gram rows: row(M G') = row(M) @ maps[p, g].

    G' is the matrix of the letter GENERATOR_NAMES[g], conjugated when the
    parent's parity p is odd.  Row j of a map is the row of G'* B_j G' for
    the Hermitian basis matrix B_j whose own row is the j-th unit vector.
    """
    table, _ = isom_table([STANDARD_GENERATORS[name] for name in GENERATOR_NAMES])
    basis = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [1, 0]], [[0, 1j], [-1j, 0]]])
    maps = np.empty((2, 8, 4, 4))
    for p, gmats in enumerate((table, np.conj(table))):
        g = gmats.T.reshape(8, 1, 2, 2)
        image = np.conj(np.swapaxes(g, 2, 3)) @ basis @ g
        s12 = image[..., 0, 1]
        maps[p] = np.stack([image[..., 0, 0].real, image[..., 1, 1].real, s12.real, s12.imag], -1)
    maps.setflags(write=False)
    return maps


def _frame(z0: complex, t0: float) -> tuple[np.ndarray, np.ndarray]:
    """The identity's Gram row and the (2, 4) readout vectors at x0 = (z0, t0).

    cosh d(x0, M x0) = row(M) @ readout[s] for an element whose conjugation
    bit is s: readout[s] = ((t0 + |z0|^2 / t0) / 2, 1 / (2 t0), Re z / t0,
    Im z / t0), with z = z0 for s = 0 and conj(z0) for s = 1.
    """
    r2 = abs(z0) ** 2 / t0
    start = np.array([1 / t0, r2 + t0, -z0.real / t0, -z0.imag / t0])
    readout = np.array(
        [[(t0 + r2) / 2, 0.5 / t0, z.real / t0, z.imag / t0] for z in (z0, z0.conjugate())]
    )
    return start, readout


def _child_displacements(
    grams: np.ndarray, hit: np.ndarray, weights: np.ndarray, rows: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """Displacements of the children hit[i, k] of parent i by letter k, in slices of parents.

    The parents are the Gram rows ``grams``, or those listed in ``rows``.
    The product runs in ``einsum``, not in BLAS: a threaded BLAS wakes its
    threads for every slice, which costs more than the product itself, and
    this way the values repeat at any thread count.
    """
    for i in range(0, hit.shape[0], _CHUNK):
        s = slice(i, i + _CHUNK)
        parents = grams[s] if rows is None else grams[rows[s]]
        coshd = np.einsum("ij,jk->ik", parents, weights)[hit[s]]
        yield np.arccosh(np.maximum(coshd, 1.0, out=coshd), out=coshd)


@lru_cache(maxsize=None)
def _continuations(letters: tuple[int, ...], state: int, depth: int) -> int:
    """Number of words of this length the automaton accepts on the letters from state."""
    if depth == 0:
        return 1
    keep_masks, set_masks = shortlex_automaton_masks()
    return sum(
        _continuations(letters, (state & keep_masks[g]) | set_masks[g], depth - 1)
        for g in letters
        if not (state >> (2 * g)) & 3
    )


def _perp_step(
    pack: np.ndarray, plen: np.ndarray, sym: int
) -> tuple[np.ndarray, np.ndarray]:
    """Append a letter to packed perp-image words: push or pop sym (0 keeps them)."""
    if sym == 0:
        return pack, plen
    top_shift = (3 * np.maximum(plen - 1, 0)).astype(np.uint64)
    top = (pack >> top_shift) & np.uint64(7)
    pop = (plen > 0) & (top == sym)
    pushed = pack | (np.uint64(sym) << (3 * plen).astype(np.uint64))
    popped = pack & ~(np.uint64(7) << top_shift)
    return np.where(pop, popped, pushed), np.where(pop, plen - 1, plen + 1)


def _sphere_displacements(
    z0: complex, t0: float, max_len: int, group: str
) -> Iterator[np.ndarray]:
    """Displacements d(x0, g x0) over a word-length ball of an orbit group, in slices.

    ``group`` is a key of ``_WALKS``: "free" (the free product on r1..r4),
    "full" (the whole reflection group) or "kernel" (the elements with
    trivial image in the free product on the perp letters: the ball of the
    normal closure of the face letters, intersected with the word-length
    ball).  Yields one float per element of geodesic length <= max_len (the
    identity first), shortest words first but unsorted within a sphere.  The
    length guard raises MemoryGuardError at the first slice asked for,
    before the walk allocates anything.
    """
    letters, kernel_only, max_guard, sphere_count = _WALKS[group]
    if max_len > max_guard:
        raise MemoryGuardError(
            f"{group} orbit ball of radius {max_len} exceeds the memory guard ({max_guard})"
        )
    keep_masks, set_masks = shortlex_automaton_masks()
    maps = _letter_maps()[:, list(letters)]
    start, readout = _frame(z0, t0)
    # a parent of parity p has children of parity 1 - p
    weights = [np.einsum("kij,j->ik", maps[p], readout[1 - p]) for p in (0, 1)]
    # free_table[s, k]: whether the automaton state s lets letter k follow
    shifts = np.array([2 * g for g in letters], dtype=np.uint16)
    free_table = (np.arange(1 << 16, dtype=np.uint16)[:, None] >> shifts) & np.uint16(3) == 0
    # perp letters are the odd positions of GENERATOR_NAMES; letter rkp pushes
    # or pops the symbol k on the reduced image word, packed 3 bits per symbol
    perp_symbol = [(g // 2 + 1) if GENERATOR_NAMES[g].endswith("p") else 0 for g in range(8)]
    syms = np.array([perp_symbol[g] for g in letters], dtype=np.uint64)
    yield np.zeros(1)
    grams = start[None]
    state = np.zeros(1, dtype=np.uint16)
    pack = np.zeros(1, dtype=np.uint64)
    plen = np.zeros(1, dtype=np.int64)
    # missing[k]: words of length k + 1 that descend from pruned kernel prefixes
    missing = [0] * max_len
    for level in range(max_len):
        parity = level % 2
        free = free_table[state]
        size = int(np.count_nonzero(free))
        if size + missing[level] != sphere_count(level + 1):
            raise AssertionError(
                f"sphere {level + 1}: {size} + {missing[level]} pruned "
                f"!= {sphere_count(level + 1)}"
            )
        if kernel_only:
            # a child has a trivial image iff a face letter (symbol 0) extends
            # an empty image (pack 0) or a perp letter pops the one symbol of
            # its parent's image: in both cases the pack equals the symbol
            near = np.flatnonzero(plen <= 1)
            hit = free[near] & (pack[near, None] == syms)
            yield from _child_displacements(grams, hit, weights[parity], near)
        else:
            yield from _child_displacements(grams, free, weights[parity])
        if level == max_len - 1:
            return
        # the kernel walk fills only the first `off` rows
        ngrams = np.empty((size, 4))
        nstate = np.empty(size, dtype=np.uint16)
        if kernel_only:
            npack = np.empty(size, dtype=np.uint64)
            nplen = np.empty(size, dtype=np.int64)
            dead_states = []
        off = 0
        for k, g in enumerate(letters):
            sel = np.flatnonzero(free[:, k])
            cstate = (state[sel] & np.uint16(keep_masks[g])) | np.uint16(set_masks[g])
            if kernel_only:
                # a child whose image is longer than the letters left never
                # returns to the trivial image: it is counted, not formed
                cpack, cplen = _perp_step(pack[sel], plen[sel], perp_symbol[g])
                live = cplen <= max_len - level - 1
                dead_states.append(cstate[~live])
                sel, cstate = sel[live], cstate[live]
                npack[off:off + sel.size], nplen[off:off + sel.size] = cpack[live], cplen[live]
            view = slice(off, off + sel.size)
            np.einsum("ij,jk->ik", grams[sel], maps[parity, k], out=ngrams[view])
            nstate[view] = cstate
            off += sel.size
        grams, state = ngrams[:off], nstate[:off]
        if not kernel_only:
            continue
        pack, plen = npack[:off], nplen[:off]
        # the growth check counts the accepted continuations of the dropped children
        states, mult = np.unique(np.concatenate(dead_states), return_counts=True)
        for k in range(level + 1, max_len):
            missing[k] += sum(
                int(m) * _continuations(letters, int(s), k - level) for s, m in zip(states, mult)
            )
