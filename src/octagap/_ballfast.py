"""The vectorized isometry action and the orbit-ball walker of the geometry module.

``act`` maps arrays of points (z, t) of upper half space under arrays of
matrices with conjugation bits, and ``distance`` is the hyperbolic metric on
arrays; ``isom_table`` turns any list of ``ProjIsom`` into the arrays ``act``
takes.  Every other use of the action formula in the package goes through
these two functions.

``ball_displacements`` walks the ShortLex normal-form automaton of
``words.shortlex_automaton_masks`` restricted to a subset of the letters,
carrying complex128 matrix entries in numpy arrays instead of materializing
word tuples, which is what makes orbit balls of tens of millions of elements
feasible.  The face letters r1..r4 pairwise do not commute, so restricted to
them the automaton accepts exactly the reduced words of their free product;
on all eight letters it accepts the normal forms of the reflection group.
Each level's size is checked against the group's growth series.

Only the displacements of the last sphere are used, so it is never stored:
it is formed from the parent level in slices of ``_CHUNK`` rows that go
straight to ``act`` and ``distance``.  The kernel walk also drops, after each
level, every prefix whose perp image is longer than the letters left, since
such a prefix can never return to the trivial image.  The growth check still
covers the dropped prefixes: their accepted continuations are counted over
the automaton states (``_continuations``) and added to the kept ones.
Entries of products of the generator matrices grow like 4^L, far inside
double range for the guarded lengths, and every group element has unit
determinant modulus.

All generators carry the conjugation bit, so an element of word length L
conjugates iff L is odd; appending a letter to an odd-length element must
right-multiply by the entrywise conjugate of the letter's matrix.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator, Sequence

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

#: Letter subsets the walker accepts, as positions in GENERATOR_NAMES: the
#: face letters r1..r4 and all eight letters.
FACE_LETTERS = (0, 2, 4, 6)
ALL_LETTERS = tuple(range(8))

#: Per letter subset: the length guard and the sphere count each level must hit.
_WALKS = {
    FACE_LETTERS: (MAX_FREE_LEN, free_sphere_count),
    ALL_LETTERS: (MAX_RACG_LEN, racg_sphere_count),
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


def _displacements(
    mats: Sequence[np.ndarray], parity: int, z0: complex, t0: float
) -> np.ndarray:
    n = mats[0].shape[0]
    out = np.empty(n, dtype=np.float64)
    for i in range(0, n, _CHUNK):
        s = slice(i, min(i + _CHUNK, n))
        w, t1 = act([m[s] for m in mats], parity, z0, t0)
        out[s] = distance(w, t1, z0, t0)
    return out


def _times(
    mats: Sequence[np.ndarray], rows: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rows of the matrices ``mats`` times the letter matrix g, on the right."""
    a, b, c, d = (m[rows] for m in mats)
    ga, gb, gc, gd = g
    return a * ga + b * gc, a * gb + b * gd, c * ga + d * gc, c * gb + d * gd


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


def ball_displacements(
    z0: complex, t0: float, max_len: int, letters: tuple[int, ...], kernel_only: bool
) -> np.ndarray:
    """Displacements d(x0, g x0) over a word-length ball of a letter subgroup.

    ``letters`` is FACE_LETTERS (the free product on r1..r4) or ALL_LETTERS
    (the full reflection group).  Returns one float per element of geodesic
    length <= max_len (the identity included), unsorted.  With kernel_only,
    elements are kept only when their image in the free product on the perp
    letters is trivial (the ball of the normal closure of the face letters,
    intersected with the word-length ball).
    """
    max_guard, sphere_count = _WALKS[letters]
    if max_len > max_guard:
        raise MemoryGuardError(
            f"orbit ball of radius {max_len} on letters {letters} exceeds "
            f"the memory guard ({max_guard})"
        )
    return np.concatenate(
        list(_sphere_displacements(z0, t0, max_len, letters, kernel_only, sphere_count))
    )


def _sphere_displacements(
    z0: complex, t0: float, max_len: int, letters: tuple[int, ...], kernel_only: bool,
    sphere_count: Callable[[int], int],
) -> Iterator[np.ndarray]:
    """Displacements of the walk, piece by piece, shortest words first.

    A generator, so that its spheres are freed before the caller joins the
    pieces.
    """
    keep_masks, set_masks = shortlex_automaton_masks()
    table, _ = isom_table([STANDARD_GENERATORS[name] for name in GENERATOR_NAMES])
    # perp letters are the odd positions of GENERATOR_NAMES; letter rkp pushes
    # or pops the symbol k on the reduced image word, packed 3 bits per symbol
    perp_symbol = [(g // 2 + 1) if GENERATOR_NAMES[g].endswith("p") else 0 for g in range(8)]
    yield np.zeros(1)
    mats = list(np.array([[1], [0], [0], [1]], dtype=np.complex128))
    state = np.zeros(1, dtype=np.uint16)
    pack = np.zeros(1, dtype=np.uint64)
    plen = np.zeros(1, dtype=np.int64)
    # missing[k]: words of length k + 1 that descend from pruned kernel prefixes
    missing = [0] * max_len
    for level in range(max_len):
        free = [(state >> np.uint16(2 * g)) & np.uint16(3) == 0 for g in letters]
        size = sum(int(np.count_nonzero(f)) for f in free)
        if size + missing[level] != sphere_count(level + 1):
            raise AssertionError(
                f"sphere {level + 1}: {size} + {missing[level]} pruned "
                f"!= {sphere_count(level + 1)}"
            )
        gmats = table if level % 2 == 0 else np.conj(table)
        parity = (level + 1) % 2
        if level == max_len - 1:
            # the last sphere is never stored: slices of it go straight to
            # displacements, and in the kernel only rows with a trivial image
            for g, f in zip(letters, free):
                sel = np.flatnonzero(f)
                for i in range(0, sel.size, _CHUNK):
                    rows = sel[i:i + _CHUNK]
                    if kernel_only:
                        _, rplen = _perp_step(pack[rows], plen[rows], perp_symbol[g])
                        rows = rows[rplen == 0]
                    yield _displacements(_times(mats, rows, gmats[:, g]), parity, z0, t0)
            return
        nmats = list(np.empty((4, size), dtype=np.complex128))
        nstate = np.empty(size, dtype=np.uint16)
        if kernel_only:
            npack = np.empty(size, dtype=np.uint64)
            nplen = np.empty(size, dtype=np.int64)
        off = 0
        for g, f in zip(letters, free):
            sel = np.flatnonzero(f)
            view = slice(off, off + sel.size)
            for m, product in zip(nmats, _times(mats, sel, gmats[:, g])):
                m[view] = product
            nstate[view] = (state[sel] & np.uint16(keep_masks[g])) | np.uint16(set_masks[g])
            if kernel_only:
                npack[view], nplen[view] = _perp_step(pack[sel], plen[sel], perp_symbol[g])
            off += sel.size
        mats, state = nmats, nstate
        if not kernel_only:
            yield _displacements(mats, parity, z0, t0)
            continue
        pack, plen = npack, nplen
        sel = np.flatnonzero(plen == 0)
        yield _displacements([m[sel] for m in mats], parity, z0, t0)
        # a prefix whose image is longer than the letters left never returns
        # to the trivial image; count its accepted continuations and drop it
        dead = plen > max_len - level - 1
        if dead.any():
            states, mult = np.unique(state[dead], return_counts=True)
            for k in range(level + 1, max_len):
                missing[k] += sum(
                    int(m) * _continuations(letters, int(s), k - level)
                    for s, m in zip(states, mult)
                )
            live = np.flatnonzero(~dead)
            mats = [m[live] for m in mats]
            state, pack, plen = state[live], pack[live], plen[live]
