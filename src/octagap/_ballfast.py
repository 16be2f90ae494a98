"""The vectorized isometry action and the orbit-ball walker of the geometry module.

``act`` maps arrays of points (z, t) of upper half space under arrays of
matrices with conjugation bits, and ``distance`` is the hyperbolic metric on
arrays; ``isom_table`` turns any list of ``ProjIsom`` into the arrays ``act``
takes.  Every use of the action formula outside the orbit walker goes
through these two functions; the walker needs displacements only, and takes
them from Gram vectors instead.

``ball_displacements`` walks the ShortLex normal-form automaton of
``words.shortlex_automaton_masks`` restricted to a subset of the letters,
carrying complex128 matrix entries in numpy arrays instead of materializing
word tuples, which is what makes orbit balls of tens of millions of elements
feasible.  The face letters r1..r4 pairwise do not commute, so restricted to
them the automaton accepts exactly the reduced words of their free product;
on all eight letters it accepts the normal forms of the reflection group.
Each level's size is checked against the group's growth series.

Displacements come from the parent level.  With h = [[sqrt t0, z0 / sqrt t0],
[0, 1 / sqrt t0]], which carries j = (0, 1) to x0 = (z0, t0), an element of
matrix M with |det M| = 1 moves x0 by cosh d = |h^-1 M h'|_F^2 / 2
(Elstrodt, Grunewald and Mennicke, *Groups Acting on Hyperbolic Space*,
ch. 1), where h' conjugates z0 if the element does.  So the cosh of every
child M G' is the inner product of the parent's Gram vector (``_gram``) with a
fixed weight vector per letter and parity (``_letter_weights``).  Each level
works in slices of ``_CHUNK`` parents: their Gram vectors times the weights
give the cosh of all their children at once, masked by the automaton's free
letters.  Child matrices are formed only for levels that get extended, so the
last sphere never forms one.  The stored levels keep exact Gaussian-integer
entries, which grow like 4^L, far inside double range for the guarded
lengths; Gram vectors are recomputed from them at every level rather than
carried along, which would accumulate rounding.

The kernel walk never forms a child whose perp image is longer than the
letters left, since such a prefix can never return to the trivial image, and
takes Gram vectors only of the parents whose image has at most one letter,
the only ones with a child of trivial image.  The growth check still covers
the dropped prefixes: their accepted continuations are counted over the
automaton states (``_continuations``) and added to the kept ones.

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

    The orbit walker does not call it: it needs displacements only, and
    takes them from Gram vectors (``_gram``, ``_letter_weights``).
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


def _gram(mats: Sequence[np.ndarray], z0: complex, t0: float) -> np.ndarray:
    """Gram vectors of Q = h^-1 M, one (n, 4) row per matrix M of ``mats``.

    h = [[sqrt t0, z0 / sqrt t0], [0, 1 / sqrt t0]] carries j = (0, 1) to
    x0 = (z0, t0).  A row is (|q11|^2 + |q21|^2, |q12|^2 + |q22|^2, Re c,
    Im c) with c = conj(q11) q12 + conj(q21) q22: the entries of Q* Q.
    """
    a, b, c, d = mats
    rt = np.sqrt(t0)
    q11 = z0 * c
    np.subtract(a, q11, out=q11)
    q12 = z0 * d
    np.subtract(b, q12, out=q12)
    # scale through the float views: numpy multiplies a complex array by a
    # real scalar as by a complex one, four products per entry
    q11.view(np.float64)[:] *= 1 / rt
    q12.view(np.float64)[:] *= 1 / rt
    q21 = c * rt
    q22 = d * rt
    out = np.empty((a.shape[0], 4))
    out[:, 0] = _norm2(q11) + _norm2(q21)
    out[:, 1] = _norm2(q12) + _norm2(q22)
    np.conj(q11, out=q11)
    q11 *= q12
    np.conj(q21, out=q21)
    q21 *= q22
    q11 += q21
    out[:, 2] = q11.real
    out[:, 3] = q11.imag
    return out


def _norm2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def _letter_weights(gmats: np.ndarray, z0: complex, t0: float) -> tuple[np.ndarray, np.ndarray]:
    """Per parent parity p, a (4, k) array W with cosh d(x0, M G' x0) = gram(M) @ W.

    ``gmats`` holds the (4, k) entries of the letters, of unit determinant
    modulus.  A parent of parity p appends the letter G' (G conjugated when
    p is odd) and its child conjugates iff p is even, so the child's
    displacement is cosh d = |h^-1 M G' h'|_F^2 / 2, with h' = h of conj(z0)
    when p is even.  That is <S, w> for S = gram(M) and, with
    R = (G' h')(G' h')*, w = (R11 / 2, R22 / 2, Re R12, Im R12).
    """
    rt = np.sqrt(t0)
    weights = []
    for p in (0, 1):
        ga, gb, gc, gd = np.conj(gmats) if p else gmats
        zq = np.conj(z0) if p == 0 else z0
        b11, b12 = ga * rt, (ga * zq + gb) / rt
        b21, b22 = gc * rt, (gc * zq + gd) / rt
        r12 = b11 * np.conj(b21) + b12 * np.conj(b22)
        weights.append(np.array([
            (_norm2(b11) + _norm2(b12)) / 2, (_norm2(b21) + _norm2(b22)) / 2, r12.real, r12.imag,
        ]))
    return weights[0], weights[1]


def _child_displacements(
    mats: Sequence[np.ndarray], hit: np.ndarray, weights: np.ndarray, z0: complex, t0: float,
    rows: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """Displacements of the children hit[i, k] of parent i by letter k, in slices of parents.

    The parents are the rows of ``mats``, or those listed in ``rows``.  The
    product runs in ``einsum``, not in BLAS: a threaded BLAS wakes its
    threads for every slice, which costs more than the product itself.
    """
    for i in range(0, hit.shape[0], _CHUNK):
        s = slice(i, i + _CHUNK)
        parents = [m[s] if rows is None else m[rows[s]] for m in mats]
        coshd = np.einsum("ij,jk->ik", _gram(parents, z0, t0), weights)[hit[s]]
        yield np.arccosh(np.maximum(coshd, 1.0, out=coshd), out=coshd)


def _times(
    mats: Sequence[np.ndarray], rows: np.ndarray, g: np.ndarray, out: Sequence[np.ndarray]
) -> None:
    """Write the rows of the matrices ``mats`` times the letter matrix g, on the right, to out.

    A row (x, y) of M becomes (x ga + y gc, x gb + y gd); the terms with a
    zero letter entry, half of them for these generators, are skipped.
    """
    ga, gb, gc, gd = g
    for x, y, ox, oy in ((mats[0], mats[1], out[0], out[1]), (mats[2], mats[3], out[2], out[3])):
        x, y = x[rows], y[rows]
        for o, gx, gy in ((ox, ga, gc), (oy, gb, gd)):
            if gx == 0:
                np.multiply(y, gy, out=o)
                continue
            np.multiply(x, gx, out=o)
            if gy != 0:
                o += y * gy


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
    weights = _letter_weights(table[:, list(letters)], z0, t0)
    # free_table[s, k]: whether the automaton state s lets letter k follow
    shifts = np.array([2 * g for g in letters], dtype=np.uint16)
    free_table = (np.arange(1 << 16, dtype=np.uint16)[:, None] >> shifts) & np.uint16(3) == 0
    # perp letters are the odd positions of GENERATOR_NAMES; letter rkp pushes
    # or pops the symbol k on the reduced image word, packed 3 bits per symbol
    perp_symbol = [(g // 2 + 1) if GENERATOR_NAMES[g].endswith("p") else 0 for g in range(8)]
    syms = np.array([perp_symbol[g] for g in letters], dtype=np.uint64)
    yield np.zeros(1)
    mats = list(np.array([[1], [0], [0], [1]], dtype=np.complex128))
    state = np.zeros(1, dtype=np.uint16)
    pack = np.zeros(1, dtype=np.uint64)
    plen = np.zeros(1, dtype=np.int64)
    # missing[k]: words of length k + 1 that descend from pruned kernel prefixes
    missing = [0] * max_len
    for level in range(max_len):
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
            yield from _child_displacements(mats, hit, weights[level % 2], z0, t0, near)
        else:
            yield from _child_displacements(mats, free, weights[level % 2], z0, t0)
        if level == max_len - 1:
            return
        gmats = table if level % 2 == 0 else np.conj(table)
        # the kernel walk fills only the first `off` rows: np.empty leaves
        # the rest of each row untouched
        nmats = list(np.empty((4, size), dtype=np.complex128))
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
            _times(mats, sel, gmats[:, g], [m[view] for m in nmats])
            nstate[view] = cstate
            off += sel.size
        mats, state = [m[:off] for m in nmats], nstate[:off]
        if not kernel_only:
            continue
        pack, plen = npack[:off], nplen[:off]
        # the growth check counts the accepted continuations of the dropped children
        states, mult = np.unique(np.concatenate(dead_states), return_counts=True)
        for k in range(level + 1, max_len):
            missing[k] += sum(
                int(m) * _continuations(letters, int(s), k - level) for s, m in zip(states, mult)
            )
