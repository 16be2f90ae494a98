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
millions of elements feasible.  The face letters r1..r4 pairwise do not
commute, so restricted to them the automaton accepts exactly the reduced
words of their free product; on all eight letters it accepts the normal
forms of the reflection group.

The walk is depth first over blocks of at most ``_CHUNK`` parents, in one
loop over an explicit stack with one frame (``_Frame``) per level, so its
depth is bounded by the length guard, not by Python's recursion limit.
Normal forms are prefix closed, so a block's children are read out as one
slice, and the block is pushed as a frame that forms its live children on
demand, ``_CHUNK`` at a time: each child block is read out and walked to the
end before the frame forms the next.  A frame holds its block, the block's
(letters, n) mask of live children and a cursor into them, and the child
block it is walking is the next frame's.  So memory is bounded by one block
per level times the depth, not by the widest sphere: building the full ball
at L = 9 (4.4M elements) peaks at 3.7 MB of numpy allocations under
``tracemalloc`` (numpy 2.4).  A walk whose blocks
formed all of their children, up to 8 ``_CHUNK``, before walking the first
peaked at 7.4 MB, and one that held a whole level at a time at 41.8 MB.
No slice holds more than 8 ``_CHUNK`` = 65,536 floats, and none is ever
joined: ``geometry.orbit_ball`` bins each slice into counts on a fixed grid
as it arrives.  The sizes of the levels are summed across blocks and
checked against the group's growth series once the walk is exhausted
(``_check_growth``).

A walk can be split into parts whose subtrees are disjoint: at level
``_SPLIT_LEVEL`` each block deals its parents by column to the parts, and
every part walks the levels above the split but leaves them to part 0 to
yield and count.  ``geometry.orbit_ball`` walks the parts at once, all but
one in children made with ``os.fork``, and checks the growth of the summed
tallies.  Forking a process with numpy loaded is safe here because the walk
calls no BLAS, whose thread pool does not survive a fork: its products run
in ``einsum`` (see ``_child_displacements``) and the rest in ufuncs.  A
displacement depends on its parent's column alone, so the parts give the
whole walk's values bit for bit.

Each element M, of unit determinant modulus, is carried as its Gram vector
v = (S11, S22, Re S12, Im S12) of S = Q* Q, Q = h^-1 M, where
h = [[sqrt t0, z0 / sqrt t0], [0, 1 / sqrt t0]] carries j = (0, 1) to
x0 = (z0, t0).  Appending a letter G' maps S to G'* S G', which is
real-linear, so a child's vector is its parent's times a fixed real 4x4 map
per letter and parent parity (``_letter_maps``).  The element moves x0 by
cosh d = |h^-1 M h'|_F^2 / 2 (Elstrodt, Grunewald and Mennicke, *Groups
Acting on Hyperbolic Space*, ch. 1), where h' conjugates z0 if the element
does: v dotted with one readout vector per conjugation bit (``_frame``).

A block is column major, a (4, n) array with one column per element, so
both of its products run along the n elements, not along the four entries
of a vector.  The weights (each letter's map times its children's readout)
times the block give the (letters, n) cosh of all its children at once,
masked by the automaton's free letters.  Each letter's map times the
columns of the parents it extends gives those children's vectors, one
letter after another, so the children come letter major within a block:
all children by the first letter, then all by the second, and so on.
Every sum runs over the four entries in one order, so a displacement has
the same bits wherever its parent sits in its block, at any ``_CHUNK``.
Child vectors are formed only for the live children of blocks that get
extended, so the last sphere never forms one.  The vectors carry their
rounding from level to level: at both of the tests' base points (the
default one and (0.35 + 0.38i, 0.95)), the displacements stay within
1.6e-14 of ``act`` and ``distance`` on each word's exact Gaussian-integer
product at free L = 8 and full and kernel L = 6, and the tests bound the
error by 1e-13 at free 6, full 4 and kernel 5.

The kernel walk never forms a child whose perp image is longer than the
letters left, since such a prefix can never return to the trivial image, and
reads out only the parents whose image has at most one letter, the only
ones with a child of trivial image.  The pruning comes before the product:
only the children left are formed.  The growth check still covers
the dropped prefixes: their automaton states are counted per level, and
their accepted continuations (``_continuations``) are added to the kept
words.

All generators carry the conjugation bit, so an element of word length L
conjugates iff L is odd; appending a letter to an odd-length element must
right-multiply by the entrywise conjugate of the letter's matrix.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Generator, Sequence

import numpy as np

from .errors import MemoryGuardError
from .group import GENERATOR_NAMES, STANDARD_GENERATORS, ProjIsom
from .words import (
    free_sphere_count,
    racg_sphere_count,
    shortlex_automaton_masks,
)

#: Parents per block of the walk.  A block has at most 8 _CHUNK children, so
#: none of its arrays outgrows a few MB and every slice fits in cache.
_CHUNK = 1 << 13

#: Level whose blocks deal their parents to the parts of a split walk.  Its
#: sphere holds 36 free and 224 full words, enough for the parts' subtrees to
#: come out about even, and the levels every part walks stay tiny.
_SPLIT_LEVEL = 3

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
    """The (2, 8, 4, 4) maps of the Gram vectors: v(M G') = v(M) @ maps[p, g].

    G' is the matrix of the letter GENERATOR_NAMES[g], conjugated when the
    parent's parity p is odd.  Row j of a map is the Gram vector of G'* B_j G'
    for the Hermitian basis matrix B_j whose own Gram vector is the j-th unit
    vector.
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
    """The identity's Gram vector and the (2, 4) readout vectors at x0 = (z0, t0).

    cosh d(x0, M x0) = v(M) @ readout[s] for an element whose conjugation
    bit is s: readout[s] = ((t0 + |z0|^2 / t0) / 2, 1 / (2 t0), Re z / t0,
    Im z / t0), with z = z0 for s = 0 and conj(z0) for s = 1.
    """
    r2 = abs(z0) ** 2 / t0
    start = np.array([1 / t0, r2 + t0, -z0.real / t0, -z0.imag / t0])
    readout = np.array(
        [[(t0 + r2) / 2, 0.5 / t0, z.real / t0, z.imag / t0] for z in (z0, z0.conjugate())]
    )
    return start, readout


def _child_displacements(grams: np.ndarray, hit: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Displacements of the children hit[k, i], by letter k, of the parents
    with Gram vectors grams[:, i].

    The product runs in ``einsum``, not in BLAS: a threaded BLAS wakes its
    threads for every block, which costs more than the product itself, and
    this way the values repeat at any thread count.
    """
    coshd = np.compress(hit.ravel(), np.einsum("ji,jk->ki", grams, weights))
    return np.arccosh(np.maximum(coshd, 1.0, out=coshd), out=coshd)


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


def _perp_pops(
    pack: np.ndarray, plen: np.ndarray, sym: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Whether appending sym pops the top symbol of packed perp-image words,
    and the bit offset of that symbol; sym 0 never pops.  Broadcasts as
    ``_perp_step`` does."""
    top_shift = (3 * np.maximum(plen - 1, 0)).astype(np.uint64)
    return (plen > 0) & ((pack >> top_shift) & np.uint64(7) == sym), top_shift


def _perp_step(
    pack: np.ndarray, plen: np.ndarray, sym: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Append letters to packed perp-image words: push or pop sym (0 keeps the word).

    The arguments broadcast: an (n,) row of words against a (k, 1) column of
    symbols gives the (k, n) images of every word's children.
    """
    pop, top_shift = _perp_pops(pack, plen, sym)
    pushed = pack | (sym << (3 * plen).astype(np.uint64))
    popped = pack & ~(np.uint64(7) << top_shift)
    return np.where(pop, popped, pushed), np.where(pop, plen - 1, plen + (sym != 0))


@dataclass(slots=True)
class _Frame:
    """A block of parents on the walk's stack, and how far its children are formed.

    ``live[k, i]`` marks the child of parent i by letter k that gets formed.
    The live children are formed letter major: ``starts[k]`` is where letter
    k's run starts among them, ``starts[-1]`` is how many there are, and
    ``cursor`` is the first not yet formed.  ``image`` is empty but for the
    kernel walk, where it holds the packed perp images and their lengths.
    """

    level: int
    grams: np.ndarray
    state: np.ndarray
    image: tuple[np.ndarray, ...]
    live: np.ndarray
    starts: list[int]
    cursor: int = 0


def _check_guard(group: str, max_len: int) -> None:
    """Raise MemoryGuardError if max_len passes the length guard of the group's walk."""
    max_guard = _WALKS[group][2]
    if max_len > max_guard:
        raise MemoryGuardError(
            f"{group} orbit ball of radius {max_len} exceeds the memory guard ({max_guard})"
        )


def _check_growth(group: str, max_len: int, sizes: list[int], dead: list[Counter]) -> None:
    """Raise AssertionError unless a walk's level tallies hit the group's growth series.

    ``sizes[n]`` counts the words of length n walked and ``dead[n]`` the
    automaton states of the pruned kernel prefixes of length n, with their
    multiplicities; each sphere's walked words plus the accepted
    continuations of the pruned prefixes must make its sphere count.
    """
    letters, _, _, sphere_count = _WALKS[group]
    for n in range(1, max_len + 1):
        missing = sum(
            m * _continuations(letters, s, n - j) for j in range(1, n) for s, m in dead[j].items()
        )
        if sizes[n] + missing != sphere_count(n):
            raise AssertionError(f"sphere {n}: {sizes[n]} + {missing} pruned != {sphere_count(n)}")


def _sphere_displacements(
    z0: complex, t0: float, max_len: int, group: str, part: tuple[int, int] = (0, 1)
) -> Generator[np.ndarray, None, tuple[list[int], list[Counter]]]:
    """Displacements d(x0, g x0) over a word-length ball of an orbit group, in slices.

    ``group`` is a key of ``_WALKS``: "free" (the free product on r1..r4),
    "full" (the whole reflection group) or "kernel" (the elements with
    trivial image in the free product on the perp letters: the ball of the
    normal closure of the face letters, intersected with the word-length
    ball).  Yields one float per element of geodesic length <= max_len,
    the identity's 0 first and then the rest in depth-first order over
    blocks of at most ``_CHUNK`` parents, one slice of at most
    8 ``_CHUNK`` floats per block.  The length guard raises
    MemoryGuardError at the first slice asked for, before the walk
    allocates anything.  Returns the level tallies ``_check_growth`` reads.

    ``part`` = (p, P) walks the p-th of P parts of the ball: at level
    ``_SPLIT_LEVEL``, each block deals its parents to the parts by column,
    i mod P == p, and each part walks the subtrees of its own.  Every part
    walks the levels up to the split, but only part 0 yields and counts
    them, so the P parts yield every displacement once and their tallies
    sum to the whole walk's.  The default (0, 1) is the whole walk, which
    runs the growth check itself once it is exhausted, raising
    AssertionError; the caller of a split walk checks the summed tallies.
    """
    _check_guard(group, max_len)
    part_no, parts = part
    letters, kernel_only = _WALKS[group][:2]
    # the per-letter constants are (letters, 1) columns, which broadcast
    # against the (n,) rows of a block's states and perp images
    keep_masks, set_masks = shortlex_automaton_masks()
    keep = np.array([[keep_masks[g]] for g in letters], dtype=np.uint16)
    put = np.array([[set_masks[g]] for g in letters], dtype=np.uint16)
    maps = _letter_maps()[:, list(letters)]
    start, readout = _frame(z0, t0)
    # a parent of parity p has children of parity 1 - p.  C order keeps the
    # readout's inner loop off the four terms of a sum even for a single
    # parent: einsum would add them pairwise there, and a lone column would
    # round unlike the same column inside a block.
    weights = [np.einsum("kij,j->ik", maps[p], readout[1 - p], order="C") for p in (0, 1)]
    # letter k may follow the automaton state s iff (s >> shifts[k]) & 3 == 0
    shifts = np.array([[2 * g] for g in letters], dtype=np.uint16)
    # perp letters are the odd positions of GENERATOR_NAMES; letter rkp pushes
    # or pops the symbol k on the reduced image word, packed 3 bits per symbol
    perp_symbol = [(g // 2 + 1) if GENERATOR_NAMES[g].endswith("p") else 0 for g in range(8)]
    syms = np.array([[perp_symbol[g]] for g in letters], dtype=np.uint64)
    # sizes[n]: words of length n walked; dead[n]: the automaton states of the
    # pruned kernel prefixes of length n, with their multiplicities
    sizes = [0] * (max_len + 1)
    dead = [Counter() for _ in range(max_len + 1)]
    stack: list[_Frame] = []

    # Columns are gathered with np.take, not with fancy indexing, which
    # copies them about four times slower.
    def enter(level, grams, state, image):
        """Yields the slice of the block's children unless they are another
        part's; pushes the block's frame if they are extended."""
        if level == _SPLIT_LEVEL:
            # the part's share of the block: every P-th parent from the p-th
            cols = np.arange(part_no, state.size, parts)
            grams, state = np.take(grams, cols, axis=1), np.take(state, cols)
            image = tuple(np.take(a, cols) for a in image)
        # the children up to the split level are part 0's to count and yield
        mine = part_no == 0 or level >= _SPLIT_LEVEL
        # the children in letter-major order: free[k, i] is child k of parent i
        free = (state >> shifts) & np.uint16(3) == 0
        if kernel_only:
            pack, plen = image
        if level + 1 < max_len:
            live = free
            if kernel_only:
                # a child whose image is longer than the letters left never
                # returns to the trivial image: it is counted, not formed.  Its
                # image is one symbol shorter than its parent's if its letter
                # pops, one longer if it pushes and as long for a face letter.
                left = max_len - level - 1
                pop = _perp_pops(pack, plen, syms)[0]
                live = free & np.where(pop, plen <= left + 1, plen <= left - (syms != 0))
                if mine:
                    pruned = ((state & keep) | put)[free & ~live]
                    states, mult = np.unique(pruned, return_counts=True)
                    dead[level + 1].update(dict(zip(states.tolist(), mult.tolist())))
            starts = [0, *np.cumsum(np.count_nonzero(live, axis=1)).tolist()]
            stack.append(_Frame(level, grams, state, image, live, starts))
        if not mine:
            return
        sizes[level + 1] += int(np.count_nonzero(free))
        if kernel_only:
            # a child has a trivial image iff a face letter (symbol 0) extends
            # an empty image (pack 0) or a perp letter pops the one symbol of
            # its parent's image: in both cases the pack equals the symbol
            near = np.flatnonzero(plen <= 1)
            hit = np.take(free, near, axis=1) & (np.take(pack, near) == syms)
            yield _child_displacements(np.take(grams, near, axis=1), hit, weights[level % 2])
        else:
            yield _child_displacements(grams, free, weights[level % 2])

    def form(frame):
        """The frame's next block: its next _CHUNK live children, or the rest."""
        cursor, starts = frame.cursor, frame.starts
        stop = min(cursor + _CHUNK, starts[-1])
        grams = np.empty((4, stop - cursor))
        state = np.empty(stop - cursor, dtype=np.uint16)
        image = tuple(np.empty(stop - cursor, dtype=a.dtype) for a in frame.image)
        # one letter's run at a time, and only the children of this block
        for k, lmap in enumerate(maps[frame.level % 2]):
            lo, hi = max(cursor, starts[k]), min(stop, starts[k + 1])
            if lo >= hi:
                continue
            parents = np.flatnonzero(frame.live[k])[lo - starts[k] : hi - starts[k]]
            out = slice(lo - cursor, hi - cursor)
            np.einsum("ji,jr->ri", np.take(frame.grams, parents, axis=1), lmap, out=grams[:, out])
            state[out] = (np.take(frame.state, parents) & keep[k]) | put[k]
            if kernel_only:
                pack, plen = _perp_step(*(np.take(a, parents) for a in frame.image), syms[k])
                image[0][out], image[1][out] = pack, plen
        frame.cursor = stop
        return frame.level + 1, grams, state, image

    if part_no == 0:
        yield np.zeros(1)
    image = (np.zeros(1, dtype=np.uint64), np.zeros(1, dtype=np.int64)) if kernel_only else ()
    yield from enter(0, start[:, None], np.zeros(1, dtype=np.uint16), image)
    while stack:
        if stack[-1].cursor == stack[-1].starts[-1]:
            stack.pop()
        else:
            yield from enter(*form(stack[-1]))
    if parts == 1:
        _check_growth(group, max_len, sizes, dead)
    return sizes, dead
