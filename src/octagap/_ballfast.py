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

``ball_counts`` is the only entry to the walk.  It checks the group's
length guard, decides whether to split the walk in two halves, walks, bins
the displacements into counts on the ``GRID_STEP`` grid and checks the
level tallies against the group's growth series (``_check_growth``).

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
at L = 9 (4.4M elements) peaks at 2.3 MB of numpy allocations under
``tracemalloc`` (numpy 2.4).  No slice holds more than 8 ``_CHUNK`` =
32,768 floats, and none is ever joined: ``_grid_counts`` bins each slice as
it arrives.  The sizes of the levels are summed across blocks and returned
once the walk is exhausted.

A walk allocates its large arrays once, as its workspace: the buffer the
readout writes a block's cosh values into, the buffer a letter's run
gathers its parents' columns into, and per level one block buffer, which
grows to the largest block the level forms; every block of the level,
partial or full, is formed in a leading view of it.  A block then
allocates nothing large but the slice it yields, which is new, so callers
may keep it; ``_grid_counts`` likewise bins every slice in two buffers
that grow the same way.
Arrays made and freed block after block sit near glibc's mmap and trim
thresholds, which returned them to the system and faulted them in again on
most blocks: the full ball at L = 10 took 33K minor faults walked a second
time in one process, and takes about 550 with the workspace.

A walk can be split in two halves whose subtrees are disjoint: at level
``_SPLIT_LEVEL`` each block deals its parents by column to the halves, and
both halves walk the levels above the split but leave them to half 0 to
yield and count.  ``ball_counts`` walks half 0 while a child made with
``os.fork`` walks half 1, and checks the growth of the summed tallies.
Forking a process with numpy loaded is safe here because the walk calls no
BLAS, whose thread pool does not survive a fork: its products run in
``einsum`` (see ``_child_displacements``) and the rest in ufuncs.  A
displacement depends on its parent's column alone, so the halves give the
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
letters left, since such a prefix can never return to the trivial image.
The pruning comes before the product: only the children left are formed.
Its readout runs on the whole block like the other walks', with only the
children of trivial image hit.  The growth check still covers
the dropped prefixes: their automaton states are counted per level, and
their accepted continuations (``_continuations``) are added to the kept
words.

All generators carry the conjugation bit, so an element of word length L
conjugates iff L is odd; appending a letter to an odd-length element must
right-multiply by the entrywise conjugate of the letter's matrix.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Generator, Iterable, Sequence

import numpy as np

from .errors import DomainError, MemoryGuardError
from .group import GENERATOR_NAMES, STANDARD_GENERATORS, ProjIsom
from .words import (
    free_sphere_count,
    racg_sphere_count,
    shortlex_automaton_masks,
)

#: Parents per block of the walk.  A block has at most 8 _CHUNK children, so
#: none of its arrays outgrows a few MB and every slice fits in cache.
_CHUNK = 1 << 12

#: Level whose blocks deal their parents to the two halves of a split walk.
#: Its sphere holds 36 free and 224 full words, enough for the halves'
#: subtrees to come out about even, and the levels both halves walk stay tiny.
_SPLIT_LEVEL = 3

#: Spacing of the grid on which an orbit ball counts its points: a power of
#: two, so that d / GRID_STEP and k * GRID_STEP are exact floats.
GRID_STEP = 1 / 16

MAX_FREE_LEN = 15
MAX_RACG_LEN = 10

#: Per orbit group: its letters, as positions in GENERATOR_NAMES (the face
#: letters r1..r4, or all eight); whether only the kernel of the perp
#: retraction is kept; the length guard; the shortest word length whose ball
#: is walked in two halves; and the sphere count each level must hit.
#:
#: The split lengths were measured on 2 CPUs at 4,096-parent blocks, each
#: ball walked once in a fresh process after a warm-up ball, 9 alternating
#: serial / split runs, medians: free L = 11 (354K elements) 7.0 ms serial
#: against 7.6 ms split, L = 12 (1.06M) 17.7 against 14.1 ms; full L = 7
#: (176K) 4.4 against 5.8 ms, L = 8 (879K) 14.6 against 11.8 ms.  The kernel
#: walk forms only the prefixes that can still return to the kernel, so its
#: ball costs less than the full ball of the same length: L = 8 7.0 against
#: 7.9 ms, L = 9 20.1 against 15.0 ms.  A second process ran at full speed
#: on the second CPU before and after these runs; while it ran at half
#: speed, as it does on a shared host for minutes at a time, the split lost
#: at every length up to free L = 14 and full and kernel L = 10.
_WALKS = {
    "free": ((0, 2, 4, 6), False, MAX_FREE_LEN, 12, free_sphere_count),
    "full": (tuple(range(8)), False, MAX_RACG_LEN, 8, racg_sphere_count),
    "kernel": (tuple(range(8)), True, MAX_RACG_LEN, 9, racg_sphere_count),
}


def isom_table(isoms: Sequence[ProjIsom]) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of the isometries for ``act``: entries and conjugation bits.

    The entries come as a (4, n) complex array with rows a, b, c, d; every
    ``ProjIsom`` has unit determinant, so the action needs no determinant
    factor.  The bits are an (n,) bool array.
    """
    mats = np.empty((4, len(isoms)), dtype=np.complex128)
    for k, g in enumerate(isoms):
        mats[:, k] = [complex(e.re, e.im) for e in g.entries()]
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
    Im z / t0), with z = z0 for s = 0 and conj(z0) for s = 1.  Nothing here
    raises on a base point too far out: its entries overflow to inf, and
    ``_grid_counts`` refuses the displacements that follow.
    """
    r2 = (z0.real * z0.real + z0.imag * z0.imag) / t0
    start = np.array([1 / t0, r2 + t0, -z0.real / t0, -z0.imag / t0])
    readout = np.array(
        [[(t0 + r2) / 2, 0.5 / t0, z.real / t0, z.imag / t0] for z in (z0, z0.conjugate())]
    )
    return start, readout


def _child_displacements(
    grams: np.ndarray, hit: np.ndarray, weights: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Displacements of the children hit[k, i], by letter k, of the parents
    with Gram vectors grams[:, i], in a new array.

    The cosh values of all children go into ``out``, a C-contiguous array of
    hit's shape.  The product runs in ``einsum``, not in BLAS: a threaded
    BLAS wakes its threads for every block, which costs more than the
    product itself, and this way the values repeat at any thread count.
    """
    coshd = np.compress(hit.ravel(), np.einsum("ji,jk->ki", grams, weights, out=out))
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


def _perp_step(pack: np.ndarray, sym: int) -> None:
    """Append the perp symbol sym (1 to 4) to packed perp-image words, in place.

    A word whose last symbol is sym pops it, any other pushes sym.
    """
    pop = pack & 7 == sym
    np.right_shift(pack, 3, out=pack, where=pop)
    push = np.logical_not(pop, out=pop)
    np.left_shift(pack, 3, out=pack, where=push)
    np.bitwise_or(pack, sym, out=pack, where=push)


@dataclass(slots=True)
class _Frame:
    """A block of parents on the walk's stack, and how far its children are formed.

    ``live[k, i]`` marks the child of parent i by letter k that gets formed.
    The live children are formed letter major: ``starts[k]`` is where letter
    k's run starts among them, ``starts[-1]`` is how many there are, and
    ``cursor`` is the first not yet formed.  ``pack`` is None but for the
    kernel walk, where it holds the packed perp images.
    """

    level: int
    grams: np.ndarray
    state: np.ndarray
    pack: np.ndarray | None
    live: np.ndarray
    starts: list[int]
    cursor: int = 0


@lru_cache(maxsize=None)
def _automaton_states(letters: tuple[int, ...]) -> tuple[tuple[int, ...], np.ndarray]:
    """The automaton states reachable on the letters, ascending, and the table
    of their positions in that tuple, indexed by state."""
    keep_masks, set_masks = shortlex_automaton_masks()
    states, todo = {0}, [0]
    while todo:
        state = todo.pop()
        for g in letters:
            child = (state & keep_masks[g]) | set_masks[g]
            if not (state >> (2 * g)) & 3 and child not in states:
                states.add(child)
                todo.append(child)
    states = tuple(sorted(states))
    index = np.zeros(states[-1] + 1, dtype=np.uint16)
    index[list(states)] = range(len(states))
    index.setflags(write=False)
    return states, index


def _check_growth(group: str, max_len: int, sizes: list[int], dead: np.ndarray) -> None:
    """Raise AssertionError unless a walk's level tallies hit the group's growth series.

    ``sizes[n]`` counts the words of length n walked and ``dead[n, s]`` the
    pruned kernel prefixes of length n in the s-th automaton state of
    ``_automaton_states``; each sphere's walked words plus the accepted
    continuations of the pruned prefixes must make its sphere count.
    """
    letters, *_, sphere_count = _WALKS[group]
    states = _automaton_states(letters)[0]
    for n in range(1, max_len + 1):
        missing = sum(
            m * _continuations(letters, s, n - j)
            for j in range(1, n)
            for s, m in zip(states, dead[j].tolist())
            if m
        )
        if sizes[n] + missing != sphere_count(n):
            raise AssertionError(f"sphere {n}: {sizes[n]} + {missing} pruned != {sphere_count(n)}")


def _sphere_displacements(
    z0: complex, t0: float, max_len: int, group: str, half: int | None = None
) -> Generator[np.ndarray, None, tuple[list[int], np.ndarray]]:
    """Displacements d(x0, g x0) over a word-length ball of an orbit group, in slices.

    ``group`` is a key of ``_WALKS``: "free" (the free product on r1..r4),
    "full" (the whole reflection group) or "kernel" (the elements with
    trivial image in the free product on the perp letters: the ball of the
    normal closure of the face letters, intersected with the word-length
    ball).  Yields one float per element of geodesic length <= max_len,
    the identity's 0 first and then the rest in depth-first order over
    blocks of at most ``_CHUNK`` parents, one slice of at most
    8 ``_CHUNK`` floats per block.  Returns the level tallies
    ``_check_growth`` reads; the caller checks them.

    ``half`` = 0 or 1 walks that half of the ball: at level
    ``_SPLIT_LEVEL``, each block deals its even columns to half 0 and its
    odd columns to half 1, and each half walks the subtrees of its own.
    Both halves walk the levels up to the split, but only half 0 yields and
    counts them, so the two halves yield every displacement once and their
    tallies sum to the whole walk's.  The default None is the whole walk.
    """
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
    # with its last symbol lowest.  Symbols are not 0, so an image has at
    # most n symbols iff its pack is below 8**n.  A formed child of length j
    # has at most j symbols and at most the max_len - j letters left, so
    # 64 bits hold the image of any walk within the guard.
    perp = [(g // 2 + 1) if GENERATOR_NAMES[g].endswith("p") else 0 for g in letters]
    syms = np.array(perp, dtype=np.uint64)[:, None]
    # sizes[n]: words of length n walked; dead[n, s]: the pruned kernel
    # prefixes of length n in the automaton state of position s
    states, state_index = _automaton_states(letters)
    sizes = [0] * (max_len + 1)
    dead = np.zeros((max_len + 1, len(states)), dtype=np.int64)
    stack: list[_Frame] = []
    # The walk's workspace, made once: the cosh values of a block's children,
    # the parents' columns of a letter's run, and per level the arrays its
    # blocks are formed in, which grow to the largest block the level forms.
    # A block makes nothing large but the slice it yields, so a caller may
    # keep the slices.
    cosh = np.empty(len(letters) * _CHUNK)
    columns = np.empty(4 * _CHUNK)
    blocks: list[tuple | None] = [None] * (max_len + 1)

    # Columns are gathered with np.take, not with fancy indexing, which
    # copies them about four times slower.
    def enter(level, grams, state, pack):
        """Yields the slice of the block's children unless they are the other
        half's; pushes the block's frame if they are extended."""
        if level == _SPLIT_LEVEL and half is not None:
            # the half's share of the block: every other parent from the half-th
            cols = np.arange(half, state.size, 2)
            grams, state = np.take(grams, cols, axis=1), np.take(state, cols)
            if kernel_only:
                pack = np.take(pack, cols)
        # the children up to the split level are half 0's to count and yield
        mine = half != 1 or level >= _SPLIT_LEVEL
        # the children in letter-major order: free[k, i] is child k of parent i
        free = (state >> shifts) & np.uint16(3) == 0
        if level + 1 < max_len:
            live = free
            if kernel_only:
                # a child whose image is longer than the letters left never
                # returns to the trivial image: it is counted, not formed.  A
                # face letter keeps its parent's image, and a perp letter pushes
                # a symbol, or pops it if the image ends in it: the parent's
                # image was short enough for one more letter than are left.
                left = max_len - level - 1
                limit = np.array([[8 ** (left - (sym != 0))] for sym in perp], dtype=np.uint64)
                live = free & ((pack < limit) | (pack & 7 == syms))
                if mine:
                    pruned = np.take(state_index, ((state & keep) | put)[free & ~live])
                    dead[level + 1] += np.bincount(pruned, minlength=len(states))
            starts = [0, *np.cumsum(np.count_nonzero(live, axis=1)).tolist()]
            stack.append(_Frame(level, grams, state, pack, live, starts))
        if not mine:
            return
        sizes[level + 1] += int(np.count_nonzero(free))
        # a kernel child has a trivial image iff a face letter (symbol 0)
        # extends an empty image (pack 0) or a perp letter pops the one symbol
        # of its parent's image: in both cases the pack equals the symbol
        hit = free & (pack == syms) if kernel_only else free
        out = cosh[: hit.size].reshape(hit.shape)
        yield _child_displacements(grams, hit, weights[level % 2], out)

    def form(frame):
        """The frame's next block, its next _CHUNK live children or the rest,
        formed in leading views of its level's buffers."""
        cursor, starts = frame.cursor, frame.starts
        stop = min(cursor + _CHUNK, starts[-1])
        level, size = frame.level + 1, stop - cursor
        buffers = blocks[level]
        if buffers is None or buffers[1].size < size:
            pack = np.empty(size, dtype=np.uint64) if kernel_only else None
            buffers = blocks[level] = np.empty((4, size)), np.empty(size, dtype=np.uint16), pack
        grams, state, pack = (b if b is None else b[..., :size] for b in buffers)
        # one letter's run at a time, and only the children of this block
        for k, lmap in enumerate(maps[frame.level % 2]):
            lo, hi = max(cursor, starts[k]), min(stop, starts[k + 1])
            if lo >= hi:
                continue
            parents = np.flatnonzero(frame.live[k])[lo - starts[k] : hi - starts[k]]
            out = slice(lo - cursor, hi - cursor)
            # take writes straight into a C-contiguous out unless mode="raise"
            taken = columns[: 4 * parents.size].reshape(4, parents.size)
            np.take(frame.grams, parents, axis=1, out=taken, mode="clip")
            np.einsum("ji,jr->ri", taken, lmap, out=grams[:, out])
            child = np.take(frame.state, parents, out=state[out], mode="clip")
            child &= keep[k]
            child |= put[k]
            if kernel_only:
                image = np.take(frame.pack, parents, out=pack[out], mode="clip")
                if perp[k]:
                    _perp_step(image, perp[k])
        frame.cursor = stop
        return level, grams, state, pack

    if half != 1:
        yield np.zeros(1)
    if max_len == 0:
        return sizes, dead
    pack = np.zeros(1, dtype=np.uint64) if kernel_only else None
    yield from enter(0, start[:, None], np.zeros(1, dtype=np.uint16), pack)
    while stack:
        if stack[-1].cursor == stack[-1].starts[-1]:
            stack.pop()
        else:
            yield from enter(*form(stack[-1]))
    return sizes, dead


def _grid_counts(slices: Iterable[np.ndarray]) -> tuple[np.ndarray, float]:
    """N(k GRID_STEP) for k = 0, 1, ..., j(r), and r, the largest displacement.

    Each displacement d goes into bin j(d) = ceil(d / GRID_STEP), the least
    k with k GRID_STEP >= d.  GRID_STEP is a power of two, so d / GRID_STEP
    and k * GRID_STEP, the floats the exponent fit reads at, are exact, and
    the cumulated bins equal searchsorted(sorted displacements,
    k * GRID_STEP, "right") exactly.  Each slice is binned whole, in two
    buffers that grow to the largest slice and serve every slice: the
    walker's hold at most 8 ``_CHUNK`` = 32,768 floats, so they stay in
    cache.

    Raises DomainError on a displacement that is not finite, which a base
    point too far out for floating point gives; the running maximum finds
    it before the slice is cast to bin indices.
    """
    bins = np.zeros(1, dtype=np.int64)
    radius = 0.0
    scaled, index = np.empty(0), np.empty(0, dtype=np.intp)
    for d in slices:
        radius = float(d.max(initial=radius))
        if not math.isfinite(radius):
            raise DomainError("orbit displacements overflow: the base point lies too far out")
        if d.size > index.size:
            scaled, index = np.empty(d.size), np.empty(d.size, dtype=np.intp)
        j = np.multiply(d, 1 / GRID_STEP, out=scaled[: d.size])
        counts = np.bincount(np.ceil(j, out=index[: d.size], casting="unsafe"))
        if counts.size > bins.size:
            bins, counts = counts, bins
        bins[: counts.size] += counts
    return np.cumsum(bins), radius


def _part_count() -> int:
    """The parts a walk may be split into: two if this process may run on
    two CPUs or more, else one."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(cpus, 2)


def _walk_part(group: str, z0: complex, t0: float, max_len: int, half: int | None) -> tuple:
    """Grid counts, radius, level sizes and pruned states of the walk or of one half."""
    tallies = []

    def slices():
        tallies.append((yield from _sphere_displacements(z0, t0, max_len, group, half)))

    return (*_grid_counts(slices()), *tallies[0])


def _split_walk(group: str, z0: complex, t0: float, max_len: int) -> list[tuple]:
    """The ``_walk_part`` of both halves: half 0 here, half 1 in a forked child.

    The child pickles its ``_walk_part``, or the exception that stopped it,
    down a pipe, and leaves only by ``os._exit``, so that no atexit handler
    or inherited stdio buffer runs twice.  The child is reaped before this
    returns or raises, killed first if the parent's half raised; its
    exception is raised again here, and a child that died without a reply
    raises ChildProcessError.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                try:
                    reply = (_walk_part(group, z0, t0, max_len, 1), None)
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
    try:
        try:
            mine = _walk_part(group, z0, t0, max_len, 0)
            with open(read, "rb", closefd=False) as pipe:
                reply = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
    finally:
        os.close(read)
        status = os.waitpid(pid, 0)[1]
    if status:
        code = os.waitstatus_to_exitcode(status)
        raise ChildProcessError(f"orbit walk half in process {pid} ended with status {code}")
    theirs, error = pickle.loads(reply)
    if error is not None:
        raise error
    return [mine, theirs]


def ball_counts(group: str, z0: complex, t0: float, max_len: int) -> tuple[np.ndarray, float]:
    """Grid counts and largest displacement of the word-length ball of an orbit
    group at x0 = (z0, t0), as ``geometry.OrbitBall`` holds them.

    ``group`` is a key of ``_WALKS``.  A length past the group's guard
    raises MemoryGuardError before anything is walked or forked.  The walk
    is split in two halves, half 1 walked in a forked child
    (``_split_walk``), when this process may run on two CPUs, can fork, has
    no other Python thread alive and the length reaches the group's split
    length in ``_WALKS``; below it a fork costs more than a second CPU
    saves.  Otherwise the whole walk runs here.  Either way the counts
    equal the whole walk's bit for bit, and the growth check runs once, on
    the tallies summed over the halves.
    """
    guard, split_from = _WALKS[group][2:4]
    if max_len > guard:
        raise MemoryGuardError(
            f"{group} orbit ball of word length {max_len} exceeds the memory guard ({guard})"
        )
    split = _part_count() == 2 and hasattr(os, "fork") and threading.active_count() == 1
    if split and max_len >= split_from:
        parts = _split_walk(group, z0, t0, max_len)
    else:
        parts = [_walk_part(group, z0, t0, max_len, None)]
    bins, radii, sizes, dead = zip(*parts)
    size = max(b.size for b in bins)
    # cumulated counts: past its own radius a half counts all of its points
    grid_counts = sum(np.pad(b, (0, size - b.size), mode="edge") for b in bins)
    _check_growth(group, max_len, [sum(n) for n in zip(*sizes)], sum(dead))
    return grid_counts, max(radii)
