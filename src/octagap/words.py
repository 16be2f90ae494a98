"""Words in the eight face reflections: normal forms, images and enumeration.

A word is a tuple of generator names ("r1", "r2p", ...).  The group is the
right-angled Coxeter group on the cube commutation graph, so every element has
a unique ShortLex-least geodesic representative with respect to the fixed
letter order of ``GENERATOR_NAMES``: the normal form.

Two independent routes to the normal-form language are implemented.  The
``normal_form`` function rewrites one word by cancellation and commuting
insertion; ``enumerate_racg_ball`` generates the whole language directly with
a finite-state automaton whose state packs, per letter h, whether appending h
would cancel and whether a greater letter sits in h's commuting suffix.  Tests
cross-check the two against exact matrix arithmetic.

The subgroup generated by the four face letters r1..r4 alone is a free product
of four order-two groups; its abstract copy on letters t1..t4 is what
``enumerate_free_ball`` walks.  The quotient map onto the free product on the
opposite-face letters (perp letters) sends rkp to tk and kills rk; its kernel
is the normal closure of the face letters: the words whose ``perp_image`` is
empty.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

from .errors import DomainError, MemoryGuardError
from .group import GENERATOR_NAMES, STANDARD_GENERATORS, ProjIsom, commutation_graph, identity

CoxeterWord = tuple[str, ...]
FreeWord = tuple[str, ...]

FREE_LETTERS: tuple[str, ...] = ("t1", "t2", "t3", "t4")

_LETTER_INDEX = {name: k for k, name in enumerate(GENERATOR_NAMES)}
_PERP_TO_FREE = {"r1p": "t1", "r2p": "t2", "r3p": "t3", "r4p": "t4"}
_FREE_TO_FACE = {"t1": "r1", "t2": "r2", "t3": "r3", "t4": "r4"}


def free_to_face_word(word: Iterable[str]) -> CoxeterWord:
    """Substitute tk -> rk, realizing a free word inside the reflection group."""
    return tuple(_FREE_TO_FACE[x] for x in word)


def evaluate_word(word: Iterable[str]) -> ProjIsom:
    """Exact product of the named reflections, left to right."""
    acc = identity()
    for x in word:
        try:
            acc = acc * STANDARD_GENERATORS[x]
        except KeyError:
            raise DomainError(f"unknown generator {x!r}") from None
    return acc


def normal_form(word: Iterable[str]) -> CoxeterWord:
    """ShortLex-least geodesic representative of the given word's element.

    Letters are inserted one at a time.  Each new letter slides left through
    the maximal suffix of letters it commutes with; it cancels against an
    equal letter just past that suffix, and otherwise lands at the
    lexicographically best slot inside it.
    """
    graph = commutation_graph()
    idx = _LETTER_INDEX
    nf: list[str] = []
    for x in word:
        if x not in idx:
            raise DomainError(f"unknown generator {x!r}")
        adj = graph[x]
        p = len(nf)
        while p > 0 and nf[p - 1] in adj:
            p -= 1
        if p > 0 and nf[p - 1] == x:
            del nf[p - 1]
            continue
        q = p
        xk = idx[x]
        while q < len(nf) and idx[nf[q]] < xk:
            q += 1
        nf.insert(q, x)
    return tuple(nf)


def perp_image(word: Iterable[str]) -> FreeWord:
    """Image in the free product on the perp letters: rkp -> tk, rk -> 1.

    The image is freely reduced (tk are involutions, so reduction cancels
    adjacent equal letters).
    """
    out: list[str] = []
    for x in word:
        t = _PERP_TO_FREE.get(x)
        if t is None:
            if x not in _LETTER_INDEX:
                raise DomainError(f"unknown generator {x!r}")
            continue
        if out and out[-1] == t:
            out.pop()
        else:
            out.append(t)
    return tuple(out)


def free_sphere_count(length: int) -> int:
    """Number of reduced free words of exactly this length (4 * 3^(L-1))."""
    if length < 0:
        raise DomainError("length must be nonnegative")
    return 1 if length == 0 else 4 * 3 ** (length - 1)


def free_ball_count(length: int) -> int:
    if length < 0:
        raise DomainError("length must be nonnegative")
    return 2 * 3 ** length - 1


def racg_sphere_count(length: int) -> int:
    """Number of group elements of geodesic length exactly L.

    The growth series is rational, (1 + t)^2 / (1 - 6 t + 5 t^2), giving
    counts 1, 8, 44 and then the recurrence a_k = 6 a_{k-1} - 5 a_{k-2}.
    """
    if length < 0:
        raise DomainError("length must be nonnegative")
    if length == 0:
        return 1
    if length == 1:
        return 8
    prev, cur = 8, 44
    for _ in range(length - 2):
        prev, cur = cur, 6 * cur - 5 * prev
    return cur


def racg_ball_count(length: int) -> int:
    return sum(racg_sphere_count(k) for k in range(length + 1))


def enumerate_free_ball(max_len: int) -> Iterator[FreeWord]:
    """Yield all reduced words on t1..t4 of length <= max_len, shortest first.

    Words of equal length come out in lexicographic order.  Generation is
    depth first within each length, so memory stays flat; the guard refuses
    lengths whose enumeration could not complete anyway.
    """
    if max_len < 0:
        raise DomainError("max_len must be nonnegative")
    if max_len > 20:
        raise MemoryGuardError(f"free ball of radius {max_len} is too large to enumerate")
    yield ()
    buf: list[str] = []

    def rec(target: int) -> Iterator[FreeWord]:
        if len(buf) == target:
            yield tuple(buf)
            return
        for t in FREE_LETTERS:
            if buf and buf[-1] == t:
                continue
            buf.append(t)
            yield from rec(target)
            buf.pop()

    for length in range(1, max_len + 1):
        yield from rec(length)


@lru_cache(maxsize=1)
def shortlex_automaton_masks() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-letter (keep, set) state masks of the normal-form automaton.

    The 16-bit state packs two flags per letter h: bit 2h ("appending h would
    cancel") and bit 2h+1 ("a letter greater than h sits in h's commuting
    suffix").  Appending g is legal iff both of g's flags are clear, and the
    new state is (state & keep[g]) | set_[g]: letters commuting with g keep
    their flags (picking up the greater flag when g exceeds them), g itself
    becomes cancellable, everything else resets.
    """
    graph = commutation_graph()
    names = GENERATOR_NAMES
    keep = []
    set_ = []
    for g, gname in enumerate(names):
        k = 0
        s = 1 << (2 * g)
        for h, hname in enumerate(names):
            if hname in graph[gname]:
                k |= 3 << (2 * h)
                if g > h:
                    s |= 1 << (2 * h + 1)
        keep.append(k)
        set_.append(s)
    return tuple(keep), tuple(set_)


def enumerate_racg_ball(max_len: int) -> Iterator[CoxeterWord]:
    """Yield the normal form of every element of geodesic length <= max_len.

    Walks the ShortLex automaton breadth first, so each element appears
    exactly once, shortest words first, without any deduplication set.
    """
    if max_len < 0:
        raise DomainError("max_len must be nonnegative")
    if max_len > 9:
        raise MemoryGuardError(f"group ball of radius {max_len} is too large to enumerate")
    keep, set_ = shortlex_automaton_masks()
    names = GENERATOR_NAMES
    yield ()
    level: list[tuple[CoxeterWord, int]] = [((), 0)]
    for _ in range(max_len):
        nxt: list[tuple[CoxeterWord, int]] = []
        for word, state in level:
            for g, gname in enumerate(names):
                if not (state >> (2 * g)) & 3:
                    nxt.append((word + (gname,), (state & keep[g]) | set_[g]))
        for word, _ in nxt:
            yield word
        level = nxt
