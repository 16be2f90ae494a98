"""Random matching covers, their dual graphs, signed two-lifts, and the
replacement-product comparison graph.

A degree 2n cover of the octahedron orbifold is presented combinatorially by
four perfect matchings on 2n points, one per mirror color.  The dual graph has
the 2n octahedron copies as vertices and one colored edge per matched pair; it
is 4-regular, loop-free, and may carry parallel edges.  Degree two covers of
the glued manifold correspond to signings of the dual graph's edges, and the
spectrum of such a two-lift splits into the base spectrum and the spectrum of
the sign-twisted adjacency matrix.  The replacement-product ball (complete
graphs on four vertices glued along a 4-regular tree) supplies the comparison
graph whose spectral radius 1 + sqrt(5 + 2 sqrt(3)) calibrates the limiting
spectral gap 3 - sqrt(5 + 2 sqrt(3)).

Vertices are indexed 0 .. 2n-1 and colors run 1 .. 4.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError, MemoryGuardError, SetupError, check_count

__all__ = [
    "NUM_COLORS",
    "REPLACEMENT_SPECTRAL_RADIUS",
    "Matching",
    "CoverPresentation",
    "DualGraph",
    "Signing",
    "ReplacementBall",
    "sample_cover",
    "dual_graph",
    "adjacency_matrix",
    "is_connected",
    "graph_lambda1",
    "tangle_free_radius",
    "all_plus_signing",
    "signing_hash",
    "lift_graph",
    "two_cover_spectra",
    "two_cover_lambda1",
    "simple_switching",
    "switching_walk",
    "walk_summary",
    "replacement_ball",
    "dirichlet_rho",
    "export_edges_csv",
    "export_spectra_csv",
]

#: Number of mirror colors, one matching per color.
NUM_COLORS = 4

#: Spectral radius of the infinite replacement-product graph, the Cayley graph
#: of (Z/4) * (Z/2) with generating set {x, x^2, x^3, y}.
REPLACEMENT_SPECTRAL_RADIUS = 1.0 + math.sqrt(5.0 + 2.0 * math.sqrt(3.0))

_MAX_REPLACEMENT_RADIUS = 14
#: Graphs with at most this many vertices take their eigenvalues from LAPACK
#: on the dense adjacency, which costs less there than a Lanczos run.
_DENSE_VERTICES = 20
#: Lanczos stops once its top Ritz value moves by at most this much between
#: two checks; every operator solved here has norm at most 4.
_RITZ_TOL = 1e-13
#: Lanczos steps after which the solve is given up.  Random covers need about
#: 300 steps at 6,000 vertices and 900 at 200,000.
_LANCZOS_MAX_STEPS = 3000
#: Largest dense V x V float64 matrix ``adjacency_matrix`` will allocate.
_DENSE_MATRIX_BYTES = 1 << 30
#: Neighbour entries one batch of tangle-free BFS roots may gather per level.
_BFS_BATCH_ENTRIES = 1 << 20


@dataclass(frozen=True, eq=False)
class Matching:
    """A perfect matching on an even point set, stored as its involution.

    ``perm[j]`` is the partner of point ``j``; the array is a fixed point
    free involution of integer dtype (not bool), checked at construction.
    """

    perm: np.ndarray

    def __post_init__(self) -> None:
        perm = np.asarray(self.perm)
        if not np.issubdtype(perm.dtype, np.integer):
            raise DomainError(f"matching entries must be integers, got dtype {perm.dtype}")
        perm = perm.astype(np.int64)
        if perm.ndim != 1 or perm.size == 0 or perm.size % 2 != 0:
            raise DomainError(
                f"matching needs a 1-d array over an even point set, got shape {perm.shape}"
            )
        points = np.arange(perm.size)
        if not np.array_equal(np.sort(perm), points):
            raise DomainError("matching entries must be a permutation of the points")
        if np.any(perm == points):
            raise DomainError("matching has a fixed point")
        if not np.array_equal(perm[perm], points):
            raise DomainError("matching is not an involution")
        perm.setflags(write=False)
        object.__setattr__(self, "perm", perm)

    @property
    def num_points(self) -> int:
        return int(self.perm.size)

    def pairs(self) -> list[tuple[int, int]]:
        """The matched pairs (u, v) with u < v, sorted by u."""
        return [(int(j), int(self.perm[j])) for j in range(self.num_points) if j < self.perm[j]]


@dataclass(frozen=True, eq=False)
class CoverPresentation:
    """A random cover of degree 2n: one perfect matching per color.

    The presentation is reproducible: ``sample_cover(n, seed)`` with the
    stored seed rebuilds the same four matchings.
    """

    n: int
    sigma: tuple[Matching, ...]
    seed: int

    def __post_init__(self) -> None:
        if len(self.sigma) != NUM_COLORS:
            raise DomainError(f"expected {NUM_COLORS} matchings, got {len(self.sigma)}")
        for matching in self.sigma:
            if matching.num_points != 2 * self.n:
                raise DomainError(
                    f"matching on {matching.num_points} points does not fit degree 2n = {2 * self.n}"
                )


@dataclass(frozen=True, eq=False)
class DualGraph:
    """The 4-regular colored dual graph of a cover, stored as its four matchings.

    ``matchings`` is a read-only (4, V) int64 array whose row c - 1 is the
    involution of color c: an edge of color c joins u and
    ``matchings[c - 1, u]``.  Each row is validated as a ``Matching``, so
    every color class is a perfect matching and the graph is loop free and
    exactly 4-regular, with parallel edges allowed.

    Edges are ordered color by color, and within a color by ascending
    smaller endpoint; ``edges()`` lists them in that order, and a
    ``Signing``'s entries follow it.
    """

    matchings: np.ndarray

    def __post_init__(self) -> None:
        try:
            rows = np.asarray(self.matchings)
        except ValueError:
            raise DomainError(
                f"a dual graph needs {NUM_COLORS} matchings of equal size, got ragged rows"
            ) from None
        if rows.ndim != 2 or len(rows) != NUM_COLORS:
            raise DomainError(
                f"a dual graph needs {NUM_COLORS} matchings of equal size, got shape {rows.shape}"
            )
        matchings = np.stack([Matching(row).perm for row in rows])
        matchings.setflags(write=False)
        object.__setattr__(self, "matchings", matchings)

    @property
    def num_vertices(self) -> int:
        return int(self.matchings.shape[1])

    @property
    def num_edges(self) -> int:
        return self.matchings.size // 2

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edge arrays (u, v, color) with u < v, in edge order."""
        color, u = np.nonzero(self.matchings > np.arange(self.num_vertices))
        return u, self.matchings[color, u], color + 1

    @cached_property
    def _mu2(self) -> float:
        """Second largest adjacency eigenvalue, with multiplicity; exactly 4
        when the graph is disconnected.  Solved once per graph, since both
        ``graph_lambda1`` and ``switching_walk`` need it."""
        if not _reaches_every_vertex(self.matchings):
            return 4.0
        if self.num_vertices <= _DENSE_VERTICES:
            return float(np.linalg.eigvalsh(adjacency_matrix(self))[-2])
        return _lanczos_top(self.matchings, deflate=True)


@dataclass(frozen=True, eq=False)
class Signing:
    """A sign per dual-graph edge, aligned with ``DualGraph.edges()`` order.

    Entries need an integer dtype and the values +-1 before the int8 cast.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        if values.ndim != 1:
            raise DomainError(f"signing needs a 1-d sign array, got shape {values.shape}")
        if not np.issubdtype(values.dtype, np.integer):
            raise DomainError(f"signing entries must be integers, got dtype {values.dtype}")
        if not np.all((values == 1) | (values == -1)):
            raise DomainError("signing entries must be +1 or -1")
        values = values.astype(np.int8)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def num_edges(self) -> int:
        return int(self.values.size)


def sample_cover(n: int, seed: int | None = None) -> CoverPresentation:
    """Sample four independent uniform perfect matchings on 2n points.

    Each matching pairs consecutive entries of a seeded random shuffle,
    which is uniform over the (2n - 1)!! perfect matchings.  With ``seed``
    None a fresh seed is drawn and recorded on the presentation.
    """
    n = check_count("n", n, 1)
    if seed is None:
        seed = int(np.random.SeedSequence().entropy)
    rng = np.random.default_rng(seed)
    matchings = []
    for _ in range(NUM_COLORS):
        order = rng.permutation(2 * n)
        perm = np.empty(2 * n, dtype=np.int64)
        perm[order[0::2]] = order[1::2]
        perm[order[1::2]] = order[0::2]
        matchings.append(Matching(perm))
    return CoverPresentation(n, tuple(matchings), seed)


def dual_graph(cover: CoverPresentation) -> DualGraph:
    """The colored dual graph of a cover presentation."""
    return DualGraph(np.stack([matching.perm for matching in cover.sigma]))


def adjacency_matrix(graph: DualGraph, signing: Signing | None = None) -> np.ndarray:
    """Dense adjacency matrix, entries multiplied by edge signs if given.

    Parallel edges add, and sums of +-1 are exact.  The dense V x V float64
    matrix is for the exact eigvalsh paths (the two-cover spectra and small
    graphs' lambda1).  It raises
    MemoryGuardError, before allocating, when V * V * 8 bytes would exceed
    1 GiB (above about 11,585 vertices); ``graph_lambda1``, ``is_connected``,
    ``tangle_free_radius`` and ``switching_walk`` on large graphs never call it.
    """
    if signing is not None and signing.num_edges != graph.num_edges:
        raise DomainError(
            f"signing covers {signing.num_edges} edges, graph has {graph.num_edges}"
        )
    nbytes = graph.num_vertices * graph.num_vertices * 8
    if nbytes > _DENSE_MATRIX_BYTES:
        raise MemoryGuardError(
            f"a dense adjacency matrix on {graph.num_vertices} vertices needs "
            f"{nbytes / 2**30:.1f} GiB, over the {_DENSE_MATRIX_BYTES / 2**30:g} GiB limit"
        )
    edge_u, edge_v, _ = graph.edges()
    weights = np.ones(edge_u.size) if signing is None else signing.values.astype(float)
    matrix = np.zeros((graph.num_vertices, graph.num_vertices))
    np.add.at(matrix, (edge_u, edge_v), weights)
    np.add.at(matrix, (edge_v, edge_u), weights)
    return matrix


def is_connected(graph: DualGraph) -> bool:
    """Whether the dual graph is connected: a breadth-first search from
    vertex 0 over the four matchings reaches every vertex."""
    return _reaches_every_vertex(graph.matchings)


def _reaches_every_vertex(matchings: np.ndarray) -> bool:
    """The search behind ``is_connected``.  ``DualGraph._mu2`` calls it
    directly, so that the benchmark's tracer, which wraps the public
    functions, sees no ``is_connected`` nested inside ``graph_lambda1``."""
    reached = np.zeros(matchings.shape[1], dtype=bool)
    reached[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        neighbors = matchings[:, frontier].ravel()
        frontier = _distinct(neighbors[~reached[neighbors]])
        reached[frontier] = True
    return bool(reached.all())


def _lanczos_top(
    neighbors: np.ndarray, weights: np.ndarray | None = None, *, deflate: bool = False
) -> float:
    """Largest eigenvalue of the symmetric operator x -> sum_k weights[k] * x[neighbors[k]].

    ``neighbors`` and ``weights`` are (d, V) arrays: row k gives each vertex
    one neighbour and the weight of that edge (1 throughout when ``weights``
    is None).  With ``deflate`` the mean is taken out of the start vector and
    of every product, which on a regular graph leaves out the constant
    eigenvector, so the result is the second largest eigenvalue.

    Plain Lanczos without reorthogonalization, from a fixed-seed Gaussian
    start vector.  Lost orthogonality only repeats Ritz values that have
    converged, so the top Ritz value still converges to the top eigenvalue
    (Paige 1976; Parlett, *The Symmetric Eigenvalue Problem*, ch. 13).  At
    step 10, and then every max(10, k // 10) steps, the top eigenvalue of the
    tridiagonal T_k comes from LAPACK.  The run stops once that value has
    moved by at most ``_RITZ_TOL`` since the previous check, once beta_k, a
    bound on the residual of every Ritz pair, is that small, or once k
    reaches the dimension of the space.  Inner products are numpy's
    pairwise sums, not BLAS calls, and LAPACK's reduction of an already
    tridiagonal matrix is exact, so the result repeats bit for bit at any
    thread count.  Raises SetupError after ``_LANCZOS_MAX_STEPS`` steps.
    """
    nv = neighbors.shape[1]
    dimension = nv - 1 if deflate else nv
    total = np.add.reduce
    vector = np.random.default_rng(0).standard_normal(nv)
    if deflate:
        vector -= total(vector) / nv
    vector /= np.sqrt(total(vector * vector))
    previous = np.zeros(nv)
    alphas, betas = [], []
    beta = 0.0
    top, check = -np.inf, 10
    for step in range(1, _LANCZOS_MAX_STEPS + 1):
        product = vector[neighbors]
        if weights is not None:
            product *= weights
        product = total(product)
        if deflate:
            product -= total(product) / nv
        alpha = total(product * vector)
        product -= alpha * vector
        product -= beta * previous
        beta = np.sqrt(total(product * product))
        alphas.append(alpha)
        betas.append(beta)
        done = step >= dimension or beta <= _RITZ_TOL
        if done or step == check:
            off = betas[:-1]
            tridiagonal = np.diag(alphas) + np.diag(off, 1) + np.diag(off, -1)
            ritz = float(np.linalg.eigvalsh(tridiagonal)[-1])
            if done or ritz - top <= _RITZ_TOL:
                return ritz
            top, check = ritz, step + max(10, step // 10)
        previous, vector = vector, product / beta
    raise SetupError(
        f"Lanczos did not converge in {_LANCZOS_MAX_STEPS} steps on {nv} vertices; "
        f"top Ritz value {top!r}"
    )


def graph_lambda1(graph: DualGraph) -> float:
    """Adjacency spectral gap 4 - mu2 of a 4-regular graph.

    mu2 is the second largest adjacency eigenvalue with multiplicity; the
    top eigenvalue of a 4-regular graph is 4, so the gap vanishes when the
    graph is disconnected, and a breadth-first search then makes it exactly
    0.  Tiny negative rounding is clamped.  Graphs of at most 20 vertices
    take every eigenvalue of ``adjacency_matrix`` from LAPACK; larger ones
    run Lanczos on the matchings with the constant vector deflated, so no
    V x V matrix is ever allocated.  mu2 is solved once per graph and shared
    with ``switching_walk``.
    """
    return max(0.0, 4.0 - graph._mu2)


def _graph_data(graph) -> tuple[int, np.ndarray, np.ndarray]:
    try:
        num_vertices, edge_seq = graph
    except (TypeError, ValueError):
        raise DomainError(
            f"expected a DualGraph or a (num_vertices, edges) pair, got {graph!r}"
        ) from None
    num_vertices = check_count("num_vertices", num_vertices, 1)
    pairs = []
    for edge in edge_seq:
        u = check_count("edge endpoint", edge[0], 0)
        v = check_count("edge endpoint", edge[1], 0)
        if not (u < num_vertices and v < num_vertices and u != v):
            raise DomainError(f"edge {edge!r} is not a pair of distinct vertices")
        pairs.append((u, v))
    ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return num_vertices, ends[:, 0], ends[:, 1]


def _adjacency_lists(
    num_vertices: int, edge_u: np.ndarray, edge_v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)``: the neighbours of v are ``indices[indptr[v]:indptr[v + 1]]``,
    one entry per edge end, so a parallel edge is listed once per copy."""
    ends = np.concatenate([edge_u, edge_v])
    order = np.argsort(ends, kind="stable")
    indices = np.concatenate([edge_v, edge_u])[order]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(ends, minlength=num_vertices))])
    return indptr, indices


def _distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)``.  NumPy 2's ``np.unique`` imports ``numpy.ma`` on
    its first call, about 20 ms of every ``cover`` command."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _sorted_contains(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Membership of each of ``keys`` in the sorted array ``sorted_keys``."""
    if sorted_keys.size == 0:
        return np.zeros(keys.size, dtype=bool)
    at = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return sorted_keys[at] == keys


def _first_tangle_depth(
    indptr: np.ndarray, indices: np.ndarray, roots: np.ndarray, depth_cut: int
) -> int:
    """Smallest depth t <= depth_cut at which some root's ball has cycle rank above 1.

    Returns depth_cut + 1 when there is none.  The roots' breadth-first
    searches run side by side, one depth per step.  A (root, vertex) pair is
    the key slot * V + vertex, where slot is the root's place in ``roots``,
    and each depth is a sorted key array.  A neighbour of a depth-t vertex
    lies at depth t - 1, t or t + 1, so the last two depths tell the three
    apart.  The edges that join the ball at depth t are those from depth t
    back to t - 1 and those inside depth t (seen from both ends), counted
    with their multiplicity, one adjacency entry per copy.
    """
    nv = indptr.size - 1
    slots = roots.size
    level = np.arange(slots, dtype=np.int64) * nv + roots
    previous = np.empty(0, dtype=np.int64)
    rank = np.ones(slots, dtype=np.int64)
    for depth in range(depth_cut + 1):
        owner, vertex = np.divmod(level, nv)
        starts = indptr[vertex]
        counts = indptr[vertex + 1] - starts
        offsets = starts - np.cumsum(counts) + counts
        positions = np.arange(counts.sum()) + np.repeat(offsets, counts)
        owner_of = np.repeat(owner, counts)
        keys = owner_of * nv + indices[positions]
        back = _sorted_contains(previous, keys)
        inside = _sorted_contains(level, keys)
        rank += np.bincount(owner_of[back], minlength=slots)
        rank += np.bincount(owner_of[inside], minlength=slots) // 2
        rank -= np.bincount(owner, minlength=slots)
        if np.any(rank > 1):
            return depth
        if depth == depth_cut:
            break
        previous, level = level, _distinct(keys[~(back | inside)])
        if level.size == 0:
            break
    return depth_cut + 1


def _ball_entries(max_degree: int, depth: int, total: int) -> int:
    """Upper bound on the neighbour entries one root gathers up to ``depth``."""
    if max_degree == 1:
        ball = depth + 1
    else:
        ball = (max_degree ** (min(depth, 64) + 1) - 1) // (max_degree - 1)
    return min(total, ball * max_degree)


def tangle_free_radius(graph, *, max_radius: int | None = None) -> int:
    """Largest T such that every radius-T ball has at most one cycle.

    The ball around a vertex is the subgraph induced by vertices within
    graph distance T; its cycle rank is edges - vertices + 1 (balls are
    connected), counting parallel edges.  ``graph`` may be a DualGraph or
    a plain ``(num_vertices, edges)`` pair, so pruned subgraphs can be
    measured too.  Cycle free graphs return ``max_radius``, which defaults
    to the vertex count (every ball has saturated by then).

    Each root runs a breadth-first search over adjacency lists (a
    DualGraph's are the columns of its matchings) that stops at the running
    answer: a ball deeper than it can no longer lower it.  Roots go in
    batches whose neighbour entries per depth stay under 2**20, so memory
    grows with the balls searched, not with V * V.
    """
    if isinstance(graph, DualGraph):
        num_vertices = graph.num_vertices
        indptr = np.arange(0, NUM_COLORS * num_vertices + 1, NUM_COLORS)
        indices = graph.matchings.T.ravel()
    else:
        num_vertices, edge_u, edge_v = _graph_data(graph)
        indptr, indices = _adjacency_lists(num_vertices, edge_u, edge_v)
    if max_radius is None:
        max_radius = num_vertices
    max_radius = check_count("max_radius", max_radius, 0)
    if indices.size == 0:
        return max_radius
    max_degree = int(np.diff(indptr).max())
    best = max_radius
    start = 0
    while best > 0 and start < num_vertices:
        batch = _BFS_BATCH_ENTRIES // _ball_entries(max_degree, best, indices.size)
        stop = min(num_vertices, start + max(1, batch))
        roots = np.arange(start, stop, dtype=np.int64)
        best = min(best, _first_tangle_depth(indptr, indices, roots, best) - 1)
        start = stop
    return best


def all_plus_signing(graph: DualGraph) -> Signing:
    """The trivial signing: +1 on every edge."""
    return Signing(np.ones(graph.num_edges, dtype=np.int8))


def signing_hash(signing: Signing) -> str:
    """Hex digest identifying a signing (sha256 of the sign bytes)."""
    return hashlib.sha256(signing.values.tobytes()).hexdigest()


def simple_switching(signing: Signing, edge_index: int) -> Signing:
    """Flip the sign of one edge; switching the same edge twice restores."""
    edge_index = check_count("edge_index", edge_index, 0)
    if edge_index >= signing.num_edges:
        raise DomainError(
            f"unknown edge {edge_index}, signing covers {signing.num_edges} edges"
        )
    values = signing.values.copy()
    values[edge_index] = -values[edge_index]
    return Signing(values)


def lift_graph(graph: DualGraph, signing: Signing) -> DualGraph:
    """The explicit two-cover: doubled vertices, edges routed by sign.

    A +1 edge lifts to two parallel-sheet copies, a -1 edge to the two
    sheet-crossing copies.  The result is again a valid colored dual graph,
    on twice the vertices: vertex u + V is u's copy on the second sheet.
    """
    if signing.num_edges != graph.num_edges:
        raise DomainError(
            f"signing covers {signing.num_edges} edges, graph has {graph.num_edges}"
        )
    nv = graph.num_vertices
    edge_u, edge_v, color = graph.edges()
    negative = signing.values < 0
    crossed = np.zeros_like(graph.matchings)
    crossed[color[negative] - 1, edge_u[negative]] = 1
    crossed[color[negative] - 1, edge_v[negative]] = 1
    partner = graph.matchings + nv * crossed
    return DualGraph(np.hstack([partner, (partner + nv) % (2 * nv)]))


def two_cover_spectra(graph: DualGraph, signing: Signing) -> tuple[np.ndarray, np.ndarray]:
    """Old and new eigenvalues of the two-cover encoded by a signing.

    Old is the base adjacency spectrum (lifted eigenfunctions), new is the
    spectrum of the sign-twisted adjacency matrix; their multiset union is
    the spectrum of ``lift_graph(graph, signing)``, which the test suite
    checks against the explicit cover.  Both arrays are ascending.
    """
    old = np.linalg.eigvalsh(adjacency_matrix(graph))
    new = np.linalg.eigvalsh(adjacency_matrix(graph, signing))
    return old, new


def two_cover_lambda1(graph: DualGraph, signing: Signing) -> float:
    """Adjacency spectral gap 4 - mu2 of the two-cover of a signed graph."""
    old, new = two_cover_spectra(graph, signing)
    combined = np.sort(np.concatenate([old, new]))
    return max(0.0, 4.0 - float(combined[-2]))


def switching_walk(
    graph: DualGraph,
    steps: int,
    seed: int | None = None,
    *,
    start: Signing | None = None,
) -> list[tuple[str, float]]:
    """Random walk on signings by single-edge switchings.

    Starts from ``start`` (all +1 by default, whose two-cover is a pair of
    disjoint copies with gap zero), flips one uniformly random edge per
    step, and records (signing hash, two-cover gap) for the initial signing
    and after every step: steps + 1 entries in all, reproducible from seed.

    The two-cover's spectrum is the base spectrum together with the signed
    spectrum, and the base's top eigenvalue is 4, so each gap is
    4 - max(mu2_old, mu1_new): mu2_old is the base graph's second eigenvalue,
    solved once per graph and shared with ``graph_lambda1``, and mu1_new the
    top eigenvalue of the signed adjacency, one Lanczos solve per step on the
    matchings with the signs laid out as a (4, V) array, from a fixed start
    vector, so a step's value depends on its signing alone.  No V x V matrix
    is built except on graphs of at most 20 vertices, which go to LAPACK.
    """
    steps = check_count("steps", steps, 1)
    if seed is None:
        seed = int(np.random.SeedSequence().entropy)
    rng = np.random.default_rng(seed)
    signing = all_plus_signing(graph) if start is None else start
    if signing.num_edges != graph.num_edges:
        raise DomainError(
            f"start signing covers {signing.num_edges} edges, graph has {graph.num_edges}"
        )
    edge_u, edge_v, color = graph.edges()
    mu2_old = graph._mu2

    def gap(current: Signing) -> float:
        if graph.num_vertices <= _DENSE_VERTICES:
            mu1_new = float(np.linalg.eigvalsh(adjacency_matrix(graph, current))[-1])
        else:
            signs = np.empty(graph.matchings.shape)
            signs[color - 1, edge_u] = current.values
            signs[color - 1, edge_v] = current.values
            mu1_new = _lanczos_top(graph.matchings, signs)
        return max(0.0, 4.0 - max(mu2_old, mu1_new))

    trajectory = [(signing_hash(signing), gap(signing))]
    for _ in range(steps):
        edge_index = int(rng.integers(graph.num_edges))
        signing = simple_switching(signing, edge_index)
        trajectory.append((signing_hash(signing), gap(signing)))
    return trajectory


def walk_summary(
    n: int,
    seed: int,
    trajectory: Sequence[tuple[str, float]],
    *,
    bins: int = 20,
) -> dict:
    """JSON-ready record of a nonempty switching walk: series plus histogram."""
    bins = check_count("bins", bins, 1)
    if len(trajectory) == 0:
        raise DomainError("walk summary needs a nonempty trajectory")
    gaps = [float(gap) for _, gap in trajectory]
    counts, edges = np.histogram(gaps, bins=bins, range=(0.0, max(max(gaps), 1e-12)))
    return {
        "n": int(n),
        "seed": int(seed),
        "steps": len(trajectory) - 1,
        "lambda1_series": gaps,
        "histogram": {
            "bin_edges": [float(e) for e in edges],
            "counts": [int(c) for c in counts],
        },
    }


@dataclass(frozen=True, eq=False)
class ReplacementBall:
    """A radius-T ball of the infinite replacement-product graph.

    Vertices are indexed in breadth-first order from the root (index 0);
    ``distances[j]`` is the graph distance of vertex j from the root, and
    ``edges`` lists the induced undirected edges.
    """

    radius: int
    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    distances: np.ndarray

    def sphere_sizes(self) -> list[int]:
        """Vertex counts at each distance 0 .. radius."""
        counts = np.bincount(self.distances, minlength=self.radius + 1)
        return [int(c) for c in counts]


def _replacement_neighbors(word: tuple) -> list[tuple]:
    """Neighbors of a reduced word of (Z/4) * (Z/2) under {x, x^2, x^3, y}.

    Words alternate power tokens 1, 2, 3 (for x, x^2, x^3) and the
    reflection token 'y'; right multiplication reduces in one step.
    """
    neighbors = []
    for amount in (1, 2, 3):
        if word and word[-1] != "y":
            power = (word[-1] + amount) % 4
            neighbors.append(word[:-1] + (power,) if power else word[:-1])
        else:
            neighbors.append(word + (amount,))
    if word and word[-1] == "y":
        neighbors.append(word[:-1])
    else:
        neighbors.append(word + ("y",))
    return neighbors


def replacement_ball(radius: int) -> ReplacementBall:
    """Breadth-first ball of the replacement-product graph around a root.

    The graph is the Cayley graph of (Z/4) * (Z/2) with generating set
    {x, x^2, x^3, y}: complete graphs on the four-element cosets of x,
    glued along a 4-regular tree by the y edges.  Raises DomainError above
    radius 14 (the ball grows like 3^(radius/2) per parity step).
    """
    radius = check_count("radius", radius, 0)
    if radius > _MAX_REPLACEMENT_RADIUS:
        raise DomainError(
            f"radius must be at most {_MAX_REPLACEMENT_RADIUS}, got {radius}"
        )
    root: tuple = ()
    index = {root: 0}
    distances = [0]
    frontier = [root]
    for depth in range(1, radius + 1):
        next_frontier = []
        for word in frontier:
            for neighbor in _replacement_neighbors(word):
                if neighbor not in index:
                    index[neighbor] = len(index)
                    distances.append(depth)
                    next_frontier.append(neighbor)
        frontier = next_frontier
    edges = set()
    for word, u in index.items():
        for neighbor in _replacement_neighbors(word):
            v = index.get(neighbor)
            if v is not None and v != u:
                edges.add((min(u, v), max(u, v)))
    return ReplacementBall(
        radius=radius,
        num_vertices=len(index),
        edges=tuple(sorted(edges)),
        distances=np.array(distances, dtype=np.int64),
    )


def dirichlet_rho(ball: ReplacementBall) -> float:
    """Largest adjacency eigenvalue of a replacement-product ball.

    Restricting to a finite ball only loses mass, so this is a lower bound
    for the infinite graph's spectral radius REPLACEMENT_SPECTRAL_RADIUS,
    nondecreasing in the ball radius.
    """
    nv = ball.num_vertices
    if nv == 1:
        return 0.0
    edge_u, edge_v = np.array(ball.edges, dtype=np.int64).T
    if nv <= _DENSE_VERTICES:
        matrix = np.zeros((nv, nv))
        matrix[edge_u, edge_v] = matrix[edge_v, edge_u] = 1.0
        return float(np.linalg.eigvalsh(matrix)[-1])
    # Lay the adjacency lists out as a (max degree, V) table for Lanczos,
    # padding short lists with weight-0 entries.
    indptr, indices = _adjacency_lists(nv, edge_u, edge_v)
    degree = np.diff(indptr)
    owner = np.repeat(np.arange(nv), degree)
    slot = np.arange(indices.size) - indptr[owner]
    neighbors = np.tile(np.arange(nv), (int(degree.max()), 1))
    weights = np.zeros(neighbors.shape)
    neighbors[slot, owner] = indices
    weights[slot, owner] = 1.0
    return _lanczos_top(neighbors, weights)


def export_edges_csv(graph: DualGraph, path, signing: Signing | None = None) -> None:
    """Write the edge list as CSV rows (u, v, color, sign)."""
    if signing is not None and signing.num_edges != graph.num_edges:
        raise DomainError(
            f"signing covers {signing.num_edges} edges, graph has {graph.num_edges}"
        )
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["u", "v", "color", "sign"])
        signs = np.ones(graph.num_edges, dtype=np.int8) if signing is None else signing.values
        writer.writerows(np.column_stack([*graph.edges(), signs]).tolist())


def export_spectra_csv(old: np.ndarray, new: np.ndarray, path) -> None:
    """Write old and new two-cover eigenvalues as CSV columns."""
    if len(old) != len(new):
        raise DomainError(f"spectra lengths differ: {len(old)} vs {len(new)}")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["index", "old", "new"])
        for index, (a, b) in enumerate(zip(old, new)):
            writer.writerow([index, format(float(a), ".12g"), format(float(b), ".12g")])
