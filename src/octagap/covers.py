"""Random matching covers, their dual graphs, signed two-lifts, and the
replacement-product comparison graph.

A degree 2n cover of the octahedron orbifold is presented combinatorially by
four perfect matchings on 2n points, one per mirror color, kept as one
(4, 2n) table of involutions.  The dual graph has the 2n octahedron copies as
vertices and one colored edge per matched pair; it is 4-regular, loop-free,
and may carry parallel edges.  Degree two covers of the glued manifold
correspond to signings of the dual graph's edges, and the spectrum of such a
two-lift splits into the base spectrum and the spectrum of the sign-twisted
adjacency matrix.  The replacement-product ball (complete
graphs on four vertices glued along a 4-regular tree) supplies the comparison
graph whose spectral radius 1 + sqrt(5 + 2 sqrt(3)) calibrates the limiting
spectral gap 3 - sqrt(5 + 2 sqrt(3)).

Every solve and search runs on one graph form, a (d, V) neighbour table
whose row k gives each vertex one neighbour: a dual graph's table is its
four matchings, and a replacement ball is solved on the (3, 2r + 1) table
of its equitable quotient.  Every top eigenvalue comes from Lanczos on such
a table; only the dense twin ``adjacency_matrix`` forms a V x V matrix.

Vertices are indexed 0 .. 2n-1 and colors run 1 .. 4.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError, SetupError, check_bytes, check_count

__all__ = [
    "NUM_COLORS",
    "DualGraph",
    "Signing",
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
    "dirichlet_rho",
]

#: Number of mirror colors, one matching per color.
NUM_COLORS = 4

#: Lanczos stops once its top Ritz value moves by at most this much between
#: two checks; every operator solved here has norm at most 4.
_RITZ_TOL = 1e-13
#: Lanczos steps after which the solve is given up.  Random covers need about
#: 300 steps at 6,000 vertices and 900 at 200,000.
_LANCZOS_MAX_STEPS = 3000
#: Upper bound on the bytes ``sample_cover`` holds at its peak per unit of n:
#: the table and the shuffle of the row being drawn (tracemalloc, 96.0 to
#: 103.3 bytes at n = 10^6 and 10^5).
_COVER_BYTES_PER_N = 130
#: Bytes ``walk_summary`` holds per histogram bin: numpy's edges and counts
#: and their lists (tracemalloc, 56.0 to 56.9 bytes at 10^4 to 10^6 bins).
_SUMMARY_BYTES_PER_BIN = 57
#: Neighbour keys one batch of tangle-free BFS roots may gather per depth.
#: 2**16 int64 keys take 512 KB, so a depth's keys and lookups fit a 2 MB L2
#: cache.  ``tangle_free_radius(dual_graph(sample_cover(n, 7)))`` on a 2-vCPU
#: x86 host: at n = 100,000, 1.02 to 1.10 s at 2**16, 1.05 to 1.07 s at
#: 2**17 and 1.29 to 1.40 s at 2**20; at n = 3000, 9 to 12 ms and a 1.9 MB
#: tracemalloc peak at 2**16, against 12 to 16 ms and 3.0 MB at 2**17.
_BFS_BATCH_ENTRIES = 1 << 16


@dataclass(frozen=True, eq=False)
class DualGraph:
    """The 4-regular colored dual graph of a cover, stored as its four matchings.

    ``matchings`` is a read-only (4, V) int64 array whose row c - 1 is the
    involution of color c: an edge of color c joins u and
    ``matchings[c - 1, u]``.  This is the one place a cover is checked: the
    table needs an integer dtype (not bool), an even V > 0, entries in
    0 .. V - 1, no fixed point, and each row its own inverse, which makes
    it a permutation.  So every color class is a perfect matching and the
    graph is loop free and exactly 4-regular, with parallel edges allowed.
    The caller's array is copied, never frozen.

    Edges are ordered color by color, and within a color by ascending
    smaller endpoint; ``edges()`` lists them in that order, and a
    ``Signing``'s entries follow it.
    """

    matchings: np.ndarray

    def __post_init__(self) -> None:
        try:
            table = np.asarray(self.matchings)
        except ValueError:
            raise DomainError(
                f"a dual graph needs {NUM_COLORS} matchings of equal size, got ragged rows"
            ) from None
        if not np.issubdtype(table.dtype, np.integer):
            raise DomainError(f"matching entries must be integers, got dtype {table.dtype}")
        if table.ndim != 2 or len(table) != NUM_COLORS or table.size == 0 or table.shape[1] % 2:
            raise DomainError(
                f"a dual graph needs {NUM_COLORS} matchings on one even point set, "
                f"got shape {table.shape}"
            )
        table = table.astype(np.int64)
        points = np.arange(table.shape[1])
        if table.min() < 0 or table.max() >= points.size:
            raise DomainError(f"matching entries must be points 0 .. {points.size - 1}")
        if np.any(table == points):
            raise DomainError("matching has a fixed point")
        if np.any(np.take_along_axis(table, table, axis=1) != points):
            raise DomainError("matching is not an involution")
        table.setflags(write=False)
        object.__setattr__(self, "matchings", table)

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
    def _connected(self) -> bool:
        """Whether a breadth-first search from vertex 0 over the matchings
        reaches every vertex.  Searched once per graph, since both
        ``is_connected`` and ``_mu2`` need it."""
        reached = np.zeros(self.num_vertices, dtype=bool)
        reached[0] = True
        frontier = np.zeros(1, dtype=np.int64)
        while frontier.size:
            neighbors = self.matchings[:, frontier].ravel()
            frontier = _distinct(neighbors[~reached[neighbors]])
            reached[frontier] = True
        return bool(reached.all())

    @cached_property
    def _mu2(self) -> float:
        """Second largest adjacency eigenvalue, with multiplicity; exactly 4
        when the graph is disconnected.  Solved once per graph, since both
        ``graph_lambda1`` and ``switching_walk`` need it."""
        if not self._connected:
            return 4.0
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


def sample_cover(n: int, seed: int) -> np.ndarray:
    """Four independent uniform perfect matchings on 2n points, as one table.

    Returns a read-only (4, 2n) int64 array whose row c - 1 is the
    involution of color c; ``dual_graph`` checks it and builds the graph.
    Each matching pairs consecutive entries of a seeded random shuffle,
    which is uniform over the (2n - 1)!! perfect matchings.  The seed must
    be a non-negative integer, so every cover can be drawn again.  Raises
    MemoryGuardError, before drawing, when n is above about 8.26 million.
    """
    n = check_count("n", n, 1)
    seed = check_count("seed", seed, 0)
    check_bytes(f"a cover of degree {2 * n}", n * _COVER_BYTES_PER_N)
    rng = np.random.default_rng(seed)
    table = np.empty((NUM_COLORS, 2 * n), dtype=np.int64)
    for row in table:
        order = rng.permutation(2 * n)
        row[order[0::2]] = order[1::2]
        row[order[1::2]] = order[0::2]
    table.setflags(write=False)
    return table


def dual_graph(table: np.ndarray) -> DualGraph:
    """The colored dual graph of a cover given as its (4, 2n) matching table."""
    return DualGraph(table)


def adjacency_matrix(graph: DualGraph, signing: Signing | None = None) -> np.ndarray:
    """Dense adjacency matrix, entries multiplied by edge signs if given.

    Parallel edges add, and sums of +-1 are exact.  The dense V x V float64
    matrix is for the exact two-cover spectra and the tests' dense twins.
    It raises MemoryGuardError, before allocating, when V * V * 8 bytes
    would exceed 1 GiB (above about 11,585 vertices).  No other function
    here calls it, and no eigenvalue solve forms a dense matrix.
    """
    signs = None if signing is None else _table_signs(graph, signing)
    check_bytes(
        f"a dense adjacency matrix on {graph.num_vertices} vertices",
        graph.num_vertices * graph.num_vertices * 8,
    )
    return _dense(graph.matchings, signs)


def _table_signs(graph: DualGraph, signing: Signing) -> np.ndarray:
    """The signing laid onto the matching table: a (4, V) int8 array whose
    entry (c, u) is the sign of u's color c + 1 edge.  Raises DomainError
    unless the signing covers the graph's edges."""
    if signing.num_edges != graph.num_edges:
        raise DomainError(
            f"signing covers {signing.num_edges} edges, graph has {graph.num_edges}"
        )
    edge_u, edge_v, color = graph.edges()
    signs = np.empty(graph.matchings.shape, dtype=np.int8)
    signs[color - 1, edge_u] = signs[color - 1, edge_v] = signing.values
    return signs


def _dense(neighbors: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """The operator of ``_lanczos_top`` as a dense V x V matrix: row v
    adds weights[k, v] at column neighbors[k, v], so parallel edges add."""
    nv = neighbors.shape[1]
    matrix = np.zeros((nv, nv))
    rows = np.broadcast_to(np.arange(nv), neighbors.shape)
    np.add.at(matrix, (rows, neighbors), 1.0 if weights is None else weights)
    return matrix


def is_connected(graph: DualGraph) -> bool:
    """Whether the dual graph is connected: a breadth-first search from
    vertex 0 over the four matchings reaches every vertex."""
    return graph._connected


def _lanczos_top(
    neighbors: np.ndarray, weights: np.ndarray | None = None, *, deflate: bool = False
) -> float:
    """Largest eigenvalue of the symmetric operator x -> sum_k weights[k] * x[neighbors[k]].

    ``neighbors`` and ``weights`` are (d, V) arrays: row k gives each vertex
    one neighbour and the weight of that edge (1 throughout when ``weights``
    is None; an entry of weight 0 adds nothing, whatever it indexes).  With
    ``deflate`` the mean is taken out of the start vector and of every
    product, which on a regular graph leaves out the constant eigenvector,
    so the result is the second largest eigenvalue.

    Plain Lanczos without reorthogonalization, from a fixed-seed Gaussian
    start vector.  Lost orthogonality only repeats Ritz values that have
    converged, so the top Ritz value still converges to the top eigenvalue
    (Paige 1976; Parlett, *The Symmetric Eigenvalue Problem*, ch. 13).  At
    step 10, and then every max(10, k // 10) steps, the top eigenvalue of the
    tridiagonal T_k, written into one k x k matrix, comes from LAPACK.  The
    run stops once that value has moved by at most ``_RITZ_TOL`` since the
    previous check, once beta_k, a bound on the residual of every Ritz
    pair, is that small, or once k reaches the dimension of the space.
    Inner products are numpy's pairwise sums, not BLAS calls, and LAPACK's
    reduction of an already tridiagonal matrix is exact, so the result
    repeats bit for bit at any thread count.  Raises SetupError after ``_LANCZOS_MAX_STEPS`` steps.
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
            tridiagonal = np.zeros((step, step))
            tridiagonal.flat[:: step + 1] = alphas
            tridiagonal.flat[1 :: step + 1] = tridiagonal.flat[step :: step + 1] = betas[:-1]
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
    0.  Tiny negative rounding is clamped.  mu2 comes from Lanczos on the
    matchings with the constant vector deflated, so no V x V matrix is ever
    allocated; it is solved once per graph and shared with
    ``switching_walk``.
    """
    return max(0.0, 4.0 - graph._mu2)


def _distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)``.  NumPy 2's ``np.unique`` imports ``numpy.ma`` on
    its first call, about 20 ms of every ``cover`` command."""
    return _dedupe_sorted(np.sort(values))


def _dedupe_sorted(values: np.ndarray) -> np.ndarray:
    """The sorted array ``values`` with each run of equal entries cut to one."""
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _sorted_contains(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Membership of each of ``keys`` in the sorted array ``sorted_keys``."""
    if sorted_keys.size == 0:
        return np.zeros(keys.size, dtype=bool)
    at = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return sorted_keys[at] == keys


def _first_tangle_depth(adjacency: np.ndarray, roots: np.ndarray, depth_cut: int) -> int:
    """Smallest depth t <= depth_cut at which some root's ball has cycle rank above 1.

    Returns depth_cut + 1 when there is none.  ``adjacency`` is the (V, 4)
    array whose row v lists v's four neighbours.  The roots' breadth-first
    searches run side by side, one depth per step.  A (root, vertex) pair is
    the key slot * V + vertex, where slot is the root's place in ``roots``,
    so a key's owner is key // V, and each depth is a sorted key array.  A
    neighbour of a depth-t vertex lies at depth t - 1, t or t + 1, so the
    last two depths tell the three apart.  The edges that join the ball at
    depth t are those from depth t back to t - 1 and those inside depth t
    (seen from both ends), counted with their multiplicity, one adjacency
    entry per copy.  Each depth's neighbour keys are sorted once, so both
    membership lookups search with sorted queries, and the next depth is
    the survivors with adjacent repeats dropped.
    """
    nv = adjacency.shape[0]
    slots = roots.size
    level = np.arange(slots, dtype=np.int64) * nv + roots
    previous = np.empty(0, dtype=np.int64)
    rank = np.ones(slots, dtype=np.int64)
    for depth in range(depth_cut + 1):
        owner, vertex = np.divmod(level, nv)
        keys = adjacency[vertex]
        keys += (owner * nv)[:, None]
        keys = keys.ravel()
        keys.sort()
        back = _sorted_contains(previous, keys)
        inside = _sorted_contains(level, keys)
        rank += np.bincount(keys[back] // nv, minlength=slots)
        rank += np.bincount(keys[inside] // nv, minlength=slots) // 2
        rank -= np.bincount(owner, minlength=slots)
        if np.any(rank > 1):
            return depth
        if depth == depth_cut:
            break
        previous, level = level, _dedupe_sorted(keys[~(back | inside)])
        if level.size == 0:
            break
    return depth_cut + 1


def _ball_entries(depth: int, total: int) -> int:
    """Upper bound on the neighbour entries one root gathers up to ``depth``:
    four per vertex of its radius-``depth`` ball, which in a 4-regular graph
    holds at most 1 + 4 (1 + 3 + ... + 3^(depth - 1)) = 2 * 3^depth - 1
    vertices, and at most ``total`` entries in all."""
    ball = 2 * (NUM_COLORS - 1) ** min(depth, 64) - 1
    return min(total, ball * NUM_COLORS)


def tangle_free_radius(graph: DualGraph) -> int:
    """Largest T such that every radius-T ball of a dual graph has at most one cycle.

    The ball around a vertex is the subgraph induced by vertices within
    graph distance T; its cycle rank is edges - vertices + 1 (balls are
    connected), counting parallel edges.  ``graph`` must be a DualGraph;
    anything else raises DomainError.  The answer is capped at the vertex
    count, where every ball has saturated.

    Each root runs a breadth-first search over the rows of ``matchings.T``,
    copied once as a contiguous (V, 4) array, that stops at the running
    answer: a ball deeper than it can no longer lower it.  Roots go in
    batches sized by ``_ball_entries`` so that the sorted neighbour keys of
    a depth stay within ``_BFS_BATCH_ENTRIES``, unless one root's ball alone
    exceeds that; memory grows with the balls searched, not with V * V.
    """
    if not isinstance(graph, DualGraph):
        raise DomainError(f"expected a DualGraph, got {type(graph).__name__}")
    num_vertices = graph.num_vertices
    adjacency = np.ascontiguousarray(graph.matchings.T)
    best = num_vertices
    start = 0
    while best > 0 and start < num_vertices:
        batch = _BFS_BATCH_ENTRIES // _ball_entries(best, adjacency.size)
        stop = min(num_vertices, start + max(1, batch))
        roots = np.arange(start, stop, dtype=np.int64)
        best = min(best, _first_tangle_depth(adjacency, roots, best) - 1)
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
    nv = graph.num_vertices
    partner = graph.matchings + nv * (_table_signs(graph, signing) < 0)
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


def switching_walk(graph: DualGraph, steps: int, seed: int) -> list[tuple[str, float]]:
    """Random walk on signings by single-edge switchings.

    Starts from the all +1 signing, whose two-cover is a pair of disjoint
    copies with gap zero, flips one uniformly random edge per step, and
    records (signing hash, two-cover gap) for the initial signing and after
    every step: steps + 1 entries in all, reproducible from the seed, which
    must be a non-negative integer.

    The two-cover's spectrum is the base spectrum together with the signed
    spectrum, and the base's top eigenvalue is 4, so each gap is
    4 - max(mu2_old, mu1_new): mu2_old is the base graph's second eigenvalue,
    solved once per graph and shared with ``graph_lambda1``, and mu1_new the
    top eigenvalue of the signed adjacency, one Lanczos solve per step on the
    matchings with the signs laid out as a (4, V) array, from a fixed start
    vector, so a step's value depends on its signing alone.  No V x V matrix
    is built.
    """
    steps = check_count("steps", steps, 1)
    rng = np.random.default_rng(check_count("seed", seed, 0))
    signing = all_plus_signing(graph)
    mu2_old = graph._mu2

    def gap(current: Signing) -> float:
        mu1_new = _lanczos_top(graph.matchings, _table_signs(graph, current).astype(float))
        return max(0.0, 4.0 - max(mu2_old, mu1_new))

    trajectory = [(signing_hash(signing), gap(signing))]
    for _ in range(steps):
        edge_index = int(rng.integers(graph.num_edges))
        signing = simple_switching(signing, edge_index)
        trajectory.append((signing_hash(signing), gap(signing)))
    return trajectory


def check_histogram_bins(bins: int) -> int:
    """``bins`` as an int, if it is a positive integer whose walk histogram
    fits the byte limit; raises DomainError or MemoryGuardError otherwise.

    ``walk_summary`` calls it before binning, and a caller may call it
    before the walk, whose steps take far longer than the check.
    """
    bins = check_count("bins", bins, 1)
    check_bytes(f"a histogram of {bins} bins", bins * _SUMMARY_BYTES_PER_BIN)
    return bins


def walk_summary(
    n: int,
    seed: int,
    trajectory: Sequence[tuple[str, float]],
    *,
    bins: int = 20,
) -> dict:
    """JSON-ready record of a nonempty switching walk: series plus histogram.

    Raises MemoryGuardError, before binning, when bins is above about 18.8
    million (``check_histogram_bins``).
    """
    bins = check_histogram_bins(bins)
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


def _replacement_quotient(radius: int) -> tuple[np.ndarray, np.ndarray]:
    """The (3, 2r + 1) neighbour and weight table of a radius-r ball's quotient.

    K_d holds the ball's vertices at distance d entered through a K4, Y_d
    those entered through a y-edge.  Index r is the root, r + 1, r + 2, ...
    the arm K1, Y2, K3, ..., and r - 1, r - 2, ... the arm Y1, K2, Y3, ....
    Column i lists class i's left neighbour, itself and its right neighbour.
    Symmetrized with sqrt(B_ij * B_ji), each K-class has diagonal 2 and each
    Y-class and the root 0; a step into a K-class from the class nearer the
    root weighs sqrt(3), into a Y-class 1.  Along the path that is sqrt(3)
    between offsets e and e + 1 from the root for even e, and 1 for odd e.
    Steps past either end weigh 0.
    """
    size = 2 * radius + 1
    index = np.arange(size)
    offset = index - radius
    step = np.where(offset[:-1] % 2 == 0, math.sqrt(3.0), 1.0)
    weights = np.zeros((3, size))
    weights[0, 1:] = weights[2, :-1] = step
    # K1, K3, ... right of the root, K2, K4, ... left of it
    weights[1, (offset != 0) & ((offset > 0) == (offset % 2 == 1))] = 2.0
    neighbors = np.stack([np.maximum(index - 1, 0), index, np.minimum(index + 1, size - 1)])
    return neighbors, weights


def dirichlet_rho(radius: int) -> float:
    """Largest adjacency eigenvalue of a radius-r ball of the replacement-product graph.

    The graph is the Cayley graph of (Z/4) * (Z/2) with generating set
    {x, x^2, x^3, y}: complete graphs on the four-element cosets of x, glued
    along a 4-regular tree by the y edges.  Restricting to a finite ball only
    loses mass, so this is a lower bound for the infinite graph's spectral
    radius 4 - ``geometry.REPLACEMENT_GRAPH_GAP``, nondecreasing in r.

    The ball's vertices split into 2r + 1 classes, the root and for each
    distance d one class entered through a K4 and one through a y-edge, and
    the split is equitable: every vertex of a class has the same number of
    neighbours in each class.  So the top eigenvalue of the ball is the
    Perron root of the quotient (Brouwer and Haemers, *Spectra of Graphs*,
    2012, section 2.3), which ``_lanczos_top`` solves on the table of
    ``_replacement_quotient``.  Raises DomainError, before allocating, when
    2r + 1 exceeds the Lanczos step limit (r above 1499).
    """
    radius = check_count("radius", radius, 0)
    if 2 * radius + 1 > _LANCZOS_MAX_STEPS:
        raise DomainError(
            f"radius must be at most {(_LANCZOS_MAX_STEPS - 1) // 2}, got {radius}"
        )
    return _lanczos_top(*_replacement_quotient(radius))
