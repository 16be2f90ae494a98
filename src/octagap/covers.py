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
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .errors import DomainError, SetupError

__all__ = [
    "NUM_COLORS",
    "REPLACEMENT_SPECTRAL_RADIUS",
    "Matching",
    "CoverPresentation",
    "Edge",
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
_DENSE_EIGEN_CUTOFF = 2000
_EIGSH_TOL = 1e-9


def _validate_count(name: str, value: int, minimum: int) -> int:
    if not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{name} must be at least {minimum}, got {value}")
    return int(value)


@dataclass(frozen=True, eq=False)
class Matching:
    """A perfect matching on an even point set, stored as its involution.

    ``perm[j]`` is the partner of point ``j``; the array is a fixed point
    free involution, which is checked at construction.
    """

    perm: np.ndarray

    def __post_init__(self) -> None:
        perm = np.asarray(self.perm, dtype=np.int64)
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


class Edge(NamedTuple):
    """A colored dual-graph edge with endpoints u < v."""

    u: int
    v: int
    color: int


@dataclass(frozen=True, eq=False)
class DualGraph:
    """The 4-regular colored dual graph of a cover presentation.

    Vertices 0 .. num_vertices - 1 are the octahedron copies; each color
    class is a perfect matching, so the graph is loop free and exactly
    4-regular, with parallel edges allowed.
    """

    num_vertices: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        nv = _validate_count("num_vertices", self.num_vertices, 2)
        if nv % 2 != 0:
            raise DomainError(f"num_vertices must be even, got {nv}")
        seen: dict[int, set[int]] = {color: set() for color in range(1, NUM_COLORS + 1)}
        for edge in self.edges:
            if not 0 <= edge.u < edge.v < nv:
                raise DomainError(f"edge {edge} is not an ordered pair of distinct vertices")
            touched = seen.get(edge.color)
            if touched is None:
                raise DomainError(f"edge color must lie in 1 .. {NUM_COLORS}, got {edge.color}")
            if edge.u in touched or edge.v in touched:
                raise DomainError(f"color {edge.color} touches a vertex twice")
            touched.add(edge.u)
            touched.add(edge.v)
        for color, touched in seen.items():
            if len(touched) != nv:
                raise DomainError(f"color {color} is not a perfect matching on the vertices")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def neighbor_lists(self) -> list[list[int]]:
        """Adjacency lists with parallel edges repeated."""
        lists: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for u, v, _ in self.edges:
            lists[u].append(v)
            lists[v].append(u)
        return lists


@dataclass(frozen=True, eq=False)
class Signing:
    """A sign per dual-graph edge, aligned with ``DualGraph.edges`` order."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.int8)
        if values.ndim != 1:
            raise DomainError(f"signing needs a 1-d sign array, got shape {values.shape}")
        if not np.all(np.abs(values) == 1):
            raise DomainError("signing entries must be +1 or -1")
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
    n = _validate_count("n", n, 1)
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
    edges = []
    for index, matching in enumerate(cover.sigma):
        color = index + 1
        for u, v in matching.pairs():
            edges.append(Edge(u, v, color))
    return DualGraph(2 * cover.n, tuple(edges))


def adjacency_matrix(graph: DualGraph, signing: Signing | None = None) -> np.ndarray:
    """Dense adjacency matrix, entries multiplied by edge signs if given."""
    if signing is not None and signing.num_edges != graph.num_edges:
        raise DomainError(
            f"signing covers {signing.num_edges} edges, graph has {graph.num_edges}"
        )
    matrix = np.zeros((graph.num_vertices, graph.num_vertices))
    for index, (u, v, _) in enumerate(graph.edges):
        weight = 1.0 if signing is None else float(signing.values[index])
        matrix[u, v] += weight
        matrix[v, u] += weight
    return matrix


def is_connected(graph: DualGraph) -> bool:
    """Whether the dual graph is connected (breadth-first search)."""
    lists = graph.neighbor_lists()
    seen = np.zeros(graph.num_vertices, dtype=bool)
    queue = deque([0])
    seen[0] = True
    while queue:
        u = queue.popleft()
        for v in lists[u]:
            if not seen[v]:
                seen[v] = True
                queue.append(v)
    return bool(seen.all())


def _second_largest_eigenvalue(matrix: np.ndarray) -> float:
    nv = matrix.shape[0]
    if nv < _DENSE_EIGEN_CUTOFF:
        eigenvalues = np.linalg.eigvalsh(matrix)
        return float(eigenvalues[-2])
    operator = csr_matrix(matrix)
    start = np.full(nv, 1.0 / math.sqrt(nv))
    try:
        top_two = eigsh(
            operator, k=2, which="LA", tol=_EIGSH_TOL, v0=start, return_eigenvectors=False
        )
    except ArpackNoConvergence as exc:
        converged = np.sort(exc.eigenvalues) if exc.eigenvalues is not None else []
        raise SetupError(
            f"eigensolver did not converge to tolerance {_EIGSH_TOL}; "
            f"converged eigenvalues {list(map(float, converged))}"
        ) from exc
    return float(np.sort(top_two)[0])


def graph_lambda1(graph: DualGraph) -> float:
    """Adjacency spectral gap 4 - mu2 of a 4-regular graph.

    mu2 is the second largest adjacency eigenvalue with multiplicity; the
    top eigenvalue of a 4-regular graph is 4, so the gap vanishes exactly
    when the graph is disconnected.  Tiny negative rounding is clamped.
    """
    return max(0.0, 4.0 - _second_largest_eigenvalue(adjacency_matrix(graph)))


def _graph_data(graph) -> tuple[int, list[tuple[int, int]]]:
    if isinstance(graph, DualGraph):
        return graph.num_vertices, [(u, v) for u, v, _ in graph.edges]
    try:
        num_vertices, edge_seq = graph
    except (TypeError, ValueError):
        raise DomainError(
            f"expected a DualGraph or a (num_vertices, edges) pair, got {graph!r}"
        ) from None
    num_vertices = _validate_count("num_vertices", num_vertices, 1)
    pairs = []
    for edge in edge_seq:
        u, v = edge[0], edge[1]
        if not (0 <= u < num_vertices and 0 <= v < num_vertices and u != v):
            raise DomainError(f"edge {edge!r} is not a pair of distinct vertices")
        pairs.append((int(u), int(v)))
    return num_vertices, pairs


def tangle_free_radius(graph, *, max_radius: int | None = None) -> int:
    """Largest T such that every radius-T ball has at most one cycle.

    The ball around a vertex is the subgraph induced by vertices within
    graph distance T; its cycle rank is edges - vertices + 1 (balls are
    connected), counting parallel edges.  ``graph`` may be a DualGraph or
    a plain ``(num_vertices, edges)`` pair, so pruned subgraphs can be
    measured too.  Cycle free graphs return ``max_radius``, which defaults
    to the vertex count (every ball has saturated by then).
    """
    num_vertices, pairs = _graph_data(graph)
    if max_radius is None:
        max_radius = num_vertices
    max_radius = _validate_count("max_radius", max_radius, 0)
    if not pairs:
        return max_radius
    rows = np.array([u for u, _ in pairs] + [v for _, v in pairs])
    cols = np.array([v for _, v in pairs] + [u for u, _ in pairs])
    adjacency = csr_matrix(
        (np.ones(rows.size), (rows, cols)), shape=(num_vertices, num_vertices)
    )
    distances = shortest_path(adjacency, method="D", unweighted=True)
    edge_u = np.array([u for u, _ in pairs])
    edge_v = np.array([v for _, v in pairs])
    best = max_radius
    for root in range(num_vertices):
        dist = distances[root]
        reachable = np.isfinite(dist)
        vertex_depth = dist[reachable].astype(np.int64)
        edge_depth = np.maximum(dist[edge_u], dist[edge_v])
        edge_depth = edge_depth[np.isfinite(edge_depth)].astype(np.int64)
        horizon = min(int(vertex_depth.max()), best)
        vertex_counts = np.cumsum(np.bincount(vertex_depth, minlength=horizon + 1)[: horizon + 1])
        edge_counts = np.cumsum(
            np.bincount(edge_depth, minlength=horizon + 1)[: horizon + 1]
        )
        rank = edge_counts - vertex_counts + 1
        violations = np.nonzero(rank > 1)[0]
        if violations.size:
            best = min(best, int(violations[0]) - 1)
            if best == 0:
                return 0
    return best


def all_plus_signing(graph: DualGraph) -> Signing:
    """The trivial signing: +1 on every edge."""
    return Signing(np.ones(graph.num_edges, dtype=np.int8))


def signing_hash(signing: Signing) -> str:
    """Hex digest identifying a signing (sha256 of the sign bytes)."""
    return hashlib.sha256(signing.values.tobytes()).hexdigest()


def simple_switching(signing: Signing, edge_index: int) -> Signing:
    """Flip the sign of one edge; switching the same edge twice restores."""
    edge_index = _validate_count("edge_index", edge_index, 0)
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
    on twice the vertices.
    """
    if signing.num_edges != graph.num_edges:
        raise DomainError(
            f"signing covers {signing.num_edges} edges, graph has {graph.num_edges}"
        )
    shift = graph.num_vertices
    lifted = []
    for index, (u, v, color) in enumerate(graph.edges):
        if signing.values[index] > 0:
            first, second = (u, v), (u + shift, v + shift)
        else:
            first, second = (u, v + shift), (v, u + shift)
        lifted.append(Edge(min(first), max(first), color))
        lifted.append(Edge(min(second), max(second), color))
    return DualGraph(2 * shift, tuple(lifted))


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
    """
    steps = _validate_count("steps", steps, 1)
    if seed is None:
        seed = int(np.random.SeedSequence().entropy)
    rng = np.random.default_rng(seed)
    signing = all_plus_signing(graph) if start is None else start
    if signing.num_edges != graph.num_edges:
        raise DomainError(
            f"start signing covers {signing.num_edges} edges, graph has {graph.num_edges}"
        )
    old = np.linalg.eigvalsh(adjacency_matrix(graph))

    def gap(current: Signing) -> float:
        new = np.linalg.eigvalsh(adjacency_matrix(graph, current))
        combined = np.sort(np.concatenate([old, new]))
        return max(0.0, 4.0 - float(combined[-2]))

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
    """JSON-ready record of a switching walk: series plus histogram."""
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
    radius = _validate_count("radius", radius, 0)
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
    rows = np.array([u for u, _ in ball.edges] + [v for _, v in ball.edges])
    cols = np.array([v for _, v in ball.edges] + [u for u, _ in ball.edges])
    if nv < _DENSE_EIGEN_CUTOFF:
        matrix = np.zeros((nv, nv))
        matrix[rows, cols] = 1.0
        return float(np.linalg.eigvalsh(matrix)[-1])
    operator = csr_matrix((np.ones(rows.size), (rows, cols)), shape=(nv, nv))
    start = np.full(nv, 1.0 / math.sqrt(nv))
    try:
        top = eigsh(operator, k=1, which="LA", tol=_EIGSH_TOL, v0=start, return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise SetupError(
            f"eigensolver did not converge to tolerance {_EIGSH_TOL} on the radius "
            f"{ball.radius} ball"
        ) from exc
    return float(top[0])


def export_edges_csv(graph: DualGraph, path, signing: Signing | None = None) -> None:
    """Write the edge list as CSV rows (u, v, color, sign)."""
    if signing is not None and signing.num_edges != graph.num_edges:
        raise DomainError(
            f"signing covers {signing.num_edges} edges, graph has {graph.num_edges}"
        )
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["u", "v", "color", "sign"])
        for index, (u, v, color) in enumerate(graph.edges):
            sign = 1 if signing is None else int(signing.values[index])
            writer.writerow([u, v, color, sign])


def export_spectra_csv(old: np.ndarray, new: np.ndarray, path) -> None:
    """Write old and new two-cover eigenvalues as CSV columns."""
    if len(old) != len(new):
        raise DomainError(f"spectra lengths differ: {len(old)} vs {len(new)}")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["index", "old", "new"])
        for index, (a, b) in enumerate(zip(old, new)):
            writer.writerow([index, format(float(a), ".12g"), format(float(b), ".12g")])
