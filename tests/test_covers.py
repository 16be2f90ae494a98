"""Tests for random matching covers, dual graphs, signings, and the replacement radius."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path
from scipy.sparse.linalg import eigsh

from octagap import covers, errors
from octagap.covers import (
    NUM_COLORS,
    DualGraph,
    Signing,
    adjacency_matrix,
    all_plus_signing,
    dirichlet_rho,
    dual_graph,
    graph_lambda1,
    is_connected,
    lift_graph,
    sample_cover,
    signing_hash,
    simple_switching,
    switching_walk,
    tangle_free_radius,
    two_cover_lambda1,
    two_cover_spectra,
    walk_summary,
)
from octagap.cli import EXIT_OK, main
from octagap.errors import DomainError, MemoryGuardError, SetupError
from octagap.geometry import REPLACEMENT_GRAPH_GAP

REPLACEMENT_SPHERES = (1, 4, 6, 12, 18, 36, 54, 108, 162, 324, 486, 972, 1458)
RHO_AT_RADIUS_12 = 3.8644306520169893
#: lambda1 of ``dual_graph(sample_cover(3000, 7))``, as the benchmark's
#: reference records it (ARPACK ``eigsh``, tolerance 1e-9).
LAMBDA1_N3000_SEED7 = 0.5380668087719562


def _two_vertex_graph():
    """Two vertices joined by four parallel edges, one of each color."""
    return DualGraph(np.array([[1, 0]] * NUM_COLORS))


def _disjoint_pair_graph():
    return DualGraph(np.array([[1, 0, 3, 2]] * NUM_COLORS))


def _complete_bipartite_graph():
    """K_{4,4}: color c joins i and 4 + (i + c) % 4 for i < 4."""
    left = np.arange(4)
    rows = [np.concatenate([4 + (left + c) % 4, (left - c) % 4]) for c in range(NUM_COLORS)]
    return DualGraph(np.array(rows))


def _octahedron_graph():
    """K_{2,2,2}: K_6 less the matching {0, 5}, {1, 4}, {2, 3}, colored by
    the other four matchings of the standard 1-factorization of K_6."""
    return DualGraph(
        np.array([[2, 5, 0, 4, 3, 1], [4, 3, 5, 1, 0, 2], [1, 0, 4, 5, 2, 3], [3, 2, 1, 0, 5, 4]])
    )


def _theta_lift_graph(length, voltages):
    """The Z_length lift of the two-vertex graph along one voltage per color:
    color c joins left vertex i to right vertex length + (i + voltages[c]) % length."""
    left = np.arange(length)
    rows = [np.concatenate([length + (left + s) % length, (left - s) % length]) for s in voltages]
    return DualGraph(np.array(rows))


def _disjoint_union(first, *rest):
    """The dual graphs side by side, each one's vertices shifted past the previous ones'."""
    blocks, offset = [], 0
    for graph in (first, *rest):
        blocks.append(graph.matchings + offset)
        offset += graph.num_vertices
    return DualGraph(np.hstack(blocks))


def _edge_triples(graph):
    """The graph's edges as (u, v, color) tuples of Python ints, in edge order."""
    return list(zip(*(column.tolist() for column in graph.edges())))


def _dual_graph_edges_twin(table):
    """Per-pair twin of ``dual_graph(table).edges()``: each color's matched
    pairs (u, v) with u < v in ascending u, color by color."""
    edges = []
    for index, row in enumerate(table.tolist()):
        for u, v in enumerate(row):
            if u < v:
                edges.append((u, v, index + 1))
    return edges


def _lift_edges_twin(num_vertices, edges, signs):
    """Per-edge twin of ``lift_graph``: a +1 edge lifts to its two
    parallel-sheet copies, a -1 edge to the two sheet-crossing copies."""
    lifted = []
    for (u, v, color), sign in zip(edges, signs):
        if sign > 0:
            first, second = (u, v), (u + num_vertices, v + num_vertices)
        else:
            first, second = (u, v + num_vertices), (v, u + num_vertices)
        lifted.append((min(first), max(first), color))
        lifted.append((min(second), max(second), color))
    return lifted


def _adjacency_twin(num_vertices, edges, signs):
    """Per-edge twin of ``adjacency_matrix``: add each edge's sign at (u, v) and (v, u)."""
    matrix = np.zeros((num_vertices, num_vertices))
    for (u, v, _), sign in zip(edges, signs):
        matrix[u, v] += float(sign)
        matrix[v, u] += float(sign)
    return matrix


def _arpack_lambda1(graph):
    """CSR and ARPACK twin of ``graph_lambda1``: k=2 ``eigsh`` (largest
    algebraic, tolerance 1e-9) on the sparse adjacency built from the edges."""
    edge_u, edge_v, _ = graph.edges()
    rows = np.concatenate([edge_u, edge_v])
    cols = np.concatenate([edge_v, edge_u])
    nv = graph.num_vertices
    adjacency = csr_matrix((np.ones(rows.size), (rows, cols)), shape=(nv, nv))
    start = np.random.default_rng(0).standard_normal(nv)
    top = eigsh(adjacency, k=2, which="LA", tol=1e-9, v0=start, return_eigenvectors=False)
    return max(0.0, 4.0 - float(np.sort(top)[0]))


def _all_pairs_tangle_free_radius(num_vertices, pairs, cap=None):
    """Brute-force twin of ``tangle_free_radius``: all-pairs distances, every root.

    Builds the full V x V distance matrix, then reads each root's ball
    sizes off it; only meant for the small graphs the tests compare on.
    The answer is capped at ``cap``, by default the vertex count.
    """
    if cap is None:
        cap = num_vertices
    if not pairs:
        return cap
    rows = np.array([u for u, _ in pairs] + [v for _, v in pairs])
    cols = np.array([v for _, v in pairs] + [u for u, _ in pairs])
    adjacency = csr_matrix(
        (np.ones(rows.size), (rows, cols)), shape=(num_vertices, num_vertices)
    )
    distances = shortest_path(adjacency, method="D", unweighted=True)
    edge_u = np.array([u for u, _ in pairs])
    edge_v = np.array([v for _, v in pairs])
    best = cap
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


def _pairs(graph):
    return [(u, v) for u, v, _ in _edge_triples(graph)]


#: Handmade dual graphs: four parallel edges, two copies of them, the
#: octahedron, K_{4,4}, and K_{4,4} beside the octahedron.
HANDMADE_GRAPHS = (
    _two_vertex_graph(),
    _disjoint_pair_graph(),
    _octahedron_graph(),
    _complete_bipartite_graph(),
    _disjoint_union(_complete_bipartite_graph(), _octahedron_graph()),
)


# -- matchings -------------------------------------------------------------------


def _with_first_row(row):
    """A table whose color-1 row is ``row`` and whose other rows pair 0-1, 2-3, ...."""
    paired = np.arange(len(row)) ^ 1
    return np.array([row, paired, paired, paired])


def test_matching_accepts_fixed_point_free_involutions():
    graph = DualGraph(_with_first_row([2, 3, 0, 1]))
    assert graph.num_vertices == 4
    assert _edge_triples(graph)[:2] == [(0, 2, 1), (1, 3, 1)]


def test_matching_rejects_degenerate_arrays():
    """``DualGraph`` checks every row of the table at once: an odd or empty
    point set, an entry off the points, a fixed point, a repeated entry and
    a permutation that is not its own inverse are all refused."""
    cases = [
        ([[0, 1, 2]] * NUM_COLORS, "even point set"),
        (np.zeros((NUM_COLORS, 0), dtype=np.int64), "even point set"),
        (_with_first_row([1, 0, 3, 4]), "points 0 .. 3"),
        (_with_first_row([1, 0, 3, -1]), "points 0 .. 3"),
        (_with_first_row([0, 1, 3, 2]), "fixed point"),
        (_with_first_row([1, 0, 0, 2]), "involution"),
        (_with_first_row([1, 2, 3, 0]), "involution"),
    ]
    for rows, message in cases:
        with pytest.raises(DomainError, match=message):
            DualGraph(rows)
    # a bad row is found wherever it sits in the table
    rows = _with_first_row([1, 0, 3, 2])
    rows[3] = [1, 2, 3, 0]
    with pytest.raises(DomainError, match="involution"):
        DualGraph(rows)


def test_matching_rejects_non_integer_dtypes():
    """Floats are not truncated and bools are not read as 0 and 1; any
    integer dtype is read as int64."""
    for rows in ([[1.9, 0.2]] * NUM_COLORS, [[1.0, 0.0]] * NUM_COLORS):
        with pytest.raises(DomainError, match="integers"):
            DualGraph(np.array(rows))
    with pytest.raises(DomainError, match="integers"):
        DualGraph(np.array([[True, False]] * NUM_COLORS))
    graph = DualGraph(np.array([[1, 0]] * NUM_COLORS, dtype=np.uint8))
    assert graph.matchings.dtype == np.int64
    assert graph.matchings.tolist() == [[1, 0]] * NUM_COLORS


def test_matching_array_is_immutable():
    table = sample_cover(4, 1)
    with pytest.raises(ValueError):
        table[0, 0] = 1
    graph = dual_graph(table)
    with pytest.raises(ValueError):
        graph.matchings[0, 0] = 1


def test_matching_leaves_the_callers_array_writable():
    rows = np.array([[1, 0]] * NUM_COLORS)
    graph = DualGraph(rows)
    assert rows.flags.writeable
    rows[0, 0] = 0
    assert graph.matchings.tolist() == [[1, 0]] * NUM_COLORS


@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_sample_cover_draws_valid_presentations(n, seed):
    table = sample_cover(n, seed)
    assert isinstance(table, np.ndarray)
    assert table.shape == (NUM_COLORS, 2 * n)
    assert table.dtype == np.int64
    assert not table.flags.writeable
    assert np.array_equal(dual_graph(table).matchings, table)


def test_sample_cover_is_reproducible():
    a, b = sample_cover(25, 99), sample_cover(25, 99)
    assert np.array_equal(a, b)
    c = sample_cover(25, 100)
    assert not np.array_equal(a, c)


def test_sample_cover_rejects_bad_sizes():
    for n in (0, -3, True, 2.0):
        with pytest.raises(DomainError):
            sample_cover(n, 7)


@pytest.mark.parametrize("seed", [True, -1, 1.5, "7", None])
def test_seeded_functions_reject_seeds_that_are_not_non_negative_integers(seed):
    graph = dual_graph(sample_cover(3, 1))
    with pytest.raises(DomainError, match="seed"):
        sample_cover(3, seed)
    with pytest.raises(DomainError, match="seed"):
        switching_walk(graph, 1, seed)


def test_matchings_on_six_points_are_close_to_uniform():
    """A chi-square test over the 15 matchings on 6 points at 2000 draws."""
    counts = {}
    for seed in range(2000):
        key = tuple(sample_cover(3, seed)[0].tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 15
    result = scipy.stats.chisquare(list(counts.values()))
    assert result.pvalue > 0.001


# -- dual graphs -----------------------------------------------------------------


def test_dual_graph_of_a_cover_is_four_regular():
    graph = dual_graph(sample_cover(20, 7))
    assert graph.num_vertices == 40
    assert graph.num_edges == 80
    degrees = [0] * graph.num_vertices
    for u, v, _ in _edge_triples(graph):
        degrees[u] += 1
        degrees[v] += 1
    assert all(d == 4 for d in degrees)


def test_dual_graph_colors_partition_into_perfect_matchings():
    graph = dual_graph(sample_cover(15, 3))
    for color in range(1, 5):
        touched = [x for u, v, c in _edge_triples(graph) if c == color for x in (u, v)]
        assert sorted(touched) == list(range(graph.num_vertices))


def test_dual_graph_validation():
    matched = [1, 0]
    # a loop: color 1 fixes both vertices
    with pytest.raises(DomainError):
        DualGraph(np.array([[0, 1]] + [matched] * 3))
    # a wrong number of colors
    with pytest.raises(DomainError):
        DualGraph(np.array([matched] * 5))
    with pytest.raises(DomainError):
        DualGraph(np.array([matched] * 3))
    # an odd vertex count
    with pytest.raises(DomainError):
        DualGraph(np.array([[1, 0, 2]] * 4))
    # color 1 touches vertex 1 twice
    with pytest.raises(DomainError):
        DualGraph(np.array([[1, 1]] + [matched] * 3))
    # float and bool rows
    with pytest.raises(DomainError):
        DualGraph(np.array([matched] * 4, dtype=float))
    with pytest.raises(DomainError):
        DualGraph(np.array([matched] * 4, dtype=bool))
    # ragged rows
    with pytest.raises(DomainError):
        DualGraph([matched, matched, matched, [1, 0, 3, 2]])


def test_dual_graph_stores_one_read_only_array():
    graph = _disjoint_pair_graph()
    assert graph.matchings.shape == (NUM_COLORS, 4)
    assert graph.matchings.dtype == np.int64
    with pytest.raises(ValueError):
        graph.matchings[0, 0] = 1
    assert (graph.num_vertices, graph.num_edges) == (4, 8)


@pytest.mark.parametrize("n", [1, 5, 300])
def test_edges_match_the_per_pair_twin(n):
    """Edge order (color by color, ascending smaller endpoint) is what signings index."""
    for seed in range(4):
        table = sample_cover(n, seed)
        graph = dual_graph(table)
        assert all(column.dtype == np.int64 for column in graph.edges())
        assert _edge_triples(graph) == _dual_graph_edges_twin(table)


@pytest.mark.parametrize("n", [1, 5, 30])
def test_adjacency_matrix_is_bitwise_equal_to_a_per_edge_loop(n):
    rng = np.random.default_rng(n)
    for seed in range(3):
        graph = dual_graph(sample_cover(n, seed))
        nv, edges = graph.num_vertices, _edge_triples(graph)
        unsigned = _adjacency_twin(nv, edges, [1] * len(edges))
        assert adjacency_matrix(graph).tobytes() == unsigned.tobytes()
        signs = rng.choice([-1, 1], size=graph.num_edges)
        signed = _adjacency_twin(nv, edges, signs)
        assert adjacency_matrix(graph, Signing(signs)).tobytes() == signed.tobytes()


@pytest.mark.parametrize("n", [1, 5, 30])
def test_lift_graph_matches_the_per_edge_twin(n):
    """The lift's edge multiset equals the twin's, and so does its dense adjacency."""
    rng = np.random.default_rng(100 + n)
    for seed in range(3):
        graph = dual_graph(sample_cover(n, seed))
        signs = rng.choice([-1, 1], size=graph.num_edges)
        lift = lift_graph(graph, Signing(signs))
        twin = _lift_edges_twin(graph.num_vertices, _edge_triples(graph), signs)
        assert lift.num_vertices == 2 * graph.num_vertices
        assert sorted(_edge_triples(lift)) == sorted(twin)
        dense = _adjacency_twin(lift.num_vertices, twin, [1] * len(twin))
        assert adjacency_matrix(lift).tobytes() == dense.tobytes()


def test_adjacency_matrix_is_symmetric_with_row_sums_four():
    graph = dual_graph(sample_cover(12, 5))
    a = adjacency_matrix(graph)
    assert np.array_equal(a, a.T)
    assert np.all(a.sum(axis=0) == 4)
    signed = adjacency_matrix(graph, all_plus_signing(graph))
    assert np.array_equal(signed, a)


def test_connectivity_detection():
    assert is_connected(_two_vertex_graph())
    assert not is_connected(_disjoint_pair_graph())


def test_lambda1_vanishes_exactly_on_disconnected_graphs():
    assert graph_lambda1(_disjoint_pair_graph()) == 0.0
    union = _disjoint_union(dual_graph(sample_cover(20, 1)), dual_graph(sample_cover(30, 2)))
    assert union.num_vertices == 100
    assert not is_connected(union)
    assert graph_lambda1(union) == 0.0
    assert all(gap == 0.0 for _, gap in switching_walk(union, 3, seed=1))
    assert graph_lambda1(_two_vertex_graph()) == pytest.approx(8.0, abs=1e-12)
    graph = dual_graph(sample_cover(30, 11))
    if is_connected(graph):
        assert graph_lambda1(graph) > 0.0


def test_connectivity_is_searched_once_per_graph(monkeypatch):
    """``is_connected`` and ``graph_lambda1`` read one cached search."""
    searches = []
    distinct = covers._distinct
    monkeypatch.setattr(covers, "_distinct", lambda values: searches.append(1) or distinct(values))
    graph = dual_graph(sample_cover(50, 3))
    assert is_connected(graph)
    assert searches
    done = len(searches)
    assert graph_lambda1(graph) > 0.0
    assert is_connected(graph)
    assert len(searches) == done


def test_lambda1_sparse_path_matches_the_dense_path():
    """Lanczos on the matchings against every eigenvalue of the dense adjacency."""
    for n, seed in ((30, 2), (300, 7), (1100, 4)):
        graph = dual_graph(sample_cover(n, seed))
        mu2 = float(np.linalg.eigvalsh(adjacency_matrix(graph))[-2])
        assert abs(graph_lambda1(graph) - max(0.0, 4.0 - mu2)) < 1e-12


def test_lambda1_matches_the_arpack_twin_on_the_bench_cover():
    graph = dual_graph(sample_cover(3000, 7))
    assert abs(graph_lambda1(graph) - LAMBDA1_N3000_SEED7) < 1e-9
    assert abs(_arpack_lambda1(graph) - LAMBDA1_N3000_SEED7) < 1e-9


def test_lambda1_repeats_bit_for_bit_on_the_sparse_path():
    """A fresh graph each time, since a graph keeps its solved mu2."""
    values = {graph_lambda1(dual_graph(sample_cover(1000, 1))).hex() for _ in range(3)}
    assert len(values) == 1


def test_lambda1_and_the_walk_repeat_bit_for_bit_at_any_thread_count():
    script = (
        "from octagap.covers import dual_graph, graph_lambda1, sample_cover, switching_walk\n"
        "graph = dual_graph(sample_cover(1000, 3))\n"
        "print(graph_lambda1(graph).hex(), *(g.hex() for _, g in switching_walk(graph, 3, 5)))\n"
    )
    src = str(Path(covers.__file__).resolve().parents[1])
    outputs = set()
    for threads in ("1", "2"):
        env = dict(
            os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert result.returncode == 0, result.stderr
        outputs.add(result.stdout)
    assert len(outputs) == 1


def test_lanczos_past_its_step_cap_raises_setup_error(monkeypatch):
    graph = dual_graph(sample_cover(300, 7))
    monkeypatch.setattr(covers, "_LANCZOS_MAX_STEPS", 15)
    with pytest.raises(SetupError):
        graph_lambda1(graph)


def test_large_cover_path_never_builds_a_dense_matrix(monkeypatch):
    """lambda1, connectivity, the radius and the walk form no V x V matrix."""
    graph = dual_graph(sample_cover(1100, 4))

    def refuse(*args, **kwargs):
        raise AssertionError("dense adjacency built on the sparse path")

    def refuse_size(solver):
        def guarded(matrix, *args, **kwargs):
            if len(matrix) >= graph.num_vertices:
                raise AssertionError(f"{len(matrix)} x {len(matrix)} eigenproblem")
            return solver(matrix, *args, **kwargs)

        return guarded

    monkeypatch.setattr(covers, "adjacency_matrix", refuse)
    monkeypatch.setattr(covers, "_dense", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse_size(np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "eigh", refuse_size(np.linalg.eigh))
    assert 0.0 < graph_lambda1(graph) < 8.0
    assert is_connected(graph)
    assert tangle_free_radius(graph) >= 0
    assert len(switching_walk(graph, 2, seed=1)) == 3


def test_dense_adjacency_is_refused_above_the_byte_limit(monkeypatch):
    graph = dual_graph(sample_cover(20, 5))
    nbytes = graph.num_vertices**2 * 8
    monkeypatch.setattr(errors, "BYTE_LIMIT", nbytes)
    assert adjacency_matrix(graph).shape == (40, 40)
    monkeypatch.setattr(errors, "BYTE_LIMIT", nbytes - 1)
    signing = all_plus_signing(graph)
    with pytest.raises(MemoryGuardError):
        adjacency_matrix(graph)
    with pytest.raises(MemoryGuardError):
        two_cover_spectra(graph, signing)
    assert len(switching_walk(graph, 1, seed=1)) == 2


def test_dense_adjacency_of_a_large_cover_fails_before_allocating(monkeypatch):
    """12,000 vertices would need 1.07 GiB; the guard raises before np.zeros."""
    graph = dual_graph(sample_cover(6000, 1))

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the guard")

    monkeypatch.setattr(np, "zeros", refuse)
    with pytest.raises(MemoryGuardError):
        adjacency_matrix(graph)


class _Reached(Exception):
    """Raised in place of the first numpy call past a guard."""


def _reach(*args, **kwargs):
    raise _Reached


def test_cover_and_histogram_sizes_are_refused_before_allocating(monkeypatch):
    """n = 10^13 and 10^13 bins raise MemoryGuardError before numpy is asked
    for anything; n = 10^6 and 10^6 bins pass the guards and reach the
    shuffle and the binning."""
    monkeypatch.setattr(np.random, "default_rng", _reach)
    monkeypatch.setattr(np, "histogram", _reach)
    with pytest.raises(MemoryGuardError, match="GiB"):
        sample_cover(10**13, 1)
    with pytest.raises(_Reached):
        sample_cover(10**6, 1)
    walk = [("a", 0.0), ("b", 1.0)]
    with pytest.raises(MemoryGuardError, match="GiB"):
        walk_summary(3, 1, walk, bins=10**13)
    with pytest.raises(_Reached):
        walk_summary(3, 1, walk, bins=10**6)


# -- tangle-free radius ------------------------------------------------------------


def test_tangle_free_radius_on_known_graphs():
    """Parallel edges and the octahedron's triangles tangle the radius-1
    balls; K_{4,4}'s radius-1 balls are stars and its radius-2 ball is the
    whole graph, of cycle rank 9."""
    assert tangle_free_radius(_two_vertex_graph()) == 0
    assert tangle_free_radius(_disjoint_pair_graph()) == 0
    assert tangle_free_radius(_octahedron_graph()) == 0
    k44 = _complete_bipartite_graph()
    assert tangle_free_radius(k44) == 1
    assert tangle_free_radius(_disjoint_union(k44, k44)) == 1
    assert tangle_free_radius(_disjoint_union(k44, _two_vertex_graph())) == 0


def test_tangle_free_radius_of_a_long_subdivided_theta():
    """The two-vertex graph is a theta with four arcs; its Z_m lift unrolls
    it into a long chain.  With voltages 0, 1, 3, 7, whose differences are
    distinct, the chain has no 4-cycle and every radius-2 ball stays a tree
    or a single cycle, so the radius is 2 however long the chain; repeating
    a difference (voltages 0, 1, 2, 3) closes 4-cycles and it drops to 1."""
    for length in (15, 30, 200):
        graph = _theta_lift_graph(length, (0, 1, 3, 7))
        assert tangle_free_radius(graph) == 2
    graph = _theta_lift_graph(30, (0, 1, 3, 7))
    assert tangle_free_radius(graph) == _all_pairs_tangle_free_radius(60, _pairs(graph))
    assert tangle_free_radius(_theta_lift_graph(30, (0, 1, 2, 3))) == 1


def test_tangle_free_radius_matches_on_sampled_covers():
    graph = dual_graph(sample_cover(200, 13))
    radius = tangle_free_radius(graph)
    assert isinstance(radius, int)
    assert radius >= 0
    assert radius == _all_pairs_tangle_free_radius(graph.num_vertices, _pairs(graph))


@pytest.mark.parametrize("depth_cut", [None, 0, 1, 2, 3, 5, 11, 100])
@pytest.mark.parametrize(
    "graph", HANDMADE_GRAPHS, ids=lambda g: f"V{g.num_vertices}E{g.num_edges}"
)
def test_tangle_free_radius_matches_the_all_pairs_twin_on_handmade_graphs(graph, depth_cut):
    """The radius itself (no cut), and the search that ``tangle_free_radius``
    cuts at its running answer, run from every root at once with the cut
    given: one less than the first tangled depth, or the cut if none is."""
    if depth_cut is None:
        radius = tangle_free_radius(graph)
    else:
        adjacency = np.ascontiguousarray(graph.matchings.T)
        roots = np.arange(graph.num_vertices)
        radius = covers._first_tangle_depth(adjacency, roots, depth_cut) - 1
    assert radius == _all_pairs_tangle_free_radius(graph.num_vertices, _pairs(graph), depth_cut)


def test_tangle_free_radius_matches_the_all_pairs_twin_on_sampled_covers():
    rng = np.random.default_rng(2024)
    radii = []
    for n in rng.integers(5, 301, size=100):
        graph = dual_graph(sample_cover(int(n), int(rng.integers(2**32))))
        radius = tangle_free_radius(graph)
        assert radius == _all_pairs_tangle_free_radius(graph.num_vertices, _pairs(graph))
        radii.append(radius)
    assert {0, 1} <= set(radii)


@pytest.mark.parametrize("batch_entries", [1, 64, None])
def test_tangle_free_radius_matches_the_all_pairs_twin_on_random_multigraphs(
    monkeypatch, batch_entries
):
    """Sampled covers, which carry parallel edges, and disjoint unions of two
    or three of them, so several components; with a tiny batch budget the
    roots run one or a few at a time."""
    if batch_entries is not None:
        monkeypatch.setattr(covers, "_BFS_BATCH_ENTRIES", batch_entries)
    rng = np.random.default_rng(7)
    radii = set()
    for _ in range(40):
        parts = [
            dual_graph(sample_cover(int(rng.integers(1, 60)), int(rng.integers(2**32))))
            for _ in range(int(rng.integers(1, 4)))
        ]
        graph = _disjoint_union(*parts)
        radius = tangle_free_radius(graph)
        assert radius == _all_pairs_tangle_free_radius(graph.num_vertices, _pairs(graph))
        radii.add(radius)
    assert {0, 1} <= radii


def _recording_gathers(monkeypatch):
    """The number of neighbour keys each depth of ``_first_tangle_depth``
    gathers, one entry per depth and batch, in call order.  Both membership
    lookups of a depth search with the same key array, so it counts once."""
    gathered = []
    last = []
    lookup = covers._sorted_contains

    def recording(sorted_keys, keys):
        if not last or last[0] is not keys:
            last[:] = [keys]
            gathered.append(keys.size)
        return lookup(sorted_keys, keys)

    monkeypatch.setattr(covers, "_sorted_contains", recording)
    return gathered


@pytest.mark.parametrize("depth", range(12))
def test_ball_entries_counts_the_ball_of_the_4_regular_tree(depth):
    """A radius-d ball of a 4-regular graph holds at most 1 + 4 + 4 * 3 +
    ... + 4 * 3^(d - 1) = 2 * 3^d - 1 vertices, and each gathers its four
    neighbour entries; the total caps it."""
    ball = 2 * 3**depth - 1
    assert ball == 1 + sum(4 * 3**t for t in range(depth))
    for total in (4, 100, 24_000, 10**9):
        assert covers._ball_entries(depth, total) == min(total, 4 * ball)


def test_tangle_search_batches_stay_within_the_budget(monkeypatch):
    """Sampled covers at n = 300 and 3000 and a disjoint union of covers:
    no depth of any batch gathers more than ``_BFS_BATCH_ENTRIES`` keys."""
    union = _disjoint_union(*(dual_graph(sample_cover(n, 5)) for n in (3000, 300, 40)))
    gathered = _recording_gathers(monkeypatch)
    for graph in (dual_graph(sample_cover(300, 7)), dual_graph(sample_cover(3000, 7)), union):
        gathered.clear()
        tangle_free_radius(graph)
        assert 0 < max(gathered) <= covers._BFS_BATCH_ENTRIES


@pytest.mark.parametrize("n, depths", [(40, range(6)), (3000, range(4))])
def test_one_root_gathers_at_most_its_ball_entries(monkeypatch, n, depths):
    """A root searched alone up to depth d gathers at most
    ``_ball_entries(d, 4V)`` keys over all depths, and a root whose ball is
    a tree of the full size gathers exactly that many."""
    graph = dual_graph(sample_cover(n, 3))
    adjacency = np.ascontiguousarray(graph.matchings.T)
    gathered = _recording_gathers(monkeypatch)
    for depth in depths:
        bound = covers._ball_entries(depth, adjacency.size)
        totals = []
        for root in range(0, graph.num_vertices, max(1, graph.num_vertices // 200)):
            gathered.clear()
            covers._first_tangle_depth(adjacency, np.array([root]), depth)
            totals.append(sum(gathered))
        assert max(totals) <= bound
        if n == 3000:
            assert max(totals) == bound


def test_tangle_search_memory_stays_within_its_batches():
    """Peak of numpy's allocations, as tracemalloc sees them, while the
    bench cover's tangle-free radius is searched: 1,965,512 bytes with
    batches of 2**16 keys sized by the ball of the 4-regular tree,
    11,995,248 with batches of 2**20 entries sized by a tree of four
    children a vertex.  The bound is 4 MiB."""
    graph = dual_graph(sample_cover(3000, 7))
    tracemalloc.start()
    try:
        tangle_free_radius(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_lanczos_builds_its_tridiagonal_as_one_matrix():
    """Peak of numpy's allocations, as tracemalloc sees them, while lambda1
    of the 6000-vertex bench cover is solved: 1,319,789 bytes when T_k is
    written into one k x k matrix, 1,961,637 when it was summed from three
    ``np.diag`` matrices.  The bound is their geometric mean."""
    graph = dual_graph(sample_cover(3000, 7))
    tracemalloc.start()
    try:
        graph_lambda1(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < math.sqrt(1_319_789 * 1_961_637)


def test_tangle_free_radius_rejects_every_graph_form_but_a_dual_graph():
    """A (num_vertices, edges) pair, even a valid one, and the bare
    matching table both raise DomainError."""
    table = sample_cover(5, 1)
    graph = dual_graph(table)
    for other in ((graph.num_vertices, _pairs(graph)), (3, [(0, 1), (1, 2), (2, 0)]), (2, [])):
        with pytest.raises(DomainError):
            tangle_free_radius(other)
    with pytest.raises(DomainError):
        tangle_free_radius(table)


def test_tangle_free_radius_rejects_non_integer_endpoints():
    """A float endpoint is not truncated and True is not vertex 1: the dual
    graph refuses such matchings, and numpy integer dtypes give the same
    radius as int64."""
    rows = _complete_bipartite_graph().matchings
    with pytest.raises(DomainError):
        tangle_free_radius(DualGraph(rows + 0.5))
    with pytest.raises(DomainError):
        tangle_free_radius(DualGraph(rows.astype(float)))
    with pytest.raises(DomainError):
        tangle_free_radius(DualGraph(np.array([[True, False]] * NUM_COLORS)))
    for dtype in (np.int32, np.uint8):
        assert tangle_free_radius(DualGraph(rows.astype(dtype))) == tangle_free_radius(
            DualGraph(rows)
        )


# -- signings and two-covers ---------------------------------------------------------


def test_all_plus_signing_and_switching():
    graph = dual_graph(sample_cover(10, 1))
    signing = all_plus_signing(graph)
    assert signing.num_edges == graph.num_edges
    assert np.all(signing.values == 1)
    switched = simple_switching(signing, 5)
    assert switched.values[5] == -1
    assert np.sum(switched.values != signing.values) == 1
    assert signing_hash(switched) != signing_hash(signing)
    assert signing_hash(simple_switching(switched, 5)) == signing_hash(signing)
    with pytest.raises(DomainError):
        simple_switching(signing, graph.num_edges)


def test_a_signing_must_cover_the_graphs_edges():
    graph = _disjoint_pair_graph()
    short = Signing(np.ones(3, dtype=np.int8))
    for build in (adjacency_matrix, lift_graph, two_cover_spectra):
        with pytest.raises(DomainError, match="signing covers 3 edges, graph has 8"):
            build(graph, short)


def test_lift_of_the_trivial_signing_is_two_disjoint_copies():
    graph = dual_graph(sample_cover(14, 2))
    lift = lift_graph(graph, all_plus_signing(graph))
    assert lift.num_vertices == 2 * graph.num_vertices
    assert lift.num_edges == 2 * graph.num_edges
    assert not is_connected(lift)
    assert graph_lambda1(lift) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_two_cover_spectra_interlace_with_the_lift(seed):
    """Base-plus-new eigenvalues reproduce the lift spectrum exactly."""
    rng = np.random.default_rng(seed)
    graph = dual_graph(sample_cover(int(rng.integers(5, 30)), seed))
    signing_values = rng.choice([-1, 1], size=graph.num_edges)
    signing = simple_switching(all_plus_signing(graph), 0)
    for index, value in enumerate(signing_values):
        if value == -1 and signing.values[index] == 1:
            signing = simple_switching(signing, index)
        elif value == 1 and signing.values[index] == -1:
            signing = simple_switching(signing, index)
    old, new = two_cover_spectra(graph, signing)
    assert len(old) == len(new) == graph.num_vertices
    lift = lift_graph(graph, signing)
    lifted = np.linalg.eigvalsh(adjacency_matrix(lift).astype(float))
    combined = np.sort(np.concatenate([old, new]))
    assert np.max(np.abs(combined - lifted)) < 1e-8
    assert two_cover_lambda1(graph, signing) == pytest.approx(
        graph_lambda1(lift), abs=1e-9
    )


def test_switching_walk_is_reproducible_and_bounded():
    graph = dual_graph(sample_cover(12, 7))
    walk1 = switching_walk(graph, 10, seed=3)
    walk2 = switching_walk(graph, 10, seed=3)
    assert walk1 == walk2
    assert len(walk1) == 11
    assert walk1[0][0] == signing_hash(all_plus_signing(graph))
    assert walk1[0][1] == pytest.approx(0.0, abs=1e-9)
    assert all(0.0 <= gap <= 8.0 for _, gap in walk1)
    walk3 = switching_walk(graph, 10, seed=4)
    assert walk3 != walk1


@pytest.mark.parametrize("n, seed", [(1, 1), (5, 2), (11, 3), (12, 7), (40, 5), (300, 7)])
def test_switching_walk_matches_the_dense_two_cover_step_by_step(n, seed):
    """Each step's gap equals the dense two-cover twin, on two vertices (n = 1) too."""
    graph = dual_graph(sample_cover(n, seed))
    steps = 12
    walk = switching_walk(graph, steps, seed=seed)
    rng = np.random.default_rng(seed)
    signing = all_plus_signing(graph)
    twin = [(signing_hash(signing), two_cover_lambda1(graph, signing))]
    for _ in range(steps):
        signing = simple_switching(signing, int(rng.integers(graph.num_edges)))
        twin.append((signing_hash(signing), two_cover_lambda1(graph, signing)))
    assert [h for h, _ in walk] == [h for h, _ in twin]
    assert np.max(np.abs(np.array([g for _, g in walk]) - [g for _, g in twin])) < 1e-12


def test_switching_walk_repeats_bit_for_bit_on_the_sparse_path():
    series = {
        tuple(gap.hex() for _, gap in switching_walk(dual_graph(sample_cover(1000, 2)), 4, seed=5))
        for _ in range(3)
    }
    assert len(series) == 1


def test_switching_walk_runs_above_the_dense_matrix_limit():
    """12,000 vertices: a dense adjacency would need 1.07 GiB and is refused."""
    graph = dual_graph(sample_cover(6000, 1))
    with pytest.raises(MemoryGuardError):
        adjacency_matrix(graph)
    walk = switching_walk(graph, 3, seed=1)
    assert len(walk) == 4
    assert walk[0][1] == pytest.approx(0.0, abs=1e-9)
    assert all(0.0 <= gap <= 8.0 for _, gap in walk)


def test_switching_walk_requires_at_least_one_step():
    graph = dual_graph(sample_cover(6, 7))
    with pytest.raises(DomainError):
        switching_walk(graph, 0, seed=1)
    with pytest.raises(DomainError):
        switching_walk(graph, True, seed=1)


def test_walk_summary_histogram_accounts_for_every_step():
    graph = dual_graph(sample_cover(12, 7))
    walk = switching_walk(graph, 25, seed=3)
    summary = walk_summary(12, 3, walk, bins=10)
    assert summary["n"] == 12 and summary["seed"] == 3 and summary["steps"] == 25
    assert len(summary["lambda1_series"]) == 26
    assert len(summary["histogram"]["bin_edges"]) == 11
    assert sum(summary["histogram"]["counts"]) == 26


def test_walk_summary_rejects_bad_bins_and_an_empty_trajectory():
    walk = switching_walk(dual_graph(sample_cover(6, 7)), 3, seed=1)
    for bins in (0, -1, True, 2.5):
        with pytest.raises(DomainError):
            walk_summary(6, 1, walk, bins=bins)
    with pytest.raises(DomainError):
        walk_summary(6, 1, [])
    assert len(walk_summary(6, 1, walk, bins=1)["histogram"]["counts"]) == 1


def test_signing_rejects_non_integer_and_out_of_range_values():
    """Floats are not truncated to +-1 and 255 does not wrap through int8 to -1."""
    with pytest.raises(DomainError):
        Signing(np.array([1.5, -1.2]))
    with pytest.raises(DomainError):
        Signing(np.array([1.0, -1.0]))
    with pytest.raises(DomainError):
        Signing(np.array([1, 255]))
    with pytest.raises(DomainError):
        Signing(np.array([1, 255], dtype=np.uint8))
    with pytest.raises(DomainError):
        Signing(np.array([True, True]))
    assert Signing(np.array([1, -1], dtype=np.int64)).values.dtype == np.int8


def test_signing_leaves_the_callers_array_writable():
    values = np.array([1, -1], dtype=np.int8)
    signing = Signing(values)
    assert values.flags.writeable
    values[0] = -1
    assert signing.values.tolist() == [1, -1]


def test_single_switch_moves_lambda1_continuously():
    """One sign flip changes the two-cover gap by a bounded amount."""
    graph = dual_graph(sample_cover(40, 21))
    signing = all_plus_signing(graph)
    before = two_cover_lambda1(graph, signing)
    after = two_cover_lambda1(graph, simple_switching(signing, 0))
    assert abs(after - before) < 0.5


# -- the replacement radius -------------------------------------------------------------


def _replacement_neighbors(word):
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
    neighbors.append(word[:-1] if word and word[-1] == "y" else word + ("y",))
    return neighbors


def _replacement_ball(radius):
    """Breadth-first ball of the replacement-product graph, the twin of the
    quotient that ``dirichlet_rho`` solves.

    The graph is the Cayley graph of (Z/4) * (Z/2) with generating set
    {x, x^2, x^3, y}: complete graphs on the cosets of x, glued along a
    4-regular tree by the y edges.  A first pass numbers the reduced words
    in breadth-first order from the root, a second looks up every word's
    four neighbours.  Returns the words, their distances (token counts),
    and the (4, V) neighbour table with -1 for those outside the ball.
    """
    index = {(): 0}
    frontier = [()]
    for _ in range(radius):
        next_frontier = []
        for word in frontier:
            for neighbor in _replacement_neighbors(word):
                if neighbor not in index:
                    index[neighbor] = len(index)
                    next_frontier.append(neighbor)
        frontier = next_frontier
    words = list(index)
    table = [[index.get(n, -1) for n in _replacement_neighbors(word)] for word in words]
    distances = np.array([len(word) for word in words], dtype=np.int64)
    return words, distances, np.array(table, dtype=np.int64).T.copy()


def _fit_limit(radii, values):
    """rho_inf of the fit rho(r) = rho_inf - C / (r + a)^2 through three points."""
    (r1, r2, r3), (v1, v2, v3) = radii, values
    ratio = (v3 - v2) / (v2 - v1)

    def mismatch(a):
        s1, s2, s3 = (1.0 / (r + a) ** 2 for r in radii)
        return (s2 - s3) - ratio * (s1 - s2)

    a = scipy.optimize.brentq(mismatch, 0.5 - r1, 10.0 * r3)
    c = (v2 - v1) / (1.0 / (r1 + a) ** 2 - 1.0 / (r2 + a) ** 2)
    return v3 + c / (r3 + a) ** 2


def test_replacement_sphere_sizes_follow_the_growth_series():
    _, distances, neighbors = _replacement_ball(12)
    assert tuple(np.bincount(distances)) == REPLACEMENT_SPHERES
    assert neighbors.shape[1] == sum(REPLACEMENT_SPHERES) == 3641
    for k in range(3, len(REPLACEMENT_SPHERES)):
        assert REPLACEMENT_SPHERES[k] == 3 * REPLACEMENT_SPHERES[k - 2]


@pytest.mark.parametrize("radius", [0, 1, 2, 5, 12])
def test_replacement_ball_neighbors_are_symmetric_and_give_the_edges(radius):
    """Every entry is -1 or a vertex that lists its owner back, only the
    outermost sphere reaches outside, and the edges are simple: no vertex
    lists itself or one neighbour twice."""
    _, distances, neighbors = _replacement_ball(radius)
    assert neighbors.shape == (4, distances.size) and neighbors.dtype == np.int64
    for u, row in enumerate(neighbors.T.tolist()):
        inside = [v for v in row if v != -1]
        assert u not in inside and len(set(inside)) == len(inside), (u, row)
        for v in inside:
            assert u in neighbors[:, v].tolist(), (u, v)
    outside = np.any(neighbors < 0, axis=0)
    assert np.all(distances[outside] == radius)
    assert np.all(distances[~outside] < radius)


@pytest.mark.parametrize("radius", range(13))
def test_replacement_ball_classes_are_equitable_with_the_quotient(radius):
    """The ball's K_d and Y_d classes have sizes |K_d| = 3 |Y_(d-1)| and
    |Y_d| = |K_(d-1)| (the root standing in at d = 1), every vertex of a class
    has the same neighbour counts B_ij into each class, and sqrt(B_ij * B_ji)
    is, entry for entry, the table that ``dirichlet_rho`` solves."""
    words, distances, neighbors = _replacement_ball(radius)
    # class on the quotient's path: radius + d for a word of length d that
    # starts with a power of x (K1, Y2, ...), radius - d for one that starts
    # with y (Y1, K2, ...)
    classes = np.array([radius + (-len(w) if w[:1] == ("y",) else len(w)) for w in words])
    size = 2 * radius + 1
    sizes = np.bincount(classes, minlength=size)
    assert sizes[radius] == 1
    for word, cls in zip(words[1:], classes[1:]):
        inner = cls - 1 if cls > radius else cls + 1
        assert sizes[cls] == (1 if word[-1] == "y" else 3) * sizes[inner]
    if radius >= 3:
        assert [sizes[radius + e] for e in (1, -1, -2, 2, 3, -3)] == [3, 1, 3, 3, 9, 3]
    owner = np.broadcast_to(np.arange(distances.size), neighbors.shape)
    inside = neighbors >= 0
    counts = np.zeros((distances.size, size), dtype=np.int64)
    np.add.at(counts, (owner[inside], classes[neighbors[inside]]), 1)
    quotient = counts[[list(classes).index(c) for c in range(size)]]
    assert np.array_equal(counts, quotient[classes])
    expected = covers._dense(*covers._replacement_quotient(radius))
    assert np.array_equal(np.sqrt(quotient * quotient.T), expected)


def test_dirichlet_rho_matches_lanczos_on_the_ball():
    """The quotient's Perron root is the top eigenvalue of the breadth-first
    ball for every radius up to 14; each radius-r ball is a prefix of the
    radius-14 one."""
    _, distances, neighbors = _replacement_ball(14)
    for radius in range(15):
        size = int(np.searchsorted(distances, radius, side="right"))
        table = np.where(neighbors[:, :size] < size, neighbors[:, :size], -1)
        ball_rho = covers._lanczos_top(table, (table >= 0).astype(float))
        assert abs(dirichlet_rho(radius) - ball_rho) <= 1e-13, radius


def test_replacement_rho_increases_to_the_frozen_value():
    values = [dirichlet_rho(r) for r in range(0, 13, 3)]
    assert values[0] == 0.0
    assert all(a < b for a, b in zip(values[1:], values[2:]))
    assert values[-1] == pytest.approx(RHO_AT_RADIUS_12, rel=1e-12)
    assert values[-1] <= 4.0 - REPLACEMENT_GRAPH_GAP


def test_replacement_rho_converges_to_the_closed_form_of_the_quotient():
    """Past the root the quotient is 2-periodic: a K-class (diagonal 2) and a
    Y-class (diagonal 0), joined by couplings 1 and sqrt(3).  The infinite
    path's spectrum tops out where the cell's symbol at zero quasi-momentum
    does, at the top root of lambda (lambda - 2) = (1 + sqrt(3))^2, which is
    4 - REPLACEMENT_GRAPH_GAP.  Fits of rho_inf - C / (r + a)^2 through
    same-parity triples of rho(r) approach it as r grows."""
    radius = 6
    _, weights = covers._replacement_quotient(radius)
    cell = weights[:, radius + 3 : radius + 5]
    assert np.array_equal(cell, weights[:, radius + 1 : radius + 3])
    (d0, d1), (c0, c1) = cell[1], cell[2]
    assert (d0, d1) == (2.0, 0.0)
    assert sorted((c0, c1)) == [1.0, math.sqrt(3.0)]
    closed = (d0 + d1) / 2 + math.sqrt(((d0 - d1) / 2) ** 2 + (c0 + c1) ** 2)
    assert abs(closed - (4.0 - REPLACEMENT_GRAPH_GAP)) <= 1e-15
    errors = []
    for end in (14, 24, 50, 100):
        radii = (end - 4, end - 2, end)
        limit = _fit_limit(radii, [dirichlet_rho(r) for r in radii])
        errors.append(abs(limit - closed))
    assert all(a > b for a, b in zip(errors, errors[1:])), errors
    assert errors[-1] < 1e-6, errors


def test_replacement_radius_and_gap_constants_are_consistent():
    rho_inf = 4.0 - REPLACEMENT_GRAPH_GAP
    assert rho_inf == pytest.approx(1.0 + math.sqrt(5.0 + 2.0 * math.sqrt(3.0)), rel=1e-15)
    assert 4.0 - rho_inf == pytest.approx(0.0906871, abs=1e-7)


def test_replacement_ball_guards_its_radius(monkeypatch):
    """``dirichlet_rho`` checks its radius before it allocates: a radius whose
    2r + 1 classes pass the Lanczos step limit is refused at once."""
    for radius in (-1, True, 10**12):
        with pytest.raises(DomainError):
            dirichlet_rho(radius)
    monkeypatch.setattr(covers, "_LANCZOS_MAX_STEPS", 22)
    assert dirichlet_rho(10) == pytest.approx(3.8499877230339288, rel=1e-12)
    with pytest.raises(DomainError, match="at most 10"):
        dirichlet_rho(11)


# -- the edge table --------------------------------------------------------------------


def test_cover_command_edge_table_matches_the_per_pair_twin(tmp_path):
    """Without a walk, ``cover --format csv`` writes the edge table (u, v, color, 1)."""
    path = tmp_path / "edges.csv"
    args = ["cover", "--n", "50", "--seed", "3", "--format", "csv", "--out", str(path)]
    assert main(args) == EXIT_OK
    lines = path.read_text().splitlines()
    assert lines[0] == "u,v,color,sign"
    rows = [[int(cell) for cell in line.split(",")] for line in lines[1:]]
    twin = _dual_graph_edges_twin(sample_cover(50, 3))
    assert rows == [[u, v, color, 1] for u, v, color in twin]

