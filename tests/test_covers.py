"""Tests for random matching covers, dual graphs, signings, and the replacement ball."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path
from scipy.sparse.linalg import eigsh

from octagap import covers
from octagap.covers import (
    NUM_COLORS,
    REPLACEMENT_SPECTRAL_RADIUS,
    CoverPresentation,
    DualGraph,
    Matching,
    Signing,
    adjacency_matrix,
    all_plus_signing,
    dirichlet_rho,
    dual_graph,
    export_edges_csv,
    export_spectra_csv,
    graph_lambda1,
    is_connected,
    lift_graph,
    replacement_ball,
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


def _disjoint_union(first, second):
    """The two dual graphs side by side, the second's vertices shifted past the first's."""
    return DualGraph(np.hstack([first.matchings, second.matchings + first.num_vertices]))


def _edge_triples(graph):
    """The graph's edges as (u, v, color) tuples of Python ints, in edge order."""
    return list(zip(*(column.tolist() for column in graph.edges())))


def _dual_graph_edges_twin(cover):
    """Per-pair twin of ``dual_graph(cover).edges()``: each color's matched
    pairs (u, v) with u < v in ascending u, color by color."""
    edges = []
    for index, matching in enumerate(cover.sigma):
        for u, v in matching.pairs():
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


def _all_pairs_tangle_free_radius(num_vertices, pairs, max_radius=None):
    """Brute-force twin of ``tangle_free_radius``: all-pairs distances, every root.

    Builds the full V x V distance matrix, then reads each root's ball
    sizes off it; only meant for the small graphs the tests compare on.
    """
    if max_radius is None:
        max_radius = num_vertices
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


def _pairs(graph):
    return [(u, v) for u, v, _ in _edge_triples(graph)]


#: Handmade (num_vertices, edges) graphs: four parallel edges, a 6-cycle, a
#: bowtie, a subdivided theta (two 2-cycles joined by a 20-edge path), a
#: path, and a triangle next to a square with a pendant vertex.
HANDMADE_GRAPHS = (
    (2, [(0, 1)] * 4),
    (6, [(k, (k + 1) % 6) for k in range(6)]),
    (5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]),
    (23, [(k, k + 1) for k in range(20)] + [(0, 21), (21, 0), (20, 22), (22, 20)]),
    (7, [(0, 1), (1, 2), (2, 3)]),
    (10, [(0, 1), (1, 2), (2, 0), (5, 6), (6, 7), (7, 8), (8, 5), (8, 9)]),
)


# -- matchings -------------------------------------------------------------------


def test_matching_accepts_fixed_point_free_involutions():
    m = Matching(np.array([1, 0, 3, 2]))
    assert m.num_points == 4
    assert m.pairs() == [(0, 1), (2, 3)]


def test_matching_rejects_degenerate_arrays():
    with pytest.raises(DomainError):
        Matching(np.array([0, 1, 2]))
    with pytest.raises(DomainError):
        Matching(np.array([0, 1, 3, 2]))
    with pytest.raises(DomainError):
        Matching(np.array([1, 2, 3, 0]))


def test_matching_rejects_non_integer_dtypes():
    """Floats are not truncated and bools are not read as 0 and 1."""
    with pytest.raises(DomainError):
        Matching(np.array([1.9, 0.2]))
    with pytest.raises(DomainError):
        Matching(np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        Matching(np.array([True, False]))
    assert Matching(np.array([1, 0], dtype=np.uint8)).perm.dtype == np.int64


def test_matching_array_is_immutable():
    m = Matching(np.array([1, 0]))
    with pytest.raises(ValueError):
        m.perm[0] = 0


def test_matching_leaves_the_callers_array_writable():
    perm = np.array([1, 0])
    m = Matching(perm)
    assert perm.flags.writeable
    perm[0] = 0
    assert m.perm.tolist() == [1, 0]


@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_sample_cover_draws_valid_presentations(n, seed):
    cover = sample_cover(n, seed)
    assert isinstance(cover, CoverPresentation)
    assert cover.n == n and cover.seed == seed
    assert len(cover.sigma) == NUM_COLORS
    for matching in cover.sigma:
        assert matching.num_points == 2 * n


def test_sample_cover_is_reproducible():
    a, b = sample_cover(25, 99), sample_cover(25, 99)
    for ma, mb in zip(a.sigma, b.sigma):
        assert np.array_equal(ma.perm, mb.perm)
    c = sample_cover(25, 100)
    assert any(not np.array_equal(ma.perm, mc.perm) for ma, mc in zip(a.sigma, c.sigma))


def test_sample_cover_rejects_bad_sizes():
    for n in (0, -3, True, 2.0):
        with pytest.raises(DomainError):
            sample_cover(n, 7)


def test_sample_cover_without_a_seed_records_fresh_entropy():
    cover = sample_cover(5)
    assert cover.seed is not None


def test_matchings_on_six_points_are_close_to_uniform():
    """A chi-square test over the 15 matchings on 6 points at 2000 draws."""
    counts = {}
    for seed in range(2000):
        key = tuple(sample_cover(3, seed).sigma[0].pairs())
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
    # float and bool rows go through the Matching check
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
        cover = sample_cover(n, seed)
        graph = dual_graph(cover)
        assert all(column.dtype == np.int64 for column in graph.edges())
        assert _edge_triples(graph) == _dual_graph_edges_twin(cover)


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
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
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
    """Above 20 vertices, lambda1, connectivity, the radius and the walk form no V x V matrix."""
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
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse_size(np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "eigh", refuse_size(np.linalg.eigh))
    assert 0.0 < graph_lambda1(graph) < 8.0
    assert is_connected(graph)
    assert tangle_free_radius(graph) >= 0
    assert len(switching_walk(graph, 2, seed=1)) == 3


def test_dense_adjacency_is_refused_above_the_byte_limit(monkeypatch):
    graph = dual_graph(sample_cover(20, 5))
    nbytes = graph.num_vertices**2 * 8
    monkeypatch.setattr(covers, "_DENSE_MATRIX_BYTES", nbytes)
    assert adjacency_matrix(graph).shape == (40, 40)
    monkeypatch.setattr(covers, "_DENSE_MATRIX_BYTES", nbytes - 1)
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


# -- tangle-free radius ------------------------------------------------------------


def test_tangle_free_radius_on_known_graphs():
    assert tangle_free_radius(_two_vertex_graph()) == 0
    cycle = (6, [(k, (k + 1) % 6) for k in range(6)])
    assert tangle_free_radius(cycle) == 6
    assert tangle_free_radius(cycle, max_radius=3) == 3
    bowtie = (5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    assert tangle_free_radius(bowtie) == 0


def test_tangle_free_radius_of_a_long_subdivided_theta():
    """Two cycles joined by a long path stay tangle free below half the path."""
    path = [(k, k + 1) for k in range(20)]
    left = [(0, 21), (21, 0)]
    right = [(20, 22), (22, 20)]
    graph = (23, path + left + right)
    radius = tangle_free_radius(graph)
    assert 1 <= radius < 20


def test_tangle_free_radius_matches_on_sampled_covers():
    graph = dual_graph(sample_cover(200, 13))
    radius = tangle_free_radius(graph)
    assert isinstance(radius, int)
    assert radius >= 0
    assert radius == _all_pairs_tangle_free_radius(graph.num_vertices, _pairs(graph))


@pytest.mark.parametrize("max_radius", [None, 0, 1, 2, 3, 5, 11, 100])
@pytest.mark.parametrize("graph", HANDMADE_GRAPHS, ids=lambda g: f"V{g[0]}E{len(g[1])}")
def test_tangle_free_radius_matches_the_all_pairs_twin_on_handmade_graphs(graph, max_radius):
    num_vertices, pairs = graph
    assert tangle_free_radius(graph, max_radius=max_radius) == _all_pairs_tangle_free_radius(
        num_vertices, pairs, max_radius
    )


def test_tangle_free_radius_matches_the_all_pairs_twin_on_sampled_covers():
    rng = np.random.default_rng(2024)
    radii = []
    for n in rng.integers(5, 301, size=100):
        graph = dual_graph(sample_cover(int(n), int(rng.integers(2**32))))
        max_radius = int(rng.choice([0, 1, 2, graph.num_vertices]))
        radius = tangle_free_radius(graph, max_radius=max_radius)
        assert radius == _all_pairs_tangle_free_radius(
            graph.num_vertices, _pairs(graph), max_radius
        ), (graph.num_vertices, max_radius)
        radii.append(radius)
    assert {0, 1} <= set(radii)


@pytest.mark.parametrize("batch_entries", [1, 64, None])
def test_tangle_free_radius_matches_the_all_pairs_twin_on_random_multigraphs(
    monkeypatch, batch_entries
):
    """Irregular degrees, parallel edges, trees and several components; with
    a tiny batch budget the roots run one or a few at a time."""
    if batch_entries is not None:
        monkeypatch.setattr(covers, "_BFS_BATCH_ENTRIES", batch_entries)
    rng = np.random.default_rng(7)
    for _ in range(60):
        num_vertices = int(rng.integers(2, 40))
        num_edges = int(rng.integers(0, 2 * num_vertices))
        pairs = []
        while len(pairs) < num_edges:
            u, v = (int(x) for x in rng.integers(num_vertices, size=2))
            if u != v:
                pairs.append((u, v))
        for max_radius in (None, 1, 4):
            assert tangle_free_radius(
                (num_vertices, pairs), max_radius=max_radius
            ) == _all_pairs_tangle_free_radius(num_vertices, pairs, max_radius)


def test_tangle_free_radius_rejects_bad_arguments():
    graph = dual_graph(sample_cover(5, 1))
    with pytest.raises(DomainError):
        tangle_free_radius(graph, max_radius=True)
    with pytest.raises(DomainError):
        tangle_free_radius(graph, max_radius=-1)
    with pytest.raises(DomainError):
        tangle_free_radius((True, []))
    with pytest.raises(DomainError):
        tangle_free_radius((3, [(0, 0)]))
    with pytest.raises(DomainError):
        tangle_free_radius((3, [(0, 3)]))


def test_tangle_free_radius_rejects_non_integer_endpoints():
    """A float endpoint is not truncated and True is not vertex 1."""
    with pytest.raises(DomainError):
        tangle_free_radius((3, [(0.5, 1), (1, 2)]))
    with pytest.raises(DomainError):
        tangle_free_radius((3, [(0, 1), (1, 2.0)]))
    with pytest.raises(DomainError):
        tangle_free_radius((3, [(0, True), (1, 2)]))
    cycle = [(np.int64(0), np.int32(1)), (1, 2), (2, 0)]
    assert tangle_free_radius((3, cycle)) == tangle_free_radius((3, [(0, 1), (1, 2), (2, 0)]))


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
    """Each step's gap equals the dense two-cover twin; n <= 10 stays on LAPACK."""
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


# -- the replacement ball -------------------------------------------------------------


def test_replacement_sphere_sizes_follow_the_growth_series():
    ball = replacement_ball(12)
    assert tuple(ball.sphere_sizes()) == REPLACEMENT_SPHERES
    assert ball.num_vertices == sum(REPLACEMENT_SPHERES) == 3641
    for k in range(3, len(REPLACEMENT_SPHERES)):
        assert REPLACEMENT_SPHERES[k] == 3 * REPLACEMENT_SPHERES[k - 2]


def test_replacement_rho_increases_to_the_frozen_value():
    values = [dirichlet_rho(replacement_ball(r)) for r in range(0, 13, 3)]
    assert values[0] == 0.0
    assert all(a < b for a, b in zip(values[1:], values[2:]))
    assert values[-1] == pytest.approx(RHO_AT_RADIUS_12, rel=1e-12)
    assert values[-1] <= REPLACEMENT_SPECTRAL_RADIUS


def test_replacement_radius_and_gap_constants_are_consistent():
    assert REPLACEMENT_SPECTRAL_RADIUS == pytest.approx(
        1.0 + math.sqrt(5.0 + 2.0 * math.sqrt(3.0)), rel=1e-15
    )
    assert 4.0 - REPLACEMENT_SPECTRAL_RADIUS == pytest.approx(0.0906871, abs=1e-7)


def test_replacement_ball_guards_its_radius():
    with pytest.raises(DomainError):
        replacement_ball(15)
    with pytest.raises(DomainError):
        replacement_ball(-1)
    with pytest.raises(DomainError):
        replacement_ball(True)


# -- exports ----------------------------------------------------------------------------


def test_export_edges_csv(tmp_path):
    graph = dual_graph(sample_cover(8, 3))
    path = tmp_path / "edges.csv"
    export_edges_csv(graph, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "u,v,color,sign"
    assert len(lines) == graph.num_edges + 1
    assert all(line.endswith(",1") for line in lines[1:])
    signing = simple_switching(all_plus_signing(graph), 0)
    export_edges_csv(graph, path, signing)
    lines = path.read_text().strip().splitlines()
    assert lines[1].endswith(",-1")
    signs = np.random.default_rng(4).choice([-1, 1], size=graph.num_edges)
    export_edges_csv(graph, path, Signing(signs))
    rows = [[int(cell) for cell in line.split(",")] for line in path.read_text().splitlines()[1:]]
    twin = _dual_graph_edges_twin(sample_cover(8, 3))
    assert rows == [[u, v, color, int(sign)] for (u, v, color), sign in zip(twin, signs)]


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


def test_export_spectra_csv(tmp_path):
    graph = dual_graph(sample_cover(8, 3))
    old, new = two_cover_spectra(graph, all_plus_signing(graph))
    path = tmp_path / "spectra.csv"
    export_spectra_csv(old, new, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,old,new"
    assert len(lines) == len(old) + 1
