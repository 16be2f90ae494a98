"""Exact arithmetic tests for Gaussian integers and the reflection group."""

import itertools

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from octagap.errors import DomainError
from octagap.group import (
    GENERATOR_NAMES,
    ROTATION_ORDER3,
    ROTATION_ORDER4,
    STANDARD_GENERATORS,
    GaussianInt,
    ProjIsom,
    commutation_graph,
    identity,
    in_level2_congruence,
    octa_symmetry_group,
    opposite_generator,
)

gaussian_ints = st.builds(GaussianInt, st.integers(-40, 40), st.integers(-40, 40))
nonzero_gaussian = gaussian_ints.filter(lambda g: g.norm() > 0)
generator_words = st.lists(st.sampled_from(GENERATOR_NAMES), max_size=8)


def _evaluate(names):
    g = identity()
    for name in names:
        g = g * STANDARD_GENERATORS[name]
    return g


# -- Gaussian integer ring ----------------------------------------------------


@given(nonzero_gaussian)
def test_unit_canonical_lands_in_quarter_sector(a):
    u, c = a.unit_canonical()
    assert u.is_unit()
    assert u * a == c
    assert c.re > 0 and c.im >= 0
    assert c.norm() == a.norm()


@given(nonzero_gaussian)
def test_unit_canonical_identifies_associates(a):
    i = GaussianInt(0, 1)
    associates = {a, a * i, a * i * i, a * i * i * i}
    assert {g.unit_canonical()[1] for g in associates} == {a.unit_canonical()[1]}


# -- generators and relations -------------------------------------------------


def test_eight_generators_are_involutions():
    for name in GENERATOR_NAMES:
        g = STANDARD_GENERATORS[name]
        assert not g.is_identity()
        assert (g * g).is_identity(), name


def test_commutes_matches_exact_products():
    """The commutation graph agrees with the actual group products."""
    graph = commutation_graph()
    for x, y in itertools.combinations(GENERATOR_NAMES, 2):
        a, b = STANDARD_GENERATORS[x], STANDARD_GENERATORS[y]
        assert (y in graph[x]) == (x in graph[y]) == (a * b == b * a), (x, y)


def test_commuting_pairs_are_opposite_faces_with_different_index():
    graph = commutation_graph()
    for x, y in itertools.combinations(GENERATOR_NAMES, 2):
        expected = x.rstrip("p")[1] != y.rstrip("p")[1] and x.endswith("p") != y.endswith("p")
        assert (y in graph[x]) == expected, (x, y)


def test_commutation_graph_is_cube_skeleton():
    graph = commutation_graph()
    assert set(graph) == set(GENERATOR_NAMES)
    assert all(len(nbrs) == 3 for nbrs in graph.values())
    assert sum(len(nbrs) for nbrs in graph.values()) == 24
    nx_graph = nx.Graph((x, y) for x, nbrs in graph.items() for y in nbrs)
    assert nx.is_isomorphic(nx_graph, nx.hypercube_graph(3))


def test_opposite_generator_pairs_faces_with_perps():
    for name in GENERATOR_NAMES:
        other = opposite_generator(name)
        assert other != name
        assert opposite_generator(other) == name
        assert other not in commutation_graph()[name]
    with pytest.raises(DomainError):
        opposite_generator("r9")


# -- octahedral symmetries ----------------------------------------------------


def test_symmetry_group_has_order_24():
    group = octa_symmetry_group()
    assert len(group) == len(set(group)) == 24


def test_symmetry_group_is_closed_under_products_and_inverses():
    group = set(octa_symmetry_group())
    for g in group:
        assert g.inverse() in group
    for g, h in itertools.product(group, repeat=2):
        assert g * h in group


def test_symmetry_group_element_orders_match_s4():
    """Order profile 1:1, 2:9, 3:8, 4:6 pins the symmetric group on 4 letters."""
    profile = {}
    for g in octa_symmetry_group():
        power, order = g, 1
        while not power.is_identity():
            power = power * g
            order += 1
        profile[order] = profile.get(order, 0) + 1
    assert profile == {1: 1, 2: 9, 3: 8, 4: 6}


def test_rotation_generators_have_stated_orders():
    r3 = ROTATION_ORDER3
    assert not r3.is_identity() and not (r3 * r3).is_identity()
    assert (r3 * r3 * r3).is_identity()
    r4 = ROTATION_ORDER4
    assert not (r4 * r4).is_identity()
    assert (r4 * r4 * r4 * r4).is_identity()


def test_symmetries_preserve_orientation_and_generators_reverse_it():
    """Matrices act holomorphically, so only the conjugation bit reverses
    orientation."""
    assert all(g.conj == 0 for g in octa_symmetry_group())
    assert all(STANDARD_GENERATORS[n].conj == 1 for n in GENERATOR_NAMES)


def test_conjugation_by_symmetries_permutes_generators():
    generators = {STANDARD_GENERATORS[n] for n in GENERATOR_NAMES}
    for g in (ROTATION_ORDER3, ROTATION_ORDER4):
        image = {g * r * g.inverse() for r in generators}
        assert image == generators


# -- congruence structure -----------------------------------------------------


def test_generators_lie_in_conjugation_coset_of_congruence_subgroup():
    """Every generator is the conjugation map times a level-two element."""
    conj = STANDARD_GENERATORS["r1p"]
    for name in GENERATOR_NAMES:
        g = STANDARD_GENERATORS[name]
        assert g.conj == 1
        assert in_level2_congruence(g * conj), name


def test_congruence_subgroup_membership_basics():
    assert in_level2_congruence(identity())
    i = GaussianInt(0, 1)
    zero, one, two = GaussianInt(0, 0), GaussianInt(1, 0), GaussianInt(2, 0)
    assert in_level2_congruence(ProjIsom(i, zero, zero, i))
    assert in_level2_congruence(ProjIsom(one, two, two, one * GaussianInt(3, 0)))
    assert not in_level2_congruence(ProjIsom(one, one, zero, one))
    assert not in_level2_congruence(ProjIsom(one, zero, zero, one, conj=1))


# -- projective isometries ----------------------------------------------------


@given(generator_words)
def test_products_are_invertible(names):
    g = _evaluate(names)
    assert (g * g.inverse()).is_identity()
    assert (g.inverse() * g).is_identity()


@given(generator_words, generator_words, generator_words)
def test_twisted_product_is_associative(xs, ys, zs):
    a, b, c = _evaluate(xs), _evaluate(ys), _evaluate(zs)
    assert (a * b) * c == a * (b * c)


@given(generator_words)
def test_equality_ignores_unit_scaling(names):
    g = _evaluate(names)
    i = GaussianInt(0, 1)
    scaled = ProjIsom(g.a * i, g.b * i, g.c * i, g.d * i, conj=g.conj)
    assert scaled == g
    assert hash(scaled) == hash(g)


def test_non_unit_determinants_are_refused():
    """Only unit determinants are elements: a non-unit multiple of a
    generator, a diagonal matrix of determinant 2 and a singular matrix all
    raise DomainError."""
    one, zero, two = GaussianInt(1, 0), GaussianInt(0, 0), GaussianInt(2, 0)
    with pytest.raises(DomainError, match="not a unit"):
        ProjIsom(one, zero, zero, two)
    with pytest.raises(DomainError, match="not a unit"):
        ProjIsom(one, one, one, one)
    factor = GaussianInt(1, 1)
    for name in GENERATOR_NAMES:
        g = STANDARD_GENERATORS[name]
        with pytest.raises(DomainError, match="not a unit"):
            ProjIsom(g.a * factor, g.b * factor, g.c * factor, g.d * factor, conj=g.conj)


def test_determinant_is_unit_for_group_elements():
    for g in (*STANDARD_GENERATORS.values(), *octa_symmetry_group()):
        assert (g.a * g.d - g.b * g.c).is_unit()
