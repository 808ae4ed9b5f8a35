"""Permutation groups by generators: enumeration, orbits, stabilizers,
induced actions, coset actions, elements of given order, file I/O."""

import importlib.util
import math
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import coset_action_naive, group_closure_naive, set_orbit_naive
from socodes.groups import (
    Perm, PermGroup, OrderExceedsCap, DegreeTooLarge, IndexTooLarge,
    NotASubgroup, INDEX_CAP, parse_group_text, format_group_text,
)
from socodes.m11 import m11_degree

# standard generators on 11 points, 0-based
M11_GENS = [
    Perm.from_cycles(11, [(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)]),
    Perm.from_cycles(11, [(2, 6, 10, 7), (3, 9, 4, 5)]),
]


def m11():
    return PermGroup(11, M11_GENS)


def set_stabilizer_order(G, delta) -> int:
    """|{g : delta g = delta}|, counted over the enumerated elements."""
    target = tuple(sorted(delta))
    return sum(1 for g in G.elements if g.apply_set(delta) == target)


def test_perm_basics():
    g = Perm((1, 2, 0))
    h = Perm((0, 2, 1))
    assert (g * h).images == (2, 1, 0)       # right action: first g, then h
    assert g.order() == 3
    assert Perm.identity(4).images == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        Perm((0, 0, 1))


@st.composite
def perm_pairs(draw):
    n = draw(st.integers(1, 9))
    g, h = (draw(st.permutations(range(n))) for _ in range(2))
    return Perm(g), Perm(h)


@settings(max_examples=50, deadline=None)
@given(perm_pairs())
def test_mul_matches_constructor(pair):
    g, h = pair
    gh = g * h
    assert gh == Perm(tuple(h.images[x] for x in g.images))
    assert isinstance(gh.images, tuple)
    assert hash(gh) == hash(Perm(gh.images))


def test_mul_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        Perm((1, 0)) * Perm((0, 2, 1))
    with pytest.raises(ValueError):
        Perm((0, 2, 1)) * Perm((1, 0))


def test_cycle_roundtrip():
    g = Perm.from_cycles(11, [(2, 6, 10, 7), (3, 9, 4, 5)])
    assert g.images[2] == 6 and g.images[7] == 2 and g.images[0] == 0
    assert Perm.from_cycles(11, g.cycles()) == g


def test_cyclic_group_order():
    G = PermGroup(3, [Perm((1, 2, 0))])
    assert G.order == 3


def test_trivial_group():
    G = PermGroup(4, [])
    assert G.order == 1
    assert G.elements == (Perm.identity(4),)


def test_m11_order():
    assert m11().order == 7920


def test_enumeration_cap():
    G = PermGroup(11, M11_GENS)
    with pytest.raises(OrderExceedsCap):
        G.enumerate(cap=100)
    # the identity alone already exceeds a cap of 0
    with pytest.raises(OrderExceedsCap):
        PermGroup(3, []).enumerate(cap=0)
    assert PermGroup(3, []).enumerate(cap=1) == (Perm.identity(3),)


def test_point_orbits():
    assert PermGroup(4, []).point_orbits() == [(0,), (1,), (2,), (3,)]
    assert m11().point_orbits() == [tuple(range(11))]
    G = PermGroup(5, [Perm.from_cycles(5, [(0, 1), (2, 3)])])
    assert G.point_orbits() == [(0, 1), (2, 3), (4,)]


def test_orbit_stabilizer():
    G = m11()
    S = G.stabilizer(0)
    assert S.order == 720
    for pt in range(3):
        assert len(G.orbit_of(pt)) * G.stabilizer(pt).order == G.order


def test_set_orbit_toys():
    triv = PermGroup(4, [])
    assert triv.set_orbit({0, 1}) == [(0, 1)]
    assert set_stabilizer_order(triv, {0, 1}) == 1
    C3 = PermGroup(3, [Perm((1, 2, 0))])
    assert C3.set_orbit({0}) == [(0,), (1,), (2,)]
    assert set_stabilizer_order(C3, {0}) == 1
    assert C3.set_orbit(()) == [()]


def test_set_orbit_sizes_divide_group_order():
    G = PermGroup(6, [Perm.from_cycles(6, [(0, 1, 2, 3, 4, 5)]),
                      Perm.from_cycles(6, [(1, 5), (2, 4)])])   # dihedral, order 12
    assert G.order == 12
    for delta in [{0}, {0, 1}, {0, 3}, {0, 2, 4}]:
        assert len(G.set_orbit(delta)) * set_stabilizer_order(G, delta) == G.order


@st.composite
def groups_and_sets(draw):
    n = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(n)), max_size=3))
    delta = draw(st.sets(st.integers(0, n - 1)))
    return n, [tuple(g) for g in gens], delta


@settings(max_examples=60, deadline=None)
@given(groups_and_sets())
def test_set_orbit_matches_closure(case):
    n, gens, delta = case
    G = PermGroup(n, [Perm(g) for g in gens])
    orbit = G.set_orbit(delta)
    assert orbit == set_orbit_naive(gens, n, delta)
    assert len(orbit) * set_stabilizer_order(G, delta) == G.order


def test_set_orbit_m11_matches_closure():
    G = m11()
    gens = [g.images for g in M11_GENS]
    for delta in [(), (0,), (0, 1), (0, 1, 3), (2, 5, 7, 9, 10)]:
        orbit = G.set_orbit(delta)
        assert orbit == set_orbit_naive(gens, 11, delta)
        assert len(orbit) * set_stabilizer_order(G, delta) == 7920


def test_orbits_leave_elements_unenumerated():
    G = PermGroup(165, m11_degree(165).generators)
    assert G.orbit_of(0) == tuple(range(165))
    assert len(G.set_orbit((0, 1, 2))) == 3960
    assert G.set_orbit(()) == [()]
    assert G._elements is None


@st.composite
def small_groups(draw):
    """A group on at most 8 points with 1-3 generators, a point set, and a
    draw that picks the generator of a cyclic subgroup."""
    n = draw(st.integers(1, 8))
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    delta = draw(st.sets(st.integers(0, n - 1)))
    return n, [tuple(g) for g in gens], delta, draw(st.integers(0, 10 ** 9))


@settings(max_examples=30, deadline=None)
@given(small_groups())
def test_group_layer_matches_naive(case):
    n, gens, delta, pick = case
    closure = group_closure_naive(gens, n)
    order = len(closure)
    G = PermGroup(n, gens)
    assert [g.images for g in G.enumerate(cap=order)] == sorted(closure)
    with pytest.raises(OrderExceedsCap):
        PermGroup(n, gens).enumerate(cap=order - 1)

    orbits = sorted({tuple(sorted({g[x] for g in closure})) for x in range(n)})
    assert G.point_orbits() == orbits
    assert G.set_orbit(delta) == set_orbit_naive(gens, n, delta)

    h = G.elements[pick % order]
    H = PermGroup(n, [h])
    if order // H.order > INDEX_CAP:
        with pytest.raises(IndexTooLarge):
            G.coset_action(H)
        return
    A = G.coset_action(H)
    assert A.degree == order // H.order
    assert [g.images for g in A.generators] == coset_action_naive(gens, n, [h.images])


def test_ksubset_action_s3():
    S3 = PermGroup(3, [Perm((1, 0, 2)), Perm((1, 2, 0))])
    A = S3.action_on_ksubsets(2)
    assert A.degree == 3
    assert A.order == 6
    assert A.is_transitive()


def test_ksubset_action_m11_pairs():
    A = m11().action_on_ksubsets(2)
    assert A.degree == 55
    assert A.order == 7920
    assert A.is_transitive()
    assert A.stabilizer(0).order == 144


def test_ksubset_action_cap():
    with pytest.raises(DegreeTooLarge):
        PermGroup(30, []).action_on_ksubsets(15)


def test_homomorphism_on_generators():
    G = m11()
    phi = G.induced_on_ksubsets(2)
    for gi in G.generators:
        for gj in G.generators:
            assert phi(gi * gj) == phi(gi) * phi(gj)


def test_coset_action_trivial_cases():
    G = PermGroup(3, [Perm((1, 2, 0))])
    assert G.coset_action(G).degree == 1
    reg = G.coset_action(PermGroup(3, []))
    assert reg.degree == 3 and reg.order == 3


def test_coset_action_not_subgroup():
    G = PermGroup(3, [Perm((1, 2, 0))])
    H = PermGroup(3, [Perm((1, 0, 2))])
    with pytest.raises(NotASubgroup):
        G.coset_action(H)
    with pytest.raises(NotASubgroup):
        G.coset_action(PermGroup(4, []))


def test_m11_degree22_action():
    G = m11()
    H = G.stabilizer(0).squares_subgroup()
    assert H.order == 360
    A = G.coset_action(H)
    assert A.degree == 22
    assert A.order == 7920
    assert A.is_transitive()
    assert A.stabilizer(0).order == 360


def test_m11_involutions_cycle_type():
    # all involutions of M11 are conjugate, so the one tables uses stands
    # for every one of them
    g = m11().element_of_order(2)
    assert g.cycle_type() == ((1, 3), (2, 4))   # 3 fixed points, four 2-cycles
    involutions = [h for h in m11().elements if h.order() == 2]
    assert len(involutions) == 165
    assert {h.cycle_type() for h in involutions} == {g.cycle_type()}


def test_m11_order11_subgroups():
    # 1440 elements of order 11, ten to each cyclic subgroup
    assert sum(h.order() == 11 for h in m11().elements) == 1440
    assert PermGroup(11, [m11().element_of_order(11)]).order == 11


def test_orbit_sizes_sum_to_degree():
    for G in [m11(), PermGroup(5, [Perm.from_cycles(5, [(0, 1), (2, 3)])])]:
        assert sum(len(o) for o in G.point_orbits()) == G.degree


def test_group_file_roundtrip():
    text = format_group_text(m11())
    G2 = parse_group_text(text)
    assert G2.degree == 11
    assert G2.order == 7920


def test_group_file_cycle_notation():
    text = """# Mathieu group M11
degree 11
(1,2,3,4,5,6,7,8,9,10,11)
(3,7,11,8)(4,10,5,6)
"""
    G = parse_group_text(text)
    assert G.order == 7920
    assert G.generators[0] == M11_GENS[0]
    assert G.generators[1] == M11_GENS[1]


def test_group_file_img_notation():
    text = "degree 3\nimg: 2 3 1\n"
    G = parse_group_text(text)
    assert G.generators[0].images == (1, 2, 0)


def test_derive_script_reproduces_m11_12():
    # enumerate(cap=660), order, coset_action and format_group_text on an
    # action the shipped data does not otherwise rebuild
    path = Path(__file__).resolve().parent.parent / "scripts" / "derive_m11_degree12.py"
    spec = importlib.util.spec_from_file_location("derive_m11_degree12", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    shipped = resources.files("socodes.data").joinpath("m11_12.grp").read_text(encoding="utf-8")
    assert script.derive() == shipped
