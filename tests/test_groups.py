"""Permutation groups by generators: enumeration, orbits, stabilizers,
induced actions, coset actions, elements of given order, file I/O."""

import hashlib
import importlib.util
import itertools
import math
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (_orbits_naive, coset_action_naive, cycle_type_naive,
                     derived_subgroup_naive, group_closure_naive, induced_naive,
                     perm_order_naive, set_orbit_naive)
from strategies import NON_INTEGERS, small_transitive_groups
import socodes.m11
from socodes import groups
from socodes.designs import stabilizer_orbits
from socodes.groups import (
    Perm, PermGroup, OrderExceedsCap, DegreeTooLarge, IndexTooLarge,
    NotASubgroup, NotInvariant, parse_group_text, format_group_text,
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
    return sum(1 for g in G.enumerate() if g.apply_set(delta) == target)


def assert_least_point_chain(G):
    """G's kept chain: each base point is the least point its level moves,
    so the base points strictly increase, each level's strong generators fix
    every point below its base point, and every orbit has 2 points or more;
    its depth is bounded by the cap. The stabilizer of every point, read
    from the chain or from a relabelled group's, passes orbit-stabilizer."""
    levels = G._stabilizer_chain()
    bases = [b for b, _, _ in levels]
    assert bases == sorted(set(bases))
    for b, S, U in levels:
        assert all(s[x] == x for s in S for x in range(b))
        assert b in U and len(U) >= 2
    assert len(levels) <= 1 + math.log2(groups.DEFAULT_CAP)
    for x in range(G.degree):
        assert len(G.orbit_of(x)) * G.stabilizer(x).order == G.order


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
    assert tuple(G.enumerate()) == (Perm.identity(4),)


def test_m11_order():
    assert m11().order == 7920


def test_repr_shows_the_order_of_a_built_chain():
    # the order once showed only after enumerate(); repr builds no chain,
    # so it cannot raise, even for a group past the cap
    G = m11()
    assert repr(G) == "PermGroup(degree=11, gens=2, order=?)"
    assert G._chain is None
    assert G.order == 7920
    assert repr(G) == "PermGroup(degree=11, gens=2, order=7920)"
    assert G._elements is None
    n = 12
    S12 = PermGroup(n, [Perm.from_cycles(n, [tuple(range(n))]), Perm.from_cycles(n, [(0, 1)])])
    with pytest.raises(OrderExceedsCap):
        S12.order
    assert repr(S12) == "PermGroup(degree=12, gens=2, order=?)"


def test_membership_of_another_degree_is_false():
    G = m11()
    assert Perm.identity(11) in G and M11_GENS[1] in G
    assert Perm.identity(12) not in G
    assert Perm.identity(3) not in G


def test_chain_sifts_no_identity_schreier_generator(monkeypatch):
    # u s equal to the representative of x^s makes the Schreier generator
    # the identity; the chain skips it instead of sifting it
    sifted = []
    real = groups._sift

    def sift(levels, g, start=0):
        sifted.append(g == tuple(range(len(g))))
        return real(levels, g, start)

    monkeypatch.setattr(groups, "_sift", sift)
    assert PermGroup(11, M11_GENS).order == 7920
    assert sifted and not any(sifted)


def test_enumeration_cap(monkeypatch):
    monkeypatch.setattr(groups, "DEFAULT_CAP", 100)
    with pytest.raises(OrderExceedsCap):
        PermGroup(11, M11_GENS).enumerate()
    # the identity alone already exceeds a cap of 0
    monkeypatch.setattr(groups, "DEFAULT_CAP", 0)
    with pytest.raises(OrderExceedsCap):
        PermGroup(3, []).enumerate()
    monkeypatch.setattr(groups, "DEFAULT_CAP", 1)
    assert tuple(PermGroup(3, []).enumerate()) == (Perm.identity(3),)


# sha256 of the little-endian uint16 image rows of each shipped action's
# elements in sorted order, recorded from a breadth-first closure of the
# generators sorted by image tuple
M11_ELEMENT_DIGESTS = {
    11: "6c07eb5900c312f3666ebb40383760f2899499fe26c17249152ac77e7f2befa7",
    12: "0783be1b9c46cf01854f0ae1c05836f167d306b384574f2486945f3b04cc2009",
    22: "c609365efbcbfa8e4282e9b864c5fcc33beccdfbf97c7b4972bfecca3a955ac7",
    55: "a9107d1940a1c412be59e83760ad2655bc0edaa47757c5b70ea78c0d0f05bb33",
    66: "3becd6c14c472f26258d4c81db0ede89da35fc1a931dec4a96d804cab856fffb",
    165: "b72b344c3383f2b50a23a6faaf42742db578242050b882079c279bd840e19fdc",
}


@pytest.mark.parametrize("degree", sorted(M11_ELEMENT_DIGESTS))
def test_m11_elements_from_chain_match_closure(degree):
    G = PermGroup(degree, m11_degree(degree).generators)
    assert G.order == 7920
    assert_least_point_chain(G)
    assert G._elements is None          # the order comes from the chain
    rows = np.asarray([g.images for g in G.enumerate()], dtype="<u2")
    assert hashlib.sha256(rows.tobytes()).hexdigest() == M11_ELEMENT_DIGESTS[degree]
    assert all(type(x) is int for x in G.enumerate()[-1].images)


def test_listing_is_a_read_only_sequence():
    G = PermGroup(11, M11_GENS)
    elements = G.enumerate()
    assert G.enumerate() is elements
    assert len(elements) == 7920
    assert elements[0] == Perm.identity(11)
    assert elements[-1] == elements[7919] and elements[-7920] == elements[0]
    for i in (7920, -7921):
        with pytest.raises(IndexError):
            elements[i]
    assert list(elements) == [elements[i] for i in range(7920)]
    assert all(type(x) is int for x in elements[-1].images)


def test_listing_keeps_one_array_of_order_times_degree_bytes():
    # the chain is built before the trace; a tuple of Perms once kept about
    # 8.5 times the array's size and peaked at about 10 times
    G = PermGroup(165, m11_degree(165).generators)
    size = G.order * G.degree
    tracemalloc.start()
    try:
        elements = G.enumerate()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(elements) == 7920
    assert kept <= size + 64 * 1024, kept
    assert peak <= 3 * size, peak


def test_element_of_order_makes_only_the_perm_it_returns(monkeypatch):
    # the listing itself makes none
    G = PermGroup(165, m11_degree(165).generators)
    made = []
    real = groups._perm

    def perm(images):
        made.append(images)
        return real(images)

    monkeypatch.setattr(groups, "_perm", perm)
    g = G.element_of_order(11)
    assert g.order() == 11 and made == [g.images]
    made.clear()
    assert G.element_of_order(7) is None and made == []


def test_over_cap_raises_before_listing():
    # S12 has order 12! > DEFAULT_CAP; the chain's partial orbit lengths
    # pass the cap long before any element is listed
    n = 12
    gens = [Perm.from_cycles(n, [tuple(range(n))]), Perm.from_cycles(n, [(0, 1)])]
    for read in (lambda G: G.enumerate(), lambda G: G.order):
        start = time.perf_counter()
        with pytest.raises(OrderExceedsCap, match=f"group order exceeds cap {groups.DEFAULT_CAP}"):
            read(PermGroup(n, gens))
        assert time.perf_counter() - start < 0.5


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


def test_points_outside_the_degree_are_value_errors():
    # a negative point was once a tuple index: stabilizer(-1) returned G_10,
    # orbit_of(-1) twelve "points", and stabilizer(11) raised IndexError
    G = m11()
    assert G.order == 7920              # the kept chain is built
    for point in (-1, -11, 11, 12):
        for call in (G.stabilizer, G.orbit_of, PermGroup(11, []).stabilizer):
            with pytest.raises(ValueError, match=f"^point {point} is not within 0..10$"):
                call(point)
    for bad in NON_INTEGERS + (0.0,):
        for call in (G.stabilizer, G.orbit_of):
            with pytest.raises(TypeError):
                call(bad)
    assert G.stabilizer(np.int64(10)).order == 720


def _rows(orbit):
    """A set orbit, checked to be a 2-D int64 array, as the sorted list of
    sorted tuples the oracles give."""
    assert orbit.dtype == np.int64 and orbit.ndim == 2
    return list(map(tuple, orbit.tolist()))


def test_set_orbit_toys():
    triv = PermGroup(4, [])
    assert _rows(triv.set_orbit({0, 1})) == [(0, 1)]
    assert set_stabilizer_order(triv, {0, 1}) == 1
    C3 = PermGroup(3, [Perm((1, 2, 0))])
    assert _rows(C3.set_orbit({0})) == [(0,), (1,), (2,)]
    assert set_stabilizer_order(C3, {0}) == 1
    assert C3.set_orbit(()).shape == (1, 0)
    assert _rows(C3.set_orbit(())) == [()]


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
    orbit = _rows(G.set_orbit(delta))
    assert orbit == set_orbit_naive(gens, n, delta)
    assert len(orbit) * set_stabilizer_order(G, delta) == G.order


def test_set_orbit_m11_matches_closure():
    G = m11()
    gens = [g.images for g in M11_GENS]
    for delta in [(), (0,), (0, 1), (0, 1, 3), (2, 5, 7, 9, 10)]:
        orbit = _rows(G.set_orbit(delta))
        assert orbit == set_orbit_naive(gens, 11, delta)
        assert len(orbit) * set_stabilizer_order(G, delta) == 7920


def _set_orbit_by_elements(elements, delta):
    """Sorted distinct images of delta under the rows of elements."""
    images = np.sort(elements[:, sorted(delta)], axis=1)
    return sorted(set(map(tuple, images.tolist())))


# three of the degree-165 unions the benchmark develops (perfbench/golden.json)
UNIONS_165 = [(0,), (1, 3, 5), (1, 2, 3, 4, 5, 6, 7)]


@pytest.mark.parametrize("degree", [22, 55, 66, 165])
def test_set_orbit_at_benchmark_sizes(degree):
    # every orbit union of the stabilizer orbits, or the degree-165 three,
    # against the images under every one of the 7920 elements
    G = m11_degree(degree)
    elements = np.array([g.images for g in G.enumerate()])
    orbits = stabilizer_orbits(G, 0)
    choices = UNIONS_165 if degree == 165 else [
        [i for i in range(len(orbits)) if mask >> i & 1]
        for mask in range(1, 2 ** len(orbits))]
    for choice in choices:
        delta = set().union(*(orbits[i] for i in choice))
        orbit = _rows(G.set_orbit(delta))
        assert orbit == _set_orbit_by_elements(elements, delta), (degree, choice)


def test_set_orbit_rejects_points_outside_the_degree():
    G = m11()
    for delta in [(11,), (0, -1)]:
        with pytest.raises(ValueError, match="not within 0..10"):
            G.set_orbit(delta)


def test_orbits_leave_elements_unenumerated():
    G = PermGroup(165, m11_degree(165).generators)
    assert G.orbit_of(0) == tuple(range(165))
    assert len(G.set_orbit((0, 1, 2))) == 3960
    assert G.set_orbit(()).shape == (1, 0)
    assert _rows(G.set_orbit(())) == [()]
    # point stabilizers come from the chain's first level, not from a list
    assert sorted(map(len, stabilizer_orbits(G, 0))) == [1, 8, 12, 24, 24, 24, 24, 48]
    assert G.stabilizer(7).order == 48
    assert G._elements is None
    M = PermGroup(11, M11_GENS)
    assert M.stabilizer(0).derived_subgroup().order == 360
    assert M._elements is None


def test_set_orbit_memory_is_a_few_indicator_rows_per_set():
    # the regular action of C_2000: the orbit of {0, 1} is 2000 sets found
    # one per layer, each an n-wide bool row, and no more than about two
    # copies of those rows are held at once
    n = 2000
    G = PermGroup(n, [Perm.from_cycles(n, [tuple(range(n))])])
    tracemalloc.start()
    try:
        orbit = G.set_orbit({0, 1})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert orbit.shape == (n, 2) and orbit[0].tolist() == [0, 1]
    assert peak <= 2.5 * n * n, peak


def test_chain_keeps_one_image_tuple_per_orbit_point():
    # the regular action of C_1000: one orbit of 1000 points, each with one
    # 1000-image representative (about 8 MB) and no stored inverse
    n = 1000
    G = PermGroup(n, [Perm.from_cycles(n, [tuple(range(n))])])
    tracemalloc.start()
    try:
        assert G.order == n
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 12 * 2 ** 20


@st.composite
def small_groups(draw):
    """A group on at most 8 points with 1-3 generators, a point set, and two
    draws that each pick an element: the first generates a cyclic subgroup,
    both together a subgroup whose chain may have several levels."""
    n = draw(st.integers(1, 8))
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    delta = draw(st.sets(st.integers(0, n - 1)))
    picks = draw(st.tuples(st.integers(0, 10 ** 9), st.integers(0, 10 ** 9)))
    return n, [tuple(g) for g in gens], delta, picks


@settings(max_examples=100, deadline=None)
@given(small_groups())
def test_point_orbits_match_naive(case):
    n, gens, _, _ = case
    want = sorted(tuple(orb) for orb in _orbits_naive(gens, n))
    assert PermGroup(n, gens).point_orbits() == want


S8_GENS = [tuple(range(1, 8)) + (0,), (1, 0) + tuple(range(2, 8))]
A8_GENS = [(1, 2, 0) + tuple(range(3, 8)), (0,) + tuple(range(2, 8)) + (1,)]


@settings(max_examples=30, deadline=None)
@given(small_groups())
@example((4, [], {0, 1}, (0, 0)))                                # trivial group
@example((5, [tuple(range(5)), (1, 2, 0, 3, 4), (1, 2, 0, 3, 4)], {3}, (7, 2)))  # id, repeat
@example((1, [(0,)], {0}, (0, 0)))                               # degree 1
@example((6, [(1, 0, 2, 3, 4, 5), (0, 1, 2, 3, 5, 4)], {0, 4}, (3, 1)))   # C2 x C2
@example((8, S8_GENS, {0, 1, 2}, (12366, 140883)))   # S8; <both> has order 5040
@example((8, A8_GENS, {0, 5}, (12347, 140750)))       # A8; <both> has order 288
# <(0 1), (3 4), (1 2)>: its kept chain once had the base 0, 3, 1, and
# level 1's generators moved points 1 and 2
@example((5, [(1, 0, 2, 3, 4), (0, 1, 2, 4, 3), (0, 2, 1, 3, 4)], {1, 3}, (5, 17)))
# <(3 4), (0 1 2)>: the second generator opens a level ahead of level 0
@example((5, [(0, 1, 2, 4, 3), (1, 2, 0, 3, 4)], {0, 3}, (2, 5)))
def test_group_layer_matches_naive(case):
    n, gens, delta, picks = case
    closure = group_closure_naive(gens, n)
    order = len(closure)
    G = PermGroup(n, gens)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "DEFAULT_CAP", order)
        assert PermGroup(n, gens).order == order
        assert_least_point_chain(G)
        assert [g.images for g in G.enumerate()] == sorted(closure)
        for x in range(n):
            assert ([g.images for g in G.stabilizer(x).enumerate()]
                    == sorted(g for g in closure if g[x] == x))
        # G' against <[x, s] : x in G, s in gens>, whose oracle lists G:
        # a bound of 5040 elements (S7) keeps each example under 0.1 s
        if order <= 5040:
            D = G.derived_subgroup()
            assert ({g.images for g in D.enumerate()}
                    == derived_subgroup_naive(gens, n))
        mp.setattr(groups, "DEFAULT_CAP", order - 1)
        with pytest.raises(OrderExceedsCap):
            PermGroup(n, gens).enumerate()

    if n <= 6:
        assert {p for p in itertools.permutations(range(n)) if Perm(p) in G} == closure
    orbits = sorted({tuple(sorted({g[x] for g in closure})) for x in range(n)})
    assert G.point_orbits() == orbits
    assert _rows(G.set_orbit(delta)) == set_orbit_naive(gens, n, delta)

    hs = [G.enumerate()[pick % order].images for pick in picks]
    for hgens in (hs[:1], hs):
        H = PermGroup(n, hgens)
        with pytest.MonkeyPatch.context() as mp:
            # a small cap sends large-index draws (S8 and A8 by a small
            # subgroup) to the cheap rejection instead of a naive coset action
            mp.setattr(groups, "INDEX_CAP", 120)
            if order // H.order > groups.INDEX_CAP:
                with pytest.raises(IndexTooLarge):
                    G.coset_action(H)
                continue
            A = G.coset_action(H)
        assert A.degree == order // H.order
        assert [g.images for g in A.generators] == coset_action_naive(gens, n, hgens)


def test_chain_levels_are_as_many_as_the_base_needs():
    # an explicit base 0, 1, ..., n-1 once nested one call per base point
    # between a generator's moved points, past the interpreter's recursion
    # limit; every level now opens at the least point it moves
    n = 3000
    G = PermGroup(n, [Perm.from_cycles(n, [c]) for c in [(0, 1), (n - 2, n - 1)]])
    assert [b for b, _, _ in G._stabilizer_chain()] == [0, n - 2]
    assert G.order == 4
    assert [G.stabilizer(x).order for x in (0, 1500, n - 1)] == [2, 4, 2]


def test_chain_is_built_by_one_schreier_sims_call(monkeypatch):
    # the kept chain was once rebuilt from the first level whose base point
    # was not the least point it moves: S9 took 7 calls, M11's actions 2-3
    calls = []
    real = groups._schreier_sims

    def schreier_sims(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(groups, "_schreier_sims", schreier_sims)
    n = 9
    S9 = [Perm.from_cycles(n, [tuple(range(n))]), Perm.from_cycles(n, [(0, 1)])]
    cases = [(n, S9, math.factorial(n))] + [
        (degree, m11_degree(degree).generators, 7920) for degree in sorted(M11_ELEMENT_DIGESTS)]
    for degree, gens, order in cases:
        calls.clear()
        assert PermGroup(degree, gens).order == order
        assert len(calls) == 1, degree


@st.composite
def induced_cases(draw):
    """A small transitive group, a subset size k, and a list of distinct
    point sets made of whole set orbits, in random order and sometimes with
    its last set dropped."""
    G = draw(small_transitive_groups())
    k = draw(st.integers(0, min(3, G.degree)))
    blocks = {}
    for _ in range(draw(st.integers(1, 3))):
        delta = draw(st.sets(st.integers(0, G.degree - 1), min_size=1))
        blocks.update(dict.fromkeys(_rows(G.set_orbit(delta))))
    blocks = draw(st.permutations(list(blocks)))
    if draw(st.booleans()):
        blocks = blocks[:-1]
    return G, k, blocks


@settings(max_examples=100, deadline=None)
@given(induced_cases())
def test_induced_matches_naive(case):
    G, k, blocks = case
    gens = [g.images for g in G.generators]
    subsets = list(itertools.combinations(range(G.degree), k))
    A = G.action_on_ksubsets(k)
    assert A.degree == len(subsets)
    assert [g.images for g in A.generators] == induced_naive(gens, subsets)

    want = induced_naive(gens, blocks)
    if None in want:
        with pytest.raises(NotInvariant) as info:
            G.induced(blocks, Perm.apply_set)
        assert info.value.generator == G.generators[want.index(None)]
    else:
        B = G.induced(blocks, Perm.apply_set)
        assert [g.images for g in B.generators] == want

    for g in G.enumerate():
        assert g.order() == perm_order_naive(g.images)
        assert g.cycle_type() == cycle_type_naive(g.images)


def test_induced_rejects_repeated_objects():
    # copies of a repeated object were once sent to the copies of its image
    # in index order; objects are positions now, so a repeat is rejected
    G = PermGroup(3, [Perm((1, 2, 0))])
    blocks = [(0,), (1,), (0,), (2,), (1,), (2,)]
    with pytest.raises(ValueError, match=r"^object \(0,\) is repeated$"):
        G.induced(blocks, Perm.apply_set)
    assert G.induced([(2,), (0,), (1,)], Perm.apply_set).generators[0].images == (1, 2, 0)
    with pytest.raises(NotInvariant, match=r"generator Perm\(0 1 2\)"):
        G.induced(blocks[:2], Perm.apply_set)


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


def test_ksubset_action_needs_some_subsets():
    # a degree-0 action would print a group file parse_group_text rejects
    for k in (-1, 4):
        with pytest.raises(ValueError, match="outside 0..3"):
            PermGroup(3, [Perm((1, 2, 0))]).action_on_ksubsets(k)
    assert PermGroup(3, [Perm((1, 2, 0))]).action_on_ksubsets(3).degree == 1


def test_homomorphism_on_generators():
    # the induced action of a product is the product of the induced actions
    G = m11()
    gens = G.generators
    products = [gi * gj for gi in gens for gj in gens]
    A = G.action_on_ksubsets(2).generators
    B = PermGroup(11, products).action_on_ksubsets(2).generators
    assert list(B) == [A[i] * A[j] for i in range(len(gens))
                       for j in range(len(gens))]


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


# the generators of the shipped degree-22 action, m11_degree(22)
M11_22_IMAGES = [
    (3, 2, 5, 4, 6, 7, 9, 8, 11, 10, 13, 12, 14, 15, 16, 17, 18, 19, 21, 20, 0, 1),
    (1, 0, 3, 2, 13, 12, 18, 19, 10, 11, 7, 6, 21, 20, 5, 4, 16, 17, 9, 8, 15, 14)]


def _listed(*args):
    raise AssertionError("a group was listed")


@pytest.mark.parametrize("G, subgroup, images", [
    # M11 on the cosets of the A6 in a point stabilizer, |A6| = 360
    (m11(), lambda G: G.stabilizer(0).derived_subgroup(), M11_22_IMAGES),
    # S9 on the cosets of S8, |S8| = 40320
    (PermGroup(9, [Perm.from_cycles(9, [tuple(range(9))]), Perm.from_cycles(9, [(0, 1)])]),
     lambda G: G.stabilizer(8),
     [(8, 0, 1, 2, 3, 4, 5, 6, 7), (0, 1, 2, 3, 4, 5, 6, 8, 7)]),
], ids=["m11-on-A6", "S9-on-S8"])
def test_coset_action_lists_no_element(monkeypatch, G, subgroup, images):
    monkeypatch.setattr(groups, "_element_rows", _listed)
    A = G.coset_action(subgroup(G))
    assert [g.images for g in A.generators] == images
    assert A.order == G.order           # both actions are faithful


def test_coset_action_on_far_apart_points():
    # H moves only 0, 1, n - 2 and n - 1: a chain of H on the base 0..n-1
    # would pass (n-2 n-1) down one nested call per point in between, past
    # the interpreter's recursion limit
    n = 3000
    swaps = [(0, 1), (n - 2, n - 1), (1, 2)]
    gens = [Perm.from_cycles(n, [c]).images for c in swaps]
    A = PermGroup(n, gens).coset_action(PermGroup(n, gens[:2]))
    assert [g.images for g in A.generators] == coset_action_naive(gens, n, gens[:2])
    assert A.degree == 3


def test_m11_degree22_lists_no_element(monkeypatch):
    # the shipped degree-22 action, built afresh: M10, its derived A6 and
    # the coset action all read chains
    socodes.m11._m11_of_degree.cache_clear()
    monkeypatch.setattr(groups, "_element_rows", _listed)
    assert [g.images for g in m11_degree(22).generators] == M11_22_IMAGES


def test_derived_subgroup_keeps_few_generators():
    # the A6 in M11's point stabilizer M10: each kept commutator or
    # conjugate is new to the closure of those before it, and M10's
    # generators normalize what they generate
    M = m11().stabilizer(0)
    H = M.derived_subgroup()
    assert H.order == 360
    assert [g.images for g in H.generators] == [
        (0, 10, 8, 5, 4, 6, 9, 7, 1, 3, 2), (0, 7, 2, 10, 9, 5, 8, 6, 1, 3, 4)]
    assert PermGroup(11, H.generators[:1]).order < H.order
    for s in M.generators:
        s_inv = Perm(sorted(range(11), key=s.images.__getitem__))
        assert all(s_inv * h * s in H for h in H.generators)


def test_m11_degree22_action():
    G = m11()
    H = G.stabilizer(0).derived_subgroup()
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
    involutions = [h for h in m11().enumerate() if h.order() == 2]
    assert len(involutions) == 165
    assert {h.cycle_type() for h in involutions} == {g.cycle_type()}


@pytest.mark.parametrize("degree", [11, 12, 22, 55, 66, 165])
def test_element_of_order_is_the_first_listed_of_that_order(degree):
    G = m11_degree(degree)
    orders = [g.order() for g in G.enumerate()]
    for t in range(13):
        want = next((g for g, o in zip(G.enumerate(), orders) if o == t), None)
        assert G.element_of_order(t) == want, t


def test_m11_order11_subgroups():
    # 1440 elements of order 11, ten to each cyclic subgroup
    assert sum(h.order() == 11 for h in m11().enumerate()) == 1440
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


def test_group_file_identity_is_empty_cycle():
    G = parse_group_text("degree 3\n()\n(1,2,3)\n")
    assert G.generators[0] == Perm.identity(3)
    assert G.order == 3


@pytest.mark.parametrize("text, message", [
    ("degree 0\n()\n", "below 1"),
    ("degree -2\n()\n", "below 1"),
    ("degree 0\n", "below 1"),
    ("degree 3\n(1,2)()\n", "empty cycle"),
    ("degree 3\n()(1,2)\n", "empty cycle"),
    ("degree 3\n(1,1)\n", "repeats a point"),
    ("degree 3\n(1,2,1)(3)\n", "repeats a point"),
    ("degree 3 4\n()\n", "header must be 'degree n'"),
    ("(1,2)\n", "header must be 'degree n'"),
    ("", "header must be 'degree n'"),
    ("Degree 3\n", "header must be 'degree n'"),
    ("degree three\n", "header must be 'degree n'"),
])
def test_group_file_rejects_malformed_cycles(text, message):
    with pytest.raises(ValueError, match=message):
        parse_group_text(text)


def test_group_file_img_notation():
    text = "degree 3\nimg: 2 3 1\n"
    G = parse_group_text(text)
    assert G.generators[0].images == (1, 2, 0)


def test_derive_script_reproduces_m11_12():
    # order, coset_action and format_group_text on an action the shipped
    # data does not otherwise rebuild
    path = Path(__file__).resolve().parent.parent / "scripts" / "derive_m11_degree12.py"
    spec = importlib.util.spec_from_file_location("derive_m11_degree12", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    shipped = resources.files("socodes.data").joinpath("m11_12.grp").read_text(encoding="utf-8")
    assert script.derive() == shipped
