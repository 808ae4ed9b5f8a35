"""Tests for 1-designs: validation, intersection profiles, developments.

Expected values for the M11 developments were derived with a throwaway
numpy script (incidence ranks, pairwise intersections, orbit unions)
before this module existed; they are frozen here.
"""

from itertools import combinations
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import validate_naive, wso_search_naive
from socodes import designs
from socodes.designs import (
    INCIDENCE_CAP,
    Design,
    DeltaEmpty,
    DeltaIsOmega,
    NonConstantBlockSize,
    NotOneDesign,
    TooManyOrbitCombinations,
    WSOProfile,
    format_design_text,
    from_group_action,
    intersection_profile,
    parameters,
    parse_design_text,
    stabilizer_orbits,
    validate,
    wso_search,
)
from socodes.fields import Field
from socodes.matrices import GFMatrix
from socodes.groups import NotTransitive, Perm, PermGroup
from socodes.m11 import m11_degree
from socodes.records import SelfCheckFailed
from strategies import NON_INTEGERS, small_transitive_groups


def cyclic(n: int) -> PermGroup:
    return PermGroup(n, [Perm.from_cycles(n, [tuple(range(n))])])


# ---------------------------------------------------------------------------
# validate


def test_validate_four_cycle():
    D = Design(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert validate(D) == (2, 2)
    assert D.b == 4


def test_a_design_keeps_its_validation_and_one_profile_per_p(monkeypatch):
    # each validation or profile computed reads the block sizes once; a
    # kept one reads nothing, and a failed validation is never kept
    calls = []
    real = designs._block_size
    monkeypatch.setattr(designs, "_block_size", lambda D: calls.append(D) or real(D))
    D = Design(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert validate(D) == validate(D) == (2, 2) and parameters(D) == "1-(4,2,2)"
    assert len(calls) == 1
    prof = intersection_profile(D, 2)
    assert intersection_profile(D, 2) is prof and intersection_profile(D, np.int64(2)) is prof
    assert len(calls) == 2
    assert intersection_profile(D, 3) == WSOProfile(3, 2, None) and len(calls) == 3
    bad = Design(3, [(0, 1), (0, 2)])
    for _ in range(2):
        with pytest.raises(NotOneDesign, match="replication counts"):
            validate(bad)
    assert len(calls) == 5


def test_validate_nonconstant_block_size():
    D = Design(3, [(0, 1), (0, 1, 2)])
    with pytest.raises(NonConstantBlockSize):
        validate(D)


def test_validate_not_one_design():
    # point 2 lies in no block
    D = Design(3, [(0, 1), (0, 1)])
    with pytest.raises(NotOneDesign):
        validate(D)


@st.composite
def block_lists(draw):
    """v <= 8 and a list of point sets: random sets (possibly none, or
    empty) or the cyclic development of a base block, some of them
    repeated; points may be left uncovered."""
    v = draw(st.integers(0, 8))
    if v and draw(st.booleans()):
        base = draw(st.sets(st.integers(0, v - 1)))
        blocks = [{(x + i) % v for x in base} for i in range(v)]
    else:
        points = st.sets(st.integers(0, v - 1)) if v else st.just(set())
        blocks = draw(st.lists(points, max_size=6))
    if blocks:
        blocks += draw(st.lists(st.sampled_from(blocks), max_size=3))
    return v, blocks


@settings(max_examples=200, deadline=None)
@given(block_lists())
def test_design_layer_matches_naive(case):
    v, blocks = case
    D = Design(v, blocks)
    assert (D.incidence.shape, D.incidence.dtype) == ((len(blocks), v), np.int64)
    assert D.incidence.tolist() == [[int(x in blk) for x in range(v)]
                                    for blk in blocks]
    with pytest.raises(ValueError, match="read-only"):
        D.incidence[...] = 0

    err, want = validate_naive(v, blocks)
    if err is None:
        assert validate(D) == want
        assert parameters(D) == f"1-({v},{want[0]},{want[1]})"
    else:
        for check in (validate, parameters):
            with pytest.raises(ValueError) as e:
                check(D)
            assert (type(e.value).__name__, str(e.value)) == (err, want)

    for p in (2, 3, 5):
        if len(blocks) < 2:
            with pytest.raises(ValueError, match="two blocks"):
                intersection_profile(D, p)
        elif len({len(blk) for blk in blocks}) != 1:
            with pytest.raises(NonConstantBlockSize):
                intersection_profile(D, p)
        else:
            prof = intersection_profile(D, p)
            assert (prof.a, prof.d) == (len(blocks[0]) % p, _profile_naive(D, p))


def test_validate_replication_mismatch():
    # k constant but point 0 in two blocks, point 3 in one
    D = Design(4, [(0, 1), (0, 2), (2, 3), (1, 3), (0, 3)])
    with pytest.raises(NotOneDesign):
        validate(D)


# ---------------------------------------------------------------------------
# intersection_profile


def test_profile_disjoint_pairs_is_so():
    D = Design(4, [(0, 1), (2, 3)])
    prof = intersection_profile(D, 2)
    assert (prof.a, prof.d, prof.case) == (0, 0, "SO")
    assert prof.constant


def test_profile_four_cycle_nonconstant():
    D = Design(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    prof = intersection_profile(D, 2)
    assert prof.d is None and not prof.constant
    assert prof.case is None


def test_profile_repeated_blocks_intersect_in_k():
    # repeated blocks are distinct objects; the pair meets in k = 2 points
    D = Design(4, [(0, 1), (0, 1)])
    prof = intersection_profile(D, 2)
    assert (prof.a, prof.d) == (0, 0)


def test_profile_odd_cases():
    tri = Design(3, [(0, 1), (1, 2), (0, 2)])  # k=2, ints 1
    prof = intersection_profile(tri, 2)
    assert (prof.a, prof.d, prof.case) == (0, 1, "EvenK-OddInt")
    singles = Design(3, [(0,), (1,), (2,)])  # k=1, ints 0
    prof = intersection_profile(singles, 2)
    assert (prof.a, prof.d, prof.case) == (1, 0, "OddK-EvenInt")
    fano_like = Design(3, [(0, 1, 2), (0, 1, 2), (0, 1, 2)])  # ints 3
    prof = intersection_profile(fano_like, 2)
    assert (prof.a, prof.d, prof.case) == (1, 1, "OddK-OddInt")


def test_profile_mod3():
    # k = 4 = 1 mod 3; all pairwise intersections 1 = 1 mod 3
    D = Design(13, [(0, 1, 2, 3), (0, 4, 5, 6), (1, 4, 7, 8), (2, 5, 7, 9)])
    prof = intersection_profile(D, 3)
    assert (prof.p, prof.a, prof.d) == (3, 1, 1)
    assert prof.case is None  # named cases are a p=2 notion
    assert prof.dispatch_case() == 4


def test_profile_dispatch_cases():
    pairs = Design(4, [(0, 1), (2, 3)])
    assert intersection_profile(pairs, 2).dispatch_case() == 1
    tri = Design(3, [(0, 1), (1, 2), (0, 2)])
    assert intersection_profile(tri, 2).dispatch_case() == 2


def test_profile_needs_two_blocks():
    D = Design(3, [(0, 1, 2)])
    with pytest.raises(ValueError):
        intersection_profile(D, 2)


# one odd pair, both of whose intersections differ from the rest mod 2 and
# mod 3: pairs meet in 0 except one in 1; pairs meet in 1 except one in 2
ODD_PAIR_BLOCKS = [
    ([(0, 1), (1, 2)], [(3, 4), (5, 6), (7, 8)]),
    ([(0, 1, 2), (0, 1, 3)], [(0, 4, 5), (0, 6, 7), (0, 8, 9)]),
]


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("odd, rest", ODD_PAIR_BLOCKS)
@pytest.mark.parametrize("where", ["first", "last"])
def test_profile_one_odd_pair(p, odd, rest, where):
    # the profile fills its diagonal with the residue of pair (0, 1), so
    # the odd pair is put there once and at (b-2, b-1) once
    blocks = odd + rest if where == "first" else rest + odd
    D = Design(10, blocks)
    assert _profile_naive(D, p) is None
    prof = intersection_profile(D, p)
    assert prof.d is None and prof.case is None


@pytest.mark.parametrize("p, want", [(2, 0), (3, 2)])
def test_profile_two_blocks_is_constant(p, want):
    D = Design(4, [(0, 1, 2), (1, 2, 3)])
    prof = intersection_profile(D, p)
    assert (prof.a, prof.d) == (3 % p, want)


# ---------------------------------------------------------------------------
# from_group_action


def test_from_group_action_c3_singletons():
    G = cyclic(3)
    D = from_group_action(G, 0, (0,))
    assert D.v == 3 and D.blocks == ((0,), (1,), (2,))
    assert validate(D) == (1, 1)


def test_from_group_action_delta_is_omega():
    G = cyclic(3)
    with pytest.raises(DeltaIsOmega):
        from_group_action(G, 0, (0, 1, 2))


def test_from_group_action_repeated_index_is_omega():
    # m11:11 has stabilizer orbits of sizes 1 and 10; repeating index 1
    # must not push the point count past the whole-point-set check
    G = m11_degree(11)
    with pytest.raises(DeltaIsOmega):
        from_group_action(G, 0, (0, 1, 1))
    assert from_group_action(G, 0, (1, 1)) == from_group_action(G, 0, (1,))


def test_stabilizer_points_outside_the_degree_are_value_errors():
    # a negative alpha once wrapped around: -22 developed from point 0
    G = m11_degree(22)
    for call in (lambda: from_group_action(G, -22, (1,)),
                 lambda: from_group_action(G, 22, (1,)),
                 lambda: wso_search(G, -1),
                 lambda: stabilizer_orbits(G, 22)):
        with pytest.raises(ValueError, match=r"^point (-1|-22|22) is not within 0\.\.21$"):
            call()


def test_from_group_action_delta_empty():
    G = cyclic(3)
    with pytest.raises(DeltaEmpty):
        from_group_action(G, 0, ())


def test_from_group_action_not_transitive():
    G = PermGroup(3, [Perm.from_cycles(3, [(0, 1)])])
    with pytest.raises(NotTransitive):
        from_group_action(G, 0, (0,))


def test_from_group_action_bad_choice_index():
    G = cyclic(3)
    with pytest.raises(ValueError, match="0..2"):
        from_group_action(G, 0, (5,))


def test_from_group_action_negative_index_rejected():
    # a negative index must not count orbits from the end: on m11:11 the
    # orbit -1 would be orbit 1 and develop the 1-(11,10,10) design
    G = m11_degree(11)
    with pytest.raises(ValueError, match="0..1"):
        from_group_action(G, 0, (-1,))
    with pytest.raises(ValueError):
        from_group_action(G, 0, (0, 2))


@settings(max_examples=60, deadline=None)
@given(small_transitive_groups(), st.data())
def test_development_equals_checked_design(G, data):
    # a development must be the design the constructor builds from the same
    # set orbit's rows given as tuples: blocks, incidence bytes and parameters
    orbits = stabilizer_orbits(G, 0)
    choice = data.draw(st.lists(st.integers(0, len(orbits) - 1), min_size=1,
                                max_size=len(orbits) - 1, unique=True))
    delta = tuple(sorted(x for i in choice for x in orbits[i]))
    got = from_group_action(G, 0, choice)
    want = Design(G.degree, map(tuple, G.set_orbit(delta).tolist()))
    assert got.v == want.v and got.blocks == want.blocks
    assert got.incidence.dtype == np.int64 and not got.incidence.flags.writeable
    assert got.incidence.shape == want.incidence.shape
    assert got.incidence.tobytes() == want.incidence.tobytes()
    assert validate(got) == validate(want)


def test_m11_degree22_developments():
    G = m11_degree(22)
    D = from_group_action(G, 0, (2,))
    assert (D.v, *validate(D), D.b) == (22, 20, 10, 11)
    assert intersection_profile(D, 2).case == "SO"
    D2 = from_group_action(G, 0, (0, 1))
    assert (D2.v, *validate(D2), D2.b) == (22, 2, 1, 11)
    assert intersection_profile(D2, 2).case == "SO"


# ---------------------------------------------------------------------------
# wso_search


def test_wso_search_degree22_frozen():
    G = m11_degree(22)
    hits = wso_search(G, 0)
    got = [(h.orbit_choice, (h.design.v, *validate(h.design)),
            h.design.b, h.profile.dispatch_case()) for h in hits]
    assert got == [
        ((0,), (22, 1, 1), 22, 3),
        ((1,), (22, 1, 1), 22, 3),
        ((0, 1), (22, 2, 1), 11, 1),
        ((2,), (22, 20, 10), 11, 1),
        ((0, 2), (22, 21, 21), 22, 3),
        ((1, 2), (22, 21, 21), 22, 3),
    ]


def test_wso_search_degree66_frozen():
    G = m11_degree(66)
    hits = wso_search(G, 0)
    got = [(h.orbit_choice, (h.design.v, *validate(h.design)),
            h.design.b, h.profile.dispatch_case()) for h in hits]
    assert got == [
        ((0,), (66, 1, 1), 66, 3),
        ((1,), (66, 20, 20), 66, 1),
        ((0, 1), (66, 21, 21), 66, 3),
        ((2, 3), (66, 45, 45), 66, 3),
        ((0, 2, 3), (66, 46, 46), 66, 1),
        ((1, 2, 3), (66, 65, 65), 66, 3),
    ]


def test_wso_search_trivial_stabilizer_toy():
    # trivial stabilizer: every proper nonempty subset is a candidate Delta
    G = cyclic(4)
    hits = wso_search(G, 0)
    assert {h.orbit_choice for h in hits} <= {
        c for c in _subsets(4) if 0 < len(c) < 4}
    # the 4-cycle development {01},{12},{23},{03} has mixed parity: dropped
    assert (0, 1) not in {h.orbit_choice for h in hits}
    assert (0, 2) in {h.orbit_choice for h in hits}


def test_wso_search_degree165_frozen():
    hits = wso_search(m11_degree(165), 0, 2)
    assert [h.orbit_choice for h in hits] == [
        (0,), (2,), (0, 2), (3, 4), (0, 3, 4), (2, 3, 4), (0, 2, 3, 4),
        (1, 3, 5), (1, 2, 3, 5), (0, 1, 4, 5), (0, 1, 2, 4, 5), (3, 6, 7),
        (2, 3, 6, 7), (0, 4, 6, 7), (0, 2, 4, 6, 7), (1, 5, 6, 7),
        (0, 1, 5, 6, 7), (1, 2, 5, 6, 7), (0, 1, 2, 5, 6, 7),
        (1, 3, 4, 5, 6, 7), (0, 1, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7),
    ]
    assert all(h.design.b == 165 for h in hits)


# at most 2^8 - 2 orbit unions per group keeps each example near 0.1 s
@settings(max_examples=30, deadline=None)
@given(small_transitive_groups().filter(lambda G: len(stabilizer_orbits(G, 0)) <= 8),
       st.sampled_from([2, 3, 5]))
def test_wso_search_matches_plain_search(G, p):
    want = wso_search_naive([g.images for g in G.generators], G.degree, p)
    got = [(h.orbit_choice, list(h.design.blocks), h.profile.a, h.profile.d)
           for h in wso_search(G, 0, p)]
    assert got == want


def test_wso_search_regular_c12_matches_plain_search(monkeypatch):
    # a trivial stabilizer: all 4,094 proper nonempty subsets are unions,
    # and only the hits are developed
    G = cyclic(12)
    developed = []
    set_orbit = G.set_orbit
    monkeypatch.setattr(G, "set_orbit", lambda delta: developed.append(delta)
                        or set_orbit(delta))
    want = wso_search_naive([g.images for g in G.generators], 12, 2)
    got = [(h.orbit_choice, list(h.design.blocks), h.profile.a, h.profile.d)
           for h in wso_search(G, 0, 2)]
    assert got == want
    assert len(developed) == len(want) == 262


def test_wso_search_checks_the_predicted_profile(monkeypatch):
    # a developed profile that is not the counted one is an internal fault
    monkeypatch.setattr(designs, "intersection_profile",
                        lambda D, p: WSOProfile(p, 1, 1))
    with pytest.raises(SelfCheckFailed, match=r"^orbit union \(0,\): developed "
                       r"profile \(a, d\) = \(1, 1\), predicted \(1, 0\)$"):
        wso_search(m11_degree(22), 0, 2)


@settings(max_examples=30, deadline=None)
@given(small_transitive_groups().filter(lambda G: len(stabilizer_orbits(G, 0)) <= 8),
       st.sampled_from([2, 3, 5]))
def test_wso_search_hits_are_closed_under_complement(G, p):
    # the complementary union develops the complementary blocks, and two
    # complements of k-sets meet in v - 2k + |X & Y| points
    v, n_orbits = G.degree, len(stabilizer_orbits(G, 0))
    hits = {h.orbit_choice: h for h in wso_search(G, 0, p)}
    for choice, hit in hits.items():
        rest = tuple(i for i in range(n_orbits) if i not in choice)
        assert rest in hits, (choice, p)
        other, k = hits[rest], validate(hit.design)[0]
        assert validate(other.design)[0] == v - k
        assert (other.profile.a, other.profile.d) == \
            ((v - k) % p, (v - 2 * k + hit.profile.d) % p)
        assert ({frozenset(range(v)).difference(blk) for blk in hit.design.blocks}
                == set(map(frozenset, other.design.blocks)))


@pytest.mark.parametrize("p", [1, 0, -2])
def test_profile_needs_p_at_least_2(p):
    # p = 1 would make every union a hit, p = 0 divide by zero
    with pytest.raises(ValueError, match=rf"^p={p} must be at least 2$"):
        wso_search(m11_degree(22), 0, p)


def _profile_naive(D, p):
    resid = {len(set(x) & set(y)) % p for x, y in combinations(D.blocks, 2)}
    return resid.pop() if len(resid) == 1 else None


def test_profile_matches_pairwise():
    for degree in (22, 66):
        G = m11_degree(degree)
        n_orbits = len(stabilizer_orbits(G, 0))
        for mask in range(1, 2 ** n_orbits - 1):
            choice = tuple(i for i in range(n_orbits) if mask >> i & 1)
            D = from_group_action(G, 0, choice)
            for p in (2, 3):
                prof = intersection_profile(D, p)
                assert prof.d == _profile_naive(D, p)
                assert prof.a == validate(D)[0] % p


def _subsets(n):
    out = []
    for mask in range(1 << n):
        out.append(tuple(i for i in range(n) if mask >> i & 1))
    return out


def test_wso_search_combination_cap():
    G = cyclic(25)  # trivial stabilizer: 2^25 candidate unions
    with pytest.raises(TooManyOrbitCombinations):
        wso_search(G, 0)


def test_search_invariants():
    G = m11_degree(22)
    for h in wso_search(G, 0):
        D = h.design
        k, r = validate(D)
        assert D.b * k == D.v * r
        assert h.profile.constant


def test_development_invariant_under_generators():
    G = m11_degree(22)
    D = from_group_action(G, 0, (2,))
    blocks = sorted(D.blocks)
    for g in G.generators:
        mapped = sorted(tuple(sorted(g.images[x] for x in blk))
                        for blk in D.blocks)
        assert mapped == blocks


def test_so_design_has_zero_gram():
    G = m11_degree(22)
    D = from_group_action(G, 0, (0, 1))
    M = GFMatrix(Field(2, 1), D.incidence)
    assert M.gram().is_zero()


# ---------------------------------------------------------------------------
# serialization


def test_design_file_roundtrip():
    D = Design(4, [(0, 1), (2, 3)])
    text = format_design_text(D)
    assert parse_design_text(text) == D
    assert text.splitlines()[0] == "4 2"


def test_design_text_rejects_bad_index():
    with pytest.raises(ValueError):
        Design(3, [(0, 5)])


@pytest.mark.parametrize("blocks, message", [
    # each message shows the block as a sorted tuple
    ([(5, 1)], "block (1, 5) outside point range [0,3)"),
    ([(1, 0, 0)], "block (0, 0, 1) repeats a point"),
    ([(2, -1)], "block (-1, 2) outside point range [0,3)"),
    # the first offending block in input order is the one reported
    ([(0, 1), (2, 2), (0, 7)], "block (2, 2) repeats a point"),
    ([(0, 1), (9, 0), (1, 1)], "block (0, 9) outside point range [0,3)"),
    # within one block the range check comes before the repeat check
    ([(0, 1), (4, 4, 2)], "block (2, 4, 4) outside point range [0,3)"),
    # the point checks come before the size cap
    ([(0,)] * 2000 + [(3,)], "block (3,) outside point range [0,3)"),
    # the same precedence for equal-size blocks, which also run as an array
    ([(0, 1, 2), (4, 4, 2)], "block (2, 4, 4) outside point range [0,3)"),
    # a repeat is found after the sort within the block
    ([(0, 1, 2), (1, 0, 1)], "block (0, 1, 1) repeats a point"),
])
def test_design_rejects_first_bad_block(blocks, message):
    # equal-size blocks are checked the same way given as one 2-D array
    forms = [blocks, np.array(blocks)] if len(set(map(len, blocks))) == 1 else [blocks]
    for form in forms:
        with pytest.raises(ValueError) as e:
            Design(3, form)
        assert str(e.value) == message


@pytest.mark.parametrize("bad", NON_INTEGERS)
def test_design_rejects_non_integer_points(bad):
    # a float would otherwise be truncated: (0.5, 1) -> (0, 1), v = 0.5 -> 0
    with pytest.raises(TypeError, match="^points must be integral$"):
        Design(3, [(0, 2), (bad, 1)])
    with pytest.raises(TypeError, match="^points must be integral$"):
        Design(3, np.array([(0, 2), (bad, 1)]))
    with pytest.raises(TypeError, match="^point count must be integral$"):
        Design(bad, [])


def test_design_accepts_numpy_integers_and_bools():
    D = Design(3, [(np.int64(2), np.uint8(0)), (True, np.int32(2)), [False]])
    assert D.blocks == ((0, 2), (1, 2), (0,))
    assert all(type(x) is int for blk in D.blocks for x in blk)
    with pytest.raises(ValueError) as e:
        Design(3, [(0,), (np.uint64(2 ** 64 - 1), 1), (2 ** 70,)])
    assert str(e.value) == "block (1, 18446744073709551615) outside point range [0,3)"
    # an array of any integer dtype, unsorted rows sorted; uint64 past int64
    # is outside the range, and a float dtype is not integral
    A = Design(3, np.array([[2, 0], [1, 2]], dtype=np.uint8))
    assert A.blocks == ((0, 2), (1, 2))
    assert all(type(x) is int for blk in A.blocks for x in blk)
    with pytest.raises(ValueError) as e:
        Design(3, np.array([[0, 1], [2 ** 64 - 1, 1]], dtype=np.uint64))
    assert str(e.value) == "block (1, 18446744073709551615) outside point range [0,3)"
    with pytest.raises(TypeError, match="^points must be integral$"):
        Design(3, np.array([[0.0, 1.0]]))


def test_design_cap_message():
    for blocks in ([(0,)] * 2000, np.zeros((2000, 1), dtype=np.int64)):
        with pytest.raises(ValueError) as e:
            Design(3, blocks)
        assert str(e.value) == (f"2000 blocks on 3 points: b * max(b, v) "
                                f"exceeds {INCIDENCE_CAP}")


def test_design_size_capped_before_incidence():
    n = isqrt(INCIDENCE_CAP)
    assert Design(n, [(i,) for i in range(n)]).incidence.shape == (n, n)
    assert Design(n, np.arange(n)[:, None]).incidence.shape == (n, n)
    assert Design(INCIDENCE_CAP, [(0,)]).b == 1
    with pytest.raises(ValueError, match=f"{n + 1} blocks on {n + 1} points"):
        Design(n + 1, [(i,) for i in range(n + 1)])
    with pytest.raises(ValueError, match=f"{n + 1} blocks on {n + 1} points"):
        Design(n + 1, np.arange(n + 1)[:, None])
    with pytest.raises(ValueError, match=f"2 blocks on {INCIDENCE_CAP} points"):
        Design(INCIDENCE_CAP, [(0,), (1,)])
    with pytest.raises(ValueError, match=f"2 blocks on {INCIDENCE_CAP} points"):
        Design(INCIDENCE_CAP, np.array([[0], [1]]))
    for v, blocks in ((-3, []), (-1, [(0,)])):
        with pytest.raises(ValueError, match=f"negative point count {v}"):
            Design(v, blocks)


def test_from_group_action_over_cap():
    # a regular action develops a singleton into degree-many blocks
    n = isqrt(INCIDENCE_CAP) + 1
    with pytest.raises(ValueError, match=f"{n} blocks on {n} points"):
        from_group_action(cyclic(n), 0, (0,))


def test_incidence_matrix_shape():
    D = Design(4, [(0, 1), (2, 3)])
    M = GFMatrix(Field(2, 1), D.incidence)
    assert (M.rows, M.cols) == (2, 4)
    assert np.array_equal(M.a, [[1, 1, 0, 0], [0, 0, 1, 1]])
    assert np.array_equal(Design(3, [(), (0, 2), (1,)]).incidence,
                          [[0, 0, 0], [1, 0, 1], [0, 1, 0]])
