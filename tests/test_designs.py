"""Tests for 1-designs: validation, intersection profiles, developments.

Expected values for the M11 developments were derived with a throwaway
numpy script (incidence ranks, pairwise intersections, orbit unions)
before this module existed; they are frozen here.
"""

from itertools import combinations

import numpy as np
import pytest

from socodes.designs import (
    Design,
    DeltaEmpty,
    DeltaIsOmega,
    NonConstantBlockSize,
    NotOneDesign,
    TooManyOrbitCombinations,
    format_design_text,
    from_group_action,
    intersection_profile,
    load_design,
    stabilizer_orbits,
    validate,
    wso_search,
)
from socodes.fields import Field
from socodes.matrices import GFMatrix
from socodes.groups import NotTransitive, Perm, PermGroup
from socodes.m11 import m11_degree


def cyclic(n: int) -> PermGroup:
    return PermGroup(n, [Perm.from_cycles(n, [tuple(range(n))])])


# ---------------------------------------------------------------------------
# validate


def test_validate_four_cycle():
    D = Design(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert validate(D) == (2, 2)
    assert D.b == 4


def test_validate_nonconstant_block_size():
    D = Design(3, [(0, 1), (0, 1, 2)])
    with pytest.raises(NonConstantBlockSize):
        validate(D)


def test_validate_not_one_design():
    # point 2 lies in no block
    D = Design(3, [(0, 1), (0, 1)])
    with pytest.raises(NotOneDesign):
        validate(D)


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


def test_m11_degree22_developments():
    G = m11_degree(22)
    D = from_group_action(G, 0, (2,))
    assert (D.v, D.k, D.r, D.b) == (22, 20, 10, 11)
    assert intersection_profile(D, 2).case == "SO"
    D2 = from_group_action(G, 0, (0, 1))
    assert (D2.v, D2.k, D2.r, D2.b) == (22, 2, 1, 11)
    assert intersection_profile(D2, 2).case == "SO"


# ---------------------------------------------------------------------------
# wso_search


def test_wso_search_degree22_frozen():
    G = m11_degree(22)
    hits = wso_search(G, 0)
    got = [(h.orbit_choice, (h.design.v, h.design.k, h.design.r),
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
    got = [(h.orbit_choice, (h.design.v, h.design.k, h.design.r),
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
                assert prof.a == D.k % p


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
        assert D.b * D.k == D.v * D.r
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
    M = GFMatrix(Field(2, 1), D.incidence_array())
    assert M.gram().is_zero()


# ---------------------------------------------------------------------------
# serialization


def test_design_file_roundtrip(tmp_path):
    D = Design(4, [(0, 1), (2, 3)])
    path = tmp_path / "pairs.des"
    path.write_text(format_design_text(D))
    assert load_design(path) == D
    text = path.read_text()
    assert text.splitlines()[0] == "4 2"


def test_design_text_rejects_bad_index():
    with pytest.raises(ValueError):
        Design(3, [(0, 5)])


def test_incidence_matrix_shape():
    D = Design(4, [(0, 1), (2, 3)])
    M = GFMatrix(Field(2, 1), D.incidence_array())
    assert (M.rows, M.cols) == (2, 4)
    assert np.array_equal(M.a, [[1, 1, 0, 0], [0, 0, 1, 1]])
    assert np.array_equal(Design(3, [(), (0, 2), (1,)]).incidence_array(),
                          [[0, 0, 0], [1, 0, 1], [0, 1, 0]])
