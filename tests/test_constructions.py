"""Tests for the construction theorems (incidence / orbit matrix / fixed split).

Synthetic fixtures are orbit unions under small cyclic chunk groups, frozen
as literals; expected code parameters were hand-computed from the bordered
generator recipes (gram arithmetic done in the margin). Branches whose
hypotheses are unsatisfiable (see the selector tests) are pinned at the
dispatch level instead.
"""
import sys
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from socodes import constructions, designs
from socodes.analysis import Exact, is_self_orthogonal, min_distance
from socodes.constructions import (
    ConstructionReport, NonConstantProfile, NotWSO,
    _borders, _om_profile_binary, _om_tag_binary, _om_tag_q,
    from_fixed_split_binary, from_fixed_split_q, from_incidence_binary,
    from_incidence_q, from_orbitmatrix_binary, from_orbitmatrix_q)
from socodes.designs import (Design, WSOProfile, from_group_action,
                             stabilizer_orbits, wso_search)
from socodes.fields import field_for_order
from socodes.groups import Perm, PermGroup
from socodes.m11 import m11_degree
from socodes.matrices import GFMatrix
from socodes.orbitmat import BadOrbitProfile, OrbitMatrix
from socodes.records import SelfCheckFailed

from oracles import gram_naive, min_distance_naive, null_space_naive, rank_naive
from strategies import small_transitive_groups


def chunks(v, w, nfix=0):
    """Cyclic group moving v-nfix points in w-cycles, fixing the tail."""
    cycles = [tuple(range(i, i + w)) for i in range(0, v - nfix, w)]
    return PermGroup(v, [Perm.from_cycles(v, cycles)])


def trivial(v):
    return PermGroup(v, [Perm.from_cycles(v, [])])


def all_k_subsets(v, k):
    return Design(v, list(combinations(range(v), k)))


# incidence-level designs
PAIRS = Design(4, [(0, 1), (2, 3)])
TRI = Design(3, [(0, 1), (0, 2), (1, 2)])
ALL3_V4 = all_k_subsets(4, 3)
FANO7 = Design(7, [tuple(sorted((i, (i + 1) % 7, (i + 3) % 7)))
                   for i in range(7)])
FOURCYC = Design(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
DISJ63 = Design(6, [(0, 1, 2), (3, 4, 5)])
SING2 = Design(2, [(0,), (1,)])
SING3 = Design(3, [(0,), (1,), (2,)])
REP2 = Design(2, [(0, 1), (0, 1)])

# orbit-matrix designs (blocks are orbit unions under the named group)
OCT2 = Design(8, [(0, 2, 4, 6), (1, 3, 5, 7)])
C5DES = Design(10, [(0, 1, 2, 5, 6, 8), (0, 1, 4, 5, 7, 9), (0, 3, 4, 6, 8, 9),
                    (1, 2, 3, 6, 7, 9), (2, 3, 4, 5, 7, 8)])
SIX1 = Design(6, [(0, 2, 4), (1, 3, 5)])
QB8 = Design(8, [(0, 1, 2, 4, 5, 6), (0, 1, 3, 4, 5, 7),
                 (0, 2, 3, 4, 6, 7), (1, 2, 3, 5, 6, 7)])
QC8 = Design(8, [(0, 1, 2, 3, 4, 6), (0, 1, 2, 3, 5, 7),
                 (0, 2, 4, 5, 6, 7), (1, 3, 4, 5, 6, 7)])
T33Q4 = Design(4, [(0, 2), (1, 3)])
Q41 = Design(10, [(0, 1, 5, 7), (0, 4, 6, 9), (1, 2, 6, 8),
                  (2, 3, 7, 9), (3, 4, 5, 8)])
SYN12 = Design(12, [(0, 1, 3, 6), (0, 2, 5, 8), (1, 2, 4, 7), (0, 4, 9, 10),
                    (1, 5, 10, 11), (2, 3, 9, 11), (3, 7, 8, 10),
                    (4, 6, 8, 11), (5, 6, 7, 9)])

# fixed-split designs (group fixes the tail points)
FB1 = Design(6, [(0, 2), (1, 3), (4, 5)])
FB2 = all_k_subsets(5, 4)
FB4 = Design(6, [(0, 2, 4), (0, 3, 5), (1, 2, 5), (1, 3, 4)])
TRIP3 = Design(3, [(0, 1, 2), (0, 1, 2), (0, 1, 2)])
FANO3 = Design(7, [(0, 1, 2), (0, 3, 4), (1, 4, 5), (2, 3, 5),
                   (0, 5, 6), (1, 3, 6), (2, 4, 6)])
V7K6 = all_k_subsets(7, 6)
V7K4 = Design(7, [(0, 1, 2, 6), (0, 1, 3, 4), (0, 2, 3, 5), (1, 2, 4, 5),
                  (0, 4, 5, 6), (1, 3, 5, 6), (2, 3, 4, 6)])
FQ1 = Design(10, [(0, 1, 2, 3, 4, 5), (0, 1, 2, 6, 7, 8), (0, 3, 4, 6, 7, 9),
                  (1, 4, 5, 7, 8, 9), (2, 3, 5, 6, 8, 9)])
FQ3 = Design(8, [(0, 3), (1, 4), (2, 5), (6, 7)])
FQ4 = Design(10, [(0, 1, 2, 9), (0, 3, 4, 6), (1, 4, 5, 7),
                  (2, 3, 5, 8), (6, 7, 8, 9)])
SING7 = Design(7, [(i,) for i in range(7)])
SING10 = Design(10, [(i,) for i in range(10)])
NCQ6 = Design(6, [(0, 1, 3, 4), (1, 2, 4, 5), (0, 2, 3, 5),
                  (0, 1, 3, 5), (1, 2, 3, 4), (0, 2, 4, 5)])

C9F1 = PermGroup(10, [Perm.from_cycles(10, [tuple(range(9))])])


def assert_params(report, n, k, q):
    assert isinstance(report, ConstructionReport)
    C = report.code
    assert (C.n, C.k) == (n, k)
    assert report.field.q == q
    assert is_self_orthogonal(C)


def assert_d(report, d):
    assert min_distance(report.code) == Exact(d)


# ---------------------------------------------------------------- Thm 2.1

def test_incidence_binary_case1_pairs():
    rep = from_incidence_binary(PAIRS)
    assert rep.theorem == "T2.1.1"
    assert (rep.c_left, rep.c_right) == (None, None)
    assert_params(rep, 4, 2, 2)
    assert_d(rep, 2)
    assert rep.self_dual  # span{1100, 0011} is its own dual


def test_incidence_binary_case2_triangle():
    rep = from_incidence_binary(TRI)
    assert rep.theorem == "T2.1.2"
    assert_params(rep, 7, 3, 2)
    assert_d(rep, 4)  # all nonzero words of [I | M | 1] weigh 4
    assert not rep.self_dual


def test_incidence_binary_case3_tetrahedron():
    rep = from_incidence_binary(ALL3_V4)
    assert rep.theorem == "T2.1.3"
    assert_params(rep, 8, 4, 2)
    assert_d(rep, 4)
    assert rep.self_dual  # extended Hamming


def test_incidence_binary_case4_fano():
    rep = from_incidence_binary(FANO7)
    assert rep.theorem == "T2.1.4"
    assert_params(rep, 8, 4, 2)
    assert_d(rep, 4)
    assert rep.self_dual


def test_incidence_binary_rejects_mixed_parity():
    with pytest.raises(NotWSO):
        from_incidence_binary(FOURCYC)


# ---------------------------------------------------------------- Thm 2.2

def test_incidence_q_case1_disjoint_triples():
    rep = from_incidence_q(DISJ63, 3)
    assert rep.theorem == "T2.2.1"
    assert rep.extension_reason is None
    assert_params(rep, 6, 2, 3)
    assert_d(rep, 3)


def test_incidence_q_case2_needs_gf9():
    # a=0, d=2 over GF(3): d is not a square, so the code lives in GF(9)
    rep = from_incidence_q(ALL3_V4, 3)
    assert rep.theorem == "T2.2.2"
    assert rep.field.q == 9
    assert "d" in rep.extension_reason
    assert_params(rep, 9, 4, 9)
    F = rep.field
    assert F.mul(rep.c_left, rep.c_left) == F.from_int(2)
    assert F.mul(rep.c_right, rep.c_right) == F.from_int(-2)


def test_incidence_q_case2_char2_never_extends():
    rep = from_incidence_q(TRI, 4)
    assert rep.theorem == "T2.2.2"
    assert rep.field.q == 4
    assert rep.extension_reason is None
    assert_params(rep, 7, 3, 4)


def test_incidence_q_case3_gf3_lands_in_gf9():
    rep = from_incidence_q(SING2, 3)
    assert rep.theorem == "T2.2.3"
    assert rep.field.q == 9
    assert_params(rep, 4, 2, 9)
    assert rep.self_dual  # b = v
    assert_d(rep, 2)


def test_incidence_q_case3_gf5_stays():
    rep = from_incidence_q(SING2, 5)
    assert rep.theorem == "T2.2.3"
    assert rep.field.q == 5
    assert rep.extension_reason is None
    assert_params(rep, 4, 2, 5)
    assert rep.self_dual
    assert_d(rep, 2)


def test_incidence_q_case4a_gf7_extends_gf11_stays():
    rep7 = from_incidence_q(REP2, 7)
    assert rep7.theorem == "T2.2.4a"
    assert rep7.field.q == 49  # -2 = 5 is not a square mod 7
    assert_params(rep7, 3, 1, 49)
    assert_d(rep7, 3)
    rep11 = from_incidence_q(REP2, 11)
    assert rep11.field.q == 11  # -2 = 9 = 3^2
    assert rep11.extension_reason is None
    assert_params(rep11, 3, 1, 11)
    assert rep11.c_right == 3
    assert_d(rep11, 3)


def test_incidence_q_case4b_gf5_extends():
    # a=3, d=2: d-a = 4 is square, -d = 3 is not -> GF(25)
    rep = from_incidence_q(ALL3_V4, 5)
    assert rep.theorem == "T2.2.4b"
    assert rep.field.q == 25
    assert "-d" in rep.extension_reason
    assert_params(rep, 9, 4, 25)


def test_incidence_q_case4b_gf25_input_stays():
    # over GF(25) every GF(5) scalar is a square
    rep = from_incidence_q(ALL3_V4, 25)
    assert rep.theorem == "T2.2.4b"
    assert rep.field.q == 25
    assert rep.extension_reason is None
    assert_params(rep, 9, 4, 25)


def test_incidence_q_rejects_nonconstant_profile():
    with pytest.raises(NonConstantProfile):
        from_incidence_q(FOURCYC, 3)


def report_body(rep):
    """Everything a report says except its theorem tag."""
    return (rep.source, rep.field, rep.c_left, rep.c_right,
            rep.code.generator.to_text(), rep.self_dual, rep.extension_reason)


def m11_wso_hits(degree):
    return [hit.design for hit in wso_search(m11_degree(degree), 0, 2)]


def test_incidence_q2_matches_binary():
    # over GF(2) every border residue is 1 and (a, d) = (1, 1) is case 4a
    tags = {"T2.1.1": "T2.2.1", "T2.1.2": "T2.2.2", "T2.1.3": "T2.2.3",
            "T2.1.4": "T2.2.4a"}
    designs = [PAIRS, TRI, ALL3_V4, FANO7, SING2]
    designs += m11_wso_hits(22) + m11_wso_hits(66)
    seen = set()
    for D in designs:
        rb = from_incidence_binary(D)
        rq = from_incidence_q(D, 2)
        assert rq.field.q == 2
        assert rq.theorem == tags[rb.theorem]
        assert report_body(rq) == report_body(rb)
        seen.add(rb.theorem)
    assert seen == set(tags)


# ------------------------------------------------- binary orbit matrices

def test_om_binary_case1_octagon():
    rep = from_orbitmatrix_binary(OCT2, chunks(8, 2))
    assert rep.theorem == "T3.1.bin"
    assert_params(rep, 4, 1, 2)
    assert_d(rep, 4)  # O = [1 1 1 1]


def test_om_binary_case2_pentad():
    rep = from_orbitmatrix_binary(C5DES, chunks(10, 5))
    assert rep.theorem == "T3.2.bina"
    assert_params(rep, 4, 1, 2)
    assert_d(rep, 4)  # [I_1 | 3 3 | 1] reduces mod 2 to 1111


def test_om_binary_case3_hexagon():
    rep = from_orbitmatrix_binary(SIX1, PermGroup(6, [
        Perm.from_cycles(6, [(0, 1, 2, 3, 4, 5)])]))
    # o = u = 1: both block orbits and point orbits have even part 2
    assert rep.theorem == "T3.3.bina"
    assert_params(rep, 2, 1, 2)
    assert rep.self_dual
    assert_d(rep, 2)


def test_om_binary_case3_tetrahedron_pair():
    rep = from_orbitmatrix_binary(ALL3_V4, chunks(4, 2))
    assert rep.theorem == "T3.3.bina"
    assert_params(rep, 4, 2, 2)
    assert rep.self_dual
    assert_d(rep, 2)


def test_om_binary_case4_fano_cycle():
    rep = from_orbitmatrix_binary(FANO7, PermGroup(7, [
        Perm.from_cycles(7, [tuple(range(7))])]))
    assert rep.theorem == "T3.4.bina"
    assert_params(rep, 2, 1, 2)
    assert_d(rep, 2)  # O = [3], bordered [1 1]


def test_om_binary_trivial_group_reduces_to_incidence():
    rep = from_orbitmatrix_binary(PAIRS, trivial(4))
    ri = from_incidence_binary(PAIRS)
    assert rep.theorem == "T3.1.bin"
    assert rep.code.generator.rref()[0] == ri.code.generator.rref()[0]


def test_om_binary_rejects_mixed_point_orbits():
    with pytest.raises(BadOrbitProfile):
        from_orbitmatrix_binary(PAIRS, PermGroup(4, [
            Perm.from_cycles(4, [(0, 1)])]))


def test_om_binary_rejects_mixed_block_valuations():
    D = Design(6, [(0, 1, 2, 3), (0, 2, 4, 5), (1, 3, 4, 5)])
    with pytest.raises(BadOrbitProfile):
        from_orbitmatrix_binary(D, chunks(6, 2))


def test_om_binary_rejects_nonwso():
    with pytest.raises(NotWSO):
        from_orbitmatrix_binary(FOURCYC, trivial(4))


def test_om_profile_binary_selector():
    assert _om_profile_binary([5, 5], [5, 5, 5]) == (5, 0, 0)
    assert _om_profile_binary([2, 2], [2]) == (2, 1, 1)
    assert _om_profile_binary([4, 4], [1, 1, 3]) == (4, 0, 2)
    with pytest.raises(BadOrbitProfile):
        _om_profile_binary([2, 3], [1])        # unequal point orbits
    with pytest.raises(BadOrbitProfile):
        _om_profile_binary([2, 2], [1, 2])     # mixed 2-valuations
    with pytest.raises(BadOrbitProfile):
        _om_profile_binary([3, 3], [2, 2])     # o > u


def branch_binary_om(case, o, u):
    """(tag, left residue, right residue, SD claim if m=n) of the binary
    orbit-matrix theorems: the border rule with w = 2^u when o = u, no
    borders when o < u."""
    a, d = {1: (0, 0), 2: (0, 1), 3: (1, 0), 4: (1, 1)}[case]
    left, right = _borders(a, d, 2 ** u, 2) if o == u else (None, None)
    return (_om_tag_binary(case, o, u),
            None if left is None else left[1],
            None if right is None else right[1],
            left is not None and right is None)


def test_branch_binary_om_table():
    # The o,u sub-branches of cases 2-4 have no small instances (any central
    # free involution forces even intersections), so they are pinned here.
    assert branch_binary_om(1, 0, 0) == ("T3.1.bin", None, None, False)
    assert branch_binary_om(1, 1, 1) == ("T3.1.bin", None, None, False)
    assert branch_binary_om(2, 0, 0) == ("T3.2.bina", 1, 1, False)
    assert branch_binary_om(2, 1, 1) == ("T3.2.binb", 1, None, True)
    assert branch_binary_om(2, 2, 2) == ("T3.2.binb", 1, None, True)
    assert branch_binary_om(2, 0, 1) == ("T3.2.binc", None, None, False)
    assert branch_binary_om(3, 0, 0) == ("T3.3.bina", 1, None, True)
    assert branch_binary_om(3, 1, 1) == ("T3.3.bina", 1, None, True)
    assert branch_binary_om(3, 0, 2) == ("T3.3.binb", None, None, False)
    assert branch_binary_om(4, 0, 0) == ("T3.4.bina", None, 1, False)
    assert branch_binary_om(4, 1, 1) == ("T3.4.binb", None, None, False)
    assert branch_binary_om(4, 0, 1) == ("T3.4.binb", None, None, False)


# ------------------------------------------------------ q orbit matrices

def test_om_q_case1_hexagon():
    rep = from_orbitmatrix_q(SIX1, chunks(6, 2), 3)
    assert rep.theorem == "T3.1.q"
    assert (rep.c_left, rep.c_right) == (None, None)
    assert_params(rep, 3, 1, 3)
    assert_d(rep, 3)  # O = [1 1 1]


def test_om_q_case2_w_is_one_mod_p():
    # w=4, d=1: borders sqrt(wd)=1 and sqrt(-wd), -wd=2 forces GF(9)
    rep = from_orbitmatrix_q(QB8, chunks(8, 4), 3)
    assert rep.theorem == "T3.2.qb"
    assert rep.field.q == 9
    assert_params(rep, 4, 1, 9)
    assert_d(rep, 2)  # O row is [3 3], zero mod 3


def test_om_q_case2_w_other():
    # w=2: borders sqrt(d)=1 and sqrt(-wd)=sqrt(1)=1, stays in GF(3)
    rep = from_orbitmatrix_q(QC8, chunks(8, 2), 3)
    assert rep.theorem == "T3.2.qc"
    assert rep.field.q == 3
    assert rep.extension_reason is None
    assert_params(rep, 7, 2, 3)
    assert_d(rep, 3)


def test_om_q_case3_stays():
    rep = from_orbitmatrix_q(T33Q4, chunks(4, 2), 3)
    assert rep.theorem == "T3.3.q"
    assert rep.field.q == 3  # -a = 1 is a square
    assert_params(rep, 3, 1, 3)
    assert not rep.self_dual  # m=1 < n=2
    assert_d(rep, 3)


def test_om_q_case3_extends_and_self_dual():
    rep = from_orbitmatrix_q(SING3, chunks(3, 3), 3)
    assert rep.theorem == "T3.3.q"
    assert rep.field.q == 9  # -a = 2 is not a square in GF(3)
    assert_params(rep, 2, 1, 9)
    assert rep.self_dual  # m = n = 1
    assert_d(rep, 2)


def test_om_q_case4_equal_residues_w_divisible():
    rep = from_orbitmatrix_q(SYN12, chunks(12, 3), 3)
    assert rep.theorem == "T3.4.q"
    assert (rep.c_left, rep.c_right) == (None, None)  # O unbordered
    assert_params(rep, 4, 2, 3)
    assert_d(rep, 3)


def test_om_q_case4_equal_residues_w_coprime():
    rep = from_orbitmatrix_q(Q41, chunks(10, 5), 3)
    assert rep.theorem == "T3.4.q"
    assert rep.c_left is None
    assert rep.c_right is not None  # sqrt(-wd) column
    assert_params(rep, 3, 1, 3)
    assert_d(rep, 3)  # O = [2 2], bordered [2 2 1]


def test_om_q_case4_distinct_residues_w_divisible():
    rep = from_orbitmatrix_q(all_k_subsets(9, 8), chunks(9, 3), 3)
    assert rep.theorem == "T3.4.q"
    assert rep.field.q == 9  # d-a = 2 is not a square mod 3
    assert_params(rep, 6, 3, 9)
    assert rep.self_dual  # m = n = 3
    assert_d(rep, 2)  # generator [sqrt(2) I | 2I]


def test_om_q_case4_distinct_residues_w_one_mod_p():
    H = PermGroup(12, [Perm.from_cycles(12, [(0, 1, 2, 3), (4, 5, 6, 7),
                                             (8, 9, 10, 11)])])
    rep = from_orbitmatrix_q(all_k_subsets(12, 11), H, 3)
    assert rep.theorem == "T3.4.q"
    assert rep.field.q == 9
    assert_params(rep, 7, 3, 9)
    naive = min_distance_naive(
        [r.tolist() for r in rep.code.basis().a], 3, 2, rep.field.modulus)
    assert min_distance(rep.code) == Exact(naive)


def test_om_q_case4_distinct_residues_w_other():
    rep = from_orbitmatrix_q(all_k_subsets(6, 5), chunks(6, 2), 3)
    assert rep.theorem == "T3.4.q"
    assert rep.field.q == 9
    assert_params(rep, 7, 3, 9)
    naive = min_distance_naive(
        [r.tolist() for r in rep.code.basis().a], 3, 2, rep.field.modulus)
    assert min_distance(rep.code) == Exact(naive)


def test_om_q_rejects_unequal_block_orbits():
    with pytest.raises(BadOrbitProfile):
        from_orbitmatrix_q(PAIRS, chunks(4, 2), 3)  # fixed blocks, w=2


def test_om_q_rejects_nonconstant_profile():
    with pytest.raises(NonConstantProfile):
        from_orbitmatrix_q(FOURCYC, trivial(4), 3)


def test_om_q2_matches_binary():
    cases = [(OCT2, chunks(8, 2)), (C5DES, chunks(10, 5)),
             (SIX1, chunks(6, 2)),
             (FANO7, PermGroup(7, [Perm.from_cycles(7, [tuple(range(7))])]))]
    for D, H in cases:
        rb = from_orbitmatrix_binary(D, H)
        rq = from_orbitmatrix_q(D, H, 2)
        assert rq.field.q == 2
        assert rb.code.generator.rref()[0] == rq.code.generator.rref()[0]


def test_om_profile_q_selector():
    """OrbitMatrix.w is the one common orbit length, 0 when the lengths
    differ; from_orbitmatrix_q rejects a 0 naming the lengths."""
    def w(point_sizes, block_sizes):
        def orbits(sizes):
            points = iter(range(sum(sizes)))
            return [[next(points) for _ in range(s)] for s in sizes]
        entries = np.zeros((len(block_sizes), len(point_sizes)))
        return OrbitMatrix(entries, orbits(point_sizes), orbits(block_sizes)).w

    assert w([3, 3, 3], [3, 3]) == 3
    assert w([3, 3], [3, 1]) == 0
    assert w([2, 4], [2]) == 0
    assert w([2, 2], [4, 4]) == 0  # block length != point length
    with pytest.raises(BadOrbitProfile,
                       match=r"^orbit lengths \[1, 3\] are not uniform$"):
        from_orbitmatrix_q(FANO3, chunks(7, 3, 1), 3)


def branch_q_om(a, d, w, p):
    """(tag, labelled left residue, labelled right residue, SD claim if
    m=n) of the GF(q) orbit-matrix theorems."""
    left, right = _borders(a, d, w, p)
    return (_om_tag_q(WSOProfile(p, a, d).dispatch_case(), w, p), left, right,
            left is not None and right is None)


def test_branch_q_om_table():
    # The labels name the scalars in extension_reason.
    # The (a=0, d!=0, p|w) row cannot occur in any 1-design: k(r-1) = 0 and
    # (b-1)d = 0 mod p force b = 1 mod p, while p | w | b. Pinned here.
    assert branch_q_om(0, 0, 5, 5) == ("T3.1.q", None, None, False)
    assert branch_q_om(0, 2, 3, 3) == ("T3.2.qa", ("d", 2), None, True)
    assert branch_q_om(0, 1, 4, 3) == ("T3.2.qb", ("d", 1), ("-wd", 2), False)
    assert branch_q_om(0, 1, 2, 3) == ("T3.2.qc", ("d", 1), ("-wd", 1), False)
    assert branch_q_om(2, 0, 2, 3) == ("T3.3.q", ("-a", 1), None, True)
    assert branch_q_om(1, 1, 3, 3) == ("T3.4.q", None, None, False)
    assert branch_q_om(1, 1, 5, 3) == ("T3.4.q", None, ("-wd", 1), False)
    assert branch_q_om(2, 1, 3, 3) == ("T3.4.q", ("d-a", 2), None, True)
    assert branch_q_om(2, 1, 4, 3) == ("T3.4.q", ("d-a", 2), ("-wd", 2), False)
    assert branch_q_om(2, 1, 2, 3) == ("T3.4.q", ("d-a", 2), ("-wd", 1), False)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_borders_make_every_row_self_orthogonal(p):
    # rows of weight a + (w-1)d meeting in w*d: with c^2 and e^2 the border
    # residues (0 when absent), every row is isotropic and any two are
    # orthogonal; a zero residue is never returned as a border.
    for a, d, w in product(range(p), range(p), range(1, 2 * p + 1)):
        left, right = _borders(a, d, w, p)
        c2 = 0 if left is None else left[1]
        e2 = 0 if right is None else right[1]
        assert (c2 + a + (w - 1) * d + e2) % p == 0
        assert (w * d + e2) % p == 0
        assert left is None or left[1] != 0
        assert right is None or right[1] != 0
        if left is not None:
            assert left[0] == ("d" if a == 0 else "-a" if d == 0 else "d-a")
        if right is not None:
            assert right[0] == ("-d" if w == 1 else "-wd")


# ---------------------------------------------- binary fixed-point splits

def test_fixed_binary_case1():
    r1, r2 = from_fixed_split_binary(FB1, chunks(6, 2, 2))
    assert r1.theorem == r2.theorem == "T3.1.fix"
    assert_params(r1, 2, 1, 2)   # OM1 = [1 1] on the fixed points
    assert_params(r2, 2, 1, 2)   # OM2 = [1 1] on the point orbits
    assert_d(r1, 2)
    assert "OM1" in r1.source and "OM2" in r2.source


def test_fixed_binary_case2():
    r1, r2 = from_fixed_split_binary(FB2, chunks(5, 2, 1))
    assert r1.theorem == r2.theorem == "T3.2.fix"
    assert_params(r1, 3, 1, 2)   # [I_1 | OM1 | 1] with OM1 = [0]
    assert_d(r1, 2)
    assert_params(r2, 4, 2, 2)   # [I_2 | OM2]
    assert r2.self_dual          # m = n = 2
    assert_d(r2, 2)


def test_fixed_binary_case2_self_dual_six():
    r1, r2 = from_fixed_split_binary(V7K6, chunks(7, 2, 1))
    assert r2.theorem == "T3.2.fix"
    assert_params(r2, 6, 3, 2)
    assert r2.self_dual
    assert_d(r2, 2)


def test_fixed_binary_case3():
    H = PermGroup(4, [Perm.from_cycles(4, [(0, 1)])])
    r1, r2 = from_fixed_split_binary(ALL3_V4, H)
    assert r1.theorem == r2.theorem == "T3.3.fix"
    assert_params(r1, 4, 2, 2)   # [I_2 | OM1] with OM1 = I_2
    assert r1.self_dual
    assert_d(r1, 2)
    assert_params(r2, 2, 1, 2)   # [I_1 | OM2] with OM2 = [1]
    assert r2.self_dual


def test_fixed_binary_case4_no_fixed_blocks():
    r1, r2 = from_fixed_split_binary(FB4, chunks(6, 2, 2))
    assert r1.theorem == r2.theorem == "T3.4.fix"
    assert (r1.code.n, r1.code.k) == (3, 0)  # no fixed blocks: zero code
    assert_params(r2, 2, 1, 2)        # OM2 rank 1
    assert_d(r2, 2)


def test_fixed_binary_case4_no_moving_blocks():
    H = PermGroup(3, [Perm.from_cycles(3, [(1, 2)])])
    r1, r2 = from_fixed_split_binary(TRIP3, H)
    assert r1.theorem == "T3.4.fix"
    assert_params(r1, 2, 1, 2)   # [OM1 | 1] = three copies of [1 1]
    assert_d(r1, 2)
    assert (r2.code.n, r2.code.k) == (1, 0)


def test_fixed_binary_rejects_long_orbits():
    with pytest.raises(BadOrbitProfile):
        from_fixed_split_binary(SING3, chunks(3, 3))


def test_fixed_binary_rejects_nonwso():
    with pytest.raises(NotWSO):
        from_fixed_split_binary(FOURCYC, trivial(4))


def test_fixed_q2_matches_binary():
    cases = [(FB1, chunks(6, 2, 2)), (FB2, chunks(5, 2, 1)),
             (V7K6, chunks(7, 2, 1)),
             (ALL3_V4, PermGroup(4, [Perm.from_cycles(4, [(0, 1)])])),
             (FB4, chunks(6, 2, 2)),
             (TRIP3, PermGroup(3, [Perm.from_cycles(3, [(1, 2)])]))]
    for degree in (22, 66):
        G = m11_degree(degree)
        H = PermGroup(degree, [G.element_of_order(2)])
        cases += [(D, H) for D in m11_wso_hits(degree)]
    seen = set()
    for D, H in cases:
        for rb, rq in zip(from_fixed_split_binary(D, H),
                          from_fixed_split_q(D, H, 2, 1)):
            assert rq.theorem == rb.theorem + ".q"
            assert report_body(rq) == report_body(rb)
            seen.add(rb.theorem)
    assert seen == {"T3.1.fix", "T3.2.fix", "T3.3.fix", "T3.4.fix"}


# --------------------------------------------------- q fixed-point splits

def test_fixed_q_case1():
    r1, r2 = from_fixed_split_q(FQ1, chunks(10, 3, 1), 3, 1)
    assert r1.theorem == r2.theorem == "T3.1.fix.q"
    assert (r1.code.n, r1.code.k) == (1, 0)  # fixed blocks avoid the fixed point
    assert_params(r2, 3, 1, 3)        # OM2 = [1 2 2]
    assert_d(r2, 3)


def test_fixed_q_case2_fano():
    r1, r2 = from_fixed_split_q(FANO3, chunks(7, 3, 1), 3, 1)
    assert r1.theorem == r2.theorem == "T3.2.fix.q"
    # OM1 part needs sqrt(d)=1 and sqrt(-d): -d = 2 forces GF(9)
    assert r1.field.q == 9
    assert_params(r1, 3, 1, 9)
    assert_d(r1, 2)  # row (1, 0, sqrt(2))
    # OM2 part needs only sqrt(d) = 1: stays in GF(3)
    assert r2.field.q == 3
    assert r2.extension_reason is None
    assert_params(r2, 4, 2, 3)
    assert r2.self_dual  # m = n = 2: the tetracode parameters
    assert_d(r2, 3)


def test_fixed_q_case2_complement():
    r1, r2 = from_fixed_split_q(V7K6, chunks(7, 3, 1), 3, 1)
    assert r1.theorem == "T3.2.fix.q"
    assert r1.field.q == 9  # d = 2 itself is the non-square here
    assert "d" in r1.extension_reason
    assert_params(r1, 3, 1, 9)
    assert r2.field.q == 9  # d - a = 2 again
    assert_params(r2, 4, 2, 9)
    assert r2.self_dual


def test_fixed_q_case3():
    r1, r2 = from_fixed_split_q(FQ3, chunks(8, 3, 2), 3, 1)
    assert r1.theorem == r2.theorem == "T3.3.fix.q"
    assert r1.field.q == 3  # -a = 1 is a square
    assert_params(r1, 3, 1, 3)
    assert_d(r1, 3)
    assert r2.field.q == 3  # d - a = 1
    assert_params(r2, 3, 1, 3)
    assert not r2.self_dual  # m=1, n=2
    assert_d(r2, 3)


def test_fixed_q_case3_extends():
    r1, r2 = from_fixed_split_q(SING7, chunks(7, 3, 1), 3, 1)
    assert r1.theorem == "T3.3.fix.q"
    assert r1.field.q == 9  # -a = 2
    assert_params(r1, 2, 1, 9)
    assert_d(r1, 2)
    assert r2.field.q == 9
    assert_params(r2, 4, 2, 9)
    assert r2.self_dual  # m = n = 2
    assert_d(r2, 2)


def test_fixed_q_case4_equal_residues():
    r1, r2 = from_fixed_split_q(FQ4, chunks(10, 3, 1), 3, 1)
    assert r1.theorem == r2.theorem == "T3.4.fix.q"
    assert r1.field.q == 9  # -a = 2 on the all-ones border
    assert r1.c_left is None
    assert_params(r1, 2, 1, 9)
    assert_d(r1, 2)
    assert r2.field.q == 3  # a = d: OM2 spans unbordered
    assert (r2.c_left, r2.c_right) == (None, None)
    assert_params(r2, 3, 1, 3)
    assert_d(r2, 3)


def test_fixed_q_case4_distinct_residues():
    r1, r2 = from_fixed_split_q(V7K4, chunks(7, 3, 1), 3, 1)
    assert r1.theorem == "T3.4.fix.q"
    assert r1.field.q == 3  # d-a = 1 and -d = 1 both square
    assert r1.extension_reason is None
    assert_params(r1, 3, 1, 3)
    assert_d(r1, 3)
    assert r2.field.q == 3
    assert_params(r2, 4, 2, 3)
    assert r2.self_dual
    assert_d(r2, 3)


def test_fixed_q_alpha2_singletons():
    r1, r2 = from_fixed_split_q(SING10, C9F1, 9, 2)
    assert r1.theorem == r2.theorem == "T3.3.fix.q"
    assert r1.field.q == 9
    assert_params(r1, 2, 1, 9)
    assert r2.field.q == 9
    assert_params(r2, 2, 1, 9)
    assert r2.self_dual  # m = n = 1
    assert_d(r2, 2)


def test_fixed_q_alpha_must_match_orbit_lengths():
    with pytest.raises(BadOrbitProfile):
        from_fixed_split_q(SING10, C9F1, 3, 1)   # orbits of 9, plength 3
    with pytest.raises(BadOrbitProfile):
        from_fixed_split_q(FANO3, chunks(7, 3, 1), 9, 2)


def test_fixed_q_alpha_beyond_field_degree():
    # p^alpha orbits exist, but GF(3) has l = 1 < alpha
    with pytest.raises(ValueError):
        from_fixed_split_q(SING10, C9F1, 3, 2)


def test_fixed_q_rejects_nonconstant_profile():
    with pytest.raises(NonConstantProfile):
        from_fixed_split_q(NCQ6, chunks(6, 3), 3, 1)


# ------------------------------------------------------- report contract

# _finish's three self-checks, each handed a wrong value by one patched step


def test_finish_rejects_a_generator_that_is_not_self_orthogonal(monkeypatch):
    # SING3 takes [I | I]; a right border of 1 adds J to the zero Gram 2I
    monkeypatch.setattr(constructions, "_borders",
                        lambda a, d, w, p: (("-a", 1), ("-d", 1)))
    with pytest.raises(SelfCheckFailed,
                       match=r"^T2\.1\.3: generator rows are not self-orthogonal$"):
        from_incidence_binary(SING3)


def test_finish_rejects_an_identity_border_that_lost_rank(monkeypatch):
    # REP2's two equal rows have rank 1 and a zero Gram; a left scalar of 0
    # borders them with a zero block, which keeps both the Gram and the rank
    monkeypatch.setattr(constructions, "_borders",
                        lambda a, d, w, p: (("d", 0), None))
    with pytest.raises(SelfCheckFailed,
                       match=r"^T2\.1\.1: identity-bordered generator lost rank$"):
        from_incidence_binary(REP2)


def test_finish_rejects_a_claimed_self_duality_that_fails(monkeypatch):
    # SING3's [I | I] is self-dual; one more zero column keeps the Gram and
    # the rank, so only 2k = n fails
    real = constructions.bordered

    def widened(M, left=None, right=None):
        return GFMatrix(M.field, np.hstack([real(M, left, right).a,
                                            np.zeros((M.rows, 1), dtype=np.int64)]))

    monkeypatch.setattr(constructions, "bordered", widened)
    with pytest.raises(SelfCheckFailed,
                       match=r"^T2\.1\.3: claimed self-duality does not hold$"):
        from_incidence_binary(SING3)


def test_each_entry_point_validates_its_design_once(monkeypatch):
    # one validation names the design and gates its profile; an orbit
    # matrix's build checks its own input once more
    calls = []
    real = designs.validate

    def counted(D):
        calls.append(D)
        return real(D)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("socodes") and getattr(mod, "validate", None) is real:
            monkeypatch.setattr(mod, "validate", counted)
    for run, want in [
            (lambda: from_incidence_binary(FANO7), 1),
            (lambda: from_incidence_q(SING2, 5), 1),
            (lambda: from_orbitmatrix_binary(OCT2, chunks(8, 2)), 2),
            (lambda: from_orbitmatrix_q(SIX1, chunks(6, 2), 3), 2),
            (lambda: from_fixed_split_binary(FB1, chunks(6, 2, 2)), 2),
            (lambda: from_fixed_split_q(FQ1, chunks(10, 3, 1), 3, 1), 2)]:
        calls.clear()
        run()
        assert len(calls) == want


def test_report_text_block():
    rep = from_incidence_q(SING2, 5)
    text = rep.to_text()
    lines = text.splitlines()
    assert lines[0] == "theorem T2.2.3"
    assert lines[1] == "field 5"
    assert lines[2] == "scalars 2 -"
    assert lines[3] == "code [4,2,?]_5"
    M = GFMatrix.from_text("\n".join(lines[4:]))
    assert M.field.q == 5
    assert M.rref()[0] == rep.code.generator.rref()[0]
    assert (M.a == rep.code.generator.a).all()


def test_report_text_no_scalars():
    rep = from_incidence_binary(PAIRS)
    lines = rep.to_text().splitlines()
    assert lines[2] == "scalars - -"


def test_identity_block_gives_full_rank():
    # every bordered generator with a scalar identity block has rank = rows
    for rep in (from_incidence_binary(TRI),
                from_incidence_q(ALL3_V4, 3),
                from_orbitmatrix_q(QC8, chunks(8, 2), 3),
                from_fixed_split_binary(FB2, chunks(5, 2, 1))[1]):
        assert rep.code.k == rep.code.generator.rows


def test_self_dual_flag_matches_null_space():
    flagged = [from_incidence_q(SING2, 5),
               from_orbitmatrix_binary(ALL3_V4, chunks(4, 2)),
               from_fixed_split_q(FANO3, chunks(7, 3, 1), 3, 1)[1]]
    def dual(rep):
        F = rep.field
        rows = rep.code.generator.a.tolist()
        return GFMatrix(F, null_space_naive(rows, F.p, F.l, F.modulus))

    for rep in flagged:
        assert rep.self_dual
        assert dual(rep).rref()[0] == rep.code.generator.rref()[0]
    unflagged = from_incidence_binary(TRI)
    assert not unflagged.self_dual
    assert dual(unflagged).rref()[0] != unflagged.code.generator.rref()[0]


def brute_force_so(code):
    """All q^k codewords pairwise orthogonal (via bilinearity vs basis)."""
    B = code.basis()
    F, k = code.field, B.rows
    if k == 0:
        return True
    msgs = GFMatrix(F, np.array(list(product(range(F.q), repeat=k)),
                                dtype=np.int64))
    words = msgs @ B
    return (words @ GFMatrix(F, B.a.T)).is_zero()


def test_brute_force_self_orthogonality_small():
    reports = [from_incidence_binary(ALL3_V4),
               from_incidence_binary(FANO7),
               from_incidence_q(ALL3_V4, 3),
               from_incidence_q(SING2, 5),
               from_orbitmatrix_q(SYN12, chunks(12, 3), 3),
               from_fixed_split_q(FANO3, chunks(7, 3, 1), 3, 1)[1]]
    for rep in reports:
        assert rep.code.generator.rows <= 12
        assert brute_force_so(rep.code)


ZOO = [
    (lambda: chunks(4, 2), 4), (lambda: chunks(6, 2), 6),
    (lambda: chunks(6, 3), 6), (lambda: chunks(8, 2), 8),
    (lambda: chunks(9, 3), 9), (lambda: chunks(10, 5), 10),
    (lambda: chunks(7, 3, 1), 7), (lambda: chunks(8, 3, 2), 8),
    (lambda: trivial(4), 4), (lambda: trivial(5), 5),
]


def random_valid_designs(H, v, rng, want=3, tries=30):
    """Seeded unions of subset orbits that happen to be 1-designs."""
    out = []
    for _ in range(tries):
        if len(out) >= want:
            break
        k = int(rng.integers(1, v))
        blocks = []
        for _ in range(int(rng.integers(1, 4))):
            picks = rng.choice(v, size=k, replace=False)
            orb = H.set_orbit(tuple(sorted(int(x) for x in picks)))
            blocks.extend(b for b in map(tuple, orb.tolist()) if b not in blocks)
        if len(blocks) < 2 or len(blocks) > 24:
            continue
        counts = np.zeros(v, dtype=int)
        for b in blocks:
            counts[list(b)] += 1
        if counts.min() == counts.max():
            out.append(Design(v, blocks))
    return out


def test_master_gram_property_random_sweep():
    # every report any entry point produces has a zero gram over its field
    rng = np.random.default_rng(20240811)
    checked = 0
    pool = [(make(), v) for make, v in ZOO]
    designs = [(D, H) for H, v in pool
               for D in random_valid_designs(H, v, rng)]
    assert len(designs) >= 10
    for q in (2, 3, 4, 5, 7, 9):
        p = field_for_order(q).p
        for D, H in designs:
            reports = []
            try:
                if p == 2:
                    reports.append(from_incidence_binary(D))
                    reports.append(from_orbitmatrix_binary(D, H))
                reports.append(from_incidence_q(D, q))
                reports.append(from_orbitmatrix_q(D, H, q))
                reports.extend(from_fixed_split_q(D, H, p, 1))
            except (NotWSO, NonConstantProfile, BadOrbitProfile):
                pass
            for rep in reports:
                assert rep.code.generator.gram().is_zero()
                checked += 1
    assert checked >= 60


@st.composite
def random_group_cases(draw):
    """A random orbit-union design of a small transitive group G, a cyclic
    H = <g> for a random g in G, a field order q in {p, p^2} and the alpha
    read off H's orbit lengths (1 when they are not {1, p^alpha})."""
    G = draw(small_transitive_groups())
    orbits = stabilizer_orbits(G, 0)
    choice = draw(st.sets(st.integers(0, len(orbits) - 1), min_size=1,
                          max_size=len(orbits) - 1))
    D = from_group_action(G, 0, sorted(choice))
    H = PermGroup(G.degree, [draw(st.sampled_from(G.enumerate().tolist()))])
    q = draw(st.sampled_from([2, 4, 3, 9, 5, 25]))
    F = field_for_order(q)
    moving = {len(o) for o in H.point_orbits()} - {1}
    alpha = 1
    for e in range(1, F.l + 1):
        if moving == {F.p ** e}:
            alpha = e
    return G, D, H, q, alpha


@settings(max_examples=150, deadline=None)
@given(random_group_cases())
def test_random_groups_every_entry_point_reports_or_rejects(case):
    # each entry point returns checked reports or raises a documented
    # rejection; a SelfCheckFailed (a failed internal check) fails the test
    G, D, H, q, alpha = case
    assert G.order <= 24
    calls = [lambda: from_incidence_binary(D),
             lambda: from_incidence_q(D, q),
             lambda: from_orbitmatrix_binary(D, H),
             lambda: from_orbitmatrix_q(D, H, q),
             lambda: from_fixed_split_binary(D, H),
             lambda: from_fixed_split_q(D, H, q, alpha)]
    for call in calls:
        try:
            out = call()
        except (NotWSO, NonConstantProfile, BadOrbitProfile):
            continue
        for rep in out if isinstance(out, tuple) else (out,):
            F, rows = rep.field, rep.code.generator.a.tolist()
            gram = gram_naive(rows, F.p, F.l, F.modulus)
            assert all(x == 0 for row in gram for x in row)
            assert rank_naive(rows, F.p, F.l, F.modulus) == rep.code.k
            assert rep.self_dual == (2 * rep.code.k == rep.code.n)
