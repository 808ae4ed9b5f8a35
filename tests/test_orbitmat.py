"""Orbit matrices, their double-counting certificate, the mod-p Gram
residues of their rows, and the fixed-point split.

The C3-invariant 1-(12,4,3) instance and its orbit matrix were found by a
brute-force search script and verified there by direct row products before
being frozen here.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import count_identity_naive, orbit_matrix_naive
from socodes import orbitmat
from socodes.designs import Design, from_group_action, wso_search
from socodes.groups import Perm, PermGroup
from socodes.m11 import m11_degree
from socodes.orbitmat import (
    BadOrbitProfile,
    IllDefinedEntry,
    NotAnAutomorphismGroup,
    OrbitMatrix,
    _certify,
    build,
    fixed_split,
    format_orbit_matrix_text,
)
from strategies import small_transitive_groups

# 1-(12,4,3), invariant under (0,1,2)(3,4,5)(6,7,8)(9,10,11); k = 4 and all
# pairwise intersections are 1 mod 3
SYN12_BLOCKS = [
    (0, 1, 3, 6), (0, 2, 5, 8), (1, 2, 4, 7),
    (0, 4, 9, 10), (1, 5, 10, 11), (2, 3, 9, 11),
    (3, 7, 8, 10), (4, 6, 8, 11), (5, 6, 7, 9),
]
SYN12 = Design(12, SYN12_BLOCKS)
SYN12_GROUP = PermGroup(
    12, [Perm.from_cycles(12, [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)])])
SYN12_OM = [[2, 1, 1, 0], [1, 1, 0, 2], [0, 1, 2, 1]]


def trivial(n: int) -> PermGroup:
    return PermGroup(n, [])


def involution(G: PermGroup) -> PermGroup:
    g = G.element_of_order(2)
    return PermGroup(G.degree, [g])


# ---------------------------------------------------------------------------
# build


def test_trivial_group_gives_incidence():
    D = Design(4, [(0, 1), (2, 3)])
    OM = build(D, trivial(4))
    assert np.array_equal(OM.entries, D.incidence)
    assert OM.point_orbit_sizes.tolist() == [1, 1, 1, 1]
    assert OM.block_orbit_sizes.tolist() == [1, 1]


def test_full_group_single_row():
    G = m11_degree(22)
    D = from_group_action(G, 0, (0, 1))  # 1-(22,2,1)
    OM = build(D, G)
    assert OM.entries.shape == (1, 1)
    assert OM.entries[0, 0] == 2  # the whole point set meets each block in k


def test_not_an_automorphism_group():
    D = Design(4, [(0, 1), (2, 3)])
    H = PermGroup(4, [Perm.from_cycles(4, [(1, 2)])])
    with pytest.raises(NotAnAutomorphismGroup):
        build(D, H)


def test_repeated_block_with_fewer_copies_of_its_image():
    # (0 1)(2 3) keeps the multiset; (1 2) sends both copies of {0,1} to
    # the one {0,2}, so it is the generator named
    D = Design(4, [(0, 1), (0, 1), (2, 3), (2, 3), (0, 2), (1, 3)])
    H = PermGroup(4, [Perm.from_cycles(4, [(0, 1), (2, 3)]),
                      Perm.from_cycles(4, [(1, 2)])])
    with pytest.raises(NotAnAutomorphismGroup,
                       match=r"^generator Perm\(1 2\) does not map blocks to blocks$"):
        build(D, H)


def test_constancy_check_fires_on_a_wrong_block_action(monkeypatch):
    # blocks 0 and 3 of SYN12 meet the point orbits as [2,1,1,0] and
    # [1,1,0,2]; a block action that swaps them puts both in one orbit,
    # the last in fixed-first order; a fresh copy of SYN12 keeps no orbit
    # matrix from an earlier build
    monkeypatch.setattr(orbitmat, "_block_action",
                        lambda D, H: [np.array([3, 1, 2, 0, 4, 5, 6, 7, 8])])
    with pytest.raises(IllDefinedEntry, match=r"^block orbit 7 has "
                       r"non-constant point-orbit counts$"):
        build(Design(12, SYN12_BLOCKS), SYN12_GROUP)


def test_a_design_keeps_one_orbit_matrix_per_generator_tuple():
    D = Design(12, SYN12_BLOCKS)
    OM = build(D, SYN12_GROUP)
    # the same generators in a new group find the kept matrix
    assert build(D, PermGroup(12, SYN12_GROUP.generators)) is OM
    assert fixed_split(D, SYN12_GROUP, 3, 1)[1].base is OM.entries
    other = build(D, trivial(12))
    assert other is not OM and np.array_equal(other.entries, D.incidence)
    with pytest.raises(ValueError, match="read-only"):
        OM.entries[0, 0] = 5
    # a failed build keeps nothing and fails again
    H = PermGroup(12, [Perm.from_cycles(12, [(0, 1)])])
    for _ in range(2):
        with pytest.raises(NotAnAutomorphismGroup):
            build(D, H)
    assert list(D._orbit_matrices) == [SYN12_GROUP.generators, ()]


@st.composite
def invariant_designs(draw):
    """(design, subgroup): up to three developments of equal-size base
    blocks under a small transitive group, some repeated, in a random
    block order, and the subgroup of up to two random elements."""
    G = draw(small_transitive_groups())
    n = G.degree
    k = draw(st.integers(1, n))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        base = draw(st.sets(st.integers(0, n - 1), min_size=k, max_size=k))
        blocks += G.set_orbit(sorted(base)).tolist() * draw(st.integers(1, 2))
    blocks = draw(st.permutations(blocks))
    gens = draw(st.lists(st.sampled_from(G.enumerate()), max_size=2))
    return Design(n, blocks), PermGroup(n, gens)


@settings(max_examples=80, deadline=None)
@given(invariant_designs())
def test_build_matches_oracle_with_repeated_blocks(case):
    D, H = case
    OM = build(D, H)
    want = orbit_matrix_naive(D.v, D.blocks, [g.images for g in H.generators])
    entries, point_orbits, block_orbits = want
    assert OM.entries.tolist() == entries
    assert [sorted(o) for o in OM.point_orbits] == point_orbits
    assert [sorted(o) for o in OM.block_orbits] == block_orbits
    assert count_identity_naive(D.blocks, *want)


def test_build_m11_involution_shape_and_order():
    G = m11_degree(22)
    D = from_group_action(G, 0, (2,))  # 1-(22,20,10)
    OM = build(D, involution(G))
    assert OM.entries.shape == (3 + 4, 6 + 8)
    # fixed orbits first
    assert OM.point_orbit_sizes.tolist() == [1] * 6 + [2] * 8
    assert OM.block_orbit_sizes.tolist() == [1] * 3 + [2] * 4
    assert set(OM.entries.sum(axis=1).tolist()) == {20}


def test_entries_bounded_by_orbit_sizes():
    G = m11_degree(22)
    D = from_group_action(G, 0, (2,))
    OM = build(D, involution(G))
    assert (OM.entries >= 0).all()
    assert (OM.entries <= OM.point_orbit_sizes[None, :]).all()


def test_row_sums_equal_k_everywhere():
    OM = build(SYN12, SYN12_GROUP)
    assert set(OM.entries.sum(axis=1).tolist()) == {4}
    assert np.array_equal(OM.entries, SYN12_OM)


# ---------------------------------------------------------------------------
# Remark-style double-counting certificate, checked by build


@pytest.fixture(scope="module")
def cyclic_cases():
    """(design, subgroup): every binary WSO hit of m11:11, 12, 22, 55 and 66
    under the cyclic subgroups generated by its first element of order 2, 3,
    5 and 11, then the synthetic design under its C3."""
    cases = []
    for degree in (11, 12, 22, 55, 66):
        G = m11_degree(degree)
        subgroups = [PermGroup(degree, [G.element_of_order(t)])
                     for t in (2, 3, 5, 11)]
        cases += [(hit.design, H) for hit in wso_search(G, 0, 2)
                  for H in subgroups]
    return cases + [(SYN12, SYN12_GROUP)]


def test_build_matches_orbit_matrix_oracle(cyclic_cases):
    assert len(cyclic_cases) == 73
    for D, H in cyclic_cases:
        OM = build(D, H)
        want = orbit_matrix_naive(D.v, D.blocks,
                                  [g.images for g in H.generators])
        entries, point_orbits, block_orbits = want
        assert OM.entries.tolist() == entries
        assert [sorted(o) for o in OM.point_orbits] == point_orbits
        assert [sorted(o) for o in OM.block_orbits] == block_orbits
        assert count_identity_naive(D.blocks, *want)


def test_certificate_rejects_what_the_oracle_rejects(cyclic_cases):
    # a step of +-1 in a[s][j] moves the (s,s) left side by
    # (b_s/v_j)(2 a[s][j] +- 1) != 0, so the oracle rejects every one
    rng = random.Random(0)
    for D, H in cyclic_cases:
        OM = build(D, H)
        for _ in range(3):
            a = OM.entries.copy()
            a[rng.randrange(OM.m), rng.randrange(OM.n)] += rng.choice((-1, 1))
            assert not count_identity_naive(D.blocks, a.tolist(),
                                            OM.point_orbits, OM.block_orbits)
            with pytest.raises(IllDefinedEntry):
                _certify(D.incidence,
                         OrbitMatrix(a, OM.point_orbits, OM.block_orbits))


def _assert_counts_hold(D, H):
    # build certifies; check the certificate again and against the oracle
    OM = build(D, H)
    _certify(D.incidence, OM)
    assert count_identity_naive(D.blocks, OM.entries.tolist(),
                                OM.point_orbits, OM.block_orbits)


def test_verify_counts_m11_involution():
    G = m11_degree(22)
    for choice in [(2,), (0, 1)]:
        _assert_counts_hold(from_group_action(G, 0, choice), involution(G))


def test_verify_counts_z11_on_66():
    G = m11_degree(66)
    z11 = PermGroup(66, [G.element_of_order(11)])
    for choice in [(0, 1), (2, 3)]:
        _assert_counts_hold(from_group_action(G, 0, choice), z11)


def test_verify_counts_synthetic():
    _assert_counts_hold(SYN12, SYN12_GROUP)


def _tampered(OM, s, j):
    a = OM.entries.copy()
    a[s, j] += 1
    return OrbitMatrix(a, OM.point_orbits, OM.block_orbits)


def test_certificate_count_mismatch_message():
    # every SYN12 orbit has length 3, so b_t * a[t][j] / v_j stays integral
    OM = build(SYN12, SYN12_GROUP)
    with pytest.raises(IllDefinedEntry, match=r"^count identity fails at "
                       r"block orbit pair \(0,0\): 11 != 6$"):
        _certify(SYN12.incidence, _tampered(OM, 0, 0))


def test_certificate_non_integral_replication_message():
    # block orbit 0 is a fixed block, so r[0][j] = a[0][j] / 2 on a point
    # orbit j of length 2; one more point makes a[0][j] odd
    G = m11_degree(22)
    D = from_group_action(G, 0, (2,))
    OM = build(D, involution(G))
    j = OM.point_orbit_sizes.tolist().index(2)
    with pytest.raises(IllDefinedEntry, match=r"^replication b_t\*a\[t\]\[j\]/v_j = "
                       rf"{OM.entries[0, j] + 1}/2 is not an integer at \(0,{j}\)$"):
        _certify(D.incidence, _tampered(OM, 0, j))


# ---------------------------------------------------------------------------
# congruence tables: O[s]·O[t] mod p, forced when all orbits share a length


def congruence_table(OM, p: int) -> np.ndarray:
    return (OM.entries @ OM.entries.T) % p


def test_congruence_incidence_of_so_design_is_zero():
    G = m11_degree(22)
    D = from_group_action(G, 0, (0, 1))
    OM = build(D, trivial(22))  # w = 1
    table = congruence_table(OM, 2)
    assert not table.any()


def test_congruence_z11_case3_is_identity_mod2():
    # a=1, d=0, w=11: diagonal = a + (w-1)d = 1, off-diagonal = wd = 0 mod 2
    G = m11_degree(66)
    z11 = PermGroup(66, [G.element_of_order(11)])
    for choice in [(0, 1), (2, 3)]:
        OM = build(from_group_action(G, 0, choice), z11)
        table = congruence_table(OM, 2)
        assert np.array_equal(table, np.eye(6, dtype=np.int64))


def test_congruence_synthetic_mod3_all_zero():
    # a=1, d=1, w=3: diagonal = 1 + 2*1 = 0, off-diagonal = 3*1 = 0 mod 3
    OM = build(SYN12, SYN12_GROUP)
    table = congruence_table(OM, 3)
    assert not table.any()


# ---------------------------------------------------------------------------
# fixed split


def test_fixed_split_profile_22():
    G = m11_degree(22)
    D = from_group_action(G, 0, (2,))
    om1, om2 = fixed_split(D, involution(G), 2, 1)
    (f2, f1), (m, n) = om1.shape, om2.shape
    assert (f1, n, f2, m) == (6, 8, 3, 4)
    assert f1 + 2 * n == 22
    assert f2 + 2 * m == 11
    assert set(np.unique(om1).tolist()) <= {0, 1}
    assert om2.max() <= 2


def test_fixed_split_matches_full_orbit_matrix():
    G = m11_degree(22)
    D = from_group_action(G, 0, (2,))
    H = involution(G)
    OM = build(D, H)
    om1, om2 = fixed_split(D, H, 2, 1)
    f2, f1 = om1.shape
    assert np.array_equal(om1, OM.entries[:f2, :f1])
    assert np.array_equal(om2, OM.entries[f2:, f1:])
    # the two corners are views of one orbit matrix, not copies
    assert om1.base is not None and om1.base is om2.base


def test_fixed_split_trivial_group():
    D = Design(4, [(0, 1), (2, 3)])
    om1, om2 = fixed_split(D, trivial(4), 2, 1)
    assert om1.shape + om2.shape == (2, 4, 0, 0)  # (f2, f1, m, n)
    assert np.array_equal(om1, D.incidence)
    assert om2.size == 0


def test_fixed_split_bad_profile():
    with pytest.raises(BadOrbitProfile):
        fixed_split(SYN12, SYN12_GROUP, 2, 1)


def test_fixed_split_length_three_orbits():
    om1, om2 = fixed_split(SYN12, SYN12_GROUP, 3, 1)
    assert om1.shape + om2.shape == (0, 0, 3, 4)  # (f2, f1, m, n)
    assert np.array_equal(om2, SYN12_OM)


# ---------------------------------------------------------------------------
# serialization


def test_orbit_matrix_text_roundtrip():
    OM = build(SYN12, SYN12_GROUP)
    text = format_orbit_matrix_text(OM)
    head = text.splitlines()[0]
    assert head == "3 4 3 | 3 3 3 | 3 3 3 3"
    rows = [[int(x) for x in ln.split()] for ln in text.splitlines()[1:]]
    assert np.array_equal(rows, OM.entries)


def test_orbit_matrix_text_mixed_lengths_w_zero():
    G = m11_degree(22)
    OM = build(from_group_action(G, 0, (2,)), involution(G))
    head = format_orbit_matrix_text(OM).splitlines()[0]
    assert head.startswith("7 14 0 |")


def test_element_of_order_helper():
    G = m11_degree(22)
    assert G.element_of_order(2).order() == 2
    assert G.element_of_order(7) is None
