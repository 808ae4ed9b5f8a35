"""Orbit matrices, their double-counting certificate, the mod-p Gram
residues of their rows, and the fixed-point split.

The C3-invariant 1-(12,4,3) instance and its orbit matrix were found by a
brute-force search script and verified there by direct row products before
being frozen here.
"""

import numpy as np
import pytest

from socodes.designs import Design, from_group_action
from socodes.groups import Perm, PermGroup
from socodes.m11 import m11_degree
from socodes.orbitmat import (
    BadOrbitProfile,
    IllDefinedEntry,
    NotAnAutomorphismGroup,
    build,
    fixed_split,
    format_orbit_matrix_text,
)

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
# Remark-style double-counting certificate


def test_verify_counts_m11_involution():
    G = m11_degree(22)
    for choice in [(2,), (0, 1)]:
        OM = build(from_group_action(G, 0, choice), involution(G))
        OM.verify_counts()


def test_verify_counts_z11_on_66():
    G = m11_degree(66)
    z11 = PermGroup(66, [G.element_of_order(11)])
    for choice in [(0, 1), (2, 3)]:
        OM = build(from_group_action(G, 0, choice), z11)
        OM.verify_counts()


def test_verify_counts_synthetic():
    build(SYN12, SYN12_GROUP).verify_counts()


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
    fs = fixed_split(D, involution(G), 2, 1)
    assert (fs.f1, fs.n, fs.f2, fs.m) == (6, 8, 3, 4)
    assert fs.f1 + 2 * fs.n == 22
    assert fs.f2 + 2 * fs.m == 11
    assert set(np.unique(fs.om1).tolist()) <= {0, 1}
    assert fs.om2.max() <= 2


def test_fixed_split_matches_full_orbit_matrix():
    G = m11_degree(22)
    D = from_group_action(G, 0, (2,))
    H = involution(G)
    OM = build(D, H)
    fs = fixed_split(D, H, 2, 1)
    assert np.array_equal(fs.om1, OM.entries[:fs.f2, :fs.f1])
    assert np.array_equal(fs.om2, OM.entries[fs.f2:, fs.f1:])


def test_fixed_split_trivial_group():
    D = Design(4, [(0, 1), (2, 3)])
    fs = fixed_split(D, trivial(4), 2, 1)
    assert (fs.f1, fs.f2, fs.n, fs.m) == (4, 2, 0, 0)
    assert np.array_equal(fs.om1, D.incidence)
    assert fs.om2.size == 0


def test_fixed_split_bad_profile():
    with pytest.raises(BadOrbitProfile):
        fixed_split(SYN12, SYN12_GROUP, 2, 1)


def test_fixed_split_length_three_orbits():
    fs = fixed_split(SYN12, SYN12_GROUP, 3, 1)
    assert (fs.f1, fs.f2, fs.n, fs.m) == (0, 0, 4, 3)
    assert np.array_equal(fs.om2, SYN12_OM)


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
