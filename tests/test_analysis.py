"""Linear-code analytics: parameters, minimum distance, weight spectra,
self-orthogonality and self-duality."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from socodes import analysis, constructions
from socodes.analysis import (
    BudgetExceeded,
    Exact,
    LinearCode,
    LowerBound,
    Unknown,
    display,
    is_self_dual,
    is_self_orthogonal,
    min_distance,
    weight_distribution,
)
from socodes.designs import from_group_action, wso_search
from socodes.fields import Field
from socodes.groups import PermGroup
from socodes.m11 import m11_degree
from socodes.matrices import GFMatrix

from oracles import min_distance_naive, weight_spectrum_naive

GF2 = Field(2)
GF3 = Field(3)
GF4 = Field(2, 2)
GF9 = Field(3, 2)
GF25 = Field(5, 2)

# extended Hamming [8,4,4], self-dual
H8 = GFMatrix(GF2, [
    [1, 0, 0, 0, 0, 1, 1, 1],
    [0, 1, 0, 0, 1, 0, 1, 1],
    [0, 0, 1, 0, 1, 1, 0, 1],
    [0, 0, 0, 1, 1, 1, 1, 0],
])

# tetracode [4,2,3] over GF(3), self-dual
TET = GFMatrix(GF3, [[1, 1, 1, 0], [0, 1, 2, 1]])


def code(M: GFMatrix) -> LinearCode:
    return LinearCode(M)


def test_params_zero_generator():
    C = code(GFMatrix(GF2, np.zeros((3, 5), dtype=int)))
    assert (C.n, C.k) == (5, 0)


def test_params_counts_rank_not_rows():
    C = code(GFMatrix(GF2, [[1, 1, 0], [1, 1, 0], [0, 0, 1]]))
    assert (C.n, C.k) == (3, 2)


def test_params_design_code():
    G = m11_degree(22)
    D = from_group_action(G, 0, (2,))  # 1-(22,20,10)
    C = code(GFMatrix(GF2, D.incidence_array()))
    assert (C.n, C.k) == (22, 10)


def test_min_distance_repetition():
    C = code(GFMatrix(GF2, [[1] * 6]))
    assert min_distance(C) == Exact(6)
    assert C.d == Exact(6)


def test_min_distance_design_code():
    G = m11_degree(22)
    D = from_group_action(G, 0, (2,))
    assert min_distance(code(GFMatrix(GF2, D.incidence_array()))) == Exact(4)


def test_min_distance_zero_code_rejected():
    with pytest.raises(ValueError):
        min_distance(code(GFMatrix(GF3, np.zeros((1, 4), dtype=int))))


def test_min_distance_over_budget_unknown():
    C = code(GFMatrix.identity(GF2, 8))
    assert min_distance(C, budget=2 ** 6) == Unknown()
    assert min_distance(C, budget=2 ** 8) == Exact(1)


def test_min_distance_matches_naive_gf2():
    rng = np.random.default_rng(7)
    for _ in range(12):
        M = GFMatrix(GF2, rng.integers(0, 2, size=(4, 9)))
        got = min_distance(code(M))
        rows = M.rref()[0].a.tolist()
        if not rows:
            continue
        assert got == Exact(min_distance_naive(rows, 2, 1, (0, 1)))


def test_min_distance_matches_naive_gf3_gf4_gf9():
    rng = np.random.default_rng(11)
    for F in (GF3, GF4, GF9):
        for _ in range(6):
            M = GFMatrix(F, rng.integers(0, F.q, size=(3, 7)))
            C = code(M)
            if C.k == 0:
                continue
            rows = C.basis().a.tolist()
            expect = min_distance_naive(rows, F.p, F.l, F.modulus)
            assert min_distance(C) == Exact(expect)


def test_weight_distribution_zero_code():
    C = code(GFMatrix(GF2, np.zeros((2, 5), dtype=int)))
    assert weight_distribution(C) == {0: 1}


def test_weight_distribution_frozen_small():
    C = code(GFMatrix(GF2, [[1, 1, 1, 1, 0, 0], [0, 0, 1, 1, 1, 1]]))
    assert weight_distribution(C) == {0: 1, 4: 3}


def test_weight_distribution_matches_naive():
    rng = np.random.default_rng(3)
    for F in (GF2, GF3, GF4):
        M = GFMatrix(F, rng.integers(0, F.q, size=(3, 6)))
        C = code(M)
        rows = C.basis().a.tolist()
        expect = weight_spectrum_naive(rows, F.p, F.l, F.modulus)
        got = weight_distribution(C)
        assert got == expect
        assert sum(got.values()) == F.q ** C.k


@st.composite
def small_generators(draw):
    """Generators over GF(2), GF(3), GF(4), GF(5), GF(9) or GF(25) with at
    most 8 columns and at most 4 drawn rows (fewer where q^4 would make the
    pure-Python oracles slow), sometimes followed by a combination of the
    drawn rows."""
    F = draw(st.sampled_from((GF2, GF3, GF4, Field(5), GF9, GF25)))
    k = draw(st.integers(1, max(j for j in range(1, 5) if F.q ** j <= 729)))
    n = draw(st.integers(1, 8))
    cell = st.integers(0, F.q - 1)
    M = GFMatrix(F, draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                                  min_size=k, max_size=k)))
    if draw(st.booleans()):
        c = GFMatrix(F, [draw(st.lists(cell, min_size=k, max_size=k))])
        M = GFMatrix(F, np.vstack([M.a, (c @ M).a]))
    return M


@settings(max_examples=80, deadline=None)
@given(small_generators(), st.integers(1, 1000))
def test_projective_enumeration_matches_naive(M, chunk):
    """Each projective point is visited exactly once, for any chunking of
    the GF(q) pair loop."""
    C = code(M)
    F = C.field
    if C.k == 0:
        assert weight_distribution(C) == {0: 1}
        return
    with mock.patch.object(analysis, "_CHUNK", chunk):
        spectrum = weight_distribution(C)
        d = min_distance(C)
    rows = C.basis().a.tolist()
    assert spectrum == weight_spectrum_naive(rows, F.p, F.l, F.modulus)
    assert all(count % (F.q - 1) == 0 for w, count in spectrum.items() if w)
    assert d == Exact(min_distance_naive(rows, F.p, F.l, F.modulus))


# display(rep.code) of the incidence, orbit-matrix (<11-cycle>) and fixed-split
# (<p-element>, alpha = 1) reports on each WSO orbit union of m11:22, mod p,
# over GF(q), distances under a 2^20 budget; recorded before the GF(q)
# distance search enumerated one word per projective point.
M11_22_ODD_DISPLAYS = {
    (3, (0,), 3): ("[44,22,?]_9", "[4,2,2]_9", "[8,4,2]_9", "[12,6,2]_9"),
    (3, (0,), 9): ("[44,22,?]_9", "[4,2,2]_9", "[8,4,2]_9", "[12,6,2]_9"),
    (3, (1,), 3): ("[44,22,?]_9", "[4,2,2]_9", "[8,4,2]_9", "[12,6,2]_9"),
    (3, (1,), 9): ("[44,22,?]_9", "[4,2,2]_9", "[8,4,2]_9", "[12,6,2]_9"),
    (3, (0, 1), 3): ("[33,11,3]_3", "[3,1,3]_3", "[6,2,3]_3", "[9,3,3]_3"),
    (3, (0, 1), 9): ("[33,11,?]_9", "[3,1,3]_9", "[6,2,3]_9", "[9,3,3]_9"),
    (3, (2,), 3): ("[33,11,6]_3", "[3,1,3]_3", "[6,2,3]_3", "[9,3,3]_3"),
    (3, (2,), 9): ("[33,11,?]_9", "[3,1,3]_9", "[6,2,3]_9", "[9,3,3]_9"),
    (3, (0, 2), 3): ("[45,22,?]_9", "[5,2,3]_9", "[9,4,4]_9", "[12,6,2]_9"),
    (3, (0, 2), 9): ("[45,22,?]_9", "[5,2,3]_9", "[9,4,4]_9", "[12,6,2]_9"),
    (3, (1, 2), 3): ("[45,22,?]_9", "[5,2,3]_9", "[9,4,4]_9", "[12,6,2]_9"),
    (3, (1, 2), 9): ("[45,22,?]_9", "[5,2,3]_9", "[9,4,4]_9", "[12,6,2]_9"),
    (5, (0,), 5): ("[44,22,?]_5", "[4,2,2]_5", "[4,2,2]_5", "[8,4,2]_5"),
    (5, (0,), 25): ("[44,22,?]_25", "[4,2,2]_25", "[4,2,2]_25", "[8,4,2]_25"),
    (5, (1,), 5): ("[44,22,?]_5", "[4,2,2]_5", "[4,2,2]_5", "[8,4,2]_5"),
    (5, (1,), 25): ("[44,22,?]_25", "[4,2,2]_25", "[4,2,2]_25", "[8,4,2]_25"),
    (5, (0, 1), 5): ("[33,11,?]_25", "[3,1,3]_25", "[3,1,3]_25", "[6,2,3]_25"),
    (5, (0, 1), 25): ("[33,11,?]_25", "[3,1,3]_25", "[3,1,3]_25", "[6,2,3]_25"),
    (5, (2,), 5): ("[34,11,?]_25", "[4,1,2]_25", "[4,1,2]_25", "[6,2,3]_25"),
    (5, (2,), 25): ("[34,11,?]_25", "[4,1,2]_25", "[4,1,2]_25", "[6,2,3]_25"),
    (5, (0, 2), 5): ("[44,22,?]_5", "[4,2,2]_5", "[4,2,2]_5", "[8,4,2]_5"),
    (5, (0, 2), 25): ("[44,22,?]_25", "[4,2,2]_25", "[4,2,2]_25", "[8,4,2]_25"),
    (5, (1, 2), 5): ("[44,22,?]_5", "[4,2,2]_5", "[4,2,2]_5", "[8,4,2]_5"),
    (5, (1, 2), 25): ("[44,22,?]_25", "[4,2,2]_25", "[4,2,2]_25", "[8,4,2]_25"),
}


def test_m11_22_odd_q_displays_pinned():
    """Covers GF(9) k=6, GF(25) k=4 and the GF(3) [33,11] codes, whose
    pair loop runs over several chunks."""
    G = m11_degree(22)
    H11 = PermGroup(22, [G.element_of_order(11)])
    got = {}
    for p in (3, 5):
        Hp = PermGroup(22, [G.element_of_order(p)])
        for hit in wso_search(G, 0, p):
            for q in (p, p * p):
                reports = [constructions.from_incidence_q(hit.design, q),
                           constructions.from_orbitmatrix_q(hit.design, H11, q),
                           *constructions.from_fixed_split_q(hit.design, Hp, q, 1)]
                for rep in reports:
                    min_distance(rep.code, budget=2 ** 20)
                got[p, hit.orbit_choice, q] = tuple(display(r.code) for r in reports)
    assert got == M11_22_ODD_DISPLAYS


def test_weight_distribution_budget():
    C = code(GFMatrix.identity(GF2, 10))
    with pytest.raises(BudgetExceeded):
        weight_distribution(C, budget=2 ** 9)


def test_weight_distribution_row_space_invariant():
    M = GFMatrix(GF3, [[1, 2, 0, 1], [2, 1, 0, 2], [0, 1, 1, 1]])
    R = M.rref()[0]
    assert weight_distribution(code(M)) == weight_distribution(code(R))


def test_self_orthogonal_and_dual_flags():
    assert not is_self_orthogonal(code(GFMatrix.identity(GF2, 2)))
    row = code(GFMatrix(GF2, [[1, 1, 1, 1]]))
    assert is_self_orthogonal(row) and not is_self_dual(row)
    assert is_self_dual(code(H8))
    assert is_self_dual(code(TET))


def test_self_dual_matches_null_space():
    for C in (code(H8), code(TET)):
        dual = C.generator.null_space()
        assert C.basis().row_space_equals(dual)


def test_non_so_detected_against_bruteforce():
    M = GFMatrix(GF3, [[1, 0, 1], [0, 1, 1]])
    assert not is_self_orthogonal(code(M))
    rows = M.a.tolist()
    prods = [sum(x * y for x, y in zip(r, s)) % 3 for r in rows for s in rows]
    assert any(prods)


def test_display_forms():
    C = code(GFMatrix(GF2, [[1] * 4]))
    assert display(C) == "[4,1,?]_2"
    min_distance(C)
    assert display(C) == "[4,1,4]_2"
    C.d = LowerBound(3)
    assert display(C) == "[4,1,≥3]_2"
    C9 = code(GFMatrix.identity(GF9, 2))
    assert display(C9) == "[2,2,?]_9"


def test_so_implies_half_dimension():
    for C in (code(H8), code(TET), code(GFMatrix(GF2, [[1, 1, 1, 1]]))):
        if is_self_orthogonal(C):
            assert 2 * C.k <= C.n
