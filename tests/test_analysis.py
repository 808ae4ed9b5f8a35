"""Linear-code analytics: parameters, certified minimum distance with its
witness, self-orthogonality and self-duality."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from socodes import analysis, constructions
from socodes.analysis import (
    Exact,
    LinearCode,
    LowerBound,
    Unknown,
    display,
    is_self_dual,
    is_self_orthogonal,
    min_distance,
)
from socodes.designs import from_group_action, wso_search
from socodes.fields import Field
from socodes.groups import PermGroup
from socodes.m11 import m11_degree
from socodes.matrices import GFMatrix
from socodes.records import SelfCheckFailed

from oracles import min_distance_naive, null_space_naive, rank_naive

GF2 = Field(2)
GF3 = Field(3)
GF4 = Field(2, 2)
GF9 = Field(3, 2)
GF5 = Field(5)

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
    C = code(GFMatrix(GF2, D.incidence))
    assert (C.n, C.k) == (22, 10)


def test_min_distance_repetition():
    C = code(GFMatrix(GF2, [[1] * 6]))
    assert min_distance(C) == Exact(6)
    assert C.d == Exact(6)


def test_min_distance_design_code():
    G = m11_degree(22)
    D = from_group_action(G, 0, (2,))
    assert min_distance(code(GFMatrix(GF2, D.incidence))) == Exact(4)


def test_min_distance_zero_code_rejected():
    with pytest.raises(ValueError):
        min_distance(code(GFMatrix(GF3, np.zeros((1, 4), dtype=int))))


def test_min_distance_over_budget_unknown():
    C = code(GFMatrix(GF2, np.eye(8, dtype=np.int64)))
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


def test_min_distance_frozen_small():
    C = code(GFMatrix(GF2, [[1, 1, 1, 1, 0, 0], [0, 0, 1, 1, 1, 1]]))
    assert min_distance(C) == Exact(4)
    assert np.count_nonzero(C.witness.a) == 4


def test_min_distance_keeps_a_witness():
    C = code(H8)
    assert C.witness is None
    assert min_distance(C) == Exact(4)
    assert C.witness.field == GF2 and C.witness.rows == 1
    assert np.count_nonzero(C.witness.a) == 4
    assert C.basis().rref()[0] == GFMatrix(GF2, np.vstack([H8.a, C.witness.a])).rref()[0]
    witness = C.witness
    assert min_distance(C) == Exact(4) and C.witness is witness
    assert repr(Exact(4)) == "Exact(value=4)" and str(Exact(4)) == "4"


# [5, 2, 2]_3: the second row is the one word of weight 2 up to scalars
FIVE = GFMatrix(GF3, [[1, 1, 1, 1, 1], [0, 0, 0, 1, 1]])


def test_min_distance_rejects_a_witness_of_another_weight(monkeypatch):
    # a codeword of weight 5 handed back as the lightest, weight 2
    monkeypatch.setattr(analysis, "_lightest_word", lambda C: (2, FIVE.a[0]))
    with pytest.raises(SelfCheckFailed,
                       match=r"^witness of weight 5 claimed as weight 2$"):
        min_distance(code(FIVE))


def test_min_distance_rejects_a_witness_outside_the_code(monkeypatch):
    # a word of the claimed weight 2 that is no codeword
    word = np.array([1, 1, 0, 0, 0])
    monkeypatch.setattr(analysis, "_lightest_word", lambda C: (2, word))
    C = code(FIVE)
    with pytest.raises(SelfCheckFailed,
                       match=r"^witness of weight 2 is not in the row space$"):
        min_distance(C)
    assert C.witness is None and C.d == Unknown()


def test_min_distance_stops_once_the_bound_reaches_the_lightest_word():
    """[I | I | I] over GF(2), k = 4, has d = 3 and three information sets
    of rank 4. After the weight-1 messages on G_1 alone the bound is
    (1 + 1) + 1 + 1 = 4 >= 3, so exactly k = 4 messages are encoded."""
    C = code(GFMatrix(GF2, np.hstack([np.eye(4, dtype=int)] * 3)))
    encoded = []
    messages = analysis._messages

    def counted(*args):
        for chunk in messages(*args):
            encoded.append(len(chunk))
            yield chunk

    with mock.patch.object(analysis, "_messages", counted):
        assert min_distance(C) == Exact(3)
    assert sum(encoded) == 4


def test_min_distance_over_budget_keeps_no_witness():
    C = code(GFMatrix(GF3, np.eye(5, dtype=np.int64)))
    assert min_distance(C, budget=3 ** 5 - 1) == Unknown()
    assert C.witness is None and C.d == Unknown()


def _weight4_rows(draw, k, n):
    """k binary rows, each of weight 0 or 4 (no orthogonality implied)."""
    rows = []
    for _ in range(k):
        row = [0] * n
        if n >= 4 and draw(st.booleans()):
            for c in draw(st.permutations(range(n)))[:4]:
                row[c] = 1
        rows.append(row)
    return rows


@st.composite
def distance_cases(draw):
    """Generators over GF(2), GF(3), GF(4), GF(5) or GF(9) with q^k small
    enough for the pure-Python oracle, drawn to reach every branch of the
    enumeration: rank-deficient generators (a dependent or zero row), zero
    and repeated columns (rank-deficient information sets), and odd, even,
    doubly-even and weight-4-but-not-orthogonal binary codes."""
    F = draw(st.sampled_from((GF2, GF3, GF4, GF5, GF9)))
    kmax = max(j for j in range(1, 8) if F.q ** j <= 729)
    k = draw(st.integers(1, kmax))
    n = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(("random", "even", "doubly-even", "weight-4"))
                if F.q == 2 else st.just("random"))
    cell = st.integers(0, F.q - 1)
    if kind == "doubly-even":
        # combinations of the self-dual doubly-even [8,4,4], columns shuffled
        combos = np.array(draw(st.lists(st.lists(st.integers(0, 1), min_size=4, max_size=4),
                                        min_size=k, max_size=k)))
        rows = (combos @ H8.a % 2)[:, draw(st.permutations(range(8)))]
    elif kind == "weight-4":
        rows = np.array(_weight4_rows(draw, k, max(n, 4)))
    else:
        rows = np.array(draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                                      min_size=k, max_size=k)))
    if kind == "even":
        rows = np.hstack([rows, rows.sum(axis=1, keepdims=True) % 2])
    # repeated columns, then zero columns, in random positions
    repeats = draw(st.lists(st.integers(0, rows.shape[1] - 1), max_size=4))
    rows = np.hstack([rows, rows[:, repeats], np.zeros((k, draw(st.integers(0, 2))), int)])
    rows = rows[:, draw(st.permutations(range(rows.shape[1])))]
    if draw(st.booleans()):
        extra = np.array([draw(st.lists(cell, min_size=k, max_size=k))])
        rows = np.vstack([rows, F.dot(extra, rows)])
    return GFMatrix(F, rows)


@settings(max_examples=200, deadline=None)
@given(distance_cases(), st.integers(1, 1000))
# d = 2, found on G_2 of rank 1: the bound may neither run a weight ahead
# nor count G_2 as rank 2
@example(GFMatrix(GF2, [[1, 1, 0, 0], [0, 1, 1, 1]]), 1000)
# d = 3 in a code with a weight-3 row: no rounding up to even
@example(GFMatrix(GF2, [[1, 1, 0, 1, 0, 0], [0, 1, 1, 0, 1, 1]]), 1000)
# d = 2, basis rows of weight 4 that are not orthogonal: no rounding to 4
@example(GFMatrix(GF2, [[0, 1, 1, 1, 1], [1, 1, 0, 0, 0]]), 1000)
def test_min_distance_matches_naive_any_chunk(M, chunk):
    """The certified distance equals the oracle's for any chunking, and its
    witness has that weight and lies in the row space."""
    C = code(M)
    F = C.field
    if C.k == 0:
        with pytest.raises(ValueError):
            min_distance(C)
        return
    with mock.patch.object(analysis, "_CHUNK", chunk):
        d = min_distance(C)
    rows = C.basis().a.tolist()
    assert d == Exact(min_distance_naive(rows, F.p, F.l, F.modulus))
    word = C.witness.a.tolist()[0]
    assert sum(1 for x in word if x) == d.value
    assert rank_naive(rows + [word], F.p, F.l, F.modulus) == C.k


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


def test_min_distance_budget_counts_q_to_the_k():
    C = code(GFMatrix(GF3, np.eye(6, dtype=np.int64)))
    assert min_distance(C, budget=3 ** 6 - 1) == Unknown()
    assert min_distance(C, budget=3 ** 6) == Exact(1)


def test_min_distance_row_space_invariant():
    M = GFMatrix(GF3, [[1, 2, 0, 1], [2, 1, 0, 2], [0, 1, 1, 1]])
    R = M.rref()[0]
    assert min_distance(code(M)) == min_distance(code(R)) == Exact(3)


def test_self_orthogonal_and_dual_flags():
    assert not is_self_orthogonal(code(GFMatrix(GF2, np.eye(2, dtype=np.int64))))
    row = code(GFMatrix(GF2, [[1, 1, 1, 1]]))
    assert is_self_orthogonal(row) and not is_self_dual(row)
    assert is_self_dual(code(H8))
    assert is_self_dual(code(TET))


def test_self_dual_matches_null_space():
    for C in (code(H8), code(TET)):
        F = C.field
        dual = null_space_naive(C.generator.a.tolist(), F.p, F.l, F.modulus)
        assert C.basis().rref()[0] == GFMatrix(F, dual).rref()[0]


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
    C9 = code(GFMatrix(GF9, np.eye(2, dtype=np.int64)))
    assert display(C9) == "[2,2,?]_9"


def test_so_implies_half_dimension():
    for C in (code(H8), code(TET), code(GFMatrix(GF2, [[1, 1, 1, 1]]))):
        if is_self_orthogonal(C):
            assert 2 * C.k <= C.n
