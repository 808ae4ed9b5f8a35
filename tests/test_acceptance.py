"""Acceptance suite: one test per promised behaviour, one PASS line each.

Each criterion is a separate test so the report reads as a checklist; a
failing assert is the FAIL line for its criterion. The heavyweight shared
artifacts (M11 actions, orbit-union searches, the involution and order-11
subgroups) live in module fixtures so the wall-clock bound of criterion 1
is the only place the full pipeline is timed end to end.
"""

import random
import time

import numpy as np
import pytest

from socodes.analysis import (
    DEFAULT_BUDGET,
    Exact,
    Unknown,
    is_self_orthogonal,
    min_distance,
)
from socodes.constructions import (
    NonConstantProfile,
    NotWSO,
    from_fixed_split_binary,
    from_fixed_split_q,
    from_incidence_binary,
    from_incidence_q,
    from_orbitmatrix_binary,
    from_orbitmatrix_q,
)
from socodes.designs import (Design, from_group_action, intersection_profile, validate,
                             wso_search)
from socodes.fields import field_for_order
from socodes.groups import Perm, PermGroup
from socodes.m11 import m11_degree
from socodes.matrices import GFMatrix
from socodes.orbitmat import BadOrbitProfile, build

from oracles import count_identity_naive, min_distance_naive, null_space_naive


def _pass(num: int, text: str) -> None:
    print(f"PASS criterion {num}: {text}")


def _chunks(v: int, w: int, nfix: int = 0) -> PermGroup:
    cycles = []
    start = 0
    while start + w <= v - nfix:
        cycles.append(tuple(range(start, start + w)))
        start += w
    return PermGroup(v, [Perm.from_cycles(v, cycles)])


def _fano_c3() -> Design:
    # a Fano labeling invariant under (0 1 2)(3 4 5), fixing point 6
    return Design(7, [(0, 1, 2), (0, 3, 4), (1, 4, 5), (2, 3, 5),
                      (0, 5, 6), (1, 3, 6), (2, 4, 6)])


@pytest.fixture(scope="module")
def hits22():
    return wso_search(m11_degree(22), 0, 2)


@pytest.fixture(scope="module")
def hits66():
    return wso_search(m11_degree(66), 0, 2)


@pytest.fixture(scope="module")
def inv22():
    G = m11_degree(22)
    return PermGroup(22, [G.element_of_order(2)])


@pytest.fixture(scope="module")
def inv66():
    G = m11_degree(66)
    return PermGroup(66, [G.element_of_order(2)])


@pytest.fixture(scope="module")
def z11():
    G = m11_degree(66)
    return PermGroup(66, [G.element_of_order(11)])


def _design(hits, vkr):
    for hit in hits:
        D = hit.design
        if (D.v, *validate(D)) == vkr:
            return D
    raise AssertionError(f"no search hit with profile {vkr}")


def _exact_d(code, budget=DEFAULT_BUDGET) -> int:
    got = min_distance(code, budget)
    assert isinstance(got, Exact)
    return got.value


def test_criterion_01_table1_small_rows():
    t0 = time.monotonic()
    targets = {(22, 10): 4, (22, 11): 2, (66, 10): 20, (66, 11): 20}
    found = {}
    for degree in (22, 66):
        for hit in wso_search(m11_degree(degree), 0, 2):
            rep = from_incidence_binary(hit.design)
            nk = (rep.code.n, rep.code.k)
            if nk in targets and nk not in found:
                found[nk] = _exact_d(rep.code)
    assert found == targets
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _pass(1, f"[22,10,4] [22,11,2] [66,10,20] [66,11,20] in {elapsed:.1f}s")


def test_criterion_02_table12_fixed_split_22(hits22, inv22):
    r1, r2 = from_fixed_split_binary(_design(hits22, (22, 20, 10)), inv22)
    assert (r1.code.n, r1.code.k) == (6, 2) and _exact_d(r1.code) == 4
    assert (r2.code.n, r2.code.k) == (8, 4) and _exact_d(r2.code) == 2
    r3, _ = from_fixed_split_binary(_design(hits22, (22, 2, 1)), inv22)
    assert (r3.code.n, r3.code.k) == (6, 3) and _exact_d(r3.code) == 2
    _pass(2, "[6,2,4] [8,4,2] [6,3,2] from the 22-point designs")


def test_criterion_03_table13_fixed_split_66(hits66, inv66):
    r1, r2 = from_fixed_split_binary(_design(hits66, (66, 20, 20)), inv66)
    assert (r1.code.n, r1.code.k) == (10, 2) and _exact_d(r1.code) == 4
    assert (r2.code.n, r2.code.k) == (28, 4) and _exact_d(r2.code) == 10
    r3, _ = from_fixed_split_binary(_design(hits66, (66, 46, 46)), inv66)
    assert (r3.code.n, r3.code.k) == (10, 3) and _exact_d(r3.code) == 4
    _pass(3, "[10,2,4] [28,4,10] [10,3,4] from the 66-point designs")


def test_criterion_04_table8_orbit_matrices(hits66, z11):
    r1 = from_orbitmatrix_binary(_design(hits66, (66, 21, 21)), z11)
    assert r1.theorem == "T3.3.bina" and r1.self_dual
    assert (r1.code.n, r1.code.k) == (12, 6) and _exact_d(r1.code) == 2
    r2 = from_orbitmatrix_binary(_design(hits66, (66, 45, 45)), z11)
    assert r2.theorem == "T3.3.bina" and r2.self_dual
    assert (r2.code.n, r2.code.k) == (12, 6) and _exact_d(r2.code) == 4
    _pass(4, "[12,6,2] [12,6,4] self-dual under the order-11 subgroup")


def test_criterion_05_table16_rows(hits66, inv66):
    r1, r2 = from_fixed_split_binary(_design(hits66, (66, 21, 21)), inv66)
    assert r1.theorem == "T3.3.fix"
    assert (r1.code.n, r1.code.k) == (20, 10) and _exact_d(r1.code) == 2
    assert (r2.code.n, r2.code.k) == (56, 28) and r2.self_dual
    assert _exact_d(r2.code, 1 << 28) == 4
    r3, _ = from_fixed_split_binary(_design(hits66, (66, 45, 45)), inv66)
    assert (r3.code.n, r3.code.k) == (20, 10) and _exact_d(r3.code) == 4
    _pass(5, "[20,10,2] [56,28,4] [20,10,4] from the case-3 designs")


def test_criterion_06_large_rows_sanity():
    G = m11_degree(165)
    orbits = G.stabilizer(0).point_orbits()
    choice = tuple(i for i, o in enumerate(orbits) if len(o) not in (1, 48))
    D = from_group_action(G, 0, choice)
    assert (D.v, *validate(D), D.b) == (165, 116, 116, 165)
    assert intersection_profile(D, 2).dispatch_case() == 2
    rep = from_incidence_binary(D)
    assert (rep.code.n, rep.code.k) == (331, 165)
    assert is_self_orthogonal(rep.code)
    assert isinstance(min_distance(rep.code), Unknown)
    _pass(6, "1-(165,116,116) gives [331,165] SO, distance Unknown")


def _random_designs(H: PermGroup, v: int, rng, want: int, tries: int = 80):
    """Unions of one or two H-set-orbits of equal-size base blocks that form
    1-designs with at least two blocks."""
    seen, out = set(), []
    for _ in range(tries):
        if len(out) >= want:
            break
        k = rng.randrange(1, v)
        first = H.set_orbit(tuple(sorted(rng.sample(range(v), k))))
        blocks = tuple(map(tuple, first.tolist()))
        if rng.random() < 0.5:
            more = H.set_orbit(tuple(sorted(rng.sample(range(v), k))))
            blocks = tuple(sorted(set(blocks) | set(map(tuple, more.tolist()))))
        if not 2 <= len(blocks) <= 30 or blocks in seen:
            continue
        seen.add(blocks)
        M = np.zeros((len(blocks), v), dtype=np.int64)
        for i, blk in enumerate(blocks):
            M[i, list(blk)] = 1
        r = M.sum(axis=0)
        if r.min() == 0 or r.min() != r.max():
            continue
        out.append(Design(v, list(blocks)))
    return out


def test_criterion_07_master_so_property():
    rng = random.Random(20250822)
    shapes = [(4, 2, 0), (6, 2, 0), (6, 3, 0), (8, 2, 2), (8, 4, 0),
              (9, 3, 0), (10, 5, 0), (7, 3, 1), (8, 7, 1), (12, 3, 0),
              (10, 2, 2), (6, 5, 1), (12, 4, 0), (9, 3, 3), (14, 7, 0)]
    pairs = []
    for v, w, nfix in shapes:
        H = _chunks(v, w, nfix)
        # two deterministic families valid at every p: all singletons
        # (a nonzero, d = 0) and one block per point orbit (d = 0, r = 1)
        pairs.append((Design(v, [(i,) for i in range(v)]), H))
        orbit_blocks = [tuple(o) for o in H.point_orbits()]
        if len(orbit_blocks) >= 2 and len({len(o) for o in orbit_blocks}) == 1:
            pairs.append((Design(v, orbit_blocks), H))
        for D in _random_designs(H, v, rng, want=25, tries=250):
            pairs.append((D, H))
    checked = 0
    for D, H in pairs:
        for q in (2, 3, 4, 5, 7, 9):
            reports = []
            if q == 2:
                recipes = (lambda: [from_incidence_binary(D)],
                           lambda: [from_orbitmatrix_binary(D, H)],
                           lambda: list(from_fixed_split_binary(D, H)))
            else:
                recipes = (lambda: [from_incidence_q(D, q)],
                           lambda: [from_orbitmatrix_q(D, H, q)],
                           lambda: list(from_fixed_split_q(D, H, q, 1)))
            for recipe in recipes:
                try:
                    reports.extend(recipe())
                except (NotWSO, NonConstantProfile, BadOrbitProfile):
                    continue
            for rep in reports:
                assert rep.code.generator.gram().is_zero()
                checked += 1
    assert checked >= 1000
    _pass(7, f"{checked} randomized constructions, gram = 0 in every field")


def test_criterion_08_oracle_equivalence(hits22, hits66, inv22, z11):
    codes = []
    for hit in hits22:
        codes.append(from_incidence_binary(hit.design).code)
        codes.extend(r.code for r in from_fixed_split_binary(hit.design, inv22))
    for vkr in ((66, 21, 21), (66, 45, 45)):
        codes.append(from_orbitmatrix_binary(_design(hits66, vkr), z11).code)
    fano = Design(7, [tuple(sorted((i % 7, (i + 1) % 7, (i + 3) % 7)))
                      for i in range(7)])
    codes.append(from_incidence_binary(fano).code)
    codes.append(from_incidence_q(Design(2, [(0,), (1,)]), 3).code)   # GF(9)
    codes.append(from_incidence_q(Design(3, [(0,), (1,), (2,)]), 7).code)
    codes.extend(r.code for r in
                 from_fixed_split_q(_fano_c3(), _chunks(7, 3, 1), 3, 1))
    checked = 0
    for C in codes:
        if C.k == 0 or C.field.q ** C.k > 1 << 16:
            continue
        rows = [row.tolist() for row in C.basis().a]
        naive = min_distance_naive(rows, C.field.p, C.field.l, C.field.modulus)
        assert min_distance(C) == Exact(naive)
        checked += 1
    assert checked >= 15
    _pass(8, f"min_distance = naive enumeration on {checked} codes")


def test_criterion_09_orbit_matrix_identity(hits22, hits66, inv22, inv66, z11):
    count = 0
    for hits, subgroups in ((hits22, (inv22,)), (hits66, (inv66, z11))):
        for hit in hits:
            for H in subgroups:
                OM = build(hit.design, H)  # certified before it returns
                assert count_identity_naive(hit.design.blocks,
                                            OM.entries.tolist(),
                                            OM.point_orbits, OM.block_orbits)
                count += 1
    assert count == 18
    _pass(9, f"row-product identity exact on {count} orbit matrices")


def test_criterion_10_field_layer():
    t0 = time.monotonic()
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 49):
        F = field_for_order(q)
        x = np.arange(q)
        a3 = (x[:, None, None], x[None, :, None], x[None, None, :])

        def plus(y, z):
            # y + z as elimination's y - c*z with c = p - 1, the code of -1
            return F._sub_mul(y, F.p - 1, z)
        assert (plus(x[:, None], x[None, :])
                == plus(x[None, :], x[:, None])).all()
        assert (F.mul(x[:, None], x[None, :])
                == F.mul(x[None, :], x[:, None])).all()
        assert (plus(x, 0) == x).all() and (F.mul(x, 1) == x).all()
        assert (plus(plus(a3[0], a3[1]), a3[2])
                == plus(a3[0], plus(a3[1], a3[2]))).all()
        assert (F.mul(F.mul(a3[0], a3[1]), a3[2])
                == F.mul(a3[0], F.mul(a3[1], a3[2]))).all()
        assert (F.mul(a3[0], plus(a3[1], a3[2]))
                == plus(F.mul(a3[0], a3[1]), F.mul(a3[0], a3[2]))).all()
        nz = x[1:]
        assert (F.mul(nz, F.inv(nz)) == 1).all()
        squares = np.unique(F.mul(x, x))
        assert len(squares) == (q if q % 2 == 0 else (q + 1) // 2)
        roots = F.sqrt(squares)
        assert (F.mul(roots, roots) == squares).all()
        def frob(y):
            out = y
            for _ in range(F.p - 1):
                out = F.mul(out, y)
            return out
        assert (frob(plus(x[:, None], x[None, :]))
                == plus(frob(x)[:, None], frob(x)[None, :])).all()
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _pass(10, f"axioms, residue counts, sqrt, Frobenius in {elapsed:.1f}s")


def test_criterion_11_self_dual_contract():
    six = Design(6, [(0, 2, 4), (1, 3, 5)])
    c6 = PermGroup(6, [Perm.from_cycles(6, [tuple(range(6))])])
    instances = [
        from_orbitmatrix_binary(six, c6),                       # m = n = 1
        from_incidence_q(Design(2, [(0,), (1,)]), 3),           # b = v
        from_orbitmatrix_q(Design(3, [(0,), (1,), (2,)]),
                           PermGroup(3, [Perm.from_cycles(3, [(0, 1, 2)])]),
                           3),                                  # m = n = 1
        from_fixed_split_q(_fano_c3(), _chunks(7, 3, 1), 3, 1)[1],  # m = n = 2
    ]
    claiming = {"T3.3.bina", "T2.2.3", "T3.3.q", "T3.2.fix.q"}
    assert len(instances) >= 3
    for rep in instances:
        assert rep.theorem in claiming
        assert rep.self_dual
        F = rep.field
        dual = null_space_naive(rep.code.generator.a.tolist(), F.p, F.l, F.modulus)
        assert GFMatrix(F, dual).rref()[0] == rep.code.basis().rref()[0]
    _pass(11, f"{len(instances)} claimed self-dual codes verify C = C-dual")
