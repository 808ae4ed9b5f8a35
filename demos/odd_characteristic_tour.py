"""Tour of the odd-characteristic constructions on designs small enough to
check by hand: how the residue pair (a, d) picks a recipe, when a missing
square root forces the quadratic extension GF(q^2), and a fixed split of
the Fano plane that ends in the tetracode.

Run from the repository root:  python demos/odd_characteristic_tour.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from socodes.analysis import display, min_distance
from socodes.constructions import NonConstantProfile, NotWSO, \
    from_fixed_split_q, from_incidence_binary, from_incidence_q
from socodes.designs import Design, intersection_profile
from socodes.groups import Perm, PermGroup


def singletons(n: int) -> Design:
    return Design(n, [(i,) for i in range(n)])


def main():
    # The pentagon is a 1-(5,2,2) design but not weakly self-orthogonal:
    # adjacent edges meet in one point, the rest in none, so the
    # intersections vary mod p.
    penta = Design(5, [(i, (i + 1) % 5) for i in range(5)])
    try:
        from_incidence_binary(penta)
        raise AssertionError("expected a rejection")
    except NotWSO as e:
        print(f"pentagon over GF(2): rejected ({e})")
    try:
        from_incidence_q(penta, 3)
        raise AssertionError("expected a rejection")
    except NonConstantProfile as e:
        print(f"pentagon over GF(3): rejected ({e})")

    # Singletons have k = 1 and empty intersections, so (a, d) = (1, 0):
    # the recipe borders the identity scaled by a square root of -1.
    # That root lives in GF(q) exactly when q = 1 mod 4; otherwise the
    # construction moves to GF(q^2).
    print("\nsingleton designs, residues (a, d) = (1, 0):")
    for q in (3, 5, 7, 13):
        rep = from_incidence_q(singletons(4), q)
        min_distance(rep.code, 1 << 16)
        where = f"stays in GF({q})" if rep.field.q == q \
            else f"extends to GF({rep.field.q}): {rep.extension_reason}"
        print(f"  q={q}: {display(rep.code)}  {where}")

    # With b = v the same recipe yields a square generator and the code
    # is self-dual; the report verifies the claim before returning.
    rep = from_incidence_q(singletons(2), 3)
    min_distance(rep.code, 1 << 16)
    assert rep.self_dual
    print(f"\ntwo singletons over GF(3): {display(rep.code)} "
          f"self-dual  ({rep.theorem})")

    # The Fano plane, labeled so that (0 1 2)(3 4 5) is an automorphism
    # fixing point 6, splits into a 1x1 fixed part and 2x2 orbit matrices.
    fano = Design(7, [(0, 1, 2), (0, 3, 4), (1, 4, 5), (2, 3, 5),
                      (0, 5, 6), (1, 3, 6), (2, 4, 6)])
    prof = intersection_profile(fano, 3)
    print(f"\nFano plane mod 3: a={prof.a} d={prof.d} "
          f"(case {prof.dispatch_case()})")
    H = PermGroup(7, [Perm.from_cycles(7, [(0, 1, 2), (3, 4, 5)])])
    r1, r2 = from_fixed_split_q(fano, H, 3, 1)
    for label, rep in (("OM1", r1), ("OM2", r2)):
        min_distance(rep.code, 1 << 16)
        tag = " self-dual" if rep.self_dual else ""
        print(f"  {label}: {display(rep.code)}{tag}  ({rep.theorem})")
    # OM2 is the tetracode: [4,2,3] over GF(3), self-dual.
    assert (r2.code.n, r2.code.k, r2.code.field.q) == (4, 2, 3)
    assert r2.code.d.value == 3 and r2.self_dual


if __name__ == "__main__":
    main()
