"""Walk the full pipeline on the M11 actions of degree 22 and 66: search
the stabilizer-orbit unions for weakly self-orthogonal designs, take
incidence codes, then refine with an involution's fixed split and an
order-11 subgroup's orbit matrix.

The printed rows are the small-parameter entries of the published code
tables: [22,10,4], [22,11,2], [66,10,20], [66,11,20] from incidence
matrices; [6,2,4], [8,4,2], [6,3,2], [10,2,4], [28,4,10], [10,3,4],
[20,10,2], [56,28,4], [20,10,4] from fixed splits; and the self-dual
[12,6,2], [12,6,4] from orbit matrices.

Run from the repository root:  python demos/m11_code_tables.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from socodes.analysis import display, min_distance
from socodes.constructions import from_fixed_split_binary, from_incidence_binary, \
    from_orbitmatrix_binary
from socodes.designs import parameters, wso_search
from socodes.groups import PermGroup
from socodes.m11 import m11_degree
from socodes.orbitmat import BadOrbitProfile


def finish(rep, budget=1 << 26):
    if rep.code.k > 0:
        min_distance(rep.code, budget)
    tag = " self-dual" if rep.self_dual else ""
    return f"{display(rep.code)}{tag}  ({rep.theorem})"


def main():
    for degree in (22, 66):
        G = m11_degree(degree)
        hits = wso_search(G, 0, 2)
        print(f"degree {degree}: {len(hits)} WSO orbit-union designs")

        print("  incidence codes:")
        for hit in hits:
            D = hit.design
            rep = from_incidence_binary(D)
            print(f"    {parameters(D)}  ->  {finish(rep)}")

        z = G.element_of_order(2)
        H = PermGroup(degree, [z])
        print(f"  fixed split under an involution "
              f"({len(z.fixed_points())} fixed points):")
        for hit in hits:
            r1, r2 = from_fixed_split_binary(hit.design, H)
            D = hit.design
            print(f"    {parameters(D)}  OM1 {finish(r1)}  "
                  f"OM2 {finish(r2, budget=1 << 28)}")

        if degree == 66:
            H11 = PermGroup(66, [G.element_of_order(11)])
            print("  orbit matrices under an order-11 subgroup:")
            for hit in hits:
                try:
                    rep = from_orbitmatrix_binary(hit.design, H11)
                except BadOrbitProfile:
                    continue
                D = hit.design
                print(f"    {parameters(D)}  ->  {finish(rep)}")


if __name__ == "__main__":
    main()
