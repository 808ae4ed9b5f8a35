"""Scale check on the degree-165 action of M11: develop a block from
stabilizer orbits, get a 1-(165,116,116) design whose residues land in
case 2, and build the bordered [331,165] self-orthogonal code.  At this
size the exact minimum distance is out of enumeration range, so the
distance stays unknown and only the structural checks run.

Run from the repository root:  python demos/degree165_large_code.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from socodes.analysis import Unknown, display, is_self_orthogonal, min_distance
from socodes.constructions import from_incidence_binary
from socodes.designs import (from_group_action, intersection_profile, parameters,
                             stabilizer_orbits)
from socodes.m11 import m11_degree


def main():
    G = m11_degree(165)
    print(f"degree {G.degree}, order {G.order}, "
          f"transitive={G.is_transitive()}")

    orbits = stabilizer_orbits(G, 0)
    sizes = sorted(len(o) for o in orbits)
    print(f"point-stabilizer orbit sizes: {sizes}")

    # Take every orbit except the fixed point and the 48-orbit; the
    # union develops into a design with k = r = 116.
    choice = tuple(i for i, o in enumerate(orbits) if len(o) not in (1, 48))
    D = from_group_action(G, 0, choice)
    print(f"design {parameters(D)} with b={D.b}")

    prof = intersection_profile(D, 2)
    print(f"parity profile: a={prof.a} d={prof.d} "
          f"(case {prof.dispatch_case()})")

    rep = from_incidence_binary(D)
    assert is_self_orthogonal(rep.code)
    # 2^165 codewords: any exhaustive distance budget is exhausted at once.
    assert isinstance(min_distance(rep.code), Unknown)
    print(f"code {display(rep.code)} self-orthogonal ({rep.theorem}); "
          f"distance left unknown at this size")


if __name__ == "__main__":
    main()
