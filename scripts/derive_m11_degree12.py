"""Derive generators for the degree-12 transitive action of M11 and write
them to src/socodes/data/m11_12.grp.

M11 has a single conjugacy class of index-12 subgroups, isomorphic to
PSL(2,11) of order 660.  Any order-11 element x lies in exactly one such
subgroup; scanning involutions y until |<x, y>| = 660 finds it.  The coset
action of M11 on that subgroup is the degree-12 representation, with the
standard generators mapped through generator-wise.

``derive()`` returns the file text without writing anything; the test suite
compares it with the shipped file.

Run from the repository root:  python scripts/derive_m11_degree12.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from socodes.groups import Perm, PermGroup, format_group_text
from socodes.m11 import m11_degree

OUT = Path(__file__).resolve().parent.parent / "src" / "socodes" / "data" / "m11_12.grp"


def derive() -> str:
    """Text of the degree-12 group file, derived from the natural action."""
    G = m11_degree(11)
    assert G.order == 7920

    x = G.element_of_order(11)
    # <x, y> is either that subgroup or all of M11
    involutions = (y for y in map(Perm, G.enumerate().tolist()) if y.order() == 2)
    candidates = (PermGroup(11, [x, y]) for y in involutions)
    H = next(c for c in candidates if c.order == 660)

    A = G.coset_action(H)
    assert A.degree == 12
    assert A.is_transitive()
    assert A.order == 7920
    return format_group_text(
        A, comment="Mathieu group M11, coset action on a PSL(2,11) subgroup, degree 12")


def main():
    OUT.write_text(derive(), encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
