"""Shipped Mathieu group M11 generator data and its standard transitive
actions.

Degrees 11 and 12 load from packaged generator files; 22 comes from the
coset action on the derived subgroup of a point stabilizer (A6 in M10), 55
and 165 from the actions on 2- and 3-subsets of 11 points, and 66 from the
action on 2-subsets of 12 points.  Results are cached per process.
"""

from __future__ import annotations

from functools import cache
from importlib import resources

from .groups import PermGroup, parse_group_text
from .records import _integers

DEGREES = (11, 12, 22, 55, 66, 165)


def m11_degree(n: int) -> PermGroup:
    """The transitive M11 action of degree n, built once per degree; n is
    read as an int before the cache, so every integer type finds it."""
    return _m11_of_degree(_integers(n, "degree"))


@cache
def _m11_of_degree(n: int) -> PermGroup:
    if n in (11, 12):
        data = resources.files("socodes.data")
        return parse_group_text((data / f"m11_{n}.grp").read_text(encoding="utf-8"))
    if n == 22:
        G = m11_degree(11)
        return G.coset_action(G.stabilizer(0).derived_subgroup())
    if n == 55:
        return m11_degree(11).action_on_ksubsets(2)
    if n == 66:
        return m11_degree(12).action_on_ksubsets(2)
    if n == 165:
        return m11_degree(11).action_on_ksubsets(3)
    raise ValueError(f"no built-in M11 action of degree {n}; "
                     f"supported: {DEGREES} (110/132/144 need user subgroup files)")
