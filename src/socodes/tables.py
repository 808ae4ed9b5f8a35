"""Embedded expected code parameters and the pipelines that regenerate them.

Each table id names a list of [n,k,d] rows over GF(2) together with a
pipeline that rebuilds candidate codes from the shipped M11 actions. The
check is one-directional: every expected row must occur among the produced
codes. The pipelines also emit codes the tables do not list (rows from
other dispatch cases of the same orbit-union search), which is fine.

Minimum distances are computed only for produced codes whose (n, k) matches
an expected row, within the table's enumeration budget; everything else
stays at Unknown, so the harness never walks a 2^66 message space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

from .analysis import DEFAULT_BUDGET, Exact, min_distance
from .constructions import (
    from_fixed_split_binary,
    from_incidence_binary,
    from_orbitmatrix_binary,
)
from .designs import wso_search
from .groups import PermGroup
from .m11 import m11_degree
from .orbitmat import BadOrbitProfile


@dataclass(frozen=True)
class Table:
    rows: tuple     # expected (n, k, d) triples
    pipeline: Callable
    budget: int = DEFAULT_BUDGET


@cache
def _hits(degree: int) -> tuple:
    """The mod-2 search of the degree's action, once per process: t1-small,
    t8, t13 and t16 share the 66-point hits, t1-small and t12 the 22-point
    ones. Each hit's design is read-only."""
    return tuple(wso_search(m11_degree(degree), 0, 2))


def _cyclic_part(G: PermGroup, order: int) -> PermGroup:
    z = G.element_of_order(order)
    if z is None:
        raise ValueError(f"no element of order {order} in degree-{G.degree} action")
    return PermGroup(G.degree, [z])


def pipeline_t1_small() -> list:
    """Binary incidence codes of every WSO orbit-union design on 22 and 66
    points."""
    reps = []
    for degree in (22, 66):
        for hit in _hits(degree):
            reps.append(from_incidence_binary(hit.design))
    return reps


def pipeline_t8() -> list:
    """Binary orbit-matrix codes of the 66-point designs under a cyclic
    subgroup of order 11 (semiregular, six point orbits)."""
    H = _cyclic_part(m11_degree(66), 11)
    reps = []
    for hit in _hits(66):
        try:
            reps.append(from_orbitmatrix_binary(hit.design, H))
        except BadOrbitProfile:
            continue
    return reps


def _fixed_split_reports(degree: int) -> list:
    H = _cyclic_part(m11_degree(degree), 2)
    reps = []
    for hit in _hits(degree):
        try:
            reps.extend(from_fixed_split_binary(hit.design, H))
        except BadOrbitProfile:
            continue
    return reps


def pipeline_t12() -> list:
    """Fixed-split codes of the 22-point designs under an involution."""
    return _fixed_split_reports(22)


def pipeline_t13() -> list:
    """Fixed-split codes of the 66-point designs under an involution."""
    return _fixed_split_reports(66)


TABLES = {
    "t1-small": Table(((22, 10, 4), (22, 11, 2), (66, 10, 20), (66, 11, 20)),
                      pipeline_t1_small),
    "t8": Table(((12, 6, 2), (12, 6, 4)), pipeline_t8),
    "t12": Table(((6, 2, 4), (8, 4, 2), (6, 3, 2)), pipeline_t12),
    "t13": Table(((10, 2, 4), (28, 4, 10), (10, 3, 4)), pipeline_t13),
    # same pipeline as t13; these rows come from the case-3 designs
    "t16": Table(((20, 10, 2), (56, 28, 4), (20, 10, 4)), pipeline_t13,
                 budget=1 << 28),
}


def check_table(table_id: str):
    """Run one table's pipeline and match its expected rows.

    Returns (matches, missing): matches maps each found expected row to a
    report, and missing lists rows no produced code realized.
    """
    tab = TABLES[table_id]
    wanted_nk = {(n, k) for n, k, _ in tab.rows}
    entries = []
    for rep in tab.pipeline():
        n, k = rep.code.n, rep.code.k
        d = None
        if (n, k) in wanted_nk and k > 0:
            got = min_distance(rep.code, tab.budget)
            if isinstance(got, Exact):
                d = got.value
        entries.append((n, k, d, rep))
    matches: dict = {}
    missing = []
    for row in tab.rows:
        for n, k, d, rep in entries:
            if (n, k, d) == row:
                matches[row] = rep
                break
        else:
            missing.append(row)
    return matches, missing
