"""The three benchmark workloads: their set-up, their items and the check of
each item's output against the golden file.

A workload is a fixed list of items. The seed only permutes the order in
which one pass runs them; every item is checked on its own, so the checks
do not depend on that order. Program calls go through module attributes
(``designs.wso_search``, not a name bound at import), so that the tracing
wrappers installed by ``tracing.Tracer`` see them.

Why these workloads:

* ``tables`` re-derives the five embedded code tables through the CLI, the
  binary path the paper's tables come from. Orbit development and GF(2)
  minimum distance both weigh on it, and t13/t16 repeat the 66-point
  search, so a search memo shows here.
* ``search`` runs the orbit-union search on every shipped degree below 165
  and develops, classifies and codes each weakly self-orthogonal orbit
  union of the degree-165 action (the ``design build`` / ``design
  classify`` / ``code from-design`` path, ending in [331,165] codes).
  Set-orbit development dominates; it never reaches extension fields or
  distance enumeration. The full degree-165 search (about 50 s in one
  call) does not fit in one timed run, so the 22 unions it finds are
  replayed one by one instead.
* ``oddq`` runs the odd-characteristic constructions over GF(p) and
  GF(p^2) and enumerates distances of every report: digit-convolution
  matmul, quadratic extensions and generic enumeration, which the binary
  workloads never reach.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

from socodes import analysis, cli, constructions, designs, m11, orbitmat
from socodes.groups import PermGroup

SETUP_DEGREES = {
    "tables": (22, 66),
    "search": (11, 12, 22, 55, 66, 165),
    "oddq": (22, 55, 66),
}

TABLE_IDS = ("t1-small", "t8", "t12", "t13", "t16")
SEARCH_DEGREES = (11, 12, 22, 55, 66)
# (p, degree) pairs; (3, 66) is left out because it repeats the GF(9)
# k=6 enumeration of (3, 22) and would push one pass past the run length.
ODDQ_ITEMS = ((3, 22), (3, 55), (5, 22), (5, 55), (5, 66))
ODDQ_BUDGET = 2 ** 20
# typed precondition failures that count as expected rejections
REJECTIONS = (orbitmat.BadOrbitProfile, constructions.NonConstantProfile)


def sha256(parts) -> str:
    """Digest of a sequence of strings, independent of their order."""
    h = hashlib.sha256()
    for part in sorted(parts):
        h.update(hashlib.sha256(part.encode()).digest())
    return h.hexdigest()


def setup(workload: str) -> None:
    """Build and enumerate every M11 action the workload uses."""
    for degree in SETUP_DEGREES[workload]:
        m11.m11_degree(degree).enumerate()


def items(workload: str, golden: dict) -> list:
    """Item keys (strings) of one pass, in canonical order; golden is the
    workload's part of golden.json."""
    if workload == "tables":
        return list(TABLE_IDS)
    if workload == "search":
        return ([f"wso:{d}" for d in SEARCH_DEGREES]
                + [k for k in golden if k.startswith("union165:")])
    if workload == "oddq":
        return [f"p{p}:{d}" for p, d in ODDQ_ITEMS]
    raise ValueError(f"unknown workload {workload!r}")


# -- running an item: everything here is timed --------------------------------


def _run_table(table_id: str):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["reproduce", table_id])
    return rc, out.getvalue()


def _run_union165(choice: tuple):
    G = m11.m11_degree(165)
    D = designs.from_group_action(G, 0, choice)
    prof = designs.intersection_profile(D, 2)
    return D, prof, constructions.from_incidence_binary(D)


def _run_oddq(p: int, degree: int):
    G = m11.m11_degree(degree)
    hits = designs.wso_search(G, 0, p)
    H11 = PermGroup(degree, [G.element_of_order(11)])
    Hp = PermGroup(degree, [G.element_of_order(p)])
    reports, rejected = [], 0
    for hit in hits:
        D = hit.design
        for q in (p, p * p):
            for make in (lambda: [constructions.from_incidence_q(D, q)],
                         lambda: [constructions.from_orbitmatrix_q(D, H11, q)],
                         lambda: list(constructions.from_fixed_split_q(
                             D, Hp, q, 1))):
                try:
                    reports.extend(make())
                except REJECTIONS:
                    rejected += 1
    for rep in reports:
        if rep.code.k > 0:
            analysis.min_distance(rep.code, ODDQ_BUDGET)
    return hits, reports, rejected


def run(key: str):
    """Run one item and return its raw result."""
    kind, _, arg = key.partition(":")
    if kind == "wso":
        return designs.wso_search(m11.m11_degree(int(arg)), 0, 2)
    if kind == "union165":
        return _run_union165(tuple(int(i) for i in arg.split(",")))
    if kind.startswith("p"):
        return _run_oddq(int(kind[1:]), int(arg))
    return _run_table(key)


# -- summarising an item's output: untimed -------------------------------------


def _hit_text(hit) -> str:
    return f"{hit.orbit_choice}|{hit.profile}|{hit.design.blocks}"


def summary(key: str, result) -> dict:
    """The facts about one item's output that the golden file pins."""
    kind = key.partition(":")[0]
    if kind == "wso":
        return {"hits": len(result),
                "sha256": sha256(_hit_text(h) for h in result)}
    if kind == "union165":
        D, prof, rep = result
        text = f"{prof}|{D.blocks}|{rep.to_text()}"
        return {"constant": prof.constant, "sha256": sha256([text])}
    if kind.startswith("p"):
        hits, reports, rejected = result
        texts = [rep.to_text() + analysis.display(rep.code) for rep in reports]
        return {"hits": len(hits), "reports": len(reports),
                "rejected": rejected, "sha256": sha256(texts)}
    rc, stdout = result
    return {"rc": rc, "stdout": stdout}
