"""Golden corpus of CLI runs on the shipped M11 actions.

``write_fixtures`` writes the design, subgroup and generator files the
corpus refers to; ``run`` executes one argv in-process and returns (exit
code, sha256 of stdout, first line of stderr), with the fixture directory
written as ``{tmp}`` so the record does not depend on where the files live.

Record the corpus from a known-good tree with

    PYTHONPATH=src python tests/cli_corpus.py

which rewrites ``tests/data/cli_golden.json``; ``test_cli_golden.py``
replays it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from socodes.cli import main
from socodes.constructions import from_incidence_binary, from_incidence_q
from socodes.designs import format_design_text, from_group_action
from socodes.groups import Perm, PermGroup, format_group_text
from socodes.m11 import m11_degree

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

# name -> (degree, stabilizer orbit choice) of a development under m11:<degree>
DESIGNS = {
    "d11_0": (11, (0,)),
    "d11_1": (11, (1,)),
    "d12_1": (12, (1,)),
    "d22_01": (22, (0, 1)),
    "d22_02": (22, (0, 2)),
    "d22_2": (22, (2,)),
    "d55_1": (55, (1,)),
    "d55_12": (55, (1, 2)),
    "d66_1": (66, (1,)),
    "d66_01": (66, (0, 1)),
    "d66_23": (66, (2, 3)),
}

# name -> (degree, t): the cyclic subgroup of m11:<degree> generated by
# its first element of order t
SUBGROUPS = {
    "c11_11": (11, 11),
    "c11_12": (12, 11),
    "c3_12": (12, 3),
    "c11_22": (22, 11),
    "c2_22": (22, 2),
    "c3_22": (22, 3),
    "c4_22": (22, 4),
    "c5_22": (22, 5),
    "c5_55": (55, 5),
    "c11_55": (55, 11),
    "c2_66": (66, 2),
    "c3_66": (66, 3),
    "c11_66": (66, 11),
}

BUDGET = ["--budget", "3000"]

# (design, subgroup) pairs of the orbit-matrix construction
ORBITMAT_PAIRS = (
    ("d11_1", "c11_11"), ("d22_01", "c11_22"), ("d22_02", "c11_22"),
    ("d22_2", "c11_22"), ("d55_12", "c5_55"), ("d55_12", "c11_55"),
    ("d55_1", "c5_55"), ("d66_1", "c11_66"), ("d66_23", "c11_66"),
    ("d12_1", "c11_12"), ("d22_2", "swap_22"),
)

# (design, subgroup, field orders) of the fixed-split construction
FIXEDSPLIT_RUNS = (
    ("d12_1", "c3_12", (2, 3, 9)), ("d22_01", "c2_22", (2, 4, 3)),
    ("d22_02", "c2_22", (2, 4, 5)), ("d22_2", "c2_22", (2, 4)),
    ("d22_02", "c3_22", (3, 9)), ("d22_2", "c5_22", (5,)),
    ("d22_2", "c4_22", (2, 4)), ("d55_1", "c5_55", (2, 5)),
    ("d66_1", "c2_66", (2, 4)), ("d66_23", "c2_66", (2, 4)),
    ("d66_01", "c3_66", (3, 9)),
)

# (design, field order) of the incidence codes whose generators ``analyze``
# re-reads: d11_1's code over q = 3 settles in GF(9), d22_2's over q = 5
# in GF(25)
GENERATORS = (*(("d11_1", q) for q in (2, 3, 4, 5)),
              *(("d22_2", q) for q in (2, 3, 4, 5, 9)))


def write_fixtures(tmp) -> None:
    tmp = Path(tmp)
    for name, (degree, choice) in DESIGNS.items():
        D = from_group_action(m11_degree(degree), 0, choice)
        (tmp / f"{name}.des").write_text(format_design_text(D))
    for name, (degree, t) in SUBGROUPS.items():
        g = m11_degree(degree).element_of_order(t)
        (tmp / f"{name}.grp").write_text(
            format_group_text(PermGroup(degree, [g])))
    # the A6 whose cosets give the degree-22 action of m11:11
    a6 = m11_degree(11).stabilizer(0).derived_subgroup()
    (tmp / "a6_11.grp").write_text(format_group_text(a6))
    # a transposition of two points of m11:22: not an automorphism
    swap = Perm.from_cycles(22, [(1, 2)])
    (tmp / "swap_22.grp").write_text(format_group_text(PermGroup(22, [swap])))
    for des, q in GENERATORS:
        D = from_group_action(m11_degree(DESIGNS[des][0]), 0, DESIGNS[des][1])
        rep = from_incidence_binary(D) if q == 2 else from_incidence_q(D, q)
        (tmp / f"{des}_q{q}.mat").write_text(rep.code.generator.to_text())


def _des(name):
    return "{tmp}/" + name + ".des"


def _grp(name):
    return "{tmp}/" + name + ".grp"


def corpus() -> list:
    """Every argv of the corpus, in replay order."""
    runs = []
    for degree in (11, 12, 22, 55, 66):
        runs.append(["group", "info", f"m11:{degree}"])
    for degree in (11, 12, 22, 55):
        runs.append(["group", "orbits", f"m11:{degree}"])
    runs.append(["group", "info", "m11:7"])
    # derived actions: k-subsets, and cosets of the A6 and of a C11
    for degree, k in ((11, 2), (11, 3), (12, 2)):
        runs.append(["group", "subsets", f"m11:{degree}", str(k)])
    for grp in ("a6_11", "c11_11"):
        runs.append(["group", "coset-action", "m11:11", _grp(grp)])
    for degree in (11, 12, 22, 55, 66):
        for q in (2, 3, 4, 5, 9):
            runs.append(["design", "search", f"m11:{degree}", "--q", str(q)])
    for degree, choice in ((22, "0,1"), (22, "2"), (55, "1,2"), (66, "1")):
        runs.append(["design", "build", f"m11:{degree}", choice])
    runs.append(["design", "build", "m11:22", "9"])
    for name in ("d22_2", "d55_1", "d66_23"):
        for q in (2, 3, 4, 5, 9):
            runs.append(["design", "classify", _des(name), "--q", str(q)])

    # incidence codes: every design over every field
    for name in DESIGNS:
        for q in (2, 3, 4, 5, 9):
            runs.append(["code", "from-design", _des(name), "--q", str(q),
                         *BUDGET])
    # orbit matrices: uniform orbits, a fixed point (rejected), a
    # non-automorphism (rejected)
    for des, grp in ORBITMAT_PAIRS:
        for q in (2, 3, 4, 5, 9):
            runs.append(["code", "from-orbitmat", _des(des), _grp(grp),
                         "--q", str(q), *BUDGET])
    # fixed splits: orbit lengths {1, 2}, {1, 3}, {1, 5}, and {1, 2, 4}
    for des, grp, qs in FIXEDSPLIT_RUNS:
        for q in qs:
            runs.append(["code", "from-fixedsplit", _des(des), _grp(grp),
                         "--q", str(q), *BUDGET])
    # forced theorems: one match, mismatches on every construction family
    runs += [
        ["code", "from-design", _des("d22_02"), "--theorem", "T2.1.3"],
        ["code", "from-design", _des("d22_02"), "--theorem", "T2.1.2"],
        ["code", "from-design", _des("d22_02"), "--q", "3",
         "--theorem", "T2.2.3"],
        ["code", "from-orbitmat", _des("d22_2"), _grp("c11_22"),
         "--theorem", "T3.2.bina"],
        ["code", "from-orbitmat", _des("d22_2"), _grp("c11_22"), "--q", "5",
         "--theorem", "T3.1.q"],
        ["code", "from-fixedsplit", _des("d22_02"), _grp("c2_22"),
         "--theorem", "T3.1.fix"],
        ["code", "from-fixedsplit", _des("d22_02"), _grp("c3_22"),
         "--q", "3", "--theorem", "T3.3.fix"],
    ]
    # usage errors
    runs += [
        ["code", "from-orbitmat", _des("d22_2")],
        ["code", "from-design", "{tmp}/missing.des"],
        ["code", "from-design", _des("d22_2"), "--q", "1"],
        ["code", "from-design", _des("d22_2"), "--q", "6"],
    ]
    # characteristics 7 and 11, over GF(p) and GF(p^2)
    for q in (7, 49, 11, 121):
        for degree in (11, 22, 55, 66):
            runs.append(["design", "search", f"m11:{degree}", "--q", str(q)])
        for name in DESIGNS:
            runs.append(["code", "from-design", _des(name), "--q", str(q),
                         *BUDGET])
        for des, grp in (("d11_1", "c11_11"), ("d22_2", "c11_22"),
                         ("d55_12", "c11_55"), ("d66_1", "c11_66")):
            runs.append(["code", "from-orbitmat", _des(des), _grp(grp),
                         "--q", str(q), *BUDGET])
    # a non-square border residue mod 61 moves to GF(61^2) = GF(3721)
    for name in DESIGNS:
        runs.append(["code", "from-design", _des(name), "--q", "61", *BUDGET])
    # the orbit matrix and the fixed split of every pair above, split at the
    # least prime dividing the subgroup's order (the transposition: 2);
    # swap_22 is no automorphism and c4_22's lengths {1, 2, 4} do not split
    pairs = [*ORBITMAT_PAIRS, *((des, grp) for des, grp, _ in FIXEDSPLIT_RUNS)]
    for des, grp in dict.fromkeys(pairs):
        t = SUBGROUPS[grp][1] if grp in SUBGROUPS else 2
        p = next(d for d in range(2, t + 1) if t % d == 0)
        runs.append(["orbitmat", "build", _des(des), _grp(grp)])
        runs.append(["orbitmat", "split", _des(des), _grp(grp), "--q", str(p)])
    # stored generators read back by analyze
    for des, q in GENERATORS:
        runs.append(["analyze", "{tmp}/" + f"{des}_q{q}.mat", *BUDGET])
    # the degree-165 action: the largest set orbits a run develops, and the
    # 165-block design file written from a development's blocks
    runs += [
        ["group", "info", "m11:165"],
        ["group", "orbits", "m11:165"],
        ["design", "build", "m11:165", "1,3,5"],
        ["design", "search", "m11:165"],
    ]
    return runs


def run(argv, tmp) -> tuple:
    """(exit code, sha256 of stdout, first line of stderr) of one argv."""
    tmp = str(tmp)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.replace("{tmp}", tmp) for a in argv])
    stdout = out.getvalue().replace(tmp, "{tmp}")
    stderr = err.getvalue().replace(tmp, "{tmp}").split("\n", 1)[0]
    return code, hashlib.sha256(stdout.encode()).hexdigest(), stderr


def record() -> list:
    with tempfile.TemporaryDirectory() as tmp:
        write_fixtures(tmp)
        return [{"argv": argv, "exit": code, "stdout_sha256": sha,
                 "stderr": err}
                for argv in corpus()
                for code, sha, err in [run(argv, tmp)]]


if __name__ == "__main__":
    entries = record()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries)
                      + "\n]\n")
    print(f"wrote {len(entries)} runs to {GOLDEN}", file=sys.stderr)
