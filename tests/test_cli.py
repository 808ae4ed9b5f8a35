"""End-to-end checks of the command-line front end.

Commands run in-process through main(argv) so exit codes and stdout are
asserted directly; the M11 action cache makes repeated pipeline runs cheap.
"""

import os
import subprocess
import sys
import time
from math import isqrt
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from socodes import analysis, constructions, designs, fields, orbitmat
from socodes.cli import main
from socodes.designs import (INCIDENCE_CAP, Design, WSOProfile, format_design_text,
                             from_group_action, stabilizer_orbits)
from socodes.groups import Perm, PermGroup, format_group_text
from socodes.m11 import m11_degree
from socodes.matrices import GFMatrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def c6_files(tmp_path):
    grp = tmp_path / "c6.grp"
    grp.write_text("degree 6\n(1 2 3 4 5 6)\n")
    des = tmp_path / "six.des"
    des.write_text("6 2\n0 2 4\n1 3 5\n")
    return str(grp), str(des)


@pytest.fixture
def inv22(tmp_path):
    # involution of the degree-22 M11 action, as a group file
    G = m11_degree(22)
    path = tmp_path / "inv22.grp"
    path.write_text(format_group_text(PermGroup(22, [G.element_of_order(2)])))
    return str(path)


@pytest.fixture
def d2210(tmp_path, capsys):
    path = tmp_path / "d2210.des"
    code, _, _ = run(capsys, "design", "build", "m11:22", "2",
                     "--out", str(path))
    assert code == 0
    return str(path)


# ------------------------------------------------------------------- usage

def test_closed_stdout_exits_quietly(tmp_path):
    # a 1-(256,1,1) design's report is about 260 KB, more than a pipe holds,
    # so the writer is still writing when the reader closes its end
    des = tmp_path / "d256.des"
    des.write_text("256 256\n" + "".join(f"{i}\n" for i in range(256)))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "socodes.cli", "code", "from-design", str(des)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"[512,256,?]_2 SO=true")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_no_command_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "usage error" in err


def test_unknown_m11_degree(capsys):
    code, _, err = run(capsys, "group", "info", "m11:7")
    assert code == 1
    assert "degree" in err


def test_missing_design_file(capsys):
    code, _, err = run(capsys, "design", "classify", "/nonexistent.des")
    assert code == 1


def test_unknown_reproduce_id(capsys):
    code, _, err = run(capsys, "reproduce", "nope")
    assert code == 1
    assert "unknown table id" in err


def test_bad_orbit_choice(capsys):
    code, _, err = run(capsys, "design", "build", "m11:22", "9")
    assert code == 1
    assert "orbit indices" in err


def test_repeated_orbit_index_whole_point_set(capsys):
    code, out, err = run(capsys, "design", "build", "m11:11", "0,1,1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: DeltaIsOmega")


def test_subsets_needs_int(capsys, c6_files):
    grp, _ = c6_files
    code, _, err = run(capsys, "group", "subsets", grp, "two")
    assert code == 1


# ------------------------------------------------------------------- group

def test_group_info_m11_22(capsys):
    code, out, _ = run(capsys, "group", "info", "m11:22")
    assert code == 0
    assert out.splitlines() == [
        "degree 22",
        "order 7920",
        "transitive true",
        "stabilizer-orbits 1 1 20",
    ]


def test_group_orbits_lists_indices(capsys, c6_files):
    grp, _ = c6_files
    code, out, _ = run(capsys, "group", "orbits", grp)
    assert code == 0
    # stabilizer of 0 in C6 is trivial: six singleton orbits
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0] == "orbit 0 size 1: 0"


def test_group_subsets_roundtrip(capsys, tmp_path, c6_files):
    grp, _ = c6_files
    out_path = tmp_path / "c6s2.grp"
    code, out, _ = run(capsys, "group", "subsets", grp, "2",
                       "--out", str(out_path))
    assert code == 0
    assert out.splitlines()[0] == "degree 15"
    code, out, _ = run(capsys, "group", "info", str(out_path))
    assert code == 0
    assert "order 6" in out


def test_group_coset_action_on_trivial_subgroup(capsys, tmp_path, c6_files):
    grp, _ = c6_files
    triv = tmp_path / "triv.grp"
    triv.write_text("degree 6\n")
    code, out, _ = run(capsys, "group", "coset-action", grp, str(triv))
    assert code == 0
    assert out.splitlines()[0] == "degree 6"   # index of {e} in C6


# ------------------------------------------------------------------ design

def test_design_search_degree_22(capsys):
    code, out, _ = run(capsys, "design", "search", "m11:22")
    assert code == 0
    assert "Case1 1-(22,20,10) b=11 orbits=2" in out
    assert "Case1 1-(22,2,1) b=11 orbits=0,1" in out
    assert "Case3 1-(22,21,21) b=22" in out


def test_design_and_orbitmat_read_p_without_building_a_field(capsys, c6_files,
                                                             d2210, inv22):
    """Only the characteristic is needed, so GF(2^14) is never built."""
    _, des = c6_files
    before = fields._field_of_order.cache_info()
    with mock.patch.object(fields, "Field", side_effect=AssertionError("built")):
        assert run(capsys, "design", "search", "m11:11", "--q", "16384")[0] == 0
        assert run(capsys, "design", "classify", des, "--q", "16384")[0] == 0
        assert run(capsys, "orbitmat", "split", d2210, inv22, "--q", "16384")[0] == 0
    after = fields._field_of_order.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_design_classify_constant_and_not(capsys, tmp_path, c6_files):
    _, des = c6_files
    code, out, _ = run(capsys, "design", "classify", des)
    assert code == 0
    assert out.strip() == "1-(6,3,1) p=2 a=1 d=0 case=3"
    penta = tmp_path / "penta.des"
    penta.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    code, out, _ = run(capsys, "design", "classify", str(penta), "--q", "5")
    assert code == 0
    assert "non-constant residues mod 5" in out
    code, out, _ = run(capsys, "design", "classify", str(penta))
    assert code == 0
    assert "non-constant parity" in out


def test_design_file_over_cap_or_with_negative_v_is_usage_error(capsys, tmp_path):
    n = isqrt(INCIDENCE_CAP) + 1
    over = tmp_path / "over.des"
    over.write_text(f"{n} {n}\n" + "".join(f"{i}\n" for i in range(n)))
    neg = tmp_path / "neg.des"
    neg.write_text("-3 0\n")
    for path, msg in ((over, f"{n} blocks on {n} points: b * max(b, v) "
                             f"exceeds {INCIDENCE_CAP}"),
                      (neg, "negative point count -3")):
        for argv in (["design", "classify", str(path)],
                     ["code", "from-design", str(path), "--q", "3"]):
            assert run(capsys, *argv) == (
                1, "", f"usage error: bad design file {str(path)!r}: {msg}\n")


def test_design_build_over_cap_writes_nothing(capsys, tmp_path):
    # the regular action of C_n develops a singleton into n blocks
    n = isqrt(INCIDENCE_CAP) + 1
    grp = tmp_path / "cyclic.grp"
    grp.write_text(f"degree {n}\n({' '.join(map(str, range(1, n + 1)))})\n")
    out = tmp_path / "D.des"
    assert run(capsys, "design", "build", str(grp), "0", "--out", str(out)) == (
        2, "", f"error: ValueError: {n} blocks on {n} points: b * max(b, v) "
               f"exceeds {INCIDENCE_CAP}\n")
    assert not out.exists()


# -------------------------------------------------------------- constructions

def test_code_from_design_table1_row(capsys, d2210):
    code, out, _ = run(capsys, "code", "from-design", d2210)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "[22,10,4]_2 SO=true SD=false theorem=T2.1.1 field=2"
    assert lines[1] == "theorem T2.1.1"
    # generator block parses back in the report's field
    M = GFMatrix.from_text("\n".join(lines[5:]))
    assert M.rows == 11 and M.cols == 22


def test_code_forced_theorem(capsys, d2210):
    code, _, _ = run(capsys, "code", "from-design", d2210,
                     "--theorem", "T2.1.1")
    assert code == 0
    code, _, err = run(capsys, "code", "from-design", d2210,
                       "--theorem", "T2.1.3")
    assert code == 2
    assert "CaseMismatch" in err


def _cycles(v, w, nfix=0):
    """Cyclic group moving v-nfix points in w-cycles, fixing the tail."""
    cycles = [tuple(range(i, i + w)) for i in range(0, v - nfix, w)]
    return PermGroup(v, [Perm.from_cycles(v, cycles)])


# (action, q, blocks on v points, group or None, the tag its profile selects)
FORCED = [
    ("from-design", 2, (4, [(0, 1), (2, 3)]), None, "T2.1.1"),
    ("from-design", 5, (2, [(0,), (1,)]), None, "T2.2.3"),
    ("from-orbitmat", 2, (8, [(0, 2, 4, 6), (1, 3, 5, 7)]), (8, 2, 0),
     "T3.1.bin"),
    ("from-orbitmat", 3, (12, [(0, 1, 3, 6), (0, 2, 5, 8), (1, 2, 4, 7),
                               (0, 4, 9, 10), (1, 5, 10, 11), (2, 3, 9, 11),
                               (3, 7, 8, 10), (4, 6, 8, 11), (5, 6, 7, 9)]),
     (12, 3, 0), "T3.4.q"),
    ("from-fixedsplit", 2, (6, [(0, 2), (1, 3), (4, 5)]), (6, 2, 2),
     "T3.1.fix"),
    ("from-fixedsplit", 3, (7, [(0, 1, 2), (0, 3, 4), (1, 4, 5), (2, 3, 5),
                                (0, 5, 6), (1, 3, 6), (2, 4, 6)]), (7, 3, 1),
     "T3.2.fix.q"),
]


@pytest.mark.parametrize("action, q, design, group, tag", FORCED,
                         ids=[f"{row[0]}-q{row[1]}" for row in FORCED])
def test_code_forced_theorem_each_construction(capsys, tmp_path, action, q,
                                               design, group, tag):
    # --theorem is checked against the tag the construction reports
    des = tmp_path / "d.des"
    des.write_text(format_design_text(Design(*design)))
    argv = ["code", action, str(des), "--q", str(q)]
    if group is not None:
        grp = tmp_path / "h.grp"
        grp.write_text(format_group_text(_cycles(*group)))
        argv.insert(3, str(grp))
    code, out, _ = run(capsys, *argv, "--theorem", tag)
    assert code == 0
    assert f" theorem={tag} " in out
    code, out, err = run(capsys, *argv, "--theorem", "T9.9")
    assert code == 2 and out == ""
    assert err == f"error: CaseMismatch: profile dispatches to {tag}, not T9.9\n"


def test_code_field_cap_precedes_forced_theorem(capsys, tmp_path):
    # GF(131) lacks a needed square root and GF(131^2) exceeds the field-order
    # cap; the cap is reported before any tag is compared
    des = tmp_path / "d11.des"
    code, _, _ = run(capsys, "design", "build", "m11:11", "0",
                     "--out", str(des))
    assert code == 0
    code, _, err = run(capsys, "code", "from-design", str(des),
                       "--q", "131", "--theorem", "X")
    assert code == 2
    assert err == "error: ValueError: field order 17161 exceeds 16384\n"


def test_code_from_orbitmat_c6(capsys, c6_files):
    grp, des = c6_files
    code, out, _ = run(capsys, "code", "from-orbitmat", des, grp)
    assert code == 0
    assert out.splitlines()[0] == \
        "[2,1,2]_2 SO=true SD=true theorem=T3.3.bina field=2"


def test_code_from_fixedsplit_writes_two_reports(capsys, tmp_path,
                                                 d2210, inv22):
    rep_path = tmp_path / "rep.txt"
    code, out, _ = run(capsys, "code", "from-fixedsplit", d2210, inv22,
                       "--out", str(rep_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("OM1 [6,2,4]_2 SO=true")
    assert lines[1].startswith("OM2 [8,4,2]_2 SO=true SD=true")
    blocks = rep_path.read_text().split("\n\n")
    assert len(blocks) == 2
    for block in blocks:
        body = block.splitlines()
        assert body[0] == "theorem T3.1.fix"
        GFMatrix.from_text("\n".join(body[4:]))   # parseable generator


def test_code_fixedsplit_needs_group(capsys, d2210):
    code, _, err = run(capsys, "code", "from-fixedsplit", d2210)
    assert code == 1


def test_code_odd_q_extension(capsys, tmp_path):
    sing = tmp_path / "sing2.des"
    sing.write_text("2 2\n0\n1\n")
    code, out, _ = run(capsys, "code", "from-design", str(sing), "--q", "3")
    assert code == 0
    assert out.splitlines()[0] == \
        "[4,2,2]_9 SO=true SD=true theorem=T2.2.3 field=9"


def test_code_nonconstant_profile_exits_2(capsys, tmp_path):
    penta = tmp_path / "penta.des"
    penta.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    code, _, err = run(capsys, "code", "from-design", str(penta), "--q", "3")
    assert code == 2
    assert "NonConstantProfile" in err


# a failed self-check, one per surface, each handed a wrong value by one
# patched step: exit 4 and one stderr line, nothing on stdout


def test_report_self_check_failure_exits_4(capsys, monkeypatch, d2210):
    # an all-ones column has a nonzero Gram over GF(2)
    monkeypatch.setattr(constructions, "bordered", lambda M, left=None, right=None:
                        GFMatrix(M.field, np.ones((M.rows, 1), dtype=np.int64)))
    assert run(capsys, "code", "from-design", d2210) == (
        4, "", "self-check failed: T2.1.1: generator rows are not self-orthogonal\n")


def test_search_self_check_failure_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(designs, "intersection_profile",
                        lambda D, p: WSOProfile(p, 1, 1))
    assert run(capsys, "design", "search", "m11:22") == (
        4, "", "self-check failed: orbit union (0,): developed profile "
        "(a, d) = (1, 1), predicted (1, 0)\n")


def test_witness_self_check_failure_exits_4(capsys, monkeypatch, tmp_path):
    # [5, 2, 2]_3 handed back its weight-5 word as the lightest, weight 2
    path = tmp_path / "five.mat"
    path.write_text("2 5 3\n1 1 1 1 1\n0 0 0 1 1\n")
    monkeypatch.setattr(analysis, "_lightest_word",
                        lambda C: (2, np.ones(5, dtype=np.int64)))
    assert run(capsys, "analyze", str(path)) == (
        4, "", "self-check failed: witness of weight 5 claimed as weight 2\n")


def test_orbit_matrix_self_check_failure_exits_4(capsys, monkeypatch, d2210, inv22):
    # the identity as the block action puts each block in an orbit of its
    # own, which meets a 2-point orbit of the involution in one point
    monkeypatch.setattr(orbitmat, "_block_action",
                        lambda D, H: [np.arange(D.b)])
    assert run(capsys, "orbitmat", "build", d2210, inv22) == (
        4, "", "self-check failed: replication b_t*a[t][j]/v_j = 1/2 is not "
        "an integer at (0,12)\n")


# ---------------------------------------------------------------- orbitmat

def test_orbitmat_build_and_split(capsys, tmp_path, d2210, inv22):
    om_path = tmp_path / "om.txt"
    code, out, _ = run(capsys, "orbitmat", "build", d2210, inv22,
                       "--out", str(om_path))
    assert code == 0
    assert out.splitlines()[0] == "orbit-matrix 7x14"
    assert om_path.read_text().splitlines()[0].startswith("7 14 0 |")
    code, out, _ = run(capsys, "orbitmat", "split", d2210, inv22)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "fixed-split p=2 alpha=1 f1=6 f2=3 n=8 m=4"
    assert lines[1] == "OM1 3 6"
    assert lines[5] == "OM2 4 8"


@pytest.mark.parametrize("group, shape", [("trivial", "165x165"),
                                          ("involution", "89x89")])
def test_orbitmat_build_degree_165_certifies_quickly(capsys, tmp_path, group,
                                                    shape):
    # the 1-(165,116,116) design of demos/degree165_large_code.py; the
    # double count over all 165 or 89 block orbits runs in integer matrices
    G = m11_degree(165)
    choice = [i for i, orb in enumerate(stabilizer_orbits(G, 0))
              if len(orb) not in (1, 48)]
    des = tmp_path / "d165.des"
    des.write_text(format_design_text(from_group_action(G, 0, choice)))
    grp = tmp_path / "h.grp"
    grp.write_text("degree 165\n()\n" if group == "trivial" else
                   format_group_text(PermGroup(165, [G.element_of_order(2)])))
    start = time.perf_counter()
    code, out, _ = run(capsys, "orbitmat", "build", str(des), str(grp),
                       "--out", str(tmp_path / "om.txt"))
    assert time.perf_counter() - start < 5
    assert code == 0
    assert out.splitlines()[0] == f"orbit-matrix {shape}"


def test_orbitmat_split_without_fixed_points_writes_no_blank_rows(capsys, tmp_path,
                                                                   c6_files):
    # <(1 3 5)(2 4 6)> fixes both blocks of six.des and no point: OM1 is 2x0
    _, des = c6_files
    grp = tmp_path / "c3.grp"
    grp.write_text("degree 6\n(1 3 5)(2 4 6)\n")
    code, out, _ = run(capsys, "orbitmat", "split", des, str(grp), "--q", "3")
    assert code == 0
    assert out.splitlines() == ["fixed-split p=3 alpha=1 f1=0 f2=2 n=2 m=0",
                                "OM1 2 0", "OM2 0 2"]


def test_orbitmat_split_bad_profile_exits_2(capsys, c6_files):
    grp, des = c6_files
    code, _, err = run(capsys, "orbitmat", "split", des, grp)
    assert code == 2
    assert "BadOrbitProfile" in err


# ----------------------------------------------------------------- analyze

def test_analyze_roundtrip(capsys, tmp_path, d2210):
    rep_path = tmp_path / "rep.txt"
    code, out, _ = run(capsys, "code", "from-design", d2210,
                       "--out", str(rep_path))
    gen = "\n".join(rep_path.read_text().splitlines()[4:]) + "\n"
    gen_path = tmp_path / "gen.txt"
    gen_path.write_text(gen)
    code, out, _ = run(capsys, "analyze", str(gen_path))
    assert code == 0
    assert out.strip() == "[22,10,4]_2 SO=true SD=false"


# headers with too few or too many tokens: the error names the header form
BAD_MATRIX_HEADERS = ["1 1\n0\n", "1 1 2 7\n0\n"]
BAD_GROUP_HEADERS = ["degree 3 4\n()\n", "(1,2)\n"]


@pytest.mark.parametrize("text", ["2 3 2\n1 0 1 1 0 1\n",       # one wide row
                                  "1 3 2\n1 0 1\n1 1 1\n",      # an extra row
                                  "",
                                  *BAD_MATRIX_HEADERS])
def test_analyze_rejects_malformed_matrix(capsys, tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1 and out == ""
    assert "bad matrix file" in err
    if text in BAD_MATRIX_HEADERS:
        assert "header must be 'rows cols q'" in err


@pytest.mark.parametrize("text", ["degree 3\n(1,2)()\n",     # an empty cycle
                                  "degree 3\n(1,1)\n",        # a repeated point
                                  "degree 0\n()\n",
                                  "degree -2\n()\n",
                                  "degree 0\n",
                                  *BAD_GROUP_HEADERS])
def test_group_info_rejects_malformed_group_file(capsys, tmp_path, text):
    path = tmp_path / "g.grp"
    path.write_text(text)
    code, out, err = run(capsys, "group", "info", str(path))
    assert code == 1 and out == ""
    assert "bad group file" in err
    if text in BAD_GROUP_HEADERS:
        assert "header must be 'degree n'" in err


def test_group_info_identity_generator(capsys, tmp_path):
    path = tmp_path / "g.grp"
    path.write_text("degree 3\n()\n")
    code, out, _ = run(capsys, "group", "info", str(path))
    assert code == 0
    assert out.splitlines()[:2] == ["degree 3", "order 1"]


def test_files_are_read_as_utf8(capsys, tmp_path):
    grp = tmp_path / "c3.grp"
    grp.write_text("# C₃, the rotations of a triangle\ndegree 3\n(1,2,3)\n",
                   encoding="utf-8")
    des = tmp_path / "three.des"
    des.write_text("# three points, one block each — a 1-(3,1,1) design\n"
                   "3 3\n0\n1\n2\n", encoding="utf-8")
    code, out, _ = run(capsys, "group", "info", str(grp))
    assert code == 0 and "order 3" in out
    code, out, _ = run(capsys, "orbitmat", "build", str(des), str(grp))
    assert code == 0


@pytest.mark.parametrize("argv", [("group", "info", "m11:11"),
                                  ("group", "orbits", "m11:11"),
                                  ("design", "search", "m11:11")])
def test_out_rejected_where_nothing_is_written(capsys, tmp_path, argv):
    path = tmp_path / "x.txt"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 1 and out == ""
    assert "writes no artifact" in err
    assert not path.exists()


def test_out_rejected_by_design_classify(capsys, tmp_path, c6_files):
    _, des = c6_files
    path = tmp_path / "x.txt"
    code, _, err = run(capsys, "design", "classify", des, "--out", str(path))
    assert code == 1 and "writes no artifact" in err
    assert not path.exists()


# --------------------------------------------------------------- reproduce

def test_reproduce_t12_passes(capsys):
    code, out, _ = run(capsys, "reproduce", "t12")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "PASS t12"
    assert any(line.startswith("ok [6,2,4]_2") for line in lines)
    assert any(line.startswith("ok [8,4,2]_2") for line in lines)
    assert any(line.startswith("ok [6,3,2]_2") for line in lines)


def _assert_reproduces(capsys, table_id, rows):
    code, out, _ = run(capsys, "reproduce", table_id)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == f"PASS {table_id}"
    for n, k, d in rows:
        assert any(line.startswith(f"ok [{n},{k},{d}]_2 ") for line in lines)


def test_reproduce_t16_passes(capsys):
    # certifies d = 4 of the [56,28] code, 2^28 codewords
    _assert_reproduces(capsys, "t16", [(20, 10, 2), (56, 28, 4), (20, 10, 4)])


def test_reproduce_t13_passes(capsys):
    _assert_reproduces(capsys, "t13", [(10, 2, 4), (28, 4, 10), (10, 3, 4)])


def test_reproduce_t1_small_passes(capsys):
    _assert_reproduces(capsys, "t1-small",
                       [(22, 10, 4), (22, 11, 2), (66, 10, 20), (66, 11, 20)])


def test_reproduce_t8_passes(capsys):
    code, out, _ = run(capsys, "reproduce", "t8")
    assert code == 0
    assert out.splitlines()[-1] == "PASS t8"


_NO_MASKED_ARRAYS = """
import contextlib, io, sys
from socodes.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["design", "build", "m11:22", "2", "--out", sys.argv[1]]) == 0
    assert main(["reproduce", "t12"]) == 0
    assert main(["code", "from-design", sys.argv[1], "--q", "3"]) == 0
print("numpy.ma" in sys.modules)
"""


def test_passing_checks_do_not_import_numpy_ma(tmp_path):
    # the first np.unique of a process imports numpy.ma, 12-25 ms on a
    # 2-vCPU host; checks that pass must not pay it, so only error texts
    # call np.unique. A fresh process keeps other tests' imports out.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", _NO_MASKED_ARRAYS,
                          str(tmp_path / "d.des")],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
