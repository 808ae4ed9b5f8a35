"""End-to-end checks of the command-line front end.

Commands run in-process through main(argv) so exit codes and stdout are
asserted directly; the M11 action cache makes repeated pipeline runs cheap.
"""

import pytest

from socodes.cli import main
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
    from socodes.groups import PermGroup, format_group_text
    from socodes.m11 import m11_degree

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


@pytest.mark.parametrize("text", ["2 3 2\n1 0 1 1 0 1\n",       # one wide row
                                  "1 3 2\n1 0 1\n1 1 1\n",      # an extra row
                                  ""])
def test_analyze_rejects_malformed_matrix(capsys, tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1 and out == ""
    assert "bad matrix file" in err


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


def test_reproduce_t8_passes(capsys):
    code, out, _ = run(capsys, "reproduce", "t8")
    assert code == 0
    assert out.splitlines()[-1] == "PASS t8"
