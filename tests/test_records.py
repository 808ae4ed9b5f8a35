"""The record syntax shared by the group, design and matrix file formats,
the size caps at that boundary, the numeric CLI arguments, and the one rule
by which the library reads an integer argument.

The properties draw numbers up to 2^64: every draw either parses (or runs)
or raises ValueError / UsageError, never anything else, and writing then
reading a valid object gives it back.
"""

import contextlib
import io
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strategies import NON_INTEGERS, small_transitive_groups
from socodes import cli
from socodes.constructions import from_fixed_split_q, from_incidence_q, from_orbitmatrix_q
from socodes.designs import (Design, format_design_text, from_group_action,
                             intersection_profile, parse_design_text, wso_search)
from socodes.fields import ORDER_CAP, Field, field_for_order, prime_power
from socodes.groups import (DEGREE_CAP, INDEX_CAP, KSUBSET_CAP, DegreeTooLarge,
                            Perm, PermGroup, format_group_text, parse_group_text)
from socodes.m11 import m11_degree
from socodes.matrices import COLS_CAP, GFMatrix, bordered
from socodes.orbitmat import fixed_split
from socodes.records import format_records, read_records

BIG = 2 ** 64


# ------------------------------------------------------------------ records

def test_comment_starts_anywhere_and_blank_lines_are_skipped():
    text = "# head\n\n 3 2 # v b\n   \n0 1 # a block\n#\n1 2\n"
    assert read_records(text, "v b") == ([3, 2], ["0 1", "1 2"])


@pytest.mark.parametrize("text", ["", "# nothing\n\n", "3\n", "3 2 1\n",
                                  "3 x\n", "degree 3\n"])
def test_header_of_another_shape_names_the_form(text):
    with pytest.raises(ValueError, match="^header must be 'v b'$"):
        read_records(text, "v b")


def test_format_records_joins_values_by_spaces():
    assert format_records([("degree", 3), ("img:", 2, 3, 1)]) == \
        "degree 3\nimg: 2 3 1\n"


@pytest.mark.parametrize("records", [[(3, 2), ()], [(2, 0, 2), []], [("",)]])
def test_format_records_rejects_an_empty_record(records):
    with pytest.raises(ValueError, match="empty"):
        format_records(records)


def test_inline_comments_in_every_format():
    assert parse_design_text("3 1 # v b\n0 1 # block\n") == Design(3, [(0, 1)])
    M = GFMatrix.from_text("1 2 4 # rows cols q\n3 1 # row\n")
    assert M.field == Field(2, 2) and M.a.tolist() == [[3, 1]]
    G = parse_group_text("degree 3 # n\nimg:2 3 1 # no space after the colon\n"
                         "(1 2 3) # spaces\n")
    assert [g.images for g in G.generators] == [(1, 2, 0), (1, 2, 0)]


# --------------------------------------------------------------------- caps

def _rejected_fast(parse, text, match):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=match):
        parse(text)
    assert time.perf_counter() - start < 1


def test_caps_reject_before_allocating():
    _rejected_fast(GFMatrix.from_text, "1 1 4611686018427387847\n0\n", "exceeds")
    _rejected_fast(GFMatrix.from_text, f"0 {COLS_CAP + 1} 2\n", "columns")
    _rejected_fast(parse_group_text, "degree 100000000000\n()\n", "exceeds")
    _rejected_fast(parse_design_text, "10000000000 1\n0\n", "points exceed")
    _rejected_fast(field_for_order, 999983, "exceeds")
    _rejected_fast(field_for_order, 2 ** 62 - 57, "exceeds")
    with pytest.raises(DegreeTooLarge):
        parse_group_text(f"degree {DEGREE_CAP + 1}\n")


def test_caps_admit_what_the_cli_writes():
    # k-subset and coset actions read back, up to their own caps
    assert DEGREE_CAP >= max(KSUBSET_CAP, INDEX_CAP)
    assert parse_group_text(f"degree {DEGREE_CAP}\n()\n").degree == DEGREE_CAP
    assert parse_design_text(f"{DEGREE_CAP} 1\n0\n").v == DEGREE_CAP
    # every shipped field, and the generator of the [331,165] code
    assert field_for_order(61 ** 2).q == 3721 <= ORDER_CAP
    rng = np.random.default_rng(0)
    M = GFMatrix(Field(2), rng.integers(0, 2, (165, 331)))
    assert GFMatrix.from_text(M.to_text()) == M
    assert GFMatrix.from_text(f"0 {COLS_CAP} 2\n").cols == COLS_CAP


def test_field_for_order_factors_by_least_prime():
    assert [field_for_order(q).q for q in (2, 4, 9, 49, 121, 3721, 16381)] == \
        [2, 4, 9, 49, 121, 3721, 16381]
    for q in (-7, 0, 1, 6, 12, 3 * 3721):
        with pytest.raises(ValueError, match="not a prime power"):
            field_for_order(q)


def test_prime_power_factors_and_rejects_like_field_for_order():
    assert [prime_power(q) for q in (2, 4, 9, 49, 3721, ORDER_CAP)] == \
        [(2, 1), (2, 2), (3, 2), (7, 2), (61, 2), (2, 14)]
    for q, match in ((6, "not a prime power"), (1, "not a prime power"),
                     (ORDER_CAP + 1, "exceeds")):
        with pytest.raises(ValueError, match=match):
            prime_power(q)


# --------------------------------------------------------------- properties

NUMBERS = st.integers(-BIG, BIG)
INTS = st.one_of(st.integers(-3, 12), NUMBERS)
WORDS = st.one_of(INTS.map(str),
                  st.sampled_from(["degree", "img:", "img:2", "()", "(1,2)", "(1,1)",
                                   "#", "x", "|", "1.5", "-", "1_0"]))
JUNK = st.lists(WORDS, max_size=5).map(" ".join)
ORDERS = st.one_of(NUMBERS, st.sampled_from([2, 3, 4, 9, 49, 3721, ORDER_CAP]))


def _mostly(draw, value, other):
    """value three times in four, else a draw of other."""
    return draw(other) if draw(st.integers(0, 3)) == 3 else value


def _numbers(count):
    return st.lists(INTS, min_size=count, max_size=count).map(
        lambda xs: " ".join(map(str, xs)))


@st.composite
def _group_records(draw):
    cycle = st.lists(INTS.map(str), max_size=3).map(",".join)
    body = st.one_of(
        st.just("()"),
        st.integers(0, 5).flatmap(_numbers).map("img: ".__add__),
        st.lists(cycle, min_size=1, max_size=3).map(
            lambda cs: "".join(f"({c})" for c in cs)),
        JUNK)
    return f"degree {draw(INTS)}", draw(st.lists(body, max_size=4))


@st.composite
def _design_records(draw):
    body = draw(st.lists(st.integers(0, 4).flatmap(_numbers), max_size=4))
    b = _mostly(draw, len(body), INTS)
    return f"{draw(INTS)} {b}", body


@st.composite
def _matrix_records(draw):
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    body = [draw(_numbers(cols)) for _ in range(rows)]
    shape = [_mostly(draw, n, INTS) for n in (rows, cols)]
    return f"{shape[0]} {shape[1]} {draw(ORDERS)}", body


@st.composite
def _texts(draw, records):
    """Mostly well-formed files with numbers up to 2^64, some with a junk
    header, all with comments and blank lines strewn in."""
    head, body = draw(records)
    lines = [_mostly(draw, head, JUNK), *body]
    tails = st.sampled_from(["", "", " # c", "#", "\n", "\n# c\n"])
    return "".join(line + draw(tails) + "\n" for line in lines)


FORMATS = st.one_of(
    st.tuples(st.just(parse_group_text), _texts(_group_records())),
    st.tuples(st.just(parse_design_text), _texts(_design_records())),
    st.tuples(st.just(GFMatrix.from_text), _texts(_matrix_records())),
)


@settings(max_examples=400, deadline=None)
@given(FORMATS)
def test_every_text_parses_or_raises_value_error(case):
    parse, text = case
    try:
        parse(text)
    except ValueError:
        pass


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("numeric")
    des = d / "two.des"
    des.write_text("2 2\n0\n1\n")      # dimension-2 codes: cheap at any q
    mat = d / "m.mat"
    mat.write_text("2 4 3\n1 0 1 1\n0 1 1 2\n")
    return str(des), str(mat)


def _numeric_argvs(des, mat):
    n = INTS.map(str)
    return st.one_of(
        st.tuples(st.just("group"), st.just("subsets"), st.just("m11:11"), n),
        st.tuples(st.just("design"), st.just("build"), st.just("m11:11"),
                  st.lists(n, max_size=3).map(",".join)),
        st.tuples(st.just("design"), st.just("search"), st.just("m11:11"),
                  st.just("--q"), n),
        st.tuples(st.just("code"), st.just("from-design"), st.just(des),
                  st.just("--q"), n, st.just("--budget"), n),
        st.tuples(st.just("analyze"), st.just(mat), st.just("--budget"), n),
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_numeric_arguments_run_or_raise_value_or_usage_error(small_files, data):
    argv = list(data.draw(_numeric_argvs(*small_files)))
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            args = cli._build_parser().parse_args(argv)
            args.func(args)
        except (ValueError, cli.UsageError):
            pass


# ---------------------------------------------------------------- round trip

# line breaks that str.splitlines knows, so multi-line comments are drawn
COMMENTS = st.text(alphabet="abc #-:()0123456789\n\r\x0b\x0c\x1c\x85\u2028", max_size=12)


@settings(max_examples=60, deadline=None)
@given(small_transitive_groups(), COMMENTS)
def test_group_text_round_trip(G, comment):
    H = parse_group_text(format_group_text(G, comment))
    assert (H.degree, H.generators) == (G.degree, G.generators)


def _round_trips_or_writer_refuses(value, write, read):
    """write(value) reads back as value, or write raises the empty-record
    ValueError."""
    try:
        text = write(value)
    except ValueError as err:
        assert "empty" in str(err)
        return False
    assert read(text) == value
    return True


@st.composite
def _designs(draw):
    v = draw(st.integers(1, 8))
    blocks = draw(st.lists(st.sets(st.integers(0, v - 1)), max_size=6))
    return Design(v, blocks)


@settings(max_examples=60, deadline=None)
@given(_designs())
def test_design_text_round_trip(D):
    written = _round_trips_or_writer_refuses(D, format_design_text, parse_design_text)
    assert written == all(D.blocks)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4, 9, 25, 49]), st.integers(0, 4), st.integers(0, 5),
       st.integers(0, 2 ** 32 - 1))
def test_matrix_text_round_trip(q, rows, cols, seed):
    F = field_for_order(q)
    M = GFMatrix(F, np.random.default_rng(seed).integers(0, q, (rows, cols)))
    written = _round_trips_or_writer_refuses(M, GFMatrix.to_text, GFMatrix.from_text)
    assert written == (rows == 0 or cols > 0)


# ------------------------------------------------------- integer arguments

F9 = field_for_order(9)
M11 = m11_degree(11)
PAIRS = Design(11, M11.set_orbit((0, 1)))
FANO = Design(7, [(0, 1, 2), (0, 3, 4), (1, 4, 5), (2, 3, 5),
                  (0, 5, 6), (1, 3, 6), (2, 4, 6)])
C3 = PermGroup(7, [Perm.from_cycles(7, [(0, 1, 2), (3, 4, 5)])])
C1 = PermGroup(7, [])


def _texts(reports):
    # reports and corners compare by value: their codes and arrays have no ==
    return [r.to_text() for r in reports]


def _corners(om1, om2):
    return om1.tolist(), om2.tolist()

# every entry point that reads an integer argument, as a call of that one
# argument, with a Python int the entry point accepts there
INTEGER_ARGUMENTS = {
    "Field.from_int": (F9.from_int, 1),
    "Field.mul": (lambda x: F9.mul(x, 1), 1),
    "GFMatrix": (lambda x: GFMatrix(F9, [[x, 2]]), 1),
    "GFMatrix.from_int": (lambda x: GFMatrix.from_int(F9, [[x, 2]]), 1),
    "Design.v": (lambda x: Design(x, [(0,)]), 1),
    "Design.blocks": (lambda x: Design(2, [(0, x)]), 1),
    "Design.blocks.array": (lambda x: Design(2, np.array([(0, x)])), 1),
    "Perm": (lambda x: Perm([x, 0, 2]), 1),
    "Perm.from_cycles": (lambda x: Perm.from_cycles(3, [(0, x)]), 1),
    "PermGroup.set_orbit": (lambda x: M11.set_orbit((0, x)).tolist(), 1),
    "from_group_action": (lambda x: from_group_action(M11, 0, (x,)), 1),
    "intersection_profile": (lambda x: intersection_profile(PAIRS, x), 2),
    "wso_search": (lambda x: wso_search(M11, 0, x), 2),
    "field_for_order": (field_for_order, 9),
    "m11_degree": (m11_degree, 11),
    "from_incidence_q": (lambda x: _texts([from_incidence_q(FANO, x)]), 4),
    "from_orbitmatrix_q": (lambda x: _texts([from_orbitmatrix_q(FANO, C1, x)]), 3),
    "from_fixed_split_q.q": (lambda x: _texts(from_fixed_split_q(FANO, C3, x, 1)), 3),
    "from_fixed_split_q.alpha": (lambda x: _texts(from_fixed_split_q(FANO, C3, 3, x)), 1),
    "fixed_split.p": (lambda x: _corners(*fixed_split(FANO, C3, x, 1)), 3),
    "fixed_split.alpha": (lambda x: _corners(*fixed_split(FANO, C3, 3, x)), 1),
}


@pytest.mark.parametrize("name", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_are_integers_or_type_error(name):
    call, n = INTEGER_ARGUMENTS[name]
    for bad in NON_INTEGERS:
        with pytest.raises(TypeError):
            call(bad)
    for integer in (np.int64, np.int32, np.uint8, bool):
        if integer is not bool or n == 1:
            assert call(integer(n)) == call(n)


def test_bordered_reads_its_scalars_as_integers():
    # the table above cannot hold it: a border of None is no border
    for side in ("left", "right"):
        for bad in [x for x in NON_INTEGERS if x is not None]:
            with pytest.raises(TypeError, match="^scalar code must be integral$"):
                bordered(GFMatrix(F9, [[2]]), **{side: bad})
        for integer in (np.int64, np.int32, np.uint8, bool):
            assert (bordered(GFMatrix(F9, [[2]]), **{side: integer(1)})
                    == bordered(GFMatrix(F9, [[2]]), **{side: 1}))


def test_field_for_order_keeps_one_field_per_order():
    # an order is read as an int before the cache, so np.int64(9) finds GF(9)
    assert field_for_order(np.int64(9)) is field_for_order(9)


@pytest.mark.parametrize("p, alpha, message", [
    (1, 1, "p=1 must be at least 2"), (0, 1, "p=0 must be at least 2"),
    (-3, 1, "p=-3 must be at least 2"), (-3, 0, "p=-3 must be at least 2"),
    (3, 0, "alpha=0 must be at least 1"), (3, -1, "alpha=-1 must be at least 1"),
])
def test_fixed_split_reads_p_and_alpha_in_range(p, alpha, message):
    # these once reached the orbit-length check: lengths outside {1, 0} for
    # p = 0, outside {1, 0.3333333333333333} for alpha = -1
    with pytest.raises(ValueError) as e:
        fixed_split(FANO, C3, p, alpha)
    assert (type(e.value), str(e.value)) == (ValueError, message)


def test_m11_degree_keeps_one_action_per_degree():
    # a degree is read as an int before the cache, so np.int64(22) finds the
    # coset action already built instead of building a second one
    assert m11_degree(np.int64(22)) is m11_degree(22)


def test_from_cycles_reads_every_point_before_using_it():
    # a point was once a list index: a float raised Python's "list indices
    # must be integers", 3 an IndexError, and -1 wrapped around to 2
    for bad in NON_INTEGERS:
        with pytest.raises(TypeError, match="^images must be integral$"):
            Perm.from_cycles(3, [(0, bad)])
    for point in (3, 5, -1):
        with pytest.raises(ValueError, match=f"^point {point} is not within 0..2$"):
            Perm.from_cycles(3, [(0, point)])


@pytest.mark.parametrize("call, message", [
    (lambda: Perm([1.5, 0.2, 2.0]), "images must be integral"),
    (lambda: M11.set_orbit((0.5, 1.9)), "points must be integral"),
    (lambda: from_group_action(M11, 0, (1.5,)), "orbit indices must be integral"),
    (lambda: wso_search(M11, 0, 2.5), "p must be integral"),
    (lambda: bordered(GFMatrix(F9, [[2]]), left=1.7), "scalar code must be integral"),
])
def test_non_integers_are_not_truncated(call, message):
    # each was once read by int(): (0 1), the orbit of {0, 1}, orbit 1,
    # a profile with p=2.5, and the left border
    with pytest.raises(TypeError) as e:
        call()
    assert str(e.value) == message
