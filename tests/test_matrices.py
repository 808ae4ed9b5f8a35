"""Dense exact linear algebra over GF(p^l): rank, Gram, borders."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from socodes import fields
from socodes.fields import Field, field_for_order
from socodes.matrices import GFMatrix, bordered
import oracles
from strategies import NON_INTEGERS

GF2 = Field(2)
GF3 = Field(3)
GF4 = Field(2, 2)
GF9 = Field(3, 2)
GF25 = field_for_order(25)


def rank(M) -> int:
    return M.rref()[0].rows


def rand_matrix(field, rows, cols, seed):
    rng = np.random.default_rng(seed)
    return GFMatrix(field, rng.integers(0, field.q, size=(rows, cols)))


def test_identity_rank():
    assert rank(GFMatrix(GF2, np.eye(5, dtype=np.int64))) == 5


def test_zero_rank():
    assert rank(GFMatrix(GF3, np.zeros((3, 7), dtype=int))) == 0


def test_rank_matches_independent_oracle():
    for field in (GF2, GF3, GF9):
        for seed in range(8):
            M = rand_matrix(field, 6, 6, seed)
            want = oracles.rank_naive(M.a.tolist(), field.p, field.l, field.modulus)
            assert rank(M) == want, (field, seed)


def test_rank_of_transpose():
    for field in (GF2, GF3, GF4):
        for seed in range(10):
            M = rand_matrix(field, 7, 12, seed)
            assert rank(M) == rank(GFMatrix(field, M.a.T))


def test_gram_identity():
    for field in (GF2, GF9):
        I = GFMatrix(field, np.eye(4, dtype=np.int64))
        assert I.gram() == I


def test_gram_all_ones():
    M = GFMatrix(GF2, np.ones((2, 4), dtype=int))
    assert M.gram() == GFMatrix(GF2, np.zeros((2, 2), dtype=int))


def test_gram_symmetric():
    for field in (GF2, GF3, GF9):
        G = rand_matrix(field, 5, 9, 3).gram()
        assert np.array_equal(G.a, G.a.T)


def test_gram_converts_its_matrix_once():
    # M M^T reads one float64 copy of M both ways; a second, transposed copy
    # once added b x n x 8 bytes to the scratch of every Gram check
    M = rand_matrix(GF2, 165, 331, 4)
    b, n = M.a.shape
    tracemalloc.start()
    try:
        G = M.gram()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G == M @ GFMatrix(GF2, M.a.T.copy())
    assert peak <= 8 * (b * n + 2 * b * b) + 64 * 1024, peak


# every proper extension field with q <= 81, degrees 2 through 6
EXTENSION_FIELDS = [Field(p, l) for p in (2, 3, 5, 7) for l in range(2, 7) if p ** l <= 81]


def test_matmul_matches_naive():
    # accumulate with the plain polynomial oracles, not with field.mul,
    # which reads the same digits as @; K = 1 is a bare outer product
    assert len(EXTENSION_FIELDS) == 10
    for field in [GF2, GF3] + EXTENSION_FIELDS:
        p, l, m = field.p, field.l, field.modulus
        for rows, inner, cols in [(4, 5, 3), (3, 1, 4)]:
            A = rand_matrix(field, rows, inner, 1)
            B = rand_matrix(field, inner, cols, 2)
            want = oracles.matmul_naive(A.a.tolist(), B.a.T.tolist(), p, l, m)
            assert (A @ B).a.tolist() == want, (field, rows, inner, cols)
            gram = oracles.matmul_naive(A.a.tolist(), A.a.tolist(), p, l, m)
            assert A.gram().a.tolist() == gram, (field, rows, inner)
    # operands that are all q - 1 fill every packed field of dot to its
    # largest sum, at the inner dimensions K on each side of the point where
    # the digit group s falls below l (None: any s < l); over GF(61^2) and
    # GF(2^13), whose s is below l already at K = 1, also where s falls to 1
    cases = [(field, K + i, s) for field in EXTENSION_FIELDS
             for K in [_widest_full_group(field)] for i, s in ((0, field.l), (1, None))]
    cases += [(Field(61, 2), 18, 2), (Field(61, 2), 19, 1),
              (Field(2, 13), 2 ** 16 - 1, 2), (Field(2, 13), 2 ** 16, 1)]
    for field, K, s in cases:
        p, l, m, top = field.p, field.l, field.modulus, field.q - 1
        got = fields._packing(K, l, p)[0]
        assert got == s if s else got < l, (field, K, got)
        A = GFMatrix(field, np.full((2, K), top))
        B = GFMatrix(field, np.full((K, 3), top))
        # K terms of top * top sum to (K mod p) * top * top
        want = oracles.field_mul_naive(oracles.field_mul_naive(top, top, p, l, m), K % p, p, l, m)
        assert (A @ B).a.tolist() == [[want] * 3] * 2, (field, K)
        assert A.gram().a.tolist() == [[want] * 2] * 2, (field, K)


def _widest_full_group(field) -> int:
    """The largest inner dimension K at which dot packs all l digits of a
    code into one float: (2l - 1) * bitlen(K * l * (p - 1)^2) <= 53."""
    p, l = field.p, field.l
    return ((1 << 53 // (2 * l - 1)) - 1) // (l * (p - 1) ** 2)


def test_matmul_outer_product_is_mul_table():
    # K = 1 over every pair of elements: column of all codes @ row of all codes
    for field in EXTENSION_FIELDS:
        xs = np.arange(field.q)
        col = GFMatrix(field, xs[:, None])
        row = GFMatrix(field, xs[None, :])
        assert np.array_equal((col @ row).a, field.mul(xs[:, None], xs)), field


def test_bordered_shapes_and_content():
    M = rand_matrix(GF2, 3, 4, 0)
    B = bordered(M, left=1, right=1)
    assert (B.rows, B.cols) == (3, 8)
    assert np.array_equal(B.a[:, :3], np.eye(3, dtype=int))
    assert np.array_equal(B.a[:, 3:7], M.a)
    assert np.array_equal(B.a[:, 7], np.ones(3, dtype=int))
    assert bordered(M) == M
    only_right = bordered(M, right=1)
    assert (only_right.rows, only_right.cols) == (3, 5)


def test_bordered_scalar_from_sqrt():
    three = Field(7).sqrt(2)
    assert three == 3
    M = rand_matrix(Field(7), 2, 2, 5)
    B = bordered(M, left=three)
    assert B.a[0, 0] == 3 and B.a[1, 1] == 3 and B.a[0, 1] == 0


def test_bordered_inner_product_identity():
    # row_i . row_j of [c*I | M | e*1] = c^2 [i=j] + M_i.M_j + e^2
    for field, seed in [(GF2, 0), (GF3, 1), (GF9, 2)]:
        M = rand_matrix(field, 4, 6, seed)
        c, e = 1 % field.q, 2 % field.q
        B = bordered(M, left=c, right=e)
        GB, GM = B.gram().a, M.gram().a
        c2, e2 = field.mul(c, c), field.mul(e, e)
        for i in range(4):
            for j in range(4):
                want = oracles.field_add_naive(int(GM[i, j]), e2, field.p, field.l)
                if i == j:
                    want = oracles.field_add_naive(want, c2, field.p, field.l)
                assert GB[i, j] == want


def test_rref_canonical_for_row_space():
    M = rand_matrix(GF3, 5, 7, 11)
    perm = [3, 1, 4, 0, 2]
    shuffled = GFMatrix(GF3, M.a[perm])
    assert M.rref()[0] == shuffled.rref()[0]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 4, 9, 25]), st.integers(1, 6), st.integers(1, 8),
       st.integers(0, 10 ** 6))
def test_rref_invariant_under_invertible_row_operations(q, rows, cols, seed):
    # U = P L R with P a permutation, L unit lower and R upper triangular
    # with a nonzero diagonal reaches every invertible matrix
    field = field_for_order(q)
    rng = np.random.default_rng(seed)
    M = GFMatrix(field, rng.integers(0, q, (rows, cols)))
    L = np.tril(rng.integers(0, q, (rows, rows)), -1) + np.eye(rows, dtype=np.int64)
    R = np.triu(rng.integers(0, q, (rows, rows)), 1) + np.diag(rng.integers(1, q, rows))
    P = np.eye(rows, dtype=np.int64)[rng.permutation(rows)]
    U = GFMatrix(field, P) @ GFMatrix(field, L) @ GFMatrix(field, R)
    assert rank(U) == rows
    assert (U @ M).rref() == M.rref()


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([2, 4, 3, 9, 25]), st.integers(0, 10), st.integers(0, 20),
       st.integers(0, 10), st.integers(0, 10 ** 6))
def test_rref_matches_oracle(q, rows, cols, rank_cap, seed):
    field = field_for_order(q)
    rng = np.random.default_rng(seed)
    if rank_cap == 10:
        M = rng.integers(0, q, (rows, cols))
    else:
        # a product through an inner dimension below rows gives dependent
        # rows; some rows and columns are then zeroed outright
        inner = min(rank_cap, rows, cols)
        M = (GFMatrix(field, rng.integers(0, q, (rows, inner)))
             @ GFMatrix(field, rng.integers(0, q, (inner, cols)))).a.copy()
        M[rng.random(rows) < 0.2] = 0
        M[:, rng.random(cols) < 0.2] = 0
    R, pivots = GFMatrix(field, M).rref()
    want_rows, want_pivots = oracles.rref_naive(M.tolist(), field.p, field.l, field.modulus)
    assert pivots == tuple(want_pivots)
    assert R.a.tolist() == want_rows
    assert R.a.shape == (len(want_pivots), cols)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([GF2, GF3, GF4, GF9, GF25]), st.integers(0, 8), st.integers(0, 8),
       st.integers(0, 8), st.integers(1, 24), st.booleans(), st.integers(0, 10 ** 6))
@example(GF3, 4, 3, 4, 2, False, 1)
@example(GF9, 5, 2, 5, 7, False, 2)
@example(GF25, 3, 4, 3, 22, False, 3)
@example(GF25, 5, 3, 4, 11, True, 4)
def test_rref_with_identity_prefix_matches_oracle(field, rows, extra, t, scale, below, seed):
    # columns 0..t-1 equal c times the identity's, c = 1 or not (t = rows
    # is a full border [c*I | M]), and the rest are random; a zeroed row
    # sometimes cuts the prefix short, and so does a second nonzero below
    # the diagonal of a prefix column, which the prefix must not skip
    rng = np.random.default_rng(seed)
    t = min(t, rows)
    c = 1 + (scale - 1) % (field.q - 1)
    M = rng.integers(0, field.q, (rows, t + extra))
    M[:, :t] = c * np.eye(rows, t, dtype=np.int64)
    if rng.random() < 0.3 and rows:
        M[rng.integers(rows)] = 0
    if below and 0 < t and 1 < rows:
        j = int(rng.integers(min(t, rows - 1)))
        M[rng.integers(j + 1, rows), j] = rng.integers(1, field.q)
    R, pivots = GFMatrix(field, M).rref()
    want_rows, want_pivots = oracles.rref_naive(M.tolist(), field.p, field.l, field.modulus)
    assert pivots == tuple(want_pivots)
    assert R.a.tolist() == want_rows
    assert R.a.shape == (len(want_pivots), t + extra)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 70), st.integers(0, 200), st.booleans(), st.integers(0, 10 ** 6))
@example(1, 0, False, 0)
@example(9, 64, True, 1)
@example(70, 200, True, 2)
def test_rref_over_gf2_matches_oracle_on_rank_deficient_matrices(rows, cols, prefix, seed):
    # GF(2) eliminates on bit rows, so widths cross byte and 64-bit
    # boundaries; a product through an inner dimension below rows has
    # dependent rows (none at all: the zero matrix), and with prefix the
    # first rows are [I | X] and the rest are sums of them
    rng = np.random.default_rng(seed)
    inner = int(rng.integers(rows))
    if prefix:
        t = min(inner, cols)
        top = np.hstack([np.eye(t, dtype=np.int64), rng.integers(0, 2, (t, cols - t))])
        a = np.vstack([top, rng.integers(0, 2, (rows - t, t)) @ top % 2])
    else:
        a = rng.integers(0, 2, (rows, inner)) @ rng.integers(0, 2, (inner, cols)) % 2
    M = GFMatrix(GF2, a)
    R, pivots = M.rref()
    want_rows, want_pivots = oracles.rref_naive(a.tolist(), 2, 1, GF2.modulus)
    assert (R.a.tolist(), pivots) == (want_rows, tuple(want_pivots))
    assert R.a.dtype == np.int64 and M.a.dtype == np.int64
    assert np.array_equal(M.a, a)
    assert R.rref() == GFMatrix(GF2, R.a).rref() == (R, pivots)


def test_rref_of_an_rref_is_itself():
    # a matrix keeps its (RREF, pivots); an RREF is eliminated again, to
    # equal bytes and the same pivots
    M = bordered(rand_matrix(GF25, 4, 6, 3), left=22, right=11)
    E, pivots = M.rref()
    assert M.rref()[0] is E and M.rref()[1] == pivots == (0, 1, 2, 3)
    assert E.rref() == (E, pivots) and E.rref()[0].a.tobytes() == E.a.tobytes()


def test_rref_forms_no_reference_cycle():
    # with the collector off only reference counts free a matrix, so one
    # kept alive by a cycle through its RREF would outlive its last name
    gc.disable()
    try:
        M = rand_matrix(GF9, 4, 7, 5)
        E, _ = M.rref()
        E.rref()
        alive = [weakref.ref(M), weakref.ref(E)]
        del M, E
        assert [ref() for ref in alive] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("field, x", [(GF2, 1), (GF3, 2), (GF9, 5)])
def test_rref_swaps_and_clears_above_the_pivot(field, x):
    r0 = np.array([x, 1, 0, 1, 0, x])
    r1 = np.array([x, 1, 0, x, 1, 0])
    r2 = np.array([0, x, 0, 1, 1, 0])
    # r1 - r0 is zero in columns 0 and 1, so column 1's pivot is r2, found
    # below its row and swapped up, and r0 is nonzero there; column 2 is
    # zero; the last two rows are dependent, so the rank is 3 of 5 rows
    def add(u, v):
        return [oracles.field_add_naive(int(a), int(b), field.p, field.l) for a, b in zip(u, v)]

    minus_r0 = [oracles.field_neg_naive(int(x), field.p, field.l) for x in r0]
    M = np.stack([r0, r1, r2, add(r0, r2), add(r1, minus_r0)])
    R, pivots = GFMatrix(field, M).rref()
    want_rows, want_pivots = oracles.rref_naive(M.tolist(), field.p, field.l, field.modulus)
    assert pivots == tuple(want_pivots)
    assert R.a.tolist() == want_rows
    assert len(pivots) == 3 and pivots[:2] == (0, 1) and 2 not in pivots


def test_rref_pivots_are_unit_columns():
    M = rand_matrix(GF9, 6, 9, 4)
    R, pivots = M.rref()
    for r, c in enumerate(pivots):
        col = R.a[:, c]
        assert col[r] == 1 and np.count_nonzero(col) == 1


def test_serialization_roundtrip():
    M = rand_matrix(GF9, 3, 5, 9)
    text = M.to_text()
    first = text.splitlines()[0]
    assert first == "3 5 9"
    M2 = GFMatrix.from_text(text)
    assert M2 == M
    assert M2.field == GF9


@pytest.mark.parametrize("text", [
    "2 3 2\n1 0 1 1 0 1\n",         # one row holding both rows' entries
    "2 3 2\n1 0 1\n0 1\n",          # a short row
    "2 3 2\n1 0 1\n0 1 1 0\n",      # a long row
    "1 3 2\n1 0 1\n1 1 1\n",        # a row past the header's count
    "2 3 2\n1 0 1\n",               # a missing row
    "# only a comment\n",
    "1 1\n0\n",                    # a header with two tokens
    "1 1 2 7\n0\n",                # a header with four tokens
])
def test_from_text_rejects_shape_mismatch(text):
    with pytest.raises(ValueError):
        GFMatrix.from_text(text)


def test_from_text_zero_rows():
    M = GFMatrix.from_text("0 3 2\n")
    assert (M.rows, M.cols) == (0, 3)


def test_from_int_reduces_mod_p():
    M = GFMatrix.from_int(GF3, [[0, 1, 2], [3, 4, 5]])
    assert np.array_equal(M.a, [[0, 1, 2], [0, 1, 2]])
    # in an extension field integer counts land in the prime subfield
    M9 = GFMatrix.from_int(GF9, [[5]])
    assert M9.a[0, 0] == 2
    # negative integers and the int64 extremes reduce as Python's % does,
    # where floor(n/p)*p wraps past int64
    n = [-2 ** 63, -2 ** 63 + 1, -61, -7, -1, 0, 1, 7, 60, 2 ** 63 - 2, 2 ** 63 - 1]
    for p in (2, 3, 5, 61):
        F = field_for_order(p)
        want = [x % p for x in n]
        assert F.from_int(np.array(n)).tolist() == want
        assert GFMatrix.from_int(F, [n, n[::-1]]).a.tolist() == [want, want[::-1]]
        assert [F.from_int(x) for x in n] == want
        assert all(type(F.from_int(x)) is int for x in n)


def test_entries_validated_and_immutable():
    with pytest.raises(ValueError):
        GFMatrix(GF2, [[0, 2]])
    M = GFMatrix(GF2, [[0, 1]])
    with pytest.raises(ValueError):
        M.a[0, 0] = 1


def test_entries_must_be_integer_codes():
    # np.array(entries, dtype=np.int64) would truncate 1.7 to the code 1
    for x in NON_INTEGERS:
        for bad in ([[x, 2]], [[1, 2], [3, x]]):
            with pytest.raises(TypeError, match="^matrix entries must be integral$"):
                GFMatrix(GF9, bad)
            with pytest.raises(TypeError, match="^integers to lift must be integral$"):
                GFMatrix.from_int(GF9, bad)
    with pytest.raises(ValueError, match="not a scalar"):
        GFMatrix(GF9, 5)
    # empty input reads as float64 but holds no value to truncate
    assert GFMatrix(GF9, []).a.shape == (0, 0)
    assert GFMatrix(GF9, np.array([[True, False]])).a.dtype == np.int64


def test_scale_identity():
    I2 = GFMatrix(Field(7), np.eye(3, dtype=np.int64) * 3)
    assert I2.a[1, 1] == 3 and I2.a[0, 1] == 0
