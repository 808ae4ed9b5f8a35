"""Dense exact linear algebra over GF(p^l): rank, Gram, borders, null space."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from socodes.fields import Field
from socodes.matrices import GFMatrix, bordered
import oracles

GF2 = Field(2)
GF3 = Field(3)
GF4 = Field(2, 2)
GF9 = Field(3, 2)


def rand_matrix(field, rows, cols, seed):
    rng = np.random.default_rng(seed)
    return GFMatrix(field, rng.integers(0, field.q, size=(rows, cols)))


def test_identity_rank():
    assert GFMatrix.identity(GF2, 5).rank() == 5


def test_zero_rank():
    assert GFMatrix(GF3, np.zeros((3, 7), dtype=int)).rank() == 0


def test_rank_matches_independent_oracle():
    for field in (GF2, GF3, GF9):
        for seed in range(8):
            M = rand_matrix(field, 6, 6, seed)
            want = oracles.rank_naive(M.a.tolist(), field.p, field.l, field.modulus)
            assert M.rank() == want, (field, seed)


def test_rank_of_transpose():
    for field in (GF2, GF3, GF4):
        for seed in range(10):
            M = rand_matrix(field, 7, 12, seed)
            assert M.rank() == M.transpose().rank()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.integers(1, 12), st.integers(1, 12),
       st.integers(0, 10 ** 6))
def test_rank_nullity(q, rows, cols, seed):
    field = GF4 if q == 4 else Field(q)
    M = rand_matrix(field, rows, cols, seed)
    assert M.rank() + M.null_space().rows == cols


def test_gram_identity():
    for field in (GF2, GF9):
        I = GFMatrix.identity(field, 4)
        assert I.gram() == I


def test_gram_all_ones():
    M = GFMatrix(GF2, np.ones((2, 4), dtype=int))
    assert M.gram() == GFMatrix(GF2, np.zeros((2, 2), dtype=int))


def test_gram_symmetric():
    for field in (GF2, GF3, GF9):
        G = rand_matrix(field, 5, 9, 3).gram()
        assert np.array_equal(G.a, G.a.T)


def test_matmul_matches_naive():
    # accumulate with the plain polynomial oracles, not with field.add and
    # field.mul, which read the same tables as @; GF(8) and GF(27) are the
    # first degree with two reduction rows, K = 1 is a bare outer product
    for field in (GF2, GF3, GF4, GF9, Field(2, 3), Field(3, 3)):
        p, l, m = field.p, field.l, field.modulus
        for rows, inner, cols in [(4, 5, 3), (3, 1, 4)]:
            A = rand_matrix(field, rows, inner, 1)
            B = rand_matrix(field, inner, cols, 2)
            C = (A @ B).a
            for i in range(rows):
                for j in range(cols):
                    acc = 0
                    for k in range(inner):
                        prod = oracles.field_mul_naive(int(A.a[i, k]), int(B.a[k, j]), p, l, m)
                        acc = oracles.field_add_naive(acc, prod, p, l)
                    assert C[i, j] == acc, (field, rows, inner, cols, i, j)


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
                want = field.add(GM[i, j], e2)
                if i == j:
                    want = field.add(want, c2)
                assert GB[i, j] == want


def test_null_space_identity():
    assert GFMatrix.identity(GF3, 4).null_space().rows == 0


def test_null_space_zero():
    N = GFMatrix(GF2, np.zeros((2, 3), dtype=int)).null_space()
    assert N.rows == 3
    assert N.rank() == 3


def test_null_space_is_kernel():
    for field in (GF2, GF3, GF9):
        for seed in range(6):
            M = rand_matrix(field, 5, 8, seed)
            N = M.null_space()
            assert N.rows == 8 - M.rank()
            if N.rows:
                prod = M @ N.transpose()
                assert prod == GFMatrix(field, np.zeros((5, N.rows), dtype=int))


def test_rref_canonical_for_row_space():
    M = rand_matrix(GF3, 5, 7, 11)
    perm = [3, 1, 4, 0, 2]
    shuffled = GFMatrix(GF3, M.a[perm])
    assert M.rref()[0] == shuffled.rref()[0]
    assert M.row_space_equals(shuffled)


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


def test_entries_validated_and_immutable():
    with pytest.raises(ValueError):
        GFMatrix(GF2, [[0, 2]])
    M = GFMatrix(GF2, [[0, 1]])
    with pytest.raises(ValueError):
        M.a[0, 0] = 1


def test_scale_identity():
    I2 = GFMatrix.identity(Field(7), 3, scale=3)
    assert I2.a[1, 1] == 3 and I2.a[0, 1] == 0
