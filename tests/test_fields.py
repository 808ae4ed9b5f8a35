"""Field layer: exhaustive axiom checks, residues, square roots, extensions.

Expected constants below were frozen from the naive polynomial oracle in
oracles.py (and double-checked against sympy's irreducibility test) before
the field module was written.
"""

import os
import subprocess
import sys

import pytest
import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from socodes.fields import (
    ORDER_CAP, Field, NotPrime, NotASquare, default_modulus, field_for_order,
    prime_power,
)
from socodes.matrices import COLS_CAP
import oracles
from strategies import NON_INTEGERS


# frozen: lexicographically least monic irreducible, ascending coefficients
EXPECTED_MODULI = {
    (2, 1): (0, 1),
    (3, 1): (0, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 0, 1, 1),
    (3, 2): (1, 0, 1),
    (2, 4): (1, 0, 0, 1, 1),
    (5, 2): (1, 1, 1),
    (7, 2): (1, 0, 1),
    (3, 4): (1, 0, 1, 1, 1),
    (2, 6): (1, 0, 0, 0, 0, 1, 1),
}


def plus(F, x, y):
    """x + y in F, as elimination's x - c*y with c = p - 1, the code of -1."""
    return F._sub_mul(x, F.p - 1, y)


AXIOM_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (11, 1), (13, 1), (2, 4), (5, 2), (7, 2)]  # q = 2..49


def test_default_moduli_match_oracle():
    for (p, l), want in EXPECTED_MODULI.items():
        assert Field(p, l).modulus == want
        assert oracles.lex_least_irreducible(p, l) == want


def test_not_prime():
    with pytest.raises(NotPrime):
        Field(4, 1)
    with pytest.raises(NotPrime):
        Field(1, 1)


def test_same_spec_same_field():
    # a field is fixed by its order: equal, equally hashed, named GF(q)
    assert Field(3, 2).modulus == Field(3, 2).modulus
    assert Field(3, 2) == Field(3, 2)
    assert hash(Field(3, 2)) == hash(Field(3, 2))
    assert Field(3, 2) != Field(3, 1) and Field(2, 3) != Field(3, 2)
    assert repr(Field(3, 2)) == "GF(9)" and repr(Field(7)) == "GF(7)"


def test_gf7_inverse():
    F = Field(7)
    assert F.inv(3) == 5    # frozen: exhaustive search for y with 3y = 1 mod 7
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


# every (p, l) with p^l <= 81: 22 prime fields and 10 proper extensions
SMALL_FIELDS = [(p, l) for p in range(2, 82) if all(p % d for d in range(2, p))
                for l in range(1, 7) if p ** l <= 81]


def test_mul_matches_naive_oracle_exhaustive():
    assert len(SMALL_FIELDS) == 32
    for (p, l) in SMALL_FIELDS:
        F = Field(p, l)
        q = F.q
        xs = np.arange(q)
        mul = np.array([[oracles.field_mul_naive(a, b, p, l, F.modulus)
                         for b in range(q)] for a in range(q)])
        assert np.array_equal(F.mul(xs[:, None], xs), mul), (p, l)
        sub = np.array([[oracles.field_sub_naive(a, b, p, l)
                         for b in range(q)] for a in range(q)])
        # rref's unchecked kernels: x * c and x - c*y
        assert np.array_equal(F._scale(xs[:, None], xs), mul), (p, l)
        assert np.array_equal(F._sub_mul(xs[:, None], 1, xs), sub), (p, l)
        inv = np.argmax(mul[1:] == 1, axis=1)
        assert np.array_equal(F.inv(xs[1:]), inv), (p, l)
        with pytest.raises(ZeroDivisionError):
            F.inv(xs)


def test_field_axioms_exhaustive():
    for (p, l) in AXIOM_FIELDS:
        F = Field(p, l)
        xs = np.arange(F.q)
        a = xs[:, None, None]
        b = xs[None, :, None]
        c = xs[None, None, :]
        assert np.array_equal(plus(F, a, b), plus(F, b, a))
        assert np.array_equal(F.mul(a, b), F.mul(b, a))
        assert np.array_equal(plus(F, plus(F, a, b), c), plus(F, a, plus(F, b, c)))
        assert np.array_equal(F.mul(F.mul(a, b), c), F.mul(a, F.mul(b, c)))
        assert np.array_equal(F.mul(a, plus(F, b, c)), plus(F, F.mul(a, b), F.mul(a, c)))
        assert np.array_equal(plus(F, xs, 0), xs)
        assert np.array_equal(F.mul(xs, 1), xs)
        neg = np.array([oracles.field_neg_naive(x, p, l) for x in xs])
        assert np.array_equal(plus(F, xs, neg), np.zeros(F.q, dtype=xs.dtype))
        nz = xs[1:]
        assert np.array_equal(F.mul(nz, F.inv(nz)), np.ones(F.q - 1, dtype=xs.dtype))


def test_square_counts():
    # odd q: exactly (q-1)/2 nonzero squares; char 2: everything is a square
    for (p, l) in AXIOM_FIELDS:
        F = Field(p, l)
        squares = {F.mul(x, x) for x in range(F.q)}
        if p == 2:
            assert squares == set(range(F.q))
        else:
            assert len(squares - {0}) == (F.q - 1) // 2
        for x in range(F.q):
            assert F.is_square(x) == (x in squares)


def test_gf7_squares_frozen():
    F = Field(7)
    assert sorted(x for x in range(7) if F.is_square(x)) == [0, 1, 2, 4]
    assert F.is_square(3) is False
    assert F.is_square(2) is True


def test_sqrt_canonical():
    F = Field(7)
    assert F.sqrt(2) == 3           # roots {3,4}; 3 lexicographically least
    assert F.sqrt(1) == 1
    assert Field(2).sqrt(1) == 1
    with pytest.raises(NotASquare):
        Field(3).sqrt(2)            # squares of GF(3) are {0,1}


def test_sqrt_roundtrip_and_lex_least():
    for (p, l) in AXIOM_FIELDS:
        F = Field(p, l)
        for x in range(F.q):
            if not F.is_square(x):
                with pytest.raises(NotASquare):
                    F.sqrt(x)
                continue
            r = F.sqrt(x)
            assert F.mul(r, r) == x
            roots = [y for y in range(F.q) if F.mul(y, y) == x]
            best = min(roots, key=lambda y: oracles.code_to_poly(y, p, l))
            assert r == best


def test_sqrt_gf9_prefers_lex_order_not_integer_order():
    # in GF(9) with modulus x^2+1: x^2 = 2, so sqrt(2) is x (code 3) or 2x (code 6)
    F = Field(3, 2)
    assert F.modulus == (1, 0, 1)
    assert F.mul(3, 3) == 2
    assert F.sqrt(2) == 3
    assert oracles.code_to_poly(3, 3, 2) == (0, 1)


def test_extend_quadratic_basics():
    F4 = Field(2).extend_quadratic()
    assert (F4.p, F4.l) == (2, 2)
    assert F4.modulus == (1, 1, 1)
    assert Field(3, 2).extend_quadratic() == Field(3, 4)


def test_prime_subfield_residues_are_squares_in_extension():
    # the constructions move to GF(q^2) when a border residue r mod p is not
    # a square in GF(q); there r has a square root, which they then take
    for (p, l) in [(2, 1), (3, 1), (5, 1), (7, 1), (3, 2)]:
        E = Field(p, l).extend_quadratic()
        for r in range(p):
            assert E.is_square(E.from_int(r)), (p, l, r)
            root = E.sqrt(E.from_int(r))
            assert E.mul(root, root) == E.from_int(r)
    assert not Field(3).is_square(2)    # GF(3) -> GF(9): 2 becomes a square


def test_default_modulus_function():
    assert default_modulus(3, 2) == (1, 0, 1)
    assert default_modulus(2, 1) == (0, 1)


def test_vectorized_ops_match_scalar():
    F = Field(7, 2)
    rng = np.random.default_rng(7)
    a = rng.integers(0, F.q, size=200)
    b = rng.integers(0, F.q, size=200)
    ab = F.mul(a, b)
    for i in range(200):
        assert ab[i] == F.mul(int(a[i]), int(b[i]))


def test_out_of_range_codes_raise():
    # a negative code would wrap silently in a log or digit lookup
    for F in (Field(2), Field(3, 2)):
        for bad in (-1, F.q, -F.q, F.q + 5):
            arr = np.array([1, bad, 1])
            for x in (bad, arr):
                for call in (lambda: F.mul(x, 1), lambda: F.mul(1, x),
                             lambda: F.inv(x),
                             lambda: F.sqrt(x), lambda: F.is_square(x)):
                    with pytest.raises(ValueError, match="out of range"):
                        call()


def test_element_codes_must_be_integers():
    # np.asarray(x, dtype=np.int64) would truncate 1.7 to the code 1
    F = Field(3, 2)
    for bad in NON_INTEGERS + tuple(np.array([x, x]) for x in NON_INTEGERS):
        for call in (lambda: F.mul(bad, 1), lambda: F.mul(1, bad),
                     lambda: F.inv(bad), lambda: F.sqrt(bad)):
            with pytest.raises(TypeError, match="^element codes must be integral$"):
                call()
        with pytest.raises(TypeError, match="^integers to lift must be integral$"):
            F.from_int(bad)
    # empty input reads as float64 but holds no value to truncate
    assert F.mul([], 1).shape == (0,)
    assert F.mul(np.array([True, False]), 5).tolist() == [5, 0]


# the largest prime below ORDER_CAP = 2^14 (16383 = 3 * 43 * 127)
LARGE_P = 16381


@st.composite
def _dot_operands(draw):
    F = field_for_order(draw(st.sampled_from([2, 3, 4, 9, 25, LARGE_P])))
    m, K, n = (draw(st.integers(0, 6)) for _ in range(3))
    codes = st.integers(0, F.q - 1)
    return (F, draw(hnp.arrays(np.int64, (m, K), elements=codes)),
            draw(hnp.arrays(np.int64, (K, n), elements=codes)))


@settings(max_examples=200, deadline=None)
@given(_dot_operands())
def test_dot_matches_oracle(args):
    F, a, b = args
    out = F.dot(a, b)
    assert out.dtype == np.int64 and out.shape == (a.shape[0], b.shape[1])
    assert out.tolist() == oracles.matmul_naive(a.tolist(), b.T.tolist(),
                                                F.p, F.l, F.modulus)
    # a Gram product: b is a view of a transposed, and a is converted once
    assert F.dot(a, a.T).tolist() == oracles.matmul_naive(a.tolist(), a.tolist(),
                                                          F.p, F.l, F.modulus)


def test_dot_exact_at_the_column_cap():
    # the largest sum any matrix under the caps can make: COLS_CAP terms of
    # (p - 1)^2, about 2^49, each (p - 1)^2 = 1 mod p
    assert prime_power(LARGE_P) == (LARGE_P, 1)
    F = field_for_order(LARGE_P)
    row = np.full((1, COLS_CAP), F.p - 1)
    assert F.dot(row, row.T).tolist() == [[COLS_CAP % F.p]] == [[384]]


def test_caps_keep_dot_exact():
    # dot's float64 sums are exact below 2^53; raising COLS_CAP or
    # ORDER_CAP past that must fail here, not round a Gram entry
    for q in range(2, ORDER_CAP + 1):
        try:
            p, l = prime_power(q)
        except ValueError:
            continue
        assert COLS_CAP * l * (p - 1) ** 2 < 2 ** 53, q


def test_dot_refuses_inexact_sums():
    # 2^26 terms of (p - 1)^2 pass 2^53; zero-stride views allocate nothing,
    # so the check must come before any conversion
    F = field_for_order(LARGE_P)
    a = np.broadcast_to(np.int64(F.p - 1), (1, 2 ** 26))
    with pytest.raises(AssertionError, match="not exact"):
        F.dot(a, a.T)


_RSS_PROBE = """
import resource
import numpy as np
from socodes.fields import Field
from socodes.matrices import GFMatrix

def exercise(F):
    F.inv(5)
    M = GFMatrix(F, np.random.default_rng(1).integers(0, F.q, (20, 40)))
    M.rref()
    M.gram()
    F.sqrt(F.mul(7, 7))

exercise(Field(7, 2))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
exercise(Field(61, 2))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_field_memory_is_linear_in_q():
    # one q x q int64 table over GF(61^2) alone would take 110 MB; a fresh
    # process keeps the peak RSS of other tests out of the measurement
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", _RSS_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert int(out.stdout) < 5 * 1024


PROPERTY_FIELDS = [Field(2), Field(2, 2), Field(2, 3), Field(3, 2), Field(5, 2),
                   Field(3, 3)]


@st.composite
def _operands(draw):
    F = draw(st.sampled_from(PROPERTY_FIELDS))
    shapes = draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=4))
    codes = st.integers(0, F.q - 1)
    x, y = (draw(hnp.arrays(np.int64, shape, elements=codes))
            for shape in shapes.input_shapes)
    # a 0-d operand is passed as a Python int
    x, y = (int(v) if v.ndim == 0 else v for v in (x, y))
    return F, x, y


@settings(max_examples=150, deadline=None)
@given(_operands())
def test_elementwise_ops_match_oracles(args):
    F, x, y = args
    p, l = F.p, F.l
    naive = {
        F.mul: lambda a, b: oracles.field_mul_naive(a, b, p, l, F.modulus),
    }
    for op, oracle in naive.items():
        out = op(x, y)
        xb, yb = np.broadcast_arrays(x, y)
        if xb.ndim == 0:
            assert type(out) is int
        assert np.shape(out) == xb.shape
        for idx in np.ndindex(xb.shape):
            assert np.asarray(out)[idx] == oracle(int(xb[idx]), int(yb[idx])), (F, op)
    # rref's kernel x - c*y, here x - y*x
    out = F._sub_mul(x, y, x)
    xb, yb = np.broadcast_arrays(x, y)
    assert np.shape(out) == xb.shape
    for idx in np.ndindex(xb.shape):
        a, b = int(xb[idx]), int(yb[idx])
        want = oracles.field_sub_naive(a, oracles.field_mul_naive(b, a, p, l, F.modulus), p, l)
        assert np.asarray(out)[idx] == want, F
