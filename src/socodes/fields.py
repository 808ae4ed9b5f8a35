"""Exact arithmetic in GF(p^l), quadratic residues, canonical square roots,
and quadratic field extensions.

Elements are stored as integer codes in [0, q): the element with polynomial
coefficients (c_0, ..., c_{l-1}) (ascending degree) has code sum c_i * p^i.
All Field operations accept plain ints or numpy arrays of codes and
broadcast; scalar in, scalar out.

Only ``Field`` knows this encoding, and within it only ``Field.dot`` (the
product of code matrices by convolution of base-p digit vectors), the q x q
addition, negation and multiplication tables a Field builds on first use,
and the lexicographic order of canonical square roots read digits. The
multiplication table is ``dot`` of a column of codes with a row of codes;
element operations, inverses and square roots are table lookups.
``matrices`` and ``analysis`` use ``dot`` and the tables and never see a
digit.

The canonical square root and the default modulus are both defined by
lexicographic order on ascending-degree coefficient tuples, which keeps every
downstream generator matrix byte-reproducible.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product

import numpy as np


class NotPrime(ValueError):
    pass


class ReducibleModulus(ValueError):
    pass


class NotASquare(ArithmeticError):
    pass


class SpecMismatch(ValueError):
    """Raised when matrices over different fields are mixed."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# dense polynomial helpers over GF(p), coefficients ascending, used only at
# field-construction time (modulus scan, reduction table, irreducibility)
# ---------------------------------------------------------------------------

def _ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _ptrim(out)


def _pmod(a, m, p):
    a = list(_ptrim(a))
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while a and len(a) - 1 >= dm:
        c = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        for i, y in enumerate(m):
            a[shift + i] = (a[shift + i] - c * y) % p
        a = list(_ptrim(a))
    return _ptrim(a)


def _psub(a, b, p):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return _ptrim((x - y) % p for x, y in zip(a, b))


def _pgcd(a, b, p):
    a, b = _ptrim(a), _ptrim(b)
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _ppowmod(base, e, m, p):
    result = (1,)
    base = _pmod(base, m, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), m, p)
        base = _pmod(_pmul(base, base, p), m, p)
        e >>= 1
    return result


def _is_irreducible(coeffs, p) -> bool:
    coeffs = _ptrim(coeffs)
    deg = len(coeffs) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    if deg <= 4:
        # trial division by every monic polynomial of degree 1..deg/2
        for d in range(1, deg // 2 + 1):
            for tail in product(range(p), repeat=d):
                if not _pmod(coeffs, tail + (1,), p):
                    return False
        return True
    # x^(p^deg) = x mod f, and gcd(x^(p^(deg/t)) - x, f) = 1 for prime t | deg
    x = (0, 1)
    if _ppowmod(x, p ** deg, coeffs, p) != x:
        return False
    t = 2
    rem = deg
    primes = set()
    while rem > 1:
        while rem % t == 0:
            primes.add(t)
            rem //= t
        t += 1
    for t in primes:
        h = _psub(_ppowmod(x, p ** (deg // t), coeffs, p), x, p)
        if len(_pgcd(coeffs, h, p)) > 1:
            return False
    return True


def default_modulus(p: int, l: int) -> tuple:
    """Lexicographically least monic irreducible of degree l over GF(p)."""
    if l == 1:
        return (0, 1)
    for tail in product(range(p), repeat=l):
        cand = tail + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial of degree %d over GF(%d)" % (l, p))


class Field:
    """GF(p^l) with an explicit monic irreducible modulus polynomial.

    Operations are vectorized: ints or integer ndarrays of element codes in,
    same shape out.
    """

    def __init__(self, p: int, l: int = 1, modulus=None):
        if not _is_prime(p):
            raise NotPrime(f"p={p} is not prime")
        if l < 1:
            raise ValueError(f"l={l} must be >= 1")
        self.p = p
        self.l = l
        self.q = p ** l
        if modulus is None:
            modulus = default_modulus(p, l)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != l + 1 or modulus[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {l}")
        if not _is_irreducible(modulus, p):
            raise ReducibleModulus(f"{modulus} is reducible over GF({p})")
        self.modulus = modulus

        # digits[x] = coefficient vector of code x; powers = (1, p, p^2, ...)
        codes = np.arange(self.q)
        digs = np.empty((self.q, l), dtype=np.int64)
        for i in range(l):
            digs[:, i] = codes % p
            codes = codes // p
        self._digits = digs
        self._powers = p ** np.arange(l, dtype=np.int64)

        # reduction rows: digits of x^(l+t) mod modulus, t = 0..l-2
        red = np.zeros((max(l - 1, 0), l), dtype=np.int64)
        for t in range(l - 1):
            xt = _pmod((0,) * (l + t) + (1,), modulus, p)
            red[t, :len(xt)] = xt
        self._red = red

    # -- representation & identity ------------------------------------------

    def __repr__(self):
        return f"GF({self.q})" if self.l == 1 else f"GF({self.q})[{self.spec_string()}]"

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.p, self.l, self.modulus) == (other.p, other.l, other.modulus))

    def __hash__(self):
        return hash((self.p, self.l, self.modulus))

    def spec_string(self) -> str:
        return f"{self.p}^{self.l}:" + ",".join(str(c) for c in self.modulus)

    # -- scalar/array plumbing ----------------------------------------------

    def _codes(self, x):
        a = np.asarray(x, dtype=np.int64)
        if np.any((a < 0) | (a >= self.q)):
            raise ValueError(f"element code out of range [0,{self.q})")
        return a

    @staticmethod
    def _out(a):
        return int(a) if np.ndim(a) == 0 else a

    def from_int(self, n):
        """Reduce an ordinary integer (array) into the prime subfield."""
        return self._out(np.asarray(n, dtype=np.int64) % self.p)

    # -- the encoding: dot and the tables -----------------------------------

    def dot(self, a, b) -> np.ndarray:
        """Matrix product of code arrays of shapes (m, K) and (K, n).

        The entries must already be codes in [0, q); they are not checked.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.l == 1:
            return (a @ b) % self.p
        # additive digit convolution: l^2 integer matmuls, then reduce
        l = self.l
        da = self._digits[a]            # (m, K, l)
        db = self._digits[b]            # (K, n, l)
        conv = np.zeros((a.shape[0], b.shape[1], 2 * l - 1), dtype=np.int64)
        for s in range(l):
            for t in range(l):
                conv[:, :, s + t] += da[:, :, s] @ db[:, :, t]
        low = conv[:, :, :l]
        for t in range(l - 1):
            low += conv[:, :, l + t:l + t + 1] * self._red[t]
        return (low % self.p) @ self._powers

    @staticmethod
    def _frozen(table):
        # a cached table is shared by every caller of this field
        table.setflags(write=False)
        return table

    @cached_property
    def add_table(self) -> np.ndarray:
        """Read-only int64 q x q table: add_table[x, y] = x + y."""
        d = self._digits
        return self._frozen(((d[:, None] + d[None, :]) % self.p) @ self._powers)

    @cached_property
    def neg_table(self) -> np.ndarray:
        """Read-only int64 table of length q: neg_table[x] = -x."""
        return self._frozen(((-self._digits) % self.p) @ self._powers)

    @cached_property
    def mul_table(self) -> np.ndarray:
        """Read-only int64 q x q table: mul_table[x, y] = x * y."""
        xs = np.arange(self.q, dtype=np.int64)
        return self._frozen(self.dot(xs[:, None], xs[None, :]))

    # -- arithmetic ---------------------------------------------------------

    def add(self, x, y):
        return self._out(self.add_table[self._codes(x), self._codes(y)])

    def neg(self, x):
        return self._out(self.neg_table[self._codes(x)])

    def sub(self, x, y):
        return self._out(self.add_table[self._codes(x), self.neg_table[self._codes(y)]])

    def mul(self, x, y):
        return self._out(self.mul_table[self._codes(x), self._codes(y)])

    @cached_property
    def _inv_table(self):
        table = np.zeros(self.q, dtype=np.int64)
        ii, jj = np.nonzero(self.mul_table == 1)
        table[ii] = jj
        return table

    def inv(self, x):
        a = self._codes(x)
        if np.any(a == 0):
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._out(self._inv_table[a])

    def pow(self, x, e: int):
        a = self._codes(x)
        if e < 0:
            a = self._codes(self.inv(a))
            e = -e
        result = np.ones_like(a)
        base = a
        while e:
            if e & 1:
                result = self.mul_table[result, base]
            base = self.mul_table[base, base]
            e >>= 1
        return self._out(result)

    # -- squares ------------------------------------------------------------

    @cached_property
    def _sqrt_table(self):
        # exhaustive: for each square keep the root with lexicographically
        # least coefficient tuple (primary key = coefficient of degree 0)
        order = np.lexsort(tuple(self._digits[:, i] for i in range(self.l - 1, -1, -1)))
        squares = self.mul_table[order, order]
        vals, first = np.unique(squares, return_index=True)
        table = np.full(self.q, -1, dtype=np.int64)
        table[vals] = order[first]
        return table

    def is_square(self, x) -> bool:
        a = self._codes(x)
        res = self._sqrt_table[a] >= 0
        return bool(res) if np.ndim(res) == 0 else res

    def sqrt(self, x):
        a = self._codes(x)
        r = self._sqrt_table[a]
        if np.any(r < 0):
            raise NotASquare(f"{x} is not a square in {self}")
        return self._out(r)

    # -- extension ----------------------------------------------------------

    def extend_quadratic(self) -> "Field":
        """GF(q^2) as the degree-2l field with its default modulus."""
        return Field(self.p, 2 * self.l)


def field_for_order(q: int) -> Field:
    """The default field of a given prime-power order."""
    p = 2
    while p <= q:
        if q % p == 0:
            l = 0
            m = q
            while m % p == 0:
                m //= p
                l += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return Field(p, l)
        p += 1
    raise ValueError(f"{q} is not a prime power")
