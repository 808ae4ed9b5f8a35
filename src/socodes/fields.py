"""Exact arithmetic in GF(p^l), quadratic residues, canonical square roots,
and quadratic field extensions.

A field is fixed by its order: ``Field(p, l)`` always reduces modulo
``default_modulus(p, l)``, so GF(q) has exactly one representation and the
order q alone names it (as in the ``rows cols q`` header of a matrix file).
Elements are stored as integer codes in [0, q): the element with polynomial
coefficients (c_0, ..., c_{l-1}) (ascending degree) has code sum c_i * p^i.
All Field operations accept plain ints or numpy arrays of codes and
broadcast; scalar in, scalar out.

Only ``Field`` knows this encoding. Within it, ``Field.dot`` is the only
matrix-product kernel, one or more float64 (BLAS) matmuls. Over GF(p) it
multiplies the codes and reduces the exact integer sums mod p (the method
of Dumas, Gautier and Pernet, "Finite field linear algebra subroutines",
ISSAC 2002). For l >= 2 it uses Kronecker substitution (Dumas, Fousse and
Salvy, "Simultaneous modular reduction and Kronecker substitution for small
finite fields", J. Symbolic Comput. 46, 2011): a group of s digits
d_0..d_{s-1} of a code packs into the one float sum d_j * 2^(e*j), so one
product of packed floats holds the 2s - 1 coefficient sums of a product of
polynomials in separate e-bit fields. They are unpacked with int64 shifts
and masks, x^l .. x^(2l-2) are folded back with the modulus, and the
digits are reduced mod p. Over an inner dimension K each field is at most
K*s*(p - 1)^2, so e is its bit length, and the packed sums stay exact while
(2s - 1)*e <= 53. ``dot`` takes the widest such s <= l and makes one
product per pair of digit groups; s = 1 needs only K*(p - 1)^2 < 2^53,
which ``dot`` checks before it converts anything, and every matrix under
``matrices.COLS_CAP`` and ``ORDER_CAP`` stays below 2^49. Elimination's
``_sub_mul`` subtracts base-p digits (integers mod p when l = 1), and the
lexicographic order of canonical square roots reads digits. Products and
inverses are index arithmetic on the standard logarithm tables (Lidl and
Niederreiter, *Finite Fields*, 1997): exp[i] = g^i for a primitive element
g and its inverse log, read-only and of length O(q), built once per field.
No operation allocates anything of size q^2, nor an l x l matrix for each
of the q elements. ``matrices`` and ``analysis`` call ``dot`` and the element
operations and never see a digit or a table.

Large int64 arrays are reduced mod p by ``_mod``: a floor division, a
product and a difference, in place of numpy's ``%`` by a scalar, since
numpy divides by an invariant integer as Granlund and Montgomery (PLDI
1994) describe; like Python's ``%``, it is exact for negative values.

The public element operations check that every code they are given lies in
[0, q). Row elimination (``GFMatrix.rref``) runs on two private kernels
instead, ``_scale`` (x*c) and ``_sub_mul`` (x - c*y), which read the same
tables without that check: a ``GFMatrix`` has validated its codes once, and
the kernels only ever produce codes.

The canonical square root and the default modulus are both defined by
lexicographic order on ascending-degree coefficient tuples, which keeps every
downstream generator matrix byte-reproducible.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import product

import numpy as np

from .records import _integers


class NotPrime(ValueError):
    pass


class NotASquare(ArithmeticError):
    pass


class SpecMismatch(ValueError):
    """Raised when matrices over different fields are mixed."""


# the largest field order: above every shipped field (61^2 = 3721) and the
# square of every prime up to 127; each field under it builds in under 0.2 s
ORDER_CAP = 2 ** 14


def _least_prime_factor(n: int) -> int:
    """Least prime factor of n >= 2, by trial division up to sqrt(n)."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


# ---------------------------------------------------------------------------
# dense polynomial helpers over GF(p), coefficients ascending, used only at
# field-construction time (modulus scan and irreducibility)
# ---------------------------------------------------------------------------

def _ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


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


def _is_irreducible(coeffs, p) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    coeffs = _ptrim(coeffs)
    deg = len(coeffs) - 1
    if deg <= 0:
        return False
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            if not _pmod(coeffs, tail + (1,), p):
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


def _packing(K: int, l: int, p: int) -> tuple:
    """(s, e): the widest digit group s <= l whose packed product sums,
    2s - 1 fields of e = bitlen(K*s*(p - 1)^2) bits, fit float64's 53; s = 1
    fits whenever K*(p - 1)^2 < 2^53."""
    s = l
    while True:
        e = max(1, (K * s * (p - 1) ** 2).bit_length())
        if s == 1 or (2 * s - 1) * e <= 53:
            return s, e
        s -= 1


def _mod(a: np.ndarray, p: int) -> np.ndarray:
    """a mod p in [0, p) for an int64 array a of at least one dimension, as
    a new array. The product floor(a/p)*p may wrap past int64, but the
    difference wraps back to the exact remainder."""
    r = a // p
    r *= p
    return np.subtract(a, r, out=r)


def _is_transpose(a, b) -> bool:
    """Whether the array b is a view of the array a transposed: the same
    data, shape and strides reversed."""
    return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            and a.dtype == b.dtype and b.shape == a.shape[::-1]
            and b.strides == a.strides[::-1]
            and b.__array_interface__["data"][0] == a.__array_interface__["data"][0])


class Field:
    """GF(p^l), reduced modulo ``default_modulus(p, l)``.

    Operations are vectorized: ints or integer ndarrays of element codes in,
    same shape out.
    """

    def __init__(self, p: int, l: int = 1):
        if p < 2 or _least_prime_factor(p) != p:
            raise NotPrime(f"p={p} is not prime")
        if l < 1:
            raise ValueError(f"l={l} must be >= 1")
        self.p = p
        self.l = l
        self.q = p ** l
        self.modulus = default_modulus(p, l)

        # digits[x] = coefficient vector of code x; powers = (1, p, p^2, ...)
        codes = np.arange(self.q, dtype=np.int64)
        self._powers = p ** np.arange(l, dtype=np.int64)
        self._digits = (codes[:, None] // self._powers) % p
        # x^l = fold . (1, x, ..., x^(l-1)); dot reads it, and the
        # primitive-element search below calls dot
        self._fold = np.negative(np.array(self.modulus[:l], dtype=np.int64)) % p

        # exp[i] = g^i for a primitive element g, doubled so that
        # log[x] + log[y] needs no reduction mod q - 1; log[0] = 2(q - 1)
        # points every product with 0 into the zero padding. The codes
        # below p are GF(p), whose orders divide p - 1, so for l > 1 the
        # search starts at p.
        for g in range(p if l > 1 else 1, self.q):
            times_g = self.dot(codes[:, None], np.array([[g]])).ravel().tolist()
            walk = [1]
            x = times_g[1]
            while x != 1:     # a walk that closes early is not primitive
                walk.append(x)
                x = times_g[x]
            if len(walk) == self.q - 1:
                break
        exp = np.zeros(4 * self.q - 3, dtype=np.int64)
        exp[:2 * (self.q - 1)] = walk * 2
        log = np.full(self.q, 2 * (self.q - 1), dtype=np.int64)
        log[walk] = np.arange(self.q - 1)
        exp.setflags(write=False)
        log.setflags(write=False)
        self._exp, self._log = exp, log

    # -- representation & identity ------------------------------------------

    def __repr__(self):
        return f"GF({self.q})"

    def __eq__(self, other):
        return isinstance(other, Field) and (self.p, self.l) == (other.p, other.l)

    def __hash__(self):
        return hash((self.p, self.l))

    # -- scalar/array plumbing ----------------------------------------------

    def _codes(self, x):
        if type(x) is int:     # no array round trip; a bool would index as a mask
            if not 0 <= x < self.q:
                raise ValueError(f"element code out of range [0,{self.q})")
            return x
        a = _integers(np.asarray(x), "element codes")
        # read unsigned, a negative code is at least 2^63: one max checks both ends
        if a.size and a.view(np.uint64).max() >= self.q:
            raise ValueError(f"element code out of range [0,{self.q})")
        return a

    @staticmethod
    def _out(a):
        return int(a) if np.ndim(a) == 0 else a

    def from_int(self, n):
        """Reduce an ordinary integer (array) into the prime subfield."""
        a = _integers(np.asarray(n), "integers to lift")
        return int(a) % self.p if a.ndim == 0 else _mod(a, self.p)

    # -- the encoding: dot --------------------------------------------------

    def dot(self, a, b) -> np.ndarray:
        """Matrix product of code arrays of shapes (m, K) and (K, n), as int64.
        When b is a view of a transposed (a Gram product, ``GFMatrix.gram``),
        a is converted once and read both ways.

        The entries must already be codes in [0, q); they are not checked.
        Every coefficient of an entry is a sum of at most K*l products of
        digits, each at most (p - 1)^2. Over GF(p) one float64 matmul holds
        the exact sums; for l >= 2 each matmul multiplies packed digit
        groups (see the module docstring). Past K*(p - 1)^2 >= 2^53 this
        raises AssertionError before it converts anything.
        """
        (m, K), n, p, l = np.shape(a), np.shape(b)[1], self.p, self.l
        if K * (p - 1) ** 2 >= 2 ** 53:
            raise AssertionError(f"sums of {K} products over GF({p}) "
                                 "are not exact in float64")
        gram = _is_transpose(a, b)
        if l == 1:
            # the sums are exact integers: reduce them as int64, many times
            # faster than float fmod on large values
            fa = np.asarray(a, dtype=np.float64)
            fb = fa.T if gram else np.asarray(b, dtype=np.float64)
            return _mod((fa @ fb).astype(np.int64), p)
        s, e = _packing(K, l, p)
        # pack[g][x]: digits g*s .. g*s + s - 1 of code x, 2^e apart
        weights = 2.0 ** (e * np.arange(s))
        pack = [self._digits[:, j:j + s] @ weights[:min(s, l - j)]
                for j in range(0, l, s)]
        A = [t[a] for t in pack]
        B = [Ag.T for Ag in A] if gram else [t[b] for t in pack]
        shifts = e * np.arange(2 * s - 1)[:, None, None]
        mask = (1 << e) - 1
        if len(pack) == 1:
            # every product the constructions make; it needs no zeroed
            # buffer, whose first touch costs more than the matmul at 331^3
            c = (A[0] @ B[0]).astype(np.int64) >> shifts & mask
        else:
            # c[t] sums the coefficients of x^t; a short last group leaves
            # the top of c zero
            c = np.zeros((2 * len(pack) * s - 1, m, n), dtype=np.int64)
            for g, Ag in enumerate(A):
                for h, Bh in enumerate(B):
                    v = (Ag @ Bh).astype(np.int64)
                    c[(g + h) * s:(g + h + 2) * s - 1] += v >> shifts & mask
        for t in range(len(c) - 1, l - 1, -1):
            c[t - l:t] += self._fold[:, None, None] * (c[t] % p)
        out = c[l - 1] % p
        for t in range(l - 2, -1, -1):
            out *= p
            out += c[t] % p
        return out

    # -- arithmetic ---------------------------------------------------------

    def mul(self, x, y):
        return self._out(self._scale(self._codes(x), self._codes(y)))

    def inv(self, x):
        a = self._codes(x)
        if np.any(a == 0):
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._out(self._exp[self.q - 1 - self._log[a]])

    # -- elimination kernels: on codes the caller has already checked --------

    def _scale(self, x, c):
        """x * c for code arrays (or ints) x and c, broadcast; unchecked."""
        return self._exp[self._log[x] + self._log[c]]

    def _sub_mul(self, x, c, y):
        """x - c*y for code arrays x, c and y, broadcast; unchecked. Over
        GF(p) every term is below p^2 < 2^28, so int64 holds it."""
        if self.l == 1:
            return (x - c * y) % self.p
        return ((self._digits[x] - self._digits[self._scale(c, y)]) % self.p) @ self._powers

    # -- squares ------------------------------------------------------------

    @cached_property
    def _sqrt_table(self):
        # exhaustive: for each square keep the root with lexicographically
        # least coefficient tuple (primary key = coefficient of degree 0)
        order = np.lexsort(tuple(self._digits[:, i] for i in range(self.l - 1, -1, -1)))
        squares = self.mul(order, order)
        first = np.full(self.q, self.q)
        np.minimum.at(first, squares, np.arange(self.q))
        found = first < self.q
        table = np.full(self.q, -1, dtype=np.int64)
        table[found] = order[first[found]]
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
        """GF(q^2), the degree-2l field."""
        return field_for_order(self.q ** 2)


def prime_power(q: int) -> tuple:
    """(p, l) with q = p^l, for a prime power q up to ORDER_CAP."""
    if q > ORDER_CAP:
        raise ValueError(f"field order {q} exceeds {ORDER_CAP}")
    if q >= 2:
        p, l = _least_prime_factor(q), 1
        while p ** l < q:
            l += 1
        if p ** l == q:
            return p, l
    raise ValueError(f"{q} is not a prime power")


def field_for_order(q: int) -> Field:
    """GF(q) for a prime power q up to ORDER_CAP, built once per order; q is
    read as an int before the cache, so every integer type finds that field."""
    return _field_of_order(_integers(q, "field order"))


@cache
def _field_of_order(q: int) -> Field:
    return Field(*prime_power(q))
