"""Linear-code analytics at desk scale.

A LinearCode is the row space of a generator matrix over a finite field.
``min_distance`` certifies its minimum weight by Brouwer-Zimmermann
enumeration (Zimmermann, 1996; Grassl, "Searching for linear codes with
large minimum distance", 2006). The budget still counts q^k: if q^k fits
it, the answer is Exact, else Unknown. No probabilistic shortcuts, so every
reported distance is a certificate.

* Information sets. Row-reducing the basis with the columns not yet used
  as pivots placed first, and putting the columns back in order, gives
  generator matrices G_1, G_2, ... of the same code, G_j the identity on
  its own pivot columns I_j and of rank r_j = |I_j| there. The I_j are
  disjoint and r_1 = k; the sets stop when no remaining column adds rank.
* Enumeration. For w = 1, 2, ... every message of weight w is encoded
  against each G_j with ``Field.dot``, in chunks of at most ``_CHUNK``
  codeword entries. Over GF(q), q > 2, only messages whose first nonzero
  coefficient is 1 are encoded: a scalar multiple has the same weight, so
  there is one message per projective point. The lightest word seen is
  kept; U is its weight.
* Lower bound. A word not yet seen has a message of weight above w on
  every G_j enumerated through weight w. On I_j it then has weight at
  least w + 1 - (k - r_j), because only the k - r_j rows off I_j can
  cancel there, and the I_j are disjoint, so its weight is at least
  L = sum_j max(0, w + 1 - (k - r_j)). The bound is re-read after each
  G_j, where a G_j not yet through weight w counts w in place of w + 1.
  A G_j adds nothing before w = k - r_j, so it joins the enumeration only
  then and catches up on the lighter weights; each set is formed only when
  the one before it joins. Enumeration stops when L >= U, or when G_1 has
  encoded every message at w = k.
* Parity. Over GF(2), L rounds up to an even number if every basis row
  has even weight, and up to a multiple of 4 if every row weight is 0 mod
  4 and the Gram matrix is zero (then the code is doubly even). Both are
  checked on the code, not assumed.
* Witness. Before Exact(d) is returned, the kept word is re-checked: its
  weight is d, and it equals its entries on the basis's pivot columns
  times the RREF basis, which holds exactly for the words of the row
  space. It stays on the code as ``LinearCode.witness``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, combinations, islice

import numpy as np

from .matrices import GFMatrix
from .records import SelfCheckFailed

DEFAULT_BUDGET = 2 ** 26
# codeword entries per chunk of encoded messages
_CHUNK = 1 << 16


@dataclass(frozen=True)
class Exact:
    value: int

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class LowerBound:
    value: int

    def __str__(self):
        return f"≥{self.value}"


@dataclass(frozen=True)
class Unknown:
    def __str__(self):
        return "?"


class LinearCode:
    """Row space of a generator matrix; d starts Unknown and is promoted to
    Exact by min_distance, which keeps a 1 x n codeword of weight d as the
    witness."""

    __slots__ = ("field", "generator", "d", "witness")

    def __init__(self, generator: GFMatrix):
        self.field = generator.field
        self.generator = generator
        self.d = Unknown()
        self.witness = None

    @property
    def n(self) -> int:
        return self.generator.cols

    def basis(self) -> GFMatrix:
        """Canonical (RREF) basis of the row space, which the generator
        keeps."""
        return self.generator.rref()[0]

    @property
    def k(self) -> int:
        return self.basis().rows

    def __repr__(self):
        return f"LinearCode({display(self)})"


def display(C: LinearCode) -> str:
    return f"[{C.n},{C.k},{C.d}]_{C.field.q}"


def is_self_orthogonal(C: LinearCode) -> bool:
    return C.generator.gram().is_zero()


def is_self_dual(C: LinearCode) -> bool:
    return 2 * C.k == C.n and is_self_orthogonal(C)


# ---------------------------------------------------------------------------
# Brouwer-Zimmermann enumeration


def _information_sets(C: LinearCode):
    """Yield (G_j, r_j) for disjoint information sets, ranks never rising;
    G_1 is the RREF basis. Each later G_j is the RREF of the basis with its
    columns in the order rest + others, put back in column order."""
    B, pivots = C.generator.rref()
    yield B.a, len(pivots)
    rest = sorted(set(range(C.n)) - set(pivots))
    while rest:
        order = rest + sorted(set(range(C.n)) - set(rest))
        R, piv = GFMatrix._unchecked(C.field, B.a[:, order]).rref()
        r = bisect_left(piv, len(rest))
        if r == 0:
            return
        G = np.empty_like(R.a)
        G[:, order] = R.a
        yield G, r
        used = {rest[c] for c in piv[:r]}
        rest = [c for c in rest if c not in used]


def _messages(k: int, w: int, q: int, rows: int):
    """The messages of weight w whose first nonzero coefficient is 1, as
    (m, k) code arrays of at most ``rows`` messages each."""
    patterns = (q - 1) ** (w - 1)   # coefficients after the leading 1
    place = (q - 1) ** np.arange(w - 1)
    per = max(1, rows // patterns)   # supports per chunk
    supports = combinations(range(k), w)
    while True:
        sup = np.fromiter(chain.from_iterable(islice(supports, per)), np.int64)
        if not sup.size:
            return
        sup = sup.reshape(-1, 1, w)
        for start in range(0, patterns, rows):
            t = np.arange(start, min(patterns, start + rows))
            coef = np.ones((t.size, w), dtype=np.int64)
            coef[:, 1:] = t[:, None] // place % (q - 1) + 1
            m = np.zeros((sup.shape[0], t.size, k), dtype=np.int64)
            np.put_along_axis(m, np.broadcast_to(sup, m.shape[:2] + (w,)),
                              np.broadcast_to(coef, m.shape[:2] + (w,)), axis=2)
            yield m.reshape(-1, k)


def _divisor(B: GFMatrix) -> int:
    """4, 2 or 1: a number that the code shows divides every weight."""
    if B.field.q != 2:
        return 1
    weights = np.count_nonzero(B.a, axis=1)
    if (weights % 2).any():
        return 1
    if (weights % 4).any() or not B.gram().is_zero():
        return 2
    return 4


def _lightest_word(C: LinearCode):
    """(d, a nonzero codeword of weight d), d the minimum weight."""
    F, k = C.field, C.k
    divisor = _divisor(C.basis())
    rows = max(1, _CHUNK // C.n)
    best, lightest = C.n + 1, None

    def encode(G, w):
        nonlocal best, lightest
        for msgs in _messages(k, w, F.q, rows):
            words = F.dot(msgs, G)
            weights = np.count_nonzero(words, axis=1)
            i = int(weights.argmin())
            if weights[i] < best:
                best, lightest = int(weights[i]), words[i]

    # G_j adds nothing to the bound before w = k - r_j, so it joins then and
    # catches up on the lighter weights; ranks never rise, so only the next
    # set can be due
    sets, active = _information_sets(C), []
    waiting = next(sets)
    for w in range(1, k + 1):
        while waiting is not None and k - waiting[1] <= w:
            for v in range(1, w):
                encode(waiting[0], v)
            active.append(waiting)
            waiting = next(sets, None)
        for j, (G, _) in enumerate(active):
            encode(G, w)
            bound = sum(max(0, w + (i <= j) - (k - r)) for i, (_, r) in enumerate(active))
            if -(-bound // divisor) * divisor >= best or w == k:
                return best, lightest
    raise AssertionError("unreachable: w = k visits every message")


def min_distance(C: LinearCode, budget: int = DEFAULT_BUDGET):
    """Exact minimum weight if q^k fits the budget, else Unknown. An Exact
    result keeps a re-checked codeword of that weight in C.witness."""
    if C.k == 0:
        raise ValueError("minimum distance of the zero code is undefined")
    if isinstance(C.d, Exact):
        return C.d
    if C.field.q ** C.k > budget:
        return Unknown()
    d, word = _lightest_word(C)
    if (weight := np.count_nonzero(word)) != d:
        raise SelfCheckFailed(f"witness of weight {weight} claimed as weight {d}")
    # an RREF is the identity on its pivots, so a codeword is the sum of its
    # pivot entries times the basis rows
    B, pivots = C.generator.rref()
    if not np.array_equal(word, C.field.dot(word[None, list(pivots)], B.a)[0]):
        raise SelfCheckFailed(f"witness of weight {d} is not in the row space")
    C.witness, C.d = GFMatrix(C.field, word[None, :]), Exact(d)
    return C.d
