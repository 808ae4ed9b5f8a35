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
  Over GF(2) the later G_j are row-reduced on bit rows, one Python int
  each, as ``matrices`` does, with the pivot columns taken in that same
  order, so they are the same matrices.
* Enumeration. For w = 1, 2, ... every message of weight w is encoded
  against each G_j, its supports in lexicographic order, in chunks of at
  most ``_CHUNK`` codeword entries. Over GF(2) each G_j is packed 64
  columns to a little-endian uint64 word (as in Albrecht, Bard and Hart,
  "Algorithm 898", ACM TOMS 37, 2010): a chunk of words is the XOR of the
  gathered rows of its supports, weighed by popcount, and only the
  lightest word is unpacked. Over GF(q), q > 2, the messages are encoded
  with ``Field.dot``, and only those whose first nonzero coefficient is 1:
  a scalar multiple has the same weight, so there is one message per
  projective point. The first lightest word seen is kept; U is its weight.
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
from math import comb

import numpy as np

from .matrices import GFMatrix, _clear_back
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


def _pivot_rows(lead: dict, rows, mask: int) -> list:
    """Reduce each bit row by the pivot rows in lead, keyed by their lowest
    bit in mask, until its own lowest bit there is no key, and make it the
    pivot row of that bit; the rows left with no bit in mask."""
    left = []
    for x in rows:
        while (low := x & mask & -(x & mask)) in lead:
            x ^= lead[low]
        if low:
            lead[low] = x
        else:
            left.append(x)
    return left


def _information_sets_gf2(C: LinearCode):
    """``_information_sets`` over GF(2), each G_j a (k, ceil(n/64)) array
    of little-endian uint64 words, column c bit c % 64 of word c // 64.

    The later G_j are eliminated on bit rows, one Python int each, column c
    its bit c, in the column order rest + others: the rows take their
    pivots in rest by their lowest bit there, the rows with no bit left in
    rest then in the others. Clearing each pivot's bit from the rows before
    it, as ``matrices._rref_gf2`` does, gives the one RREF in that order."""
    B, pivots = C.generator.rref()
    n, k = C.n, len(pivots)
    width = 8 * -(-n // 64)   # bytes per row
    packed = np.zeros((k, width), np.uint8)
    packed[:, :-(-n // 8)] = np.packbits(B.a.astype(np.uint8), axis=1, bitorder="little")
    yield packed.view("<u8"), k
    data = packed.tobytes()
    rows = [int.from_bytes(data[i:i + width], "little") for i in range(0, k * width, width)]
    others = sum(1 << c for c in pivots)
    rest = (1 << n) - 1 - others
    while rest:
        lead = {}
        left = _pivot_rows(lead, rows, rest)
        if not (r := len(lead)):
            return
        _pivot_rows(lead, left, others)
        keys = list(lead)
        keys = sorted(keys[:r]) + sorted(keys[r:])
        rows = [lead[bit] for bit in keys]
        _clear_back(rows, keys)
        words = b"".join(x.to_bytes(width, "little") for x in rows)
        yield np.frombuffer(words, "<u8").reshape(k, -1), r
        used = sum(keys[:r])
        rest, others = rest ^ used, others | used


def _supports(k: int, w: int, per: int):
    """The w-subsets of range(k) in lexicographic order, as (m, w) int64
    arrays of at most ``per`` rows each."""
    supports, total = combinations(range(k), w), comb(k, w)
    for start in range(0, total, per):
        m = min(per, total - start)
        yield np.fromiter(chain.from_iterable(islice(supports, m)), np.int64, m * w).reshape(m, w)


def _messages(k: int, w: int, q: int, rows: int):
    """The messages of weight w whose first nonzero coefficient is 1, as
    (m, k) code arrays of at most ``rows`` messages each."""
    patterns = (q - 1) ** (w - 1)   # coefficients after the leading 1
    place = (q - 1) ** np.arange(w - 1)
    for sup in _supports(k, w, max(1, rows // patterns)):   # supports per chunk
        sup = sup[:, None, :]
        for start in range(0, patterns, rows):
            t = np.arange(start, min(patterns, start + rows))
            coef = np.ones((t.size, w), dtype=np.int64)
            coef[:, 1:] = t[:, None] // place % (q - 1) + 1
            m = np.zeros((sup.shape[0], t.size, k), dtype=np.int64)
            np.put_along_axis(m, np.broadcast_to(sup, m.shape[:2] + (w,)),
                              np.broadcast_to(coef, m.shape[:2] + (w,)), axis=2)
            yield m.reshape(-1, k)


def _divisor(P: np.ndarray) -> int:
    """4, 2 or 1: a number that the binary code of the packed basis P shows
    divides every weight."""
    weights = np.bitwise_count(P).sum(axis=1)
    if (weights % 2).any():
        return 1
    if (weights % 4).any() or (np.bitwise_count(P[:, None] & P).sum(axis=2) % 2).any():
        return 2
    return 4


def _lightest_word(C: LinearCode):
    """(d, a nonzero codeword of weight d), d the minimum weight."""
    F, k = C.field, C.k
    rows = max(1, _CHUNK // C.n)
    best, lightest = C.n + 1, None
    if F.q == 2:
        sets = _information_sets_gf2(C)

        def weigh(G, w):
            for sup in _supports(k, w, rows):
                words = G[sup[:, 0]]
                for t in range(1, w):
                    words ^= G[sup[:, t]]
                yield words, np.bitwise_count(words).sum(axis=1)
    else:
        sets = _information_sets(C)

        def weigh(G, w):
            for msgs in _messages(k, w, F.q, rows):
                words = F.dot(msgs, G)
                yield words, np.count_nonzero(words, axis=1)

    def encode(G, w):
        nonlocal best, lightest
        for words, weights in weigh(G, w):
            i = int(weights.argmin())
            if weights[i] < best:
                best, lightest = int(weights[i]), words[i]

    # G_j adds nothing to the bound before w = k - r_j, so it joins then and
    # catches up on the lighter weights; ranks never rise, so only the next
    # set can be due
    waiting, active = next(sets), []
    divisor = _divisor(waiting[0]) if F.q == 2 else 1
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
                if F.q == 2:
                    lightest = np.unpackbits(np.ascontiguousarray(lightest, "<u8").view(np.uint8),
                                             count=C.n, bitorder="little").astype(np.int64)
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
