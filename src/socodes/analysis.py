"""Linear-code analytics at desk scale.

A LinearCode is the row space of a generator matrix over a finite field.
Minimum distance and weight spectra are computed by exhaustive enumeration
under a codeword-count budget: if q^k fits the budget the answer is Exact,
beyond it Unknown. No probabilistic shortcuts, so every reported distance
is a certificate.

Both enumerations meet in the middle: the RREF basis is split into a top
and a bottom half, each half gives a table of codewords, and each pair of
rows, one from either table, is one codeword. Scalar multiples of a
codeword have the same weight, so only one nonzero codeword per projective
point, (q^k - 1)/(q - 1) in all, is visited; the budget still counts q^k:

* Over GF(2) every nonzero codeword is its own point. Codewords are packed
  into 64-bit words, the two halves are subset-XOR tables, and weights are
  vectorized popcounts of their pairwise XORs, which keeps k=28 under a few
  seconds.
* Over GF(q), q > 2, the top table holds, for each top row r_j,
  r_j + span(top rows after j): the top combinations whose leading
  coefficient is 1. The bottom table is span(bottom rows). A span holds
  the negative of each of its words, so the pairs a - b cover the same
  codewords as the pairs a + b; a - b is zero at t exactly when
  a[t] == b[t], so its weight is a count of unequal element codes, with no
  field arithmetic per pair. The words whose top part is zero are the
  leading-coefficient-1 words of the bottom span. A span grows by one
  row r per step: one call each of the field's ``mul`` and ``add`` forms
  c*r + S for all q scalars c at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import GFMatrix

DEFAULT_BUDGET = 2 ** 26
# element-code comparisons per chunk of the GF(q) pair loop (bytes of scratch)
_CHUNK = 1 << 20


class BudgetExceeded(RuntimeError):
    pass


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
    Exact by min_distance."""

    __slots__ = ("field", "generator", "d", "_basis")

    def __init__(self, generator: GFMatrix):
        self.field = generator.field
        self.generator = generator
        self.d = Unknown()
        self._basis = None

    @property
    def n(self) -> int:
        return self.generator.cols

    def basis(self) -> GFMatrix:
        """Canonical (RREF) basis of the row space."""
        if self._basis is None:
            self._basis = self.generator.rref()[0]
        return self._basis

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
# exhaustive enumeration


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack 0/1 rows into uint64 words (bit order irrelevant to popcounts)."""
    k, n = bits.shape
    words = max(1, (n + 63) // 64)
    padded = np.zeros((k, words * 64), dtype=np.uint8)
    padded[:, :n] = bits.astype(np.uint8)
    return np.packbits(padded, axis=1).view(np.uint64)


def _subset_xor_table(rows: np.ndarray) -> np.ndarray:
    table = np.zeros((1, rows.shape[1]), dtype=np.uint64)
    for r in rows:
        table = np.vstack([table, table ^ r])
    return table


def _gf2_halves(basis: GFMatrix):
    packed = _pack_rows(basis.a)
    k1 = basis.rows // 2
    return _subset_xor_table(packed[:k1]), _subset_xor_table(packed[k1:])


def _leading_one(F, rows: np.ndarray):
    """(P, S): S = span(rows), and P holds the words of S whose first
    nonzero coefficient is 1, one per projective point of S."""
    dtype = np.min_scalar_type(F.q - 1)
    scalars = np.arange(F.q)[:, None, None]
    S = np.zeros((1, rows.shape[1]), dtype=dtype)
    points = [S[:0]]
    for r in rows[::-1]:
        sums = F.add(F.mul(scalars, r), S).astype(dtype)  # sums[c] = c*r + S
        points.append(sums[1])
        S = sums.reshape(-1, rows.shape[1])
    return np.concatenate(points), S


def _point_weights(C: LinearCode):
    """Yield weight vectors that together cover one nonzero codeword of
    each projective point of C exactly once."""
    basis = C.basis()
    if C.field.q == 2:
        A, B = _gf2_halves(basis)
        for i in range(A.shape[0]):
            w = np.bitwise_count(A[i] ^ B).sum(axis=1, dtype=np.int64)
            yield w[1:] if i == 0 else w  # A[0] ^ B[0] is the zero word
        return
    top = (basis.rows + 1) // 2
    A, _ = _leading_one(C.field, basis.a[:top])
    bottom_points, B = _leading_one(C.field, basis.a[top:])
    yield np.count_nonzero(bottom_points, axis=1)
    step = max(1, _CHUNK // B.size)
    for i in range(0, A.shape[0], step):
        yield np.count_nonzero(A[i:i + step, None, :] != B, axis=2).ravel()


def min_distance(C: LinearCode, budget: int = DEFAULT_BUDGET):
    """Exact minimum weight if q^k fits the budget, else Unknown."""
    if C.k == 0:
        raise ValueError("minimum distance of the zero code is undefined")
    if isinstance(C.d, Exact):
        return C.d
    if C.field.q ** C.k > budget:
        return Unknown()
    C.d = Exact(min(int(w.min()) for w in _point_weights(C) if w.size))
    return C.d


def weight_distribution(C: LinearCode, budget: int = DEFAULT_BUDGET) -> dict:
    """Full weight spectrum {weight: count}; counts sum to q^k."""
    if C.field.q ** C.k > budget:
        raise BudgetExceeded(
            f"q^k = {C.field.q}^{C.k} exceeds budget {budget}")
    if C.k == 0:
        return {0: 1}
    hist = np.zeros(C.n + 1, dtype=np.int64)
    for w in _point_weights(C):
        hist += np.bincount(w, minlength=C.n + 1)
    hist *= C.field.q - 1  # the nonzero multiples of each point
    hist[0] = 1
    return {int(i): int(c) for i, c in enumerate(hist) if c}
