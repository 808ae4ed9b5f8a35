"""Dense matrices over a Field: exact rank, Gram products, and the
bordered builders [c*I | M | e*1] every construction theorem uses.

A GFMatrix wraps a read-only int64 ndarray of element codes plus its field.
Products go through ``Field.dot``; element codes and integer lifts are the
field's business. A field is fixed by its order, so the ``rows cols q``
header of the text format names the field exactly. Everything is pure:
operations return new matrices.

The public constructor checks every code it is given. A matrix that a field
kernel makes, a product, a Gram matrix, an RREF, a lift ``from_int`` or a
``bordered`` generator, holds codes by construction and is wrapped by the
private ``_unchecked`` instead.

A matrix is immutable, so ``rref`` eliminates once per matrix: it keeps
its (RREF, pivots), and an RREF it returns is its own RREF. Leading
columns that are a scaled identity, the left border of every construction
over GF(q), are scaled in one vector operation; the pivot loop runs on the
field's unchecked elimination kernels, since the constructor has already
checked every code. Over GF(2), a matrix with rows left to reduce after
that prefix is eliminated on bit rows instead, each row one Python int, as
in word-packed GF(2) elimination (Albrecht, Bard and Hart, "Algorithm
898", ACM TOMS 37, 2010): one XOR adds two whole rows.
"""

from __future__ import annotations

import numpy as np

from .fields import Field, SpecMismatch, field_for_order
from .records import _integers, format_records, read_records

# the most columns a matrix file may declare, which matters when it has no
# rows: above the b + v + 1 columns of any bordered incidence matrix a
# design may have (b * max(b, v) <= designs.INCIDENCE_CAP and v <= 10^5)
COLS_CAP = 2 ** 21


def _scalar_code(field: Field, x) -> int:
    x = _integers(x, "scalar code")
    if not 0 <= x < field.q:
        raise ValueError(f"scalar code {x} out of range for {field}")
    return x


def _rows(entries) -> np.ndarray:
    """entries as a 2-D int64 array of rows; no rows at all give (0, 0)."""
    a = _integers(np.array(entries), "matrix entries")
    if a.ndim == 0:
        raise ValueError("matrix entries must be rows, not a scalar")
    if a.ndim != 2:
        a = a.reshape(a.shape[0], -1) if a.size else a.reshape(0, 0)
    return a


class GFMatrix:

    def __init__(self, field: Field, entries):
        a = _rows(entries)
        if a.size and (a.min() < 0 or a.max() >= field.q):
            raise ValueError(f"entries outside [0,{field.q})")
        self._store(field, a)

    def _store(self, field: Field, a: np.ndarray) -> None:
        a.setflags(write=False)
        self.field = field
        self.a = a
        # rref's (RREF, pivots), and the pivots of a matrix that is an RREF
        self._echelon = None
        self._pivots = None

    @classmethod
    def _unchecked(cls, field: Field, a: np.ndarray) -> "GFMatrix":
        """A matrix of the 2-D int64 codes a, which a field kernel made and
        nothing else holds: the constructor's range check is skipped."""
        M = cls.__new__(cls)
        M._store(field, a)
        return M

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_int(cls, field: Field, entries) -> "GFMatrix":
        """Lift an ordinary integer matrix into the prime subfield."""
        return cls._unchecked(field, _rows(field.from_int(entries)))

    # -- basics -------------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def __eq__(self, other):
        return (isinstance(other, GFMatrix) and self.field == other.field
                and self.a.shape == other.a.shape and np.array_equal(self.a, other.a))

    def __repr__(self):
        return f"GFMatrix({self.rows}x{self.cols} over {self.field!r})"

    def is_zero(self) -> bool:
        return not self.a.any()

    # -- products -----------------------------------------------------------

    def __matmul__(self, other: "GFMatrix") -> "GFMatrix":
        if self.field != other.field:
            raise SpecMismatch("matrices over different fields")
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        return GFMatrix._unchecked(self.field, self.field.dot(self.a, other.a))

    def gram(self) -> "GFMatrix":
        """M M^T: entry (i,j) is the standard inner product of rows i and j.
        The transpose is a view of M's checked codes, so it is not checked
        again."""
        return self @ GFMatrix._unchecked(self.field, self.a.T)

    # -- elimination --------------------------------------------------------

    def rref(self):
        """Reduced row echelon form and its pivot columns, computed once.

        The RREF is the canonical basis of the row space: equal row spaces
        give byte-identical results. A matrix keeps its (RREF, pivots), and
        the RREF it returns is marked as reduced, so its own ``rref`` returns
        itself; the mark is its pivots, not a reference to itself, so no
        matrix is part of a reference cycle.

        Leading columns 0..t-1 whose one nonzero lies on the diagonal, as
        in a generator [c*I | M | e*1], are t pivots with nothing to clear:
        their rows are scaled by the inverse diagonal at once (c = 1 leaves
        them as they are) and the loop starts at row and column t. At pivot
        (r, c) rows r.. are zero left of c, so only the columns c.. are
        updated. One boolean mask of column c per pivot gives both the
        pivot row (its first nonzero at or after r) and the rows to clear.
        The entries are codes the constructor checked, so the loop runs on
        the field's unchecked kernels. Over GF(2), where every nonzero
        factor is 1 and adding rows is XOR, a matrix with work past the
        prefix is eliminated by ``_rref_gf2`` on bit rows instead.
        """
        if self._pivots is not None:
            return self, self._pivots
        if self._echelon is not None:
            return self._echelon
        F = self.field
        m = min(self.rows, self.cols)
        diag = self.a.diagonal()
        lone = (diag != 0) & (np.count_nonzero(self.a[:, :m], axis=0) == 1)
        t = int(lone.cumprod().sum())
        if F.q == 2 and t < m:
            R, pivots = _rref_gf2(self.a)
        else:
            R, pivots, r = self.a.copy(), list(range(t)), t
            if (diag[:t] != 1).any():
                R[:t] = F._scale(R[:t], F.inv(diag[:t])[:, None])
            for c in range(t, self.cols):
                if r == self.rows:
                    break
                nonzero = R[:, c] != 0
                pr = r + int(nonzero[r:].argmax())
                if not nonzero[pr]:
                    continue
                if pr != r:
                    R[[r, pr], c:] = R[[pr, r], c:]
                # row r was zero in column c if it moved to pr, so after the
                # swap the rows to clear are the mask less row pr
                nonzero[pr] = False
                lead = int(R[r, c])
                if lead != 1:
                    R[r, c:] = F._scale(R[r, c:], F.inv(lead))
                if nonzero.any():  # a column of the identity has none to clear
                    R[nonzero, c:] = F._sub_mul(R[nonzero, c:], R[nonzero, c, None], R[r, c:])
                pivots.append(c)
                r += 1
            R = R[:r]
        E = GFMatrix._unchecked(F, R)
        E._pivots = pivots = tuple(pivots)
        self._echelon = E, pivots
        return self._echelon

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        """Header "rows cols q", then one line of integer codes per row.

        q names the field: every GF(q) here is the one ``field_for_order(q)``
        returns, so ``from_text`` reads the matrix back unchanged.
        """
        return format_records([(self.rows, self.cols, self.field.q), *self.a.tolist()])

    @classmethod
    def from_text(cls, text: str) -> "GFMatrix":
        (rows, cols, q), lines = read_records(text, "rows cols q")
        if not 0 <= cols <= COLS_CAP:
            raise ValueError(f"{cols} columns outside 0..{COLS_CAP}")
        data = [[int(t) for t in line.split()] for line in lines]
        if len(data) != rows or any(len(row) != cols for row in data):
            raise ValueError(f"expected {rows} rows of {cols} entries")
        # before numpy sees them: an int64 array cannot hold an entry past 2^63
        if any(not 0 <= x < q for row in data for x in row):
            raise ValueError(f"entries outside [0,{q})")
        return cls(field_for_order(q), np.array(data, dtype=np.int64).reshape(rows, cols))


def _rref_gf2(a: np.ndarray) -> tuple:
    """(RREF, pivot columns) of a 0/1 int64 matrix a over GF(2) with at
    least one column.

    Each row is packed into one Python int, column 0 its most significant
    bit, and inserted into a table indexed by its leading bit: it is XORed
    with the row already there until its slot is free or it is zero. Then,
    going right to left, each pivot's bit is cleared from the rows above it;
    a row is already reduced when it clears others, so no cleared bit
    returns.
    """
    rows, cols = a.shape
    width = (cols + 7) // 8
    packed = np.packbits(a.astype(np.uint8), axis=1).tobytes()
    lead = [0] * (8 * width + 1)  # lead[0] stays 0, so a zero row stops the loop
    for i in range(rows):
        x = int.from_bytes(packed[i * width:(i + 1) * width], "big")
        while y := lead[x.bit_length()]:
            x ^= y
        if x:
            lead[x.bit_length()] = x
    keys = [b for b in range(8 * width, 0, -1) if lead[b]]
    R = [lead[b] for b in keys]
    for j in range(len(R) - 1, 0, -1):
        bit, y = 1 << keys[j] - 1, R[j]
        for i in range(j):
            if R[i] & bit:
                R[i] ^= y
    out = np.frombuffer(b"".join(x.to_bytes(width, "big") for x in R), dtype=np.uint8)
    out = np.unpackbits(out.reshape(len(R), width), axis=1, count=cols)
    return out.astype(np.int64), [8 * width - b for b in keys]


def bordered(M: GFMatrix, left=None, right=None) -> GFMatrix:
    """[left*I_b | M | right*1], omitting absent parts; b = rows of M."""
    b, cols = M.rows, M.cols
    start = 0 if left is None else b
    out = np.zeros((b, start + cols + (right is not None)), dtype=np.int64)
    if left is not None:
        np.fill_diagonal(out, _scalar_code(M.field, left))
    out[:, start:start + cols] = M.a
    if right is not None:
        out[:, -1] = _scalar_code(M.field, right)
    return GFMatrix._unchecked(M.field, out)
