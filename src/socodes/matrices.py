"""Dense matrices over a Field: exact rank, Gram products, null space, and
the bordered builders [c*I | M | e*1] every construction theorem uses.

A GFMatrix wraps a read-only int64 ndarray of element codes plus its field.
Everything is pure: operations return new matrices.
"""

from __future__ import annotations

import numpy as np

from .fields import Field, SpecMismatch, field_for_order


def _scalar_code(field: Field, x) -> int:
    x = int(x)
    if not 0 <= x < field.q:
        raise ValueError(f"scalar code {x} out of range for {field}")
    return x


class GFMatrix:

    def __init__(self, field: Field, entries):
        a = np.array(entries, dtype=np.int64)
        if a.ndim != 2:
            a = a.reshape(a.shape[0], -1) if a.size else a.reshape(0, 0)
        if a.size and (a.min() < 0 or a.max() >= field.q):
            raise ValueError(f"entries outside [0,{field.q})")
        a.setflags(write=False)
        self.field = field
        self.a = a

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, field: Field, n: int, scale=1) -> "GFMatrix":
        return cls(field, np.eye(n, dtype=np.int64) * _scalar_code(field, scale))

    @classmethod
    def from_int(cls, field: Field, entries) -> "GFMatrix":
        """Lift an ordinary integer matrix into the prime subfield (mod p)."""
        a = np.array(entries, dtype=np.int64) % field.p
        return cls(field, a)

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

    def transpose(self) -> "GFMatrix":
        return GFMatrix(self.field, self.a.T)

    def is_zero(self) -> bool:
        return not self.a.any()

    # -- products -----------------------------------------------------------

    def __matmul__(self, other: "GFMatrix") -> "GFMatrix":
        if self.field != other.field:
            raise SpecMismatch("matrices over different fields")
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        return GFMatrix(self.field, self.field.dot(self.a, other.a))

    def gram(self) -> "GFMatrix":
        """M M^T: entry (i,j) is the standard inner product of rows i and j."""
        return self @ self.transpose()

    # -- elimination --------------------------------------------------------

    def rref(self):
        """Reduced row echelon form and its pivot columns.

        The RREF is the canonical basis of the row space: equal row spaces
        give byte-identical results.
        """
        F = self.field
        R = self.a.copy()
        pivots = []
        r = 0
        for c in range(self.cols):
            if r == self.rows:
                break
            nzrows = np.nonzero(R[r:, c])[0]
            if nzrows.size == 0:
                continue
            pr = r + int(nzrows[0])
            if pr != r:
                R[[r, pr]] = R[[pr, r]]
            R[r] = F.mul(R[r], np.int64(F.inv(int(R[r, c]))))
            col = R[:, c].copy()
            col[r] = 0
            rows_to_clear = np.nonzero(col)[0]
            if rows_to_clear.size:
                R[rows_to_clear] = F.sub(R[rows_to_clear],
                                         F.mul(col[rows_to_clear, None], R[r][None, :]))
            pivots.append(c)
            r += 1
        return GFMatrix(F, R[:r]), tuple(pivots)

    def rank(self) -> int:
        return self.rref()[0].rows

    def row_space_equals(self, other: "GFMatrix") -> bool:
        return self.rref()[0] == other.rref()[0]

    def null_space(self) -> "GFMatrix":
        """Rows form a basis of {x : M x = 0}; row count = cols - rank."""
        F = self.field
        R, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in set(pivots)]
        basis = np.zeros((len(free), self.cols), dtype=np.int64)
        for i, fc in enumerate(free):
            basis[i, fc] = 1
            for prow, pc in enumerate(pivots):
                basis[i, pc] = F.neg(int(R.a[prow, fc]))
        return GFMatrix(F, basis)

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        """Header "rows cols q", then one line of integer codes per row.

        Readers reconstruct the field as the default field of order q, which
        matches every field this package constructs by default.
        """
        lines = [f"{self.rows} {self.cols} {self.field.q}"]
        for row in self.a:
            lines.append(" ".join(str(int(x)) for x in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, field: Field | None = None) -> "GFMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
        if not lines:
            raise ValueError("empty matrix text")
        rows, cols, q = (int(t) for t in lines[0].split())
        if field is None:
            field = field_for_order(q)
        elif field.q != q:
            raise ValueError(f"matrix is over GF({q}), not {field}")
        data = [[int(t) for t in ln.split()] for ln in lines[1:]]
        if len(data) != rows or any(len(row) != cols for row in data):
            raise ValueError(f"expected {rows} rows of {cols} entries")
        a = np.array(data, dtype=np.int64).reshape(rows, cols)
        return cls(field, a)


def bordered(M: GFMatrix, left=None, right=None) -> GFMatrix:
    """[left*I_b | M | right*1], omitting absent parts; b = rows of M."""
    parts = []
    if left is not None:
        parts.append(GFMatrix.identity(M.field, M.rows, scale=left).a)
    parts.append(M.a)
    if right is not None:
        code = _scalar_code(M.field, right)
        parts.append(np.full((M.rows, 1), code, dtype=np.int64))
    return GFMatrix(M.field, np.hstack(parts))
