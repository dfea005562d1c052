"""Dense square matrices over the exact scalar ring.

Small fixed-size generator matrices (2x2 through 5x5) with exact entries, so
structure constants and contraction limits are computed without floats.
"""

from __future__ import annotations

from numbers import Rational
from typing import Sequence

import numpy as np

from .scalars import ExactScalar, ONE, ZERO


class ExactMatrix:
    """Immutable n x n matrix with ExactScalar entries."""

    __slots__ = ("rows", "n")

    def __init__(self, rows: Sequence[Sequence]):
        body = tuple(tuple(ExactScalar.coerce(x) for x in row) for row in rows)
        n = len(body)
        if n == 0 or any(len(row) != n for row in body):
            raise ValueError("matrix must be square and non-empty")
        object.__setattr__(self, "rows", body)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix([[ONE if i == j else ZERO for j in range(n)]
                            for i in range(n)])

    @staticmethod
    def diag(values: Sequence) -> "ExactMatrix":
        vals = [ExactScalar.coerce(v) for v in values]
        n = len(vals)
        return ExactMatrix([[vals[i] if i == j else ZERO for j in range(n)]
                            for i in range(n)])

    @staticmethod
    def from_entries(n: int, entries: dict) -> "ExactMatrix":
        """Sparse constructor: {(i, j): value} with 0-based indices."""
        rows = [[ZERO] * n for _ in range(n)]
        for (i, j), v in entries.items():
            rows[i][j] = ExactScalar.coerce(v)
        return ExactMatrix(rows)

    # -- access ------------------------------------------------------------

    def __getitem__(self, idx) -> ExactScalar:
        i, j = idx
        return self.rows[i][j]

    def entries(self):
        """Row-major iterator of all entries."""
        for row in self.rows:
            yield from row

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "ExactMatrix"):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._check(other)
        return ExactMatrix([[a + b for a, b in zip(ra, rb)]
                            for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._check(other)
        return ExactMatrix([[a - b for a, b in zip(ra, rb)]
                            for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return ExactMatrix([[-a for a in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, (ExactScalar, int, Rational)):
            s = ExactScalar.coerce(other)
            return ExactMatrix([[a * s for a in row] for row in self.rows])
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._check(other)
        n = self.n
        cols = list(zip(*other.rows))
        out = []
        for row in self.rows:
            out_row = []
            for col in cols:
                acc = ZERO
                for a, b in zip(row, col):
                    if a and b:
                        acc = acc + a * b
                out_row.append(acc)
            out.append(out_row)
        return ExactMatrix(out)

    def commutator(self, other: "ExactMatrix") -> "ExactMatrix":
        return self @ other - other @ self

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(list(zip(*self.rows)))

    def conj(self) -> "ExactMatrix":
        return ExactMatrix([[a.conjugate() for a in row] for row in self.rows])

    def adjoint(self) -> "ExactMatrix":
        return self.transpose().conj()

    def trace(self) -> ExactScalar:
        acc = ZERO
        for i in range(self.n):
            acc = acc + self.rows[i][i]
        return acc

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.entries())

    def submatrix(self, indices: Sequence[int]) -> "ExactMatrix":
        """Principal submatrix on the given 0-based index set (order kept)."""
        idx = list(indices)
        return ExactMatrix([[self.rows[i][j] for j in idx] for i in idx])

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    # -- conversions ---------------------------------------------------------

    def to_numpy(self) -> np.ndarray:
        return np.array([[a.to_complex() for a in row] for row in self.rows],
                        dtype=complex)

    def render(self) -> str:
        """Aligned text rendering with exact entries."""
        cells = [[str(a) for a in row] for row in self.rows]
        widths = [max(len(cells[i][j]) for i in range(self.n))
                  for j in range(self.n)]
        lines = []
        for row in cells:
            lines.append("[ " + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + " ]")
        return "\n".join(lines)

    def __repr__(self):
        return f"ExactMatrix({self.n}x{self.n})"


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product; used to assemble 4x4 generators from 2x2 blocks."""
    n = a.n * b.n
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(a.n):
        for j in range(a.n):
            s = a[i, j]
            if s.is_zero():
                continue
            for k in range(b.n):
                for l in range(b.n):
                    rows[i * b.n + k][j * b.n + l] = s * b[k, l]
    return ExactMatrix(rows)
