"""Square matrices over the exact scalar ring, stored sparsely.

Small fixed-size generator matrices (2x2 through 5x5) with exact entries, so
structure constants and contraction limits are computed without floats.  A
matrix keeps only its nonzero entries, as a dict {(i, j): ExactScalar} in
row-major order; arithmetic visits those entries only, and the dense views
(`rows`, indexing) fill in zeros.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .opalg import check_integer_fields
from .scalars import ExactScalar, ONE, ZERO
from .sparse import SparseExact

if TYPE_CHECKING:
    import numpy as np


class ExactMatrix(SparseExact):
    """Immutable n x n matrix with ExactScalar entries."""

    __slots__ = ()
    n = SparseExact.dim

    def __init__(self, rows: Sequence[Sequence]):
        body = tuple(tuple(ExactScalar.coerce(x) for x in row) for row in rows)
        n = len(body)
        if n == 0 or any(len(row) != n for row in body):
            raise ValueError("matrix must be square and non-empty")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "_nonzero", {(i, j): a for i, row in enumerate(body)
                                              for j, a in enumerate(row) if a})

    @classmethod
    def _of(cls, n: int, nonzero: dict) -> "ExactMatrix":
        """Internal result: `nonzero` maps (i, j) in range to ExactScalar; its
        keys are put in row-major order and its zero values dropped."""
        return super()._of(n, {k: nonzero[k] for k in sorted(nonzero)})

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        check_integer_fields(n=n)
        return ExactMatrix.diag([ONE] * n)

    @staticmethod
    def diag(values: Sequence) -> "ExactMatrix":
        vals = list(values)
        return ExactMatrix.from_entries(len(vals), {(i, i): v for i, v in enumerate(vals)})

    @staticmethod
    def from_entries(n: int, entries: dict) -> "ExactMatrix":
        """Sparse constructor: {(i, j): value} with 0-based indices."""
        check_integer_fields(n=n)
        if n < 1:
            raise ValueError("matrix must be square and non-empty")
        at = range(n)
        return ExactMatrix._of(n, {(at[i], at[j]): ExactScalar.coerce(v)
                                   for (i, j), v in entries.items()})

    # -- access ------------------------------------------------------------

    @property
    def rows(self) -> tuple:
        """Dense rows: n tuples of n entries."""
        at, n = self._nonzero, self.n
        return tuple(tuple(at.get((i, j), ZERO) for j in range(n)) for i in range(n))

    def __getitem__(self, idx) -> ExactScalar:
        at = range(self.n)     # IndexError and negative indices as for a sequence
        return self._nonzero.get((at[idx[0]], at[idx[1]]), ZERO)

    # -- arithmetic ----------------------------------------------------------
    # (sums, differences, negation, scalar multiples, equality and hash come
    # from SparseExact)

    def _product_terms(self, other: "ExactMatrix"):
        """((i, j), a * b) for every nonzero term of self @ other, in the
        row-major order of self; the right operand's entries are grouped by
        row once per product."""
        by_row: dict = {}
        for (k, j), b in other._nonzero.items():
            by_row.setdefault(k, []).append((j, b))
        for (i, k), a in self._nonzero.items():
            for j, b in by_row.get(k, ()):
                yield (i, j), a * b

    def __matmul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._check(other)
        out: dict = {}
        for at, p in self._product_terms(other):
            out[at] = out[at] + p if at in out else p
        return ExactMatrix._of(self.n, out)

    def commutator(self, other: "ExactMatrix") -> "ExactMatrix":
        """self @ other - other @ self, summed in one map and ordered once."""
        self._check(other)
        out: dict = {}
        for at, p in self._product_terms(other):
            out[at] = out[at] + p if at in out else p
        for at, p in other._product_terms(self):
            out[at] = out[at] - p if at in out else -p
        return ExactMatrix._of(self.n, out)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._of(self.n, {(j, i): a for (i, j), a in self._nonzero.items()})

    def submatrix(self, indices: Sequence[int]) -> "ExactMatrix":
        """Principal submatrix on the given 0-based index set (order kept)."""
        idx = list(indices)
        return ExactMatrix.from_entries(len(idx), {(r, c): self[i, j]
                                                   for r, i in enumerate(idx)
                                                   for c, j in enumerate(idx)})

    # -- conversions ---------------------------------------------------------

    def to_numpy(self) -> np.ndarray:
        import numpy as np      # the exact modules load without numpy
        out = np.zeros((self.n, self.n), dtype=complex)
        for k, a in self._nonzero.items():
            out[k] = a.to_complex()
        return out

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
    return ExactMatrix._of(a.n * b.n, {(i * b.n + k, j * b.n + l): s * t
                                       for (i, j), s in a._nonzero.items()
                                       for (k, l), t in b._nonzero.items()})
