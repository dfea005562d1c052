"""ExactMatrix arithmetic against references built entry by entry through the
public, coercing constructor."""

import re
from fractions import Fraction
from numbers import Rational
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ladderlie.matrices import ExactMatrix, kron
from ladderlie.scalars import ExactScalar, ONE, ZERO
from test_opalg import _exprs, assert_sparse_contract

_entries = st.one_of(
    st.integers(-3, 3),
    st.builds(lambda a, b, c, d: ExactScalar(Fraction(a, 2), b, c, d),
              *[st.integers(-2, 2)] * 4))


@st.composite
def _pairs(draw):
    n = draw(st.integers(1, 4))
    square = st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n)
    return ExactMatrix(draw(square)), ExactMatrix(draw(square))


def _reference(n, entry):
    return ExactMatrix([[entry(i, j) for j in range(n)] for i in range(n)])


def _product(x, y, i, j):
    return sum((x[i, k] * y[k, j] for k in range(x.n)), ZERO)


def _same(got, want, other):
    """`got` equals `want`, has its views' types and keeps the rules it shares
    with `other`, an operator expression."""
    assert got == want and hash(got) == hash(want)
    assert_sparse_contract(got, other)
    assert type(got.rows) is tuple and got.n == want.n
    assert all(type(row) is tuple and all(type(a) is ExactScalar for a in row)
               for row in got.rows)


@settings(max_examples=80, deadline=None)
@given(pair=_pairs(), s=_entries, op=_exprs)
def test_results_equal_the_coerced_reference(pair, s, op):
    x, y = pair
    n = x.n
    _same(x @ y, _reference(n, lambda i, j: _product(x, y, i, j)), op)
    _same(x.commutator(y), _reference(
        n, lambda i, j: _product(x, y, i, j) - _product(y, x, i, j)), op)
    _same(x + y, _reference(n, lambda i, j: x[i, j] + y[i, j]), op)
    _same(x - y, _reference(n, lambda i, j: x[i, j] - y[i, j]), op)
    _same(-x, _reference(n, lambda i, j: -x[i, j]), op)
    _same(x * s, _reference(n, lambda i, j: x[i, j] * s), op)
    _same(x.transpose(), _reference(n, lambda i, j: x[j, i]), op)
    # the adjoint is one comprehension over the transpose's rows
    _same(ExactMatrix([[a.conjugate() for a in row] for row in x.transpose().rows]),
          _reference(n, lambda i, j: x[j, i].conjugate()), op)
    # `@` takes matrices only: a scalar operand gets NotImplemented, so TypeError
    with pytest.raises(TypeError):
        x @ s


def dense_matmul(x, y):
    """Reference product: every entry pair tested, sums in ascending k."""
    cols = list(zip(*y.rows))
    out = []
    for row in x.rows:
        out_row = []
        for col in cols:
            acc = ZERO
            for a, b in zip(row, col):
                if a and b:
                    acc = acc + a * b
            out_row.append(acc)
        out.append(out_row)
    return ExactMatrix(out)


# mostly zeros, as the generator matrices are, and entries with several
# components, such as 1/2 + sqrt2 and i*sqrt2/3
_sparse_entries = st.one_of(
    st.just(ZERO), st.just(ZERO), st.just(ZERO),
    st.builds(lambda a, b, c, d: ExactScalar(Fraction(a, 2), b, Fraction(c, 3), d),
              *[st.integers(-2, 2)] * 4),
    st.sampled_from([ExactScalar(Fraction(1, 2), 1),
                     ExactScalar(0, 0, 0, Fraction(1, 3))]))


@st.composite
def _sparse_pairs(draw):
    n = draw(st.integers(2, 5))
    square = st.lists(st.lists(_sparse_entries, min_size=n, max_size=n),
                      min_size=n, max_size=n)
    return ExactMatrix(draw(square)), ExactMatrix(draw(square))


@settings(max_examples=150, deadline=None)
@given(pair=_sparse_pairs(), op=_exprs)
def test_product_equals_the_dense_loop_on_zero_heavy_matrices(pair, op):
    x, y = pair
    _same(x @ y, dense_matmul(x, y), op)
    _same(y @ x, dense_matmul(y, x), op)
    _same(x.commutator(y), dense_matmul(x, y) - dense_matmul(y, x), op)
    # the one-pass commutator stores what the two products and their difference store
    got, want = x.commutator(y), x @ y - y @ x
    assert list(got._nonzero.items()) == list(want._nonzero.items())


# ---------------------------------------------------------------------------
# the dense layout, every entry stored, kept as the oracle of the sparse one
# ---------------------------------------------------------------------------


class DenseMatrix:
    """The dense ExactMatrix: every entry stored, as n rows of n."""

    __slots__ = ("rows", "n")

    def __init__(self, rows: Sequence[Sequence]):
        body = tuple(tuple(ExactScalar.coerce(x) for x in row) for row in rows)
        n = len(body)
        if n == 0 or any(len(row) != n for row in body):
            raise ValueError("matrix must be square and non-empty")
        object.__setattr__(self, "rows", body)
        object.__setattr__(self, "n", n)

    @classmethod
    def _of(cls, rows) -> "DenseMatrix":
        """Internal result: square rows of ExactScalar entries, kept as they are."""
        out = object.__new__(cls)
        object.__setattr__(out, "rows", tuple(map(tuple, rows)))
        object.__setattr__(out, "n", len(out.rows))
        return out

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "DenseMatrix":
        return DenseMatrix([[ONE if i == j else ZERO for j in range(n)]
                            for i in range(n)])

    @staticmethod
    def diag(values: Sequence) -> "DenseMatrix":
        vals = [ExactScalar.coerce(v) for v in values]
        n = len(vals)
        return DenseMatrix([[vals[i] if i == j else ZERO for j in range(n)]
                            for i in range(n)])

    @staticmethod
    def from_entries(n: int, entries: dict) -> "DenseMatrix":
        """Sparse constructor: {(i, j): value} with 0-based indices."""
        rows = [[ZERO] * n for _ in range(n)]
        for (i, j), v in entries.items():
            rows[i][j] = ExactScalar.coerce(v)
        return DenseMatrix(rows)

    # -- access ------------------------------------------------------------

    def __getitem__(self, idx) -> ExactScalar:
        i, j = idx
        return self.rows[i][j]

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "DenseMatrix"):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        self._check(other)
        return DenseMatrix._of([[a + b for a, b in zip(ra, rb)]
                                for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        self._check(other)
        return DenseMatrix._of([[a - b for a, b in zip(ra, rb)]
                                for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return DenseMatrix._of([[-a for a in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, (ExactScalar, int, Rational)):
            s = ExactScalar.coerce(other)
            return DenseMatrix._of([[a * s for a in row] for row in self.rows])
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        self._check(other)
        # each row's and each column's nonzero entries, gathered once per product;
        # every entry sums its nonzero terms in ascending k
        cols = [{k: b for k, b in enumerate(col) if b} for col in zip(*other.rows)]
        out = []
        for row in self.rows:
            nonzero = [(k, a) for k, a in enumerate(row) if a]
            out.append([sum((a * col[k] for k, a in nonzero if k in col), ZERO)
                        for col in cols])
        return DenseMatrix._of(out)

    def commutator(self, other: "DenseMatrix") -> "DenseMatrix":
        return self @ other - other @ self

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix._of(zip(*self.rows))

    def trace(self) -> ExactScalar:
        acc = ZERO
        for i in range(self.n):
            acc = acc + self.rows[i][i]
        return acc

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.rows for a in row)

    def submatrix(self, indices: Sequence[int]) -> "DenseMatrix":
        """Principal submatrix on the given 0-based index set (order kept)."""
        idx = list(indices)
        return DenseMatrix([[self.rows[i][j] for j in idx] for i in idx])

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
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



def dense_kron(a, b):
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
    return DenseMatrix(rows)


def _agree(got, want, other):
    """A sparse result against its dense oracle, through every view; it keeps
    the rules it shares with `other`, an operator expression."""
    n = got.n
    assert n == want.n and got.rows == want.rows
    assert all(got[i, j] == want[i, j] for i in range(-n, n) for j in range(-n, n))
    assert got.render() == want.render() and str(got) == str(want)
    assert got.to_numpy().tobytes() == want.to_numpy().tobytes()
    assert got.is_zero() == want.is_zero()
    rebuilt = ExactMatrix(want.rows)
    assert got == rebuilt and hash(got) == hash(rebuilt)
    # the stored entries: nonzero only, row-major
    assert all(not a.is_zero() for a in got._nonzero.values())
    assert list(got._nonzero) == sorted(got._nonzero)
    assert_sparse_contract(got, other)


@settings(max_examples=150, deadline=None)
@given(pair=_sparse_pairs(), s=st.one_of(_sparse_entries, st.integers(-2, 2)),
       op=_exprs, data=st.data())
def test_sparse_matrix_agrees_with_the_dense_oracle(pair, s, op, data):
    x, y = pair
    dx, dy = DenseMatrix(x.rows), DenseMatrix(y.rows)
    _agree(x, dx, op)
    for got, want in [(x + y, dx + dy), (x - y, dx - dy), (-x, -dx), (x * s, dx * s),
                      (s * x, s * dx), (x @ y, dx @ dy), (x.commutator(y), dx.commutator(dy)),
                      (x.transpose(), dx.transpose()), (kron(x, y), dense_kron(dx, dy))]:
        _agree(got, want, op)
    idx = data.draw(st.lists(st.integers(-x.n, x.n - 1), min_size=1, max_size=x.n))
    _agree(x.submatrix(idx), dx.submatrix(idx), op)
    assert (x == y) == (dx == dy)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), op=_exprs, data=st.data())
def test_sparse_constructors_agree_with_the_dense_oracle(n, op, data):
    index = st.integers(-n, n - 1)
    vals = data.draw(st.lists(_sparse_entries, min_size=n, max_size=n))
    entries = data.draw(st.dictionaries(st.tuples(index, index), _sparse_entries,
                                        max_size=6))
    _agree(ExactMatrix.identity(n), DenseMatrix.identity(n), op)
    _agree(ExactMatrix.diag(vals), DenseMatrix.diag(vals), op)
    _agree(ExactMatrix.from_entries(n, entries), DenseMatrix.from_entries(n, entries), op)


@pytest.mark.parametrize("make", [lambda m: m([]), lambda m: m([[1, 2]]),
                                  lambda m: m.identity(0), lambda m: m.from_entries(0, {})])
def test_sparse_matrix_rejects_the_shapes_the_dense_one_rejects(make):
    for cls in (ExactMatrix, DenseMatrix):
        with pytest.raises(ValueError):
            make(cls)


def test_from_entries_takes_an_integer_size():
    for n in (True, 2.0, "2", None):
        refused = f"^n must be an integer, got {re.escape(repr(n))}$"
        with pytest.raises(ValueError, match=refused):
            ExactMatrix.from_entries(n, {})
        with pytest.raises(ValueError, match=refused):
            ExactMatrix.identity(n)
    assert ExactMatrix.from_entries(np.int64(2), {(0, 1): 1}) == ExactMatrix([[0, 1], [0, 0]])
    assert ExactMatrix.identity(np.int64(2)) == ExactMatrix([[1, 0], [0, 1]])


@pytest.mark.parametrize("cls", [ExactMatrix, DenseMatrix])
def test_out_of_range_indices_raise_index_error(cls):
    with pytest.raises(IndexError):
        cls.from_entries(2, {(2, 0): 1})
    with pytest.raises(IndexError):
        cls.identity(2)[0, 2]
