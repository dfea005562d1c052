"""ExactMatrix arithmetic against references built entry by entry through the
public, coercing constructor."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ladderlie.matrices import ExactMatrix
from ladderlie.scalars import ExactScalar, ZERO

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


def _same(got, want):
    assert got == want and hash(got) == hash(want)
    assert type(got.rows) is tuple and got.n == want.n
    assert all(type(row) is tuple and all(type(a) is ExactScalar for a in row)
               for row in got.rows)


@settings(max_examples=80, deadline=None)
@given(pair=_pairs(), s=_entries)
def test_results_equal_the_coerced_reference(pair, s):
    x, y = pair
    n = x.n
    _same(x @ y, _reference(n, lambda i, j: _product(x, y, i, j)))
    _same(x.commutator(y), _reference(
        n, lambda i, j: _product(x, y, i, j) - _product(y, x, i, j)))
    _same(x + y, _reference(n, lambda i, j: x[i, j] + y[i, j]))
    _same(x - y, _reference(n, lambda i, j: x[i, j] - y[i, j]))
    _same(-x, _reference(n, lambda i, j: -x[i, j]))
    _same(x * s, _reference(n, lambda i, j: x[i, j] * s))
    _same(x.transpose(), _reference(n, lambda i, j: x[j, i]))
    _same(x.conj(), _reference(n, lambda i, j: x[i, j].conjugate()))
    _same(x.adjoint(), _reference(n, lambda i, j: x[j, i].conjugate()))


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
@given(pair=_sparse_pairs())
def test_product_equals_the_dense_loop_on_zero_heavy_matrices(pair):
    x, y = pair
    _same(x @ y, dense_matmul(x, y))
    _same(y @ x, dense_matmul(y, x))
    _same(x.commutator(y), dense_matmul(x, y) - dense_matmul(y, x))
