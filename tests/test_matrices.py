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
