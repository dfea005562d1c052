"""The frozen sparse map that both exact element kinds are built on.

An operator polynomial (`opalg.OperatorExpr`) and a generator matrix
(`matrices.ExactMatrix`) are each a finite map from keys to nonzero exact
scalars over a space of fixed dimension: monomial degrees over a mode count,
or (row, column) positions in an n x n matrix.  `SparseExact` states the
rules of that map once: zero values are never stored, instances are
immutable, operands must share the dimension, and the linear structure
(sum, difference, negation, scalar multiple), equality and hash act on the
stored entries alone.  Each kind keeps its own keys, product rule and views,
and names the dimension its own way (`modes`, `n`) as an alias of the `dim`
slot descriptor, which reads as fast as the slot itself.
"""

from __future__ import annotations

from numbers import Rational

from .scalars import ExactScalar

# What a scalar operand may be; anything else is not a scalar multiple.
SCALAR_TYPES = (ExactScalar, int, Rational)


class SparseExact:
    """Immutable map {key: nonzero ExactScalar} on a space of dimension `dim`."""

    __slots__ = ("dim", "_nonzero")

    @classmethod
    def _of(cls, dim: int, nonzero: dict):
        """Internal result: keeps `nonzero` (canonical keys, ExactScalar
        values), with its zero values deleted, and checks nothing else."""
        for key in [key for key, v in nonzero.items() if v.is_zero()]:
            del nonzero[key]
        out = object.__new__(cls)
        object.__setattr__(out, "dim", dim)
        object.__setattr__(out, "_nonzero", nonzero)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _check(self, other: "SparseExact"):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def is_zero(self) -> bool:
        return not self._nonzero

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        out = dict(self._nonzero)
        for key, v in other._nonzero.items():
            out[key] = out[key] + v if key in out else v
        return self._of(self.dim, out)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._of(self.dim, {key: -v for key, v in self._nonzero.items()})

    def __mul__(self, other):
        if not isinstance(other, SCALAR_TYPES):
            return NotImplemented
        s = ExactScalar.coerce(other)
        return self._of(self.dim, {key: v * s for key, v in self._nonzero.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.dim == other.dim and self._nonzero == other._nonzero

    def __hash__(self):
        return hash((self.dim, frozenset(self._nonzero.items())))
