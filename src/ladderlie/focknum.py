"""Truncated number-basis realization of ladder-operator expressions.

Operators become complex matrices on the span of |n1, ..., nM> with each
n < cutoff.  A normally ordered monomial ad^c a^d sends |n> to the single
state |n - d + c>, with weight, per mode,

    sqrt(n) sqrt(n-1) ... sqrt(n-d+1) * sqrt(n-d+1) ... sqrt(n-d+c),

and to nothing when some n < d or n - d + c >= cutoff.  Truncation corrupts
matrix elements near the edge (the matrix CCR picks up a rank-one defect of
size cutoff at the last level), so commutator checks are restricted to a
protected subspace of states whose total quanta stay `guard` levels below
the edge.  Quadratic generators move total quanta by at most 2, so
guard >= 2 makes one product exact on the protected rows and guard >= 4 an
operator product of two quadratics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .opalg import OperatorExpr, commutator


@dataclass(frozen=True)
class FockRealization:
    """Truncation context: per-mode cutoff and mode count."""

    cutoff: int
    modes: int

    def __post_init__(self):
        if self.cutoff < 2:
            raise ValueError("cutoff must be at least 2")
        if self.modes < 1:
            raise ValueError("mode count must be at least 1")

    @property
    def dim(self) -> int:
        return self.cutoff ** self.modes

    def basis_occupations(self):
        """Occupation tuple for every basis index (mode 1 varies slowest)."""
        return [tuple(row) for row in self.occupations.tolist()]

    @cached_property
    def occupations(self) -> np.ndarray:
        """Read-only (dim, modes) array of occupations, built once."""
        occ = np.indices((self.cutoff,) * self.modes).reshape(self.modes, -1).T
        occ.flags.writeable = False
        return occ

    def protected_indices(self, guard: int) -> np.ndarray:
        """Indices of basis states with total quanta <= cutoff - 1 - guard."""
        if guard < 0:
            raise ValueError("guard must be non-negative")
        budget = self.cutoff - 1 - guard
        if budget < 0:
            raise ValueError(
                f"guard {guard} leaves no protected states at cutoff {self.cutoff}")
        return np.flatnonzero(self.occupations.sum(axis=1) <= budget)


def _block(expr: OperatorExpr, fock: FockRealization, rows, cols) -> np.ndarray:
    """`realize(expr, fock)[rows][:, cols]` as a C-contiguous complex array,
    scattered straight from the closed form; rows and cols hold distinct indices.

    Weights multiply one ladder factor at a time, annihilators (mode 1
    first) and then creators, the order of the matrix-product chain
    ad^c a^d, so every entry is the float that chain gives.
    """
    if expr.modes != fock.modes:
        raise ValueError(
            f"expression has {expr.modes} mode(s), realization has {fock.modes}")
    occ = fock.occupations
    strides = fock.cutoff ** np.arange(fock.modes - 1, -1, -1)
    at_row, at_col = np.full((2, fock.dim), -1)
    at_row[rows] = np.arange(len(rows))
    at_col[cols] = np.arange(len(cols))
    out = np.zeros((len(rows), len(cols)), dtype=complex)
    for mono in expr.terms:
        low = occ - mono.adeg
        high = low + mono.cdeg
        src = np.flatnonzero(np.all((low >= 0) & (high < fock.cutoff), axis=1))
        word = np.ones(len(src))
        for m, d in enumerate(mono.adeg):
            for k in range(d):
                word = np.sqrt(occ[src, m] - k) * word
        term = np.ones(len(src))
        for m, c in enumerate(mono.cdeg):
            for k in range(1, c + 1):
                term = np.sqrt(low[src, m] + k) * term
        row, col = at_row[high[src] @ strides], at_col[src]
        hit = (row >= 0) & (col >= 0)
        out[row[hit], col[hit]] += (mono.coeff.to_complex() * (term * word))[hit]
    return out


def realize(expr: OperatorExpr, fock: FockRealization) -> np.ndarray:
    """Dense matrix of a normally ordered expression on the truncated basis."""
    every = np.arange(fock.dim)
    return _block(expr, fock, every, every)


def protected_commutator_check(a: OperatorExpr, b: OperatorExpr,
                               fock: FockRealization, guard: int = 4) -> float:
    """Max deviation between matrix and symbolic commutators, protected rows.

    Computes [realize(a), realize(b)] - realize([a, b] symbolic) over the
    protected block, from `_block` slabs, and returns the largest magnitude.
    """
    keep = fock.protected_indices(guard)
    every = np.arange(fock.dim)
    block = (_block(a, fock, keep, every) @ _block(b, fock, every, keep)
             - _block(b, fock, keep, every) @ _block(a, fock, every, keep)
             - _block(commutator(a, b), fock, keep, keep))
    return float(np.max(np.abs(block))) if block.size else 0.0


def realize_family(family, fock: FockRealization) -> dict:
    """Realize every generator of an operator family."""
    return {label: realize(expr, fock) for label, expr in family.items()}
