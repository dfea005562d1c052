"""Group contraction by squeeze conjugation, exact in the squeeze parameter.

The squeeze C(eps) = diag(eps^e_1, ..., eps^e_n) with e = (-1, ..., -1, +1)
is diagonal, so conjugating a generator G by it scales each entry by one
power of eps: (C G C^-1)_ij = G_ij * eps^(e_i - e_j) (the Inonu-Wigner
contraction, PNAS 39, 1953).  Multiplying by eps^p and taking eps -> 0 is
then a bookkeeping operation on exponents: a trajectory is the exact matrix
of coefficients plus one eps exponent per entry.  A nonzero entry at a
negative exponent means the limit diverges, the entries at exponent zero are
the limit, positive exponents vanish.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, NamedTuple

from .catalog import (CONTRACTION_RELABEL, GeneratorFamily, POINCARE_LABELS,
                      o32_matrices)
from .matrices import ExactMatrix
from .opalg import check_integer_fields
from .scalars import ExactScalar

if TYPE_CHECKING:
    import numpy as np


class EpsMatrix(NamedTuple):
    """eps trajectory of a squeezed matrix: entry (i, j) is
    coeffs[i, j] * eps^exponents[i, j]; `exponents` holds the nonzero
    coefficients' positions only, in row-major order."""

    coeffs: ExactMatrix
    exponents: dict                 # (i, j) -> int

    def entries(self):
        """(i, j, exponent, coefficient) for the nonzero entries, row-major."""
        for (i, j), k in self.exponents.items():
            yield i, j, k, self.coeffs[i, j]


def eps_term(v: ExactScalar, k: int) -> str:
    """v * eps^k as printed; v alone at k = 0, parenthesised if it prints as a sum."""
    check_integer_fields(k=k)
    body = str(v)
    body = f"({body})" if " " in body else body
    return body if k == 0 else f"{body}*eps^{k}"


class DivergentLimit(ArithmeticError):
    """eps -> 0 limit does not exist; carries the diverging entries."""

    def __init__(self, entries):
        self.entries = tuple(entries)  # (i, j, exponent, coefficient)
        where = ", ".join(f"({i},{j}): eps^{k}" for i, j, k, _ in self.entries)
        super().__init__(f"divergent entries in eps -> 0 limit: {where}")


def _squeeze(m: EpsMatrix, sign: int, power: int = 0) -> EpsMatrix:
    """Entry (i, j) times eps^(sign * (e_i - e_j) + power).

    sign +1 is C m C^-1, sign -1 is C^-1 m C, for the squeeze C(eps) of the
    module docstring.
    """
    e = [-1] * (m.coeffs.n - 1) + [1]
    return EpsMatrix(m.coeffs, {(i, j): k + sign * (e[i] - e[j]) + power
                                for (i, j), k in m.exponents.items()})


def _keep(m: EpsMatrix, exponent: int) -> ExactMatrix:
    """The coefficients of the entries at one eps exponent; zero elsewhere."""
    return ExactMatrix._of(m.coeffs.n, {(i, j): v for i, j, k, v in m.entries()
                                        if k == exponent})


def conjugate(generator: ExactMatrix, scale_power: int = 0) -> EpsMatrix:
    """eps^scale_power * C(eps) G C(eps)^-1, exact in eps."""
    check_integer_fields(scale_power=scale_power)
    if generator.n < 2:
        raise ValueError("squeeze needs at least a 2-dimensional space")
    return _squeeze(EpsMatrix(generator, dict.fromkeys(generator._nonzero, 0)),
                    1, scale_power)


def limit(m: EpsMatrix) -> ExactMatrix:
    """eps -> 0 limit; raises DivergentLimit if any entry blows up."""
    divergent = [entry for entry in m.entries() if entry[2] < 0]
    if divergent:
        raise DivergentLimit(divergent)
    return _keep(m, 0)


def dominant_part(m: EpsMatrix) -> EpsMatrix:
    """Keep only the entries at the lowest eps exponent present in the matrix."""
    if not m.exponents:
        return m
    low = min(m.exponents.values())
    return EpsMatrix(_keep(m, low), {at: k for at, k in m.exponents.items() if k == low})


def contract_via_inverse_squeeze(generator: ExactMatrix) -> ExactMatrix:
    """Alternate contraction route: dominant part, conjugated back.

    C^-1 (dominant part of C G C^-1) C cancels the eps dependence exactly
    whenever the dominant exponent matches the entry position, which is the
    case for every generator of the ten-generator family.
    """
    return limit(_squeeze(dominant_part(conjugate(generator, 0)), -1))


# canonical scale powers: the generators CONTRACTION_RELABEL moves onto a
# translation flatten at eps^2; the fixed rotations and boosts are eps-free
CONTRACTION_POWERS = {l: 0 if p == l else 2 for l, p in CONTRACTION_RELABEL.items()}


def contract_family(family: GeneratorFamily, powers: Mapping[str, int]) -> GeneratorFamily:
    """Apply the scaled squeeze limit to every generator of a matrix family."""
    if family.kind != "matrix":
        raise ValueError("contraction applies to matrix families")
    els = {label: limit(conjugate(g, powers[label])) for label, g in family.items()}
    return GeneratorFamily(
        family.name + "-contracted", family.labels, els, None,
        f"squeeze-contraction of {family.name} "
        f"(boosts toward the squeezed axis become translations)")


def contract_o32() -> GeneratorFamily:
    """Contract the five-by-five ten-generator family to the Poincare set.

    J and K are fixed points; Q1, Q2, Q3, S0 flatten onto the translation
    generators P1, P2, P3, P0.  Label order follows the Poincare convention.
    """
    raw = contract_family(o32_matrices(), CONTRACTION_POWERS)
    els = {CONTRACTION_RELABEL[l]: g for l, g in raw.items()}
    return GeneratorFamily(
        "poincare", POINCARE_LABELS, els, None,
        "rotations, boosts and translations on (x, y, z, t, 1)")


def numeric_conjugate(generator: ExactMatrix, scale_power: int,
                      eps: float) -> np.ndarray:
    """Floating-point path: eps^p * C(eps) G C(eps)^-1 evaluated numerically."""
    import numpy as np      # the exact modules load without numpy
    n = generator.n
    c = np.diag([1.0 / eps] * (n - 1) + [eps]).astype(complex)
    c_inv = np.diag([eps] * (n - 1) + [1.0 / eps]).astype(complex)
    return (eps ** scale_power) * (c @ generator.to_numpy() @ c_inv)
