"""Group contraction by squeeze conjugation, exact in the squeeze parameter.

The squeeze C(eps) = diag(eps^e_1, ..., eps^e_n) with e = (-1, ..., -1, +1)
is diagonal, so conjugating a generator G by it scales each entry by one
power of eps: (C G C^-1)_ij = G_ij * eps^(e_i - e_j) (the Inonu-Wigner
contraction, PNAS 39, 1953).  Multiplying by eps^p and taking eps -> 0 is
then a bookkeeping operation on exponents: negative exponents surviving in
an entry mean the limit diverges, the exponent-zero coefficient is the
limit, positive exponents vanish.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .catalog import (CONTRACTION_RELABEL, GeneratorFamily, POINCARE_LABELS,
                      o32_matrices)
from .matrices import ExactMatrix
from .scalars import ExactScalar, ZERO


class EpsScalar:
    """Finite Laurent polynomial in eps: {exponent: ExactScalar}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, ExactScalar] | None = None):
        clean = {}
        if coeffs:
            for k, v in coeffs.items():
                v = ExactScalar.coerce(v)
                if not v.is_zero():
                    clean[int(k)] = v
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("EpsScalar is immutable")

    @staticmethod
    def of(value, exponent: int = 0) -> "EpsScalar":
        return EpsScalar({exponent: ExactScalar.coerce(value)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self):
        """(exponent, coefficient) pairs, exponent ascending."""
        return [(k, self.coeffs[k]) for k in sorted(self.coeffs)]

    def min_exponent(self):
        return min(self.coeffs) if self.coeffs else None

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for k, v in self.terms():
            body = f"({v})" if v.component_count() > 1 else str(v)
            if k == 0:
                bits.append(body)
            else:
                bits.append(f"{body}*eps^{k}")
        return " + ".join(bits)

    def __repr__(self):
        return f"EpsScalar({self})"


class EpsMatrix:
    """Square matrix of EpsScalar entries."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        body = tuple(tuple(x if isinstance(x, EpsScalar) else EpsScalar.of(x)
                           for x in row) for row in rows)
        if not body or any(len(r) != len(body) for r in body):
            raise ValueError("matrix must be square and non-empty")
        object.__setattr__(self, "rows", body)

    def __setattr__(self, name, value):
        raise AttributeError("EpsMatrix is immutable")

    def entries(self):
        for i, row in enumerate(self.rows):
            for j, x in enumerate(row):
                yield i, j, x


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
    n = len(m.rows)
    e = [-1] * (n - 1) + [1]
    return EpsMatrix([[EpsScalar({k + sign * (e[i] - e[j]) + power: v
                                  for k, v in x.coeffs.items()})
                       for j, x in enumerate(row)]
                      for i, row in enumerate(m.rows)])


def conjugate(generator: ExactMatrix, scale_power: int = 0) -> EpsMatrix:
    """eps^scale_power * C(eps) G C(eps)^-1, exact in eps."""
    if generator.n < 2:
        raise ValueError("squeeze needs at least a 2-dimensional space")
    return _squeeze(EpsMatrix(generator.rows), 1, scale_power)


def limit(m: EpsMatrix) -> ExactMatrix:
    """eps -> 0 limit; raises DivergentLimit if any entry blows up."""
    divergent = []
    rows = []
    for row in m.rows:
        out_row = []
        for x in row:
            for k, v in x.terms():
                if k < 0:
                    divergent.append((len(rows), len(out_row), k, v))
            out_row.append(x.coeffs.get(0, ZERO))
        rows.append(out_row)
    if divergent:
        raise DivergentLimit(divergent)
    return ExactMatrix(rows)


def dominant_part(m: EpsMatrix) -> EpsMatrix:
    """Keep only the terms at the lowest eps exponent present in the matrix."""
    exps = [x.min_exponent() for _, _, x in m.entries() if not x.is_zero()]
    if not exps:
        return m
    d = min(exps)
    return EpsMatrix([[EpsScalar({d: x.coeffs[d]}) if d in x.coeffs else EpsScalar()
                       for x in row] for row in m.rows])


def contract_via_inverse_squeeze(generator: ExactMatrix) -> ExactMatrix:
    """Alternate contraction route: dominant part, conjugated back.

    C^-1 (dominant part of C G C^-1) C cancels the eps dependence exactly
    whenever the dominant exponent matches the entry position, which is the
    case for every generator of the ten-generator family.
    """
    return limit(_squeeze(dominant_part(conjugate(generator, 0)), -1))


# canonical scale powers: boosts toward the squeezed direction flatten onto
# translations at eps^2; rotations and the surviving boosts are eps-free
CONTRACTION_POWERS = {
    "J1": 0, "J2": 0, "J3": 0,
    "K1": 0, "K2": 0, "K3": 0,
    "Q1": 2, "Q2": 2, "Q3": 2, "S0": 2,
}


def contract_family(family: GeneratorFamily, powers: Mapping[str, int],
                    relabel: Mapping[str, str] | None = None,
                    name: str | None = None) -> GeneratorFamily:
    """Apply the scaled squeeze limit to every generator of a matrix family."""
    if family.kind != "matrix":
        raise ValueError("contraction applies to matrix families")
    relabel = relabel or {l: l for l in family.labels}
    els = {}
    for label, g in family.items():
        els[relabel[label]] = limit(conjugate(g, powers[label]))
    labels = tuple(relabel[l] for l in family.labels)
    return GeneratorFamily(
        name or (family.name + "-contracted"), labels, els, None,
        f"squeeze-contraction of {family.name} "
        f"(boosts toward the squeezed axis become translations)")


def contract_o32() -> GeneratorFamily:
    """Contract the five-by-five ten-generator family to the Poincare set.

    J and K are fixed points; Q1, Q2, Q3, S0 flatten onto the translation
    generators P1, P2, P3, P0.  Label order follows the Poincare convention.
    """
    raw = contract_family(o32_matrices(), CONTRACTION_POWERS,
                          CONTRACTION_RELABEL, name="poincare")
    els = {l: raw.element(l) for l in POINCARE_LABELS}
    return GeneratorFamily(
        "poincare", POINCARE_LABELS, els, None,
        "rotations, boosts and translations on (x, y, z, t, 1)")


def numeric_conjugate(generator: ExactMatrix, scale_power: int,
                      eps: float) -> np.ndarray:
    """Floating-point path: eps^p * C(eps) G C(eps)^-1 evaluated numerically."""
    n = generator.n
    c = np.diag([1.0 / eps] * (n - 1) + [eps]).astype(complex)
    c_inv = np.diag([eps] * (n - 1) + [1.0 / eps]).astype(complex)
    return (eps ** scale_power) * (c @ generator.to_numpy() @ c_inv)
