"""Closed-form normal ordering, the reference for the normal-order workload.

Independent of ladderlie: coefficients are 4-tuples of Fractions
(q0 + q1*sqrt2 + q2*i + q3*i*sqrt2) and a polynomial is a dict
{(cdeg, adeg): coefficient}.  Modes commute, so the product of two normally
ordered monomials factors per mode, and each mode follows

    a^d ad^c = sum_k k! C(d, k) C(c, k) ad^(c-k) a^(d-k)

(Blasiak, Penson & Solomon, arXiv:quant-ph/0212072).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial

ZERO = (Fraction(0),) * 4


def qadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def qscale(a, k):
    return tuple(x * k for x in a)


def qmul(a, b):
    """Product in Q(i, sqrt2): sqrt2^2 = 2, i^2 = -1."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 + 2 * a1 * b1 - a2 * b2 - 2 * a3 * b3,
            a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
            a0 * b2 + a2 * b0 + 2 * a1 * b3 + 2 * a3 * b1,
            a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1)


def render(q) -> str:
    """Text of a coefficient, in the form ladderlie prints and parses."""
    parts = []
    for value, unit in zip(q, ("", "sqrt2", "i", "i*sqrt2")):
        if value:
            mag = abs(value)
            body = str(mag) if not unit else unit if mag == 1 else f"{mag}*{unit}"
            parts.append(("-" if value < 0 else "+", body))
    if not parts:
        return "0"
    (sign, body), rest = parts[0], parts[1:]
    return ("-" if sign == "-" else "") + body + "".join(f" {s} {b}" for s, b in rest)


def mode_product(c1, d1, c2, d2):
    """ad^c1 a^d1 ad^c2 a^d2 on one mode -> [(weight, c, d), ...]."""
    return [(factorial(k) * comb(d1, k) * comb(c2, k), c1 + c2 - k, d1 + d2 - k)
            for k in range(min(d1, c2) + 1)]


def monomial_product(m1, m2) -> dict:
    """Normally ordered product of two monomials (cdeg, adeg) -> {key: int}."""
    (c1, d1), (c2, d2) = m1, m2
    per_mode = [mode_product(*args) for args in zip(c1, d1, c2, d2)]
    out: dict = {}
    for choice in itertools.product(*per_mode):
        weight = 1
        for w, _, _ in choice:
            weight *= w
        key = (tuple(c for _, c, _ in choice), tuple(d for _, _, d in choice))
        out[key] = out.get(key, 0) + weight
    return out


def product(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, s1 in p.items():
        for m2, s2 in q.items():
            s = qmul(s1, s2)
            for key, weight in monomial_product(m1, m2).items():
                out[key] = qadd(out.get(key, ZERO), qscale(s, weight))
    return {k: v for k, v in out.items() if v != ZERO}


def commutator(p: dict, q: dict) -> dict:
    """[p, q] = p q - q p in normal order, zero terms dropped."""
    out = dict(product(p, q))
    for key, value in product(q, p).items():
        out[key] = qadd(out.get(key, ZERO), qscale(value, -1))
    return {k: v for k, v in out.items() if v != ZERO}
