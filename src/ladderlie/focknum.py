"""Truncated number-basis realization of ladder-operator expressions.

Operators become complex matrices on the span of |n1, ..., nM> with each
n < cutoff.  A normally ordered monomial ad^c a^d sends |n> to the single
state |n - d + c>, with weight, per mode,

    sqrt(n) sqrt(n-1) ... sqrt(n-d+1) * sqrt(n-d+1) ... sqrt(n-d+c),

and to nothing when some n < d or n - d + c >= cutoff.  Truncation corrupts
matrix elements near the edge (the matrix CCR picks up a rank-one defect of
size cutoff at the last level), so commutator checks are restricted to a
protected subspace of states whose total quanta stay `guard` levels below
the edge.  A quadratic generator moves total quanta by at most 2, so in a
product of two of them each intermediate state lies at most 2 quanta from a
protected row or column: guard >= 2 makes the product exact on the protected
rows against every column, and so on the protected block (`verify --guard 2`
at cutoff 16 prints the same 1.155e-14 as guard 4).  Guard 4 is first needed
by a product of three quadratics on the protected rows against every column,
whose second intermediate state can sit 4 quanta above the row.

Each unit monomial is realized once per truncation: `_unit_monomial` keeps
the flat keys and float weights of ad^c a^d on a FockRealization, read-only
like `occupations`, in an LRU of MONOMIAL_MEMO_SIZE triples, and `entries`
scales them by each expression's coefficients.  The two-mode family and its
brackets are sums of 11 such monomials: the ten quadratic ones and the
identity.  Symbolic brackets come from the memoized `liecore.bracket`, so
the Fock check reuses the brackets the closure check has formed (`liecore`
says why that memo is not on `opalg.commutator`).  The check builds entries
for the generators only, and past the BLAS products it reads each pair's
protected block on its band alone (at cutoff 24, guard 6, at most 3.7 % of
the block): ad^c a^d moves the occupations by the fixed shift c - d, so off
the band every entry is an exact zero.  Each bracket's band is summed from
its unit monomials' protected-block positions, found once per check, in the
monomial order of `entries`, so it has the bits of the bracket's entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .liecore import bracket
from .opalg import OperatorExpr, check_integer_fields


@dataclass(frozen=True)
class FockRealization:
    """Truncation context: per-mode cutoff and mode count."""

    cutoff: int
    modes: int

    def __post_init__(self):
        check_integer_fields(cutoff=self.cutoff, modes=self.modes)
        if self.cutoff < 2:
            raise ValueError("cutoff must be at least 2")
        if self.modes < 1:
            raise ValueError("mode count must be at least 1")

    @property
    def dim(self) -> int:
        return self.cutoff ** self.modes

    @cached_property
    def occupations(self) -> np.ndarray:
        """Read-only (dim, modes) array of occupations, built once."""
        occ = np.indices((self.cutoff,) * self.modes).reshape(self.modes, -1).T
        occ.flags.writeable = False
        return occ

    def protected_indices(self, guard: int) -> np.ndarray:
        """Indices of basis states with total quanta <= cutoff - 1 - guard."""
        check_integer_fields(guard=guard)
        if guard < 0:
            raise ValueError("guard must be non-negative")
        budget = self.cutoff - 1 - guard
        if budget < 0:
            raise ValueError(
                f"guard {guard} leaves no protected states at cutoff {self.cutoff}")
        return np.flatnonzero(self.occupations.sum(axis=1) <= budget)


class Entries(NamedTuple):
    """The stored entries of a realized operator: unique (row, col) pairs in
    row-major order, with their values."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray


# Distinct (realization, cdeg, adeg) triples `_unit_monomial` remembers; one
# default `verify` realizes 13.
MONOMIAL_MEMO_SIZE = 256


@lru_cache(maxsize=MONOMIAL_MEMO_SIZE)
def _unit_monomial(fock: FockRealization, cdeg: tuple, adeg: tuple):
    """Read-only flat keys (row * dim + col) and float weights of the unit
    monomial ad^cdeg a^adeg on `fock`, in source-column order.

    Weights multiply one ladder factor at a time, annihilators (mode 1
    first) and then creators, the order of the matrix-product chain
    ad^c a^d.
    """
    occ = fock.occupations
    strides = fock.cutoff ** np.arange(fock.modes - 1, -1, -1)
    low = occ - adeg
    high = low + cdeg
    src = np.flatnonzero(np.all((low >= 0) & (high < fock.cutoff), axis=1))
    word = np.ones(len(src))
    for m, d in enumerate(adeg):
        for k in range(d):
            word = np.sqrt(occ[src, m] - k) * word
    term = np.ones(len(src))
    for m, c in enumerate(cdeg):
        for k in range(1, c + 1):
            term = np.sqrt(low[src, m] + k) * term
    keys, weights = (high[src] @ strides) * fock.dim + src, term * word
    keys.flags.writeable = weights.flags.writeable = False
    return keys, weights


def entries(expr: OperatorExpr, fock: FockRealization) -> Entries:
    """The stored entries of `realize(expr, fock)`, from the closed form.

    Each monomial's value is its coefficient times the `_unit_monomial`
    weight, and each entry is summed from zero in monomial order,
    ((0 + v1) + v2) + ..., so it is the float that the matrix-product
    chain gives, signed zeros included.
    """
    if expr.modes != fock.modes:
        raise ValueError(
            f"expression has {expr.modes} mode(s), realization has {fock.modes}")
    keys, parts = [np.empty(0, dtype=int)], []    # empty keys: the zero expression
    for mono in expr.terms:
        flat, weight = _unit_monomial(fock, mono.cdeg, mono.adeg)
        keys.append(flat)
        parts.append(mono.coeff.to_complex() * weight)
    flat, at = np.unique(np.concatenate(keys), return_inverse=True)
    values = np.zeros(len(flat), dtype=complex)
    start = 0
    for part in parts:
        values[at[start:start + len(part)]] += part
        start += len(part)
    return Entries(flat // fock.dim, flat % fock.dim, values)


def _positions(ent: Entries, at_row: np.ndarray, at_col: np.ndarray):
    """Block positions and values of the entries whose row and column the
    maps keep (map value >= 0)."""
    row, col = at_row[ent.rows], at_col[ent.cols]
    hit = (row >= 0) & (col >= 0)
    return (row[hit], col[hit]), ent.values[hit]


def realize(expr: OperatorExpr, fock: FockRealization) -> np.ndarray:
    """Dense matrix of a normally ordered expression on the truncated basis:
    its `entries` scattered into zeros."""
    ent = entries(expr, fock)
    out = np.zeros((fock.dim, fock.dim), dtype=complex)
    out[ent.rows, ent.cols] = ent.values
    return out


def hermitian_deviation(ent: Entries, fock: FockRealization) -> float:
    """max |M - M^dagger| for the matrix M whose stored entries on `fock` are
    `ent`; a transposed entry that is not stored is 0."""
    keys = ent.rows * fock.dim + ent.cols
    flipped = ent.cols * fock.dim + ent.rows
    at = np.searchsorted(keys, flipped)
    found = at < len(keys)
    found[found] = keys[at[found]] == flipped[found]
    mirror = np.zeros_like(ent.values)
    mirror[found] = ent.values[at[found]]
    return float(np.max(np.abs(ent.values - mirror.conj()), initial=0.0))


def diagonal_deviation(ent: Entries, fock: FockRealization,
                       diagonal: np.ndarray) -> float:
    """max |M - diag(diagonal)| for the matrix M whose stored entries on `fock`
    are `ent`, over those entries and the diagonal positions that hold none."""
    on = ent.rows == ent.cols
    diag = np.zeros(fock.dim, dtype=complex)
    diag[ent.rows[on]] = ent.values[on]
    return float(max(np.max(np.abs(diag - diagonal)),
                     np.max(np.abs(ent.values[~on]), initial=0.0)))


def _shift(cdeg: tuple, adeg: tuple) -> tuple:
    """The occupation change of the monomial ad^cdeg a^adeg: it sends |n> to
    |n + cdeg - adeg>."""
    return tuple(c - d for c, d in zip(cdeg, adeg))


def worst_protected_commutator(generators: dict, fock: FockRealization,
                               guard: int = 4, built: dict | None = None):
    """Max deviation between matrix and symbolic commutators over every pair
    of generators, on the protected rows and columns, and where it sits.

    For each pair (a, b) of `generators` (label -> expression) in insertion
    order, computes [realize(a), realize(b)] - realize([a, b] symbolic) on
    the protected block.  Returns (deviation, witness), where the witness is
    ((a, b), row, col) with the basis indices of the first largest entry in
    row-major order (the first entry of the block when every deviation is
    0), or None when there is no pair.  Each generator's entries and their
    `hermitian_deviation` are built once, or taken from `built` (label ->
    (`entries(expr, fock)`, its `hermitian_deviation`)) when given, and
    scattered into one reused row slab and one reused column slab.

    Only the pair's band is read.  Every entry of a monomial with shift
    s = cdeg - adeg sits where occ(row) - occ(col) = s, so AB and BA vanish
    off the positions with occ(row) - occ(col) in S_a + S_b (S_x: the shifts
    of x's monomials; a diagonal generator has the one shift 0), and the
    bracket's block vanishes off its own shifts.  The band is the protected
    positions with a shift in the union, plus the first position, in
    row-major order.  Off it each product sums terms with a zero factor and
    is an exact (signed) zero, so the deviation there is exactly 0 and the
    band's first largest entry is the block's.

    Each symbolic bracket comes from `liecore.bracket`.  Its band is summed
    from zero in monomial order, ((0 + v1) + v2) + ..., as `entries` sums
    it: one indexed add per unit monomial, whose protected-block positions
    are distinct and are found once per call.

    A product takes one of three routes, each with the bits of the K x N by
    N x K complex product on the protected block under any BLAS kernel:

    * When one operand D is diagonal (every stored entry at row == col) and
      each of its entries is real or imaginary, AD and DA are the other
      operand's protected block scaled by column and by row, with no matrix
      product.  Each entry of the product then sums exactly one nonzero
      term, and each part of that term is one real product plus an exact
      zero, which no fused multiply-add or summation order rounds
      differently (only the sign of a zero can differ, and the deviation is
      an absolute value).
    * When both operands' stored entries are exactly Hermitian
      (`hermitian_deviation` is 0.0) and each entry is real or imaginary,
      BA is read as (AB)^dagger at the transposed band, with no second
      product: every complex product is then one real product per part,
      which no fused multiply-add rounds differently in AB and BA.  That
      also needs the BLAS kernel to sum AB[i, j] and BA[j, i] in one order.
    * Otherwise AB and BA are two products.
    """
    keep = fock.protected_indices(guard)
    size = len(keep)
    at_keep = np.full(fock.dim, -1)
    at_keep[keep] = np.arange(size)
    every = np.arange(fock.dim)
    still = (0,) * fock.modes
    slabs, blocks, diagonals, mirrored, shifts = {}, {}, {}, set(), {}
    for label, expr in generators.items():
        ent, herm = built[label] if built is not None else (entries(expr, fock), None)
        slabs[label] = _positions(ent, at_keep, every), _positions(ent, every, at_keep)
        (at_row, _), values = blocks[label] = _positions(ent, at_keep, at_keep)
        shifts[label] = frozenset(_shift(m.cdeg, m.adeg) for m in expr.terms)
        real_or_imag = np.all((ent.values.real == 0) | (ent.values.imag == 0))
        if real_or_imag and np.all(ent.rows == ent.cols):
            diagonals[label] = np.zeros(size, dtype=complex)
            diagonals[label][at_row] = values
            # shift 0 holds every stored entry, also when a term has none
            shifts[label] = frozenset({still})
        elif real_or_imag and (herm if herm is not None
                               else hermitian_deviation(ent, fock)) == 0.0:
            mirrored.add(label)
    row = np.zeros((size, fock.dim), dtype=complex)
    col = np.zeros((fock.dim, size), dtype=complex)
    out = np.empty((size, size), dtype=complex)
    occ = fock.occupations[keep]
    room = fock.cutoff - 1 - guard - occ.sum(axis=1)     # quanta left below the guard
    strides = fock.cutoff ** np.arange(fock.modes - 1, -1, -1)
    bands, reached, units = {}, {}, {}

    def reach(move):
        """The flat block positions r * K + c with occ(r) - occ(c) = `move`,
        sorted: r grows with c."""
        if move not in reached:
            c = np.flatnonzero((sum(move) <= room) & np.all(occ + move >= 0, axis=1))
            reached[move] = at_keep[keep[c] + np.dot(move, strides)] * size + c
        return reached[move]

    def band(left, right, own):
        """The band of shift sets S_a = `left`, S_b = `right` and S_[a,b] =
        `own`: the sorted flat block positions r * K + c with occ(r) - occ(c)
        in (S_a + S_b) | S_[a,b], with position 0; their transposes; and a
        memo of band indices."""
        if (left, right, own) not in bands:
            moves = {tuple(x + y for x, y in zip(s, t)) for s in left for t in right} | own
            parts = [reach(move) for move in moves]      # disjoint: one move per position
            flat = np.sort(np.concatenate(parts if still in moves else parts + [[0]]))
            bands[left, right, own] = flat, (flat % size) * size + flat // size, {}
        return bands[left, right, own]

    def unit_block(key):
        """Shift, flat protected-block positions and weights of the unit
        monomial with key (cdeg, adeg)."""
        if key not in units:
            flat, weight = _unit_monomial(fock, *key)
            at_row, at_col = at_keep[flat // fock.dim], at_keep[flat % fock.dim]
            hit = (at_row >= 0) & (at_col >= 0)
            units[key] = _shift(*key), at_row[hit] * size + at_col[hit], weight[hit]
        return units[key]

    def product(row_part, col_part):
        (at_row, row_values), (at_col, col_values) = row_part, col_part
        row[at_row], col[at_col] = row_values, col_values
        np.matmul(row, col, out=out)
        row[at_row], col[at_col] = 0, 0

    worst, witness = 0.0, None
    for a, b in combinations(generators, 2):
        terms = [(mono.coeff, (mono.cdeg, mono.adeg))
                 for mono in bracket(generators[a], generators[b]).terms]
        flat, flip, found = band(shifts[a], shifts[b],
                                 frozenset(unit_block(key)[0] for _, key in terms))
        if a in diagonals or b in diagonals:
            if b in diagonals:      # A D scales A's block by column, D A by row
                (at_row, at_col), values = blocks[a]
                left, right = diagonals[b][at_col], diagonals[b][at_row]
            else:                   # D B scales B's block by row, B D by column
                (at_row, at_col), values = blocks[b]
                left, right = diagonals[a][at_row], diagonals[a][at_col]
            at = np.searchsorted(flat, at_row * size + at_col)
            ab, ba = np.zeros((2, len(flat)), dtype=complex)
            ab[at], ba[at] = values * left, values * right
        else:
            product(slabs[a][0], slabs[b][1])
            ab = out.take(flat)
            if a in mirrored and b in mirrored:
                ba = np.conjugate(out.take(flip))
            else:
                product(slabs[b][0], slabs[a][1])
                ba = out.take(flat)
        diff = np.zeros(len(flat), dtype=complex)
        for coeff, key in terms:
            _, at, weight = unit_block(key)
            if key not in found:
                found[key] = np.searchsorted(flat, at)
            diff[found[key]] += coeff.to_complex() * weight
        dev = np.abs(ab - ba - diff)
        at = int(dev.argmax())    # the first largest; position 0 when all are 0
        if witness is None or dev[at] > worst:
            r, c = divmod(int(flat[at]), size)
            worst, witness = float(dev[at]), ((a, b), int(keep[r]), int(keep[c]))
    return worst, witness


def protected_commutator_check(a: OperatorExpr, b: OperatorExpr,
                               fock: FockRealization, guard: int = 4) -> float:
    """Max deviation between matrix and symbolic commutators on the protected
    block: `worst_protected_commutator` for the one pair (a, b)."""
    return worst_protected_commutator({0: a, 1: b}, fock, guard)[0]
