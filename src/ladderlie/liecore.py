"""Exact Lie-algebraic analysis of generator families.

Each family's basis is factored once: one column-ordered Gauss-Jordan pass
over Q(i, sqrt2), on the keys the generators store, records the pivot keys,
the exact inverse of the square pivot block and the generators that got no
pivot (those spanned by earlier ones).  Every bracket is then expanded as a
mat-vec against that inverse and confirmed by an exact residual check, and
the Jacobi identity is summed over the nonzero entries of the sparse bracket
table only.  No numeric tolerance enters anywhere.  Closure failures and
linear dependencies are returned as data, not exceptions, so typo'd variants
can be reported.

`bracket` is memoized: every family's generators are quadratic forms in the
ladder operators or their 2x2 to 5x5 matrix images, so the closure,
contraction and Fock checks of one default `verify` make 291 bracket calls
on 209 distinct pairs, and each pair is computed once per process.  Both
element kinds are immutable and hash by structure, and the memo is an LRU
of BRACKET_MEMO_SIZE pairs, so it holds a bounded number of small exact
results.  It is not on `opalg.commutator`, the general normal-ordering
entry: a memo there would also hold the results of any batch of
commutators, and a prototype with memos in `opalg` moved a generation-2
garbage collection into the benchmark's timed `normal-order-deg4` batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Mapping, Sequence

from .catalog import GeneratorFamily
from .matrices import ExactMatrix
from .opalg import OperatorExpr
from .scalars import ExactScalar, ONE, ZERO, signed_sum


# Distinct (x, y) pairs `bracket` remembers; one default `verify` forms 209.
BRACKET_MEMO_SIZE = 1024


def bracket(x, y):
    """Commutator of two elements of one kind, memoized per pair."""
    if type(x) is not type(y) or type(x) not in (OperatorExpr, ExactMatrix):
        raise TypeError("bracket requires two OperatorExpr or two ExactMatrix")
    return _memo_bracket(x, y)


@lru_cache(maxsize=BRACKET_MEMO_SIZE)
def _memo_bracket(x, y):
    return x.commutator(y)


# ---------------------------------------------------------------------------
# one exact factorization per basis
# ---------------------------------------------------------------------------


def _subtract(row: dict, f: ExactScalar, other: dict):
    """row -= f * other in place, on sparse {key: value} maps."""
    for c, y in other.items():
        row[c] = x = row[c] - f * y if c in row else -(f * y)
        if x.is_zero():
            del row[c]


@dataclass(frozen=True)
class NotInSpan:
    """Expansion failure: the exact residual left outside the span, one value
    per key of the sorted union of the basis keys and the element's keys."""

    residual: tuple


@dataclass(frozen=True)
class BasisFactorization:
    """A family's coordinate matrix A after one column-ordered Gauss-Jordan pass.

    The coordinates are the keys the elements store: (i, j) for an entry of
    an n x n matrix, (cdeg, adeg) for an operator term.  `keys` is the sorted
    union of the generators' keys, the rows of A in that order (row-major for
    matrices).  Column j of A, `columns[j]`, is a copy of generator j's
    {key: value} map.  Pivot k sits in key `pivot_keys[k]` and generator
    `pivot_cols[k]`; `inverse[k]` is row k of the exact inverse of the square
    pivot block A[pivot_keys, pivot_cols], as a dict {column: value} of its
    nonzero entries.  Generators that got no pivot are spanned by earlier ones.
    """

    family: GeneratorFamily
    keys: tuple
    columns: tuple
    pivot_keys: tuple
    pivot_cols: tuple
    inverse: tuple

    @property
    def dependent(self) -> tuple:
        """Labels whose generator lies in the span of the earlier ones."""
        return tuple(label for j, label in enumerate(self.family.labels)
                     if j not in self.pivot_cols)

    def expand(self, element):
        """Coefficients c = inverse @ rhs[pivot_keys], then an exact residual check."""
        fam = self.family
        if type(element) is not type(fam.element(fam.labels[0])):
            raise TypeError("element and basis have different representation kinds")
        if element.dim != fam.dim:
            raise ValueError("dimension mismatch between element and basis")
        rhs = element._nonzero
        picked = {s: rhs[key] for s, key in enumerate(self.pivot_keys) if key in rhs}
        coeffs = [ZERO] * len(self.columns)
        for j, row in zip(self.pivot_cols, self.inverse):
            coeffs[j] = sum((row[s] * x for s, x in picked.items() if s in row), ZERO)
        residual = dict(rhs)
        for c, col in zip(coeffs, self.columns):
            if not c.is_zero():
                _subtract(residual, c, col)
        if residual:    # keys outside the basis keys are left as they are
            return NotInSpan(tuple(residual.get(key, ZERO)
                                   for key in sorted(rhs.keys() | self.keys)))
        if len(self.pivot_cols) < len(self.columns):
            raise ValueError("basis is linearly dependent; expansion is not unique")
        return dict(zip(fam.labels, coeffs))


def factorize(basis: GeneratorFamily) -> BasisFactorization:
    """Eliminate the basis once, exactly over Q(i, sqrt2).

    Rows of [A | I] are reduced column by column; the right block collects
    the row operations, so on the pivot rows it ends up as the inverse of
    the pivot block.  Rows are dicts of their nonzero entries; a column's
    pivot is the first row, from the current one down, that is nonzero there.
    """
    columns = tuple(dict(e._nonzero) for _, e in basis.items())
    keys = tuple(sorted({key for col in columns for key in col}))
    n, m = len(columns), len(keys)
    rows = [{j: col[key] for j, col in enumerate(columns) if key in col} | {n + i: ONE}
            for i, key in enumerate(keys)]
    order = list(range(m))
    pivot_cols: list = []
    r = 0
    for col in range(n):
        if r == m:
            break
        p = next((i for i in range(r, m) if col in rows[i]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        order[r], order[p] = order[p], order[r]
        inv = rows[r][col].inverse()
        rows[r] = {c: x * inv for c, x in rows[r].items()}
        for i in range(m):
            if i != r and col in rows[i]:
                _subtract(rows[i], rows[i][col], rows[r])
        pivot_cols.append(col)
        r += 1
    at = {n + p: s for s, p in enumerate(order[:r])}
    inverse = tuple({at[c]: x for c, x in rows[k].items() if c in at} for k in range(r))
    return BasisFactorization(basis, keys, columns, tuple(keys[p] for p in order[:r]),
                              tuple(pivot_cols), inverse)


def expand_in_basis(element, basis):
    """Expand element in the family basis.

    `basis` is a GeneratorFamily or its BasisFactorization; pass the latter
    to expand many elements against one elimination.  Returns
    {label: ExactScalar} on success or NotInSpan(residual).  Raises
    TypeError or ValueError if the element lives on a different
    representation space, and ValueError if the basis is linearly dependent
    (no unique expansion exists).
    """
    if not isinstance(basis, BasisFactorization):
        basis = factorize(basis)
    return basis.expand(element)


def dependent_labels(basis: GeneratorFamily) -> tuple:
    """Labels whose generator lies in the span of the earlier ones."""
    return factorize(basis).dependent


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureConstants:
    """Sparse antisymmetric tensor f with [X_a, X_b] = sum_c f_abc X_c."""

    labels: tuple
    table: Mapping[tuple, ExactScalar]

    def f(self, a: str, b: str, c: str) -> ExactScalar:
        return self.table.get((a, b, c), ZERO)

    def bracket_coeffs(self, a: str, b: str) -> dict:
        return {c: v for (x, y, c), v in self.table.items() if (x, y) == (a, b)}

    def nonzero_triplets(self):
        """Both orientations, deterministic order."""
        order = {l: k for k, l in enumerate(self.labels)}
        keys = sorted(self.table, key=lambda t: (order[t[0]], order[t[1]], order[t[2]]))
        return [(a, b, c, self.table[(a, b, c)]) for (a, b, c) in keys]

    @staticmethod
    def from_brackets(labels: Sequence[str], brackets: Mapping) -> "StructureConstants":
        """Build from {(a, b): {c: coeff}} given for a before b; antisymmetrized."""
        table = {}
        for (a, b), rhs in brackets.items():
            for c, v in rhs.items():
                v = ExactScalar.coerce(v)
                if v.is_zero():
                    continue
                table[(a, b, c)] = v
                table[(b, a, c)] = -v
        return StructureConstants(tuple(labels), table)

    def to_json_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "triplets": [[a, b, c, str(v)] for a, b, c, v in self.nonzero_triplets()],
        }


@dataclass(frozen=True)
class ClosureReport:
    """Outcome of a closure computation over one family."""

    family: str
    variant: str
    closed: bool
    constants: StructureConstants | None
    failures: tuple = ()            # ((a, b), NotInSpan) pairs
    dependent: tuple = ()           # labels spanned by earlier generators


def structure_constants(basis: GeneratorFamily) -> ClosureReport:
    """Compute all pairwise brackets and expand them in the family basis.

    The basis is factored once and every bracket is expanded against that
    factorization.  Pairs are traversed in declared label order, and
    `StructureConstants.from_brackets` fills in their antisymmetric
    counterparts rather than recomputing them.  A linearly dependent family
    gets no constants table (expansion coefficients would not be unique).
    """
    fac = factorize(basis)
    if fac.dependent:
        return ClosureReport(basis.name, basis.variant, False, None,
                             (), fac.dependent)
    brackets: dict = {}
    failures: list = []
    for a, b in basis.pairs():
        result = expand_in_basis(bracket(basis.element(a), basis.element(b)), fac)
        if isinstance(result, NotInSpan):
            failures.append(((a, b), result))
        else:
            brackets[(a, b)] = result
    if failures:
        return ClosureReport(basis.name, basis.variant, False, None,
                             tuple(failures), ())
    return ClosureReport(basis.name, basis.variant, True,
                         StructureConstants.from_brackets(basis.labels, brackets))


def jacobi_check(constants: StructureConstants) -> bool:
    """Jacobi identity on the f tensor, summed over its nonzero entries; exact.

    For each label triple a < b < c and each e, the sum over d of
    f_abd f_dce + f_bcd f_dae + f_cad f_dbe must vanish.
    """
    rows: dict = {}
    for (a, b, d), v in constants.table.items():
        rows.setdefault((a, b), {})[d] = v
    for a, b, c in combinations(constants.labels, 3):
        acc: dict = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for d, f in rows.get((x, y), {}).items():
                for e, g in rows.get((d, z), {}).items():
                    acc[e] = acc.get(e, ZERO) + f * g
        if any(not v.is_zero() for v in acc.values()):
            return False
    return True


@dataclass(frozen=True)
class CompareResult:
    match: bool
    mismatches: tuple = ()          # (a, b, c, f_left, f_right)


def compare(left: StructureConstants, right: StructureConstants) -> CompareResult:
    """Compare two structure-constant tables over one label set.

    Representation dimension plays no role; only the tables are compared.
    """
    if len(left.labels) != len(right.labels):
        raise ValueError("families must have the same number of generators")
    if set(left.labels) != set(right.labels):
        raise ValueError("families must have the same generator labels")
    # only triples stored on either side can differ; visit them in left-label order
    position = {l: k for k, l in enumerate(left.labels)}
    triples = {t for table in (left.table, right.table) for t in table
               if all(l in position for l in t)}
    mismatches = []
    for a, b, c in sorted(triples, key=lambda t: [position[l] for l in t]):
        fl, fr = left.f(a, b, c), right.f(a, b, c)
        if fl != fr:
            mismatches.append((a, b, c, fl, fr))
    return CompareResult(not mismatches, tuple(mismatches))


def render_bracket_lines(constants: StructureConstants) -> list:
    """One text line per ordered pair: `[A, B] = c1 L1 + c2 L2` or `= 0`."""
    labels = constants.labels
    return [f"[{a}, {b}] = {render_combination(constants.bracket_coeffs(a, b), labels)}"
            for a, b in combinations(labels, 2)]


def render_combination(coeffs: Mapping[str, ExactScalar], label_order) -> str:
    return signed_sum(((coeffs.get(label, ZERO), label) for label in label_order), " ")
