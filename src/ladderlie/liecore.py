"""Exact Lie-algebraic analysis of generator families.

Each family's basis is factored once: one column-ordered Gauss-Jordan pass
over Q(i, sqrt2) records the pivot rows, the exact inverse of the square
pivot block and the generators that got no pivot (those spanned by earlier
ones).  Every bracket is then expanded as a mat-vec against that inverse and
confirmed by an exact residual check, and the Jacobi identity is summed over
the nonzero entries of the sparse bracket table only.  No numeric tolerance
enters anywhere.  Closure failures and linear dependencies are returned as
data, not exceptions, so typo'd variants can be reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .catalog import GeneratorFamily
from .matrices import ExactMatrix
from .opalg import OperatorExpr, commutator as op_commutator
from .scalars import ExactScalar, ONE, ZERO


def bracket(x, y):
    """Commutator dispatch for the two element kinds."""
    if isinstance(x, OperatorExpr) and isinstance(y, OperatorExpr):
        return op_commutator(x, y)
    if isinstance(x, ExactMatrix) and isinstance(y, ExactMatrix):
        return x.commutator(y)
    raise TypeError("bracket requires two OperatorExpr or two ExactMatrix")


# ---------------------------------------------------------------------------
# one exact factorization per basis
# ---------------------------------------------------------------------------


def _operator_keys(exprs) -> list:
    keys = set()
    for e in exprs:
        for mono in e.terms:
            keys.add((mono.cdeg, mono.adeg))
    return sorted(keys)


def _coordinates(element, keys) -> list:
    """Matrix entries in row-major order, or operator coefficients on keys."""
    if isinstance(element, ExactMatrix):
        return list(element.entries())
    return [element.coefficient(c, a) for (c, a) in keys]


@dataclass(frozen=True)
class NotInSpan:
    """Expansion failure: the exact residual left outside the span."""

    residual: tuple

    def max_component(self) -> ExactScalar:
        for x in self.residual:
            if not x.is_zero():
                return x
        return ZERO


@dataclass(frozen=True)
class BasisFactorization:
    """A family's coordinate matrix A after one column-ordered Gauss-Jordan pass.

    Column j of A holds the coordinates of generator j.  Pivot k sits in
    coordinate row `pivot_rows[k]` and column `pivot_cols[k]`; `inverse` is
    the exact inverse of the square pivot block A[pivot_rows, pivot_cols].
    Columns that got no pivot are spanned by earlier generators.
    """

    family: GeneratorFamily
    keys: tuple             # operator monomial keys; () for matrix families
    columns: tuple          # coordinates of each generator
    pivot_rows: tuple
    pivot_cols: tuple
    inverse: tuple          # rows of the inverse pivot block

    @property
    def dependent(self) -> tuple:
        """Labels whose generator lies in the span of the earlier ones."""
        return tuple(label for j, label in enumerate(self.family.labels)
                     if j not in self.pivot_cols)

    def expand(self, element):
        """Coefficients c = inverse @ rhs[pivot_rows], then an exact residual check."""
        fam = self.family
        if type(element) is not type(fam.element(fam.labels[0])):
            raise TypeError("element and basis have different representation kinds")
        if GeneratorFamily._dim_of(element) != fam.dim:
            raise ValueError("dimension mismatch between element and basis")
        rhs = _coordinates(element, self.keys)
        picked = [rhs[i] for i in self.pivot_rows]
        coeffs = [ZERO] * len(self.columns)
        for j, row in zip(self.pivot_cols, self.inverse):
            acc = ZERO
            for v, x in zip(row, picked):
                if not (v.is_zero() or x.is_zero()):
                    acc = acc + v * x
            coeffs[j] = acc
        residual = rhs
        for c, col in zip(coeffs, self.columns):
            if not c.is_zero():
                residual = [x if y.is_zero() else x - c * y
                            for x, y in zip(residual, col)]
        if isinstance(element, OperatorExpr):
            # terms outside the basis support are left over as they are
            at = dict(zip(self.keys, residual))
            residual = [at[k] if k in at else element.coefficient(*k)
                        for k in sorted(set(self.keys).union(_operator_keys([element])))]
        if any(not x.is_zero() for x in residual):
            return NotInSpan(tuple(residual))
        if len(self.pivot_cols) < len(self.columns):
            raise ValueError("basis is linearly dependent; expansion is not unique")
        return dict(zip(fam.labels, coeffs))


def factorize(basis: GeneratorFamily) -> BasisFactorization:
    """Eliminate the basis once, exactly over Q(i, sqrt2).

    Rows of [A | I] are reduced column by column; the right block collects
    the row operations, so on the pivot rows it ends up as the inverse of
    the pivot block.
    """
    elements = [e for _, e in basis.items()]
    keys = tuple(_operator_keys(elements)) if basis.kind == "operator" else ()
    columns = tuple(tuple(_coordinates(e, keys)) for e in elements)
    n, m = len(columns), len(columns[0])
    rows = [[col[i] for col in columns] + [ONE if k == i else ZERO for k in range(m)]
            for i in range(m)]
    order = list(range(m))
    pivot_cols: list = []
    r = 0
    for col in range(n):
        if r == m:
            break
        p = next((i for i in range(r, m) if not rows[i][col].is_zero()), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        order[r], order[p] = order[p], order[r]
        inv = rows[r][col].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            f = rows[i][col]
            if i != r and not f.is_zero():
                rows[i] = [x if y.is_zero() else x - f * y
                           for x, y in zip(rows[i], rows[r])]
        pivot_cols.append(col)
        r += 1
    pivot_rows = tuple(order[:r])
    inverse = tuple(tuple(rows[k][n + i] for i in pivot_rows) for k in range(r))
    return BasisFactorization(basis, keys, columns, pivot_rows, tuple(pivot_cols),
                              inverse)


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
    factorization.  Pairs are traversed in declared label order;
    antisymmetric counterparts are filled in rather than recomputed.  A
    linearly dependent family gets no constants table (expansion
    coefficients would not be unique).
    """
    fac = factorize(basis)
    if fac.dependent:
        return ClosureReport(basis.name, basis.variant, False, None,
                             (), fac.dependent)
    table: dict = {}
    failures: list = []
    for a, b in basis.pairs():
        com = bracket(basis.element(a), basis.element(b))
        result = expand_in_basis(com, fac)
        if isinstance(result, NotInSpan):
            failures.append(((a, b), result))
            continue
        for c, v in result.items():
            if not v.is_zero():
                table[(a, b, c)] = v
                table[(b, a, c)] = -v
    if failures:
        return ClosureReport(basis.name, basis.variant, False, None,
                             tuple(failures), ())
    return ClosureReport(basis.name, basis.variant, True,
                         StructureConstants(basis.labels, table))


def jacobi_check(constants: StructureConstants) -> bool:
    """Jacobi identity on the f tensor, summed over its nonzero entries; exact.

    For each label triple a < b < c and each e, the sum over d of
    f_abd f_dce + f_bcd f_dae + f_cad f_dbe must vanish.
    """
    rows: dict = {}
    for (a, b, d), v in constants.table.items():
        rows.setdefault((a, b), {})[d] = v
    labels = constants.labels
    n = len(labels)
    for ia in range(n):
        for ib in range(ia + 1, n):
            for ic in range(ib + 1, n):
                a, b, c = labels[ia], labels[ib], labels[ic]
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


def compare(left: StructureConstants, right: StructureConstants,
            correspondence: Mapping[str, str] | None = None) -> CompareResult:
    """Compare two structure-constant tables under a label correspondence.

    `correspondence` maps left labels to right labels (identity by default).
    Representation dimension plays no role; only the tables are compared.
    """
    if len(left.labels) != len(right.labels):
        raise ValueError("families must have the same number of generators")
    if correspondence is None:
        correspondence = {l: l for l in left.labels}
    if set(correspondence) != set(left.labels) or \
            set(correspondence.values()) != set(right.labels):
        raise ValueError("correspondence must be a bijection between label sets")
    mismatches = []
    for a in left.labels:
        for b in left.labels:
            for c in left.labels:
                fl = left.f(a, b, c)
                fr = right.f(correspondence[a], correspondence[b], correspondence[c])
                if fl != fr:
                    mismatches.append((a, b, c, fl, fr))
    return CompareResult(not mismatches, tuple(mismatches))


def render_bracket_lines(constants: StructureConstants) -> list:
    """One text line per ordered pair: `[A, B] = c1 L1 + c2 L2` or `= 0`."""
    lines = []
    for i, a in enumerate(constants.labels):
        for b in constants.labels[i + 1:]:
            coeffs = constants.bracket_coeffs(a, b)
            lines.append(f"[{a}, {b}] = {render_combination(coeffs, constants.labels)}")
    return lines


def render_combination(coeffs: Mapping[str, ExactScalar], label_order) -> str:
    parts = []
    for label in label_order:
        v = coeffs.get(label, ZERO)
        if v.is_zero():
            continue
        if v == ONE:
            body = label
        elif v == -ONE:
            body = f"-{label}"
        elif v.component_count() > 1:
            body = f"({v}) {label}"
        else:
            body = f"{v} {label}"
        parts.append(body)
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out
