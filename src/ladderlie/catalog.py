"""Generator families: ladder-operator sets and their matrix representations.

Each family is a named, ordered set of generators (all OperatorExpr or all
ExactMatrix) with an optional invariant metric.  Families that circulate with
typo'd coefficient conventions are available both in a `canonical` variant
(normalized so the expected bracket table holds exactly) and in the
commonly tabulated variant, kept so the verifier can surface the
inconsistencies as findings instead of silently repairing them.

The *_bracket_targets functions return the bracket tables the families are
checked against; coefficients are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .matrices import ExactMatrix, kron
from .opalg import OperatorExpr, annihilation_op, creation_op
from .scalars import ExactScalar, HALF, I, ONE, ZERO

CANONICAL = "canonical"
AS_PRINTED = "as-printed"

_QUARTER = ExactScalar(Fraction(1, 4))
_I_HALF = I * HALF
_I_QUARTER = I * _QUARTER


@dataclass(frozen=True)
class GeneratorFamily:
    """Ordered set of generators sharing one representation space."""

    name: str
    labels: tuple
    elements: Mapping[str, object]
    metric: ExactMatrix | None = None
    provenance: str = ""
    variant: str = CANONICAL

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(set(labels)) != len(labels):
            raise ValueError("generator labels must be unique")
        if set(self.elements) != set(labels):
            raise ValueError("elements must cover exactly the declared labels")
        kinds = {type(self.elements[l]) for l in labels}
        if len(kinds) != 1 or next(iter(kinds)) not in (OperatorExpr, ExactMatrix):
            raise ValueError("elements must be all OperatorExpr or all ExactMatrix")
        dims = {self._dim_of(self.elements[l]) for l in labels}
        if len(dims) != 1:
            raise ValueError("all generators must share one representation space")

    @staticmethod
    def _dim_of(el):
        return el.modes if isinstance(el, OperatorExpr) else el.n

    @property
    def kind(self) -> str:
        return "operator" if isinstance(self.elements[self.labels[0]], OperatorExpr) else "matrix"

    @property
    def dim(self) -> int:
        return self._dim_of(self.elements[self.labels[0]])

    def element(self, label: str):
        return self.elements[label]

    def items(self):
        for label in self.labels:
            yield label, self.elements[label]

    def pairs(self):
        """Ordered label pairs (a, b) with a before b; deterministic."""
        for i, a in enumerate(self.labels):
            for b in self.labels[i + 1:]:
                yield a, b

    def restrict(self, indices) -> "GeneratorFamily":
        """Matrix families only: principal submatrix on the given indices."""
        if self.kind != "matrix":
            raise ValueError("restrict applies to matrix families")
        els = {l: m.submatrix(indices) for l, m in self.items()}
        metric = self.metric.submatrix(indices) if self.metric is not None else None
        return GeneratorFamily(self.name + "-restricted", self.labels, els,
                               metric, self.provenance, self.variant)


# ---------------------------------------------------------------------------
# single-mode families {J2, K1, K3}
# ---------------------------------------------------------------------------

SP2_LABELS = ("J2", "K1", "K3")


def sp2_oscillator(variant: str = CANONICAL) -> GeneratorFamily:
    """Single-mode quadratic generators {J2, K1, K3}.

    `text` and `table` are the two circulated coefficient conventions; both
    close, but with doubled structure constants (and `table` flips the sign
    of [K1, K3]).  `canonical` is the text convention scaled by 1/2, the
    unique rescaling that satisfies the target brackets exactly.
    """
    _check_variant("sp2-oscillator", variant)
    a = annihilation_op(1, 1)
    ad = creation_op(1, 1)
    sym = a * ad + ad * a          # 2*N + 1
    plus = ad * ad + a * a
    minus = ad * ad - a * a
    if variant == "text":
        els = {"J2": sym * HALF, "K1": plus * HALF, "K3": minus * _I_HALF}
    elif variant == "table":
        els = {"J2": sym * HALF, "K1": plus * (-_I_HALF), "K3": minus * HALF}
    else:
        els = {"J2": sym * _QUARTER, "K1": plus * _QUARTER, "K3": minus * _I_QUARTER}
    return GeneratorFamily(
        "sp2-oscillator", SP2_LABELS, els, None,
        f"single-mode quadratic ladder generators, {variant} normalization",
        variant)


def _pauli(k: int) -> ExactMatrix:
    if k == 1:
        return ExactMatrix([[ZERO, ONE], [ONE, ZERO]])
    if k == 2:
        return ExactMatrix([[ZERO, -I], [I, ZERO]])
    if k == 3:
        return ExactMatrix([[ONE, ZERO], [ZERO, -ONE]])
    raise ValueError("Pauli index must be 1, 2 or 3")


def sp2_pauli() -> GeneratorFamily:
    """Two-by-two phase-space representation {sigma2/2, i sigma1/2, i sigma3/2}."""
    els = {
        "J2": _pauli(2) * HALF,
        "K1": _pauli(1) * _I_HALF,
        "K3": _pauli(3) * _I_HALF,
    }
    return GeneratorFamily("sp2-pauli", SP2_LABELS, els, None,
                           "two-by-two phase-space rotation and squeeze generators")


def sp2_minkowski4(variant: str = CANONICAL) -> GeneratorFamily:
    """Four-by-four generators on (x, y, z, t): y-axis rotation, two boosts.

    The commonly tabulated J2 is symmetric (+i in both off-diagonal slots),
    which breaks closure; the canonical J2 is antisymmetric.
    """
    _check_variant("sp2-minkowski4", variant)
    j2 = {(0, 2): I, (2, 0): I if variant == AS_PRINTED else -I}
    els = {
        "J2": ExactMatrix.from_entries(4, j2),
        "K1": ExactMatrix.from_entries(4, {(0, 3): I, (3, 0): I}),
        "K3": ExactMatrix.from_entries(4, {(2, 3): I, (3, 2): I}),
    }
    metric = ExactMatrix.diag([ONE, ONE, ONE, -ONE])
    return GeneratorFamily("sp2-minkowski4", SP2_LABELS, els, metric,
                           "rotation about y and boosts along x, z on (x, y, z, t)",
                           variant)


def sp2_bracket_targets() -> dict:
    """Expected brackets [J2,K1] = -iK3, [J2,K3] = +iK1, [K1,K3] = +iJ2: the
    ten-generator table restricted to SP2_LABELS."""
    table = de_sitter_bracket_targets()
    return {(a, b): table[a, b]
            for i, a in enumerate(SP2_LABELS) for b in SP2_LABELS[i + 1:]}


# ---------------------------------------------------------------------------
# ten-generator families {J1..3, S0, K1..3, Q1..3}
# ---------------------------------------------------------------------------

TEN_LABELS = ("J1", "J2", "J3", "S0", "K1", "K2", "K3", "Q1", "Q2", "Q3")


def two_mode_oscillator(variant: str = CANONICAL) -> GeneratorFamily:
    """Two-mode quadratic generators: rotations J, boosts K, Q, and S0.

    The commonly tabulated Q1, Q2, Q3 carry the opposite sign, which flips
    every bracket that couples to S0; `canonical` negates the three Qs so the
    full target table (and the positive S0 spectrum) holds.
    """
    _check_variant("two-mode-oscillator", variant)
    a1, a2 = annihilation_op(1, 2), annihilation_op(2, 2)
    ad1, ad2 = creation_op(1, 2), creation_op(2, 2)
    A1, A2 = ad1 * ad1, ad2 * ad2
    B1, B2 = a1 * a1, a2 * a2
    C, D = ad1 * ad2, a1 * a2

    els = {
        "J1": (ad1 * a2 + ad2 * a1) * HALF,
        "J2": (ad1 * a2 - ad2 * a1) * (-_I_HALF),
        "J3": (ad1 * a1 - ad2 * a2) * HALF,
        "S0": (ad1 * a1 + a2 * ad2) * HALF,
        "K1": (A1 + B1 - A2 - B2) * (-_QUARTER),
        "K2": (A1 - B1 + A2 - B2) * _I_QUARTER,
        "K3": (C + D) * HALF,
        "Q1": (A1 - B1 - A2 + B2) * (-_I_QUARTER),
        "Q2": (A1 + B1 + A2 + B2) * (-_QUARTER),
        "Q3": (C - D) * _I_HALF,
    }
    if variant == CANONICAL:
        for q in ("Q1", "Q2", "Q3"):
            els[q] = -els[q]
    return GeneratorFamily(
        "two-mode-oscillator", TEN_LABELS, els, None,
        f"two-mode quadratic ladder generators, {variant} Q-sign convention",
        variant)


def sp4_matrices(variant: str = CANONICAL) -> GeneratorFamily:
    """Four-by-four symplectic generators on (x1, p1, x2, p2).

    Kronecker-of-Pauli form.  The commonly tabulated Q3 slot repeats the S0
    matrix, leaving a linearly dependent set; `canonical` uses the
    independent Q3 = (i/2) sigma1 x sigma3.
    """
    _check_variant("sp4", variant)
    s1, s2, s3 = _pauli(1), _pauli(2), _pauli(3)
    i2 = ExactMatrix.identity(2)
    els = {
        "J1": kron(s1, s2) * (-HALF),
        "J2": kron(s2, i2) * HALF,
        "J3": kron(s3, s2) * (-HALF),
        "S0": kron(i2, s2) * HALF,
        "K1": kron(s3, s1) * _I_HALF,
        "K2": kron(i2, s3) * _I_HALF,
        "K3": kron(s1, s1) * (-_I_HALF),
        "Q1": kron(s3, s3) * (-_I_HALF),
        "Q2": kron(i2, s1) * _I_HALF,
        "Q3": kron(s1, s3) * _I_HALF,
    }
    if variant == AS_PRINTED:
        els["Q3"] = kron(i2, s2) * HALF  # duplicates S0
    metric = kron(ExactMatrix.identity(2), s2 * I)  # block-diagonal [[0,1],[-1,0]]
    return GeneratorFamily(
        "sp4", TEN_LABELS, els, metric,
        f"four-by-four symplectic generators on (x1, p1, x2, p2), {variant}",
        variant)


def o32_matrices() -> GeneratorFamily:
    """Five-by-five pseudo-orthogonal generators on (x, y, z, t, s)."""
    els = {
        "J1": ExactMatrix.from_entries(5, {(1, 2): -I, (2, 1): I}),
        "J2": ExactMatrix.from_entries(5, {(0, 2): I, (2, 0): -I}),
        "J3": ExactMatrix.from_entries(5, {(0, 1): -I, (1, 0): I}),
        "S0": ExactMatrix.from_entries(5, {(3, 4): -I, (4, 3): I}),
        "K1": ExactMatrix.from_entries(5, {(0, 3): I, (3, 0): I}),
        "K2": ExactMatrix.from_entries(5, {(1, 3): I, (3, 1): I}),
        "K3": ExactMatrix.from_entries(5, {(2, 3): I, (3, 2): I}),
        "Q1": ExactMatrix.from_entries(5, {(0, 4): I, (4, 0): I}),
        "Q2": ExactMatrix.from_entries(5, {(1, 4): I, (4, 1): I}),
        "Q3": ExactMatrix.from_entries(5, {(2, 4): I, (4, 2): I}),
    }
    metric = ExactMatrix.diag([ONE, ONE, ONE, -ONE, -ONE])
    return GeneratorFamily(
        "o32", TEN_LABELS, els, metric,
        "rotations, two boost triplets and S0 on (x, y, z, t, s), "
        "metric diag(1, 1, 1, -1, -1)")


def _epsilon(i: int, j: int, k: int) -> int:
    if (i, j, k) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        return 1
    if (i, j, k) in ((1, 3, 2), (3, 2, 1), (2, 1, 3)):
        return -1
    return 0


def de_sitter_bracket_targets() -> dict:
    """Expected ten-generator table.

    [Ji,Jj] = i eps Jk, [Ji,Kj] = i eps Kk, [Ji,Qj] = i eps Qk,
    [Ki,Kj] = -i eps Jk, [Qi,Qj] = -i eps Jk, [Ki,Qj] = -i delta_ij S0,
    [Ji,S0] = 0, [Ki,S0] = -i Qi, [Qi,S0] = +i Ki.
    """
    out: dict = {}

    def put(a, b, rhs):
        out[(a, b)] = {l: c for l, c in rhs.items() if not c.is_zero()}

    for i in range(1, 4):
        for j in range(1, 4):
            if i == j:
                continue
            for k in range(1, 4):
                e = _epsilon(i, j, k)
                if e:
                    put(f"J{i}", f"J{j}", {f"J{k}": I * e})
                    put(f"J{i}", f"K{j}", {f"K{k}": I * e})
                    put(f"J{i}", f"Q{j}", {f"Q{k}": I * e})
                    put(f"K{i}", f"K{j}", {f"J{k}": -I * e})
                    put(f"Q{i}", f"Q{j}", {f"J{k}": -I * e})
        put(f"J{i}", f"K{i}", {})
        put(f"J{i}", f"Q{i}", {})
        put(f"J{i}", "S0", {})
        put(f"K{i}", "S0", {f"Q{i}": -I})
        put(f"Q{i}", "S0", {f"K{i}": I})
        for j in range(1, 4):
            put(f"K{i}", f"Q{j}", {"S0": -I} if i == j else {})
    return out


# ---------------------------------------------------------------------------
# translations and the contracted (Poincare) target table
# ---------------------------------------------------------------------------

POINCARE_LABELS = ("J1", "J2", "J3", "K1", "K2", "K3", "P1", "P2", "P3", "P0")

# The squeeze contraction fixes J and K and flattens Q1..3, S0 onto the
# translations P1..3, P0.
CONTRACTION_RELABEL = {
    "J1": "J1", "J2": "J2", "J3": "J3",
    "K1": "K1", "K2": "K2", "K3": "K3",
    "Q1": "P1", "Q2": "P2", "Q3": "P3", "S0": "P0",
}


def translation_matrices() -> GeneratorFamily:
    """Nilpotent translation generators acting on (x, y, z, t, 1)."""
    els = {
        "P1": ExactMatrix.from_entries(5, {(0, 4): I}),
        "P2": ExactMatrix.from_entries(5, {(1, 4): I}),
        "P3": ExactMatrix.from_entries(5, {(2, 4): I}),
        "P0": ExactMatrix.from_entries(5, {(3, 4): -I}),
    }
    return GeneratorFamily(
        "translations", ("P1", "P2", "P3", "P0"), els, None,
        "space and time translation generators, last column only")


def poincare_bracket_targets() -> dict:
    """Expected table for the contracted family (computed convention).

    The spatial-index boost/translation brackets are [Pi,Kj] = i delta_ij P0,
    [Ki,P0] = -i Pi; the tabulated relation with delta_0i instead vanishes
    for spatial i and is surfaced as a discrepancy note by the verifier.
    It is the de Sitter table relabelled by CONTRACTION_RELABEL, with every
    bracket of two translations emptied.
    """
    rl = CONTRACTION_RELABEL
    out = {}
    for (a, b), rhs in de_sitter_bracket_targets().items():
        commute = rl[a] != a and rl[b] != b     # both flatten onto translations
        out[(rl[a], rl[b])] = {} if commute else {rl[l]: c for l, c in rhs.items()}
    return out


# The commonly tabulated boost/translation relation the verifier records a
# discrepancy against: [Pi, Ki] proportional to delta_{0i}, i.e. zero for
# every spatial index.
PRINTED_BOOST_TRANSLATION_NOTE = (
    "computed [P1,K1] = [P2,K2] = [P3,K3] = i P0; the commonly tabulated "
    "relation (proportional to delta_0i) vanishes for spatial indices")


# ---------------------------------------------------------------------------
# Hermitian block matrices of quadratic products
# ---------------------------------------------------------------------------


def _single_mode_block(mode: int, modes: int) -> tuple:
    """2x2 block ((h, a a), (ad ad, h)) of one mode, h = (a ad + ad a)/2."""
    a, ad = annihilation_op(mode, modes), creation_op(mode, modes)
    h = (a * ad + ad * a) * HALF
    return ((h, a * a), (ad * ad, h))


def single_mode_block_matrix() -> tuple:
    """2x2 operator-valued matrix of single-mode quadratics; self-adjoint."""
    return _single_mode_block(1, 1)


def off_diagonal_block() -> tuple:
    """2x2 cross-mode block of the coupled matrix."""
    a1, a2 = annihilation_op(1, 2), annihilation_op(2, 2)
    ad1, ad2 = creation_op(1, 2), creation_op(2, 2)
    return ((ad1 * a2, a1 * a2),
            (ad1 * ad2, a1 * ad2))


def coupled_block_matrix() -> tuple:
    """4x4 operator-valued matrix coupling the two modes; self-adjoint.

    The single-mode blocks of modes 1 and 2 on the diagonal, B = off_diagonal_block()
    at the top right and B^dagger at the bottom left.
    """
    b = off_diagonal_block()
    b_dagger = tuple(tuple(b[j][i].adjoint() for j in range(2)) for i in range(2))
    left = _single_mode_block(1, 2) + b_dagger
    right = b + _single_mode_block(2, 2)
    return tuple(l + r for l, r in zip(left, right))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _poincare() -> GeneratorFamily:
    """The squeeze contraction of `o32_matrices`, `contract.contract_o32`."""
    from .contract import contract_o32     # contract imports this module
    return contract_o32()


# One row per family: name, variants, builder; a single-variant builder takes
# no argument.  Rows of a module-level tuple, so that perfbench's tracer,
# which rebinds functions it finds in module attributes, dicts and tuples,
# reaches the builders.
_FAMILIES = (
    ("sp2-oscillator", (CANONICAL, "text", "table"), sp2_oscillator),
    ("sp2-pauli", (CANONICAL,), sp2_pauli),
    ("sp2-minkowski4", (CANONICAL, AS_PRINTED), sp2_minkowski4),
    ("two-mode-oscillator", (CANONICAL, AS_PRINTED), two_mode_oscillator),
    ("sp4", (CANONICAL, AS_PRINTED), sp4_matrices),
    ("o32", (CANONICAL,), o32_matrices),
    ("translations", (CANONICAL,), translation_matrices),
    ("poincare", (CANONICAL,), _poincare),
)

FAMILY_VARIANTS = {name: variants for name, variants, _ in _FAMILIES}


def _check_variant(name: str, variant: str):
    """Raise ValueError unless the registry row of family `name` lists `variant`."""
    allowed = FAMILY_VARIANTS[name]
    if variant not in allowed:
        raise ValueError(f"family {name!r} has no variant {variant!r}; "
                         f"available: {', '.join(allowed)}")


def family(name: str, variant: str = CANONICAL) -> GeneratorFamily:
    """Look up a family by registry name; raises KeyError for unknown names."""
    for known, allowed, build in _FAMILIES:
        if known == name:
            _check_variant(name, variant)
            return build(variant) if len(allowed) > 1 else build()
    raise KeyError(name)
