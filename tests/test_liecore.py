"""Closure, structure constants, Jacobi identity, representation comparison."""

from fractions import Fraction
from functools import cache, partial
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from ladderlie.catalog import (AS_PRINTED, FAMILY_VARIANTS, GeneratorFamily,
                               de_sitter_bracket_targets, family,
                               o32_matrices, poincare_bracket_targets,
                               sp2_bracket_targets, sp2_minkowski4,
                               sp2_oscillator, sp2_pauli, sp4_matrices,
                               translation_matrices, two_mode_oscillator)
from ladderlie.contract import contract_o32
from ladderlie.liecore import (ClosureReport, CompareResult, NotInSpan,
                               StructureConstants, _memo_bracket, bracket, compare,
                               dependent_labels, expand_in_basis, factorize,
                               jacobi_check, render_bracket_lines,
                               render_combination, structure_constants)
from ladderlie.matrices import ExactMatrix
from ladderlie.opalg import OperatorExpr, commutator, creation_op, parse_expr
from ladderlie.scalars import ExactScalar, HALF, I, ONE, ZERO


def _target_constants(labels, targets):
    return StructureConstants.from_brackets(labels, targets)


def test_sp2_canonical_closure_all_representations():
    want = _target_constants(sp2_oscillator().labels, sp2_bracket_targets())
    for fam in (sp2_oscillator(), sp2_pauli(), sp2_minkowski4()):
        rep = structure_constants(fam)
        assert rep.closed and not rep.dependent
        assert compare(rep.constants, want).match
        assert jacobi_check(rep.constants)


def test_sp2_bracket_values():
    rep = structure_constants(sp2_oscillator())
    assert rep.constants.bracket_coeffs("J2", "K1") == {"K3": -I}
    assert rep.constants.bracket_coeffs("J2", "K3") == {"K1": I}
    assert rep.constants.bracket_coeffs("K1", "K3") == {"J2": I}


def test_sp2_text_variant_doubles_constants():
    rep = structure_constants(sp2_oscillator("text"))
    assert rep.closed
    assert rep.constants.bracket_coeffs("J2", "K1") == {"K3": -2 * I}
    assert rep.constants.bracket_coeffs("K1", "K3") == {"J2": 2 * I}
    # doubled constants still satisfy Jacobi but differ from the target
    assert jacobi_check(rep.constants)
    want = _target_constants(rep.constants.labels, sp2_bracket_targets())
    assert not compare(rep.constants, want).match


def test_sp2_table_variant_flips_a_sign():
    rep = structure_constants(sp2_oscillator("table"))
    assert rep.closed
    assert rep.constants.bracket_coeffs("K1", "K3") == {"J2": -2 * I}


def test_sp2_minkowski_as_printed_does_not_close():
    rep = structure_constants(sp2_minkowski4(AS_PRINTED))
    assert not rep.closed
    assert (("J2", "K1") in [pair for pair, _ in rep.failures]
            or ("J2", "K3") in [pair for pair, _ in rep.failures])


def test_ten_generator_closure_and_targets():
    want = _target_constants(two_mode_oscillator().labels,
                             de_sitter_bracket_targets())
    for fam in (two_mode_oscillator(), sp4_matrices(), o32_matrices()):
        rep = structure_constants(fam)
        assert rep.closed and not rep.dependent
        assert compare(rep.constants, want).match
        assert jacobi_check(rep.constants)


def test_ten_generator_selected_brackets():
    rep = structure_constants(two_mode_oscillator())
    c = rep.constants
    assert c.bracket_coeffs("J1", "J2") == {"J3": I}
    assert c.bracket_coeffs("K1", "Q1") == {"S0": -I}
    assert c.bracket_coeffs("K2", "Q2") == {"S0": -I}
    assert c.bracket_coeffs("S0", "K1") == {"Q1": I}
    assert c.bracket_coeffs("S0", "Q1") == {"K1": -I}
    assert c.bracket_coeffs("K1", "K2") == {"J3": -I}
    assert c.bracket_coeffs("Q1", "Q2") == {"J3": -I}
    assert c.bracket_coeffs("J1", "S0") == {}
    assert c.bracket_coeffs("K1", "Q2") == {}


def test_two_mode_as_printed_flips_s0_sector():
    rep = structure_constants(two_mode_oscillator(AS_PRINTED))
    assert rep.closed
    c = rep.constants
    assert c.bracket_coeffs("K1", "Q1") == {"S0": I}
    assert c.bracket_coeffs("S0", "K1") == {"Q1": -I}
    # the rotation sector is unaffected
    assert c.bracket_coeffs("J1", "J2") == {"J3": I}


def test_sp4_as_printed_is_dependent():
    rep = structure_constants(sp4_matrices(AS_PRINTED))
    assert rep.dependent == ("Q3",)
    assert not rep.closed
    assert rep.constants is None


def test_translations_commute():
    rep = structure_constants(translation_matrices())
    assert rep.closed
    assert not rep.constants.nonzero_triplets()


def test_cross_representation_compare():
    osc = structure_constants(sp2_oscillator()).constants
    pauli = structure_constants(sp2_pauli()).constants
    assert compare(osc, pauli).match
    two = structure_constants(two_mode_oscillator()).constants
    sp4 = structure_constants(sp4_matrices()).constants
    o32 = structure_constants(o32_matrices()).constants
    assert compare(two, sp4).match
    assert compare(two, o32).match


def test_compare_reports_mismatches():
    osc = structure_constants(sp2_oscillator()).constants
    text = structure_constants(sp2_oscillator("text")).constants
    result = compare(osc, text)
    assert not result.match
    assert ("J2", "K1", "K3") in [(a, b, c) for a, b, c, _, _ in result.mismatches]


def test_compare_with_correspondence():
    osc = structure_constants(sp2_oscillator()).constants
    relabeled = StructureConstants.from_brackets(
        ("R", "B1", "B3"),
        {("R", "B1"): {"B3": -I}, ("R", "B3"): {"B1": I},
         ("B1", "B3"): {"R": I}})
    with pytest.raises(ValueError, match="same generator labels"):
        compare(osc, relabeled)
    with pytest.raises(ValueError, match="same number of generators"):
        compare(osc, structure_constants(sp4_matrices()).constants)


def test_restricted_minkowski_matches_pauli():
    sub = sp2_minkowski4().restrict((0, 2, 3))
    rep = structure_constants(sub)
    pauli = structure_constants(sp2_pauli()).constants
    assert rep.closed and compare(rep.constants, pauli).match


def test_expand_in_basis_operator():
    fam = two_mode_oscillator()
    target = fam.element("J1") * 2 - fam.element("S0") * I
    coeffs = expand_in_basis(target, fam)
    nonzero = {k: v for k, v in coeffs.items() if not v.is_zero()}
    assert nonzero == {"J1": ExactScalar.rational(2), "S0": -I}


def test_expand_in_basis_not_in_span():
    result = expand_in_basis(ExactMatrix.identity(2), sp2_pauli())
    assert isinstance(result, NotInSpan)
    assert any(not x.is_zero() for x in result.residual)


def test_expand_rejects_mixed_kinds():
    with pytest.raises(TypeError):
        expand_in_basis(parse_expr("ad1*a1", 1), sp2_pauli())
    # one kind, another dimension
    with pytest.raises(ValueError, match="dimension mismatch between element and basis"):
        expand_in_basis(ExactMatrix.identity(3), sp2_pauli())


def test_dependent_labels():
    assert dependent_labels(sp4_matrices(AS_PRINTED)) == ("Q3",)
    assert dependent_labels(sp4_matrices()) == ()


def test_corrupted_table_fails_jacobi():
    targets = de_sitter_bracket_targets()
    labels = two_mode_oscillator().labels
    good = StructureConstants.from_brackets(labels, targets)
    assert jacobi_check(good)
    bad_targets = dict(targets)
    bad_targets[("K1", "Q1")] = {"S0": I}     # sign flipped
    bad = StructureConstants.from_brackets(labels, bad_targets)
    assert not jacobi_check(bad)


def test_render_bracket_lines():
    rep = structure_constants(two_mode_oscillator())
    lines = render_bracket_lines(rep.constants)
    assert "[K1, Q1] = -i S0" in lines
    assert "[J1, J2] = i J3" in lines
    assert "[J1, S0] = 0" in lines
    assert len(lines) == 45


def test_render_combination():
    labels = ("A", "B")
    assert render_combination({}, labels) == "0"
    assert render_combination({"A": ONE}, labels) == "A"
    assert render_combination({"A": -ONE}, labels) == "-A"
    assert render_combination({"A": I, "B": -HALF}, labels) == "i A - 1/2 B"
    assert render_combination({"B": HALF + I}, labels) == "(1/2 + i) B"


def test_structure_constants_json_dict():
    rep = structure_constants(sp2_oscillator())
    d = rep.constants.to_json_dict()
    assert d["labels"] == ["J2", "K1", "K3"]
    assert ["J2", "K1", "K3", "-i"] in d["triplets"]


# ---------------------------------------------------------------------------
# oracles for the once-per-family factorization and the sparse Jacobi check
# ---------------------------------------------------------------------------

ALL_FAMILIES = [family(name, variant) for name, variants in FAMILY_VARIANTS.items()
                for variant in variants] + [sp2_minkowski4().restrict((0, 2, 3))]
# fixed lists, not computed at collection, so a regression fails tests
# instead of dropping cases
DEPENDENT_IDS = ("sp4[as-printed]",)
NOT_CLOSING_IDS = ("sp2-minkowski4[as-printed]",)

_small = st.integers(-3, 3)
scalars = st.builds(lambda a, b, c, d, q: ExactScalar(Fraction(a, q), Fraction(b, q),
                                                      Fraction(c, q), Fraction(d, q)),
                    _small, _small, _small, _small, st.integers(1, 3))
nonzero_scalars = scalars.filter(lambda x: not x.is_zero())


def _combination(elements, coeffs):
    out = elements[0] * coeffs[0]
    for el, c in zip(elements[1:], coeffs[1:]):
        out = out + el * c
    return out


def _fam_id(fam):
    return f"{fam.name}[{fam.variant}]"


INDEPENDENT = [fam for fam in ALL_FAMILIES if _fam_id(fam) not in DEPENDENT_IDS]


def test_dependent_and_closing_families_are_the_expected_ones():
    assert tuple(_fam_id(fam) for fam in ALL_FAMILIES if dependent_labels(fam)) == DEPENDENT_IDS
    closing = [_fam_id(fam) for fam in INDEPENDENT if structure_constants(fam).closed]
    assert len(INDEPENDENT) == 13
    assert closing == [_fam_id(fam) for fam in INDEPENDENT
                       if _fam_id(fam) not in NOT_CLOSING_IDS]
    assert len(closing) == 12


def dense_jacobi(constants: StructureConstants) -> bool:
    """Reference: the contracted identity summed over every (d, e), n^5 terms."""
    labels = constants.labels
    f = constants.f
    for ia, a in enumerate(labels):
        for ib in range(ia + 1, len(labels)):
            b = labels[ib]
            for c in labels[ib + 1:]:
                for e in labels:
                    acc = ZERO
                    for d in labels:
                        acc = (acc + f(a, b, d) * f(d, c, e) + f(b, c, d) * f(d, a, e)
                               + f(c, a, d) * f(d, b, e))
                    if not acc.is_zero():
                        return False
    return True


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=_fam_id)
def test_factorization_inverts_the_pivot_block(fam):
    fac = factorize(fam)
    block = [[fac.columns[j].get(key, ZERO) for j in fac.pivot_cols] for key in fac.pivot_keys]
    k = len(block)
    for r in range(k):
        for c in range(k):
            entry = ZERO
            for s in range(k):
                entry = entry + fac.inverse[r].get(s, ZERO) * block[s][c]
            assert entry == (ONE if r == c else ZERO)


@pytest.mark.parametrize("fam", INDEPENDENT, ids=_fam_id)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_expansion_reconstructs_random_combinations(fam, data):
    elements = [el for _, el in fam.items()]
    coeffs = data.draw(st.lists(scalars, min_size=len(elements), max_size=len(elements)))
    element = _combination(elements, coeffs)
    got = expand_in_basis(element, fam)
    assert not isinstance(got, NotInSpan)
    assert [got[label] for label in fam.labels] == coeffs
    assert _combination(elements, [got[label] for label in fam.labels]) == element


def _out_of_span_term(fam, data):
    """A term no combination of the family reaches."""
    if fam.kind == "matrix":
        # every generator is traceless, the identity is not
        assert all(sum((el[i, i] for i in range(fam.dim)), ZERO).is_zero()
                   for _, el in fam.items())
        return ExactMatrix.identity(fam.dim)
    # every generator has degree <= 2; a cubic monomial lies outside
    assert all(sum(c) + sum(a) <= 2 for _, el in fam.items() for c, a in
               ((m.cdeg, m.adeg) for m in el.terms))
    mode = data.draw(st.integers(1, fam.dim))
    ad = creation_op(mode, fam.dim)
    return ad * ad * ad * data.draw(nonzero_scalars)


@pytest.mark.parametrize("fam", INDEPENDENT, ids=_fam_id)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_out_of_span_term_gives_not_in_span(fam, data):
    elements = [el for _, el in fam.items()]
    coeffs = data.draw(st.lists(scalars, min_size=len(elements), max_size=len(elements)))
    result = expand_in_basis(_combination(elements, coeffs) + _out_of_span_term(fam, data),
                             fam)
    assert isinstance(result, NotInSpan)
    assert any(not x.is_zero() for x in result.residual)


def test_in_support_out_of_span_operator_gives_not_in_span():
    # the constant is a monomial of S0 and J3, yet not in their span
    result = expand_in_basis(OperatorExpr.constant(ONE, 2), two_mode_oscillator())
    assert isinstance(result, NotInSpan)
    assert any(not x.is_zero() for x in result.residual)


@pytest.mark.parametrize("fam", INDEPENDENT, ids=_fam_id)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_dependent_labels_finds_an_injected_combination(fam, data):
    labels = list(fam.labels)
    position = data.draw(st.integers(0, len(labels)))
    earlier = [fam.element(label) for label in labels[:position]]
    if earlier:
        coeffs = data.draw(st.lists(scalars, min_size=len(earlier), max_size=len(earlier)))
        injected = _combination(earlier, coeffs)
    else:
        injected = fam.element(labels[0]) * ZERO
    elements = dict(fam.elements, DUP=injected)
    labels.insert(position, "DUP")
    widened = GeneratorFamily(fam.name, tuple(labels), elements, fam.metric)
    assert dependent_labels(widened) == ("DUP",)
    assert structure_constants(widened).dependent == ("DUP",)
    with pytest.raises(ValueError):
        expand_in_basis(fam.element(fam.labels[0]), widened)


def test_dependent_labels_sp4_as_printed():
    assert dependent_labels(sp4_matrices(AS_PRINTED)) == ("Q3",)


TARGET_TABLES = {
    f"{name} targets": StructureConstants.from_brackets(labels, targets)
    for name, labels, targets in (
        ("sp2", sp2_oscillator().labels, sp2_bracket_targets()),
        ("de Sitter", two_mode_oscillator().labels, de_sitter_bracket_targets()),
        ("Poincare", contract_o32().labels, poincare_bracket_targets()))}


@cache
def _catalog_table(name):
    """The target table of that name, or the named family's table (None if it
    does not close)."""
    if name in TARGET_TABLES:
        return TARGET_TABLES[name]
    rep = structure_constants(next(fam for fam in INDEPENDENT if _fam_id(fam) == name))
    assert rep.closed == (name not in NOT_CLOSING_IDS)
    return rep.constants


@pytest.mark.parametrize("name", [_fam_id(fam) for fam in INDEPENDENT] + list(TARGET_TABLES))
def test_sparse_jacobi_matches_dense_on_catalog_tables(name):
    table = _catalog_table(name)
    if name in NOT_CLOSING_IDS:
        assert table is None
        return
    assert jacobi_check(table) == dense_jacobi(table)
    assert jacobi_check(table)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sparse_jacobi_matches_dense_on_random_tables(data):
    n = data.draw(st.integers(2, 5))
    labels = tuple(f"X{k}" for k in range(n))
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
    chosen = data.draw(st.lists(st.sampled_from(pairs), max_size=4, unique=True))
    brackets = {pair: data.draw(st.dictionaries(st.sampled_from(labels), scalars,
                                                max_size=2))
                for pair in chosen}
    table = StructureConstants.from_brackets(labels, brackets)
    assert jacobi_check(table) == dense_jacobi(table)


@settings(max_examples=20, deadline=None)
@given(delta=nonzero_scalars, extra=st.integers(0, 2))
def test_sparse_jacobi_rejects_perturbed_heisenberg_tables(delta, extra):
    # [A, B] = C with C central satisfies Jacobi; [B, C] = delta B breaks it:
    # [[B, C], A] = -delta C and the other two terms vanish
    labels = ("A", "B", "C") + tuple(f"Z{k}" for k in range(extra))
    good = StructureConstants.from_brackets(labels, {("A", "B"): {"C": ONE}})
    assert jacobi_check(good) and dense_jacobi(good)
    bad = StructureConstants.from_brackets(labels, {("A", "B"): {"C": ONE},
                                                    ("B", "C"): {"B": delta}})
    assert not jacobi_check(bad)
    assert not dense_jacobi(bad)


@pytest.mark.parametrize("name", ["sp2-oscillator[canonical]", "o32[canonical]",
                                  "translations[canonical]", "poincare[canonical]"])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_sparse_jacobi_matches_dense_on_perturbed_catalog_tables(name, data):
    table = _catalog_table(name)
    order = {label: k for k, label in enumerate(table.labels)}
    brackets: dict = {}
    for x, y, z, v in table.nonzero_triplets():
        if order[x] < order[y]:
            brackets.setdefault((x, y), {})[z] = v
    a, b, c = data.draw(st.permutations(table.labels))[:3]
    a, b = sorted((a, b), key=order.get)
    rhs = brackets.setdefault((a, b), {})
    rhs[c] = rhs.get(c, ZERO) + data.draw(nonzero_scalars)
    perturbed = StructureConstants.from_brackets(table.labels, brackets)
    assert jacobi_check(perturbed) == dense_jacobi(perturbed)


def dense_compare(left: StructureConstants, right: StructureConstants):
    """Reference comparison: every label triple in turn, in left-label order."""
    mismatches = []
    for a in left.labels:
        for b in left.labels:
            for c in left.labels:
                fl, fr = left.f(a, b, c), right.f(a, b, c)
                if fl != fr:
                    mismatches.append((a, b, c, fl, fr))
    return CompareResult(not mismatches, tuple(mismatches))


@st.composite
def _sparse_tables(draw, labels):
    """A sparse table over `labels`, stored zeros and one-sided triples included."""
    triples = st.tuples(*[st.sampled_from(labels)] * 3)
    return StructureConstants(labels, draw(st.dictionaries(triples, scalars, max_size=8)))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_compare_equals_the_triple_loop_on_random_tables(data):
    n = data.draw(st.integers(1, 5))
    # label order is not name order on either side, so mismatches must follow
    # the left table's label positions
    left_labels = tuple(data.draw(st.permutations([f"X{k}" for k in range(n)])))
    right_labels = tuple(data.draw(st.permutations(left_labels)))
    left = data.draw(_sparse_tables(left_labels))
    right = data.draw(_sparse_tables(right_labels))
    if data.draw(st.booleans()):
        # the same table, with a few entries changed
        right = StructureConstants(right_labels, {**left.table, **right.table})
    assert compare(left, right) == dense_compare(left, right)


def test_compare_equals_the_triple_loop_on_catalog_tables():
    osc = structure_constants(sp2_oscillator()).constants
    for variant in ("text", "table"):
        other = structure_constants(sp2_oscillator(variant)).constants
        want = dense_compare(osc, other)
        assert not want.match and compare(osc, other) == want


def pairwise_structure_constants(basis: GeneratorFamily) -> ClosureReport:
    """Reference: every pair a before b by index, both orientations of each
    bracket's nonzero coefficients written by hand."""
    fac = factorize(basis)
    if fac.dependent:
        return ClosureReport(basis.name, basis.variant, False, None, (), fac.dependent)
    table, failures = {}, []
    for i, a in enumerate(basis.labels):
        for b in basis.labels[i + 1:]:
            result = expand_in_basis(bracket(basis.element(a), basis.element(b)), fac)
            if isinstance(result, NotInSpan):
                failures.append(((a, b), result))
                continue
            for c, v in result.items():
                if not v.is_zero():
                    table[(a, b, c)] = v
                    table[(b, a, c)] = -v
    if failures:
        return ClosureReport(basis.name, basis.variant, False, None, tuple(failures), ())
    return ClosureReport(basis.name, basis.variant, True,
                         StructureConstants(basis.labels, table))


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=_fam_id)
def test_structure_constants_equal_the_pairwise_loop(fam):
    got, want = structure_constants(fam), pairwise_structure_constants(fam)
    assert got == want      # closed, failures, dependent and the table's entries
    if want.constants is not None:
        assert list(got.constants.table) == list(want.constants.table)


# ---------------------------------------------------------------------------
# dense elimination over every coordinate, kept as the oracle of the sparse one
# ---------------------------------------------------------------------------


class DenseFactorization(NamedTuple):
    family: GeneratorFamily
    keys: tuple             # the coordinates: every key some generator is nonzero at
    columns: tuple          # coordinates of each generator, zeros included
    pivot_rows: tuple       # positions in keys
    pivot_cols: tuple
    inverse: tuple          # rows of the inverse pivot block


def _dense_keys(elements) -> list:
    """Sorted keys at which some element is nonzero: (i, j) read off a
    matrix's dense rows, or an operator's (cdeg, adeg) term degrees.  A
    position where every generator is zero is no coordinate: as a zero row
    of A it would change which row a pivot swap moves (o32 would pivot on
    (0, 1) where the elimination over the stored keys pivots on (1, 0))."""
    keys = set()
    for e in elements:
        if isinstance(e, ExactMatrix):
            keys.update((i, j) for i, row in enumerate(e.rows)
                        for j, x in enumerate(row) if not x.is_zero())
        else:
            keys.update((mono.cdeg, mono.adeg) for mono in e.terms)
    return sorted(keys)


def _dense_coordinates(element, keys) -> list:
    """The element's value at each key: matrix entries or operator coefficients."""
    if isinstance(element, ExactMatrix):
        return [element[i, j] for i, j in keys]
    return [element.coefficient(c, a) for (c, a) in keys]


def dense_expand(self, element):
    """Coefficients c = inverse @ rhs[pivot_rows], then an exact residual check."""
    fam = self.family
    if type(element) is not type(fam.element(fam.labels[0])):
        raise TypeError("element and basis have different representation kinds")
    if element.dim != fam.dim:
        raise ValueError("dimension mismatch between element and basis")
    rhs = _dense_coordinates(element, self.keys)
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
    # keys outside the basis support are left over as they are
    every = sorted(set(self.keys).union(_dense_keys([element])))
    at = dict(zip(every, _dense_coordinates(element, every))) | dict(zip(self.keys, residual))
    residual = [at[k] for k in every]
    if any(not x.is_zero() for x in residual):
        return NotInSpan(tuple(residual))
    if len(self.pivot_cols) < len(self.columns):
        raise ValueError("basis is linearly dependent; expansion is not unique")
    return dict(zip(fam.labels, coeffs))


def dense_factorize(basis: GeneratorFamily) -> DenseFactorization:
    """Eliminate the basis once, exactly over Q(i, sqrt2).

    Rows of [A | I] are reduced column by column; the right block collects
    the row operations, so on the pivot rows it ends up as the inverse of
    the pivot block.
    """
    elements = [e for _, e in basis.items()]
    keys = tuple(_dense_keys(elements))
    columns = tuple(tuple(_dense_coordinates(e, keys)) for e in elements)
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
    return DenseFactorization(basis, keys, columns, pivot_rows, tuple(pivot_cols),
                              inverse)


_sparse_scalars = st.one_of(st.just(ZERO), st.just(ZERO), scalars)


def _elements(kind, dim, degree=2):
    """Nonzero n x n matrices with a few nonzero entries, or operators of
    total degree <= `degree` with a few terms."""
    if kind == "matrix":
        index = st.integers(0, dim - 1)
        return st.dictionaries(st.tuples(index, index), nonzero_scalars, min_size=1,
                               max_size=dim + 2).map(partial(ExactMatrix.from_entries, dim))
    degrees = st.tuples(*[st.integers(0, degree)] * dim)
    keys = st.tuples(degrees, degrees).filter(lambda k: sum(k[0]) + sum(k[1]) <= degree)
    return st.dictionaries(keys, nonzero_scalars, min_size=1, max_size=4).map(
        partial(OperatorExpr, dim))


@st.composite
def _random_families(draw):
    """Matrix or quadratic operator families, some with a generator that is a
    combination of earlier ones."""
    kind = draw(st.sampled_from(["matrix", "operator"]))
    dim = draw(st.integers(2, 4) if kind == "matrix" else st.integers(1, 2))
    k = draw(st.integers(1, 5))
    elements = draw(st.lists(_elements(kind, dim), min_size=k, max_size=k))
    if k > 1 and draw(st.booleans()):
        at = draw(st.integers(1, k - 1))
        elements[at] = _combination(elements[:at],
                                    draw(st.lists(scalars, min_size=at, max_size=at)))
    labels = tuple(f"G{j}" for j in range(k))
    return GeneratorFamily("random", labels, dict(zip(labels, elements)))


def _outcome(expand, element):
    try:
        return expand(element)
    except ValueError as err:
        return str(err)


@settings(max_examples=200, deadline=None)
@given(fam=_random_families(), data=st.data())
def test_sparse_factorization_agrees_with_the_dense_oracle(fam, data):
    fac, want = factorize(fam), dense_factorize(fam)
    assert (fac.keys, fac.pivot_keys, fac.pivot_cols) == \
        (want.keys, tuple(want.keys[p] for p in want.pivot_rows), want.pivot_cols)
    assert fac.dependent == tuple(label for j, label in enumerate(fam.labels)
                                  if j not in want.pivot_cols)
    assert [[col.get(key, ZERO) for key in want.keys]
            for col in fac.columns] == list(map(list, want.columns))
    assert [[row.get(s, ZERO) for s in range(len(fac.pivot_keys))]
            for row in fac.inverse] == list(map(list, want.inverse))
    assert not any(v.is_zero() for part in fac.columns + fac.inverse for v in part.values())
    # in the span, or off it by a random element (a cubic term for operators)
    elements = [el for _, el in fam.items()]
    coeffs = data.draw(st.lists(_sparse_scalars, min_size=len(elements),
                                max_size=len(elements)))
    extra = data.draw(st.one_of(st.none(), _elements(fam.kind, fam.dim, 3)))
    element = _combination(elements, coeffs) + (extra if extra is not None else
                                                 elements[0] * ZERO)
    got = _outcome(fac.expand, element)
    assert got == _outcome(partial(dense_expand, want), element)
    assert got == _outcome(partial(expand_in_basis, basis=fam), element)


def _rebuilt(element):
    """An equal copy of `element` with its stored entries in reverse order."""
    if isinstance(element, ExactMatrix):
        return ExactMatrix.from_entries(element.dim, dict(reversed(element._nonzero.items())))
    return OperatorExpr(element.dim, dict(reversed(element._nonzero.items())))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_memoized_bracket_equals_the_uncached_commutator(data):
    kind = data.draw(st.sampled_from(["matrix", "operator"]))
    dim = data.draw(st.integers(2, 4) if kind == "matrix" else st.integers(1, 2))
    x, y = data.draw(_elements(kind, dim)), data.draw(_elements(kind, dim))
    want = commutator(x, y) if kind == "operator" else x.commutator(y)
    _memo_bracket.cache_clear()
    assert bracket(x, y) == want                            # computed
    assert bracket(x, y) == want                            # remembered
    assert bracket(_rebuilt(x), _rebuilt(y)) == want        # equal operands share it
    assert _memo_bracket.cache_info()[:2] == (2, 1)         # (hits, misses)
    assert bracket(y, x) == -want


def test_bracket_checks_kinds_before_the_memo():
    x, m = parse_expr("ad1*a1", 1), ExactMatrix.identity(2)
    for left, right in ((x, m), (m, x), ([1], [2]), ({}, x)):
        with pytest.raises(TypeError, match="two OperatorExpr or two ExactMatrix"):
            bracket(left, right)
