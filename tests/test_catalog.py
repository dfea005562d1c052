"""Golden checks on the generator families."""

import pytest

from ladderlie.catalog import (AS_PRINTED, FAMILY_VARIANTS, GeneratorFamily,
                               coupled_block_matrix, family, o32_matrices, off_diagonal_block,
                               single_mode_block_matrix, sp2_bracket_targets,
                               sp2_minkowski4, sp2_oscillator, sp2_pauli, sp4_matrices,
                               translation_matrices, two_mode_oscillator)
from ladderlie.contract import contract_o32
from ladderlie.matrices import ExactMatrix
from ladderlie.opalg import parse_expr
from ladderlie.scalars import ExactScalar, HALF, I, ONE, ZERO

HALF_I = I * HALF


def test_sp2_oscillator_canonical_forms():
    fam = sp2_oscillator()
    quarter = ExactScalar.rational(1, 4)
    assert fam.element("J2") == parse_expr("a1*ad1 + ad1*a1", 1) * quarter
    assert fam.element("K1") == parse_expr("ad1^2 + a1^2", 1) * quarter
    assert fam.element("K3") == parse_expr("ad1^2 - a1^2", 1) * (I * quarter)
    for _, expr in fam.items():
        assert expr.adjoint() == expr


def test_sp2_oscillator_variants_differ_by_scale():
    text = sp2_oscillator("text")
    canon = sp2_oscillator()
    for label in canon.labels:
        assert text.element(label) == canon.element(label) * 2
    table = sp2_oscillator("table")
    # the tabulated K1 swaps in the anti-Hermitian combination
    assert table.element("K1") == parse_expr("ad1^2 + a1^2", 1) * (-HALF_I)
    assert table.element("K1").adjoint() == -table.element("K1")


def test_sp2_pauli_entries():
    fam = sp2_pauli()
    j2 = fam.element("J2")
    assert j2[0, 1] == -HALF_I and j2[1, 0] == HALF_I
    k1 = fam.element("K1")
    assert k1[0, 1] == HALF_I and k1[1, 0] == HALF_I
    k3 = fam.element("K3")
    assert k3[0, 0] == HALF_I and k3[1, 1] == -HALF_I
    assert k3[0, 1].is_zero()


def test_sp2_minkowski4_canonical_entries():
    fam = sp2_minkowski4()
    j2 = fam.element("J2")
    assert j2[0, 2] == I and j2[2, 0] == -I
    assert j2 == -j2.transpose()
    k1 = fam.element("K1")
    assert k1[0, 3] == I and k1[3, 0] == I
    k3 = fam.element("K3")
    assert k3[2, 3] == I and k3[3, 2] == I
    # every generator leaves the y axis alone
    for _, g in fam.items():
        for k in range(4):
            assert g[1, k].is_zero() and g[k, 1].is_zero()


def test_sp2_minkowski4_as_printed_j2_is_symmetric():
    fam = sp2_minkowski4(AS_PRINTED)
    j2 = fam.element("J2")
    assert j2[0, 2] == I and j2[2, 0] == I
    assert j2 == j2.transpose()


def test_metric_signatures():
    mink = sp2_minkowski4()
    assert mink.metric == ExactMatrix.diag([ONE, ONE, ONE, -ONE])
    o32 = o32_matrices()
    assert o32.metric == ExactMatrix.diag([ONE, ONE, ONE, -ONE, -ONE])


def test_lie_conditions_exact():
    for fam in (sp2_minkowski4(), sp4_matrices(), o32_matrices()):
        metric = fam.metric
        for _, g in fam.items():
            assert (g @ metric + metric @ g.transpose()).is_zero()


def test_two_mode_oscillator_canonical():
    fam = two_mode_oscillator()
    assert fam.labels == ("J1", "J2", "J3", "S0", "K1", "K2", "K3",
                          "Q1", "Q2", "Q3")
    for _, expr in fam.items():
        assert expr.adjoint() == expr
    s0 = fam.element("S0")
    want = parse_expr("(1/2)*(ad1*a1 + ad2*a2 + 1)", 2)
    assert s0 == want


def test_two_mode_variants_flip_q_sector():
    canon = two_mode_oscillator()
    printed = two_mode_oscillator(AS_PRINTED)
    for label in ("J1", "J2", "J3", "S0", "K1", "K2", "K3"):
        assert canon.element(label) == printed.element(label)
    for label in ("Q1", "Q2", "Q3"):
        assert canon.element(label) == -printed.element(label)


def test_sp4_as_printed_duplicates_s0():
    fam = sp4_matrices(AS_PRINTED)
    assert fam.element("Q3") == fam.element("S0")
    canon = sp4_matrices()
    assert canon.element("Q3") != canon.element("S0")


def test_o32_single_entry_structure():
    fam = o32_matrices()
    for i in (1, 2, 3):
        k = fam.element(f"K{i}")
        assert k[i - 1, 3] == I and k[3, i - 1] == I
        q = fam.element(f"Q{i}")
        assert q[i - 1, 4] == I and q[4, i - 1] == I
    s0 = fam.element("S0")
    assert s0[3, 4] == -I and s0[4, 3] == I


def test_translation_matrices():
    fam = translation_matrices()
    assert fam.labels == ("P1", "P2", "P3", "P0")
    for i, label in enumerate(("P1", "P2", "P3")):
        g = fam.element(label)
        assert g[i, 4] == I
        assert sum(1 for _, _, v in _nonzero(g)) == 1
    p0 = fam.element("P0")
    assert p0[3, 4] == -I
    for _, g in fam.items():
        assert (g @ g).is_zero()


def _nonzero(m):
    for i in range(m.n):
        for j in range(m.n):
            if not m[i, j].is_zero():
                yield i, j, m[i, j]


def test_block_matrices_self_adjoint():
    for block in (single_mode_block_matrix(), coupled_block_matrix()):
        n = len(block)
        for i in range(n):
            for j in range(n):
                assert block[i][j].adjoint() == block[j][i]


def test_coupled_block_matrix_entries():
    want = [["(a1*ad1 + ad1*a1)/2", "a1*a1", "ad1*a2", "a1*a2"],
            ["ad1*ad1", "(a1*ad1 + ad1*a1)/2", "ad1*ad2", "a1*ad2"],
            ["a1*ad2", "a1*a2", "(a2*ad2 + ad2*a2)/2", "a2*a2"],
            ["ad1*ad2", "ad1*a2", "ad2*ad2", "(a2*ad2 + ad2*a2)/2"]]
    block = coupled_block_matrix()
    assert len(block) == 4 and all(len(row) == 4 for row in block)
    for i in range(4):
        for j in range(4):
            assert block[i][j] == parse_expr(want[i][j], 2), (i, j)
    assert tuple(row[2:] for row in block[:2]) == off_diagonal_block()
    assert single_mode_block_matrix() == ((parse_expr("(a1*ad1 + ad1*a1)/2", 1),
                                           parse_expr("a1*a1", 1)),
                                          (parse_expr("ad1*ad1", 1),
                                           parse_expr("(a1*ad1 + ad1*a1)/2", 1)))


def test_sp2_targets_are_the_ten_generator_table_restricted():
    assert sp2_bracket_targets() == {
        ("J2", "K1"): {"K3": -I},
        ("J2", "K3"): {"K1": I},
        ("K1", "K3"): {"J2": I},
    }
    assert list(sp2_bracket_targets()) == [("J2", "K1"), ("J2", "K3"), ("K1", "K3")]


def test_off_diagonal_block_contents():
    block = off_diagonal_block()
    assert block[0][0] == parse_expr("ad1*a2", 2)
    assert block[1][1] == parse_expr("a1*ad2", 2)
    assert block[0][1] == parse_expr("a1*a2", 2)
    assert block[1][0] == parse_expr("ad1*ad2", 2)


def test_family_registry():
    assert set(FAMILY_VARIANTS) == {
        "sp2-oscillator", "sp2-pauli", "sp2-minkowski4",
        "two-mode-oscillator", "sp4", "o32", "translations", "poincare"}
    for name, variants in FAMILY_VARIANTS.items():
        for variant in variants:
            fam = family(name, variant)
            assert fam.variant == variant
            assert len(set(fam.labels)) == len(fam.labels)
    with pytest.raises(KeyError):
        family("nonexistent")
    with pytest.raises(ValueError):
        family("sp2-pauli", "as-printed")


def test_registry_poincare_is_the_contraction():
    fam, want = family("poincare"), contract_o32()
    assert (fam.name, fam.labels) == (want.name, want.labels)
    assert dict(fam.items()) == dict(want.items())


@pytest.mark.parametrize("name, build", [
    ("sp2-oscillator", sp2_oscillator), ("sp2-minkowski4", sp2_minkowski4),
    ("two-mode-oscillator", two_mode_oscillator), ("sp4", sp4_matrices)])
def test_bad_variant_has_one_message(name, build):
    message = (f"family {name!r} has no variant 'nosuch'; "
               f"available: {', '.join(FAMILY_VARIANTS[name])}")
    for route in (lambda: family(name, "nosuch"), lambda: build("nosuch")):
        with pytest.raises(ValueError) as exc:
            route()
        assert str(exc.value) == message


def test_restrict():
    fam = sp2_minkowski4()
    sub = fam.restrict((0, 2, 3))
    assert sub.element("J2").n == 3
    assert sub.element("J2")[0, 1] == I
    assert sub.metric == ExactMatrix.diag([ONE, ONE, -ONE])
    with pytest.raises(ValueError):
        two_mode_oscillator().restrict((0, 1))


_M2, _OP = ExactMatrix.identity(2), parse_expr("ad1*a1", 1)


@pytest.mark.parametrize("make, message", [
    (lambda: GeneratorFamily("f", ("A", "A"), {"A": _M2}), "labels must be unique"),
    (lambda: GeneratorFamily("f", ("A", "B"), {"A": _M2}), "cover exactly the declared"),
    (lambda: GeneratorFamily("f", ("A", "B"), {"A": _M2, "B": _OP}),
     "all OperatorExpr or all ExactMatrix"),
    (lambda: GeneratorFamily("f", ("A",), {"A": 1}), "all OperatorExpr or all ExactMatrix"),
    (lambda: GeneratorFamily("f", ("A", "B"), {"A": _M2, "B": ExactMatrix.identity(3)}),
     "share one representation space")])
def test_malformed_families_are_refused(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_provenance_strings_present():
    for name, variants in FAMILY_VARIANTS.items():
        for variant in variants:
            fam = family(name, variant)
            assert fam.provenance
