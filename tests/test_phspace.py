"""Gaussian phase-space picture, group flows, translations, mass shell."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ladderlie import phspace, verify
from ladderlie.catalog import o32_matrices, sp4_matrices
from ladderlie.matrices import ExactMatrix
from ladderlie.phspace import (FourMomentum, GaussianState, apply_sp2,
                               boost_momentum, flow, flow_residuals,
                               ground_state, mass_shell, o32_metric,
                               o32_residual, rotate_momentum, rotation,
                               squeeze, symplectic_form, symplectic_residual,
                               translate, translation_generator, wigner_eval,
                               wigner_grid)


def test_ground_state_wigner_values():
    g = ground_state()
    assert abs(wigner_eval(g, 0.0, 0.0) - 1.0 / np.pi) < 1e-15
    assert abs(wigner_eval(g, 1.0, 0.0) - np.exp(-1.0) / np.pi) < 1e-15
    assert abs(wigner_eval(g, 0.0, 1.0) - np.exp(-1.0) / np.pi) < 1e-15


def test_wigner_normalization():
    xs = np.linspace(-8.0, 8.0, 801)
    grid = wigner_grid(ground_state(), xs, xs)
    integral = float(np.trapezoid(np.trapezoid(grid, xs, axis=1), xs))
    assert abs(integral - 1.0) < 1e-6


def test_wigner_grid_matches_pointwise():
    g = ground_state()
    xs = np.linspace(-2.0, 2.0, 9)
    ps = np.linspace(-1.0, 1.0, 5)
    grid = wigner_grid(g, xs, ps)
    assert grid.shape == (9, 5)
    for i, x in enumerate(xs):
        for j, p in enumerate(ps):
            assert abs(grid[i, j] - wigner_eval(g, x, p)) < 1e-15


def test_rotation_leaves_ground_state_invariant():
    g = ground_state()
    out = apply_sp2(g, rotation(0.7))
    assert np.max(np.abs(out.cov - g.cov)) < 1e-15
    assert np.max(np.abs(out.mean)) < 1e-15


def test_squeeze_reshapes_covariance():
    eta = 0.8
    out = apply_sp2(ground_state(), squeeze(eta))
    want = 0.5 * np.diag([np.exp(2 * eta), np.exp(-2 * eta)])
    assert np.max(np.abs(out.cov - want)) < 1e-12


def test_determinant_invariance_under_random_maps():
    rng = np.random.default_rng(99)
    g = ground_state()
    for _ in range(100):
        t1, t2 = rng.uniform(0.0, 2 * np.pi, size=2)
        eta = rng.uniform(-0.5, 0.5)
        m = rotation(t1) @ squeeze(eta) @ rotation(t2)
        out = apply_sp2(g, m)
        assert abs(out.det_cov - 0.25) < 1e-12


def test_apply_composes_functorially():
    g = GaussianState(np.array([0.3, -0.2]),
                      np.array([[0.7, 0.1], [0.1, 0.9]]))
    m1 = rotation(0.4) @ squeeze(0.3)
    m2 = squeeze(-0.2) @ rotation(1.1)
    one_shot = apply_sp2(g, m2 @ m1)
    two_step = apply_sp2(apply_sp2(g, m1), m2)
    assert np.max(np.abs(one_shot.cov - two_step.cov)) < 1e-12
    assert np.max(np.abs(one_shot.mean - two_step.mean)) < 1e-12


def test_singular_map_rejected():
    with pytest.raises(ValueError):
        apply_sp2(ground_state(), np.zeros((2, 2)))


def test_map_shape_is_checked_not_reshaped():
    for m, got in (([1.0, 0.0, 0.0, 1.0], r"\(4,\)"), (np.eye(4), r"\(4, 4\)")):
        with pytest.raises(ValueError, match=r"expected a map \(2, 2\) or a stack "
                                             r"\(\.\.\., 2, 2\), got " + got):
            apply_sp2(ground_state(), m)


def test_state_validation():
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), np.array([[1.0, 0.5], [-0.5, 1.0]]))
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), -np.eye(2))
    with pytest.raises(ValueError, match="finite"):
        GaussianState(np.zeros(2), np.diag([np.inf, 0.5]))
    # shapes are checked, not reshaped
    message = r"expected means \(\.\.\., 2\) and covariances \(\.\.\., 2, 2\)"
    for mean, cov in ((np.zeros(2), [0.5, 0.0, 0.0, 0.5]),     # a flat covariance
                      ([[0.0, 0.0]], 0.5 * np.eye(2)),          # a (1, 2) mean
                      (np.zeros((3, 2)), np.stack([np.eye(2)] * 4)),
                      (np.zeros(3), np.eye(3)), (np.zeros(2), 0.5)):
        with pytest.raises(ValueError, match=message):
            GaussianState(mean, cov)
    state = GaussianState(np.zeros((4, 2)), np.stack([np.eye(2)] * 4))
    assert state.mean.shape == (4, 2) and state.cov.shape == (4, 2, 2)


def test_symplectic_residual_detects_violations():
    assert symplectic_residual(np.eye(4)) == 0.0
    assert abs(symplectic_residual(np.diag([2.0, 1.0, 1.0, 1.0])) - 1.0) < 1e-15
    j = symplectic_form()
    assert np.max(np.abs(j + j.T)) == 0.0


def test_symplectic_form_is_read_only():
    j = symplectic_form()
    with pytest.raises(ValueError):
        j[0, 1] = 5.0
    assert symplectic_form()[0, 1] == 1.0
    assert symplectic_residual(np.eye(4)) == 0.0


def test_o32_residual_detects_violations():
    assert o32_residual(np.eye(5)) == 0.0
    assert abs(o32_residual(2.0 * np.eye(5)) - 3.0) < 1e-15
    eta = o32_metric()
    assert np.array_equal(np.diag(eta), [1.0, 1.0, 1.0, -1.0, -1.0])


def test_o32_metric_is_the_catalog_metric_and_read_only():
    eta = o32_metric()
    assert np.array_equal(eta, o32_matrices().metric.to_numpy())
    with pytest.raises(ValueError):
        eta[3, 3] = 1.0
    assert o32_metric()[3, 3] == -1.0
    assert o32_residual(np.eye(5)) == 0.0


def test_sp4_flows_stay_symplectic():
    ts = (-1.0, -0.5, 0.1, 0.5, 1.0)
    res = flow_residuals(sp4_matrices(), symplectic_residual, ts)
    assert set(res) == set(sp4_matrices().labels)
    worst = max(r for rows in res.values() for _, r in rows)
    assert worst < 1e-10


def test_o32_flows_preserve_metric():
    ts = (-1.0, -0.5, 0.1, 0.5, 1.0)
    res = flow_residuals(o32_matrices(), o32_residual, ts)
    worst = max(r for rows in res.values() for _, r in rows)
    assert worst < 1e-10


def test_flow_of_rotation_generator_is_periodic():
    g = o32_matrices().element("J3")
    full_turn = flow(g, 2 * np.pi)
    assert np.max(np.abs(full_turn - np.eye(5))) < 1e-12


def test_boost_flow_is_hyperbolic():
    g = o32_matrices().element("K3")
    m = flow(g, 0.5)
    assert abs(m[2, 2] - np.cosh(0.5)) < 1e-12
    assert abs(m[2, 3] - np.sinh(0.5)) < 1e-12


def test_translation_matrix_shape():
    m = translate(1.0, 2.0, 3.0, 4.0)
    want = np.eye(5)
    want[0, 4], want[1, 4], want[2, 4], want[3, 4] = 1.0, 2.0, 3.0, -4.0
    assert np.array_equal(m, want)


def test_translation_equals_exponential_exactly():
    for args in ((1.5, -2.0, 0.25, 3.0), (0.1, -2.5, 3.25, 1.75),
                 (0.0, 0.0, 0.0, 2.0), (-1.0, 0.5, 0.0, 0.0)):
        assert np.array_equal(translate(*args), np.eye(5) + translation_generator(*args))


def test_translation_action_on_events():
    out = translate(1.5, -2.0, 0.25, 3.0) @ np.array([0.3, -1.0, 2.5, 4.0, 1.0])
    assert tuple(out) == (1.8, -3.0, 2.75, 1.0, 1.0)


def test_non_real_flows_and_non_affine_maps_are_refused():
    with pytest.raises(ValueError, match="not purely imaginary"):
        flow(ExactMatrix.identity(2), 0.5)


def test_a_map_that_breaks_the_affine_component_fails_both_translation_rows(monkeypatch):
    monkeypatch.setattr(phspace, "translate", lambda a, b, c, d: 2.0 * np.eye(5))
    rows = {name: status for name, status, _ in verify.run_phspace_suite(verify.VerifyConfig())}
    assert rows["translation matrix equals its exponential"] == "FAIL"
    assert rows["translation action on (x, y, z, t, 1)"] == "FAIL"


def test_translation_generator_is_nilpotent():
    x = translation_generator(1.0, 2.0, 3.0, 4.0)
    assert np.max(np.abs(x @ x)) == 0.0


def test_translations_commute_as_a_group():
    m1 = translate(1.0, 0.0, -2.0, 0.5)
    m2 = translate(-0.5, 2.0, 1.0, 1.5)
    assert np.max(np.abs(m1 @ m2 - m2 @ m1)) == 0.0
    combined = translate(0.5, 2.0, -1.0, 2.0)
    assert np.max(np.abs(m1 @ m2 - combined)) < 1e-15


def test_mass_shell_at_rest():
    p = FourMomentum.at_rest(2.0)
    assert mass_shell(p) == -4.0
    assert p.p0 == 2.0 and p.p1 == p.p2 == p.p3 == 0.0


def test_mass_shell_invariant_under_boosts():
    for mass in (0.5, 1.0, 2.0):
        p = FourMomentum.at_rest(mass)
        p = boost_momentum(p, 1, 2.0)
        p = boost_momentum(p, 2, -1.3)
        p = rotate_momentum(p, 3, 0.9)
        p = boost_momentum(p, 3, 0.7)
        assert abs(mass_shell(p) + mass ** 2) < 1e-10


def test_boost_along_axis():
    p = FourMomentum.at_rest(1.0)
    out = boost_momentum(p, 3, 0.8)
    assert abs(out.p0 - np.cosh(0.8)) < 1e-12
    assert abs(out.p3 - np.sinh(0.8)) < 1e-12
    assert abs(out.p1) < 1e-15 and abs(out.p2) < 1e-15


def test_rotation_mixes_spatial_components_only():
    p = FourMomentum(1.0, 0.0, 0.0, 3.0)
    out = rotate_momentum(p, 3, np.pi / 2)
    assert abs(out.p0 - 3.0) < 1e-12
    assert abs(out.p2 - 1.0) < 1e-12
    assert abs(out.p1) < 1e-12


def test_momentum_axis_validation():
    p = FourMomentum.at_rest(1.0)
    with pytest.raises(ValueError):
        boost_momentum(p, 0, 1.0)
    with pytest.raises(ValueError):
        rotate_momentum(p, 4, 1.0)
    # a numpy integer names the same axis
    assert boost_momentum(p, np.int64(3), 0.5) == boost_momentum(p, 3, 0.5)


@pytest.mark.parametrize("axis", [1.0, True, "1", 0, 4])
@pytest.mark.parametrize("move, what", [(boost_momentum, "boost"),
                                        (rotate_momentum, "rotation")])
def test_momentum_axis_is_exactly_1_2_or_3(move, what, axis):
    # 1.0 and True compare equal to 1, but name no generator
    with pytest.raises(ValueError, match=f"^{what} axis must be 1, 2 or 3$"):
        move(FourMomentum.at_rest(1.0), axis, 0.5)


# ---------------------------------------------------------------------------
# the in-place, banded and batched paths against the expressions they replaced
# ---------------------------------------------------------------------------


def _wigner_grid_reference(state, xs, ps):
    """wigner_grid as it was: one out-of-place temporary per operation."""
    xs = np.asarray(xs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    inv = np.linalg.inv(state.cov)
    norm = 2.0 * np.pi * np.sqrt(state.det_cov)
    dx = xs[:, None] - state.mean[0]
    dp = ps[None, :] - state.mean[1]
    quad = (inv[0, 0] * dx * dx + (inv[0, 1] + inv[1, 0]) * dx * dp
            + inv[1, 1] * dp * dp)
    return np.exp(-0.5 * quad) / norm


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


_SQUEEZED = apply_sp2(apply_sp2(ground_state(), squeeze(0.6)), rotation(0.4))
_STATES = {
    "vacuum": ground_state(),
    "rotated-squeezed": _SQUEEZED,
    "displaced": GaussianState(np.array([0.7, -1.3]), _SQUEEZED.cov),
}


@pytest.mark.parametrize("state", list(_STATES))
@pytest.mark.parametrize("nx, np_", [(801, 801), (41, 41), (9, 5), (32, 801), (1, 7)])
def test_wigner_grid_is_bit_equal_to_the_out_of_place_formula(state, nx, np_):
    xs = np.linspace(-4.0, 4.0, nx)
    ps = np.linspace(-3.0, 5.0, np_)
    got = wigner_grid(_STATES[state], xs, ps)
    want = _wigner_grid_reference(_STATES[state], xs, ps)
    assert got.shape == want.shape == (nx, np_)
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("band", [1, 7, verify.WIGNER_BAND_ROWS, 100, 801])
def test_banded_wigner_integral_is_bit_equal_to_the_whole_grid(monkeypatch, band):
    xs = np.linspace(-8.0, 8.0, 801)
    whole = _wigner_grid_reference(ground_state(), xs, xs)
    want_inner = np.trapezoid(whole, xs, axis=1)
    want = float(np.trapezoid(want_inner, xs))
    monkeypatch.setattr(verify, "WIGNER_BAND_ROWS", band)
    inner = verify._wigner_row_integrals(ground_state(), xs)
    assert np.array_equal(_bits(inner), _bits(want_inner))
    assert _bits(float(np.trapezoid(inner, xs))) == _bits(want)


@pytest.mark.parametrize("family, residual", [(sp4_matrices, symplectic_residual),
                                              (o32_matrices, o32_residual)])
def test_flow_residuals_equal_one_flow_per_sample(monkeypatch, family, residual):
    fam = family()
    ts = verify.FLOW_SAMPLES + (0.0, 2.5)
    want = {label: [(t, residual(flow(g, t))) for t in ts] for label, g in fam.items()}
    calls = []
    expm = phspace.expm

    def counting_expm(a):
        calls.append(a.shape)
        return expm(a)

    monkeypatch.setattr(phspace, "expm", counting_expm)
    got = flow_residuals(fam, residual, ts)
    assert got == want
    n = fam.dim
    assert calls == [(len(fam.labels), len(ts), n, n)]


def _residuals_one_flow_at_a_time(fam, residual, ts):
    """flow_residuals as it was before the stacked expm: one flow and one
    residual per generator and sample."""
    return {label: [(float(t), residual(flow(g, t))) for t in ts]
            for label, g in fam.items()}


@settings(max_examples=30, deadline=None)
@given(check=st.sampled_from(verify.FLOW_CHECKS),
       ts=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6))
@example(check=verify.FLOW_CHECKS[1], ts=[0.0, -0.0, 5e-324, 3.0])
def test_stacked_flows_equal_one_flow_at_a_time(check, ts):
    build, residual, _ = check
    fam = build()
    got = flow_residuals(fam, residual, ts)
    want = _residuals_one_flow_at_a_time(fam, residual, ts)
    assert list(got) == list(want)
    for label in want:
        assert np.array_equal(_bits(got[label]), _bits(want[label]))


@pytest.mark.parametrize("residual, n", [(symplectic_residual, 4), (o32_residual, 5)])
def test_residuals_of_a_stack_are_the_residuals_of_its_matrices(residual, n):
    stack = np.random.default_rng(7).normal(size=(2, 3, n, n))
    got = residual(stack)
    assert got.shape == (2, 3)
    want = [[residual(m) for m in row] for row in stack]
    assert all(type(r) is float for row in want for r in row)
    assert np.array_equal(_bits(got), _bits(want))
    with pytest.raises(ValueError):
        residual(np.zeros((3, n, n + 1)))


def _maps_one_at_a_time(draws):
    """The seeded-maps loop as verify ran it before the stacks, with the
    one-map formulas of rotation, squeeze, apply_sp2 and det_cov written out:
    per map, two 2x2 products, the pushed and symmetrized vacuum covariance
    and its det.  Returns the maps, the covariances and the determinants as
    stacks."""
    def rotation_of_one(theta):
        return np.array([[np.cos(theta), -np.sin(theta)],
                         [np.sin(theta), np.cos(theta)]])

    maps, covs, dets = [], [], []
    for t1, t2, e in draws:
        m = rotation_of_one(t1) @ np.diag([np.exp(e), np.exp(-e)]) @ rotation_of_one(t2)
        cov = m @ (0.5 * np.eye(2)) @ m.T
        cov = 0.5 * (cov + cov.T)
        maps.append(m)
        covs.append(cov)
        dets.append(float(np.linalg.det(cov)))
    return np.array(maps), np.array(covs), np.array(dets)


def _assert_stacked_maps_equal_the_loop(maps, draws):
    out = apply_sp2(ground_state(), maps)
    want_maps, want_covs, want_dets = _maps_one_at_a_time(draws)
    assert np.array_equal(_bits(maps), _bits(want_maps))
    assert np.array_equal(_bits(out.cov), _bits(want_covs))
    assert np.array_equal(_bits(out.mean), _bits(np.zeros((len(draws), 2))))
    assert np.array_equal(_bits(out.det_cov), _bits(want_dets))


def _seeded_draws():
    """verify's seeded draws as it drew them: two angles, then a squeeze."""
    rng = np.random.default_rng(20190814)
    draws = []
    for _ in range(100):
        t1, t2 = rng.uniform(0.0, 2 * np.pi, size=2)
        draws.append((t1, t2, rng.uniform(-0.5, 0.5)))
    return draws


def test_seeded_maps_equal_one_draw_and_one_map_at_a_time():
    _assert_stacked_maps_equal_the_loop(verify._seeded_maps(), _seeded_draws())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
                          st.floats(-3.0, 3.0)), min_size=1, max_size=12))
def test_stacked_maps_equal_one_map_at_a_time(draws):
    t1, t2, e = np.array(draws).T
    _assert_stacked_maps_equal_the_loop(rotation(t1) @ squeeze(e) @ rotation(t2), draws)


_REFUSED = [
    ("singular", np.array([[1.0, 2.0], [0.5, 1.0]]), None),
    ("finite", None, np.array([[0.5, 0.0], [0.0, np.nan]])),
    ("symmetric", None, np.array([[0.5, 0.1], [0.0, 0.5]])),
    ("positive definite", None, np.array([[0.5, 0.0], [0.0, -0.5]])),
    ("positive definite", None, np.array([[0.5, 1.0], [1.0, 0.5]])),
]


@pytest.mark.parametrize("at", [0, 3])
@pytest.mark.parametrize("message, bad_map, bad_cov", _REFUSED)
def test_each_member_of_a_stack_is_checked_as_one(message, bad_map, bad_cov, at):
    maps = rotation(np.linspace(0.0, 1.0, 4))
    covs = np.stack([0.5 * np.eye(2)] * 4)
    if bad_map is not None:
        maps[at] = bad_map
        with pytest.raises(ValueError, match=message):
            apply_sp2(ground_state(), bad_map)
        with pytest.raises(ValueError, match=message):
            apply_sp2(ground_state(), maps)
    else:
        covs[at] = bad_cov
        with pytest.raises(ValueError, match=message):
            GaussianState(np.zeros(2), bad_cov)
        with pytest.raises(ValueError, match=message):
            GaussianState(np.zeros((4, 2)), covs)


# the boosts and the rotation of verify's mass-shell row, in its order
_MASS_SHELL_CHAIN = (("K", 1, 2.0), ("K", 2, -1.3), ("J", 3, 0.9), ("K", 3, 0.7))


def _chain_one_flow_per_map(p):
    """The mass-shell chain as it ran before the memo: one expm per map."""
    for kind, axis, t in _MASS_SHELL_CHAIN:
        block = flow(o32_matrices().element(f"{kind}{axis}"), t)[:4, :4]
        p = FourMomentum(*(block @ p.column()))
    return p


def _chain_through_the_memo(p):
    for kind, axis, t in _MASS_SHELL_CHAIN:
        p = (boost_momentum if kind == "K" else rotate_momentum)(p, axis, t)
    return p


def _assert_memoized_maps_equal_one_flow_per_map():
    phspace._lorentz_block.cache_clear()
    for mass in (0.5, 1.0, 2.0):
        p = FourMomentum.at_rest(mass)
        got, want = _chain_through_the_memo(p), _chain_one_flow_per_map(p)
        assert np.array_equal(_bits(got.column()), _bits(want.column()))
    assert phspace._lorentz_block.cache_info().misses == len(_MASS_SHELL_CHAIN)


def test_memoized_lorentz_maps_equal_one_flow_per_map():
    _assert_memoized_maps_equal_one_flow_per_map()


def test_a_stack_of_states_is_refused_where_one_state_is_expected():
    stack = apply_sp2(ground_state(), rotation(np.array([0.1, 0.2])))
    for use in (lambda: wigner_eval(stack, 0.0, 0.0),
                lambda: wigner_grid(stack, np.zeros(3), np.zeros(3)),
                lambda: apply_sp2(stack, rotation(0.3))):
        with pytest.raises(ValueError, match="one Gaussian state"):
            use()


def test_lorentz_maps_come_from_a_bounded_read_only_memo():
    phspace._lorentz_block.cache_clear()
    p = FourMomentum(0.3, -0.2, 0.1, 2.0)
    want = flow(o32_matrices().element("K2"), 1.5)[:4, :4] @ p.column()
    for axis, t in ((2, 1.5), (np.int64(2), np.float64(1.5)), (2, 1.5)):
        got = boost_momentum(p, axis, t)
        assert np.array_equal(_bits(got.column()), _bits(want))
    info = phspace._lorentz_block.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (1, 2, phspace.LORENTZ_MEMO_SIZE)
    assert not phspace._lorentz_block("K", 2, 1.5).flags.writeable
    rotate_momentum(p, 2, 1.5)      # J2, another entry
    assert phspace._lorentz_block.cache_info().misses == 2


@st.composite
def _near_symmetric_covariances(draw):
    """2x2 covariances whose off-diagonal entries c and c' differ by
    1e-12 + 1e-9*|c| times 1 + offset, with relative offsets down to 1e-16,
    at magnitudes |c| from 1e-15 to 1e6.  Where the absolute term dominates,
    the bounds taken from |c| and from |c'| are a few ulps of c apart, so
    some draws refuse in one orientation only."""
    c = draw(st.sampled_from((1.0, -1.0))) * 10.0 ** draw(st.floats(-15.0, 6.0))
    offset = draw(st.floats(-1.0, 1.0)) * 10.0 ** -draw(st.integers(1, 16))
    other = c + draw(st.sampled_from((1.0, -1.0))) * (1e-12 + 1e-9 * abs(c)) * (1.0 + offset)
    c01, c10 = (c, other) if draw(st.booleans()) else (other, c)
    diag = 1.0 + 2.0 * (abs(c01) + abs(c10))
    return np.array([[diag, c01], [c10, diag]])


@settings(max_examples=500, deadline=None)
@given(_near_symmetric_covariances())
# exactly on the bound, where allclose accepts
@example(np.array([[1.0, 0.0], [1e-12, 1.0]]))
@example(np.array([[1.0, -1e-12], [0.0, 1.0]]))
def test_symmetry_check_refuses_exactly_what_allclose_refuses(cov):
    # alone, and as the middle one of a stack of three
    for mean, covs in ((np.zeros(2), cov),
                       (np.zeros((3, 2)), np.stack([np.eye(2), cov, np.eye(2)]))):
        try:
            GaussianState(mean, covs)
            refused = False
        except ValueError as exc:
            assert str(exc) == "covariance must be symmetric"
            refused = True
        assert refused == (not np.allclose(cov, cov.T, rtol=1e-9, atol=1e-12))


def test_phspace_suite_peak_memory_is_under_two_mib():
    # the whole 801 x 801 normalization grid alone would be 4.9 MiB
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        rows = verify.run_phspace_suite(verify.VerifyConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert all(status == "PASS" for _, status, _ in rows)
    assert peak < 2 * 2 ** 20


_OTHER_KERNEL = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from test_focknum import _dense_worst
from test_phspace import (_assert_memoized_maps_equal_one_flow_per_map,
                          _assert_stacked_maps_equal_the_loop, _bits,
                          _residuals_one_flow_at_a_time, _seeded_draws)
from ladderlie import focknum, phspace, verify
from ladderlie.catalog import two_mode_oscillator
_assert_stacked_maps_equal_the_loop(verify._seeded_maps(), _seeded_draws())
for build, residual, _ in verify.FLOW_CHECKS:
    fam = build()
    got = phspace.flow_residuals(fam, residual, verify.FLOW_SAMPLES)
    want = _residuals_one_flow_at_a_time(fam, residual, verify.FLOW_SAMPLES)
    assert all(np.array_equal(_bits(got[k]), _bits(want[k])) for k in want), fam.name
_assert_memoized_maps_equal_one_flow_per_map()
generators = dict(two_mode_oscillator().items())
fock = focknum.FockRealization(16, 2)
built = {}
for label, expr in generators.items():
    ent = focknum.entries(expr, fock)
    built[label] = ent, focknum.hermitian_deviation(ent, fock)
worst, witness = focknum.worst_protected_commutator(generators, fock, 4, built)
assert (worst, witness[0]) == _dense_worst(generators, fock, 4), worst
"""


def test_stacked_rows_equal_the_per_item_loops_under_another_blas_kernel():
    # the stacked maps and flows, the memoized Lorentz maps and the default
    # Fock figure against their per-item references, under a kernel that
    # orders its sums differently from the default one, at one and two threads
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"),
                                         os.environ.get("PYTHONPATH")]))
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", _OTHER_KERNEL, str(here)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (threads, done.stderr)
