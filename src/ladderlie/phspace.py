"""Phase-space checks: Wigner densities, canonical flows, mass-shell algebra.

The exact generator matrices are turned into real flows here.  Every
canonical generator matrix is purely imaginary, so X = -i*G is real and
exp(t*X) is a real transformation; preservation of the symplectic form or
of the metric is then a floating-point residual check against the exact
form, with tolerances owned by the callers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from numbers import Integral

import numpy as np
from scipy.linalg import expm

from .catalog import o32_matrices, sp4_matrices, translation_matrices
from .matrices import ExactMatrix

_TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# Gaussian states on single-mode phase space
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Gaussian Wigner density: mean (x, p) and 2x2 covariance, or a stack of
    them, means (..., 2) and covariances (..., 2, 2), each checked as one."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        mean = np.asarray(self.mean, dtype=float)
        if cov.shape[-2:] != (2, 2) or mean.shape != cov.shape[:-2] + (2,):
            raise ValueError(f"expected means (..., 2) and covariances (..., 2, 2) with "
                             f"one stack shape, got {mean.shape} and {cov.shape}")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean and covariance must be finite")
        if not np.allclose(cov, cov.swapaxes(-1, -2), rtol=1e-9, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        cov = 0.5 * (cov + cov.swapaxes(-1, -2))
        # Sylvester's criterion for a symmetric 2x2 positive-definite matrix
        if np.any(cov[..., 0, 0] <= 0.0) or np.any(np.linalg.det(cov) <= 0.0):
            raise ValueError("covariance must be positive definite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def det_cov(self):
        """det of the covariance: a float for one state, an array for a stack."""
        det = np.linalg.det(self.cov)
        return float(det) if det.ndim == 0 else det


def ground_state() -> GaussianState:
    """Vacuum: mean zero, covariance I/2, so W(x, p) = exp(-x^2 - p^2)/pi."""
    return GaussianState(np.zeros(2), 0.5 * np.eye(2))


def _one_state(state: GaussianState):
    if state.cov.ndim != 2:
        raise ValueError("expected one Gaussian state, not a stack")


def wigner_eval(state: GaussianState, x: float, p: float) -> float:
    """Wigner density of a Gaussian state at one phase-space point."""
    _one_state(state)
    v = np.array([x, p], dtype=float) - state.mean
    inv = np.linalg.inv(state.cov)
    norm = _TWO_PI * np.sqrt(state.det_cov)
    return float(np.exp(-0.5 * v @ inv @ v) / norm)


def wigner_grid(state: GaussianState, xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """W sampled on the outer grid xs x ps; row index runs over xs.

    The one len(xs) x len(ps) array is built in place, with the products and
    sums of exp(-0.5 * (a dx^2 + b dx dp + c dp^2)) / norm in that formula's
    own rounding (IEEE + and * commute).
    """
    _one_state(state)
    xs = np.asarray(xs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    inv = np.linalg.inv(state.cov)
    norm = _TWO_PI * np.sqrt(state.det_cov)
    dx = xs[:, None] - state.mean[0]
    dp = ps[None, :] - state.mean[1]
    out = (inv[0, 1] + inv[1, 0]) * dx * dp
    out += inv[0, 0] * dx * dx
    out += inv[1, 1] * dp * dp
    out *= -0.5
    np.exp(out, out=out)
    out /= norm
    return out


def rotation(theta) -> np.ndarray:
    """Rotation of phase space by theta; an array of angles gives a stack."""
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)


def squeeze(eta) -> np.ndarray:
    """diag(e^eta, e^-eta); an array of squeezes gives a stack."""
    eta = np.asarray(eta, dtype=float)
    out = np.zeros(eta.shape + (2, 2))
    out[..., 0, 0] = np.exp(eta)
    out[..., 1, 1] = np.exp(-eta)
    return out


def apply_sp2(state: GaussianState, m: np.ndarray) -> GaussianState:
    """Push one Gaussian state through a linear phase-space map, or through
    each map of a stack (..., 2, 2) into a stack of states.

    numpy runs the products and determinants of a stack slice by slice, with
    the BLAS and LAPACK calls of one map, so each state has the bits it has
    alone.
    """
    _one_state(state)
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"expected a map (2, 2) or a stack (..., 2, 2), got {m.shape}")
    if np.any(np.linalg.det(m) == 0.0):
        raise ValueError("singular phase-space map")
    return GaussianState(m @ state.mean, m @ state.cov @ m.swapaxes(-1, -2))


# ---------------------------------------------------------------------------
# flows of the exact generator families
# ---------------------------------------------------------------------------


def real_generator(g: ExactMatrix) -> np.ndarray:
    """X = -i*G as a real matrix; the canonical G are purely imaginary."""
    x = -1j * g.to_numpy()
    if np.max(np.abs(x.imag)) != 0.0:
        raise ValueError("generator is not purely imaginary; flow is not real")
    return x.real


def flow(g: ExactMatrix, t: float) -> np.ndarray:
    """exp(t * (-i*G)), the one-parameter transformation generated by G."""
    return expm(t * real_generator(g))


def _read_only_metric(family) -> np.ndarray:
    """A catalog family's exact metric as a read-only float array;
    symplectic_form and o32_metric build theirs once and keep it."""
    metric = family.metric.to_numpy().real.copy()
    metric.flags.writeable = False
    return metric


@functools.cache
def symplectic_form() -> np.ndarray:
    """Block-diagonal [[0, 1], [-1, 0]] pairs on (x1, p1, x2, p2), from sp4."""
    return _read_only_metric(sp4_matrices())


def _max_abs(diff: np.ndarray):
    """max |diff| over the last two axes: a float for one matrix, an array
    for a stack."""
    worst = np.max(np.abs(diff), axis=(-2, -1))
    return float(worst) if worst.ndim == 0 else worst


def symplectic_residual(m: np.ndarray):
    """max |M J M^T - J|; zero iff M is symplectic.  A stack (..., 4, 4)
    gives one residual per matrix."""
    m = np.asarray(m, dtype=float)
    j = symplectic_form()
    if m.shape[-2:] != j.shape:
        raise ValueError(f"expected a {j.shape[0]}x{j.shape[0]} matrix")
    return _max_abs(m @ j @ m.swapaxes(-1, -2) - j)


@functools.cache
def o32_metric() -> np.ndarray:
    """diag(1, 1, 1, -1, -1) on (x, y, z, t, s), from o32."""
    return _read_only_metric(o32_matrices())


def o32_residual(g: np.ndarray):
    """max |g^T eta g - eta| on (x, y, z, t, s).  A stack (..., 5, 5) gives
    one residual per matrix."""
    g = np.asarray(g, dtype=float)
    eta = o32_metric()
    if g.shape[-2:] != eta.shape:
        raise ValueError("expected a 5x5 matrix")
    return _max_abs(g.swapaxes(-1, -2) @ eta @ g - eta)


def flow_residuals(family, residual, ts) -> dict:
    """Residual of exp(t*(-i*G)) for every generator at the sample times.

    One expm call takes the stack of t*X over every generator and sample;
    scipy runs each slice through the path of a single matrix, so slice
    (g, k) is flow(g, ts[k]).  `residual` takes that stack of flows and
    returns one residual per flow, as `symplectic_residual` and
    `o32_residual` do.
    """
    ts = np.asarray(ts, dtype=float)
    labels, gens = zip(*family.items())
    xs = np.stack([real_generator(g) for g in gens])
    res = residual(expm(ts[:, None, None] * xs[:, None]))
    return {label: [(float(t), float(r)) for t, r in zip(ts, row)]
            for label, row in zip(labels, res)}


# ---------------------------------------------------------------------------
# translations on the affine space (x, y, z, t, 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Affine5Vector:
    """Space-time point carried with the constant fifth component."""

    x: float
    y: float
    z: float
    t: float

    def column(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.t, 1.0])

    def transformed(self, m: np.ndarray) -> "Affine5Vector":
        out = np.asarray(m) @ self.column()
        if out[4] != 1.0:
            raise ValueError("map does not preserve the affine component")
        return Affine5Vector(out[0], out[1], out[2], out[3])


def translate(a: float, b: float, c: float, d: float) -> np.ndarray:
    """Closed-form translation matrix: x+a, y+b, z+c, t-d."""
    m = np.eye(5)
    m[0, 4] = a
    m[1, 4] = b
    m[2, 4] = c
    m[3, 4] = -d
    return m


def expm_nilpotent(x: np.ndarray) -> np.ndarray:
    """Terminating power series for exactly nilpotent x; no rounding beyond
    the term products themselves."""
    x = np.asarray(x)
    n = x.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, n + 1):
        term = term @ x / k
        if not term.any():
            break
        out = out + term
    else:
        raise ValueError("matrix is not nilpotent")
    return out


def translation_generator(a: float, b: float, c: float, d: float) -> np.ndarray:
    """X = -i(a P1 + b P2 + c P3 + d P0); real, strictly upper triangular."""
    fam = translation_matrices()
    combo = (a * real_generator(fam.element("P1"))
             + b * real_generator(fam.element("P2"))
             + c * real_generator(fam.element("P3"))
             + d * real_generator(fam.element("P0")))
    return combo


def translate_via_exponential(a: float, b: float, c: float, d: float) -> np.ndarray:
    """exp(-i(a P1 + b P2 + c P3 + d P0)) by the terminating series.

    The generator squares to zero, so this equals I + X with no rounding;
    agreement with translate() is exact, not approximate.
    """
    return expm_nilpotent(translation_generator(a, b, c, d))


# ---------------------------------------------------------------------------
# mass shell
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FourMomentum:
    p1: float
    p2: float
    p3: float
    p0: float

    @staticmethod
    def at_rest(mass: float) -> "FourMomentum":
        return FourMomentum(0.0, 0.0, 0.0, float(mass))

    def column(self) -> np.ndarray:
        return np.array([self.p1, self.p2, self.p3, self.p0])


def mass_shell(p: FourMomentum) -> float:
    """p1^2 + p2^2 + p3^2 - p0^2; the invariant is -(mass)^2."""
    return p.p1 ** 2 + p.p2 ** 2 + p.p3 ** 2 - p.p0 ** 2


# Distinct (kind, axis, t) flows `_lorentz_block` remembers; one default
# `verify` asks for 4.
LORENTZ_MEMO_SIZE = 64


@functools.lru_cache(maxsize=LORENTZ_MEMO_SIZE)
def _lorentz_block(kind: str, axis: int, t: float) -> np.ndarray:
    """Read-only (x, y, z, t) block of the flow of the o32 generator
    `kind` + `axis` at t."""
    block = flow(o32_matrices().element(f"{kind}{axis}"), t)[:4, :4]
    block.flags.writeable = False
    return block


def _lorentz_map(p: FourMomentum, kind: str, axis: int, t: float,
                 what: str) -> FourMomentum:
    """p under the flow of the o32 generator `kind` + `axis` (K1..3 or J1..3).

    The 4x4 block of the flow comes from `_lorentz_block`, a memo of
    LORENTZ_MEMO_SIZE read-only arrays keyed by (kind, axis, t) with t as a
    float, so a map met again costs one matrix-vector product.
    """
    if isinstance(axis, bool) or not isinstance(axis, Integral) or axis not in (1, 2, 3):
        raise ValueError(f"{what} axis must be 1, 2 or 3")
    return FourMomentum(*(_lorentz_block(kind, int(axis), float(t)) @ p.column()))


def boost_momentum(p: FourMomentum, axis: int, rapidity: float) -> FourMomentum:
    """Boost along axis 1, 2 or 3 by the given rapidity."""
    return _lorentz_map(p, "K", axis, rapidity, "boost")


def rotate_momentum(p: FourMomentum, axis: int, angle: float) -> FourMomentum:
    """Rotate about axis 1, 2 or 3."""
    return _lorentz_map(p, "J", axis, angle, "rotation")
