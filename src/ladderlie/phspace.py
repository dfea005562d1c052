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
    """Gaussian Wigner density: mean (x, p) and 2x2 covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(2)
        cov = np.asarray(self.cov, dtype=float).reshape(2, 2)
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean and covariance must be finite")
        # np.allclose(cov, cov.T, rtol=1e-9, atol=1e-12) on the two entries it
        # can refuse, each as |a - b| <= atol + rtol*|b|, in Python floats
        c01, c10 = float(cov[0, 1]), float(cov[1, 0])
        gap = abs(c01 - c10)
        if not (gap <= 1e-12 + 1e-9 * abs(c10) and gap <= 1e-12 + 1e-9 * abs(c01)):
            raise ValueError("covariance must be symmetric")
        cov = 0.5 * (cov + cov.T)
        # Sylvester's criterion for a symmetric 2x2 positive-definite matrix
        if cov[0, 0] <= 0.0 or np.linalg.det(cov) <= 0.0:
            raise ValueError("covariance must be positive definite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def det_cov(self) -> float:
        return float(np.linalg.det(self.cov))


def ground_state() -> GaussianState:
    """Vacuum: mean zero, covariance I/2, so W(x, p) = exp(-x^2 - p^2)/pi."""
    return GaussianState(np.zeros(2), 0.5 * np.eye(2))


def wigner_eval(state: GaussianState, x: float, p: float) -> float:
    """Wigner density of a Gaussian state at one phase-space point."""
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


def rotation(theta: float) -> np.ndarray:
    return np.array([[np.cos(theta), -np.sin(theta)],
                     [np.sin(theta), np.cos(theta)]])


def squeeze(eta: float) -> np.ndarray:
    return np.diag([np.exp(eta), np.exp(-eta)])


def apply_sp2(state: GaussianState, m: np.ndarray) -> GaussianState:
    """Push a Gaussian state through a linear phase-space map."""
    m = np.asarray(m, dtype=float).reshape(2, 2)
    if np.linalg.det(m) == 0.0:
        raise ValueError("singular phase-space map")
    return GaussianState(m @ state.mean, m @ state.cov @ m.T)


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


def symplectic_residual(m: np.ndarray) -> float:
    """max |M J M^T - J|; zero iff M is symplectic."""
    m = np.asarray(m, dtype=float)
    j = symplectic_form()
    if m.shape != j.shape:
        raise ValueError(f"expected a {j.shape[0]}x{j.shape[0]} matrix")
    return float(np.max(np.abs(m @ j @ m.T - j)))


@functools.cache
def o32_metric() -> np.ndarray:
    """diag(1, 1, 1, -1, -1) on (x, y, z, t, s), from o32."""
    return _read_only_metric(o32_matrices())


def o32_residual(g: np.ndarray) -> float:
    """max |g^T eta g - eta| on (x, y, z, t, s)."""
    g = np.asarray(g, dtype=float)
    eta = o32_metric()
    if g.shape != eta.shape:
        raise ValueError("expected a 5x5 matrix")
    return float(np.max(np.abs(g.T @ eta @ g - eta)))


def flow_residuals(family, residual, ts) -> dict:
    """Residual of exp(t*(-i*G)) for every generator at the sample times.

    One expm call per generator takes the stack of t*X; scipy runs each slice
    through the path of a single matrix, so slice k is flow(g, ts[k]).
    """
    ts = np.asarray(ts, dtype=float)
    out = {}
    for label, g in family.items():
        flows = expm(ts[:, None, None] * real_generator(g))
        out[label] = [(float(t), residual(m)) for t, m in zip(ts, flows)]
    return out


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


def _lorentz_map(p: FourMomentum, kind: str, axis: int, t: float,
                 what: str) -> FourMomentum:
    """p under the flow of the o32 generator `kind` + `axis` (K1..3 or J1..3)."""
    if isinstance(axis, bool) or not isinstance(axis, Integral) or axis not in (1, 2, 3):
        raise ValueError(f"{what} axis must be 1, 2 or 3")
    g = o32_matrices().element(f"{kind}{axis}")
    return FourMomentum(*(flow(g, t)[:4, :4] @ p.column()))


def boost_momentum(p: FourMomentum, axis: int, rapidity: float) -> FourMomentum:
    """Boost along axis 1, 2 or 3 by the given rapidity."""
    return _lorentz_map(p, "K", axis, rapidity, "boost")


def rotate_momentum(p: FourMomentum, axis: int, angle: float) -> FourMomentum:
    """Rotate about axis 1, 2 or 3."""
    return _lorentz_map(p, "J", axis, angle, "rotation")
