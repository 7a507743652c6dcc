"""Time-indexed coefficient trajectories and their space-time pairings.

A Trajectory stores one Field per node of a uniform time grid as a single
(N_t + 1, n_modes) coefficient matrix.  The Crank-Nicolson solvers sample
interval midpoints by averaging adjacent nodes, so the natural space-time
quadrature here is the midpoint rule over node-averaged values; that choice
makes the discrete duality and gradient identities exact.  The admissible
ball's geometry, `ControlSpace`, uses trapezoidal node weights instead, which
are strictly positive and hence define a genuine norm on node values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, UnknownKind
from .spectral import Field, SpectralBasis, norm_weights

__all__ = ["Trajectory", "ControlSpace", "KINDS", "time_grid", "random_field", "random_traj"]

KINDS = ("state", "linearized", "adjoint", "control", "target")


def _time_tol(times: np.ndarray) -> float:
    """Roundoff allowance for node times: 1e-12 of the largest |t|, never absolute.

    Spacings of a floating-point grid carry errors of a few ulps of its
    largest node, so a bound relative to dt alone would reject long uniform
    grids, while a fixed absolute bound would accept jittered fine ones.
    """
    return 1e-12 * float(np.max(np.abs(times)))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Fields at the nodes of a uniform time grid, tagged by role."""

    times: np.ndarray        # (N_t + 1,)
    coeffs: np.ndarray       # (N_t + 1, n_modes)
    basis: SpectralBasis
    kind: str = "state"

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        if self.kind not in KINDS:
            raise UnknownKind(f"unknown trajectory kind {self.kind!r}")
        if self.times.ndim != 1 or self.coeffs.shape != (self.times.size, self.basis.n_modes):
            raise GridMismatch(
                f"coefficients {self.coeffs.shape} do not match "
                f"{self.times.size} nodes x {self.basis.n_modes} modes"
            )
        if (
            self.times.size < 2
            or not np.isfinite(self.times).all()
            or np.any((dt := np.diff(self.times)) <= 0)
            or np.max(np.abs(dt - dt[0])) > _time_tol(self.times)
        ):
            raise GridMismatch("times must be finite, strictly increasing and uniform")

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def midpoints(self) -> np.ndarray:
        """Interval midpoint coefficients by node averaging, shape (N_t, n_modes)."""
        return 0.5 * (self.coeffs[:-1] + self.coeffs[1:])

    def with_kind(self, kind: str) -> "Trajectory":
        return Trajectory(self.times, self.coeffs, self.basis, kind)


def time_grid(horizon: float, n_steps: int) -> np.ndarray:
    if horizon <= 0 or n_steps < 1:
        raise ValueError("need horizon > 0 and n_steps >= 1")
    return np.linspace(0.0, horizon, n_steps + 1)


def random_field(basis: SpectralBasis, rng, amp: float = 0.3) -> Field:
    """Random smooth field: normal coefficients damped by (1 + lam)^(-1/2)."""
    return Field(amp * rng.normal(size=basis.n_modes) / np.sqrt(1.0 + basis.lam), basis)


def random_traj(basis: SpectralBasis, times, rng, amp: float = 0.3, kind: str = "control"):
    """Random smooth trajectory: one damped mode profile times a random sinusoid in t."""
    phase = rng.uniform(0.0, 2.0 * np.pi)
    omega = rng.uniform(1.0, 4.0)
    profile = 1.0 + 0.5 * np.sin(omega * times + phase)
    coeffs = profile[:, None] * (amp * rng.normal(size=basis.n_modes) / (1.0 + basis.lam))[None, :]
    return Trajectory(times, coeffs, basis, kind)


def check_same_grid(a: Trajectory, b: Trajectory) -> None:
    if not a.basis.compatible(b.basis):
        raise GridMismatch("trajectories live on incompatible bases")
    if a.times.shape != b.times.shape or np.max(np.abs(a.times - b.times)) > _time_tol(b.times):
        raise GridMismatch("trajectories live on different time grids")


def _pair_mid(a: np.ndarray, b: np.ndarray, dt: float, vmult: np.ndarray) -> float:
    """Midpoint-rule int_0^T (a, b)_{L2(D)} dt of node arrays on a grid of step dt."""
    am, bm = 0.5 * (a[:-1] + a[1:]), 0.5 * (b[:-1] + b[1:])
    return float(dt * np.sum(np.sum(am * bm / vmult, axis=1)))


def pair_l2l2_mid(a: Trajectory, b: Trajectory) -> float:
    """Midpoint-rule space-time pairing int_0^T (a, b)_{L2(D)} dt."""
    check_same_grid(a, b)
    return _pair_mid(a.coeffs, b.coeffs, a.dt, a.basis.vmult)


def norm_l2h1_trap(a: Trajectory) -> float:
    """Trapezoidal L2(0,T; H1) norm of node values, the admissible ball's (ControlSpace.norm)."""
    return ControlSpace(a.times, a.basis).norm(a.coeffs)


class ControlSpace:
    """The admissible ball's geometry on the (N_t + 1, n_modes) node arrays of controls.

    Its inner product W is trapezoidal L2(0,T; H1), <a, b>_W = sum_j w_j
    sum_i a_ji b_ji (1 + lam_i) / vmult_i with trapezoid weights w_j, summed
    by numpy rather than BLAS so that results do not depend on the BLAS
    thread count.  The gradient pairs with controls by the solvers' midpoint
    rule (`mid`); `riesz` maps it to W.
    """

    def __init__(self, times: np.ndarray, basis: SpectralBasis):
        self.times, self.basis = times, basis
        self.dt = float(times[1] - times[0])
        self.h0 = 1.0 + basis.lam  # the H1 factor of W, mode by mode
        w = np.full(times.size, self.dt)
        w[0] = w[-1] = 0.5 * self.dt
        self.weight = w[:, None] * norm_weights(basis, "H1")

    def mid(self, a: np.ndarray, b: np.ndarray) -> float:
        """Midpoint-rule pairing int_0^T (a, b)_{L2(D)} dt, the one the gradient is taken in."""
        return _pair_mid(a, b, self.dt, self.basis.vmult)

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.sum(a * b * self.weight))

    def norm(self, a: np.ndarray) -> float:
        return float(np.sqrt(self.inner(a, a)))

    def riesz(self, g: np.ndarray) -> np.ndarray:
        """W representative G of the midpoint pairing: mid(g, v) = inner(G, v) for every v.

        With gm the interval midpoints of g, G is (gm_{j-1} + gm_j) / 2 at the interior
        nodes, gm_0 and gm_{N-1} at the end nodes, each divided by 1 + lam mode by mode.
        """
        gm = 0.5 * (g[:-1] + g[1:])
        nodes = np.empty_like(g)
        nodes[0], nodes[-1] = gm[0], gm[-1]
        nodes[1:-1] = 0.5 * (gm[:-1] + gm[1:])
        return nodes / self.h0

    def project(self, a: np.ndarray, radius: float) -> np.ndarray:
        """Radial retraction onto the W ball, its exact metric projection; a itself inside it."""
        nrm = self.norm(a)
        return a if nrm <= radius else a * (radius / nrm)
