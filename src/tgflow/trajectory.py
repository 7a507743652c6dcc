"""Time-indexed coefficient trajectories and their space-time pairings.

A Trajectory stores one Field per node of a uniform time grid as a single
(N_t + 1, n_modes) coefficient matrix.  The Crank-Nicolson solvers sample
interval midpoints by averaging adjacent nodes, so the natural space-time
quadrature here is the midpoint rule over node-averaged values; that choice
makes the discrete duality and gradient identities exact.  The admissible-ball
norm uses trapezoidal node weights instead, which are strictly positive and
hence define a genuine norm on node values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, UnknownKind
from .spectral import Field, SpectralBasis, norm_weights

__all__ = ["Trajectory", "KINDS", "time_grid", "random_field", "random_traj"]

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

    @property
    def horizon(self) -> float:
        return float(self.times[-1] - self.times[0])

    def midpoints(self) -> np.ndarray:
        """Interval midpoint coefficients by node averaging, shape (N_t, n_modes)."""
        return 0.5 * (self.coeffs[:-1] + self.coeffs[1:])

    def reversed(self) -> "Trajectory":
        """Same node values traversed backward on the same forward time grid."""
        return Trajectory(self.times, self.coeffs[::-1].copy(), self.basis, self.kind)

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


def pair_l2l2_mid(a: Trajectory, b: Trajectory) -> float:
    """Midpoint-rule space-time pairing int_0^T (a, b)_{L2(D)} dt."""
    check_same_grid(a, b)
    am, bm = a.midpoints(), b.midpoints()
    per_interval = np.sum(am * bm / a.basis.vmult, axis=1)
    return float(a.dt * np.sum(per_interval))


def norm_l2l2_mid(a: Trajectory) -> float:
    return float(np.sqrt(max(pair_l2l2_mid(a, a), 0.0)))


def l2h1_trap_weights(a: Trajectory) -> np.ndarray:
    """(N_t + 1, n_modes) weights W of the trapezoidal L2(0,T; H1) product sum(x * y * W).

    Trapezoid weights in time times the H1 weights (1 + lam) / vmult in space.
    """
    w = np.full(a.times.size, a.dt)
    w[0] = w[-1] = 0.5 * a.dt
    return w[:, None] * norm_weights(a.basis, "H1")


def pair_l2h1_trap(a: Trajectory, b: Trajectory) -> float:
    """Trapezoidal L2(0,T; H1) inner product of node values, the admissible ball's own."""
    check_same_grid(a, b)
    return float(np.sum(a.coeffs * b.coeffs * l2h1_trap_weights(a)))


def norm_l2h1_trap(a: Trajectory) -> float:
    """Trapezoidal L2(0,T; H1) norm of node values, used for the admissible ball."""
    return float(np.sqrt(pair_l2h1_trap(a, a)))


def riesz_l2h1_trap(g: Trajectory) -> Trajectory:
    """Riesz representative G of the midpoint pairing in the trapezoidal L2(0,T; H1) product.

    pair_l2l2_mid(g, V) = pair_l2h1_trap(G, V) for every V on the grid of g.
    With gm the interval midpoints of g, G is (gm_{j-1} + gm_j) / 2 at the
    interior nodes, gm_0 and gm_{N-1} at the end nodes, each divided by
    1 + lam mode by mode.
    """
    gm = g.midpoints()
    nodes = np.empty_like(g.coeffs)
    nodes[0], nodes[-1] = gm[0], gm[-1]
    nodes[1:-1] = 0.5 * (gm[:-1] + gm[1:])
    return Trajectory(g.times, nodes / (1.0 + g.basis.lam), g.basis, g.kind)
