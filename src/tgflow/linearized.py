"""Linearized state equation around a stored trajectory.

The solver integrates the Frechet derivative of the state dynamics at frozen
coefficients,

    d/dt v(z) = P [ nu Lap z - (y . grad) z - (z . grad) y
                    + div N'(y)[z] + div S'(y)[z] + psi ],    z(0) = 0,

with the same Crank-Nicolson/midpoint scheme (`state.march`), frozen midpoint
states taken by averaging adjacent stored nodes.  Since the divergence-form
Jacobian and the weak formulation of the linearized equation differ only by a
pressure gradient, which projects to zero, the coefficient ODEs here are
exactly the Galerkin system of the weak form; `linearized_form` assembles that
weak form term by term so tests can check the agreement, and the adjoint
module checks its transpose.  In 2D A(y) and A(z) are symmetric and traceless,
so A(y)A(z) + A(z)A(y) = (A(y):A(z)) I: the alpha2 part of N'(y)[z], the
matching part of its alpha1 term and the (alpha1 + alpha2) term of the weak
form are pressures too, and neither the rhs kernel nor linearized_form forms them.

Because the scheme's midpoint is the average of the step endpoints, this
discrete solve is also the exact derivative of the discrete state solve, which
is what the Taylor (Gateaux) test measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ModelParams
from .spectral import (
    Field,
    SpectralBasis,
    fields,
    project,
    slots,
    to_grid,
    trilinear_b,
    turn,
)
from .state import march, solve_state
from .trajectory import Trajectory, check_same_grid

__all__ = ["solve_linearized", "gateaux_taylor_test", "TaylorResult", "linearized_form"]

# the named fields of z the linearized rhs reads, and the slots it writes; the
# frozen state also reads the spin of v(y)
_FIELDS = fields("a_x", "b_x", "a_y", "b_y", "w", "a", "b", "u1", "u2")
_FROZEN = fields("w_v", "a_x", "b_x", "a_y", "b_y", "w", "a", "b", "u1", "u2")
_SLOTS = slots("a", "b", "u1", "u2")
_STRAIN = fields("a", "b")


class FrozenState:
    """Named fields of a frozen state midpoint y and their products, shared by the rhs of one step.

    u, ab, ab_x and ab_y are the stacked pairs (y1, y2), (a, b), (a_x, b_x) and
    (a_y, b_y) of y.  The turned pairs u_turn = (y2, -y1) and ab_turn = (b, -a),
    and w_turn = turn(w) and w_v_turn = turn(w_v) of the spins of y and v(y), give
    w (p2, -p1) = w * p_turn = w_turn * p[::-1] in one product.  tangent holds the
    cubic tangent |A|^2 I + 4 (a, b) (a, b)^T, |A|^2 = 2 (a^2 + b^2), as a symmetric
    (2, 2, Q, Q) array: S'(y)[z] = beta tangent (a_z, b_z).  The linearized and the
    adjoint solvers both build one per step.
    """

    def __init__(self, basis: SpectralBasis, coeffs: np.ndarray):
        self.basis = basis
        g = to_grid(Field(coeffs, basis), rows=_FROZEN)
        self.ab_x, self.ab_y, self.ab, self.u = g[1:3], g[3:5], g[6:8], g[8:10]
        self.u_turn = turn(1.0) * self.u[::-1]
        self.ab_turn = turn(1.0) * self.ab[::-1]
        self.w_turn, self.w_v_turn = turn(g[5]), turn(g[0])
        tangent = (4.0 * self.ab)[:, None] * self.ab[None, :]
        a_sq = 0.5 * (tangent[0, 0] + tangent[1, 1])
        tangent[0, 0] += a_sq
        tangent[1, 1] += a_sq
        self.tangent = tangent

    def cubic_tangent(self, ab_z: np.ndarray) -> np.ndarray:
        """tangent (a_z, b_z) as a stacked pair; times beta it is S'(y)[z]."""
        return self.tangent[0] * ab_z[0] + self.tangent[1] * ab_z[1]


def linearized_rhs_coeffs(
    frozen: FrozenState, params: ModelParams, z_coeffs: np.ndarray
) -> np.ndarray:
    """Projection coefficients of F'(y)[z] at the frozen state, stress the tangent of `deviator`."""
    y = frozen
    z = to_grid(Field(z_coeffs, y.basis), rows=_FIELDS)
    w, ab, u = z[4], z[5:7], z[7:9]
    convected = (
        y.u[0] * z[0:2] + y.u[1] * z[2:4] + u[0] * y.ab_x + u[1] * y.ab_y
        - w * y.ab_turn - y.w_turn * ab[::-1]
    )
    stress = params.beta * y.cubic_tangent(ab) + params.alpha1 * convected
    # (y.grad)z + (z.grad)y in Lamb form, w_z (y2, -y1) + w_y (z2, -z1), plus a pressure
    conv = w * y.u_turn + y.w_turn * u[::-1]
    return -project(y.basis, np.concatenate([stress, conv]), _SLOTS).sum(axis=0)


def solve_linearized(y_traj: Trajectory, psi: Trajectory, params: ModelParams) -> Trajectory:
    """Solve the linearized equation driven by psi around the stored state."""
    check_same_grid(y_traj, psi)
    basis = y_traj.basis
    y_mid = y_traj.midpoints()
    psi_mid = psi.midpoints()

    def rhs_at(k):
        frozen = FrozenState(basis, y_mid[k])
        src = psi_mid[k] / basis.vmult
        return lambda mid: linearized_rhs_coeffs(frozen, params, mid) / basis.vmult + src

    coeffs = march(basis, params, y_traj.dt, np.zeros(basis.n_modes), y_traj.n_steps, rhs_at)
    return Trajectory(y_traj.times.copy(), coeffs, basis, "linearized")


@dataclass(frozen=True)
class TaylorResult:
    """Remainder decay of the Gateaux representation y_rho = y + rho z + rho delta."""

    rhos: np.ndarray
    remainders: np.ndarray   # r(rho) = sup_t || (y_rho - y)/rho - z ||_V
    slopes: np.ndarray       # log-log slopes between consecutive rhos


def gateaux_taylor_test(
    control: Trajectory,
    psi: Trajectory,
    y0: Field,
    rhos,
    params: ModelParams,
) -> TaylorResult:
    """Compare finite-difference state sensitivities with the linearized solve."""
    check_same_grid(control, psi)
    rhos = np.asarray(sorted(rhos, reverse=True), dtype=float)
    if np.any(rhos <= 0):
        raise ValueError("rhos must be positive")
    base = solve_state(y0, control, params)
    z = solve_linearized(base, psi, params)
    remainders = np.empty(rhos.size)
    for i, rho in enumerate(rhos):
        perturbed = Trajectory(
            control.times, control.coeffs + rho * psi.coeffs, control.basis, "control"
        )
        y_rho = solve_state(y0, perturbed, params)
        delta = (y_rho.coeffs - base.coeffs) / rho - z.coeffs
        remainders[i] = float(np.max(np.sqrt(np.sum(delta ** 2, axis=1))))
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = np.diff(np.log(remainders)) / np.diff(np.log(rhos))
    return TaylorResult(rhos=rhos, remainders=remainders, slopes=slopes)


def linearized_form(y: Field, z: Field, phi: Field, params: ModelParams) -> float:
    """Spatial weak form a(z, phi) of the linearized equation at frozen y.

    a(z, phi) = 2 nu (Dz, Dphi) + b(y, v(z), phi) + b(z, v(y), phi)
              + b(phi, y, v(z)) + b(phi, z, v(y))
              + (alpha1 + alpha2)(A(y)A(z) + A(z)A(y), grad phi)
              + beta (|A(y)|^2 A(z), grad phi)
              + 2 beta ((A(z):A(y)) A(y), grad phi).
    """
    basis = y.basis
    v_y = Field(y.coeffs * basis.vmult, basis)
    v_z = Field(z.coeffs * basis.vmult, basis)
    # 2 nu (Dz, Dphi) = nu (grad z, grad phi) = nu sum lam c_z c_phi / vmult
    visc = params.nu * float(np.sum(z.coeffs * phi.coeffs * basis.lam / basis.vmult))
    conv = (
        trilinear_b(y, v_z, phi)
        + trilinear_b(z, v_y, phi)
        + trilinear_b(phi, y, v_z)
        + trilinear_b(phi, z, v_y)
    )
    return visc + conv + _stress_pairing(y, z, phi, params)


def _stress_pairing(y: Field, z: Field, phi: Field, params: ModelParams) -> float:
    """(T, grad phi), T the cubic tangent stress of A(y) along A(z).

    The stress term of linearized_form and adjoint_form, whose (alpha1 + alpha2) part vanishes.
    """
    ab, ab_z, ab_phi = (to_grid(f, rows=_STRAIN) for f in (y, z, phi))
    # S'(y)[z] = beta (|A|^2 A(z) + 2 (A(y) : A(z)) A(y)), |A|^2 = 2 (a^2 + b^2)
    t = params.beta * (2.0 * np.sum(ab * ab, axis=0) * ab_z + 4.0 * np.sum(ab * ab_z, axis=0) * ab)
    # T : grad phi = T : A(phi) / 2 = t11 a_phi + t12 b_phi for traceless symmetric T
    return y.basis.quad(np.sum(t * ab_phi, axis=0))
