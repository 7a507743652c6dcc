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
    advect,
    advect_strain,
    project,
    strain_spin,
    tangent_stress,
    to_grid,
    trilinear_b,
)
from .state import march, solve_state
from .trajectory import Trajectory, check_same_grid

__all__ = ["solve_linearized", "gateaux_taylor_test", "TaylorResult", "linearized_form"]


class FrozenState:
    """Grids of a frozen state midpoint y, shared by every rhs of one step.

    y holds the velocity and its partials up to order 2, v those of v(y) up to
    order 1, (a, b, w) = strain_spin(y) and a_sq = |A(y)|^2.  The linearized and
    the adjoint solvers both build one per step.
    """

    def __init__(self, basis: SpectralBasis, coeffs: np.ndarray):
        self.basis = basis
        self.y = to_grid(Field(coeffs, basis), 2)
        self.v = to_grid(Field(coeffs * basis.vmult, basis), 1)
        self.a, self.b, self.w = strain_spin(self.y)
        self.a_sq = 2.0 * (self.a * self.a + self.b * self.b)


def linearized_rhs_coeffs(
    frozen: FrozenState, params: ModelParams, z_coeffs: np.ndarray
) -> np.ndarray:
    """Projection coefficients of F'(y)[z] at the frozen state, stress the tangent of `stress`."""
    y, a, b, w = frozen.y, frozen.a, frozen.b, frozen.w
    z = to_grid(Field(z_coeffs, frozen.basis), 2)
    a_z, b_z, w_z = strain_spin(z)
    t11, t12 = tangent_stress(a, b, frozen.a_sq, a_z, b_z, params.beta)
    if params.alpha1 != 0.0:
        ya, yb = advect_strain(y, z)
        za, zb = advect_strain(z, y)
        t11 = t11 + params.alpha1 * (ya + za - (w * b_z + w_z * b))
        t12 = t12 + params.alpha1 * (yb + zb + (w * a_z + w_z * a))
    conv = advect(y, z) + advect(z, y)
    grid = np.array([[conv[0], t11, t12], [conv[1], t12, -t11]])
    return -project(frozen.basis, grid).sum(axis=0)


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
    y = FrozenState(y.basis, y.coeffs)
    a_z, b_z, _ = strain_spin(to_grid(z, 1))
    t11, t12 = tangent_stress(y.a, y.b, y.a_sq, a_z, b_z, params.beta)
    # T : grad phi = T : A(phi) / 2 = t11 a_phi + t12 b_phi for traceless symmetric T
    a_phi, b_phi, _ = strain_spin(to_grid(phi, 1))
    return phi.basis.quad(t11 * a_phi + t12 * b_phi)
