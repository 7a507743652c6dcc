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
module checks its transpose.

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
    convected_strain,
    frobenius,
    project,
    strain,
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
    order 1, a and a_sq the strain A(y) and |A(y)|^2.  The linearized and the
    adjoint solvers both build one per step.
    """

    def __init__(self, basis: SpectralBasis, coeffs: np.ndarray):
        self.basis = basis
        self.y = to_grid(Field(coeffs, basis), 2)
        self.v = to_grid(Field(coeffs * basis.vmult, basis), 1)
        self.a = strain(self.y)
        self.a_sq = frobenius(self.a, self.a)


def linearized_rhs_coeffs(
    frozen: FrozenState, params: ModelParams, z_coeffs: np.ndarray
) -> np.ndarray:
    """Projection coefficients of F'(y)[z] at the frozen state."""
    y = frozen.y
    z = to_grid(Field(z_coeffs, frozen.basis), 2)
    a_z = strain(z)
    # N'(y)[z] + S'(y)[z]: the tangent stress with alpha2 and the alpha1 convected strains
    t = tangent_stress(frozen.a, frozen.a_sq, a_z, params.alpha2, params.beta)
    if params.alpha1 != 0.0:
        k1 = convected_strain(y, z, a_z, params.alpha1)
        k2 = convected_strain(z, y, frozen.a, params.alpha1)
        t = tuple(ti + p + q for ti, p, q in zip(t, k1, k2))
    t11, t12, t22 = t
    conv = advect(y, z) + advect(z, y)
    grid = np.array([[conv[0], t11, t12], [conv[1], t12, t22]])
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
    """(T, grad phi) for the tangent stress T of A(y) along A(z), coef alpha1 + alpha2.

    The stress term of both linearized_form and the adjoint's adjoint_form.
    """
    a_y, a_z = strain(to_grid(y, 1)), strain(to_grid(z, 1))
    t = tangent_stress(a_y, frobenius(a_y, a_y), a_z, params.alpha_sum, params.beta)
    # T : grad phi = T : A(phi) / 2 for symmetric T
    return 0.5 * y.basis.quad(frobenius(t, strain(to_grid(phi, 1))))
