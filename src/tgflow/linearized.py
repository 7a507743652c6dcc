"""Linearized state equation around a stored trajectory.

The solver integrates the Frechet derivative of the state dynamics at frozen
coefficients,

    d/dt v(z) = P [ nu Lap z - (y . grad) z - (z . grad) y
                    + div N'(y)[z] + div S'(y)[z] + psi ],    z(0) = 0,

with the same Crank-Nicolson/midpoint scheme, frozen midpoint states taken by
averaging adjacent stored nodes.  Since the divergence-form Jacobian and the
weak formulation of the linearized equation differ only by a pressure
gradient, which projects to zero, the coefficient ODEs here are exactly the
Galerkin system of the weak form; `linearized_form` assembles that weak form
term by term so tests can check the agreement, and the adjoint module checks
its transpose.

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
    advect_tensor,
    jacobian,
    matmul_grid,
    project_div,
    strain,
    strain_partials,
    tensor_dot,
    to_coeffs,
    to_grid,
    trilinear_b,
)
from .state import _cn_factors, _fixed_point, solve_state
from .trajectory import Trajectory, check_same_grid

__all__ = ["solve_linearized", "gateaux_taylor_test", "TaylorResult", "linearized_form"]


class _FrozenState:
    """Grid quantities of a frozen coefficient vector, shared by one step."""

    def __init__(self, basis: SpectralBasis, coeffs: np.ndarray):
        y = Field(coeffs, basis)
        self.basis = basis
        self.vel = to_grid(y)
        self.jac = jacobian(y)
        self.a = strain(self.jac)
        self.a_sq = tensor_dot(self.a, self.a)
        self.a_partials = strain_partials(y)


def linearized_rhs_coeffs(
    frozen: _FrozenState, params: ModelParams, z_coeffs: np.ndarray
) -> np.ndarray:
    """Projection coefficients of F'(y)[z] at the frozen state."""
    basis = frozen.basis
    z = Field(z_coeffs, basis)
    vel_z, jac_z = to_grid(z), jacobian(z)
    a_z = strain(jac_z)

    conv = np.einsum("jxy,ijxy->ixy", frozen.vel, jac_z) + np.einsum(
        "jxy,ijxy->ixy", vel_z, frozen.jac
    )
    stress = np.zeros_like(a_z)

    if params.alpha1 != 0.0:
        adv_az = advect_tensor(frozen.vel, strain_partials(z))
        adv_ay = advect_tensor(vel_z, frozen.a_partials)
        stress = stress + params.alpha1 * (
            adv_az
            + adv_ay
            + matmul_grid(np.swapaxes(jac_z, 0, 1), frozen.a)
            + matmul_grid(np.swapaxes(frozen.jac, 0, 1), a_z)
            + matmul_grid(frozen.a, jac_z)
            + matmul_grid(a_z, frozen.jac)
        )
    if params.alpha2 != 0.0:
        stress = stress + params.alpha2 * (
            matmul_grid(frozen.a, a_z) + matmul_grid(a_z, frozen.a)
        )
    if params.beta != 0.0:
        stress = stress + params.beta * (
            frozen.a_sq * a_z + 2.0 * tensor_dot(frozen.a, a_z) * frozen.a
        )

    return project_div(basis, stress).coeffs - to_coeffs(basis, conv).coeffs


def solve_linearized(y_traj: Trajectory, psi: Trajectory, params: ModelParams) -> Trajectory:
    """Solve the linearized equation driven by psi around the stored state."""
    check_same_grid(y_traj, psi)
    basis = y_traj.basis
    dt = y_traj.dt
    numer, denom = _cn_factors(basis, params, dt)
    y_mid = y_traj.midpoints()
    psi_mid = psi.midpoints()

    coeffs = np.zeros((y_traj.times.size, basis.n_modes))
    z = coeffs[0]
    for k in range(y_traj.n_steps):
        frozen = _FrozenState(basis, y_mid[k])
        src = psi_mid[k] / basis.vmult

        def explicit(mid, frozen=frozen, src=src):
            return linearized_rhs_coeffs(frozen, params, mid) / basis.vmult + src

        guess = 2.0 * coeffs[k] - coeffs[k - 1] if k > 0 else None
        z = _fixed_point(z, explicit, numer, denom, dt, step=k, guess=guess)
        coeffs[k + 1] = z
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
    base, _ = solve_state(y0, control, params)
    z = solve_linearized(base, psi, params)
    remainders = np.empty(rhos.size)
    for i, rho in enumerate(rhos):
        perturbed = Trajectory(
            control.times, control.coeffs + rho * psi.coeffs, control.basis, "control"
        )
        y_rho, _ = solve_state(y0, perturbed, params)
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
    a_y = strain(jacobian(y))
    a_z = strain(jacobian(z))
    grad_phi = jacobian(phi)
    t_sum = np.zeros_like(a_y)
    coef = params.alpha1 + params.alpha2
    if coef != 0.0:
        t_sum = t_sum + coef * (matmul_grid(a_y, a_z) + matmul_grid(a_z, a_y))
    if params.beta != 0.0:
        t_sum = t_sum + params.beta * tensor_dot(a_y, a_y) * a_z
        t_sum = t_sum + 2.0 * params.beta * tensor_dot(a_z, a_y) * a_y
    tensors = basis.quad(np.einsum("ijxy,ijxy->xy", t_sum, grad_phi))
    return visc + conv + tensors
