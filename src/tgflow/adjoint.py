"""Backward adjoint equation solved through its time-reversed weak form.

The adjoint state p carries terminal data p(T) = 0 and satisfies, for every
test function phi in the basis span,

    (-d/dt v(p), phi) + 2 nu (Dp, Dphi) - b(phi, p, v(y)) + b(p, phi, v(y))
      + b(p, y, v(phi)) - b(y, p, v(phi))
      + (alpha1 + alpha2)(A(y)A(p) + A(p)A(y), grad phi)
      + beta (|A(y)|^2 A(p), grad phi)
      + 2 beta ((A(p):A(y)) A(y), grad phi) = (f, phi).

Substituting q(t) = p(T - t) gives a forward problem with reversed
coefficients ybar(t) = y(T - t), advanced by the same Crank-Nicolson/midpoint
scheme as the other solvers (`state.march`) and re-reversed.  The spatial form
above is the exact transpose of the linearized form, term by term, under the
grid quadrature pairing.  Its (alpha1 + alpha2) term pairs (A(y):A(p)) I, a
pressure, with grad phi, so it vanishes and only the beta terms are formed.
The discrete duality

    sum_k dt (psi_mid, p_mid) = sum_k dt (f_mid, z_mid)

holds to fixed-point tolerance; `check_duality` reports both sides.
"""

from __future__ import annotations

import numpy as np

from .linearized import FrozenState, _stress_pairing, solve_linearized
from .params import ModelParams
from .spectral import Field, fields, project, slots, to_grid, trilinear_b
from .state import march
from .trajectory import Trajectory, check_same_grid, pair_l2l2_mid

__all__ = ["solve_adjoint", "check_duality", "adjoint_form"]

# the named fields of q the adjoint rhs reads, and the slots it writes: the
# stream function of the terms tested against v(phi), the stress and the force
_FIELDS = fields("a", "b", "u1", "u2")
_SLOTS = slots("w", "a", "b", "u1", "u2")


def adjoint_rhs_terms(
    frozen: FrozenState, params: ModelParams, q_coeffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Explicit terms of the reversed adjoint ODE at a frozen state.

    Returns (inner, outer): the coefficient ODE reads
    ds/dt = (-nu lam s + inner + c(f)) / vmult + outer, where inner collects
    the terms tested against phi and outer the two tested against v(phi).
    """
    y = frozen
    q = to_grid(Field(q_coeffs, y.basis), rows=_FIELDS)
    u = q[2:4]
    grids = np.empty((5, *q.shape[1:]))
    # +b(q, ybar, v(phi)) - b(ybar, q, v(phi)) pairs (ybar.grad)q - (q.grad)ybar = curl(psi),
    # psi = q1 ybar2 - q2 ybar1, with v(phi); psi vanishes on the walls, so by parts
    # that is -(psi, w(v(phi))), the w slot carrying the v-weight of the projection
    np.sum(u * y.u_turn, axis=0, out=grids[0])
    # -(S'(ybar)[q], grad phi), by summation by parts tested against (a, b)(phi)
    np.multiply(-params.beta, y.cubic_tangent(q[0:2]), out=grids[1:3])
    # -b(phi, q, v(ybar)) and +b(q, phi, v(ybar)) move to the right-hand side as
    # ((grad q)^T v + (q . grad) v, phi): in Lamb form w_v (q2, -q1) plus a pressure
    np.multiply(y.w_v_turn, u[::-1], out=grids[3:5])
    r = project(y.basis, grids, _SLOTS)
    return r[1:].sum(axis=0), -r[0]


def solve_adjoint(y_traj: Trajectory, f: Trajectory, params: ModelParams) -> Trajectory:
    """Solve the adjoint equation with source f; returns p with p(T) = 0.

    The march runs in reversed time, so the `step` of a FixedPointDiverged
    raised here counts intervals back from T: step k is [t_{N-k-1}, t_{N-k}].
    """
    check_same_grid(y_traj, f)
    basis = y_traj.basis
    y_mid = y_traj.reversed().midpoints()
    f_mid = f.reversed().midpoints()

    def rhs_at(k):
        frozen = FrozenState(basis, y_mid[k])
        src = f_mid[k] / basis.vmult

        def rhs(mid):
            inner, outer = adjoint_rhs_terms(frozen, params, mid)
            return inner / basis.vmult + src + outer

        return rhs

    q = march(basis, params, y_traj.dt, np.zeros(basis.n_modes), y_traj.n_steps, rhs_at)
    return Trajectory(y_traj.times.copy(), q, basis, "adjoint").reversed()


def check_duality(
    y_traj: Trajectory, psi: Trajectory, f: Trajectory, params: ModelParams
) -> tuple[float, float, float]:
    """Evaluate both sides of int (psi, p) dt = int (f, z) dt and their gap.

    z is solved from psi by the linearized module, p from f here; the
    integrals use the scheme's midpoint quadrature.  Returns (lhs, rhs, gap)
    with gap relative to the larger magnitude.
    """
    check_same_grid(y_traj, psi)
    check_same_grid(y_traj, f)
    z = solve_linearized(y_traj, psi, params)
    p = solve_adjoint(y_traj, f, params)
    lhs = pair_l2l2_mid(psi, p)
    rhs = pair_l2l2_mid(f, z)
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
    return lhs, rhs, gap


def adjoint_form(y: Field, p: Field, phi: Field, params: ModelParams) -> float:
    """Spatial weak form a*(p, phi) of the adjoint equation at frozen y.

    Transposition check: a*(p, z) equals the linearized module's a(z, p).
    """
    basis = y.basis
    v_y = Field(y.coeffs * basis.vmult, basis)
    v_phi = Field(phi.coeffs * basis.vmult, basis)
    visc = params.nu * float(np.sum(p.coeffs * phi.coeffs * basis.lam / basis.vmult))
    conv = (
        -trilinear_b(phi, p, v_y)
        + trilinear_b(p, phi, v_y)
        + trilinear_b(p, y, v_phi)
        - trilinear_b(y, p, v_phi)
    )
    return visc + conv + _stress_pairing(y, p, phi, params)
