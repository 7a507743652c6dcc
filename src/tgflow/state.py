"""Time integration of the nonlinear state equation with energy diagnostics.

The equation is advanced in its divergence form

    d/dt v(y) = P [ nu Lap y - (y . grad) y + div N(y) + div S(y) + U ],

projected onto the div-free basis.  Testing against the unit-V-norm modes
turns this into coefficient ODEs

    da_i/dt = ( -nu lam_i a_i + c_i(F(y)) + c_i(U) ) / (1 + alpha1 lam_i),

where c_i is the basis projection of the nonlinear force F and the control.
One step is Crank-Nicolson on the diagonal viscous part with the nonlinear
terms evaluated at the interval midpoint (y_k + y_{k+1}) / 2, resolved by
fixed-point iteration.  Controls are sampled at midpoints by averaging
adjacent nodes.  `march` carries out this scheme for the state, linearized
and adjoint solvers alike; each solver only supplies its explicit term.

Because every projection is an exact quadrature pairing, the scheme satisfies
a discrete V-norm energy identity per step,

    ||y_{k+1}||_V^2 - ||y_k||_V^2
        = dt [ -4 nu ||D y_m||_2^2 - beta int |A(y_m)|^4 + 2 (U_m, y_m) ],

with y_m the converged midpoint; the cubic term is nonpositive by quadrature
of a pointwise nonnegative integrand, which is the dissipation mechanism the
continuous H1 estimate rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FixedPointDiverged, GridMismatch
from .params import ModelParams
from .spectral import (
    Field,
    SpectralBasis,
    deviator,
    fields,
    norm_weights,
    project,
    slots,
    to_grid,
    turn,
)
from .trajectory import Trajectory, check_same_grid

__all__ = [
    "EnergyReport",
    "march",
    "solve_state",
    "energy_report",
    "energy_balance_residuals",
    "manufactured_control",
    "FP_TOL",
    "FP_MAX_ITER",
]

FP_TOL = 1e-10
FP_MAX_ITER = 50
# weights of the nodes k - 3..k (as many as exist) in the first iterate of step k
_GUESS = tuple(np.array(w) for w in ([1.0], [-1.0, 2.0], [1.0, -3.0, 3.0], [-1.0, 4.0, -6.0, 4.0]))
# the named fields the state rhs reads, and the slots it writes: stress, then force
_FIELDS = fields("a_x", "b_x", "a_y", "b_y", "w", "a", "b", "u1", "u2")
_SLOTS = slots("a", "b", "u1", "u2")
_STRAIN = fields("a", "b")


@dataclass(frozen=True)
class EnergyReport:
    """Per-node diagnostics of a state trajectory.

    h1, h3       : Sobolev norms ||y(t_k)||_{H1}, ||y(t_k)||_{H3}
    dissipation  : cumulative 4 nu int_0^{t_k} ||D y||_2^2 ds (midpoint rule)
    gamma        : sup_k ||y(t_k)||_{H3}, fed to the uniqueness diagnostics
    """

    times: np.ndarray
    h1: np.ndarray
    h3: np.ndarray
    dissipation: np.ndarray
    gamma: float


def state_rhs_coeffs(basis: SpectralBasis, params: ModelParams, y_coeffs: np.ndarray) -> np.ndarray:
    """Projection coefficients of F(y) = -(y.grad)y + div N(y) + div S(y)."""
    g = to_grid(Field(y_coeffs, basis), rows=_FIELDS)
    w_turn, ab, u = turn(g[4]), g[5:7], g[7:9]
    # -F pairs, by summation by parts, the deviator (t11, t12) of N + S with
    # (a, b)(h_i) and (y.grad)y, in Lamb form w (y2, -y1) plus a pressure, with h_i
    grids = np.concatenate([deviator(params, u, w_turn, ab, g[0:2], g[2:4]), w_turn * u[::-1]])
    return -project(basis, grids, _SLOTS).sum(axis=0)


def march(
    basis: SpectralBasis, params: ModelParams, dt: float, a0: np.ndarray, n_steps: int, rhs_at
) -> np.ndarray:
    """Advance a0 by n_steps Crank-Nicolson/midpoint steps; return all n_steps + 1 nodes.

    Step k solves a_{k+1} = decay a_k + gain rhs(mid), mid = (a_k + a_{k+1}) / 2, with
    decay = (1 - imp) / (1 + imp), gain = dt / (1 + imp) and imp = dt nu lam / (2 vmult),
    for rhs = rhs_at(k) by fixed-point iteration from the polynomial through the last
    min(k, 3) + 1 nodes: 2 a_1 - a_0, 3 a_2 - 3 a_1 + a_0, then 4 a_k - 6 a_{k-1} + ...
    A step that does not converge raises FixedPointDiverged with its index k.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    imp = 0.5 * dt * params.nu * basis.lam / basis.vmult
    decay, gain = (1.0 - imp) / (1.0 + imp), dt / (1.0 + imp)
    nodes = np.empty((n_steps + 1, basis.n_modes))
    nodes[0] = a0
    check = np.empty((2, basis.n_modes))  # |a_next - a_new| and |a_next|
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            rhs = rhs_at(k)
            a_prev = nodes[k]
            base = decay * a_prev
            a_new = _GUESS[min(k, 3)] @ nodes[max(k - 3, 0) : k + 1]
            residuals = []
            for _ in range(FP_MAX_ITER):
                a_next = base + gain * rhs(0.5 * (a_prev + a_new))
                np.subtract(a_next, a_new, out=check[0])
                check[1] = a_next
                change, size = np.abs(check, out=check).max(axis=1)
                # a NaN or inf in a_next makes scale non-finite
                scale = max(float(size), 1e-30)
                if not math.isfinite(scale):
                    raise FixedPointDiverged(
                        "midpoint iteration produced non-finite values; dt is too large",
                        step=k,
                        residuals=residuals,
                    )
                res = float(change) / scale
                residuals.append(res)
                a_new = a_next
                if res <= FP_TOL:
                    break
            else:
                raise FixedPointDiverged(
                    f"midpoint iteration did not reach {FP_TOL} in {FP_MAX_ITER} iterations "
                    f"(last residuals {residuals[-3:]}); dt is too large",
                    step=k,
                    residuals=residuals,
                )
            nodes[k + 1] = a_new
    return nodes


def solve_state(y0: Field, control: Trajectory, params: ModelParams) -> Trajectory:
    """Integrate the state over the control's time grid; store every node.

    The diagnostics of the result are energy_report(traj, params).
    """
    basis = y0.basis
    if not basis.compatible(control.basis):
        raise GridMismatch("initial state and control live on incompatible bases")
    u_term = control.midpoints() / basis.vmult

    def rhs_at(k):
        return lambda mid: state_rhs_coeffs(basis, params, mid) / basis.vmult + u_term[k]

    coeffs = march(basis, params, control.dt, y0.coeffs, control.n_steps, rhs_at)
    return Trajectory(control.times.copy(), coeffs, basis, "state")


def _strain_quartic(basis: SpectralBasis, coeffs: np.ndarray) -> float:
    """int_D |A(y)|^4 dx of the field with the given coefficients, |A|^2 = 2 (a^2 + b^2)."""
    a, b = to_grid(Field(coeffs, basis), rows=_STRAIN)
    return basis.quad((2.0 * (a * a + b * b)) ** 2)


def energy_report(traj: Trajectory, params: ModelParams) -> EnergyReport:
    basis = traj.basis
    weights = np.stack([norm_weights(basis, kind) for kind in ("H1", "H3")])
    h1, h3 = np.sqrt(np.sum(traj.coeffs[:, None] ** 2 * weights, axis=2)).T
    # 2 ||D y||_2^2 = sum lam a^2 / (1 + alpha1 lam) for V-normalized modes
    mids = traj.midpoints()
    dstrain_sq = 0.5 * np.sum(mids ** 2 * basis.lam / basis.vmult, axis=1)
    dissipation = np.concatenate([[0.0], np.cumsum(4.0 * params.nu * dstrain_sq * traj.dt)])
    return EnergyReport(
        times=traj.times.copy(),
        h1=h1,
        h3=h3,
        dissipation=dissipation,
        gamma=float(np.max(h3)),
    )


def energy_balance_residuals(
    traj: Trajectory, control: Trajectory, params: ModelParams
) -> np.ndarray:
    """Per-step residual of the discrete V-norm energy identity.

    Returns r_k = ||y_{k+1}||_V^2 - ||y_k||_V^2 + dt (4 nu ||D y_m||^2
    + beta int |A(y_m)|^4 - 2 (U_m, y_m)); the solver makes
    r_k vanish to fixed-point tolerance, and dropping the control term turns
    the identity into the dissipation inequality.
    """
    check_same_grid(traj, control)
    basis = traj.basis
    y_mid = traj.midpoints()
    u_mid = control.midpoints()
    v_incr = np.diff(np.sum(traj.coeffs ** 2, axis=1))
    # 4 nu ||D y_m||_2^2 = 2 nu sum lam a^2 / (1 + alpha1 lam)
    dvisc = 2.0 * params.nu * np.sum(y_mid ** 2 * basis.lam / basis.vmult, axis=1)
    quartic = np.array([_strain_quartic(basis, c) for c in y_mid])
    work = np.sum(u_mid * y_mid / basis.vmult, axis=1)
    return v_incr + traj.dt * (dvisc + params.beta * quartic - 2.0 * work)


def manufactured_control(
    basis: SpectralBasis,
    params: ModelParams,
    times: np.ndarray,
    mode_index: int,
    g,
    gprime,
) -> tuple[Trajectory, Trajectory]:
    """Control forcing the exact single-mode solution y*(t) = g(t) h_{mode_index}.

    Substituting y* into the projected equation leaves the residual

        c_i(U) = (g' D_i + nu lam_i g) delta_{i,mode} - c_i(F(y*)),

    so the semi-discrete Galerkin solution is y* exactly and the fully
    discrete error isolates the time discretization.  Returns (U, y*) as
    node trajectories.
    """
    n_nodes = times.size
    u = np.empty((n_nodes, basis.n_modes))
    ystar = np.zeros((n_nodes, basis.n_modes))
    for k, t in enumerate(times):
        gk = float(g(t))
        ystar[k, mode_index] = gk
        u[k] = -state_rhs_coeffs(basis, params, ystar[k])
        u[k, mode_index] += (
            float(gprime(t)) * basis.vmult[mode_index] + params.nu * basis.lam[mode_index] * gk
        )
    return (
        Trajectory(times, u, basis, "control"),
        Trajectory(times, ystar, basis, "state"),
    )
