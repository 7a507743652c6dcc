"""Time integration of the nonlinear state equation with energy diagnostics.

The equation is advanced in its divergence form

    d/dt v(y) = P [ nu Lap y - (y . grad) y + div N(y) + div S(y) + U ],

projected onto the div-free basis.  Testing against the unit-V-norm modes
turns this into coefficient ODEs

    da_i/dt = ( -nu lam_i a_i + c_i(F(y)) + c_i(U) ) / (1 + alpha1 lam_i),

where c_i is the basis projection of the nonlinear force F and the control.
One step is Crank-Nicolson on the diagonal viscous part with the nonlinear
terms evaluated at the interval midpoint (y_k + y_{k+1}) / 2, resolved by
fixed-point iteration on the midpoint itself, started from the explicit term
extrapolated from the steps before (the predictor of a PECE scheme).  Controls
are sampled at midpoints by averaging adjacent nodes.  `march` carries out this
scheme for the state, linearized and adjoint solvers alike; each solver supplies
its explicit source per step and its rhs kernel, whose projection amplitudes
already carry the step's factor `midpoint_gain` / vmult (see
`spectral.Workspace`), so one iteration is one kernel call and a few small array
operations.

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
from functools import lru_cache, partial

import numpy as np

from .errors import FixedPointDiverged, GridMismatch
from .params import ModelParams
from .spectral import (
    Field,
    SpectralBasis,
    Workspace,
    fields,
    norm_weights,
    slots,
    synthesize,
    to_grid,  # noqa: F401 -- perfbench traces to_grid in every solver module's namespace
)
from .trajectory import Trajectory, check_same_grid

__all__ = [
    "EnergyReport",
    "StateWork",
    "march",
    "midpoint_gain",
    "solve_state",
    "energy_report",
    "energy_balance_residuals",
    "manufactured_control",
    "FP_TOL",
    "FP_MAX_ITER",
    "PREDICTOR_ORDER",
]

FP_TOL = 1e-10
FP_MAX_ITER = 50
PREDICTOR_ORDER = 8
# weights (-1)^(j + 1) C(q, j), j = q..1, of the explicit terms of steps k - q..k - 1 that
# extrapolate them to step k, for each q = min(k, PREDICTOR_ORDER)
_PREDICT = tuple(
    np.array([(-1.0) ** (j + 1) * math.comb(q, j) for j in range(q, 0, -1)])
    for q in range(PREDICTOR_ORDER + 1)
)
# the named fields the state and linearized rhs read (the linearized one of z and of
# the frozen state alike), and the slots they write: stress, then force
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


@lru_cache(maxsize=16)
def _mixing(alpha1: float, beta: float) -> np.ndarray:
    """The (4, 11) coefficients of the slot grids of F in the products `state_rhs_coeffs` forms.

    -F pairs, by summation by parts, the deviator (t11, t12) of N + S with
    (a, b)(h_i), t11 = alpha1 (u . grad a - w b) + 2 beta (a^2 + b^2) a and
    t12 = alpha1 (u . grad b + w a) + 2 beta (a^2 + b^2) b, and (y.grad)y, in
    Lamb form w (y2, -y1) plus a pressure, with h_i.  The columns are the
    grid rows after the products: u1 (a_x, b_x), u2 (a_y, b_y), w itself,
    which enters no slot, w (a, b, u1, u2) and (a^2 + b^2)(a, b).  The table
    is shared and read-only.
    """
    al, be = alpha1, 2.0 * beta
    mix = -np.array(
        [
            [al, 0.0, al, 0.0, 0.0, 0.0, -al, 0.0, 0.0, be, 0.0],
            [0.0, al, 0.0, al, 0.0, al, 0.0, 0.0, 0.0, 0.0, be],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0],
        ]
    )
    mix.flags.writeable = False
    return mix


class StateWork(Workspace):
    """Buffers and ops of `state_rhs_coeffs`: the fields are multiplied in place
    into the eleven products `_mixing` combines into the four slot grids."""

    def __init__(self, basis: SpectralBasis, params: ModelParams, scale=None):
        super().__init__(basis, _FIELDS, _SLOTS, scale, spare=2)
        g = p = self.grid
        Q = basis.n_points
        strain_sq = np.empty(g.shape[1:])
        ab, w, u = g[5:7], g[4], g[7:9, None]
        grads = g[0:4].reshape(2, 2, Q, Q)  # (a_x, b_x), (a_y, b_y)
        mix = _mixing(params.alpha1, params.beta)
        self.ops = (
            partial(np.multiply, ab, ab, p[9:11]),
            partial(np.add, p[9], p[10], strain_sq),
            partial(np.multiply, strain_sq, ab, p[9:11]),
            partial(np.multiply, u, grads, grads),
            partial(np.multiply, w, g[5:9], p[5:9]),
            partial(np.matmul, mix, p.reshape(len(p), -1), self.slots.reshape(len(self.slots), -1)),
        )


def state_rhs_coeffs(
    basis: SpectralBasis, params: ModelParams, y_coeffs: np.ndarray, work: StateWork | None = None
) -> np.ndarray:
    """Projection coefficients of F(y) = -(y.grad)y + div N(y) + div S(y).

    With work (a StateWork for this basis and params, reused through a solve)
    the result, F(y) times work's scale per mode, is work.out, valid until the
    next call.
    """
    return (work if work is not None else StateWork(basis, params))(y_coeffs)


def _implicit(basis: SpectralBasis, params: ModelParams, dt: float) -> np.ndarray:
    """imp = dt nu lam / (2 vmult), the implicit half of the viscous term over one step."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return 0.5 * dt * params.nu * basis.lam / basis.vmult


def midpoint_gain(basis: SpectralBasis, params: ModelParams, dt: float) -> np.ndarray:
    """h = dt / (2 (1 + imp)) per mode: what `march` multiplies a step's explicit term by.

    A solver scales its kernel's result by h / vmult (`spectral.Workspace`), so
    that its rhs returns h times the time derivative the kernel contributes.
    """
    return 0.5 * dt / (1.0 + _implicit(basis, params, dt))


def march(
    basis: SpectralBasis, params: ModelParams, dt: float, a0: np.ndarray, src: np.ndarray, rhs
) -> np.ndarray:
    """Advance a0 by len(src) Crank-Nicolson/midpoint steps; return all len(src) + 1 nodes.

    Step k advances da/dt = -nu lam a / vmult + src[k] + f(a), f evaluated at
    the midpoint m = (a_k + a_{k+1}) / 2.  With imp = dt nu lam / (2 vmult) and
    h = midpoint_gain = dt / (2 (1 + imp)), m solves

        m = c_k + rhs(k, m),    c_k = a_k / (1 + imp) + h src[k],

    where rhs(k, m) returns h f(m) (the solvers fold h into their kernels), by
    fixed-point iteration on the explicit term r = rhs(k, m), m = c_k + r.
    Step k starts from the prediction r = sum_j w_j r_{k-j}, which extrapolates
    the converged explicit terms of the last q = min(k, PREDICTOR_ORDER) steps
    by the polynomial through them, w_j = (-1)^(j+1) C(q, j): 2 r_{k-1} - r_{k-2}
    for q = 2, and r = 0 at step 0, so that step 0 starts from c_0.  Unlike the
    nodes, r carries no source, so it stays smooth in time under rough controls.
    The endpoint is a_{k+1} = 2 m - a_k = b_k + 2 r, b_k = decay a_k + 2 h src[k]
    with decay = (1 - imp) / (1 + imp), so that a step with f = 0 is the exact
    Crank-Nicolson product.  The iteration stops when the endpoints of two
    consecutive iterates satisfy |a_next - a_new|_inf <= FP_TOL |a_next|_inf,
    that is |r_new - r|_inf <= FP_TOL |a_next / 2|_inf; each iteration forms
    (r_new - r, a_next / 2) = r_new - (r, -b_k / 2) in one difference.  A step
    that produces a non-finite value or does not converge in FP_MAX_ITER
    iterations raises FixedPointDiverged with its index k and its residuals.
    """
    imp = _implicit(basis, params, dt)
    # per step, (-b_k / 2, c_k) = (-decay / 2, carry) a_k + (-h, h) src[k]
    carry_decay = np.stack([-0.5 * ((1.0 - imp) / (1.0 + imp)), 1.0 / (1.0 + imp)])
    half_src = (0.5 * dt / (1.0 + imp)) * src
    sources = np.stack([-half_src, half_src], axis=1)
    n_steps, n_modes = src.shape
    nodes = np.empty((n_steps + 1, n_modes))
    nodes[0] = a0
    ref = np.empty((3, n_modes))  # (r, -b_k / 2, c_k): r the current explicit term
    r, c, ends = ref[0], ref[2], ref[1:3]
    mid, check, magnitude = np.empty(n_modes), np.empty((2, n_modes)), np.empty((2, n_modes))
    terms = np.empty((n_steps, n_modes))  # the converged explicit terms
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            np.multiply(carry_decay, nodes[k], out=ends)
            np.add(ends, sources[k], out=ends)
            q = min(k, PREDICTOR_ORDER)
            np.matmul(_PREDICT[q], terms[k - q : k], out=r)
            np.add(c, r, out=mid)
            residuals = []
            for _ in range(FP_MAX_ITER):
                out = rhs(k, mid)
                np.subtract(out, ref[0:2], out=check)  # (r_new - r, a_next / 2)
                change, half = np.maximum.reduce(np.abs(check, out=magnitude), axis=1).tolist()
                # a NaN or inf in a_next makes scale non-finite
                scale = max(half, 0.5e-30)
                if not math.isfinite(scale):
                    message = "midpoint iteration produced non-finite values; dt is too large"
                    raise FixedPointDiverged(message, step=k, residuals=residuals)
                residuals.append(change / scale)
                if residuals[-1] <= FP_TOL:
                    break
                np.copyto(r, out)
                np.add(c, out, out=mid)
            else:
                raise FixedPointDiverged(
                    f"midpoint iteration did not reach {FP_TOL} in {FP_MAX_ITER} iterations "
                    f"(last residuals {residuals[-3:]}); dt is too large",
                    step=k,
                    residuals=residuals,
                )
            np.copyto(terms[k], out)
            np.add(check[1], check[1], out=nodes[k + 1])
    return nodes


def solve_state(y0: Field, control: Trajectory, params: ModelParams) -> Trajectory:
    """Integrate the state over the control's time grid; store every node.

    The diagnostics of the result are energy_report(traj, params).
    """
    basis = y0.basis
    if not basis.compatible(control.basis):
        raise GridMismatch("initial state and control live on incompatible bases")
    dt = control.dt
    work = StateWork(basis, params, midpoint_gain(basis, params, dt) / basis.vmult)
    coeffs = march(
        basis, params, dt, y0.coeffs, control.midpoints() / basis.vmult,
        lambda k, mid: state_rhs_coeffs(basis, params, mid, work),
    )
    return Trajectory(control.times.copy(), coeffs, basis, "state")


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
    # int |A(y_m)|^4 of every midpoint at once, |A|^2 = 2 (a^2 + b^2)
    strain_sq = 2.0 * np.sum(synthesize(basis, y_mid, _STRAIN) ** 2, axis=1)
    quartic = basis.weights @ strain_sq ** 2 @ basis.weights
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
    discrete error isolates the time discretization.  F is quadratic plus
    cubic, F(s h) = s^2 F2 + s^3 F3, so its values at h and -h give F2 and
    F3 for every node.  Returns (U, y*) as node trajectories.
    """
    unit = np.zeros(basis.n_modes)
    unit[mode_index] = 1.0
    f_plus, f_minus = (state_rhs_coeffs(basis, params, s * unit) for s in (1.0, -1.0))
    f2, f3 = 0.5 * (f_plus + f_minus), 0.5 * (f_plus - f_minus)
    gk = np.array([float(g(t)) for t in times])[:, None]
    u = -(gk ** 2 * f2 + gk ** 3 * f3)
    u[:, mode_index] += (
        np.array([float(gprime(t)) for t in times]) * basis.vmult[mode_index]
        + params.nu * basis.lam[mode_index] * gk[:, 0]
    )
    return (
        Trajectory(times, u, basis, "control"),
        Trajectory(times, gk * unit, basis, "state"),
    )
