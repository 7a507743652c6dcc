"""Time integration of the nonlinear state equation with energy diagnostics.

The equation is advanced in its divergence form

    d/dt v(y) = P [ nu Lap y - (y . grad) y + div N(y) + div S(y) + U ],

projected onto the div-free basis.  Testing against the unit-V-norm modes
turns this into coefficient ODEs

    da_i/dt = ( -nu lam_i a_i + c_i(F(y)) + c_i(U) ) / (1 + alpha1 lam_i),

where c_i is the basis projection of the nonlinear force F and the control.
One step is Crank-Nicolson on the diagonal viscous part with the nonlinear
terms evaluated at the interval midpoint (y_k + y_{k+1}) / 2, resolved by
fixed-point iteration started from the explicit terms extrapolated from the
steps before (the predictor of a PECE scheme); controls are sampled at
midpoints by averaging adjacent nodes.  `march` carries out this scheme for all
three solvers, a window of steps per sweep: each supplies its source per step
and its rhs kernel, whose projection amplitudes carry the factor
`midpoint_gain` / vmult (`spectral.Workspace`), so one sweep is one kernel call.

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

from .errors import FixedPointDiverged, GridMismatch, ShapeMismatch
from .params import ModelParams
from .spectral import Field, SpectralBasis, Workspace, fields, norm_weights, slots, to_grid
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
    """Buffers and ops of `state_rhs_coeffs`: the fields are multiplied in place into
    the eleven products `_mixing` combines into the four slot grids."""

    rows, slot_rows, spare, buffers = _FIELDS, _SLOTS, 2, dict(strain_sq=())

    def kernel_ops(self, at) -> tuple:
        g, strain_sq, Q = self.grid, self.strain_sq, self.basis.n_points
        lead = g[at].shape[:-3]  # (n,), or () at one step
        ab, grads = g[at, 5:7], g[at, 0:4].reshape(*lead, 2, 2, Q, Q)  # (a_x, b_x), (a_y, b_y)
        mix = _mixing(self.params.alpha1, self.params.beta)
        return (
            partial(np.multiply, ab, ab, g[at, 9:11]),
            partial(np.add, g[at, 9], g[at, 10], strain_sq[at]),
            partial(np.multiply, strain_sq[at, None], ab, g[at, 9:11]),
            partial(np.multiply, g[at, 7:9, None], grads, grads),
            partial(np.multiply, g[at, 4, None], g[at, 5:9], g[at, 5:9]),
            partial(
                np.matmul, mix, g[at].reshape(*lead, -1, Q * Q),
                self.slots[at].reshape(*lead, -1, Q * Q),
            ),
        )


def state_rhs_coeffs(
    basis: SpectralBasis, params: ModelParams, y_coeffs: np.ndarray, work: StateWork | None = None
) -> np.ndarray:
    """Projection coefficients of F(y) = -(y.grad)y + div N(y) + div S(y).

    y_coeffs is a row or a stack, a step per row.  With work (a StateWork for this
    basis and params, reused through a solve) the result, F(y) times work's scale per
    mode, is work.out, valid until the next call; without, `Workspace.evaluate`.
    """
    return StateWork.evaluate(basis, params, y_coeffs) if work is None else work(y_coeffs)


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


@lru_cache(maxsize=8)
def _window(basis: SpectralBasis, params: ModelParams, dt: float, c: int) -> tuple:
    """(spread, coef, h, extrapolate) for windows of c steps, decay = (1 - imp) / (1 + imp).

    spread = (W, T) carries a window's explicit terms to their shares of its midpoints
    and half endpoints, T[i, l] = decay^(i-l) for l <= i, W[i, l] = 2 T[i-1, l] / (1 + imp)
    below the diagonal and 1 on it; coef = (-decay^(i+1) / 2, decay^i / (1 + imp)) carries
    the window's first node to them; h = midpoint_gain.  extrapolate[q], (c, q), takes the
    terms of steps k - q..k - 1 by the polynomial through them to steps k + s, s < c: for
    step k - j, (-1)^(j+1) C(s+q, q) j C(q, j) / (s + j).
    """
    imp = _implicit(basis, params, dt)
    decay, carry = (1.0 - imp) / (1.0 + imp), 1.0 / (1.0 + imp)
    power = decay ** np.arange(c + 1)[:, None]
    lag = np.subtract.outer(np.arange(c), np.arange(c))
    spread = np.zeros((2, c, c, basis.n_modes))
    spread[1] = power[lag.clip(0)] * (lag >= 0)[..., None]
    spread[0, 1:] = 2.0 * carry * spread[1, :-1]
    spread[0, lag == 0] = 1.0
    coef = np.stack([-0.5 * power[1:], carry * power[:-1]])
    spread.flags.writeable = coef.flags.writeable = False
    extrapolate = tuple(
        np.array([[(-1) ** (j + 1) * math.comb(s + q, q) * j * math.comb(q, j) / (s + j)
                   for j in range(q, 0, -1)] for s in range(c)]).reshape(c, q)
        for q in range(PREDICTOR_ORDER + 1)
    )
    return spread, coef, midpoint_gain(basis, params, dt), extrapolate


def march(
    basis: SpectralBasis, params: ModelParams, dt: float, a0: np.ndarray, src: np.ndarray, rhs,
    window: int = 1,
) -> np.ndarray:
    """Advance a0 by len(src) Crank-Nicolson/midpoint steps; return all len(src) + 1 nodes.

    Step k advances da/dt = -nu lam a / vmult + src[k] + f(a), f at the midpoint
    m = (a_k + a_{k+1}) / 2.  With imp = dt nu lam / (2 vmult), h = midpoint_gain =
    dt / (2 (1 + imp)) and decay = (1 - imp) / (1 + imp), m = c_k + r_k with the
    explicit term r_k = h f(m) and c_k = a_k / (1 + imp) + h src[k], and
    a_{k+1} = 2 m - a_k = decay a_k + 2 h src[k] + 2 r_k: with f = 0, the exact
    Crank-Nicolson product.

    Steps go in windows of c = min(window, len(src)), the last maybe shorter, each
    solved by Picard sweeps on its terms r (waveform relaxation): a sweep carries r
    through the recurrence to the window's n midpoints and evaluates them in one
    call rhs(k, mids), k the window's first step and mids (n, n_modes), or a row for
    n = 1, which returns the n terms (the solvers fold h into their kernels).  A
    window starts from r extrapolated from the converged terms of the last
    q = min(k, PREDICTOR_ORDER) steps by the polynomial through them (at distance 1,
    weights (-1)^(j+1) C(q, j): 2 r_{k-1} - r_{k-2} for q = 2), or from r = 0 at
    step 0, which then starts from c_0; r carries no source, so it stays smooth in
    time under rough controls.  The sweeps stop when at every step the change of
    the midpoint is at most FP_TOL |a_{k+1}|_inf / 2 (for c = 1 the change of r).
    A window that produces a non-finite value or does not converge in FP_MAX_ITER
    sweeps raises FixedPointDiverged with its earliest failing step and that step's
    residual after each sweep.
    """
    n_steps, n_modes = src.shape
    c = max(1, min(window, n_steps))
    spread, coef, gain, extrapolate = _window(basis, params, dt, c)
    # per window, (-b / 2, c) = coef a_k + sources, its half endpoints and midpoints at r = 0
    half_src = np.concatenate([gain * src, np.zeros((-n_steps % c, n_modes))])
    sources = np.einsum("ailm,wlm->waim", spread[::-1], half_src.reshape(-1, c, n_modes))
    sources[:, 0] *= -1.0
    nodes, terms = np.empty((n_steps + 1, n_modes)), np.empty((n_steps, n_modes))
    nodes[0] = a0
    ref = np.empty((3, c, n_modes))  # (W r, -b / 2, c): r the window's current explicit terms
    ends, mid, n = ref[1:3], np.empty((c, n_modes)), n_steps + 1
    with np.errstate(over="ignore", invalid="ignore"):
        for k, source in zip(range(0, n_steps, c), sources):
            if k + n > n_steps:  # the first window, or the last and shorter one: its views
                n = min(c, n_steps - k)
                at = slice(n) if n > 1 else 0  # a window of one: rows, as rhs and matmul take them
                r, c_n, ref_n, m = ref[0, at], ref[2, at], ref[0:2, :n], mid[at]
                check, both = np.empty((2, 2, n, n_modes))
                rows, size = check.reshape(2 * n, -1), np.empty((2 * n, n_modes))
                tri, predict = spread[:, :n, :n], [w[at] for w in extrapolate]
            np.multiply(coef, nodes[k], out=ends)
            np.add(ends, source, out=ends)
            q = min(k, PREDICTOR_ORDER)
            np.matmul(predict[q], terms[k - q : k], out=r)
            if n > 1:
                np.copyto(r, np.einsum("ilm,lm->im", tri[0], r, out=both[0]))
            np.add(c_n, r, out=m)
            history = []
            for _ in range(FP_MAX_ITER):
                out = new = rhs(k, m)
                if n > 1:
                    out = np.einsum("ailm,lm->aim", tri, new, out=both)
                np.subtract(out, ref_n, out=check)  # (change of the midpoints, a_next / 2)
                sizes = np.maximum.reduce(np.abs(rows, out=size), axis=1).tolist()
                if not math.isfinite(sum(sizes)):  # a NaN or inf in a_next
                    raise _diverged(k, history, sizes, new, "produced non-finite values")
                history.append(sizes)
                # the largest residual, change / max(half, 0.5e-30), of the window's steps
                worst = sizes[0] / max(sizes[1], 0.5e-30) if n == 1 else max(_residuals(sizes))
                if worst <= FP_TOL:
                    break
                np.copyto(r, out[0] if n > 1 else out)
                np.add(c_n, r, out=m)
            else:
                what = f"did not reach {FP_TOL} in {FP_MAX_ITER} sweeps"
                raise _diverged(k, history, sizes, new, what)
            np.copyto(terms[k : k + n], new)
            np.add(check[1], check[1], out=nodes[k + 1 : k + n + 1])
    return nodes


def _residuals(sizes: list) -> list:
    """Per step of a window, the change of its midpoint over its half endpoint's size."""
    return [change / max(half, 0.5e-30) for change, half in zip(sizes, sizes[len(sizes) // 2 :])]


def _diverged(
    k: int, history: list, sizes: list, terms: np.ndarray, what: str
) -> FixedPointDiverged:
    """The failure of the window from step k, of these sizes and terms after its last sweep:
    at its earliest step with a non-finite term (the zeros of the tables spread a NaN or inf
    to every step), else with a non-finite half endpoint, else with a residual above FP_TOL."""
    n = len(sizes) // 2
    for fails in (
        ~np.isfinite(np.reshape(terms, (n, -1))).all(axis=1),
        [not math.isfinite(half) for half in sizes[n:]],
        [not res <= FP_TOL for res in _residuals(sizes)],
    ):
        if any(fails):
            break
    bad = list(fails).index(True)
    residuals = [_residuals(s)[bad] for s in history]
    message = f"midpoint iteration {what} (last residuals {residuals[-3:]}); dt is too large"
    return FixedPointDiverged(message, step=k + bad, residuals=residuals)


def solve_state(y0: Field, control: Trajectory, params: ModelParams) -> Trajectory:
    """Integrate the state over the control's time grid; store every node.

    The diagnostics of the result are energy_report(traj, params); y0 is one field.
    """
    basis = y0.basis
    if y0.coeffs.ndim != 1:
        raise ShapeMismatch(f"the initial state is one field, got shape {y0.coeffs.shape}")
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
    return EnergyReport(h1=h1, h3=h3, dissipation=dissipation, gamma=float(np.max(h3)))


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
    strain_sq = 2.0 * np.sum(to_grid(Field(y_mid, basis), rows=_STRAIN) ** 2, axis=1)
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
