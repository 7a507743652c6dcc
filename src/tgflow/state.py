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
from .spectral import (
    Field, SpectralBasis, Workspace, fields, norm_weights, slots, steps_first, to_grid, window_at,
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
        lead = g[0, at].shape[:-2]  # (n,), or () at one step
        ab, grads = g[5:7, at], g[0:4, at].reshape(2, 2, *lead, Q, Q)  # (a_x, b_x), (a_y, b_y)
        mix = _mixing(self.params.alpha1, self.params.beta)
        # the mixing stays one (4, 11) product per step, through views with the steps first
        products, mixed = (steps_first(a[:, at]).reshape(*lead, -1, Q * Q) for a in (g, self.slots))
        return (
            partial(np.multiply, ab, ab, g[9:11, at]),
            partial(np.add, g[9, at], g[10, at], strain_sq[at]),
            partial(np.multiply, strain_sq[None, at], ab, g[9:11, at]),
            partial(np.multiply, g[7:9, None, at], grads, grads),
            partial(np.multiply, g[4, None, at], g[5:9, at], g[5:9, at]),
            partial(np.matmul, mix, products, mixed),
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
def _window(basis: SpectralBasis, params: ModelParams, dt: float, n: int) -> tuple:
    """(spread, coef, predict) for windows of n steps, decay = (1 - imp) / (1 + imp).

    spread, mode-major (n_modes, 2n, n), stacks (W, T) of each mode: they carry a window's
    explicit terms, or its sources times h = midpoint_gain, to their shares of its
    midpoints and half endpoints, T[i, l] = decay^(i-l) for l <= i, W[i, l] =
    2 T[i-1, l] / (1 + imp) below the diagonal and 1 on it; coef = (-decay^(i+1) / 2,
    decay^i / (1 + imp)) carries its first node to minus its half endpoints and its
    midpoints.  predict[q], (n, q), takes the terms of steps k - q..k - 1 by the
    polynomial through them to steps k + s, s < n: for step k - j,
    (-1)^(j+1) C(s+q, q) j C(q, j) / (s + j).
    """
    imp = _implicit(basis, params, dt)
    decay, carry = (1.0 - imp) / (1.0 + imp), 1.0 / (1.0 + imp)
    power = decay ** np.arange(n + 1)[:, None]
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    spread = np.zeros((2, n, n, basis.n_modes))
    spread[1] = power[lag.clip(0)] * (lag >= 0)[..., None]
    spread[0, 1:] = 2.0 * carry * spread[1, :-1]
    spread[0, lag == 0] = 1.0
    spread = np.ascontiguousarray(spread.reshape(2 * n, n, -1).transpose(2, 0, 1))
    coef = np.stack([-0.5 * power[1:], carry * power[:-1]])
    predict = tuple(
        np.array([[(-1) ** (j + 1) * math.comb(s + q, q) * j * math.comb(q, j) / (s + j)
                   for j in range(q, 0, -1)] for s in range(n)]).reshape(n, q)
        for q in range(PREDICTOR_ORDER + 1)
    )
    for table in (spread, coef, *predict):
        table.flags.writeable = False
    return spread, coef, predict


def _sources(spread: np.ndarray, half_src: np.ndarray) -> np.ndarray:
    """(-T s, W s), (n_win, 2, n, n_modes), of each window s of n of the rows of half_src, the
    last one padded with zeros: the sources' shares of minus the half endpoints and of the
    midpoints, which `march` adds to the first node's."""
    n, n_modes = spread.shape[2], half_src.shape[1]
    if n == 1:  # W = T = 1: no products
        return np.stack([-half_src, half_src], axis=1)[:, :, None]
    padded = np.concatenate([half_src, np.zeros((-len(half_src) % n, n_modes))])
    out = np.empty((len(padded) // n, 2, n, n_modes))
    by_mode = padded.reshape(-1, n, n_modes).transpose(2, 1, 0)
    np.matmul(spread, by_mode, out=out.reshape(len(out), 2 * n, n_modes).transpose(2, 1, 0))
    np.negative(out[:, 1], out=out[:, 1])
    return out[:, ::-1]


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
    through the recurrence to the window's n midpoints, by one batched product over
    the modes (`_window`), and evaluates them in one call rhs(k, mids), k the window's
    first step and mids (n, n_modes), or a row for n = 1 (`spectral.window_at`), which
    returns the n terms (the solvers fold h into their kernels).  A window starts from
    r extrapolated from the converged terms of the last q = min(k, PREDICTOR_ORDER)
    steps by the polynomial through them (at distance 1, weights (-1)^(j+1) C(q, j):
    2 r_{k-1} - r_{k-2} for q = 2), or from r = 0 at step 0, which then starts from
    c_0; r carries no source, so it stays smooth in time under rough controls.  The
    sweeps stop when at every step the change of the midpoint is at most
    FP_TOL |a_{k+1}|_inf / 2 (for n = 1 the change of r).  A window that produces a
    non-finite value or does not converge in FP_MAX_ITER sweeps is redone as two
    windows of half its length, the first taking the shorter half, down to windows of
    one step; then the windows go on at length c.  A step that fails alone raises
    FixedPointDiverged with that step and its residual after each sweep: it is the
    earliest step that fails, since every step before it has converged.
    """
    n_steps, n_modes = src.shape
    c = max(1, min(window, n_steps))
    half_src = midpoint_gain(basis, params, dt) * src
    sources = _sources(_window(basis, params, dt, c)[0], half_src)  # per window of c steps
    nodes, terms = np.empty((n_steps + 1, n_modes)), np.empty((n_steps, n_modes))
    nodes[0] = a0
    k, n, redo = 0, 0, []  # redo: the lengths of the windows that redo a failed one, last first
    with np.errstate(over="ignore", invalid="ignore"):
        while k < n_steps:
            if redo or n != c or k + c > n_steps:  # the first, the last, or a redone window
                length = redo.pop() if redo else min(c, n_steps - k)
                if length != n:  # the tables and views of windows of this length
                    n, at = length, window_at(length)
                    spread, coef, predicts = _window(basis, params, dt, n)
                    ref = np.empty((3, n, n_modes))  # (W r, -a_next / 2, c), r the terms
                    check, both = np.empty((2, 2, n, n_modes))
                    # per step, |change| and |a_next / 2| over the modes and a floor of
                    # 0.5e-30 under the latter: max.reduce gives what a residual divides by
                    size, sizes = np.zeros((2, n, n_modes + 1)), np.empty((2, n))
                    size[1, :, -1], magnitudes, (change, scale) = 0.5e-30, size[..., :-1], sizes
                    history = np.empty((FP_MAX_ITER, n))  # the residuals of a window's sweeps
                    spreads = both.reshape(2 * n, -1).T[:, :, None]  # the mode-major view
                    r, c_n, ends, ref_n = ref[0, at], ref[2, at], ref[1:3], ref[0:2]
                    mid, half = np.empty((n, n_modes)), check[1, at]
                    m, predict = mid[at], [p[at] for p in predicts]
                if k % c or n < min(c, n_steps - k):
                    source = _sources(spread, half_src[k : k + n])[0]
                else:
                    source = sources[k // c, :, :n]
            else:
                source = sources[k // c]
            np.multiply(coef, nodes[k], out=ends)
            np.add(ends, source, out=ends)
            q = min(k, PREDICTOR_ORDER)
            np.matmul(predict[q], terms[k - q : k], out=r if n == 1 else mid)
            if n > 1:
                np.matmul(spread[:, :n], mid.T[:, :, None], out=spreads[:, :n])
                np.copyto(r, both[0])
            np.add(c_n, r, out=m)
            for sweep in range(FP_MAX_ITER):
                out = new = rhs(k, m)
                if n > 1:
                    np.matmul(spread, new.T[:, :, None], out=spreads)
                    out = both
                np.subtract(out, ref_n, out=check)  # (change of the midpoints, a_next / 2)
                np.abs(check, out=magnitudes)
                np.maximum.reduce(size, axis=2, out=sizes)
                residuals = np.divide(change, scale, out=history[sweep])
                worst, top = (residuals[0], scale[0]) if n == 1 else (
                    np.maximum.reduce(residuals), np.maximum.reduce(scale)
                )
                if not (math.isfinite(worst) and math.isfinite(top)):  # a NaN or inf
                    failure, sweep = "produced non-finite values", sweep - 1  # not in history
                    break
                if worst <= FP_TOL:
                    terms[k : k + n] = new
                    np.add(half, half, out=nodes[k + 1 : k + n + 1][at])
                    k, failure = k + n, None
                    break
                np.copyto(r, out[0] if n > 1 else out)
                np.add(c_n, r, out=m)
            else:
                failure = f"did not reach {FP_TOL} in {FP_MAX_ITER} sweeps"
            if failure:
                if n == 1:
                    raise _diverged(k, history[: sweep + 1], sizes, new, failure)
                redo += [n - n // 2, n // 2]
    return nodes


def _diverged(
    k: int, history: np.ndarray, sizes: np.ndarray, terms: np.ndarray, what: str
) -> FixedPointDiverged:
    """The failure of the window from step k, of these (2, n) sizes (the change of each
    midpoint, and its half endpoint's size, at least 0.5e-30) and terms after its last sweep
    and the (sweeps, n) residuals of its finite sweeps: at its earliest step with a non-finite
    term (the zeros of the tables spread a NaN or inf to every step), else with a non-finite
    half endpoint, else with a residual above FP_TOL."""
    change, scale = sizes
    for fails in (
        ~np.isfinite(np.reshape(terms, (len(change), -1))).all(axis=1),
        ~np.isfinite(scale),
        ~(change / scale <= FP_TOL),
    ):
        if fails.any():
            break
    bad = int(np.argmax(fails))
    residuals = [float(r[bad]) for r in history]
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
    dt, controls = control.dt, control.midpoints()
    work = StateWork(basis, params, midpoint_gain(basis, params, dt) / basis.vmult, controls)
    coeffs = march(
        basis, params, dt, y0.coeffs, controls / basis.vmult,
        lambda k, mid: state_rhs_coeffs(basis, params, mid, work),
        work.window,
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
