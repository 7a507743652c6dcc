"""Cost evaluation, admissible-set projection and projected gradient descent.

The tracking functional is

    J(U) = 1/2 int_0^T ||y - y_d||_2^2 dt + lambda/2 int_0^T ||U||_2^2 dt,

evaluated with the scheme's midpoint quadrature so that the adjoint gradient

    g = p + lambda U,    p solving the adjoint with source f = y - y_d,

is the exact derivative of the discrete cost (to fixed-point tolerance).
Controls live in the div-free basis span; the admissible set is the ball of
radius K in the trapezoidal L2(0,T; H1) norm, written ||.||_W, and the
projection is the radial retraction, which is the exact metric projection for
a norm ball in its own norm.

`optimize` is projected limited-memory BFGS run in the ball's own inner
product <.,.>_W, so that every projection it makes is the exact one.  It steps
on the node arrays of the run's `trajectory.ControlSpace`.  The gradient it
steps along is G = space.riesz(g), the W representative of the midpoint
pairing, space.mid(g, V) = <G, V>_W.  The adjoint gradient is exact, so every
accepted step gives an exact curvature sample (s, y) of the reduced Hessian:
s the change of control, y the change of G.  The last LBFGS_MEMORY pairs with
<s, y>_W > 0 give the direction d = -H G by the two-loop recursion (Nocedal,
Math. Comp. 35, 1980; Liu and Nocedal, Math. Programming 45, 1989), from the
initial inverse Hessian H0 = gamma diag(1 + lam_i), which makes the first
quasi-Newton step an L2 step.  Each iteration backtracks along proj(U + t d)
from t = 1 with the Armijo test in the midpoint pairing.  When the projected
direction does not descend or its line search fails, the memory is cleared
and the iteration is redone as a projected gradient step along -G, which is
also the first iteration's step.  Stationarity is measured by the gradient
mapping ||U - proj(U - s0 G)||_W / s0 at the fixed reference step s0 = 1.
References: Hinze, Pinnau, Ulbrich and Ulbrich, Optimization with PDE
Constraints (2009), ch. 2; Kelley, Iterative Methods for Optimization (1999),
ch. 5.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .adjoint import solve_adjoint
from .errors import LineSearchFailed
from .params import ModelParams
from .spectral import Field
from .state import solve_state
from .trajectory import ControlSpace, Trajectory, _pair_mid, check_same_grid, pair_l2l2_mid

__all__ = [
    "CostConfig",
    "OptimizeOptions",
    "OptimizerReport",
    "eval_cost",
    "gradient_direction",
    "gradient_mapping_norm",
    "optimize",
    "random_admissible",
]

GRADIENT_MAPPING_STEP = 1.0
LBFGS_MEMORY = 8  # curvature pairs the two-loop recursion keeps
ARMIJO_C = 1e-4  # sufficient decrease the line search asks of a trial
BACKTRACK_RATIO = 0.5  # the factor the line search shrinks t by
MIN_STEP = 1e-12  # the line search gives up below this t
N_VI_SAMPLES = 20  # random admissible controls the VI residuals are sampled at


@dataclass(frozen=True)
class CostConfig:
    """Target trajectory, cost intensity and admissible-ball radius."""

    y_d: Trajectory
    lam: float
    radius: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("cost intensity lambda must be >= 0")
        if self.radius <= 0:
            raise ValueError("admissible radius K must be > 0")

    @property
    def horizon(self) -> float:
        return self.y_d.horizon


@dataclass(frozen=True)
class OptimizeOptions:
    """Iteration budget and stationarity tolerance."""

    max_iter: int = 100
    tol: float = 1e-6

    def __post_init__(self):
        if not self.max_iter >= 1:
            raise ValueError(f"max_iter = {self.max_iter} must be at least 1")
        if not self.tol >= 0:
            raise ValueError(f"tol = {self.tol} must be >= 0")


@dataclass
class OptimizerReport:
    """Per-iteration record of a projected L-BFGS run.

    Row k holds iterate k, the last row the returned control.  direction is
    the kind of step taken from it: "quasi_newton", "gradient" (the first
    iteration, or a fallback after the quasi-Newton trial failed), or "" where
    none was.  step_size is the accepted multiple t of that direction (0.0
    where none was), and line_search_trials the number of state solves its
    line searches made, a failed quasi-Newton search included.  grad_norm is
    the midpoint L2 norm of the adjoint gradient g, grad_mapping the W norm
    of the gradient mapping.  state_solves and adjoint_solves count the
    solves of the whole run: one of each at the start, then a state solve
    per line-search trial and an adjoint solve per accepted step.
    """

    cost: list = field(default_factory=list)
    step_size: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    grad_mapping: list = field(default_factory=list)
    constraint_active: list = field(default_factory=list)
    control_norm: list = field(default_factory=list)
    line_search_trials: list = field(default_factory=list)
    direction: list = field(default_factory=list)
    vi_residuals: list = field(default_factory=list)
    state_solves: int = 0
    adjoint_solves: int = 0
    converged: bool = False
    n_iter: int = 0
    termination: str = ""


def eval_cost(
    U: Trajectory, y0: Field, cfg: CostConfig, params: ModelParams
) -> tuple[float, Trajectory]:
    """Solve the state under U and return (J, state trajectory)."""
    check_same_grid(U, cfg.y_d)
    y_traj = solve_state(y0, U, params)
    diff = y_traj.coeffs - cfg.y_d.coeffs
    track = 0.5 * _pair_mid(diff, diff, U.dt, U.basis.vmult)
    penalty = 0.5 * cfg.lam * pair_l2l2_mid(U, U)
    return track + penalty, y_traj


def _gradient_from_state(
    U: Trajectory, y_traj: Trajectory, cfg: CostConfig, params: ModelParams
) -> np.ndarray:
    """The node array of the adjoint gradient g = p + lambda U at the state y_traj under U."""
    f = Trajectory(y_traj.times, y_traj.coeffs - cfg.y_d.coeffs, y_traj.basis, "state")
    return solve_adjoint(y_traj, f, params).coeffs + cfg.lam * U.coeffs


def gradient_direction(
    U: Trajectory, y0: Field, cfg: CostConfig, params: ModelParams
) -> tuple[Trajectory, float, Trajectory]:
    """Adjoint gradient g = p + lambda U; returns (g, J, state trajectory)."""
    cost, y_traj = eval_cost(U, y0, cfg, params)
    g = _gradient_from_state(U, y_traj, cfg, params)
    return Trajectory(U.times, g, U.basis, "control"), cost, y_traj


def gradient_mapping_norm(
    space: ControlSpace, U: np.ndarray, G: np.ndarray, radius: float
) -> float:
    """||U - proj(U - s0 G)||_W / s0 on node arrays, G = space.riesz(g) for the adjoint gradient g.

    It vanishes exactly where U solves the variational inequality, boundary
    points with G = -c U, c > 0, included.
    """
    s0 = GRADIENT_MAPPING_STEP
    return space.norm(U - space.project(U - s0 * G, radius)) / s0


def random_admissible(
    template: Trajectory, radius: float, rng: np.random.Generator, fill: float = 0.5
) -> Trajectory:
    """Random smooth control with trapezoidal L2H1 norm fill * radius."""
    coeffs = _random_admissible(ControlSpace(template.times, template.basis), radius, rng, fill)
    return Trajectory(template.times, coeffs, template.basis, "control")


def _random_admissible(space: ControlSpace, radius: float, rng, fill: float) -> np.ndarray:
    """The node array of `random_admissible` on the space's time grid."""
    times, basis = space.times, space.basis
    decay = 1.0 / (1.0 + basis.lam)
    profile = 1.0 + 0.5 * np.sin(
        2.0 * np.pi * times / max(float(times[-1] - times[0]), 1e-30) + rng.uniform(0, 2 * np.pi)
    )
    coeffs = profile[:, None] * (rng.normal(size=basis.n_modes) * decay)[None, :]
    return coeffs * (fill * radius / max(space.norm(coeffs), 1e-30))


class _Memory:
    """The last LBFGS_MEMORY curvature pairs (s, y) and the two-loop recursion.

    Inner products are the space's <., .>_W, and the initial inverse Hessian
    is gamma diag(space.h0).
    """

    def __init__(self, space: ControlSpace):
        self.dot, self.h0 = space.inner, space.h0
        self.pairs: deque = deque(maxlen=LBFGS_MEMORY)

    def push(self, s: np.ndarray, y: np.ndarray) -> bool:
        """Store (s, y) if s.y > 1e-12 |s| |y|, the condition that keeps H positive definite."""
        sy = self.dot(s, y)
        if not sy > 1e-12 * np.sqrt(self.dot(s, s) * self.dot(y, y)):
            return False
        self.pairs.append((s, y, 1.0 / sy))
        return True

    def direction(self, g: np.ndarray) -> np.ndarray:
        """d = -H g, with gamma = s.y / y.(h0 y) of the newest pair."""
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(self.pairs):
            alpha = rho * self.dot(s, q)
            q -= alpha * y
            alphas.append(alpha)
        _, y, rho = self.pairs[-1]
        r = q * self.h0 * (1.0 / (rho * self.dot(y, self.h0 * y)))
        for (s, y, rho), alpha in zip(self.pairs, reversed(alphas)):
            r += (alpha - rho * self.dot(y, r)) * s
        return -r


def _line_search(space, u, d, t, g, cost, y0, cfg, params, descent_only):
    """Backtrack t along the projected arc proj(u + t d) until the Armijo test holds.

    u, d and the gradient g are node arrays.  Returns the accepted point as
    (t, trial Trajectory, cost, state trajectory) or None, the number of state
    solves made, and the directional derivative of the last trial move.  With
    descent_only, a trial whose move does not descend ends the search before
    its state solve.
    """
    trials, decrease = 0, 0.0
    while t >= MIN_STEP:
        u_t = space.project(u + t * d, cfg.radius)
        decrease = space.mid(g, u_t - u)
        if descent_only and decrease >= 0.0:
            break
        trial = Trajectory(space.times, u_t, space.basis, "control")
        new_cost, new_traj = eval_cost(trial, y0, cfg, params)
        trials += 1
        if new_cost <= cost + ARMIJO_C * decrease and new_cost < cost:
            return (t, trial, new_cost, new_traj), trials, decrease
        t *= BACKTRACK_RATIO
    return None, trials, decrease


def optimize(
    U_init: Trajectory,
    y0: Field,
    cfg: CostConfig,
    params: ModelParams,
    opts: OptimizeOptions | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[Trajectory, OptimizerReport]:
    """Projected L-BFGS in the W product with Armijo backtracking and a projected gradient fallback.

    Stops when the W gradient mapping falls to opts.tol, after opts.max_iter
    iterations, or when even the projected gradient step finds no Armijo
    point; samples the VI residuals at the returned control.
    """
    opts = opts or OptimizeOptions()
    rng = rng or np.random.default_rng(0)
    report = OptimizerReport(state_solves=1, adjoint_solves=1)
    space = ControlSpace(U_init.times, U_init.basis)

    u = space.project(U_init.coeffs, cfg.radius)
    U = U_init if u is U_init.coeffs else Trajectory(U_init.times, u, U_init.basis, U_init.kind)
    grad, cost, _ = gradient_direction(U, y0, cfg, params)
    g = grad.coeffs
    G = space.riesz(g)
    memory = _Memory(space)

    for it in range(opts.max_iter + 1):
        mapping = gradient_mapping_norm(space, u, G, cfg.radius)
        nrm_u = space.norm(u)
        report.cost.append(cost)
        report.grad_norm.append(float(np.sqrt(space.mid(g, g))))
        report.grad_mapping.append(mapping)
        report.constraint_active.append(bool(nrm_u >= cfg.radius * (1.0 - 1e-9)))
        report.control_norm.append(nrm_u)
        report.n_iter = it
        if mapping <= opts.tol or it == opts.max_iter:
            report.converged = mapping <= opts.tol
            report.termination = (
                "gradient mapping below tolerance" if report.converged else "max_iter reached"
            )
            report.step_size.append(0.0)
            report.line_search_trials.append(0)
            report.direction.append("")
            break

        step, trials = None, 0
        if memory.pairs:
            step, trials, _ = _line_search(
                space, u, memory.direction(G), 1.0, g, cost, y0, cfg, params, descent_only=True
            )
            kind = "quasi_newton"
        if step is None:
            memory.pairs.clear()
            step, more, decrease = _line_search(
                space, u, -G, 1.0 / max(1.0, space.norm(G)), g, cost, y0, cfg, params,
                descent_only=False,
            )
            trials += more
            kind = "gradient"
        report.line_search_trials.append(trials)
        report.state_solves += trials
        if step is None:
            report.step_size.append(0.0)
            report.direction.append("")
            # flat to roundoff near a stationary point
            if mapping <= 1e3 * opts.tol:
                report.converged = True
                report.termination = "line search stalled at near-stationary point"
                break
            raise LineSearchFailed(
                f"no Armijo step above {MIN_STEP} at iteration {it} "
                f"(gradient mapping {mapping:.3e}, directional derivative {decrease:.3e})"
            )

        t, U, new_cost, new_traj = step
        report.step_size.append(t)
        report.direction.append(kind)
        new_g = _gradient_from_state(U, new_traj, cfg, params)
        new_G = space.riesz(new_g)
        report.adjoint_solves += 1
        memory.push(U.coeffs - u, new_G - G)
        u, cost, g, G = U.coeffs, new_cost, new_g, new_G

    # residuals int (psi - U, g) dt at random admissible psi: at a solution of
    # the variational inequality all are nonnegative, certifying it a posteriori
    report.vi_residuals = []
    for _ in range(N_VI_SAMPLES):
        psi = _random_admissible(space, cfg.radius, rng, fill=float(rng.uniform(0.2, 1.0)))
        report.vi_residuals.append(space.mid(psi - u, g))
    return U, report
