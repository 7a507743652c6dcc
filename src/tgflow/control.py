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
product <.,.>_W, so that every projection it makes is the exact one.  The
gradient it steps along is G = riesz_l2h1_trap(g), the W representative of
the midpoint pairing: pair_l2l2_mid(g, V) = <G, V>_W.  The adjoint gradient is
exact, so every accepted step gives an exact curvature sample (s, y) of the
reduced Hessian: s the change of control, y the change of G.  The last
LBFGS_MEMORY pairs with <s, y>_W > 0 give the direction d = -H G by the
two-loop recursion (Nocedal, Math. Comp. 35, 1980; Liu and Nocedal, Math.
Programming 45, 1989), from the initial inverse Hessian
H0 = gamma diag(1 + lam_i), which makes the first quasi-Newton step an L2
step.  Each iteration backtracks along proj(U + t d) from t = 1 with the
Armijo test in the midpoint pairing.  When the projected direction does not
descend or its line search fails, the memory is cleared and the iteration is
redone as a projected gradient step along -G, which is also the first
iteration's step.  Stationarity is measured by the gradient mapping
||U - proj(U - s0 G)||_W / s0 at the fixed reference step s0 = 1.  References:
Hinze, Pinnau, Ulbrich and Ulbrich, Optimization with PDE Constraints (2009),
ch. 2; Kelley, Iterative Methods for Optimization (1999), ch. 5.
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
from .trajectory import (
    Trajectory,
    check_same_grid,
    norm_l2h1_trap,
    norm_l2l2_mid,
    pair_l2l2_mid,
    l2h1_trap_weights,
    riesz_l2h1_trap,
)

__all__ = [
    "CostConfig",
    "OptimizeOptions",
    "OptimizerReport",
    "eval_cost",
    "gradient_direction",
    "project_admissible",
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
    diff = Trajectory(y_traj.times, y_traj.coeffs - cfg.y_d.coeffs, y_traj.basis, "state")
    track = 0.5 * pair_l2l2_mid(diff, diff)
    penalty = 0.5 * cfg.lam * pair_l2l2_mid(U, U)
    return track + penalty, y_traj


def _gradient_from_state(
    U: Trajectory, y_traj: Trajectory, cfg: CostConfig, params: ModelParams
) -> Trajectory:
    f = Trajectory(y_traj.times, y_traj.coeffs - cfg.y_d.coeffs, y_traj.basis, "state")
    p = solve_adjoint(y_traj, f, params)
    return Trajectory(U.times, p.coeffs + cfg.lam * U.coeffs, U.basis, "control")


def gradient_direction(
    U: Trajectory, y0: Field, cfg: CostConfig, params: ModelParams
) -> tuple[Trajectory, float, Trajectory]:
    """Adjoint gradient g = p + lambda U; returns (g, J, state trajectory)."""
    cost, y_traj = eval_cost(U, y0, cfg, params)
    return _gradient_from_state(U, y_traj, cfg, params), cost, y_traj


def project_admissible(U: Trajectory, radius: float) -> Trajectory:
    """Radial retraction onto the L2(0,T; H1) ball of the given radius."""
    if radius <= 0:
        raise ValueError("radius must be > 0")
    nrm = norm_l2h1_trap(U)
    if nrm <= radius:
        return U
    return Trajectory(U.times, U.coeffs * (radius / nrm), U.basis, U.kind)


def gradient_mapping_norm(U: Trajectory, g: Trajectory, radius: float) -> float:
    """||U - proj(U - s0 G)||_W / s0 with G the W representative of the adjoint gradient g.

    It vanishes exactly where U solves the variational inequality, boundary
    points with G = -c U, c > 0, included.
    """
    s0 = GRADIENT_MAPPING_STEP
    G = riesz_l2h1_trap(g)
    trial = Trajectory(U.times, U.coeffs - s0 * G.coeffs, U.basis, "control")
    proj = project_admissible(trial, radius)
    diff = Trajectory(U.times, U.coeffs - proj.coeffs, U.basis, "control")
    return norm_l2h1_trap(diff) / s0


def random_admissible(
    template: Trajectory, radius: float, rng: np.random.Generator, fill: float = 0.5
) -> Trajectory:
    """Random smooth control with trapezoidal L2H1 norm fill * radius."""
    basis = template.basis
    decay = 1.0 / (1.0 + basis.lam)
    profile = 1.0 + 0.5 * np.sin(
        2.0 * np.pi * template.times / max(template.horizon, 1e-30) + rng.uniform(0, 2 * np.pi)
    )
    coeffs = profile[:, None] * (rng.normal(size=basis.n_modes) * decay)[None, :]
    cand = Trajectory(template.times, coeffs, basis, "control")
    nrm = norm_l2h1_trap(cand)
    scale = fill * radius / max(nrm, 1e-30)
    return Trajectory(template.times, coeffs * scale, basis, "control")


def sample_vi_residuals(
    U: Trajectory,
    g: Trajectory,
    radius: float,
    rng: np.random.Generator,
    n_samples: int,
) -> list[float]:
    """Residuals int (psi - U, g) dt for random admissible psi.

    At a solution of the variational inequality every residual is
    nonnegative; sampled residuals certify stationarity a posteriori.
    """
    out = []
    for _ in range(n_samples):
        psi = random_admissible(U, radius, rng, fill=float(rng.uniform(0.2, 1.0)))
        diff = Trajectory(U.times, psi.coeffs - U.coeffs, U.basis, "control")
        out.append(pair_l2l2_mid(diff, g))
    return out


class _Memory:
    """The last LBFGS_MEMORY curvature pairs (s, y) and the two-loop recursion.

    Inner products are sum(a * b * weight) over whole coefficient arrays,
    summed by numpy rather than BLAS so that results do not depend on the
    BLAS thread count.  The initial inverse Hessian is gamma diag(h0), h0
    broadcast against the arrays like weight.
    """

    def __init__(self, weight: np.ndarray, h0: np.ndarray):
        self.weight = weight
        self.h0 = h0
        self.pairs: deque = deque(maxlen=LBFGS_MEMORY)

    def _dot(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.sum(a * b * self.weight))

    def push(self, s: np.ndarray, y: np.ndarray) -> bool:
        """Store (s, y) if s.y > 1e-12 |s| |y|, the condition that keeps H positive definite."""
        sy = self._dot(s, y)
        if not sy > 1e-12 * np.sqrt(self._dot(s, s) * self._dot(y, y)):
            return False
        self.pairs.append((s, y, 1.0 / sy))
        return True

    def direction(self, g: np.ndarray) -> np.ndarray:
        """d = -H g, with gamma = s.y / y.(h0 y) of the newest pair."""
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(self.pairs):
            alpha = rho * self._dot(s, q)
            q -= alpha * y
            alphas.append(alpha)
        _, y, rho = self.pairs[-1]
        r = q * self.h0 * (1.0 / (rho * self._dot(y, self.h0 * y)))
        for (s, y, rho), alpha in zip(self.pairs, reversed(alphas)):
            r += (alpha - rho * self._dot(y, r)) * s
        return -r


def _line_search(U, d, t, g, cost, y0, cfg, params, descent_only):
    """Backtrack t along the projected arc proj(U + t d) until the Armijo test holds.

    Returns (t, trial, cost, state trajectory) of the accepted point or None,
    the number of state solves made, and the directional derivative of the
    last trial move.  With descent_only, a trial whose move does not descend
    ends the search before its state solve.
    """
    trials = 0
    decrease = 0.0
    while t >= MIN_STEP:
        trial = project_admissible(
            Trajectory(U.times, U.coeffs + t * d, U.basis, "control"), cfg.radius
        )
        move = Trajectory(U.times, trial.coeffs - U.coeffs, U.basis, "control")
        decrease = pair_l2l2_mid(g, move)
        if descent_only and decrease >= 0.0:
            break
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

    U = project_admissible(U_init, cfg.radius)
    g, cost, _ = gradient_direction(U, y0, cfg, params)
    G = riesz_l2h1_trap(g)
    memory = _Memory(l2h1_trap_weights(U), 1.0 + U.basis.lam)

    for it in range(opts.max_iter + 1):
        mapping = gradient_mapping_norm(U, g, cfg.radius)
        nrm_u = norm_l2h1_trap(U)
        report.cost.append(cost)
        report.grad_norm.append(norm_l2l2_mid(g))
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
                U, memory.direction(G.coeffs), 1.0, g, cost, y0, cfg, params, descent_only=True
            )
            kind = "quasi_newton"
        if step is None:
            memory.pairs.clear()
            step, more, decrease = _line_search(
                U, -G.coeffs, 1.0 / max(1.0, norm_l2h1_trap(G)), g, cost, y0, cfg, params,
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

        t, trial, new_cost, new_traj = step
        report.step_size.append(t)
        report.direction.append(kind)
        new_g = _gradient_from_state(trial, new_traj, cfg, params)
        new_G = riesz_l2h1_trap(new_g)
        report.adjoint_solves += 1
        memory.push(trial.coeffs - U.coeffs, new_G.coeffs - G.coeffs)
        U, cost, g, G = trial, new_cost, new_g, new_G

    report.vi_residuals = sample_vi_residuals(U, g, cfg.radius, rng, N_VI_SAMPLES)
    return U, report
