"""Cost evaluation, admissible-set projection and projected gradient descent.

The tracking functional is

    J(U) = 1/2 int_0^T ||y - y_d||_2^2 dt + lambda/2 int_0^T ||U||_2^2 dt,

evaluated with the scheme's midpoint quadrature so that the adjoint gradient

    g = p + lambda U,    p solving the adjoint with source f = y - y_d,

is the exact derivative of the discrete cost (to fixed-point tolerance).
Controls live in the div-free basis span; the admissible set is the ball of
radius K in the trapezoidal L2(0,T; H1) norm and the projection is the radial
retraction, which is the exact metric projection for a norm ball in its own
norm.  Descent steps use Armijo backtracking with a Barzilai-Borwein initial
step after the first iteration, and stationarity is measured by the gradient
mapping ||U - proj(U - s0 g)|| / s0 at the fixed reference step s0 = 1.
"""

from __future__ import annotations

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
    max_iter: int = 100
    tol: float = 1e-6
    armijo_c: float = 1e-4
    backtrack_ratio: float = 0.5
    min_step: float = 1e-12
    n_vi_samples: int = 20


@dataclass
class OptimizerReport:
    """Per-iteration record of a projected gradient run.

    Row k holds iterate k, the last row the returned control; step_size is the
    step taken from it (0.0 where none was) and line_search_trials the number
    of state solves its line search made.
    """

    cost: list = field(default_factory=list)
    step_size: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    grad_mapping: list = field(default_factory=list)
    constraint_active: list = field(default_factory=list)
    control_norm: list = field(default_factory=list)
    line_search_trials: list = field(default_factory=list)
    vi_residuals: list = field(default_factory=list)
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
    s0 = GRADIENT_MAPPING_STEP
    trial = Trajectory(U.times, U.coeffs - s0 * g.coeffs, U.basis, "control")
    proj = project_admissible(trial, radius)
    diff = Trajectory(U.times, U.coeffs - proj.coeffs, U.basis, "control")
    return norm_l2l2_mid(diff) / s0


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


def optimize(
    U_init: Trajectory,
    y0: Field,
    cfg: CostConfig,
    params: ModelParams,
    opts: OptimizeOptions | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[Trajectory, OptimizerReport]:
    """Projected gradient descent with Armijo backtracking on the cost."""
    opts = opts or OptimizeOptions()
    rng = rng or np.random.default_rng(0)
    report = OptimizerReport()

    U = project_admissible(U_init, cfg.radius)
    g, cost, _ = gradient_direction(U, y0, cfg, params)
    g_norm = norm_l2l2_mid(g)
    step = 1.0 / max(1.0, g_norm)
    prev_u = prev_g = None

    for it in range(opts.max_iter + 1):
        mapping = gradient_mapping_norm(U, g, cfg.radius)
        nrm_u = norm_l2h1_trap(U)
        report.cost.append(cost)
        report.grad_norm.append(g_norm)
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
            break

        if prev_u is not None:
            du = U.coeffs - prev_u
            dg = g.coeffs - prev_g
            denom = float(np.sum(du * dg / U.basis.vmult))
            if denom > 0:
                step = float(np.sum(du * du / U.basis.vmult)) / denom
            step = float(np.clip(step, 1e-8, 1e4))

        s = step
        accepted = False
        decrease = 0.0
        trials = 0
        while s >= opts.min_step:
            trial = project_admissible(
                Trajectory(U.times, U.coeffs - s * g.coeffs, U.basis, "control"), cfg.radius
            )
            move = Trajectory(U.times, trial.coeffs - U.coeffs, U.basis, "control")
            decrease = pair_l2l2_mid(g, move)
            new_cost, new_traj = eval_cost(trial, y0, cfg, params)
            trials += 1
            if new_cost <= cost + opts.armijo_c * decrease and new_cost < cost:
                accepted = True
                break
            s *= opts.backtrack_ratio
        report.line_search_trials.append(trials)
        if not accepted:
            # The ball lives in the H1 norm while the gradient pairing is L2,
            # so on the boundary the radial retraction arc can stop descending
            # before the gradient mapping vanishes; that is a clean method
            # fixed point, certified afterwards by the sampled VI residuals.
            if decrease >= 0.0:
                report.termination = "retraction arc offers no descent (boundary stationary)"
                report.step_size.append(0.0)
                break
            # flat to roundoff near an interior stationary point
            if mapping <= 1e3 * opts.tol:
                report.converged = True
                report.termination = "line search stalled at near-stationary point"
                report.step_size.append(0.0)
                break
            raise LineSearchFailed(
                f"no Armijo step above {opts.min_step} at iteration {it} "
                f"(gradient mapping {mapping:.3e}, directional derivative {decrease:.3e})"
            )

        report.step_size.append(s)
        prev_u, prev_g = U.coeffs.copy(), g.coeffs.copy()
        U, cost = trial, new_cost
        g = _gradient_from_state(U, new_traj, cfg, params)
        g_norm = norm_l2l2_mid(g)

    report.vi_residuals = sample_vi_residuals(U, g, cfg.radius, rng, opts.n_vi_samples)
    return U, report
