"""Acceptance gate: one test per shipped criterion, at pinned tolerances.

Every test prints a single PASS/FAIL line (run pytest with -s or rely on the
captured output on failure).  Sizes are desk scale: basis modes up to 4,
collocation grid 16, up to 256 time steps on a horizon of 0.5.
"""

import dataclasses
import json
import math

import numpy as np

from conftest import random_field, random_traj
from oracles import frobenius, strain, stress
from tgflow import build_basis, validate_params
from tgflow.adjoint import check_duality
from tgflow.control import CostConfig, OptimizeOptions, eval_cost, optimize
from tgflow.linearized import gateaux_taylor_test
from tgflow.control import gradient_direction
from tgflow.spectral import Field, project_div, to_grid
from tgflow.state import energy_balance_residuals, manufactured_control, solve_state
from tgflow.trajectory import (
    Trajectory,
    norm_l2h1_trap,
    pair_l2l2_mid,
    time_grid,
)
from tgflow.verify import run_suite, stability_check, uniqueness_diagnostics

PARAMS = validate_params(nu=1.0, alpha1=0.5, alpha2=-0.2, beta=0.4)
BASIS = build_basis(4, PARAMS.alpha1, grid_size=16)
HORIZON = 0.5


def _report(n, name, passed, detail):
    print(f"ACCEPTANCE {n} [{name}]: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {n} ({name}): {detail}"


def _state(rng, n_steps, amp=0.3):
    times = time_grid(HORIZON, n_steps)
    y0 = random_field(BASIS, rng, amp=amp)
    control = random_traj(BASIS, times, rng, amp=amp)
    traj = solve_state(y0, control, PARAMS)
    return traj, control, y0, times


def test_criterion_1_duality_identity():
    """Relative duality gap <= 1e-6 over 10 random draws at M=4, N_t=64."""
    rng = np.random.default_rng(101)
    traj, _, _, times = _state(rng, 64)
    worst = 0.0
    for _ in range(10):
        psi = random_traj(BASIS, times, rng, amp=0.5)
        f = random_traj(BASIS, times, rng, amp=0.5)
        _, _, gap = check_duality(traj, psi, f, PARAMS)
        worst = max(worst, gap)
    _report(1, "duality identity", worst <= 1e-6, f"max relative gap {worst:.3e} <= 1e-6")


def test_criterion_2_taylor_slope():
    """Remainder slope of the state linearization >= 0.9 over rho = 1e-1..1e-4."""
    rng = np.random.default_rng(102)
    _, control, y0, times = _state(rng, 64)
    psi = random_traj(BASIS, times, rng, amp=0.5)
    result = gateaux_taylor_test(control, psi, y0, [1e-1, 1e-2, 1e-3, 1e-4], PARAMS)
    min_slope = float(np.min(result.slopes))
    _report(2, "Gateaux/Taylor test", min_slope >= 0.9, f"min log-log slope {min_slope:.4f} >= 0.9")


def test_criterion_3_adjoint_gradient():
    """Central differences of the cost match the adjoint pairing to 1e-4."""
    rng = np.random.default_rng(103)
    target, _, y0, times = _state(rng, 64)
    cfg = CostConfig(y_d=target.with_kind("target"), lam=1e-3, radius=10.0)
    control = random_traj(BASIS, times, rng, amp=0.2)
    g, _, _ = gradient_direction(control, y0, cfg, PARAMS)
    rho = 1e-4
    worst = 0.0
    for _ in range(5):
        psi = random_traj(BASIS, times, rng, amp=0.5)
        pred = pair_l2l2_mid(g, psi)
        jp, _ = eval_cost(Trajectory(times, control.coeffs + rho * psi.coeffs, BASIS, "control"), y0, cfg, PARAMS)
        jm, _ = eval_cost(Trajectory(times, control.coeffs - rho * psi.coeffs, BASIS, "control"), y0, cfg, PARAMS)
        fd = (jp - jm) / (2.0 * rho)
        worst = max(worst, abs(fd - pred) / max(abs(fd), 1e-30))
    _report(3, "adjoint gradient check", worst <= 1e-4, f"max relative error {worst:.3e} <= 1e-4")


def test_criterion_4_energy_identity_and_inequality():
    """Per-step dissipation inequality slack >= -1e-6 x scale; the quadrature
    identity <div S(y), y> = -(beta/2) int |A|^4 holds to 1e-8 relative."""
    rng = np.random.default_rng(104)
    traj, control, _, _ = _state(rng, 64, amp=0.4)
    scale = float(np.max(np.sum(traj.coeffs ** 2, axis=1)))
    identity_err = float(np.max(np.abs(energy_balance_residuals(traj, control, PARAMS)))) / scale
    v_sq = np.sum(traj.coeffs ** 2, axis=1)
    work = 2.0 * traj.dt * np.cumsum(
        np.sum(control.midpoints() * traj.midpoints() / BASIS.vmult, axis=1)
    )
    slack = float(np.min(v_sq[0] + work - v_sq[1:])) / scale
    cubic = dataclasses.replace(PARAMS, alpha1=0.0, alpha2=0.0)  # stress S(y) alone
    worst_rel = 0.0
    for k in range(0, traj.times.size, 16):
        y = Field(traj.coeffs[k], BASIS)
        if float(np.max(np.abs(y.coeffs))) < 1e-12:
            continue
        g = to_grid(y, 2)
        s11, s12, s22 = stress(cubic, g)
        div_s = project_div(BASIS, np.array([[s11, s12], [s12, s22]]))
        a = strain(g)
        lhs = float(np.sum(div_s.coeffs * y.coeffs / BASIS.vmult))
        rhs = -0.5 * PARAMS.beta * BASIS.quad(frobenius(a, a) ** 2)
        worst_rel = max(worst_rel, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    ok = identity_err <= 1e-8 and slack >= -1e-6 and worst_rel <= 1e-8
    _report(
        4,
        "discrete H1 energy inequality",
        ok,
        f"balance {identity_err:.2e} <= 1e-8, slack {slack:.3e} >= -1e-6, "
        f"quadrature identity {worst_rel:.2e} <= 1e-8",
    )


def test_criterion_5_stability_scaling():
    """sup_t ||y1 - y2||_W^2 / ||U1 - U2||^2 constant to 25% over eps sweeps."""
    rng = np.random.default_rng(105)
    times = time_grid(HORIZON, 64)
    y0 = random_field(BASIS, rng, amp=0.3)
    u1 = random_traj(BASIS, times, rng, amp=0.3)
    psi = random_traj(BASIS, times, rng, amp=0.3)
    u2 = Trajectory(times, u1.coeffs + psi.coeffs, BASIS, "control")
    table = stability_check(u1, u2, y0, PARAMS, eps=(1e-1, 1e-2, 1e-3))
    ratios = [row["ratio"] for row in table["sweep"]]
    spread = max(ratios) / min(ratios)
    _report(5, "stability scaling", spread <= 1.25, f"ratio spread {spread:.4f} <= 1.25")


def test_criterion_6_manufactured_convergence():
    """State solver order >= 1.8 in dt under halving, three refinements."""
    g = lambda t: 0.4 * (1.0 + 0.5 * math.sin(3.0 * t))
    gp = lambda t: 0.6 * math.cos(3.0 * t)
    errs = []
    steps = [32, 64, 128, 256]
    for n_steps in steps:
        times = time_grid(HORIZON, n_steps)
        control, ystar = manufactured_control(BASIS, PARAMS, times, 0, g, gp)
        traj = solve_state(Field(ystar.coeffs[0].copy(), BASIS), control, PARAMS)
        errs.append(float(np.max(np.sqrt(np.sum((traj.coeffs - ystar.coeffs) ** 2, axis=1)))))
    order = float(np.polyfit(np.log([HORIZON / s for s in steps]), np.log(errs), 1)[0])
    _report(6, "manufactured convergence", order >= 1.8, f"observed order {order:.3f} >= 1.8")


def test_criterion_7_optimizer_contract():
    """Manufactured-target run: >= 95% cost reduction, monotone accepted
    iterates, 20 VI residuals >= -tol (1 + |J|)."""
    rng = np.random.default_rng(107)
    times = time_grid(HORIZON, 64)
    y0 = random_field(BASIS, rng, amp=0.2)
    u_true = random_traj(BASIS, times, rng, amp=0.5)
    target = solve_state(y0, u_true, PARAMS)
    radius = 2.0 * norm_l2h1_trap(u_true)
    cfg = CostConfig(y_d=target.with_kind("target"), lam=1e-6, radius=radius)
    u0 = Trajectory(times, np.zeros_like(u_true.coeffs), BASIS, "control")
    j0, _ = eval_cost(u0, y0, cfg, PARAMS)
    vi_tol = 1e-6
    opts = OptimizeOptions(max_iter=100, tol=vi_tol / (4.0 * (1.0 + radius)))
    u_star, report = optimize(u0, y0, cfg, PARAMS, opts, rng)
    reduction = report.cost[-1] / j0
    monotone = all(b < a for a, b in zip(report.cost, report.cost[1:]))
    vi_floor = -vi_tol * (1.0 + abs(report.cost[-1]))
    vi_min = min(report.vi_residuals)
    admissible = norm_l2h1_trap(u_star) <= radius * (1.0 + 1e-12)
    ok = reduction <= 0.05 and monotone and vi_min >= vi_floor and admissible
    _report(
        7,
        "optimizer contract",
        ok,
        f"J reduced to {reduction:.2e} of J0 (<= 0.05), monotone={monotone}, "
        f"min VI residual {vi_min:.2e} >= {vi_floor:.2e}",
    )


def test_criterion_8_uniqueness_at_large_lambda():
    """Three random admissible starts agree to 1e-4 K in L2L2 distance when
    lambda is 10x the estimated threshold proxy."""
    rng = np.random.default_rng(108)
    times = time_grid(HORIZON, 64)
    y0 = random_field(BASIS, rng, amp=0.2)
    u_true = random_traj(BASIS, times, rng, amp=0.4)
    target = solve_state(y0, u_true, PARAMS)
    cfg = CostConfig(y_d=target.with_kind("target"), lam=1.0, radius=1.0)
    diag = uniqueness_diagnostics(cfg, PARAMS, n_starts=3, seed=108, y0=y0)
    dist = diag["max_pairwise_distance"]
    _report(
        8,
        "uniqueness at large lambda",
        diag["agrees"],
        f"max pairwise distance {dist:.3e} <= {1e-4 * cfg.radius:.1e} "
        f"at lambda = {diag['lambda_used']:.3e}",
    )


def test_criterion_9_determinism():
    """Verify-suite report bitwise identical across runs with one seed."""
    r1 = run_suite("fast", seed=2026)
    r2 = run_suite("fast", seed=2026)
    b1 = json.dumps(r1, sort_keys=True).encode()
    b2 = json.dumps(r2, sort_keys=True).encode()
    _report(
        9,
        "determinism",
        b1 == b2 and r1["all_passed"],
        f"reports identical ({len(b1)} bytes), all checks passed={r1['all_passed']}",
    )
