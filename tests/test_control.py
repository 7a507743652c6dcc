from types import SimpleNamespace

import numpy as np
import pytest

from conftest import random_field, random_traj
from tgflow import build_basis, control
from tgflow.control import (
    N_VI_SAMPLES,
    CostConfig,
    OptimizeOptions,
    eval_cost,
    gradient_direction,
    gradient_mapping_norm,
    optimize,
    random_admissible,
)
from tgflow.errors import LineSearchFailed
from tgflow.spectral import Field
from tgflow.state import solve_state
from tgflow.trajectory import (
    ControlSpace,
    Trajectory,
    norm_l2h1_trap,
    pair_l2l2_mid,
    time_grid,
)


@pytest.fixture
def setup(basis, params, rng):
    times = time_grid(0.5, 32)
    y0 = random_field(basis, rng, amp=0.2)
    u_true = random_traj(basis, times, rng, amp=0.5)
    target = solve_state(y0, u_true, params)
    return times, y0, u_true, target


def zero_traj(basis, times):
    return Trajectory(times, np.zeros((times.size, basis.n_modes)), basis, "control")


def test_cost_zero_when_target_is_uncontrolled_flow(basis, params, rng):
    times = time_grid(0.5, 16)
    y0 = random_field(basis, rng, amp=0.3)
    free = solve_state(y0, zero_traj(basis, times), params)
    cfg = CostConfig(y_d=free.with_kind("target"), lam=0.0, radius=1.0)
    j, _ = eval_cost(zero_traj(basis, times), y0, cfg, params)
    assert j == 0.0


def test_cost_affine_in_lambda(setup, basis, params, rng):
    times, y0, _, target = setup
    u = random_traj(basis, times, rng, amp=0.4)
    lam1, lam2 = 0.1, 0.7
    j1, _ = eval_cost(u, y0, CostConfig(target.with_kind("target"), lam1, 1.0), params)
    j2, _ = eval_cost(u, y0, CostConfig(target.with_kind("target"), lam2, 1.0), params)
    expected = 0.5 * (lam2 - lam1) * pair_l2l2_mid(u, u)
    assert abs((j2 - j1) - expected) <= 1e-10 * max(abs(expected), 1.0)


def test_control_term_closed_form(basis, params, rng):
    """Constant single-mode control: penalty is (lam/2) T ||U||_2^2 exactly."""
    times = time_grid(0.5, 16)
    y0 = Field(np.zeros(basis.n_modes), basis)
    free = solve_state(y0, zero_traj(basis, times), params)
    lam = 0.3
    amp = 0.7
    i = 5
    cfg = CostConfig(free.with_kind("target"), lam, 10.0)
    u = Trajectory(times, np.tile(amp * np.eye(basis.n_modes)[i], (times.size, 1)), basis, "control")
    j, y_traj = eval_cost(u, y0, cfg, params)
    closed_penalty = 0.5 * lam * 0.5 * amp ** 2 / basis.vmult[i]  # (lam/2) T ||U||_2^2
    tracking = j - closed_penalty
    # tracking >= 0 and the penalty piece matches to full precision
    diff = Trajectory(times, y_traj.coeffs - free.coeffs, basis, "state")
    assert abs(j - (0.5 * pair_l2l2_mid(diff, diff) + closed_penalty)) <= 1e-10 * j
    assert tracking >= 0.0


def test_gradient_zero_at_perfect_tracking(basis, params, rng):
    times = time_grid(0.5, 16)
    y0 = random_field(basis, rng, amp=0.3)
    free = solve_state(y0, zero_traj(basis, times), params)
    cfg = CostConfig(free.with_kind("target"), 0.0, 1.0)
    g, j, _ = gradient_direction(zero_traj(basis, times), y0, cfg, params)
    assert j == 0.0
    assert np.all(g.coeffs == 0.0)


def test_gradient_equals_adjoint_when_lambda_zero(setup, basis, params, rng):
    times, y0, _, target = setup
    u = random_traj(basis, times, rng, amp=0.3)
    cfg0 = CostConfig(target.with_kind("target"), 0.0, 1.0)
    cfg1 = CostConfig(target.with_kind("target"), 0.5, 1.0)
    g0, _, _ = gradient_direction(u, y0, cfg0, params)
    g1, _, _ = gradient_direction(u, y0, cfg1, params)
    assert np.max(np.abs(g1.coeffs - g0.coeffs - 0.5 * u.coeffs)) <= 1e-12


def test_gradient_against_central_differences(setup, basis, params, rng):
    times, y0, _, target = setup
    cfg = CostConfig(target.with_kind("target"), 1e-3, 10.0)
    u = random_traj(basis, times, rng, amp=0.2)
    g, _, _ = gradient_direction(u, y0, cfg, params)
    rho = 1e-4
    for _ in range(5):
        psi = random_traj(basis, times, rng, amp=0.5)
        pred = pair_l2l2_mid(g, psi)
        jp, _ = eval_cost(Trajectory(times, u.coeffs + rho * psi.coeffs, basis, "control"), y0, cfg, params)
        jm, _ = eval_cost(Trajectory(times, u.coeffs - rho * psi.coeffs, basis, "control"), y0, cfg, params)
        fd = (jp - jm) / (2.0 * rho)
        assert abs(fd - pred) <= 1e-4 * max(abs(fd), 1e-12)


def test_projection_inside_ball_unchanged(basis, rng):
    times = time_grid(0.5, 8)
    u = random_traj(basis, times, rng, amp=0.1).coeffs
    space = ControlSpace(times, basis)
    radius = 2.0 * space.norm(u)
    assert space.project(u, radius) is u


def test_projection_radial_scaling(basis, rng):
    times = time_grid(0.5, 8)
    u = random_traj(basis, times, rng, amp=0.5).coeffs
    space = ControlSpace(times, basis)
    radius = 0.5 * space.norm(u)  # ||u|| = 2K
    proj = space.project(u, radius)
    assert abs(space.norm(proj) - radius) <= 1e-12 * radius
    # projection is radial: directions are preserved
    cos = np.sum(proj * u) / np.sqrt(np.sum(proj ** 2) * np.sum(u ** 2))
    assert abs(cos - 1.0) <= 1e-12


def test_projection_idempotent(basis, rng):
    times = time_grid(0.5, 8)
    u = random_traj(basis, times, rng, amp=0.9).coeffs
    space = ControlSpace(times, basis)
    radius = 0.3 * space.norm(u)
    once = space.project(u, radius)
    twice = space.project(once, radius)
    assert np.max(np.abs(twice - once)) <= 1e-15


def test_optimize_already_optimal(basis, params, rng):
    """Starting at the optimum of a self-generated target stops immediately."""
    times = time_grid(0.5, 16)
    y0 = random_field(basis, rng, amp=0.3)
    free = solve_state(y0, zero_traj(basis, times), params)
    cfg = CostConfig(free.with_kind("target"), 1e-4, 1.0)
    u_star, report = optimize(
        zero_traj(basis, times), y0, cfg, params, OptimizeOptions(max_iter=10, tol=1e-10), rng
    )
    assert report.n_iter <= 1
    assert report.converged
    assert report.cost[0] == 0.0
    assert np.all(u_star.coeffs == 0.0)


def test_optimize_manufactured_recovery(setup, basis, params, rng):
    times, y0, u_true, target = setup
    radius = 2.0 * norm_l2h1_trap(u_true)
    cfg = CostConfig(target.with_kind("target"), 1e-6, radius)
    u0 = zero_traj(basis, times)
    j0, _ = eval_cost(u0, y0, cfg, params)
    opts = OptimizeOptions(max_iter=60, tol=1e-6 / (4.0 * (1.0 + radius)))
    u_star, report = optimize(u0, y0, cfg, params, opts, rng)
    assert report.cost[-1] <= 0.05 * j0
    assert all(b < a for a, b in zip(report.cost, report.cost[1:]))
    assert norm_l2h1_trap(u_star) <= radius * (1.0 + 1e-12)
    assert report.control_norm[-1] == norm_l2h1_trap(u_star)  # the W norm verify checks
    vi_floor = -1e-6 * (1.0 + abs(report.cost[-1]))
    assert len(report.vi_residuals) == N_VI_SAMPLES
    assert min(report.vi_residuals) >= vi_floor


def test_gradient_mapping_zero_at_stationary_point(basis, params, rng):
    times = time_grid(0.5, 8)
    space = ControlSpace(times, basis)
    G = space.riesz(zero_traj(basis, times).coeffs)
    u = random_traj(basis, times, rng, amp=0.1).coeffs
    assert gradient_mapping_norm(space, u, G, radius=100.0) == 0.0


@pytest.mark.parametrize("max_mode", [3, 4])
@pytest.mark.parametrize("n_steps", [1, 2, 16])
def test_riesz_map_represents_midpoint_pairing(params, rng, max_mode, n_steps):
    """mid(g, V) = <R g, V>_W for every V; n_steps = 1 leaves only the end nodes."""
    basis = build_basis(max_mode, params.alpha1)
    times = time_grid(0.5, n_steps)
    space = ControlSpace(times, basis)
    shape = (times.size, basis.n_modes)
    g = rng.normal(size=shape)
    G = space.riesz(g)
    for _ in range(3):
        v = rng.normal(size=shape)
        expected = space.mid(g, v)
        assert abs(space.inner(G, v) - expected) <= 1e-13 * abs(expected)


def test_gradient_mapping_zero_at_boundary_stationary_point(basis, rng):
    """On the boundary with R g = -c U, c > 0, the W mapping vanishes to roundoff;
    the L2 mapping of the same point does not."""
    times = time_grid(0.5, 16)
    space = ControlSpace(times, basis)
    g = random_traj(basis, times, rng, amp=0.5).coeffs
    G = space.riesz(g)
    radius = 0.7
    u = -radius / space.norm(G) * G
    assert gradient_mapping_norm(space, u, G, radius) <= 1e-14 * radius
    l2_move = u - space.project(u - g, radius)
    l2_mapping = np.sqrt(space.mid(l2_move, l2_move))
    assert l2_mapping >= 1e-3 * np.sqrt(space.mid(g, g))


def test_random_admissible_inside_ball(basis, rng):
    times = time_grid(0.5, 8)
    space = ControlSpace(times, basis)
    for _ in range(5):
        psi = random_admissible(space, 2.0, rng, fill=0.8)
        assert psi.shape == (times.size, basis.n_modes)
        assert norm_l2h1_trap(Trajectory(times, psi, basis, "control")) <= 2.0 * (1.0 + 1e-12)


def test_all_iterates_admissible_with_active_constraint(basis, params, rng):
    """A tight ball keeps the constraint active; every iterate stays inside
    and costs decrease monotonically.  On the boundary the projected gradient
    arc descends, so the run spends at most two state solves per iteration
    instead of stalling on roundoff decreases."""
    times = time_grid(0.5, 16)
    y0 = random_field(basis, rng, amp=0.3)
    u_true = random_traj(basis, times, rng, amp=0.8)
    target = solve_state(y0, u_true, params)
    radius = 0.3 * norm_l2h1_trap(u_true)
    cfg = CostConfig(target.with_kind("target"), 1e-8, radius)
    u0 = zero_traj(basis, times)
    u_star, report = optimize(u0, y0, cfg, params, OptimizeOptions(max_iter=25, tol=1e-10), rng)
    assert all(n <= radius * (1.0 + 1e-12) for n in report.control_norm)
    assert any(report.constraint_active)
    assert all(b < a for a, b in zip(report.cost, report.cost[1:]))
    assert norm_l2h1_trap(u_star) <= radius * (1.0 + 1e-12)
    assert report.termination in ("gradient mapping below tolerance", "max_iter reached")
    assert report.state_solves <= 2 * report.n_iter
    # on the boundary the projected quasi-Newton trial fails and a gradient step is taken
    assert "gradient" in report.direction[1:]


def test_gradient_consistent_at_returned_control(setup, basis, params, rng):
    """Directional derivatives still match the adjoint pairing at the point
    the optimizer returns."""
    times, y0, u_true, target = setup
    radius = 2.0 * norm_l2h1_trap(u_true)
    cfg = CostConfig(target.with_kind("target"), 1e-4, radius)
    u0 = zero_traj(basis, times)
    u_star, _ = optimize(u0, y0, cfg, params, OptimizeOptions(max_iter=20, tol=1e-5), rng)
    g, _, _ = gradient_direction(u_star, y0, cfg, params)
    rho = 1e-4
    psi = random_traj(basis, times, rng, amp=0.5)
    pred = pair_l2l2_mid(g, psi)
    jp, _ = eval_cost(Trajectory(times, u_star.coeffs + rho * psi.coeffs, basis, "control"), y0, cfg, params)
    jm, _ = eval_cost(Trajectory(times, u_star.coeffs - rho * psi.coeffs, basis, "control"), y0, cfg, params)
    fd = (jp - jm) / (2.0 * rho)
    assert abs(fd - pred) <= 1e-4 * max(abs(fd), 1e-12)


def test_max_iter_exit_records_the_returned_control(setup, basis, params, rng, monkeypatch):
    """A run stopped by max_iter ends with a row for the control it returns: its
    cost bit for bit, step 0.0 and no line-search trial; each earlier row counts
    the state solves its line search made."""
    solves = []
    monkeypatch.setattr(control, "solve_state", lambda *a: solves.append(1) or solve_state(*a))
    times, y0, u_true, target = setup
    cfg = CostConfig(target.with_kind("target"), 1e-6, 2.0 * norm_l2h1_trap(u_true))
    opts = OptimizeOptions(max_iter=3, tol=1e-12)
    u_star, report = optimize(zero_traj(basis, times), y0, cfg, params, opts, rng)
    assert (report.converged, report.termination, report.n_iter) == (False, "max_iter reached", 3)
    rows = (
        report.cost, report.step_size, report.grad_norm, report.grad_mapping,
        report.constraint_active, report.control_norm, report.line_search_trials,
        report.direction,
    )
    assert all(len(column) == report.n_iter + 1 for column in rows)
    assert (report.step_size[-1], report.line_search_trials[-1], report.direction[-1]) == (0.0, 0, "")
    assert report.direction[:-1] == ["gradient", "quasi_newton", "quasi_newton"]
    assert all(trials >= 1 for trials in report.line_search_trials[:-1])
    assert len(solves) == 1 + sum(report.line_search_trials)  # the first gradient, then trials
    assert report.cost[-1] == eval_cost(u_star, y0, cfg, params)[0]


def test_report_counts_state_and_adjoint_solves(setup, basis, params, rng, monkeypatch):
    """state_solves is one plus the line-search trials, adjoint_solves one plus the
    accepted steps, and both match the solver calls the run made."""
    calls = {"state": 0, "adjoint": 0}

    def counted(kind, solver):
        def call(*args):
            calls[kind] += 1
            return solver(*args)
        return call

    monkeypatch.setattr(control, "solve_state", counted("state", control.solve_state))
    monkeypatch.setattr(control, "solve_adjoint", counted("adjoint", control.solve_adjoint))
    times, y0, u_true, target = setup
    cfg = CostConfig(target.with_kind("target"), 1e-6, 0.5 * norm_l2h1_trap(u_true))
    _, report = optimize(
        zero_traj(basis, times), y0, cfg, params, OptimizeOptions(max_iter=6, tol=1e-12), rng
    )
    accepted = sum(1 for kind in report.direction if kind)
    assert report.state_solves == 1 + sum(report.line_search_trials) == calls["state"]
    assert report.adjoint_solves == 1 + accepted == calls["adjoint"]


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_iter", 0),
        ("tol", -1e-9),
        ("tol", float("nan")),
    ],
)
def test_optimize_options_rejected(field, value):
    """With these options optimize would run no iteration or could never converge."""
    with pytest.raises(ValueError, match=field):
        OptimizeOptions(**{field: value})


def _fake_space(w, h0):
    """A stand-in for ControlSpace with the product sum(a * b * w) and h0."""
    return SimpleNamespace(inner=lambda a, b: float(np.sum(a * b * w)), h0=h0)


def _weighted_quadratic(rng, shape):
    """Diagonal SPD A, node-by-mode weights w, and n = prod(shape) steps conjugate in <a, A b>_w."""
    n = int(np.prod(shape))
    a = rng.uniform(0.5, 20.0, size=shape)
    w = rng.uniform(0.5, 2.0, size=shape)
    steps = []
    for v in rng.normal(size=(n,) + shape):
        for s in steps:
            v = v - np.sum(v * a * s * w) / np.sum(s * a * s * w) * s
        steps.append(v)
    return a, w, steps


def test_lbfgs_direction_is_newton_on_quadratic(rng):
    """With exact pairs y = A s over a full set of conjugate steps, -H g = -A^{-1} g."""
    shape = (2, control.LBFGS_MEMORY // 2)
    a, w, steps = _weighted_quadratic(rng, shape)
    memory = control._Memory(_fake_space(w, 1.0 + rng.uniform(2.0, 32.0, size=shape[-1])))
    for s in steps:
        assert memory.push(s, a * s)
    g = rng.normal(size=shape)
    d = memory.direction(g)
    assert np.max(np.abs(d + g / a)) <= 1e-10 * np.max(np.abs(g / a))


def test_lbfgs_memory_skips_non_positive_curvature(rng):
    memory = control._Memory(_fake_space(np.ones(3), np.array([3.0, 6.0, 11.0])))
    s = rng.normal(size=(4, 3))
    assert not memory.push(s, -s)
    assert not memory.push(s, np.zeros_like(s))
    assert len(memory.pairs) == 0
    assert memory.push(s, 2.0 * s)
    assert len(memory.pairs) == 1
    assert np.allclose(memory.direction(s), -0.5 * s, rtol=1e-15, atol=0.0)


@pytest.fixture
def roundoff_floor(params):
    """M = 1, N = 4 over T = 0.25, lambda = 1e-2 and a target simulated from a random
    control: the optimizer drives the gradient mapping to roundoff, where no Armijo
    step is left."""
    rng = np.random.default_rng(0)
    basis = build_basis(1, params.alpha1)
    times = time_grid(0.25, 4)
    y0 = random_field(basis, rng, amp=0.2)
    target = solve_state(y0, random_traj(basis, times, rng, amp=0.5), params)
    return zero_traj(basis, times), y0, CostConfig(target.with_kind("target"), 1e-2, 10.0)


def test_line_search_stall_converges_near_stationarity_else_raises(roundoff_floor, params):
    """A failed line search is convergence within 1e3 tol of stationarity, else LineSearchFailed;
    both runs take the same iterates up to it (at iteration 16 here)."""
    u0, y0, cfg = roundoff_floor
    with pytest.raises(LineSearchFailed, match="no Armijo step") as failed:
        optimize(u0, y0, cfg, params, OptimizeOptions(tol=0.0))
    _, report = optimize(u0, y0, cfg, params, OptimizeOptions(tol=1e-15))
    assert report.converged
    assert report.termination == "line search stalled at near-stationary point"
    assert f"at iteration {report.n_iter} " in str(failed.value)
    assert 1e-15 < report.grad_mapping[-1] <= 1e3 * 1e-15
    assert report.direction[-1] == "" and report.line_search_trials[-1] > 0
