"""The Crank-Nicolson/midpoint marcher shared by the state, linearized and adjoint solvers."""

import itertools
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oracles import solve_adjoint_endpoint, solve_linearized_endpoint, solve_state_endpoint
from tgflow import adjoint, build_basis, linearized, spectral, state, validate_params
from tgflow.adjoint import AdjointWork, adjoint_rhs_terms, check_duality, solve_adjoint
from tgflow.errors import FixedPointDiverged
from tgflow.linearized import LinearizedWork, linearized_rhs_coeffs, solve_linearized
from tgflow.spectral import Field
from tgflow.state import (
    FP_MAX_ITER,
    FP_TOL,
    PREDICTOR_ORDER,
    StateWork,
    march,
    midpoint_gain,
    solve_state,
    state_rhs_coeffs,
)
from tgflow.trajectory import Trajectory, random_field, random_traj, time_grid


def zero_rhs(k, mid):
    return np.zeros_like(mid)


def test_zero_explicit_term_gives_rational_decay(basis, params, rng):
    dt, n_steps = 0.05, 5
    a0 = rng.normal(size=basis.n_modes)
    nodes = march(basis, params, dt, a0, np.zeros((n_steps, basis.n_modes)), zero_rhs)
    imp = 0.5 * dt * params.nu * basis.lam / basis.vmult
    expected = ((1.0 - imp) / (1.0 + imp)) ** np.arange(n_steps + 1)[:, None] * a0
    assert nodes.shape == (n_steps + 1, basis.n_modes)
    assert np.max(np.abs(nodes - expected) / np.abs(expected)) <= 1e-15


def test_steps_see_their_own_explicit_term_in_order(basis, rng):
    """Without viscosity a_{k+1} = a_k + dt g_k, where g_k is the term of step k,
    whether it comes as the source or from the rhs, which march scales by dt / 2."""
    inviscid = validate_params(nu=0.0, alpha1=0.5, alpha2=-0.5, beta=0.0)
    dt, n_steps = 0.1, 6
    g = rng.normal(size=(n_steps, basis.n_modes))
    expected = np.concatenate([np.zeros((1, basis.n_modes)), np.cumsum(dt * g, axis=0)])
    seen = []

    def rhs(k, mid):
        seen.append(k)
        return 0.5 * dt * g[k]

    zero = np.zeros(basis.n_modes)
    nodes = march(basis, inviscid, dt, zero, np.zeros_like(g), rhs)
    assert sorted(set(seen)) == list(range(n_steps)) and seen == sorted(seen)
    assert np.max(np.abs(nodes - expected)) <= 1e-14
    nodes = march(basis, inviscid, dt, zero, g, zero_rhs)
    assert np.max(np.abs(nodes - expected)) <= 1e-14


@pytest.mark.parametrize("degree", range(PREDICTOR_ORDER))
def test_polynomial_explicit_term_is_predicted_exactly(basis, rng, degree):
    """Step k extrapolates the terms of the last min(k, PREDICTOR_ORDER) steps, which
    is exact on a state-independent term g of lower degree in t: from step
    degree + 1 on the first iterate is already converged, and the steps before it
    confirm with a second evaluation.  Without viscosity the nodes are
    a_{k+1} = a_k + dt g(t_k + dt / 2), where march scales the rhs by dt / 2."""
    inviscid = validate_params(nu=0.0, alpha1=0.5, alpha2=-0.5, beta=0.0)
    dt, n_steps = 0.1, 12
    c = rng.normal(size=(degree + 1, basis.n_modes))
    g = np.polynomial.polynomial.polyval(dt * (np.arange(n_steps) + 0.5), c).T
    calls = [0] * n_steps

    def rhs(k, mid):
        calls[k] += 1
        return 0.5 * dt * g[k]

    a0 = rng.normal(size=basis.n_modes)
    nodes = march(basis, inviscid, dt, a0, np.zeros_like(g), rhs)
    expected = a0 + np.concatenate([np.zeros((1, basis.n_modes)), np.cumsum(dt * g, axis=0)])
    assert np.max(np.abs(nodes - expected)) <= 1e-13 * np.max(np.abs(expected))
    assert calls == [2] * (degree + 1) + [1] * (n_steps - degree - 1)


def test_source_only_march_is_predicted_from_step_1(basis, params, rng):
    """With no rhs every explicit term is exactly zero, so every step starts from
    its converged midpoint c_k, step 0 included, and takes one evaluation."""
    n_steps = 8
    calls = [0] * n_steps

    def rhs(k, mid):
        calls[k] += 1
        return np.zeros_like(mid)

    src = rng.normal(size=(n_steps, basis.n_modes))
    march(basis, params, 0.05, rng.normal(size=basis.n_modes), src, rhs)
    assert calls == [1] * n_steps


def test_non_finite_values_raise_with_step_and_residuals(basis, params):
    zero, ones = np.zeros(basis.n_modes), np.ones(basis.n_modes)
    # two finite iterates of step 2 that disagree, then an inf
    bad_values = iter([ones, -ones, np.full(basis.n_modes, np.inf)])

    def rhs(k, mid):
        return next(bad_values) if k == 2 else zero

    with pytest.raises(FixedPointDiverged, match="non-finite") as info:
        march(basis, params, 0.01, ones, np.zeros((4, basis.n_modes)), rhs)
    assert info.value.step == 2
    assert len(info.value.residuals) == 2
    assert all(np.isfinite(info.value.residuals))


def test_nan_in_a_single_mode_raises(basis, params):
    def rhs(k, mid):
        out = np.zeros(basis.n_modes)
        out[-1] = np.nan
        return out

    with pytest.raises(FixedPointDiverged, match="non-finite") as info:
        march(basis, params, 0.01, np.ones(basis.n_modes), np.zeros((3, basis.n_modes)), rhs)
    assert info.value.step == 0
    assert info.value.residuals == []


def test_no_convergence_raises_after_max_iterations(basis, params):
    zero = np.zeros(basis.n_modes)
    flip = itertools.cycle([np.ones(basis.n_modes), -np.ones(basis.n_modes)])

    def rhs(k, mid):
        # step 1 alternates between two iterates and never settles
        return next(flip) if k == 1 else zero

    with pytest.raises(FixedPointDiverged, match="did not reach") as info:
        march(basis, params, 0.01, np.ones(basis.n_modes), np.zeros((3, basis.n_modes)), rhs)
    assert info.value.step == 1
    assert len(info.value.residuals) == FP_MAX_ITER
    assert min(info.value.residuals) > FP_TOL


def test_windowed_march_reports_its_earliest_failing_step(basis, params):
    """In a window of four steps, a NaN term of step 2 and a term of step 1 that flips sign
    every sweep are reported at those steps, although the later steps fail with them."""
    a0, src = np.ones(basis.n_modes), np.zeros((6, basis.n_modes))

    def nan_at_2(k, mids):
        out = np.zeros_like(mids)
        if k == 0:
            out[2, -1] = np.nan
        return out

    with pytest.raises(FixedPointDiverged, match="non-finite") as info:
        march(basis, params, 0.01, a0, src, nan_at_2, window=4)
    assert info.value.step == 2
    assert info.value.residuals == []
    flip = itertools.cycle([1.0, -1.0])

    def flip_at_1(k, mids):
        out = np.zeros_like(mids)
        if k == 0:
            out[1] = next(flip)
        return out

    with pytest.raises(FixedPointDiverged, match="did not reach") as info:
        march(basis, params, 0.01, a0, src, flip_at_1, window=4)
    assert info.value.step == 1
    assert len(info.value.residuals) == FP_MAX_ITER
    assert min(info.value.residuals) > FP_TOL


def test_non_positive_dt_rejected(basis, params):
    with pytest.raises(ValueError):
        march(basis, params, 0.0, np.zeros(basis.n_modes), np.zeros((1, basis.n_modes)), zero_rhs)


def late_burst_state(basis, amp):
    """A state that is zero except at the final node, where it is large."""
    times = time_grid(0.5, 4)
    coeffs = np.zeros((times.size, basis.n_modes))
    coeffs[-1] = amp / np.sqrt(1.0 + basis.lam)
    return Trajectory(times, coeffs, basis, "state")


@pytest.mark.parametrize("solve", [solve_linearized, solve_adjoint])
def test_small_state_converges(basis, params, rng, solve):
    y = late_burst_state(basis, 0.1)
    out = solve(y, random_traj(basis, y.times, rng, amp=0.5), params)
    assert np.all(np.isfinite(out.coeffs))


def test_linearized_divergence_reports_forward_step(basis, params, rng):
    y = late_burst_state(basis, 10.0)
    with pytest.raises(FixedPointDiverged) as info:
        solve_linearized(y, random_traj(basis, y.times, rng, amp=0.5), params)
    # only the last interval sees the large state
    assert info.value.step == y.n_steps - 1


def test_adjoint_divergence_reports_reversed_step(basis, params, rng):
    """The adjoint marches backward from T, so the last interval is its step 0."""
    y = late_burst_state(basis, 10.0)
    with pytest.raises(FixedPointDiverged) as info:
        solve_adjoint(y, random_traj(basis, y.times, rng, amp=0.5), params)
    assert info.value.step == 0


# -- the solvers against the endpoint form, and their workspaces ------------------


def solver_inputs(max_mode, params, seed, n_steps=32):
    """A basis, a state solved under a strong random control, and a second random source."""
    basis = build_basis(max_mode, params.alpha1)
    rng = np.random.default_rng(seed)
    times = time_grid(0.5, n_steps)
    control = random_traj(basis, times, rng, amp=2.0)
    y0 = Field(0.4 * rng.normal(size=basis.n_modes) / np.sqrt(1.0 + basis.lam), basis)
    return basis, y0, control, solve_state(y0, control, params), random_traj(basis, times, rng)


def counted(module, monkeypatch, calls=None):
    """Record the step of every midpoint the march of the module's solver evaluates and,
    in calls when given, the first step of every rhs (kernel) call."""
    steps = []

    def march_counted(basis, params, dt, a0, src, rhs, window=1):
        def rhs_counted(k, mids):
            steps.extend(range(k, k + len(np.atleast_2d(mids))))
            if calls is not None:
                calls.append(k)
            return rhs(k, mids)

        return march(basis, params, dt, a0, src, rhs_counted, window)

    monkeypatch.setattr(module, "march", march_counted)
    return steps


# Per-step linearized and adjoint solves (one kernel call per step and iteration) met
# 2.39e-13 relative against the endpoint form iterated to 1e-14 in these cases (M = 8,
# linearized; 6.5e-14 at M = 4 and 2.5e-15 at M = 3): the windowed solves must meet it too.
LINEAR_TOL = 2.5e-13


@pytest.mark.parametrize("max_mode", [3, 4, 8])
def test_solvers_match_the_endpoint_form(max_mode, params, monkeypatch):
    """The state's midpoint iteration with its scales folded into the kernel takes the
    steps of the endpoint-form iteration: the same nodes to 1e-13 relative, from the
    same number of rhs evaluations in every step.  The windowed linearized and adjoint
    solves match the endpoint form iterated to 1e-14 within LINEAR_TOL."""
    basis, y0, control, y, psi = solver_inputs(max_mode, params, seed=max_mode)
    steps = counted(state, monkeypatch)
    got = state.solve_state(y0, control, params).coeffs
    monkeypatch.undo()
    calls = []
    want = solve_state_endpoint(y0, control, params, calls)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.bincount(steps, minlength=y.n_steps).tolist() == calls
    assert max(calls) >= 2
    cases = [
        (linearized.solve_linearized(y, psi, params).coeffs,
         solve_linearized_endpoint(y, psi, params, tol=1e-14)),
        (adjoint.solve_adjoint(y, psi, params).reversed().coeffs,
         solve_adjoint_endpoint(y, psi, params, tol=1e-14)),
    ]
    for got, want in cases:
        assert np.max(np.abs(got - want)) <= LINEAR_TOL * np.max(np.abs(want))


def test_rhs_per_step_at_the_acceptance_size(params, monkeypatch):
    """At M = 4, grid 16, dt = 1/128 and T = 0.5 the state, linearized and adjoint
    solves from seeded smooth data take at most these rhs evaluations per step.
    Predicting each midpoint from the nodes, as before, they took 2.06, 2.08 and
    2.06 here (2.21 state and 2.83 adjoint rhs per step traced on `optimize_m4`).
    The windowed linear solves make one kernel call per sweep of a window, so they
    are pinned by kernel calls and by midpoints evaluated per step: measured 0.33
    and 1.31 for the linearized solve (windows of 4), 0.17 and 1.38 for the adjoint
    (windows of 8), pinned 10% above; one step at a time they made 1.14 and 1.11
    kernel calls, one midpoint each, per step."""
    basis = build_basis(4, params.alpha1, 16)
    rng = np.random.default_rng(0)
    times = time_grid(0.5, 64)
    y0 = random_field(basis, rng, amp=0.2)
    control, psi, f = (random_traj(basis, times, rng, amp) for amp in (0.5, 0.3, 0.3))

    def per_step(module, solve, *inputs):
        calls = []
        steps = counted(module, monkeypatch, calls)
        out = solve(*inputs, params)
        monkeypatch.undo()
        return out, len(calls) / (times.size - 1), len(steps) / (times.size - 1)

    y, state_rate, state_mids = per_step(state, solve_state, y0, control)
    _, linearized_calls, linearized_mids = per_step(linearized, solve_linearized, y, psi)
    _, adjoint_calls, adjoint_mids = per_step(adjoint, solve_adjoint, y, f)
    assert state_rate == state_mids <= 1.15
    rates = (linearized_calls, linearized_mids, adjoint_calls, adjoint_mids)
    assert linearized_calls <= 0.36 and linearized_mids <= 1.44, rates
    assert adjoint_calls <= 0.19 and adjoint_mids <= 1.52, rates


@pytest.mark.parametrize("alpha1, alpha2", [(0.05, -0.05), (0.5, -0.2)])
@pytest.mark.parametrize("max_mode", [4, 8])
@pytest.mark.parametrize("horizon, n_steps", [(1 / 80, 2), (1 / 80, 8), (1 / 80, 32), (0.5, 64)])
def test_unit_amplitude_data_complete(alpha1, alpha2, max_mode, horizon, n_steps):
    """Unit-amplitude initial data under a constant control, at step sizes up to
    dt = 6.25e-3, where the midpoint iteration needs up to 17 rhs evaluations per
    step: the state, linearized and adjoint solves all complete."""
    params = validate_params(nu=1.0, alpha1=alpha1, alpha2=alpha2, beta=0.4)
    basis = build_basis(max_mode, alpha1)
    rng = np.random.default_rng(0)
    y0 = Field(rng.normal(size=basis.n_modes) / np.sqrt(1.0 + basis.lam), basis)
    u = rng.normal(size=basis.n_modes) / (1.0 + basis.lam)
    times = time_grid(horizon, n_steps)
    control = Trajectory(times, np.tile(u, (n_steps + 1, 1)), basis, "control")
    y = solve_state(y0, control, params)
    for solve in (solve_linearized, solve_adjoint):
        assert np.all(np.isfinite(solve(y, control, params).coeffs))


def test_repeated_and_interleaved_solves_are_bitwise_identical(params):
    """Each solve owns its workspaces: a solve repeated after solves on another basis
    and other params, or run while those run in another thread, gives bitwise the
    same nodes."""
    other = validate_params(nu=0.5, alpha1=0.2, alpha2=-0.1, beta=0.8)

    def solves(max_mode, p):
        _, _, _, y, psi = solver_inputs(max_mode, p, seed=0)
        return [y.coeffs, solve_linearized(y, psi, p).coeffs, solve_adjoint(y, psi, p).coeffs]

    first = solves(4, params)
    solves(3, other)
    again = solves(4, params)
    with ThreadPoolExecutor(max_workers=2) as pool:
        running = [pool.submit(solves, 4, params), pool.submit(solves, 3, other)]
        threaded = [future.result(timeout=120) for future in running][0]
    for nodes in (again, threaded):
        for want, got in zip(first, nodes):
            assert np.array_equal(want, got)


def test_workspace_kernels_are_the_plain_kernels_scaled(params, rng):
    """A kernel given a workspace returns its plain value times the workspace's
    per-mode scale, whichever frozen state and basis the calls before it used."""
    bases = [build_basis(4, params.alpha1), build_basis(3, params.alpha1)]
    scales = [rng.uniform(0.5, 2.0, size=b.n_modes) for b in bases]
    works = [
        (StateWork(b, params, s), LinearizedWork(b, params, s), AdjointWork(b, params, s))
        for b, s in zip(bases, scales)
    ]
    for _ in range(2):
        for b, s, (sw, lw, aw) in zip(bases, scales, works):
            y, z = 0.5 * rng.normal(size=(2, b.n_modes)) / np.sqrt(1.0 + b.lam)
            pairs = [
                (state_rhs_coeffs(b, params, y, sw), state_rhs_coeffs(b, params, y)),
                (
                    linearized_rhs_coeffs(b, params, y, z, lw),
                    linearized_rhs_coeffs(b, params, y, z),
                ),
                (adjoint_rhs_terms(b, params, y, z, aw), adjoint_rhs_terms(b, params, y, z)),
            ]
            for got, plain in pairs:
                assert np.max(np.abs(got - s * plain)) <= 1e-14 * np.max(np.abs(s * plain))


@pytest.mark.parametrize(
    "module, solve, work",
    [(linearized, solve_linearized, LinearizedWork), (adjoint, solve_adjoint, AdjointWork)],
)
def test_solvers_freeze_once_per_step(params, monkeypatch, module, solve, work):
    """A solve builds each step's weight grids once, not once per rhs evaluation,
    in one build per chunk of c steps: the chunks cover every step's own
    midpoint once, in march's order."""
    basis, _, _, y, psi = solver_inputs(4, params, seed=2)
    mids = y.midpoints() if module is linearized else y.reversed().midpoints()
    c = work(basis, params, frozen=mids).window
    assert 1 < c < y.n_steps
    frozen, freeze = [], work.freeze

    def freeze_counted(self, stack):
        frozen.append(stack.copy())
        freeze(self, stack)

    monkeypatch.setattr(work, "freeze", freeze_counted)
    steps = counted(module, monkeypatch)
    solve(y, psi, params)
    assert y.n_steps < len(steps)
    chunks = np.array_split(mids, range(c, y.n_steps, c))
    assert [len(stack) for stack in frozen] == [len(chunk) for chunk in chunks]
    assert np.array_equal(np.concatenate(frozen), mids)


def step_counts(basis, params, work):
    """The window c of work's solves and the step counts 1, c - 1, c, c + 1 and 2c + 3."""
    c = work(basis, params, frozen=np.zeros((1000, basis.n_modes))).window
    assert c > 2
    return c, (1, c - 1, c, c + 1, 2 * c + 3)


@pytest.mark.parametrize("max_mode", [3, 4])
@pytest.mark.parametrize(
    "solve, work", [(solve_linearized, LinearizedWork), (solve_adjoint, AdjointWork)]
)
def test_chunked_solves_match_chunks_of_one(params, monkeypatch, max_mode, solve, work):
    """A kernel call that freezes and evaluates a window of c steps at once gives the same
    bytes as c calls that freeze and evaluate one step each: in solves with step counts
    around and across c, every row of every windowed call is the window-of-one call at
    that row's frozen state and midpoint."""
    basis = build_basis(max_mode, params.alpha1)
    rng = np.random.default_rng(max_mode)
    y0 = random_field(basis, rng, amp=0.4)
    linear = work is LinearizedWork
    module, kernel = (linearized, linearized_rhs_coeffs) if linear else (adjoint, adjoint_rhs_terms)
    c, counts = step_counts(basis, params, work)
    for n_steps in counts:
        times = time_grid(0.5, n_steps)
        y = solve_state(y0, random_traj(basis, times, rng, amp=1.0), params)
        seen = []

        def kernel_seen(basis, params, frozen, mids, w):
            out = kernel(basis, params, frozen, mids, w)
            seen.append((frozen.copy(), np.atleast_2d(mids).copy(), np.atleast_2d(out).copy()))
            return out

        monkeypatch.setattr(module, kernel.__name__, kernel_seen)
        solve(y, random_traj(basis, times, rng), params)
        monkeypatch.undo()
        assert max(len(frozen) for frozen, *_ in seen) == min(n_steps, c)
        one = work(basis, params, midpoint_gain(basis, params, y.dt) / basis.vmult)
        assert one.window == 1
        for frozen, mids, out in seen:
            rows = [kernel(basis, params, f, m, one).copy() for f, m in zip(frozen, mids)]
            assert np.array_equal(out, rows), n_steps


@pytest.mark.parametrize("max_mode", [3, 4])
@pytest.mark.parametrize(
    "solve, work", [(solve_linearized, LinearizedWork), (solve_adjoint, AdjointWork)]
)
def test_windowed_solves_match_window_of_one(params, monkeypatch, max_mode, solve, work):
    """Windowed linearized and adjoint solves agree with solves whose windows hold one
    step to 1e-12 relative, for step counts around and across the window, and each
    repeats bitwise."""
    basis = build_basis(max_mode, params.alpha1)
    rng = np.random.default_rng(max_mode)
    y0 = random_field(basis, rng, amp=0.4)
    for n_steps in step_counts(basis, params, work)[1]:
        times = time_grid(0.5, n_steps)
        y = solve_state(y0, random_traj(basis, times, rng, amp=1.0), params)
        psi = random_traj(basis, times, rng)
        windowed = solve(y, psi, params).coeffs
        assert np.array_equal(solve(y, psi, params).coeffs, windowed), n_steps
        monkeypatch.setattr(spectral, "WINDOW_BYTES", 0)
        single = solve(y, psi, params).coeffs
        assert np.array_equal(solve(y, psi, params).coeffs, single), n_steps
        monkeypatch.undo()
        assert np.max(np.abs(windowed - single)) <= 1e-12 * np.max(np.abs(single)), n_steps


@pytest.mark.parametrize("max_mode, grid", [(3, None), (4, 16)])
def test_windowed_duality_gap(params, max_mode, grid):
    """With both linear solves windowed, the discrete duality holds to 1e-12 at seeds 0-5."""
    basis = build_basis(max_mode, params.alpha1, grid)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        times = time_grid(0.5, 32)
        y0, control = random_field(basis, rng, amp=0.4), random_traj(basis, times, rng, amp=1.0)
        y = solve_state(y0, control, params)
        assert LinearizedWork(basis, params, frozen=y.midpoints()).window > 1
        assert AdjointWork(basis, params, frozen=y.midpoints()).window > 1
        psi, f = random_traj(basis, times, rng), random_traj(basis, times, rng)
        assert check_duality(y, psi, f, params)[2] <= 1e-12, seed


def test_large_bases_take_a_window_of_one(params):
    """At M = 16 on the default grid a sweep over more than one step costs more than it
    saves, so the linear solves take their steps one at a time."""
    basis = build_basis(16, params.alpha1)
    for work in (LinearizedWork, AdjointWork):
        assert work(basis, params, frozen=np.zeros((64, basis.n_modes))).window == 1


def test_state_rhs_is_unchanged_by_a_solve(params):
    """Solves write only into workspaces of their own."""
    basis, _, _, y, psi = solver_inputs(4, params, seed=1)
    before = state_rhs_coeffs(basis, params, y.coeffs[5])
    solve_adjoint(y, psi, params)
    solve_linearized(y, psi, params)
    after = state_rhs_coeffs(basis, params, y.coeffs[5])
    assert np.array_equal(before, after)
