"""The Crank-Nicolson/midpoint marcher shared by the state, linearized and adjoint solvers."""

import itertools

import numpy as np
import pytest

from tgflow import validate_params
from tgflow.adjoint import solve_adjoint
from tgflow.errors import FixedPointDiverged
from tgflow.linearized import solve_linearized
from tgflow.state import FP_MAX_ITER, FP_TOL, march
from tgflow.trajectory import Trajectory, random_traj, time_grid


def constant_rhs_at(value):
    return lambda k: (lambda mid: value)


def test_zero_explicit_term_gives_rational_decay(basis, params, rng):
    dt, n_steps = 0.05, 5
    a0 = rng.normal(size=basis.n_modes)
    nodes = march(basis, params, dt, a0, n_steps, constant_rhs_at(np.zeros(basis.n_modes)))
    imp = 0.5 * dt * params.nu * basis.lam / basis.vmult
    expected = ((1.0 - imp) / (1.0 + imp)) ** np.arange(n_steps + 1)[:, None] * a0
    assert nodes.shape == (n_steps + 1, basis.n_modes)
    assert np.max(np.abs(nodes - expected) / np.abs(expected)) <= 1e-15


def test_steps_see_their_own_explicit_term_in_order(basis, rng):
    """Without viscosity a_{k+1} = a_k + dt g_k, where g_k is the constant of step k."""
    inviscid = validate_params(nu=0.0, alpha1=0.5, alpha2=-0.5, beta=0.0)
    dt, n_steps = 0.1, 6
    g = rng.normal(size=(n_steps, basis.n_modes))
    seen = []

    def rhs_at(k):
        seen.append(k)
        return lambda mid: g[k]

    nodes = march(basis, inviscid, dt, np.zeros(basis.n_modes), n_steps, rhs_at)
    assert seen == list(range(n_steps))
    expected = np.concatenate([np.zeros((1, basis.n_modes)), np.cumsum(dt * g, axis=0)])
    assert np.max(np.abs(nodes - expected)) <= 1e-14


def test_linear_in_time_solution_is_hit_by_the_extrapolated_guess(basis, rng):
    """With a constant term the nodes are linear in t, so from step 1 on the
    extrapolated guess is already converged and each step takes one rhs evaluation."""
    inviscid = validate_params(nu=0.0, alpha1=0.5, alpha2=-0.5, beta=0.0)
    g = rng.normal(size=basis.n_modes)
    calls = []

    def rhs(mid):
        calls.append(1)
        return g

    n_steps = 8
    march(basis, inviscid, 0.1, rng.normal(size=basis.n_modes), n_steps, lambda k: rhs)
    # step 0 starts from a_0 and needs a second evaluation to confirm convergence
    assert len(calls) == 2 + (n_steps - 1)


def calls_per_step(basis, degree, rng, n_steps=8):
    """rhs evaluations of each step when the nodes are a polynomial of the given degree in t.

    Without viscosity a_{k+1} = a_k + dt g_k, so step-dependent constant terms
    g_k = (p(t_{k+1}) - p(t_k)) / dt make the nodes the samples of p.
    """
    inviscid = validate_params(nu=0.0, alpha1=0.5, alpha2=-0.5, beta=0.0)
    dt = 0.1
    c = rng.normal(size=(degree + 1, basis.n_modes))
    p = np.polynomial.polynomial.polyval(dt * np.arange(n_steps + 1), c).T
    g = np.diff(p, axis=0) / dt
    calls = [0] * n_steps

    def rhs_at(k):
        def rhs(mid):
            calls[k] += 1
            return g[k]

        return rhs

    nodes = march(basis, inviscid, dt, p[0], n_steps, rhs_at)
    assert np.max(np.abs(nodes - p)) <= 1e-13 * np.max(np.abs(p))
    return calls


def test_quadratic_in_time_solution_is_hit_from_step_2(basis, rng):
    """3 a_2 - 3 a_1 + a_0 and the cubic guess after it are exact on quadratic nodes."""
    assert calls_per_step(basis, 2, rng) == [2, 2] + [1] * 6


def test_cubic_in_time_solution_is_hit_from_step_3(basis, rng):
    """4 a_k - 6 a_{k-1} + 4 a_{k-2} - a_{k-3} is exact on cubic nodes."""
    assert calls_per_step(basis, 3, rng) == [2, 2, 2] + [1] * 5


def test_non_finite_values_raise_with_step_and_residuals(basis, params):
    zero, ones = np.zeros(basis.n_modes), np.ones(basis.n_modes)
    # two finite iterates of step 2 that disagree, then an inf
    bad_values = iter([ones, -ones, np.full(basis.n_modes, np.inf)])

    def rhs_at(k):
        return (lambda mid: next(bad_values)) if k == 2 else (lambda mid: zero)

    with pytest.raises(FixedPointDiverged, match="non-finite") as info:
        march(basis, params, 0.01, np.ones(basis.n_modes), 4, rhs_at)
    assert info.value.step == 2
    assert len(info.value.residuals) == 2
    assert all(np.isfinite(info.value.residuals))


def test_nan_in_a_single_mode_raises(basis, params):
    def rhs(mid):
        out = np.zeros(basis.n_modes)
        out[-1] = np.nan
        return out

    with pytest.raises(FixedPointDiverged, match="non-finite") as info:
        march(basis, params, 0.01, np.ones(basis.n_modes), 3, lambda k: rhs)
    assert info.value.step == 0
    assert info.value.residuals == []


def test_no_convergence_raises_after_max_iterations(basis, params):
    zero = np.zeros(basis.n_modes)
    flip = itertools.cycle([np.ones(basis.n_modes), -np.ones(basis.n_modes)])

    def rhs_at(k):
        # step 1 alternates between two iterates and never settles
        return (lambda mid: next(flip)) if k == 1 else (lambda mid: zero)

    with pytest.raises(FixedPointDiverged, match="did not reach") as info:
        march(basis, params, 0.01, np.ones(basis.n_modes), 3, rhs_at)
    assert info.value.step == 1
    assert len(info.value.residuals) == FP_MAX_ITER
    assert min(info.value.residuals) > FP_TOL


def test_non_positive_dt_rejected(basis, params):
    with pytest.raises(ValueError):
        march(basis, params, 0.0, np.zeros(basis.n_modes), 1, constant_rhs_at(0.0))


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
