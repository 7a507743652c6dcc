import numpy as np
import pytest

from conftest import random_field, random_traj, sup_w
from oracles import adjoint_form, linearized_form
from tgflow.adjoint import check_duality, solve_adjoint
from tgflow.errors import GridMismatch
from tgflow.state import solve_state
from tgflow.trajectory import Trajectory, pair_l2l2_mid, time_grid


def make_state(basis, params, rng, n_steps=32, amp=0.3):
    times = time_grid(0.5, n_steps)
    y0 = random_field(basis, rng, amp=amp)
    control = random_traj(basis, times, rng, amp=amp)
    traj = solve_state(y0, control, params)
    return traj, times


def test_zero_source_gives_zero(basis, params, rng):
    traj, times = make_state(basis, params, rng, n_steps=16)
    f = Trajectory(times, np.zeros_like(traj.coeffs), basis, "control")
    p = solve_adjoint(traj, f, params)
    assert np.all(p.coeffs == 0.0)


def test_terminal_condition_exact(basis, params, rng):
    traj, times = make_state(basis, params, rng, n_steps=16)
    f = random_traj(basis, times, rng)
    p = solve_adjoint(traj, f, params)
    assert np.all(p.coeffs[-1] == 0.0)


def test_linearity_in_source(basis, params, rng):
    traj, times = make_state(basis, params, rng, n_steps=16)
    f1 = random_traj(basis, times, rng, amp=0.4)
    f2 = random_traj(basis, times, rng, amp=0.4)
    a, b = rng.normal(size=2)
    p1 = solve_adjoint(traj, f1, params)
    p2 = solve_adjoint(traj, f2, params)
    combo = Trajectory(times, a * f1.coeffs + b * f2.coeffs, basis, "control")
    p = solve_adjoint(traj, combo, params)
    scale = max(np.max(np.abs(p.coeffs)), 1e-12)
    assert np.max(np.abs(p.coeffs - a * p1.coeffs - b * p2.coeffs)) <= 1e-9 * scale


def test_scalar_mode_ode_around_rest(basis, params):
    """Around y = 0 the reversed adjoint matches the mode ODE solution."""
    i = 2
    q = 0.8
    horizon = 0.5
    errs = []
    for n_steps in (32, 64):
        times = time_grid(horizon, n_steps)
        rest = Trajectory(times, np.zeros((times.size, basis.n_modes)), basis, "state")
        f = Trajectory(times, np.tile(q * np.eye(basis.n_modes)[i], (times.size, 1)), basis, "control")
        p = solve_adjoint(rest, f, params)
        sigma = params.nu * basis.lam[i] / basis.vmult[i]
        exact = q / (params.nu * basis.lam[i]) * (1.0 - np.exp(-sigma * (horizon - times)))
        errs.append(np.max(np.abs(p.coeffs[:, i] - exact)))
        assert np.max(np.abs(np.delete(p.coeffs, i, axis=1))) <= 1e-14
    assert errs[1] <= errs[0] / 3.5


def test_spatial_form_is_exact_transpose(basis, params, rng):
    """a_adj(p, z) = a_lin(z, p) for every frozen state: the discrete duality
    mechanism."""
    for _ in range(5):
        y = random_field(basis, rng, amp=0.5)
        z = random_field(basis, rng, amp=0.5)
        p = random_field(basis, rng, amp=0.5)
        al = linearized_form(y, z, p, params)
        aa = adjoint_form(y, p, z, params)
        assert abs(al - aa) <= 1e-11 * max(abs(al), 1.0)


def test_duality_identity(basis, params, rng):
    """int (psi, p) dt = int (f, z) dt across random draws at M=4, N_t=64."""
    traj, times = make_state(basis, params, rng, n_steps=64)
    worst = 0.0
    for _ in range(10):
        psi = random_traj(basis, times, rng, amp=0.5)
        f = random_traj(basis, times, rng, amp=0.5)
        lhs, rhs, gap = check_duality(traj, psi, f, params)
        worst = max(worst, gap)
    assert worst <= 1e-6


def test_duality_zero_cases(basis, params, rng):
    traj, times = make_state(basis, params, rng, n_steps=8)
    zero = Trajectory(times, np.zeros_like(traj.coeffs), basis, "control")
    f = random_traj(basis, times, rng)
    lhs, rhs, _ = check_duality(traj, zero, f, params)
    assert lhs == 0.0 and abs(rhs) <= 1e-14
    lhs, rhs, _ = check_duality(traj, f, zero, params)
    assert rhs == 0.0 and abs(lhs) <= 1e-14


def test_grid_mismatch_rejected(basis, params, rng):
    traj, times = make_state(basis, params, rng, n_steps=8)
    other_times = time_grid(0.5, 10)
    f = Trajectory(other_times, np.zeros((11, basis.n_modes)), basis, "control")
    with pytest.raises(GridMismatch):
        solve_adjoint(traj, f, params)


def test_bound_ratio_invariant_under_rescaling(basis, params, rng):
    traj, times = make_state(basis, params, rng, n_steps=16)
    f = random_traj(basis, times, rng, amp=0.4)
    p1 = solve_adjoint(traj, f, params)
    f3 = Trajectory(times, 3.0 * f.coeffs, basis, "control")
    p3 = solve_adjoint(traj, f3, params)
    r1 = sup_w(p1) / np.sqrt(pair_l2l2_mid(f, f))
    r3 = sup_w(p3) / np.sqrt(pair_l2l2_mid(f3, f3))
    assert abs(r1 - r3) <= 1e-9 * r1
