import threading

import numpy as np
import pytest

from conftest import random_field, random_traj
from tgflow import build_basis
from tgflow.control import CostConfig
from tgflow.errors import GridMismatch, UnknownKind
from tgflow.state import solve_state
from tgflow.trajectory import (
    Trajectory,
    check_same_grid,
    norm_l2h1_trap,
    pair_l2l2_mid,
    time_grid,
)


def test_nonuniform_times_rejected(basis):
    times = np.array([0.0, 0.1, 0.3])
    with pytest.raises(GridMismatch):
        Trajectory(times, np.zeros((3, basis.n_modes)), basis, "state")
    # a fine grid with 5% jitter on one node: an absolute tolerance would hide it
    fine = 1e-7 * np.arange(5.0)
    fine[2] += 0.05e-7
    with pytest.raises(GridMismatch):
        Trajectory(fine, np.zeros((5, basis.n_modes)), basis, "state")


@pytest.mark.parametrize(
    "times", [np.full(3, np.nan), [0.0, np.inf, np.inf], [0.0, 0.1, np.nan], [-np.inf, 0.0, np.inf]]
)
def test_nonfinite_times_rejected(basis, times):
    with pytest.raises(GridMismatch):
        Trajectory(times, np.zeros((3, basis.n_modes)), basis, "state")


def test_long_uniform_grid_accepted(basis):
    """Spacings of time_grid carry roundoff of the largest node, not of dt."""
    times = time_grid(1.0, 100000)
    t = Trajectory(times, np.zeros((times.size, 1)), build_basis(1, basis.alpha1), "state")
    check_same_grid(t, t.with_kind("control"))


def test_decreasing_times_rejected(basis):
    times = np.array([0.0, 0.2, 0.1])
    with pytest.raises(GridMismatch):
        Trajectory(times, np.zeros((3, basis.n_modes)), basis, "state")


def test_unknown_kind_rejected(basis):
    with pytest.raises(UnknownKind):
        Trajectory(time_grid(1.0, 2), np.zeros((3, basis.n_modes)), basis, "velocity")


def test_shape_mismatch_rejected(basis):
    with pytest.raises(GridMismatch):
        Trajectory(time_grid(1.0, 2), np.zeros((4, basis.n_modes)), basis, "state")


def test_midpoints_are_node_averages(basis, rng):
    t = random_traj(basis, time_grid(1.0, 4), rng)
    mids = t.midpoints()
    assert np.allclose(mids[1], 0.5 * (t.coeffs[1] + t.coeffs[2]), rtol=0, atol=0)


@pytest.mark.parametrize("horizon, n_steps", [(0.0, 4), (-1.0, 4), (1.0, 0)])
def test_time_grid_needs_a_horizon_and_a_step(horizon, n_steps):
    with pytest.raises(ValueError, match="horizon > 0 and n_steps >= 1"):
        time_grid(horizon, n_steps)


def test_check_same_grid(basis, rng):
    a = random_traj(basis, time_grid(0.5, 4), rng)
    b = random_traj(basis, time_grid(0.5, 5), rng)
    with pytest.raises(GridMismatch):
        check_same_grid(a, b)


def test_midpoint_pairing_exact_for_constants(basis, rng):
    f = random_field(basis, rng)
    times = time_grid(0.5, 16)
    t = Trajectory(times, np.tile(f.coeffs, (times.size, 1)), basis, "control")
    from tgflow.spectral import norms

    assert abs(pair_l2l2_mid(t, t) - 0.5 * norms(f, "L2") ** 2) <= 1e-14


def test_trap_h1_norm_positive_definite(basis, rng):
    # alternating nodes average to zero at midpoints but keep a trapezoid norm
    times = time_grid(0.5, 4)
    coeffs = np.zeros((5, basis.n_modes))
    coeffs[:, 0] = [1.0, -1.0, 1.0, -1.0, 1.0]
    t = Trajectory(times, coeffs, basis, "control")
    assert norm_l2h1_trap(t) > 0.0


def test_cost_config_validation(basis, rng):
    t = random_traj(basis, time_grid(0.5, 4), rng, kind="target")
    with pytest.raises(ValueError):
        CostConfig(y_d=t, lam=-1.0, radius=1.0)
    with pytest.raises(ValueError):
        CostConfig(y_d=t, lam=0.0, radius=0.0)


def test_concurrent_solves_match_serial(basis, params, rng):
    """The solver stack is pure: concurrent runs reproduce serial results."""
    times = time_grid(0.25, 8)
    jobs = [
        (random_field(basis, rng, amp=0.3), random_traj(basis, times, rng, amp=0.3))
        for _ in range(4)
    ]
    serial = [solve_state(y0, u, params).coeffs for y0, u in jobs]
    results = [None] * len(jobs)

    def worker(i):
        y0, u = jobs[i]
        results[i] = solve_state(y0, u, params).coeffs

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    for got, want in zip(results, serial):
        assert np.array_equal(got, want)
