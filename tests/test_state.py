import dataclasses
import math

import numpy as np
import pytest

from conftest import random_field, random_traj
from tgflow import build_basis, validate_params
from tgflow.errors import FixedPointDiverged, GridMismatch
from tgflow.spectral import Field, norms, to_grid
from tgflow.state import (
    energy_balance_residuals,
    energy_report,
    manufactured_control,
    solve_state,
    state_rhs_coeffs,
)
from tgflow.trajectory import Trajectory, time_grid


def zero_control(basis, times):
    return Trajectory(times, np.zeros((times.size, basis.n_modes)), basis, "control")


def one_step(y0, dt, params):
    """y_1 of a single step from y0 under zero control."""
    traj = solve_state(y0, zero_control(y0.basis, time_grid(dt, 1)), params)
    return Field(traj.coeffs[1], y0.basis)


def test_zero_is_equilibrium(basis, params):
    times = time_grid(0.5, 16)
    traj = solve_state(Field(np.zeros(basis.n_modes), basis), zero_control(basis, times), params)
    report = energy_report(traj, params)
    assert np.all(traj.coeffs == 0.0)
    assert np.all(report.h1 == 0.0)
    assert np.all(report.dissipation == 0.0)
    assert report.gamma == 0.0


def test_single_mode_step_is_exact_rational_update():
    """At M = 1 with beta = 0 every nonlinear projection vanishes, so one step
    must reproduce the Crank-Nicolson rational decay factor exactly."""
    params = validate_params(nu=1.0, alpha1=0.5, alpha2=-0.5, beta=0.0)
    b = build_basis(1, params.alpha1)
    dt = 0.01
    a0 = 0.7
    sigma = params.nu * b.lam[0] / b.vmult[0]
    y1 = one_step(Field(np.array([a0]), b), dt, params)
    expected = a0 * (1.0 - 0.5 * dt * sigma) / (1.0 + 0.5 * dt * sigma)
    assert abs(y1.coeffs[0] - expected) <= 1e-13
    # and the rational update matches the exact exponential to O(dt^2)
    assert abs(y1.coeffs[0] - a0 * math.exp(-sigma * dt)) <= dt ** 2


def test_small_amplitude_step_matches_linear_decay(basis):
    params = validate_params(nu=1.0, alpha1=basis.alpha1, alpha2=-basis.alpha1, beta=0.0)
    dt = 1e-3
    eps = 1e-6
    i = 3
    y0 = Field(eps * np.eye(basis.n_modes)[i], basis)
    y1 = one_step(y0, dt, params)
    sigma = params.nu * basis.lam[i] / basis.vmult[i]
    assert abs(y1.coeffs[i] - eps * math.exp(-sigma * dt)) <= eps * dt ** 2 + 1e-18
    assert np.max(np.abs(np.delete(y1.coeffs, i))) <= eps * eps


def test_divergence_free_preserved(basis, params, rng):
    times = time_grid(0.25, 16)
    traj = solve_state(random_field(basis, rng), random_traj(basis, times, rng), params)
    jac = to_grid(Field(traj.coeffs[-1], basis), 1)[:, 1:]
    assert np.max(np.abs(jac[0, 0] + jac[1, 1])) <= 1e-12


def test_manufactured_solution_convergence(basis, params):
    g = lambda t: 0.4 * (1.0 + 0.5 * math.sin(3.0 * t))
    gp = lambda t: 0.6 * math.cos(3.0 * t)
    errs = []
    steps = [32, 64, 128, 256]
    for n_steps in steps:
        times = time_grid(0.5, n_steps)
        control, ystar = manufactured_control(basis, params, times, 0, g, gp)
        traj = solve_state(Field(ystar.coeffs[0].copy(), basis), control, params)
        errs.append(np.max(np.sqrt(np.sum((traj.coeffs - ystar.coeffs) ** 2, axis=1))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.min(orders) >= 1.8


def test_manufactured_control_matches_the_kernel_per_node():
    """The control built from the quadratic and cubic parts of F, taken from two
    kernel calls at +-h, is the residual built from a plain kernel call per node
    to 1e-13 relative, with and without the alpha1 and beta terms."""
    g = lambda t: 0.4 * (1.0 + 0.5 * math.sin(3.0 * t))
    gp = lambda t: 0.6 * math.cos(3.0 * t)
    models = [
        validate_params(nu=1.0, alpha1=0.5, alpha2=-0.2, beta=0.4),
        validate_params(nu=1.0, alpha1=0.0, alpha2=0.0, beta=0.4),
        validate_params(nu=1.0, alpha1=0.5, alpha2=-0.5, beta=0.0),
    ]
    for max_mode in (3, 4):
        for params in models:
            basis = build_basis(max_mode, params.alpha1)
            times, mode = time_grid(0.5, 16), 2
            control, ystar = manufactured_control(basis, params, times, mode, g, gp)
            assert np.array_equal(ystar.coeffs[:, mode], [g(t) for t in times])
            want = -np.array([state_rhs_coeffs(basis, params, y) for y in ystar.coeffs])
            want[:, mode] += [
                gp(t) * basis.vmult[mode] + params.nu * basis.lam[mode] * g(t) for t in times
            ]
            err = np.max(np.abs(control.coeffs - want))
            assert err <= 1e-13 * np.max(np.abs(want)), (max_mode, params)


def test_energy_identity_and_inequality(basis, params, rng):
    times = time_grid(0.5, 32)
    y0 = random_field(basis, rng, amp=0.4)
    control = random_traj(basis, times, rng, amp=0.3)
    traj = solve_state(y0, control, params)
    res = energy_balance_residuals(traj, control, params)
    scale = float(np.max(np.sum(traj.coeffs ** 2, axis=1)))
    assert np.max(np.abs(res)) <= 1e-8 * scale
    # dropping the nonnegative dissipation terms leaves the energy inequality
    v_sq = np.sum(traj.coeffs ** 2, axis=1)
    work = 2.0 * traj.dt * np.cumsum(
        np.sum(control.midpoints() * traj.midpoints() / basis.vmult, axis=1)
    )
    assert np.min(v_sq[0] + work - v_sq[1:]) >= -1e-6 * scale


def test_energy_check_detects_sign_corruption(basis, params, rng):
    """Flipping the cubic stress sign must break the balance (mutation test)."""
    times = time_grid(0.5, 16)
    y0 = random_field(basis, rng, amp=0.5)
    control = random_traj(basis, times, rng, amp=0.3)
    traj = solve_state(y0, control, params)
    scale = float(np.max(np.sum(traj.coeffs ** 2, axis=1)))
    good = np.max(np.abs(energy_balance_residuals(traj, control, params)))
    flipped = dataclasses.replace(params, beta=-params.beta)
    bad = np.max(np.abs(energy_balance_residuals(traj, control, flipped)))
    assert good <= 1e-8 * scale
    assert bad > 1e-4 * scale


def test_fixed_point_divergence_reports_step(basis, params, rng):
    y0 = Field(20.0 * np.ones(basis.n_modes) / np.sqrt(1.0 + basis.lam), basis)
    with pytest.raises(FixedPointDiverged) as info:
        times = time_grid(4.0, 2)
        solve_state(y0, zero_control(basis, times), params)
    assert info.value.step is not None


def test_initial_state_and_control_on_other_bases_rejected(basis, params, rng):
    times = time_grid(0.25, 4)
    y0 = random_field(build_basis(3, params.alpha1), rng)
    with pytest.raises(GridMismatch, match="incompatible bases"):
        solve_state(y0, zero_control(basis, times), params)


def test_energy_report_gamma_attained_at_start(basis, params, rng):
    times = time_grid(0.5, 16)
    y0 = random_field(basis, rng, amp=0.3)
    report = energy_report(solve_state(y0, zero_control(basis, times), params), params)
    assert report.gamma >= norms(y0, "H3") * (1.0 - 1e-10)
    assert np.all(np.isfinite(report.h3))
    assert np.all(report.dissipation >= 0.0)
    assert np.all(np.diff(report.dissipation) >= 0.0)


def test_single_mode_h1_monotone_decay():
    params = validate_params(nu=1.0, alpha1=0.3, alpha2=-0.1, beta=0.2)
    b = build_basis(1, params.alpha1)
    times = time_grid(1.0, 64)
    control = Trajectory(times, np.zeros((65, 1)), b, "control")
    report = energy_report(solve_state(Field(np.array([0.8]), b), control, params), params)
    assert np.all(np.diff(report.h1) <= 1e-14)
