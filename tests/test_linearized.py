import numpy as np

from conftest import random_field, random_traj, sup_w
from oracles import linearized_form
from tgflow.linearized import gateaux_taylor_test, linearized_rhs_coeffs, solve_linearized
from tgflow.state import solve_state
from tgflow.trajectory import Trajectory, pair_l2l2_mid, time_grid


def make_state(basis, params, rng, n_steps=32, amp=0.3):
    times = time_grid(0.5, n_steps)
    y0 = random_field(basis, rng, amp=amp)
    control = random_traj(basis, times, rng, amp=amp)
    traj = solve_state(y0, control, params)
    return traj, control, y0, times


def test_zero_source_gives_zero(basis, params, rng):
    traj, _, _, times = make_state(basis, params, rng)
    psi = Trajectory(times, np.zeros_like(traj.coeffs), basis, "control")
    z = solve_linearized(traj, psi, params)
    assert np.all(z.coeffs == 0.0)
    assert np.all(z.coeffs[0] == 0.0)


def test_superposition(basis, params, rng):
    traj, _, _, times = make_state(basis, params, rng, n_steps=16)
    for _ in range(10):
        a, b = rng.normal(size=2)
        psi1 = random_traj(basis, times, rng, amp=0.4)
        psi2 = random_traj(basis, times, rng, amp=0.4)
        z1 = solve_linearized(traj, psi1, params)
        z2 = solve_linearized(traj, psi2, params)
        combo = Trajectory(times, a * psi1.coeffs + b * psi2.coeffs, basis, "control")
        z = solve_linearized(traj, combo, params)
        err = np.max(np.abs(z.coeffs - a * z1.coeffs - b * z2.coeffs))
        scale = max(np.max(np.abs(z.coeffs)), 1e-12)
        assert err <= 1e-9 * scale


def test_scalar_mode_ode_around_rest(basis, params):
    """Around y = 0 each mode obeys (1 + alpha1 lam) z' = -nu lam z + psi_hat."""
    i = 4
    q = 0.6  # constant V-basis coefficient of the source
    horizon = 0.5
    errs = []
    for n_steps in (32, 64):
        times = time_grid(horizon, n_steps)
        rest = Trajectory(times, np.zeros((times.size, basis.n_modes)), basis, "state")
        psi = Trajectory(times, np.tile(q * np.eye(basis.n_modes)[i], (times.size, 1)), basis, "control")
        z = solve_linearized(rest, psi, params)
        sigma = params.nu * basis.lam[i] / basis.vmult[i]
        exact = q / (params.nu * basis.lam[i]) * (1.0 - np.exp(-sigma * times))
        errs.append(np.max(np.abs(z.coeffs[:, i] - exact)))
        others = np.delete(z.coeffs, i, axis=1)
        assert np.max(np.abs(others)) <= 1e-14
    assert errs[1] <= errs[0] / 3.5  # second order in dt


def test_weak_form_equivalence(basis, params, rng):
    """The divergence-form Jacobian realizes the linearized weak form exactly:
    a(z, phi) = nu (grad z, grad phi) - (F'(y)[z], phi)."""
    for _ in range(3):
        y = random_field(basis, rng, amp=0.5)
        z = random_field(basis, rng, amp=0.5)
        phi = random_field(basis, rng, amp=0.5)
        rhs = linearized_rhs_coeffs(basis, params, y.coeffs, z.coeffs)
        pairing = float(np.sum(rhs * phi.coeffs / basis.vmult))
        visc = params.nu * float(np.sum(z.coeffs * phi.coeffs * basis.lam / basis.vmult))
        direct = linearized_form(y, z, phi, params)
        assert abs(direct - (visc - pairing)) <= 1e-11 * max(abs(direct), 1.0)


def test_initial_condition_zero_exactly(basis, params, rng):
    traj, _, _, times = make_state(basis, params, rng, n_steps=8)
    psi = random_traj(basis, times, rng)
    z = solve_linearized(traj, psi, params)
    assert np.all(z.coeffs[0] == 0.0)


def test_bound_ratio_invariant_under_rescaling(basis, params, rng):
    """sup_t ||z||_W / ||psi|| is exactly scale-invariant by linearity."""
    traj, _, _, times = make_state(basis, params, rng, n_steps=16)
    psi = random_traj(basis, times, rng, amp=0.4)
    z1 = solve_linearized(traj, psi, params)
    psi4 = Trajectory(times, 4.0 * psi.coeffs, basis, "control")
    z4 = solve_linearized(traj, psi4, params)
    r1 = sup_w(z1) / np.sqrt(pair_l2l2_mid(psi, psi))
    r4 = sup_w(z4) / np.sqrt(pair_l2l2_mid(psi4, psi4))
    assert abs(r1 - r4) <= 1e-9 * r1


def test_taylor_remainder_zero_direction(basis, params, rng):
    _, control, y0, times = make_state(basis, params, rng, n_steps=16)
    psi = Trajectory(times, np.zeros_like(control.coeffs), basis, "control")
    result = gateaux_taylor_test(control, psi, y0, [1e-1, 1e-2], params)
    assert np.max(result.remainders) <= 1e-12


def test_taylor_slopes_single_mode(basis, params, rng):
    times = time_grid(0.5, 32)
    y0 = random_field(basis, rng, amp=0.1)
    control = random_traj(basis, times, rng, amp=0.2)
    psi = Trajectory(
        times, np.tile(0.5 * np.eye(basis.n_modes)[1], (times.size, 1)), basis, "control"
    )
    result = gateaux_taylor_test(control, psi, y0, [1e-1, 1e-2, 1e-3], params)
    assert np.min(result.slopes) >= 0.9
    assert np.max(result.slopes) <= 2.1


def test_taylor_remainder_quadratic_in_direction(basis, params, rng):
    """Doubling psi roughly quadruples the remainder at fixed rho (reported
    as a sanity band, the quadratic term dominating only asymptotically)."""
    times = time_grid(0.5, 32)
    y0 = random_field(basis, rng, amp=0.2)
    control = random_traj(basis, times, rng, amp=0.2)
    psi = random_traj(basis, times, rng, amp=0.4)
    rhos = [1e-2, 1e-3]  # two or more distinct rhos; remainders[0] is at rho = 1e-2
    r1 = gateaux_taylor_test(control, psi, y0, rhos, params).remainders[0]
    psi2 = Trajectory(times, 2.0 * psi.coeffs, basis, "control")
    r2 = gateaux_taylor_test(control, psi2, y0, rhos, params).remainders[0]
    assert 2.0 <= r2 / r1 <= 8.0
