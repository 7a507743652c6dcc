import dataclasses
import json

import numpy as np
import pytest

from conftest import random_field, random_traj
from tgflow import build_basis, validate_params, verify
from tgflow.control import CostConfig
from tgflow.spectral import Field, norms
from tgflow.state import energy_balance_residuals, solve_state
from tgflow.trajectory import Trajectory, time_grid
from tgflow.verify import (
    _check_energy,
    estimate_kappa,
    run_suite,
    stability_check,
    uniqueness_diagnostics,
)

CHECK_NAMES = [
    "basis_invariants",
    "transforms",
    "trilinear_skew_symmetry",
    "cubic_dissipativity",
    "state_energy",
    "manufactured_convergence",
    "duality_gap",
    "gateaux_taylor",
    "stability_scaling",
    "adjoint_gradient",
    "optimizer_contract",
]
REPORT_KEYS = {"suite", "level", "seed", "model", "sizes", "checks", "all_passed"}


@pytest.fixture(scope="module")
def fast_report():
    return run_suite("fast", seed=3)


def test_fast_suite_passes(fast_report):
    failing = [c["name"] for c in fast_report["checks"] if not c["passed"]]
    assert fast_report["all_passed"], f"failing checks: {failing}"


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 7919])
def test_fast_suite_converges_across_seeds(seed):
    report = run_suite("fast", seed=seed)
    opt = next(c for c in report["checks"] if c["name"] == "optimizer_contract")
    assert report["all_passed"]
    assert opt["details"]["converged"]


def test_unknown_level_rejected():
    with pytest.raises(ValueError, match="level must be one of"):
        run_suite("medium")


def test_report_schema_stable(fast_report):
    """Golden schema: stable top-level keys, check names and check fields."""
    assert set(fast_report.keys()) == REPORT_KEYS
    assert [c["name"] for c in fast_report["checks"]] == CHECK_NAMES
    for c in fast_report["checks"]:
        assert set(c.keys()) == {"name", "passed", "measured", "tolerance", "details"}


def test_suite_deterministic(fast_report):
    again = run_suite("fast", seed=3)
    assert json.dumps(fast_report, sort_keys=True, default=float) == json.dumps(
        again, sort_keys=True, default=float
    )


def test_energy_check_fails_under_sign_corruption(basis, params, rng, monkeypatch):
    """A residual with the cubic stress sign flipped must fail the check (mutation test)."""
    times = time_grid(0.5, 16)
    ok = _check_energy(basis, params, times, np.random.default_rng(0))

    def flipped(traj, control, p):
        return energy_balance_residuals(traj, control, dataclasses.replace(p, beta=-p.beta))

    monkeypatch.setattr(verify, "energy_balance_residuals", flipped)
    bad = _check_energy(basis, params, times, np.random.default_rng(0))
    assert ok["passed"]
    assert not bad["passed"]


def test_stability_identical_controls(basis, params, rng):
    times = time_grid(0.5, 16)
    y0 = random_field(basis, rng, amp=0.3)
    u = random_traj(basis, times, rng, amp=0.3)
    table = stability_check(u, u, y0, params, eps=(1e-1,))
    assert table["sweep"][0]["sup_w_sq"] == 0.0


def test_stability_ratio_plateau(basis, params, rng):
    times = time_grid(0.5, 32)
    y0 = random_field(basis, rng, amp=0.3)
    u1 = random_traj(basis, times, rng, amp=0.3)
    psi = random_traj(basis, times, rng, amp=0.3)
    u2 = Trajectory(times, u1.coeffs + psi.coeffs, basis, "control")
    table = stability_check(u1, u2, y0, params)
    ratios = [row["ratio"] for row in table["sweep"]]
    assert max(ratios) / min(ratios) <= 1.25


@pytest.mark.parametrize("eps", [(0.0,), (float("nan"),), (1e-2, -1e-3), (float("inf"),), ()])
def test_stability_refuses_sizes_that_are_not_positive_and_finite(basis, params, rng, eps):
    """A zero size would divide by zero and a NaN fail the state solve as a too-large dt."""
    times = time_grid(0.5, 8)
    y0, u = random_field(basis, rng, amp=0.3), random_traj(basis, times, rng, amp=0.3)
    with pytest.raises(ValueError, match="eps must be one or more positive finite values"):
        stability_check(u, u, y0, params, eps=eps)


def test_stability_initial_data_mode(basis, rng):
    """Same controls, different initial states: with large viscosity the
    difference decays over the horizon."""
    params = validate_params(nu=5.0, alpha1=0.5, alpha2=-0.2, beta=0.4)
    times = time_grid(0.5, 32)
    y0 = random_field(basis, rng, amp=0.2)
    y0b = random_field(basis, rng, amp=0.2)
    u = random_traj(basis, times, rng, amp=0.2)
    table = stability_check(u, u, y0, params, eps=(1e-2,), y0_2=y0b)
    info = table["initial_data"]
    assert np.isfinite(info["sup_w_sq"])
    assert info["final_w_sq"] < info["y0_diff_w_sq"]


def test_kappa_is_supremum_lower_bound(basis, rng):
    """The randomized estimate dominates the ratio at any sampled element."""
    kappa = estimate_kappa(basis, np.random.default_rng(4), n_samples=50, n_ascent=10)
    for _ in range(10):
        f = Field(rng.normal(size=basis.n_modes), basis)
        ratio = norms(f, "W14") ** 2 / norms(f, "W") ** 2
        assert kappa >= ratio * (1.0 - 0.35)  # ascent-found max dominates samples
    f = random_field(basis, rng)
    assert kappa > 0.0


def test_uniqueness_gamma_zero_for_quiescent_reference(basis, params, rng):
    times = time_grid(0.5, 8)
    y_d = Trajectory(times, np.zeros((times.size, basis.n_modes)), basis, "target")
    cfg = CostConfig(y_d=y_d, lam=1.0, radius=1.0)
    diag = uniqueness_diagnostics(cfg, params, n_starts=2, seed=0, opt_max_iter=5)
    assert diag["gamma_sup_h3"] == 0.0


def test_uniqueness_multistart_agreement(rng):
    params = validate_params(nu=1.0, alpha1=0.5, alpha2=0.2, beta=0.4)
    basis = build_basis(3, params.alpha1)
    times = time_grid(0.5, 32)
    y0 = random_field(basis, rng, amp=0.2)
    u_true = random_traj(basis, times, rng, amp=0.4)
    target = solve_state(y0, u_true, params)
    cfg = CostConfig(y_d=target.with_kind("target"), lam=1.0, radius=1.0)
    diag = uniqueness_diagnostics(cfg, params, n_starts=3, seed=5, y0=y0)
    assert diag["agrees"]
    assert diag["max_pairwise_distance"] <= 1e-4 * cfg.radius
    assert diag["kappa_lower_bound"] > 0
    assert diag["lambda_used"] == pytest.approx(10.0 * diag["threshold_proxy"])


def test_stability_error_tracks_perturbation_halving(basis, params, rng):
    """Halving the control perturbation halves the sup W-norm error to 20%."""
    times = time_grid(0.5, 32)
    y0 = random_field(basis, rng, amp=0.3)
    u1 = random_traj(basis, times, rng, amp=0.3)
    psi = random_traj(basis, times, rng, amp=0.3)
    u2 = Trajectory(times, u1.coeffs + psi.coeffs, basis, "control")
    table = stability_check(u1, u2, y0, params, eps=(2e-2, 1e-2))
    e_big = np.sqrt(table["sweep"][0]["sup_w_sq"])
    e_small = np.sqrt(table["sweep"][1]["sup_w_sq"])
    assert abs(e_big / e_small / 2.0 - 1.0) <= 0.2
