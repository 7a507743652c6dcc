"""The per-layer table: which tgflow functions are traced and what is derived.

Span names follow the per-layer metric names (``state.rhs`` is
``tgflow.state.state_rhs_coeffs``).  Functions that are not traced, such as the
pointwise tensor helpers, count towards the self time of the traced span that
calls them; that is what makes ``state.rhs.self_s`` the pointwise constitutive
algebra left after synthesis, projection and FFT time are taken out.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
from tgflow import spectral, state

from tracing import Target
from workloads import MODEL, model_params, smooth_field

SWEEP_MODES = (4, 8, 16, 24)
SWEEP_REPEATS = 5
SOLVES = ("state.solve", "linearized.solve", "adjoint.solve")


def basis_nbytes(basis) -> int:
    """Bytes held in the basis's arrays, computed from their sizes."""
    return sum(a.nbytes for a in vars(basis).values() if isinstance(a, np.ndarray))


def _steps(work, name, args, kwargs, result):
    traj = result[0] if isinstance(result, tuple) else result
    work[name + ".steps"] += traj.n_steps


def _optimizer(work, name, args, kwargs, result):
    steps = result[1].step_size  # one entry per iteration, 0.0 where no step was taken
    work["control.iterations"] += len(steps)
    work["control.accepted"] += sum(1 for s in steps if s > 0.0)


def _saved(work, name, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    work["storage.bytes_written"] += os.path.getsize(path) + os.path.getsize(path + ".json")


def _built(work, name, args, kwargs, result):
    work["spectral.basis_bytes"] = max(work["spectral.basis_bytes"], basis_nbytes(result))


TARGETS = (
    Target("spectral.build_basis", "tgflow.spectral", "build_basis", _built),
    Target("spectral.to_grid", "tgflow.spectral", "to_grid"),
    Target("spectral.to_coeffs", "tgflow.spectral", "to_coeffs"),
    Target("spectral.rfft2", "tgflow.spectral", "SpectralBasis.rfft2"),
    Target("spectral.irfft2", "tgflow.spectral", "SpectralBasis.irfft2"),
    Target("state.rhs", "tgflow.state", "state_rhs_coeffs"),
    Target("state.solve", "tgflow.state", "solve_state", _steps),
    Target("state.energy_report", "tgflow.state", "energy_report"),
    Target("linearized.rhs", "tgflow.linearized", "linearized_rhs_coeffs"),
    Target("linearized.solve", "tgflow.linearized", "solve_linearized", _steps),
    Target("adjoint.rhs", "tgflow.adjoint", "adjoint_rhs_terms"),
    Target("adjoint.solve", "tgflow.adjoint", "solve_adjoint", _steps),
    Target("control.eval_cost", "tgflow.control", "eval_cost"),
    # traced so that the eval_cost inside it is not taken for a line-search trial
    Target("control.gradient_direction", "tgflow.control", "gradient_direction"),
    Target("control.gradient", "tgflow.control", "_gradient_from_state"),
    Target("control.optimize", "tgflow.control", "optimize", _optimizer),
    Target("verify.run_suite", "tgflow.verify", "run_suite"),
    Target("storage.save_trajectory", "tgflow.storage", "save_trajectory", _saved),
    Target("storage.load_trajectory", "tgflow.storage", "load_trajectory"),
    Target("cli.main", "tgflow.cli", "main"),
)

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_table(tracer) -> dict[str, float]:
    """Per-layer metrics of one traced set-up and pass."""
    spans, work, within, edges = tracer.spans, tracer.work, tracer.within, tracer.edges
    out = {
        "spectral.build_basis.s": spans["spectral.build_basis"].busy_s,
        "spectral.basis_bytes": work["spectral.basis_bytes"],
    }
    for layer in ("spectral.to_grid", "spectral.to_coeffs"):
        out[layer + ".calls"] = spans[layer].calls
        out[layer + ".busy_s"] = spans[layer].busy_s
    fft = [spans["spectral.rfft2"], spans["spectral.irfft2"]]
    out["spectral.fft.calls"] = sum(s.calls for s in fft)
    out["spectral.fft.busy_s"] = sum(s.busy_s for s in fft)

    for module in ("state", "linearized", "adjoint"):
        rhs, solve = f"{module}.rhs", f"{module}.solve"
        out[rhs + ".calls"] = spans[rhs].calls
        out[rhs + ".busy_s"] = spans[rhs].busy_s
        out[f"{module}.rhs_per_step"] = _ratio(within[(solve, rhs)], work[solve + ".steps"])
        out[solve + ".busy_s"] = spans[solve].busy_s
    out["state.rhs.self_s"] = spans["state.rhs"].self_s
    out["state.solve.calls"] = spans["state.solve"].calls
    out["state.energy_report.busy_s"] = spans["state.energy_report"].busy_s

    trials = edges[("control.optimize", "control.eval_cost")]
    out["control.eval_cost.calls"] = spans["control.eval_cost"].calls
    out["control.gradient.calls"] = spans["control.gradient"].calls
    out["control.line_search_trials_per_iter"] = _ratio(trials, work["control.iterations"])
    out["control.accept_ratio"] = _ratio(work["control.accepted"], trials)
    out["control.optimize.busy_s"] = spans["control.optimize"].busy_s
    out["control.optimize.self_s"] = spans["control.optimize"].self_s

    out["verify.run_suite.busy_s"] = spans["verify.run_suite"].busy_s
    out["verify.run_suite.self_s"] = spans["verify.run_suite"].self_s
    out["verify.solves"] = sum(within[("verify.run_suite", s)] for s in SOLVES)

    out["storage.save_trajectory.busy_s"] = spans["storage.save_trajectory"].busy_s
    out["storage.load_trajectory.busy_s"] = spans["storage.load_trajectory"].busy_s
    out["storage.bytes_written"] = work["storage.bytes_written"]

    out["cli.main.busy_s"] = spans["cli.main"].busy_s
    out["cli.main.self_s"] = spans["cli.main"].self_s
    return out


def _per_call_ms(fn) -> float:
    fn()  # first call fills plan caches
    times = []
    for _ in range(SWEEP_REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def spectral_sweep(seed: int) -> dict[str, float]:
    """Untraced per-call cost of synthesis, projection and one rhs against M."""
    params = model_params()
    rng = np.random.default_rng(seed)
    out = {}
    for m in SWEEP_MODES:
        builds, basis = [], None
        for _ in range(3):
            basis = None  # never hold two bases at once
            start = time.perf_counter()
            basis = spectral.build_basis(m, MODEL["alpha1"])
            builds.append(time.perf_counter() - start)
        field = smooth_field(basis, rng, amp=0.4)
        grid = spectral.to_grid(field)
        out[f"spectral.build_basis.ms.M{m}"] = 1e3 * statistics.median(builds)
        out[f"spectral.basis_bytes.M{m}"] = basis_nbytes(basis)
        out[f"spectral.to_grid.ms.M{m}"] = _per_call_ms(lambda: spectral.to_grid(field))
        out[f"spectral.to_coeffs.ms.M{m}"] = _per_call_ms(lambda: spectral.to_coeffs(basis, grid))
        out[f"state.rhs.ms.M{m}"] = _per_call_ms(
            lambda: state.state_rhs_coeffs(basis, params, field.coeffs)
        )
        del field, grid
    return out
