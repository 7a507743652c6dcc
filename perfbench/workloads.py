"""The benchmark workloads: seeded inputs, one pass, and its output checks.

Every workload has `setup(seed, workdir) -> inputs`, `run(inputs) -> output`
(the timed pass) and `check(inputs, output) -> (problems, fingerprint)`.  A
non-empty problem list fails the pass.  The fingerprint is a digest of the
pass's outputs; the runner requires it to be identical for every pass of one
seed.  tgflow functions are always reached through their module, so a tracer
that rebinds them sees every call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

from tgflow import cli, params, spectral, storage, trajectory, verify

MODEL = dict(nu=1.0, alpha1=0.5, alpha2=-0.2, beta=0.4)


def model_params():
    return params.validate_params(**MODEL)


def smooth_field(basis, rng, amp):
    """Random field with coefficients decaying like (1 + lambda)^-1/2."""
    return spectral.Field(amp * rng.normal(size=basis.n_modes) / np.sqrt(1.0 + basis.lam), basis)


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    run: Callable
    check: Callable


# -- optimize_m4: `tgflow simulate` for a target, then `tgflow optimize` --------

OPT_LAMBDA = 1e-6  # lambda, K and tol as in configs/optimize_manufactured.ini
OPT_RADIUS = 5.0
OPT_TOL = 1e-8
# 8 iterations cut the cost below 1% of its start on seeds 0-19 (worst 0.96%),
# five times inside the 5% check, in about 2.5 s per pass.
OPT_MAX_ITER = 8
_LOW_MODES = ((1, 1), (1, 2), (2, 1), (2, 2))

_DISC = """[model]
nu = {nu!r}
alpha1 = {alpha1!r}
alpha2 = {alpha2!r}
beta = {beta!r}

[disc]
M = 4
grid = 16
dt = 0.0078125
T = 0.5

[init]
mode = {init_mode}
amplitude = {init_amp!r}

[run]
seed = {seed}
"""


def _optimize_setup(seed, workdir):
    rng = np.random.default_rng(seed)
    pick = lambda: "{},{}".format(*_LOW_MODES[rng.integers(len(_LOW_MODES))])
    base = _DISC.format(seed=seed, init_mode=pick(), init_amp=rng.uniform(0.1, 0.3), **MODEL)
    target = base + (
        f"\n[control]\nmode = {pick()}\namplitude = {rng.uniform(0.3, 0.6)!r}\n"
        f"omega = {rng.uniform(2.0, 6.0)!r}\n"
    )
    tracking = base + (
        f"\n[cost]\nlambda = {OPT_LAMBDA!r}\nK = {OPT_RADIUS!r}\n"
        "target_path = target/state.traj\n"
        f"\n[opt]\nmax_iter = {OPT_MAX_ITER}\ntol = {OPT_TOL!r}\n"
    )
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "target.ini").write_text(target)
    (workdir / "optimize.ini").write_text(tracking)
    return {"dir": workdir}


def _optimize_run(inp):
    d = inp["dir"]
    sim = cli.main(["simulate", "--config", str(d / "target.ini"), "--out", str(d / "target")])
    opt = cli.main(["optimize", "--config", str(d / "optimize.ini"), "--out", str(d / "opt")])
    return sim, opt


def _optimize_check(inp, out):
    d = inp["dir"]
    try:
        if out != (0, 0):
            return [f"exit codes simulate/optimize {out}, expected (0, 0)"], None
        problems = []
        report = json.loads((d / "opt" / "optimize_report.json").read_text())
        if not report["final_cost"] <= 0.05 * report["initial_cost"]:
            problems.append(
                f"final cost {report['final_cost']:.3e} above 5% of {report['initial_cost']:.3e}"
            )
        history = (d / "opt" / "cost_history.csv").read_bytes()
        costs = [float(row["cost"]) for row in csv.DictReader(history.decode().splitlines())]
        if not all(b < a for a, b in zip(costs, costs[1:])):
            problems.append("cost history is not strictly decreasing")
        control_bytes = (d / "opt" / "control.traj").read_bytes()
        control = storage.load_trajectory(str(d / "opt" / "control.traj"))  # checks the CRC
        norm = trajectory.norm_l2h1_trap(control)
        if not norm <= OPT_RADIUS * (1.0 + 1e-12):
            problems.append(f"control L2(0,T;H1) norm {norm!r} exceeds K = {OPT_RADIUS}")
        return problems, _digest(control_bytes, history)
    finally:
        for sub in ("target", "opt"):
            shutil.rmtree(d / sub, ignore_errors=True)


# -- verify_fast: the `tgflow verify --level fast` suite ------------------------

# The suite's seed stays at the CLI default.  Its cost depends on its seed
# through the optimizer check, which stops after 42 to 80 iterations for
# seeds 0-5 (7.6 to 15 s per pass), so a suite seeded from the benchmark seed
# could not give a steady wall time across seeds.
VERIFY_SEED = 0


def _verify_setup(seed, workdir):
    return {"seed": VERIFY_SEED}


def _verify_run(inp):
    return verify.run_suite("fast", seed=inp["seed"])


def _verify_check(inp, report):
    blob = (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()  # as verify_report.json
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    problems = [] if report["all_passed"] else [f"verify checks failed: {failed}"]
    return problems, _digest(blob)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("optimize_m4", _optimize_setup, _optimize_run, _optimize_check),
        Workload("verify_fast", _verify_setup, _verify_run, _verify_check),
    )
}
