import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import crafted_trajectory
from tgflow import build_basis, errors, validate_params
from tgflow.cli import main
from tgflow.control import CostConfig, eval_cost
from tgflow.spectral import MAX_GRID_SIZE, Field
from tgflow.state import solve_state
from tgflow.storage import load_trajectory, save_trajectory
from tgflow.trajectory import Trajectory, random_traj, time_grid

MODEL = """
[model]
nu = 1.0
alpha1 = 0.5
alpha2 = -0.2
beta = 0.4
"""

DISC = """
[disc]
M = 3
grid = 12
dt = 0.015625
T = 0.5
"""


def write(path, text):
    path.write_text(text)
    return str(path)


def test_simulate_zero_run(tmp_path):
    cfg = write(tmp_path / "c.ini", MODEL + DISC)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    traj = load_trajectory(os.path.join(out, "state.traj"))
    assert np.all(traj.coeffs == 0.0)
    assert os.path.exists(os.path.join(out, "norms.csv"))
    assert os.path.exists(os.path.join(out, "state.traj.json"))


def test_simulate_forced_run_and_export(tmp_path):
    cfg = write(
        tmp_path / "c.ini",
        MODEL + DISC + "\n[init]\nmode = 1,1\namplitude = 0.2\n"
        "\n[control]\nmode = 2,1\namplitude = 0.4\nomega = 4.0\n",
    )
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    traj = load_trajectory(os.path.join(out, "state.traj"))
    assert np.max(np.abs(traj.coeffs)) > 0.0
    exp = write(
        tmp_path / "e.ini", f"[export]\ninput = {out}/state.traj\nwhat = norms\n"
    )
    out2 = str(tmp_path / "exp")
    assert main(["export-plot", "--config", exp, "--out", out2]) == 0
    header = Path(out2, "norms.csv").read_text().splitlines()[0]
    assert header.startswith("t,l2,v,w,h1,h2,h3")


def test_optimize_manufactured_target(tmp_path):
    gen = write(
        tmp_path / "gen.ini",
        MODEL + DISC + "\n[init]\nmode = 1,1\namplitude = 0.2\n"
        "\n[control]\nmode = 1,2\namplitude = 0.5\nomega = 3.0\n",
    )
    target_dir = str(tmp_path / "target")
    assert main(["simulate", "--config", gen, "--out", target_dir]) == 0
    opt = write(
        tmp_path / "opt.ini",
        MODEL
        + DISC
        + "\n[init]\nmode = 1,1\namplitude = 0.2\n"
        + f"\n[cost]\nlambda = 1e-6\nK = 5.0\ntarget_path = {target_dir}/state.traj\n"
        + "\n[opt]\nmax_iter = 50\ntol = 1e-7\n",
    )
    out = str(tmp_path / "opt_out")
    assert main(["optimize", "--config", opt, "--out", out]) == 0
    report = json.loads(Path(out, "optimize_report.json").read_text())
    assert report["final_cost"] <= 0.05 * report["initial_cost"]
    assert report["state_solves"] == 1 + sum(report["line_search_trials"])
    assert report["adjoint_solves"] == 1 + sum(1 for kind in report["direction"] if kind)
    assert os.path.exists(os.path.join(out, "control.traj"))
    lines = Path(out, "cost_history.csv").read_text().strip().split("\n")
    assert lines[0].startswith("iteration,cost")
    costs = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b < a for a, b in zip(costs, costs[1:]))


def test_optimize_stopped_by_max_iter_reports_the_saved_control(tmp_path):
    """final_cost is the cost of the saved control.traj, and cost_history.csv and
    line_search_trials hold one row per iterate, the returned control included."""
    gen = write(tmp_path / "gen.ini", MODEL + DISC + "\n[control]\nmode = 1,2\namplitude = 0.5\n")
    assert main(["simulate", "--config", gen, "--out", str(tmp_path / "target")]) == 0
    opt = write(
        tmp_path / "opt.ini",
        MODEL + DISC + "\n[init]\nmode = 1,1\namplitude = 0.2\n"
        "\n[cost]\nlambda = 1e-6\nK = 5.0\ntarget_path = target/state.traj\n"
        "\n[opt]\nmax_iter = 2\ntol = 1e-12\n",
    )
    out = tmp_path / "opt_out"
    assert main(["optimize", "--config", opt, "--out", str(out)]) == 0
    report = json.loads((out / "optimize_report.json").read_text())
    assert (report["iterations"], report["termination"]) == (2, "max_iter reached")
    assert len((out / "cost_history.csv").read_text().splitlines()) == 1 + 3
    assert len(report["line_search_trials"]) == 3 and report["line_search_trials"][-1] == 0
    control = load_trajectory(str(out / "control.traj"))
    basis = control.basis
    y0 = Field(np.eye(basis.n_modes)[0] * 0.2, basis)
    target = load_trajectory(str(tmp_path / "target" / "state.traj")).with_kind("target")
    params = validate_params(nu=1.0, alpha1=0.5, alpha2=-0.2, beta=0.4)
    cost, _ = eval_cost(control, y0, CostConfig(target, 1e-6, 5.0), params)
    assert report["final_cost"] == cost


def test_taylor_command(tmp_path):
    cfg = write(tmp_path / "c.ini", MODEL + DISC + "\n[taylor]\nrhos = 1e-1,1e-2,1e-3\n")
    out = str(tmp_path / "out")
    assert main(["taylor", "--config", cfg, "--out", out]) == 0
    data = json.loads(Path(out, "taylor.json").read_text())
    assert data["min_slope"] >= 0.9


def test_missing_key_exits_2(tmp_path, capsys):
    cfg = write(tmp_path / "c.ini", MODEL)  # no [disc]
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "disc.M" in capsys.readouterr().err


def test_inadmissible_model_exits_2(tmp_path):
    bad = MODEL.replace("alpha2 = -0.2", "alpha2 = 9.0")
    cfg = write(tmp_path / "c.ini", bad + DISC)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_bad_mode_exits_2(tmp_path):
    cfg = write(tmp_path / "c.ini", MODEL + DISC + "\n[init]\nmode = 9,9\namplitude = 0.1\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_missing_config_exits_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o")]) == 2


def test_solver_failure_exits_3(tmp_path):
    cfg = write(
        tmp_path / "c.ini",
        MODEL
        + "\n[disc]\nM = 3\ngrid = 12\ndt = 2.0\nT = 4.0\n"
        + "\n[init]\nmode = 1,1\namplitude = 60.0\n",
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_line_search_failure_exits_3(tmp_path):
    """At [opt] tol = 0 the optimizer runs into roundoff, where no Armijo step is left:
    LineSearchFailed, a solver failure."""
    basis, times = build_basis(1, 0.5), time_grid(0.25, 4)
    params = validate_params(nu=1.0, alpha1=0.5, alpha2=-0.2, beta=0.4)
    control = random_traj(basis, times, np.random.default_rng(0), amp=0.5)
    save_trajectory(str(tmp_path / "target.traj"), solve_state(Field([0.2], basis), control, params))
    cfg = write(
        tmp_path / "c.ini",
        MODEL + "\n[disc]\nM = 1\ndt = 0.0625\nT = 0.25\n"
        "\n[init]\nmode = 1,1\namplitude = 0.2\n"
        "\n[cost]\nlambda = 1e-2\nK = 10.0\ntarget_path = target.traj\n"
        "\n[opt]\nmax_iter = 100\ntol = 0\n",
    )
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_verify_cli_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "v1"), str(tmp_path / "v2")
    assert main(["verify", "--level", "fast", "--seed", "9", "--out", out1]) == 0
    assert main(["verify", "--level", "fast", "--seed", "9", "--out", out2]) == 0
    b1 = Path(out1, "verify_report.json").read_bytes()
    b2 = Path(out2, "verify_report.json").read_bytes()
    assert b1 == b2
    assert json.loads(b1)["all_passed"]


def test_dt_must_divide_horizon(tmp_path):
    cfg = write(tmp_path / "c.ini", MODEL + "\n[disc]\nM = 3\ngrid = 12\ndt = 0.3\nT = 0.5\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


BAD_VALUE_BASE = (
    MODEL
    + DISC
    + "\n[init]\nmode = 1,1\namplitude = 0.2\n"
    + "\n[cost]\nlambda = 1e-6\nK = 5.0\ntarget_path = target.traj\n"
    + "\n[opt]\nmax_iter = 5\ntol = 1e-7\n"
    + "\n[taylor]\nrhos = 1e-1,1e-2\n"
)


@pytest.mark.parametrize(
    "command, line, bad",
    [
        ("simulate", "dt = 0.015625", "dt = nan"),
        ("simulate", "T = 0.5", "T = inf"),
        ("simulate", "dt = 0.015625", "dt = 1e-300"),
        pytest.param(
            "simulate", "dt = 0.015625\nT = 0.5", "dt = 1e-300\nT = 1e300", id="dt-and-T-extreme"
        ),
        ("simulate", "grid = 12", "grid = -12"),
        pytest.param(  # 10^6 steps at M = 24: 5.8e8 coefficients per trajectory
            "simulate", "M = 3\ngrid = 12\ndt = 0.015625\nT = 0.5", "M = 24\ndt = 1e-6\nT = 1",
            id="step-count-above-bound",
        ),
        ("simulate", "amplitude = 0.2", "amplitude = nan"),
        ("simulate", "amplitude = 0.2", "amplitude = 0.2%"),
        ("simulate", "mode = 1,1", "mode = 1"),
        ("optimize", "lambda = 1e-6", "lambda = -1"),
        ("optimize", "K = 5.0", "K = 0"),
        ("optimize", "K = 5.0", "K = nan"),
        ("optimize", "max_iter = 5", "max_iter = 0"),
        ("optimize", "tol = 1e-7", "tol = -1"),
        ("taylor", "rhos = 1e-1,1e-2", "rhos = 1e-1,abc"),
        ("taylor", "rhos = 1e-1,1e-2", "rhos = 1e-1,-1e-2"),
        ("taylor", "rhos = 1e-1,1e-2", "rhos = 1e-2"),
        ("taylor", "rhos = 1e-1,1e-2", "rhos = 1e-1,1e-1"),
        ("taylor", "rhos = 1e-1,1e-2", "rhos = 1e-1,1e-2\namplitude = 0"),
        ("simulate", "grid = 12", "gird = 12"),
        ("simulate", "amplitude = 0.2", "amplitude = 0.2\nomgea = 4.0"),
        ("simulate", "[init]", "[contrl]"),
        ("optimize", "max_iter = 5", "max_iters = 5"),
        ("verify", "[init]", "[Init]"),
    ],
)
def test_bad_value_exits_2(tmp_path, command, line, bad):
    """Each value, and each section or key that no command reads, is rejected as a
    configuration error, never a traceback, a solver failure or a silent default."""
    assert BAD_VALUE_BASE.count(line) == 1
    times = time_grid(0.5, 32)
    basis = build_basis(3, 0.5, 12)
    target = Trajectory(times, np.zeros((times.size, basis.n_modes)), basis, "state")
    save_trajectory(str(tmp_path / "target.traj"), target)
    cfg = write(tmp_path / "c.ini", BAD_VALUE_BASE.replace(line, bad))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("source", ["config", "flag"])
@pytest.mark.parametrize("command", ["simulate", "optimize", "taylor", "verify"])
def test_negative_seed_exits_2(tmp_path, command, source):
    """numpy's generators take only non-negative seeds; a negative one is a config error."""
    times = time_grid(0.5, 32)
    basis = build_basis(3, 0.5, 12)
    target = Trajectory(times, np.zeros((times.size, basis.n_modes)), basis, "state")
    save_trajectory(str(tmp_path / "target.traj"), target)
    text = BAD_VALUE_BASE + ("\n[run]\nseed = -1\n" if source == "config" else "")
    argv = [command, "--config", write(tmp_path / "c.ini", text), "--out", str(tmp_path / "o")]
    assert main(argv + (["--seed", "-1"] if source == "flag" else [])) == 2


def _nan_target(path):
    times = time_grid(0.5, 32)
    basis = build_basis(3, 0.5, 12)
    coeffs = np.zeros((times.size, basis.n_modes))
    coeffs[5, 1] = np.nan
    save_trajectory(str(path), Trajectory(times, coeffs, basis, "state"))


def _setup_config_dir(tmp_path):
    tmp_path.joinpath("cfgdir").mkdir()
    return "simulate", str(tmp_path / "cfgdir"), str(tmp_path / "o")


def _setup_not_utf8(tmp_path):
    tmp_path.joinpath("c.ini").write_bytes((MODEL + DISC).encode() + b"# caf\xe9\n")
    return "simulate", str(tmp_path / "c.ini"), str(tmp_path / "o")


def _export(what, make_input):
    def setup(tmp_path):
        make_input(tmp_path / "input")
        cfg = write(tmp_path / "e.ini", f"[export]\ninput = input\nwhat = {what}\n")
        return "export-plot", cfg, str(tmp_path / "o")

    return setup


def _setup_target_dir(tmp_path):
    tmp_path.joinpath("target.traj").mkdir()
    return "optimize", write(tmp_path / "c.ini", BAD_VALUE_BASE), str(tmp_path / "o")


def _setup_target_of_16_steps(tmp_path):
    times = time_grid(0.5, 16)
    basis = build_basis(3, 0.5, 12)
    target = Trajectory(times, np.zeros((times.size, basis.n_modes)), basis, "state")
    save_trajectory(str(tmp_path / "target.traj"), target)
    return "optimize", write(tmp_path / "c.ini", BAD_VALUE_BASE), str(tmp_path / "o")


def _setup_nan_target(tmp_path):
    _nan_target(tmp_path / "target.traj")
    return "optimize", write(tmp_path / "c.ini", BAD_VALUE_BASE), str(tmp_path / "o")


def _out_under_file(below):
    def setup(tmp_path):
        tmp_path.joinpath("o").write_text("not a directory\n")
        return "simulate", write(tmp_path / "c.ini", MODEL + DISC), str(tmp_path / "o" / below)

    return setup


@pytest.mark.parametrize(
    "setup",
    [
        pytest.param(_setup_config_dir, id="config-is-directory"),
        pytest.param(_setup_not_utf8, id="config-not-utf8"),
        pytest.param(_export("norms", lambda p: None), id="export-norms-input-missing"),
        pytest.param(_export("optimizer", lambda p: None), id="export-optimizer-input-missing"),
        pytest.param(_export("optimizer", lambda p: p.write_text("{oops")), id="export-not-json"),
        pytest.param(_export("optimizer", lambda p: p.write_text("[1, 2]\n")), id="export-not-object"),
        pytest.param(_export("pictures", lambda p: p.write_text("{}\n")), id="export-unknown-what"),
        pytest.param(_setup_target_dir, id="target-is-directory"),
        pytest.param(_setup_target_of_16_steps, id="target-other-node-count"),
        pytest.param(_out_under_file(""), id="out-is-file"),
        pytest.param(_out_under_file("sub"), id="out-parent-is-file"),
        pytest.param(_setup_nan_target, id="optimize-nan-target"),
        pytest.param(_export("norms", _nan_target), id="export-norms-nan-input"),
    ],
)
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, setup):
    """Malformed files and paths are input errors: exit 2, one line, no traceback."""
    command, cfg, out = setup(tmp_path)
    assert main([command, "--config", cfg, "--out", out]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


@pytest.mark.parametrize(
    "target_grid, target_dt, disc_grid, what",
    [
        (12, 0.015625, MAX_GRID_SIZE + 1, "above the maximum"),
        (MAX_GRID_SIZE + 1, 0.015625, 12, "above the maximum"),
        (12, 1e-320, 12, "not a positive normal float"),
    ],
    ids=["disc-grid-above-cap", "target-grid-above-cap", "target-dt-subnormal"],
)
def test_grid_and_time_step_bounds_exit_2(
    tmp_path, capsys, target_grid, target_dt, disc_grid, what
):
    """A [disc] grid or a target header beyond the bounds is refused as such, before the
    target is compared with the disc section, and before anything is sized by it."""
    crafted_trajectory(tmp_path / "target.traj", 3, target_grid, 0.5, target_dt, n_steps=32)
    cfg = write(tmp_path / "c.ini", BAD_VALUE_BASE.replace("grid = 12", f"grid = {disc_grid}"))
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert what in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "optimize", "taylor", "export-plot"])
def test_command_without_config_exits_2(tmp_path, capsys, command):
    assert main([command, "--out", str(tmp_path / "o")]) == 2
    assert f"{command} requires --config" in capsys.readouterr().err


def test_export_optimizer_summary(tmp_path):
    """export-plot with what = optimizer writes a JSON object's items as sorted key,value
    rows: strings and floats as they are, every other value as its JSON text, quoted
    where it holds a comma or a quote."""
    tmp_path.joinpath("report.json").write_text(
        '{"iterations": 3, "converged": true, "cost": 0.1, "direction": ["gradient", ""]}\n'
    )
    cfg = write(tmp_path / "e.ini", "[export]\ninput = report.json\nwhat = optimizer\n")
    assert main(["export-plot", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    text = tmp_path.joinpath("o", "optimizer_summary.csv").read_text()
    assert text == (
        'key,value\nconverged,true\ncost,0.1\ndirection,"[""gradient"", """"]"\niterations,3\n'
    )


def read_csv(path):
    """The rows of a CSV file, each as wide as its header."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows and all(len(row) == len(rows[0]) for row in rows), path
    return rows


def test_every_csv_parses_to_its_header_width(tmp_path):
    """Each CSV the commands write parses with Python's csv to its header's width, and the
    optimizer export of a real optimize_report.json reads back to the report."""
    gen = write(tmp_path / "gen.ini", MODEL + DISC + "\n[control]\nmode = 1,2\namplitude = 0.5\n")
    assert main(["simulate", "--config", gen, "--out", str(tmp_path / "target")]) == 0
    opt = write(
        tmp_path / "opt.ini",
        MODEL + DISC + "\n[init]\nmode = 1,1\namplitude = 0.2\n"
        "\n[cost]\nlambda = 1e-6\nK = 5.0\ntarget_path = target/state.traj\n"
        "\n[opt]\nmax_iter = 2\ntol = 1e-12\n",
    )
    assert main(["optimize", "--config", opt, "--out", str(tmp_path / "opt")]) == 0
    taylor = write(tmp_path / "t.ini", MODEL + DISC + "\n[taylor]\nrhos = 1e-1,1e-2\n")
    assert main(["taylor", "--config", taylor, "--out", str(tmp_path / "taylor")]) == 0
    for what, source in (("norms", "target/state.traj"), ("optimizer", "opt/optimize_report.json")):
        cfg = write(tmp_path / f"{what}.ini", f"[export]\ninput = {source}\nwhat = {what}\n")
        assert main(["export-plot", "--config", cfg, "--out", str(tmp_path / what)]) == 0
    for path in ("target/norms.csv", "opt/cost_history.csv", "taylor/taylor.csv"):
        read_csv(tmp_path / path)
    assert read_csv(tmp_path / "norms" / "norms.csv") == read_csv(tmp_path / "target" / "norms.csv")
    report = json.loads((tmp_path / "opt" / "optimize_report.json").read_text())
    rows = read_csv(tmp_path / "optimizer" / "optimizer_summary.csv")
    assert rows[0] == ["key", "value"] and [key for key, _ in rows[1:]] == sorted(report)
    for key, cell in rows[1:]:
        assert (cell if isinstance(report[key], str) else json.loads(cell)) == report[key], key


def test_every_error_class_has_one_exit_code_base():
    """The class tree alone decides the exit code of each package error."""
    bases = (errors.InvalidInput, errors.SolverFailure)
    classes = [
        cls
        for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.TgflowError)
    ]
    leaves = [cls for cls in classes if cls not in (errors.TgflowError, *bases)]
    assert leaves
    for cls in leaves:
        assert sum(issubclass(cls, base) for base in bases) == 1, cls.__name__
