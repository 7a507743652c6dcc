"""Batch front door: config parsing and the simulate / optimize / verify /
taylor / export-plot pipelines.

Configuration is flat key = value text with sections, read by configparser:

    [model]   nu, alpha1, alpha2, beta
    [disc]    M, grid (optional), dt, T
    [cost]    lambda, K, target_path          (optimize)
    [opt]     max_iter, tol                   (optimize)
    [run]     seed (optional; the --seed flag overrides)
    [init]    mode = "m,n", amplitude         (optional initial state)
    [control] mode, amplitude, omega          (optional forcing for simulate)
    [taylor]  amplitude, rhos                 (optional)
    [export]  input, what = norms | optimizer (export-plot)

A section or key that no command reads is rejected, so a misspelled one
cannot silently fall back to a default.  Exit codes follow the error classes:
0 success, 2 for any InvalidInput (a bad configuration, file or argument), 3
for any SolverFailure.  Paths in the config are relative to its directory.
All outputs are written atomically into the --out directory.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .control import CostConfig, OptimizeOptions, optimize
from .errors import ConfigInvalid, GridMismatch, InvalidInput, SolverFailure
from .linearized import gateaux_taylor_test
from .params import validate_params
from .spectral import Field, build_basis
from .state import energy_report, solve_state
from .storage import (
    atomic_write_json,
    atomic_write_text,
    cost_history_csv,
    csv_text,
    load_trajectory,
    norms_csv,
    save_trajectory,
)
from .trajectory import Trajectory, random_field, random_traj, time_grid
from .verify import LEVELS, run_suite

MAX_TRAJECTORY_COEFFS = 2 ** 26  # (N + 1) M^2 coefficients: 512 MB per trajectory array

# the keys some command reads, by section, as in the table above; configparser
# lowercases keys, so M and T are read as m and t
_KEYS = {
    "model": ("nu", "alpha1", "alpha2", "beta"),
    "disc": ("m", "grid", "dt", "t"),
    "cost": ("lambda", "k", "target_path"),
    "opt": ("max_iter", "tol"),
    "run": ("seed",),
    "init": ("mode", "amplitude"),
    "control": ("mode", "amplitude", "omega"),
    "taylor": ("amplitude", "rhos"),
    "export": ("input", "what"),
}


def _existing_file(path: str, name: str) -> str:
    if not os.path.isfile(path):
        raise ConfigInvalid(f"{name} {path} is not an existing regular file")
    return path


class _Config:
    """configparser wrapper reporting missing and unknown keys by dotted path.

    The file is read once: the parsed text and the recorded sha256 come from
    the same bytes.
    """

    def __init__(self, path: str):
        with open(_existing_file(path, "config file"), "rb") as handle:
            data = handle.read()
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
        try:
            parser.read_string(data.decode("utf-8"), source=path)
        except (UnicodeDecodeError, configparser.Error) as exc:
            raise ConfigInvalid(f"config file {path} does not parse: {exc}") from exc
        known = [s for s in parser.sections() if s in _KEYS]
        unknown = [f"[{s}]" for s in parser.sections() if s not in _KEYS] + [
            f"{s}.{key}" for s in known for key in parser.options(s) if key not in _KEYS[s]
        ]
        if unknown:
            raise ConfigInvalid(f"config file {path}: no command reads {', '.join(unknown)}")
        self.parser = parser
        self.sha256 = hashlib.sha256(data).hexdigest()
        self.directory = os.path.dirname(os.path.abspath(path))

    def path(self, section: str, key: str) -> str:
        """section.key as an existing file, relative to the config's directory."""
        raw = self.get(section, key, str)
        return _existing_file(os.path.join(self.directory, raw), f"{section}.{key}")

    def has(self, section: str, key: str) -> bool:
        return self.parser.has_option(section, key)

    def get(self, section: str, key: str, kind=float, default=None):
        """section.key parsed as kind (float, int or str), or default when absent.

        A key without a default is required.
        """
        if not self.has(section, key):
            if default is not None:
                return default
            raise ConfigInvalid(f"missing required key {section}.{key}")
        return _parse(f"{section}.{key}", self.parser.get(section, key), kind)


def _parse(name: str, raw: str, kind):
    """raw as kind (float, int or str); a float must be finite."""
    if kind is str:
        return raw
    try:
        value = kind(raw)
    except ValueError as exc:
        noun = "a number" if kind is float else "an integer"
        raise ConfigInvalid(f"{name} = {raw!r} is not {noun}") from exc
    if not math.isfinite(value):
        raise ConfigInvalid(f"{name} = {raw!r} is not finite")
    return value


def _model(cfg: _Config):
    return validate_params(
        cfg.get("model", "nu"),
        cfg.get("model", "alpha1"),
        cfg.get("model", "alpha2"),
        cfg.get("model", "beta"),
    )


def _disc(cfg: _Config, params):
    max_mode = cfg.get("disc", "M", int)
    grid = cfg.get("disc", "grid", int) if cfg.has("disc", "grid") else None
    dt = cfg.get("disc", "dt")
    horizon = cfg.get("disc", "T")
    if dt <= 0 or horizon <= 0 or not math.isfinite(horizon / dt):
        raise ConfigInvalid("disc.dt and disc.T must be positive with a finite ratio")
    ratio = horizon / dt
    n_steps = round(ratio)
    if n_steps < 1 or abs(ratio - n_steps) > 1e-9 * max(1.0, ratio):
        raise ConfigInvalid(f"disc.dt = {dt} does not divide disc.T = {horizon}")
    if (n_steps + 1) * max_mode ** 2 > MAX_TRAJECTORY_COEFFS:  # before anything is allocated
        raise ConfigInvalid(
            f"disc: {n_steps + 1} nodes x {max_mode ** 2} modes is above the bound of "
            f"{MAX_TRAJECTORY_COEFFS} coefficients per trajectory"
        )
    try:
        times = time_grid(horizon, n_steps)
        basis = build_basis(max_mode, params.alpha1, grid)
    except (ValueError, MemoryError) as exc:
        raise ConfigInvalid(f"disc ({n_steps} steps): {exc}") from exc
    return basis, times


def _parse_mode(cfg: _Config, section: str, basis) -> int:
    raw = cfg.get(section, "mode", str)
    try:
        m, n = (int(p) for p in raw.split(","))
    except ValueError as exc:
        raise ConfigInvalid(f"{section}.mode = {raw!r}, expected 'm,n'") from exc
    hits = np.nonzero((basis.modes[:, 0] == m) & (basis.modes[:, 1] == n))[0]
    if hits.size == 0:
        raise ConfigInvalid(f"{section}.mode = {raw!r} is outside the basis (M={basis.max_mode})")
    return int(hits[0])


def _initial_state(cfg: _Config, basis) -> Field:
    coeffs = np.zeros(basis.n_modes)
    if cfg.has("init", "mode"):
        idx = _parse_mode(cfg, "init", basis)
        coeffs[idx] = cfg.get("init", "amplitude", default=0.1)
    return Field(coeffs, basis)


def _control(cfg: _Config, basis, times) -> Trajectory:
    coeffs = np.zeros((times.size, basis.n_modes))
    if cfg.has("control", "mode"):
        idx = _parse_mode(cfg, "control", basis)
        amp = cfg.get("control", "amplitude", default=0.1)
        omega = cfg.get("control", "omega", default=0.0)
        coeffs[:, idx] = amp * (1.0 + 0.5 * np.sin(omega * times))
    return Trajectory(times, coeffs, basis, "control")


def _seed(cfg: _Config | None, args) -> int:
    """--seed, else [run] seed, else 0; numpy generators need it non-negative."""
    seed = args.seed
    if seed is None:
        seed = cfg.get("run", "seed", int, default=0) if cfg else 0
    if seed < 0:
        raise ConfigInvalid(f"seed = {seed} must be non-negative")
    return seed


# -- commands ------------------------------------------------------------------


def _cmd_simulate(cfg: _Config, args) -> int:
    seed = _seed(cfg, args)
    params = _model(cfg)
    basis, times = _disc(cfg, params)
    y0 = _initial_state(cfg, basis)
    control = _control(cfg, basis, times)
    traj = solve_state(y0, control, params)
    report = energy_report(traj, params)
    save_trajectory(
        os.path.join(args.out, "state.traj"), traj, config_hash=cfg.sha256, seed=seed
    )
    atomic_write_text(os.path.join(args.out, "norms.csv"), norms_csv(traj))
    summary = {
        "command": "simulate",
        "gamma_sup_h3": report.gamma,
        "final_h1": report.h1[-1],
        "dissipation_total": report.dissipation[-1],
        "code_version": __version__,
    }
    atomic_write_json(os.path.join(args.out, "simulate_summary.json"), summary)
    return 0


def _cmd_optimize(cfg: _Config, args) -> int:
    seed = _seed(cfg, args)
    params = _model(cfg)
    basis, times = _disc(cfg, params)
    y0 = _initial_state(cfg, basis)
    lam = cfg.get("cost", "lambda")
    radius = cfg.get("cost", "K")
    y_d = load_trajectory(cfg.path("cost", "target_path")).with_kind("target")
    if not y_d.basis.compatible(basis) or y_d.times.size != times.size:
        raise GridMismatch("target trajectory does not match the disc section")
    try:
        cost_cfg = CostConfig(y_d=y_d, lam=lam, radius=radius)
    except ValueError as exc:
        raise ConfigInvalid(f"cost: {exc}") from exc
    try:
        opts = OptimizeOptions(max_iter=cfg.get("opt", "max_iter", int), tol=cfg.get("opt", "tol"))
    except ValueError as exc:
        raise ConfigInvalid(f"opt: {exc}") from exc
    u0 = Trajectory(times, np.zeros((times.size, basis.n_modes)), basis, "control")
    u_star, report = optimize(u0, y0, cost_cfg, params, opts, np.random.default_rng(seed))
    save_trajectory(
        os.path.join(args.out, "control.traj"), u_star, config_hash=cfg.sha256, seed=seed
    )
    atomic_write_text(os.path.join(args.out, "cost_history.csv"), cost_history_csv(report))
    out = {
        "command": "optimize",
        "initial_cost": report.cost[0],
        "final_cost": report.cost[-1],
        "iterations": report.n_iter,
        "converged": report.converged,
        "termination": report.termination,
        "line_search_trials": report.line_search_trials,
        "direction": report.direction,
        "state_solves": report.state_solves,
        "adjoint_solves": report.adjoint_solves,
        "vi_residual_min": min(report.vi_residuals),
        "seed": seed,
        "code_version": __version__,
    }
    atomic_write_json(os.path.join(args.out, "optimize_report.json"), out)
    return 0


def _cmd_verify(cfg: _Config | None, args) -> int:
    report = run_suite(args.level, seed=_seed(cfg, args))
    atomic_write_json(os.path.join(args.out, "verify_report.json"), report)
    print(
        f"verify {args.level}: "
        + ("all checks passed" if report["all_passed"] else "CHECK FAILURES"),
        file=sys.stderr,
    )
    return 0


def _cmd_taylor(cfg: _Config, args) -> int:
    params = _model(cfg)
    basis, times = _disc(cfg, params)
    seed = _seed(cfg, args)
    rng = np.random.default_rng(seed)
    amp = cfg.get("taylor", "amplitude", default=0.3)
    if amp <= 0:
        raise ConfigInvalid(f"taylor.amplitude = {amp} must be positive")
    rhos = cfg.get("taylor", "rhos", str, default="1e-1,1e-2,1e-3,1e-4")
    rhos = [_parse("taylor.rhos", p, float) for p in rhos.split(",")]
    y0 = random_field(basis, rng, amp=amp)
    control = random_traj(basis, times, rng, amp=amp)
    psi = random_traj(basis, times, rng, amp=amp)
    try:
        result = gateaux_taylor_test(control, psi, y0, rhos, params)
    except ValueError as exc:
        raise ConfigInvalid(f"taylor.rhos: {exc}") from exc
    out = {
        "command": "taylor",
        "rhos": list(result.rhos),
        "remainders": list(result.remainders),
        "slopes": list(result.slopes),
        "min_slope": float(np.min(result.slopes)),
        "seed": seed,
        "code_version": __version__,
    }
    atomic_write_json(os.path.join(args.out, "taylor.json"), out)
    rows = zip(result.rhos, result.remainders)
    atomic_write_text(os.path.join(args.out, "taylor.csv"), csv_text(["rho", "remainder"], rows))
    return 0


def _cmd_export_plot(cfg: _Config, args) -> int:
    what = cfg.get("export", "what", str, default="norms")
    if what not in ("norms", "optimizer"):
        raise ConfigInvalid(f"export.what = {what!r}, expected 'norms' or 'optimizer'")
    path = cfg.path("export", "input")
    if what == "norms":
        atomic_write_text(os.path.join(args.out, "norms.csv"), norms_csv(load_trajectory(path)))
    else:
        with open(path, "rb") as handle:
            try:
                data = json.load(handle)
            except ValueError as exc:
                raise ConfigInvalid(f"export.input {path} is not JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigInvalid(f"export.input {path} is not a JSON object")
        # strings and floats as they are, every other value as its JSON text
        rows = [(k, v if isinstance(v, (str, float)) else json.dumps(v)) for k, v in data.items()]
        text = csv_text(["key", "value"], sorted(rows))
        atomic_write_text(os.path.join(args.out, "optimizer_summary.csv"), text)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "optimize": _cmd_optimize,
    "verify": _cmd_verify,
    "taylor": _cmd_taylor,
    "export-plot": _cmd_export_plot,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tgflow",
        description="Spectral solver and verification suite for third grade fluid tracking control",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="path to the run configuration file")
    parser.add_argument("--out", required=True, help="output directory (caller-owned)")
    parser.add_argument("--seed", type=int, default=None, help="override the configured seed")
    parser.add_argument("--level", choices=LEVELS, default="fast", help="verify suite level")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        existing = os.path.abspath(args.out)
        while not os.path.exists(existing):  # the writes create the missing rest
            existing = os.path.dirname(existing)
        if not os.path.isdir(existing):
            raise ConfigInvalid(f"--out {args.out}: {existing} is not a directory")
        if args.command == "verify":
            cfg = _Config(args.config) if args.config else None
        else:
            if not args.config:
                raise ConfigInvalid(f"{args.command} requires --config")
            cfg = _Config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
