"""tgflow benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload optimize_m4 --seed 0 --seconds 40 --trace 0

Run from a checkout of the repository; tgflow is imported from its ``src``.
Workloads and metric names are listed in ``BENCHMARK.json``; perfbench/README.md
says why each exists and which end-to-end metric each layer metric moves.

A run imports tgflow, builds the workload's inputs several times, runs one
untimed warm-up pass, then runs untraced passes for ``--seconds``.  Every
pass is checked, and a pass that raises a tgflow error or fails a check
counts as failed.  With ``--trace 0`` the last stdout line
carries the end-to-end metrics; with ``--trace 1`` it carries the per-layer
table of one traced set-up and pass, plus a sweep of per-call costs over M.
Exits 2 without a result line when the checkout holds no tgflow source.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import pkgutil
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("optimize_m4", "verify_fast")
HELD_OUT_SEED = 7919  # later performance claims must also hold on this seed
SETUP_REPEATS = 7
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The checkout cannot be benchmarked."""


def import_tgflow(root: Path) -> None:
    """Import every tgflow module from ``root/src``."""
    package = root / "src" / "tgflow"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no tgflow package at {package}")
    sys.path.insert(0, str(root / "src"))
    import tgflow

    if Path(tgflow.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported tgflow from {tgflow.__file__}, not from {package}")
    for mod in pkgutil.iter_modules(tgflow.__path__):
        importlib.import_module(f"tgflow.{mod.name}")


# The imports of import_tgflow, timed in a fresh interpreter given the src path.
_IMPORT_PROBE = """
import importlib, pkgutil, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import tgflow
for mod in pkgutil.iter_modules(tgflow.__path__):
    importlib.import_module("tgflow." + mod.name)
print(time.perf_counter() - start)
"""


def import_seconds(root: Path) -> float:
    """Median time to import every tgflow module in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(root / "src")],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def provenance(workload: str, seed: int) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as handle:
            models = [line.split(":", 1)[1] for line in handle if line.startswith("model name")]
        cpu = models[0].strip() if models else cpu
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(ROOT),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def git_revision(root: Path) -> str | None:
    """HEAD commit read from ``.git``; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


@dataclass
class Record:
    """Pass outcomes of one run."""

    attempted: int = 0
    problems: list = field(default_factory=list)
    fingerprint: str | None = None

    @property
    def failed(self) -> int:
        return len(self.problems)


def run_pass(wl, inputs, record: Record, tracer=None) -> float | None:
    """Run, time and check one pass; return its wall time, or None if it failed.

    Without a tracer the pass must run tgflow's own functions, unwrapped.
    """
    from tgflow.errors import TgflowError

    if tracer is None:
        tracing.assert_unwrapped()
    record.attempted += 1
    try:
        with tracer if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            output = wl.run(inputs)
            wall = time.perf_counter() - start
    except TgflowError as exc:
        record.problems.append(f"pass {record.attempted}: {type(exc).__name__}: {exc}")
        return None
    problems, fingerprint = wl.check(inputs, output)
    if record.fingerprint is None:
        record.fingerprint = fingerprint
    elif fingerprint != record.fingerprint:
        problems.append("outputs differ from the first pass of this seed")
    if problems:
        record.problems.append(f"pass {record.attempted}: " + "; ".join(problems))
        return None
    return wall


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir):
    """Run one workload; return (metrics, record, walls)."""
    import layers
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    record = Record()
    setup_times, inputs = [], None
    for _ in range(SETUP_REPEATS):
        inputs = None  # never hold two sets of bases at once
        start = time.perf_counter()
        inputs = wl.setup(seed, workdir)
        setup_times.append(time.perf_counter() - start)

    run_pass(wl, inputs, record)  # warm-up: fills caches, not timed

    walls = []
    start = time.perf_counter()
    while True:
        wall = run_pass(wl, inputs, record)
        if wall is not None:
            walls.append(wall)
        if time.perf_counter() - start >= seconds:
            break
    wall_s = statistics.median(walls) if walls else 0.0

    if not trace:
        metrics = {
            "setup_s": import_seconds(ROOT) + statistics.median(setup_times),
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return metrics, record, walls

    tracer = tracing.Tracer(layers.TARGETS)
    inputs = None
    with tracer:
        inputs = wl.setup(seed, workdir)
    traced = run_pass(wl, inputs, record, tracer)
    if tracer.missing:
        print(f"perfbench: not traced, absent from tgflow: {tracer.missing}", file=sys.stderr)
    metrics = layers.layer_table(tracer)
    metrics["trace.overhead_s"] = traced - wall_s if traced is not None and walls else 0.0
    inputs = None
    metrics.update(layers.spectral_sweep(seed))
    return metrics, record, walls


def result_line(spec: dict, trace: bool, metrics: dict, record: Record) -> str:
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in wanted}
    if names != set(metrics):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: not listed {sorted(set(metrics) - names)}, "
            f"not measured {sorted(names - set(metrics))}"
        )
    out = {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in wanted}
    return json.dumps(
        {
            "correct": record.failed == 0,
            "attempted": record.attempted,
            "failed": record.failed,
            "metrics": out,
        }
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        import_tgflow(ROOT)
    except (OSError, ValueError, BenchError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from tgflow import spectral

    if hasattr(spectral, "set_fft_workers"):
        spectral.set_fft_workers(1)
    print(json.dumps({"provenance": provenance(args.workload, args.seed)}), flush=True)

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        metrics, record, walls = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only if no other run is using it

    if walls:
        q = statistics.quantiles(walls, n=4) if len(walls) > 1 else [walls[0]] * 3
        print(
            f"perfbench {args.workload}: {len(walls)} timed passes, wall_s median {q[1]:.4f} "
            f"(quartiles {q[0]:.4f}, {q[2]:.4f}); passes " + " ".join(f"{w:.4f}" for w in walls),
            file=sys.stderr,
        )
    for problem in record.problems:
        print(f"perfbench: failed {problem}", file=sys.stderr)
    print(result_line(spec, bool(args.trace), metrics, record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
