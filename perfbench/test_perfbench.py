"""Tests of the benchmark itself: python -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# Metrics a later change may cite as counts: they must repeat exactly.
COUNT_SUFFIXES = (
    ".calls",
    "_per_step",
    "line_search_trials_per_iter",
    "accept_ratio",
    "verify.solves",
    "bytes_written",
    "basis_bytes",
)


@pytest.fixture(scope="module", autouse=True)
def tgflow_from_checkout():
    run.import_tgflow(run.ROOT)


def _bindings():
    """Identity of every function and SpectralBasis attribute bound in tgflow."""
    import tracing
    from tgflow.spectral import SpectralBasis

    out = {}
    for module in tracing.tgflow_modules():
        for attr, value in vars(module).items():
            if callable(value):
                out[(module.__name__, attr)] = id(value)
    for attr, value in vars(SpectralBasis).items():
        out[("SpectralBasis", attr)] = id(value)
    return out


def _traced(wl, seed, workdir):
    import layers
    import tracing

    tracer = tracing.Tracer(layers.TARGETS)
    with tracer:
        inputs = wl.setup(seed, workdir)
    record = run.Record()
    assert run.run_pass(wl, inputs, record, tracer) is not None, record.problems
    return tracer, inputs, record


def test_untraced_passes_run_unwrapped(tmp_path):
    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS["optimize_m4"]
    before = _bindings()
    tracer, inputs, record = _traced(wl, 1, tmp_path)
    assert tracer.spans["cli.main"].calls == 2
    assert tracer.spans["spectral.to_grid"].calls > 0
    assert _bindings() == before
    assert tracing.wrapped_names() == []

    seen = {name: s.calls for name, s in tracer.spans.items()}
    assert run.run_pass(wl, inputs, record) is not None, record.problems
    assert {name: s.calls for name, s in tracer.spans.items()} == seen
    assert record.failed == 0

    with tracer:
        assert tracing.wrapped_names()
        with pytest.raises(RuntimeError, match="wrappers still installed"):
            run.run_pass(wl, inputs, record)
    assert tracing.wrapped_names() == []


def test_trace_covers_every_namespace():
    import layers
    import tracing
    from tgflow import adjoint, linearized, spectral, state, verify

    with tracing.Tracer(layers.TARGETS):
        for module in (spectral, state, linearized, adjoint, verify):
            assert hasattr(module.to_grid, "__perfbench_original__"), module.__name__
    for module in (spectral, state, linearized, adjoint, verify):
        assert not hasattr(module.to_grid, "__perfbench_original__")


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_counts_repeat(name, tmp_path):
    import layers
    from workloads import WORKLOADS

    tables = []
    for _ in range(2):
        tracer, _, record = _traced(WORKLOADS[name], 5, tmp_path)
        assert record.failed == 0
        tables.append(layers.layer_table(tracer))
    counts = [{k: v for k, v in t.items() if k.endswith(COUNT_SUFFIXES)} for t in tables]
    assert counts[0] == counts[1]
    assert counts[0]["spectral.to_grid.calls"] > 0
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(tables[0]) < per_layer


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_benchmark_json(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "optimize_m4", "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }


def test_checkout_without_source_fails(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "optimize_m4", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
