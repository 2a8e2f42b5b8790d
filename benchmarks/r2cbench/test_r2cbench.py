"""Tests for the r2cbench runner: one op per workload, traced and not.

Run with ``PYTHONPATH=src python -m pytest benchmarks/r2cbench -q``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

import pytest

from benchmarks.r2cbench import reference
from benchmarks.r2cbench.compare import compare, verdict
from benchmarks.r2cbench.layers import (
    HIGHER_IS_BETTER,
    LAYER_METRICS,
    LAYERS,
    SpanTable,
    Tracer,
    installed,
    layer_metrics,
    unit_of,
)
from benchmarks.r2cbench.runner import E2E_UNITS, import_seconds
from benchmarks.r2cbench.workloads import WORKLOADS, make_workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: The op each workload test runs, and the span edges its traced run must
#: produce (parent name -> child name; ``op`` is the root).
CASES = {
    "spec-sweep": (
        "mcf/baseline",
        {("op", "engine.run"), ("engine.run", "compile"), ("engine.run", "load"),
         ("engine.run", "prepare"), ("engine.run", "execute")},
    ),
    "spec-steady": (
        "xz",
        {("op", "load"), ("op", "prepare"), ("op", "execute")},
    ),
    "attack-matrix": (
        "r2c-mvee/mined-rop",
        {("op", "attack.session"), ("attack.session", "compile"),
         ("attack.session", "load"), ("attack.session", "prepare"),
         ("attack.session", "step"), ("step", "census")},
    ),
    "mvee-lockstep": (
        "group0",
        {("op", "compile"), ("op", "load"), ("op", "clone"), ("op", "lockstep.run"),
         ("lockstep.run", "prepare"), ("lockstep.run", "step")},
    ),
}


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _op(workload, label):
    return next(op for op in workload.ops(0) if op.label == label)


@pytest.fixture(scope="module", params=sorted(CASES))
def traced_op(request):
    """One op run untraced, then the same op (same seeds) traced."""
    name = request.param
    label, _ = CASES[name]
    workload = make_workload(name, seed=0)
    workload.oracle()
    workload.setup(0)
    untraced = _op(workload, label).run()
    if name == "spec-sweep":
        # The engine would serve the repeat from its run cache.
        from repro.eval.engine import ExperimentEngine

        workload.engine = ExperimentEngine(jobs=1, backend="jit")
    tracer = Tracer()
    with installed(tracer):
        workload.tracer = tracer
        op = _op(workload, label)
        root = tracer.begin("op")
        traced = op.run()
        tracer.end(root)
        if workload.warms:
            with tracer.span("warm"):
                workload.warm(op)
    return name, untraced, traced, tracer


def test_traced_and_untraced_results_are_identical(traced_op):
    name, untraced, traced, _ = traced_op
    assert untraced.ok and traced.ok, (untraced.detail, traced.detail)
    assert (traced.instructions, traced.cycles, traced.outcome) == (
        untraced.instructions,
        untraced.cycles,
        untraced.outcome,
    )
    if name != "attack-matrix":
        assert untraced.instructions > 0


def test_span_tree_names_are_pinned(traced_op):
    name, _, _, tracer = traced_op
    spans = tracer.spans
    roots = SpanTable(spans).roots
    edges = {
        (spans[span.parent].name, span.name)
        for index, span in enumerate(spans)
        if span.parent is not None and spans[roots[index]].name == "op"
    }
    assert edges == CASES[name][1]


def test_self_times_account_for_op_wall(traced_op):
    _, _, _, tracer = traced_op
    (account,) = SpanTable(tracer.spans).ops()
    assert sum(account["self_s"].values()) == pytest.approx(account["wall_s"], rel=1e-9)
    assert account["layers_s"] >= 0.95 * account["wall_s"]


def test_layer_metrics_from_a_traced_op(traced_op):
    name, _, traced, tracer = traced_op
    metrics = layer_metrics(tracer, {}, build_s=0.0)
    assert list(metrics)[: len(LAYER_METRICS)] == list(LAYER_METRICS)
    assert sum(value for key, value in metrics.items() if key.endswith(".self_pct")) == (
        pytest.approx(100.0)
    )
    # A time that reads 0 on some workload would read the same on every
    # run; BENCHMARK.json lists only times every workload moves.
    for key in LAYER_METRICS:
        if unit_of(key) in ("s", "ms", "ns"):
            assert metrics[key] > 0, key
    if name != "attack-matrix":
        assert metrics["sim.instructions"] == traced.instructions
    if name == "spec-steady":
        assert metrics["execute.warm_s"] > 0
        assert metrics["execute.lower_est_s"] == pytest.approx(
            metrics["execute.cold_s"] - metrics["execute.warm_s"]
        )
    if name == "mvee-lockstep":
        assert metrics["clone.calls"] == 3 and metrics["lockstep.sync_points"] > 0


def test_wrappers_are_removed_after_tracing():
    import repro.eval.engine as engine
    from repro.core.compiler import compile_module
    from repro.machine.backends import get_backend
    from repro.machine.process import Process

    original_clone = Process.clone
    with installed(Tracer()):
        assert engine.compile_module is not compile_module
    assert engine.compile_module is compile_module
    assert Process.clone is original_clone
    assert not {"prepare", "execute", "step"} & set(vars(get_backend("jit")))


def test_import_probe_times_a_fresh_interpreter():
    seconds, factor = import_seconds()
    assert 0.0 < seconds < 60.0 and 0.0 < factor < 100.0


def test_host_clock_samples_during_a_block_and_restores_the_timer():
    clock = reference.HostClock()
    handler = signal.getsignal(signal.SIGALRM)
    clock.sample()
    started = time.perf_counter()
    with clock.running():
        while time.perf_counter() - started < 3.5 * reference.INTERVAL_S:
            pass
    ended = time.perf_counter()
    assert len(clock.seconds) >= 3 and clock.stolen > 0
    assert clock.starts == sorted(clock.starts)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert clock.factor(started, ended) == pytest.approx(
        statistics.median(clock.seconds) / reference.NOMINAL_S
    )


def test_benchmark_json_matches_the_runner():
    benchmark = _benchmark()
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert benchmark["paths"] == ["benchmarks/r2cbench"]
    assert 1 <= benchmark["run_seconds"] <= 60
    workloads, e2e, layers = (
        benchmark["workloads"], benchmark["end_to_end"], benchmark["per_layer"]
    )
    assert 2 <= len(workloads) <= 8 and 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    names = [entry["name"] for entry in workloads + e2e + layers]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert [entry["name"] for entry in workloads] == list(WORKLOADS)
    assert {entry["name"]: entry["unit"] for entry in e2e} == E2E_UNITS
    assert all(entry["bound"] <= 0.25 for entry in e2e)
    bounds = {entry["name"]: entry["bound"] for entry in e2e}
    assert bounds["setup_s"] == max(bounds.values())
    assert [entry["name"] for entry in layers] == list(LAYER_METRICS)
    assert all(entry["unit"] == unit_of(entry["name"]) for entry in layers)
    assert all(
        entry["better"] == ("higher" if entry["name"] in HIGHER_IS_BETTER else "lower")
        for entry in layers
    )
    assert all(entry["better"] in ("higher", "lower") for entry in e2e)


def test_every_layer_metric_maps_to_an_end_to_end_metric():
    benchmark = _benchmark()
    workloads = {entry["name"] for entry in benchmark["workloads"]}
    e2e = {entry["name"] for entry in benchmark["end_to_end"]}
    for layer in LAYERS:
        assert layer.moves, layer.module
        for workload, metric in layer.moves:
            assert workload in workloads and metric in e2e, (layer.module, workload, metric)


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(base, [104.0] * 5, "lower", 0.05) == "within bound"
    assert verdict(base, [110.0] * 5, "lower", 0.05) == "worse"
    assert verdict(base, [90.0] * 5, "higher", 0.05) == "worse"
    noisy = [80.0, 120.0, 100.0, 90.0, 110.0]
    assert verdict(noisy, [105.0] * 5, "lower", 0.05) == "unresolved"
    assert verdict(noisy, [70.0] * 5, "lower", 0.05) == "better (every run)"


def _report(seed, blocks, rate):
    metrics = {name: {"value": rate, "unit": unit} for name, unit in E2E_UNITS.items()}
    return {
        "workload": "spec-steady", "seed": seed, "seconds": 20.0, "trace": False,
        "e2e": metrics, "raw": metrics, "extra": {},
        "layers": {"jit.blocks_compiled": blocks, "gc.collections": blocks, "op.s": rate},
    }


def test_compare_requires_identical_counts_for_identical_inputs():
    benchmark = _benchmark()
    same = [_report(0, 10, 1.0), _report(1, 12, 1.01)]
    lines, failed = compare(same, [_report(0, 10, 0.99), _report(1, 12, 1.0)], benchmark)
    assert not failed, lines
    lines, failed = compare(same, [_report(0, 11, 1.0), _report(1, 12, 1.0)], benchmark)
    assert failed and any("DIFFERS" in line and "seed=0" in line for line in lines)


def test_compare_fails_on_an_unresolved_metric():
    base = [_report(seed, 10, rate) for seed, rate in enumerate((0.5, 1.0, 1.5, 2.0, 2.5))]
    lines, failed = compare(base, [_report(0, 10, 1.5)], _benchmark())
    assert failed and any("unresolved" in line for line in lines)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "r2cbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    command = _benchmark()["command"]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable] + command[1:] + ["--workload", "spec-sweep", "--seed", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
