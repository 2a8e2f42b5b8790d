"""Tests for the observability layer: tracing, counters, profiler.

The wall has three bricks:

* **Golden traces** — the span tree for one engine-mediated compile+run
  is pinned name-for-name (names, parentage, ordering; never durations).
* **Round-trips** — the trace JSON artifact loads back, and unknown keys
  are dropped, matching ``RunRecord.from_json``'s forward-compatibility
  semantics.
* **Passivity** — attaching a profiler or enabling tracing never changes
  ``ExecutionResult``, faults, or the final ``rip`` (hypothesis swept).
"""

import dataclasses
import json
import math
import re
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.core.compiler import compile_module
from repro.core.config import R2CConfig
from repro.errors import BoobyTrapTriggered
from repro.eval.engine import ExperimentEngine, RunRequest
from repro.machine.backends import run
from repro.machine.costs import get_costs
from repro.machine.isa import Imm, Instruction, Op, Reg
from repro.machine.loader import load_binary
from repro.machine.state import UNTAGGED_TAG, MachineState
from repro.obs.profiler import UNKNOWN_FUNCTION, CycleProfiler
from repro.obs.tracing import (
    Span,
    TraceCollector,
    enable_tracing,
    get_collector,
    recent_span_names,
    span,
    span_tree,
    trace_capture,
    tracing_enabled,
)
from repro.toolchain.builder import IRBuilder
from repro.workloads.spec import build_spec_benchmark

from tests.test_backends import BACKENDS, assemble

I = Instruction


@contextmanager
def traced():
    """Enable tracing on a clean collector; restore the previous state."""
    previous = enable_tracing(True)
    get_collector().clear()
    try:
        yield get_collector()
    finally:
        enable_tracing(previous)
        get_collector().clear()


def small_module(name="obs-small"):
    ir = IRBuilder(name)
    leaf = ir.function("leaf", params=["x"])
    leaf.ret(leaf.add(leaf.mul(leaf.param("x"), 3), 1))
    main = ir.function("main")
    main.local("acc")
    main.store_local("acc", 0)
    ivar = main.counted_loop(6, "body", "done")
    total = main.add(main.load_local("acc"), main.call("leaf", [main.load_local(ivar)]))
    main.store_local("acc", total)
    main.loop_backedge(ivar, "body")
    main.new_block("done")
    main.out(main.load_local("acc"))
    main.ret(0)
    return ir.finish()


# ---------------------------------------------------------------------------
# Tracing core.
# ---------------------------------------------------------------------------


def test_tracing_disabled_by_default_and_null_span_is_harmless():
    assert not tracing_enabled()
    before = len(get_collector().spans)
    with span("compile/module", "compile", module="m") as open_span:
        open_span.set(extra=1)
    assert len(get_collector().spans) == before


def test_span_nesting_builds_the_tree():
    with traced() as collector:
        with span("outer", "t"):
            with span("inner-a", "t"):
                pass
            with span("inner-b", "t"):
                pass
        with span("sibling", "t"):
            pass
        tree = span_tree(collector.spans)
    assert tree == [
        {"name": "outer", "children": [
            {"name": "inner-a", "children": []},
            {"name": "inner-b", "children": []},
        ]},
        {"name": "sibling", "children": []},
    ]


def test_span_args_and_set():
    with traced() as collector:
        with span("probe", "engine", label="x") as open_span:
            open_span.set(hit=True)
        recorded = collector.spans[0]
    assert recorded.args == {"label": "x", "hit": True}
    assert recorded.category == "engine"
    assert recorded.duration_us >= 0.0


def test_recent_span_names_oldest_first():
    with traced():
        for name in ("a", "b", "c"):
            with span(name, "t"):
                pass
        assert recent_span_names() == ("a", "b", "c")
        assert recent_span_names(2) == ("b", "c")
    assert recent_span_names() == ()


def test_trace_capture_windows():
    with traced():
        with span("before", "t"):
            pass
        with trace_capture() as capture:
            with span("during", "t"):
                pass
        with span("after", "t"):
            pass
        assert [s.name for s in capture.spans()] == ["during"]
        assert capture.tree() == [{"name": "during", "children": []}]


def test_trace_json_round_trip_drops_unknown_keys():
    with traced() as collector:
        with span("outer", "t", k=1):
            with span("inner", "t"):
                pass
        text = collector.to_json()
    data = json.loads(text)
    data["mystery"] = True
    data["spans"][0]["novel_field"] = "future"
    spans = TraceCollector.from_json(json.dumps(data))
    assert [s.name for s in spans] == ["inner", "outer"]  # completion order
    assert spans[1].args == {"k": 1}
    assert not hasattr(spans[0], "novel_field")


def test_chrome_trace_shape(tmp_path):
    with traced() as collector:
        with span("outer", "compile"):
            with span("inner", "compile"):
                pass
        path = tmp_path / "trace.json"
        collector.write_chrome_trace(path)
    data = json.loads(path.read_text())
    assert data["displayTimeUnit"] == "ms"
    events = data["traceEvents"]
    # Chrome events are emitted in start order, not completion order.
    assert [e["name"] for e in events] == ["outer", "inner"]
    for event in events:
        assert event["ph"] == "X"
        assert event["cat"] == "compile"
        assert event["dur"] >= 0.0


# ---------------------------------------------------------------------------
# The golden engine trace: names, parentage and ordering are pinned.
# Durations never participate.
# ---------------------------------------------------------------------------

GOLDEN_ENGINE_TREE = [
    {"name": "engine/cache-probe", "children": [
        {"name": "compile/module", "children": [
            {"name": "compile/verify-ir", "children": []},
            {"name": "compile/plan", "children": [
                {"name": "compile/pass:oia", "children": []},
                {"name": "compile/pass:booby-traps", "children": []},
                {"name": "compile/pass:btra", "children": []},
                {"name": "compile/pass:nop-insertion", "children": []},
                {"name": "compile/pass:prolog-traps", "children": []},
                {"name": "compile/pass:stack-slot-shuffle", "children": []},
                {"name": "compile/pass:regalloc-shuffle", "children": []},
                {"name": "compile/pass:btdp", "children": []},
                {"name": "compile/pass:global-shuffle", "children": []},
                {"name": "compile/pass:function-shuffle", "children": []},
            ]},
            {"name": "compile/link", "children": []},
            {"name": "compile/verify-binary", "children": []},
        ]},
    ]},
    {"name": "engine/verify-binary", "children": []},
    {"name": "engine/load", "children": []},
    {"name": "engine/verify-process", "children": []},
    {"name": "engine/run", "children": []},
]


def test_golden_engine_span_tree():
    # scale=2 gives this module a fingerprint unique to this test, so the
    # compile/verify-ir span (memoized per fingerprint in _CLEAN_IR)
    # appears regardless of what other tests compiled first.
    module = build_spec_benchmark("xz", 2)
    engine = ExperimentEngine(jobs=1)
    with traced():
        try:
            record = engine.run(
                RunRequest(module=module, config=R2CConfig.full(seed=7), verify=True)
            )
        finally:
            engine.close()
    assert record.outcome == "ok"
    assert record.spans, "tracing was on: the record must carry its spans"
    tree = span_tree([Span.from_dict(d) for d in record.spans])
    assert tree == GOLDEN_ENGINE_TREE


def test_record_spans_absent_when_tracing_disabled():
    module = build_spec_benchmark("xz", 3)
    engine = ExperimentEngine(jobs=1)
    try:
        record = engine.run(RunRequest(module=module, config=R2CConfig.full(seed=7)))
    finally:
        engine.close()
    assert record.outcome == "ok"
    assert record.spans is None


# ---------------------------------------------------------------------------
# Machine counters.
# ---------------------------------------------------------------------------


def run_workload(backend, *, attribute_tags=True, profiler=False, tracing=False):
    binary = compile_module(small_module(), R2CConfig.full(seed=5))
    process = load_binary(binary, seed=2)
    state = MachineState(process, get_costs("epyc-rome"), attribute_tags=attribute_tags)
    attached = CycleProfiler(state) if profiler else None
    if tracing:
        with traced():
            result = run(state, backend)
    else:
        result = run(state, backend)
    return result, state, attached


def tag_events(result, prefix):
    """Executed instructions under tags starting with ``prefix``: the
    BTRA (``btra``) or BTDP (``btdp``) work a run performed."""
    return sum(n for tag, n in result.tag_counts.items() if tag.startswith(prefix))


def test_perf_counters_identical_across_backends():
    results = {backend: run_workload(backend)[0] for backend in BACKENDS}
    result = results["reference"]
    for backend in BACKENDS:
        assert results[backend] == result, backend
    assert result.instructions > 0
    assert 0 < result.branches_taken <= result.branches
    assert result.mem_ops > 0
    assert tag_events(result, "btra") > 0
    assert tag_events(result, "btdp") > 0


def test_tag_attribution_decomposes_exactly():
    """Every instruction lands in exactly one tag bucket: counts sum to
    ``instructions`` exactly, cycle buckets sum to ``cycles`` (float
    re-association aside)."""
    result, _, _ = run_workload("reference")
    assert UNTAGGED_TAG in result.tag_counts
    assert set(result.tag_counts) == set(result.tag_cycles)
    assert sum(result.tag_counts.values()) == result.instructions
    assert math.isclose(
        sum(result.tag_cycles.values()), result.cycles, rel_tol=1e-9
    )


def test_counters_zero_without_tag_attribution():
    result, _, _ = run_workload("fast", attribute_tags=False)
    assert tag_events(result, "btra") == 0 and tag_events(result, "btdp") == 0
    assert result.tag_counts == {} and result.tag_cycles == {}


# ---------------------------------------------------------------------------
# ``python -m repro profile``: the one CLI reader of the counters.
# ---------------------------------------------------------------------------

COUNTERS_LINE = re.compile(
    r"counters: (\d+) instructions, (\d+) cycles, i-cache miss rate ([\d.]+)%, "
    r"(\d+)/(\d+) branches taken, (\d+) BTRA / (\d+) BTDP events"
)


def test_profile_cli_prints_the_run_counters_on_every_backend(tmp_path, capsys):
    """``profile xz`` prints the same report and writes the same folded
    stacks on every backend, and each number on its ``counters:`` line
    is the matching field of a tag-attributed ``reference`` run of the
    same build (full R2C, seed 1) and load (seed 1), the CLI defaults."""
    folded_path = tmp_path / "xz.folded"
    reports, folded = {}, {}
    for backend in BACKENDS:
        argv = ["profile", "xz", "--top", "3", "--folded", str(folded_path)]
        assert main(argv + ["--backend", backend]) == 0
        printed = capsys.readouterr().out.splitlines()
        # Every line but the host-time one, e.g. ``[0.8s]``.
        reports[backend] = [
            line for line in printed if not re.fullmatch(r"\[\d+\.\ds\]", line)
        ]
        assert len(reports[backend]) == len(printed) - 1
        folded[backend] = folded_path.read_text()
    for backend in BACKENDS:
        assert reports[backend] == reports["reference"], backend
        assert folded[backend] == folded["reference"], backend

    binary = compile_module(build_spec_benchmark("xz"), R2CConfig.full(seed=1))
    state = MachineState(
        load_binary(binary, seed=1), get_costs("epyc-rome"), attribute_tags=True
    )
    result = run(state, "reference")
    (line,) = [line for line in reports["reference"] if line.startswith("counters:")]
    match = COUNTERS_LINE.fullmatch(line)
    assert match, line
    instructions, cycles, miss_pct, taken, branches, btra, btdp = match.groups()
    assert int(instructions) == result.instructions
    assert float(cycles) == pytest.approx(result.cycles, abs=0.5)
    assert float(miss_pct) == pytest.approx(100.0 * result.icache_miss_rate, abs=0.005)
    assert (int(taken), int(branches)) == (result.branches_taken, result.branches)
    assert int(btra) == tag_events(result, "btra") > 0
    assert int(btdp) == tag_events(result, "btdp") > 0


# ---------------------------------------------------------------------------
# The profiler.
# ---------------------------------------------------------------------------


def test_profiler_total_equals_result_cycles_exactly():
    for backend in BACKENDS:
        result, _, profiler = run_workload(backend, profiler=True)
        assert profiler.total_cycles == result.cycles
        assert profiler.instructions == result.instructions


def test_profiler_folded_stacks_byte_identical_across_backends():
    folded = {}
    for backend in BACKENDS:
        _, _, profiler = run_workload(backend, profiler=True)
        folded[backend] = profiler.folded_stacks()
    assert folded["reference"] == folded["fast"]
    for line in folded["fast"].splitlines():
        key, _, cycles = line.rpartition(" ")
        assert key and float(cycles) > 0.0


def test_profiler_attributes_to_function_symbols():
    _, _, profiler = run_workload("reference", profiler=True)
    names = dict(profiler.per_function())
    assert "main" in names and "leaf" in names
    assert all("::" not in name for name in names)
    report = profiler.report(top=5)
    assert "main" in report and "cycles" in report


def test_profiler_unknown_symbols_fold_to_placeholder():
    process, _ = assemble(
        [I(Op.MOV, Reg.RAX, Imm(4)), I(Op.OUT, Reg.RAX), I(Op.EXIT, Imm(0))]
    )
    state = MachineState(process, get_costs("epyc-rome"))
    profiler = CycleProfiler(state)
    result = run(state)
    assert list(profiler.func_cycles) == [UNKNOWN_FUNCTION]
    assert profiler.total_cycles == result.cycles


def test_profiler_detach_restores_hook():
    process, _ = assemble([I(Op.EXIT, Imm(0))])
    seen = []
    state = MachineState(process, get_costs("epyc-rome"))
    state.trace_fn = lambda c, rip, ins: seen.append(rip)
    profiler = CycleProfiler(state)
    # Bound-method equality, not identity: each attribute access mints a
    # fresh bound method object.
    assert state.trace_fn == profiler._trace
    profiler.detach()
    assert state.trace_fn != profiler._trace
    run(state)
    assert seen  # the original hook still fires


def test_profiler_sees_faulting_runs_identically():
    folded = {}
    for backend in BACKENDS:
        process, _ = assemble([I(Op.NOP), I(Op.TRAP), I(Op.EXIT, Imm(0))])
        state = MachineState(process, get_costs("epyc-rome"))
        profiler = CycleProfiler(state)
        with pytest.raises(BoobyTrapTriggered):
            run(state, backend)
        folded[backend] = (profiler.folded_stacks(), profiler.instructions)
    assert folded["reference"] == folded["fast"]
    assert folded["fast"][1] == 2  # NOP + the trap itself


# ---------------------------------------------------------------------------
# Passivity: observability must never perturb the observed machine.
# ---------------------------------------------------------------------------

_PASSIVITY_BINARIES = {}


def _passivity_binary(seed, mode):
    key = (seed, mode)
    if key not in _PASSIVITY_BINARIES:
        _PASSIVITY_BINARIES[key] = compile_module(
            small_module("obs-passive"), R2CConfig.full(seed=seed, btra_mode=mode)
        )
    return _PASSIVITY_BINARIES[key]


@given(
    seed=st.integers(min_value=0, max_value=5),
    mode=st.sampled_from(["avx", "push"]),
    backend=st.sampled_from(BACKENDS),
    load_seed=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_observability_is_passive(seed, mode, backend, load_seed):
    binary = _passivity_binary(seed, mode)
    snapshots = []
    for observed in (False, True):
        process = load_binary(binary, seed=load_seed)
        state = MachineState(process, get_costs("epyc-rome"), attribute_tags=True)
        profiler = None
        error = None
        if observed:
            previous = enable_tracing(True)
            profiler = CycleProfiler(state)
        try:
            with span("test/run", "test"):
                result = run(state, backend)
        except Exception as exc:  # noqa: BLE001 - fault identity is the point
            result = None
            error = (type(exc), str(exc))
        finally:
            if observed:
                profiler.detach()
                enable_tracing(previous)
                get_collector().clear()
        snapshots.append(
            (
                dataclasses.asdict(result) if result is not None else None,
                error,
                state.rip,
                list(state.regs),
            )
        )
    assert snapshots[0] == snapshots[1]
