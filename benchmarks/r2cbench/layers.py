"""Per-layer timing from outside the package: spans around public entry points.

A traced pass wraps the functions each layer exposes, at the names their
callers resolve, and records one span per call:

* ``compile`` — ``compile_module`` as the engine, the attack harness and
  this benchmark's workloads call it (``core.compiler`` + ``toolchain``);
* ``load`` — ``load_binary`` at the same three call sites
  (``machine.loader``);
* ``clone`` — :meth:`repro.machine.process.Process.clone`;
* ``prepare`` / ``execute`` / ``step`` — the registered ``jit`` backend
  instance (``machine.backends`` / ``machine.jit``); execute and step
  spans also carry the simulated instructions and cycle units they
  retired;
* ``census`` — the gadget miner's ``take_census`` as the mined attacks
  call it (``analysis.gadgets``).

The workloads add the spans only they can see: ``op`` (the root of each
timed operation), ``engine.run``, ``lockstep.run`` and ``attack.session``.
Spans stay in memory and are written out once, at exit.  Wrappers exist
only inside :func:`installed`; an untraced pass runs the package
untouched, so the end-to-end numbers are measured with tracing off.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from benchmarks.r2cbench.stats import median

perf_counter = time.perf_counter


class Span:
    """One timed call: name, start, end, parent span index, op id, info."""

    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name: str, start: float, parent: Optional[int], op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        #: Call-specific payload: text bytes for ``compile``, (instructions,
        #: cycle units) for ``execute``/``step``, sync points for
        #: ``lockstep.run``, probes for ``attack.session``.
        self.info = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "info": self.info,
        }


class Tracer:
    """In-memory span recorder for one thread (the benchmark is single-threaded)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        #: Id attached to every span begun from now on (``(pass, index)``).
        self.op = None
        self.gc_collections = 0
        self.gc_seconds = 0.0
        self._gc_started = 0.0

    def begin(self, name: str) -> Span:
        span = Span(name, perf_counter(), self._open[-1] if self._open else None, self.op)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def on_gc(self, phase: str, info) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        else:
            self.gc_collections += 1
            self.gc_seconds += perf_counter() - self._gc_started


class _NullSpan:
    __slots__ = ("info",)

    def __init__(self) -> None:
        self.info = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


class NullTracer:
    """What untraced passes use: ``span`` is a no-op context manager."""

    _SPAN = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._SPAN


NULL_TRACER = NullTracer()

_MISSING = object()


def _timed(tracer: Tracer, name: str, fn, note=None):
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if note is not None:
            span.info = note(result)
        return result

    return wrapper


def _simulated(tracer: Tracer, name: str, fn):
    """Wrap a backend ``execute``/``step``: time it and record the
    simulated work it retired into its ``res`` (also on a guest fault)."""

    def wrapper(program, state, res, *rest):
        instructions, units = res.instructions, res.cycle_units
        span = tracer.begin(name)
        try:
            return fn(program, state, res, *rest)
        finally:
            tracer.end(span)
            span.info = (res.instructions - instructions, res.cycle_units - units)

    return wrapper


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every traced entry point (and hook the collector) for the
    duration of the block; everything is restored on exit."""
    import repro.attacks.mined as mined
    import repro.attacks.scenario as scenario
    import repro.eval.engine as engine
    from repro.machine.backends import get_backend
    from repro.machine.process import Process

    from benchmarks.r2cbench import workloads

    jit = get_backend("jit")
    patches = []
    for module in (engine, scenario, workloads):
        patches.append(
            (module, "compile_module",
             _timed(tracer, "compile", module.compile_module, lambda binary: binary.text_size))
        )
        patches.append((module, "load_binary", _timed(tracer, "load", module.load_binary)))
    patches.append((mined, "take_census", _timed(tracer, "census", mined.take_census)))
    patches.append((Process, "clone", _timed(tracer, "clone", Process.clone)))
    patches.append((jit, "prepare", _timed(tracer, "prepare", jit.prepare)))
    patches.append((jit, "execute", _simulated(tracer, "execute", jit.execute)))
    patches.append((jit, "step", _simulated(tracer, "step", jit.step)))

    saved = []
    try:
        for owner, attribute, wrapper in patches:
            saved.append((owner, attribute, owner.__dict__.get(attribute, _MISSING)))
            setattr(owner, attribute, wrapper)
        gc.callbacks.append(tracer.on_gc)
        yield tracer
    finally:
        if tracer.on_gc in gc.callbacks:
            gc.callbacks.remove(tracer.on_gc)
        for owner, attribute, original in reversed(saved):
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)


#: JIT_STATS keys reported as ``jit.<key>`` (the session-wide ``programs``
#: count is left out: it counts handles, not lowering work).
JIT_COUNTERS = (
    "blocks_compiled",
    "superinstructions_fused",
    "traces_compiled",
    "loop_traces",
    "superblocks",
    "trace_side_exits",
    "trace_guard_failures",
    "traces_blacklisted",
    "deopts",
    "code_cache_hits",
)


def counter_snapshot() -> Dict[str, int]:
    """The package's process-wide lowering counters, now."""
    from repro.machine.jit import jit_stats_snapshot

    stats = jit_stats_snapshot()
    return {f"jit.{key}": stats[key] for key in JIT_COUNTERS}


#: The span names whose self times partition an op's wall time.  ``op``'s
#: own self time is what no layer span covers: the workload's glue and
#: the output check.
SPAN_NAMES = (
    "op", "engine.run", "compile", "load", "clone", "prepare", "execute", "step",
    "lockstep.run", "attack.session", "census",
)
#: Metric prefix of each span name's self-time share.
SHARE_PREFIX = {
    "op": "op", "engine.run": "engine", "lockstep.run": "lockstep", "attack.session": "attack",
}


@dataclass(frozen=True)
class Layer:
    """A row of the layer table: which module the metrics time, and which
    end-to-end metric each should move, on which workload."""

    module: str
    metrics: Tuple[str, ...]
    moves: Tuple[Tuple[str, str], ...]


#: The per-layer metrics ``BENCHMARK.json`` lists.  Every time among them
#: (unit s, ms or ns) is non-zero on every workload; the time a layer is
#: busy on the workloads that use it is given as its share of op wall
#: time (``*.self_pct``), which reads 0 where a workload skips the layer.
#: :func:`layer_metrics` reports more (absolute seconds per layer) for
#: the ``--out`` report.
LAYERS: Tuple[Layer, ...] = (
    Layer(
        "eval.engine",
        ("engine.run.calls", "engine.self_pct"),
        (("spec-sweep", "ops_per_s"), ("spec-sweep", "op_gmean_ms")),
    ),
    Layer(
        "core.compiler, toolchain",
        ("compile.calls", "compile.self_pct", "compile.text_kb"),
        (("spec-sweep", "ops_per_s"), ("attack-matrix", "ops_per_s"),
         ("mvee-lockstep", "op_gmean_ms"), ("spec-steady", "setup_s")),
    ),
    Layer(
        "machine.loader, machine.process",
        ("load.calls", "load.self_pct", "load.p50_ms", "clone.calls", "clone.self_pct"),
        (("attack-matrix", "ops_per_s"), ("mvee-lockstep", "ops_per_s")),
    ),
    Layer(
        "machine.backends, machine.jit",
        ("prepare.self_pct", "execute.calls", "execute.self_pct", "execute.lower_est_pct",
         "step.calls", "step.self_pct", "sim.ns_per_instr", "sim.instructions", "sim.cycles"),
        (("spec-steady", "ops_per_s"), ("spec-sweep", "ops_per_s"),
         ("mvee-lockstep", "ops_per_s")),
    ),
    Layer(
        "machine.jit counters",
        tuple(f"jit.{key}" for key in JIT_COUNTERS) + ("jit.trace_keep_ratio",),
        (("spec-steady", "ops_per_s"), ("spec-sweep", "ops_per_s")),
    ),
    Layer(
        "defenses.lockstep",
        ("lockstep.self_pct", "lockstep.sync_points"),
        (("mvee-lockstep", "ops_per_s"), ("mvee-lockstep", "op_gmean_ms")),
    ),
    Layer(
        "attacks.scenario, analysis.gadgets",
        ("attack.self_pct", "attack.probes", "census.calls", "census.self_pct"),
        (("attack-matrix", "ops_per_s"), ("attack-matrix", "op_gmean_ms")),
    ),
    Layer(
        "benchmark harness, Python runtime",
        ("op.calls", "op.s", "op.self_pct", "gc.collections", "gc.s"),
        (("spec-sweep", "ops_per_s"), ("spec-steady", "ops_per_s"),
         ("attack-matrix", "ops_per_s"), ("mvee-lockstep", "ops_per_s")),
    ),
)

LAYER_METRICS: Tuple[str, ...] = tuple(name for layer in LAYERS for name in layer.metrics)

#: Units by name suffix; everything else is a count.
_SUFFIX_UNITS = (
    ("_ms", "ms"),
    ("_pct", "%"),
    ("_ratio", "ratio"),
    ("_kb", "KB"),
    ("ns_per_instr", "ns"),
    ("sim.cycles", "cycles"),
    (".s", "s"),
    ("_s", "s"),
)

#: Per-layer metrics for which a larger value is the better one.
HIGHER_IS_BETTER = frozenset(
    {"jit.superinstructions_fused", "jit.traces_compiled", "jit.loop_traces", "jit.superblocks",
     "jit.code_cache_hits", "jit.trace_keep_ratio"}
)


def unit_of(metric: str) -> str:
    for suffix, unit in _SUFFIX_UNITS:
        if metric.endswith(suffix):
            return unit
    return "count"


class SpanTable:
    """Self times and per-root aggregation over a tracer's spans.

    A span's self time is its duration minus the time its direct children
    cover.  ``op`` roots are the timed operations; ``warm`` roots are the
    untimed re-executions spec-steady uses to split lowering from
    execution, kept out of every op's accounting.
    """

    def __init__(self, spans: Sequence[Span]):
        self.spans = spans
        child_seconds = [0.0] * len(spans)
        roots = [0] * len(spans)
        for index, span in enumerate(spans):
            if span.parent is None:
                roots[index] = index
            else:
                roots[index] = roots[span.parent]
                child_seconds[span.parent] += span.seconds
        self.self_seconds = [span.seconds - child for span, child in zip(spans, child_seconds)]
        self.roots = roots

    def under(self, root_name: str, name: str) -> List[int]:
        spans = self.spans
        return [
            index
            for index, span in enumerate(spans)
            if span.name == name and spans[self.roots[index]].name == root_name
        ]

    def ops(self) -> List[Dict[str, object]]:
        """Per op: wall seconds, the seconds its layer spans account for,
        and the self time of every span name in its tree."""
        accounts: Dict[int, Dict[str, object]] = {}
        for index, span in enumerate(self.spans):
            root = self.roots[index]
            if self.spans[root].name != "op":
                continue
            account = accounts.setdefault(
                root, {"op": span.op, "wall_s": self.spans[root].seconds, "self_s": {}}
            )
            per_name = account["self_s"]
            per_name[span.name] = per_name.get(span.name, 0.0) + self.self_seconds[index]
        for account in accounts.values():
            account["layers_s"] = account["wall_s"] - account["self_s"]["op"]
        return list(accounts.values())


def layer_metrics(
    tracer: Tracer,
    counters: Dict[str, int],
    *,
    build_s: float,
) -> Dict[str, float]:
    """Every per-layer value of one traced run: the :data:`LAYER_METRICS`
    first, then absolute seconds per layer.

    ``counters`` holds the deltas of :func:`counter_snapshot` summed over
    the traced passes.
    """
    from repro.machine.costs import CYCLE_UNIT

    table = SpanTable(tracer.spans)
    spans = tracer.spans

    def pick(name: str, root: str = "op") -> List[int]:
        return table.under(root, name)

    def total(indices: List[int]) -> float:
        return sum(spans[index].seconds for index in indices)

    def self_total(indices: List[int]) -> float:
        return sum(table.self_seconds[index] for index in indices)

    def p50_ms(indices: List[int]) -> float:
        return median([spans[index].seconds for index in indices]) * 1000.0

    def info_sum(indices: List[int], position: Optional[int] = None) -> float:
        values = [spans[index].info for index in indices if spans[index].info is not None]
        if position is not None:
            values = [value[position] for value in values]
        return sum(values)

    picked = {name: pick(name) for name in SPAN_NAMES}
    op_s = total(picked["op"])
    compiles = picked["compile"]
    simulated = picked["execute"] + picked["step"]
    instructions = info_sum(simulated, 0)
    cold_s = total(picked["execute"])
    warm_executes = pick("execute", root="warm")
    warm_s = total(warm_executes)
    lower_est_s = cold_s - warm_s if warm_executes else 0.0

    traces = counters.get("jit.traces_compiled", 0)

    metrics: Dict[str, float] = {
        "op.calls": len(picked["op"]),
        "op.s": op_s,
        "engine.run.calls": len(picked["engine.run"]),
        "compile.calls": len(compiles),
        "compile.text_kb": info_sum(compiles) / len(compiles) / 1024.0 if compiles else 0.0,
        "load.calls": len(picked["load"]),
        "load.p50_ms": p50_ms(picked["load"]),
        "clone.calls": len(picked["clone"]),
        "execute.calls": len(picked["execute"]),
        "execute.lower_est_pct": 100.0 * lower_est_s / cold_s if warm_executes else 0.0,
        "step.calls": len(picked["step"]),
        "sim.ns_per_instr": total(simulated) * 1e9 / instructions if instructions else 0.0,
        "sim.instructions": instructions,
        "sim.cycles": info_sum(simulated, 1) / CYCLE_UNIT,
        "jit.trace_keep_ratio": (
            (traces - counters.get("jit.traces_blacklisted", 0)) / traces if traces else 0.0
        ),
        "lockstep.sync_points": info_sum(picked["lockstep.run"]),
        "attack.probes": info_sum(picked["attack.session"]),
        "census.calls": len(picked["census"]),
        "gc.collections": tracer.gc_collections,
        "gc.s": tracer.gc_seconds,
    }
    for name in SPAN_NAMES:
        share = 100.0 * self_total(picked[name]) / op_s if op_s else 0.0
        metrics[f"{SHARE_PREFIX.get(name, name)}.self_pct"] = share
    for key in JIT_COUNTERS:
        metrics[f"jit.{key}"] = counters.get(f"jit.{key}", 0)

    report = {name: metrics[name] for name in LAYER_METRICS}
    report.update({
        "engine.run.s": total(picked["engine.run"]),
        "engine.self_s": self_total(picked["engine.run"]),
        "compile.s": total(compiles),
        "compile.p50_ms": p50_ms(compiles),
        "load.s": total(picked["load"]),
        "clone.s": total(picked["clone"]),
        "prepare.s": total(picked["prepare"]),
        "execute.s": cold_s,
        "execute.cold_s": cold_s,
        "execute.warm_s": warm_s,
        "execute.lower_est_s": lower_est_s,
        "step.s": total(picked["step"]),
        "lockstep.run.s": total(picked["lockstep.run"]),
        "lockstep.self_s": self_total(picked["lockstep.run"]),
        "attack.session.s": total(picked["attack.session"]),
        "attack.self_s": self_total(picked["attack.session"]),
        "census.s": total(picked["census"]),
        "build.s": build_s,
    })
    return report
