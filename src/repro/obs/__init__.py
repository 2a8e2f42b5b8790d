"""Observability: structured tracing, machine perf counters, profiling.

R2C's argument is quantitative — compile-time, run-time, and entropy
measurements (Section 6) — so the reproduction carries a first-class
observability layer instead of ad-hoc ``perf_counter`` calls:

* :mod:`repro.obs.tracing` — zero-dependency structured spans with a
  thread-safe in-process collector and Chrome ``trace_event`` export,
  threaded through the compiler pipeline, the toolchain frontend, and
  the experiment engine.
* :mod:`repro.obs.counters` — :class:`PerfCounters`, the machine-level
  counter structure both execution backends fill byte-identically.
* :mod:`repro.obs.profiler` — per-RIP/per-function cycle attribution
  with folded-stack (flamegraph) output, driven off the machine state's trace hook
  so it works on either backend and through BTRA-displaced frames.

Host-time benchmarking lives outside the package, in r2cbench
(``python3 -m benchmarks.r2cbench``).

Everything here is strictly passive: enabling tracing or attaching a
profiler never changes :class:`~repro.machine.state.ExecutionResult`,
faults, or final ``rip`` (a property test enforces this), and with
tracing *disabled* the instrumentation costs one flag check per phase.
"""

from repro.obs.counters import PerfCounters, UNTAGGED_TAG
from repro.obs.profiler import CycleProfiler
from repro.obs.tracing import (
    TraceCollector,
    enable_tracing,
    get_collector,
    recent_span_names,
    span,
    trace_capture,
    tracing_enabled,
)

__all__ = [
    "CycleProfiler",
    "PerfCounters",
    "TraceCollector",
    "UNTAGGED_TAG",
    "enable_tracing",
    "get_collector",
    "recent_span_names",
    "span",
    "trace_capture",
    "tracing_enabled",
]
