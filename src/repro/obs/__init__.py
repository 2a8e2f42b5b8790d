"""Observability: structured tracing and profiling.

R2C's argument is quantitative — compile-time, run-time, and entropy
measurements (Section 6) — so the reproduction carries a first-class
observability layer instead of ad-hoc ``perf_counter`` calls:

* :mod:`repro.obs.tracing` — zero-dependency structured spans with a
  thread-safe in-process collector and Chrome ``trace_event`` export,
  threaded through the compiler pipeline, the toolchain frontend, and
  the experiment engine.
* :mod:`repro.obs.profiler` — per-RIP/per-function cycle attribution
  with folded-stack (flamegraph) output, driven off the machine state's trace hook
  so it works on every backend and through BTRA-displaced frames.

The machine counters themselves are the fields of
:class:`~repro.machine.state.ExecutionResult`, which every execution
backend fills byte-identically.

Host-time benchmarking lives outside the package, in r2cbench
(``python3 -m benchmarks.r2cbench``).

Everything here is strictly passive: enabling tracing or attaching a
profiler never changes :class:`~repro.machine.state.ExecutionResult`,
faults, or final ``rip`` (a property test enforces this), and with
tracing *disabled* the instrumentation costs one flag check per phase.
"""

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
    "TraceCollector",
    "enable_tracing",
    "get_collector",
    "recent_span_names",
    "span",
    "trace_capture",
    "tracing_enabled",
]
