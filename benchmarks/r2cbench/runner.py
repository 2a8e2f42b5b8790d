"""Runs one workload: oracle, repeated set-up, measured passes, metrics.

An invocation is one process with one thread and one client.  After the
oracle (outside every timed window) the imports are timed in
:data:`IMPORT_REPS` fresh interpreters and the workload is set up
:data:`SETUP_REPS` times, each with a warm-up op of its own; ``setup_s``
is the median import time plus the median set-up.  A fixed number of
passes follows (:func:`planned_passes`), each with fresh seeds and the
collector emptied before it, so two runs with the same seed and
``--seconds`` run the same ops.  End-to-end metrics come from untraced
passes only; with ``trace`` every second pass runs with the layer
wrappers installed and feeds the per-layer metrics.

Every host time is reported in *reference seconds* (see
:mod:`benchmarks.r2cbench.reference`): the reference kernel is timed
before and during each op and each set-up, the reference imports just
before each import, and each wall time is divided by its own host
factor.  The raw walls are kept in the report.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from benchmarks.r2cbench import reference
from benchmarks.r2cbench.layers import (
    NULL_TRACER,
    LAYER_METRICS,
    SpanTable,
    Tracer,
    counter_snapshot,
    installed,
    layer_metrics,
    unit_of,
)
from benchmarks.r2cbench.stats import spread
from benchmarks.r2cbench.workloads import OpResult, Workload, make_workload

perf_counter = time.perf_counter

SCHEMA = "r2cbench/v1"
SETUP_REPS = 3
IMPORT_REPS = 3
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
#: Times, in a fresh interpreter, the reference imports and then what an
#: invocation imports before set-up.  An import happens once per process,
#: so one process cannot repeat it.
IMPORT_PROBE = (
    "import time; started = time.perf_counter(); "
    f"import {reference.REFERENCE_IMPORTS}; "
    "middle = time.perf_counter(); import sys; "
    "sys.path.insert(0, 'src'); import benchmarks.r2cbench.runner; "
    "print(middle - started, time.perf_counter() - middle)"
)
#: Passes always measured, whatever ``--seconds`` says.
MIN_PASSES = 2

#: The end-to-end metrics every workload prints, with their units.
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_gmean_ms": "ms", "peak_rss_mb": "MB"}

#: A latency percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10


@dataclass
class PassRecord:
    index: int
    traced: bool
    labels: List[str] = field(default_factory=list)
    #: Host seconds of each op, less the kernel samples taken inside it.
    walls: List[float] = field(default_factory=list)
    #: ``perf_counter`` at each op's start and end.
    spans: List[Tuple[float, float]] = field(default_factory=list)
    #: Each op's host factor, set once the run's last sample is taken.
    factors: List[float] = field(default_factory=list)
    results: List[OpResult] = field(default_factory=list)

    @property
    def factor(self) -> float:
        """The pass's median host factor."""
        return statistics.median(self.factors)

    def times(self, raw: bool = False) -> List[float]:
        """Each op's wall time in reference seconds, or in host seconds."""
        if raw:
            return self.walls
        return [wall / factor for wall, factor in zip(self.walls, self.factors)]


def planned_passes(workload: Workload, seconds: float) -> int:
    """Passes that fill ``seconds`` at the workload's nominal pass time.

    The count depends on ``--seconds`` alone, never on how fast the host
    happens to be, so the op list (and every simulated count) is fixed by
    the seed and the run length."""
    return max(MIN_PASSES, round(seconds / workload.pass_s))


def _timed(clock: reference.HostClock, work: Callable[[], object]):
    """Run ``work`` with the clock sampling during it; return its result,
    its own wall seconds and its ``perf_counter`` span."""
    stolen = clock.stolen
    started = perf_counter()
    with clock.running():
        result = work()
    ended = perf_counter()
    return result, ended - started - (clock.stolen - stolen), (started, ended)


def import_seconds() -> Tuple[float, float]:
    """(seconds, host factor) of one fresh interpreter's import of what an
    invocation imports before set-up."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    reference_s, import_s = map(float, done.stdout.split())
    return import_s, reference_s / reference.NOMINAL_IMPORT_S


def _run_op(op) -> OpResult:
    try:
        return op.run()
    except Exception:  # a raising op is a failed op, not a dead run
        return OpResult(False, detail=traceback.format_exc(limit=4))


def _run_pass(
    workload: Workload, index: int, tracer: Optional[Tracer], clock: reference.HostClock
) -> PassRecord:
    record = PassRecord(index, tracer is not None)
    for position, op in enumerate(workload.ops(index)):
        clock.sample()
        if tracer is not None:
            tracer.op = (index, position)
            root = tracer.begin("op")
        result, wall, span = _timed(clock, lambda: _run_op(op))
        if tracer is not None:
            tracer.end(root)
            if workload.warms and result.ok:
                with tracer.span("warm"):
                    workload.warm(op)
        record.labels.append(op.label)
        record.walls.append(wall)
        record.spans.append(span)
        record.results.append(result)
    return record


def _by_label(
    records: Sequence[PassRecord], raw: bool = False
) -> Dict[str, List[Tuple[float, OpResult]]]:
    grouped: Dict[str, List[Tuple[float, OpResult]]] = {}
    for record in records:
        for label, wall, result in zip(record.labels, record.times(raw), record.results):
            grouped.setdefault(label, []).append((wall, result))
    return grouped


def median_pass(records: Sequence[PassRecord], raw: bool = False) -> Tuple[int, float, float]:
    """(ops, seconds, instructions) of the median pass, built op by op:
    every op label contributes its median wall and median instruction
    count across passes.  A slow stretch of the host that covers fewer
    than half of an op's passes does not move it."""
    grouped = _by_label(records, raw)
    seconds = sum(statistics.median(wall for wall, _ in runs) for runs in grouped.values())
    instructions = sum(
        statistics.median(result.instructions for _, result in runs) for runs in grouped.values()
    )
    return len(grouped), seconds, instructions


def tracing_overhead_pct(passes: Sequence[PassRecord]) -> Optional[float]:
    """Traced against untraced wall, paired by op label: the median over
    labels of (median traced wall / median untraced wall), minus 1, in
    reference seconds.

    Pairing by label compares like with like (the same program and
    config kind, or the same defense and attack) even where whole passes
    differ in cost."""
    traced = _by_label([record for record in passes if record.traced])
    untraced = _by_label([record for record in passes if not record.traced])
    ratios = [
        statistics.median(wall for wall, _ in runs)
        / statistics.median(wall for wall, _ in untraced[label])
        for label, runs in traced.items()
        if label in untraced
    ]
    return (statistics.median(ratios) - 1.0) * 100.0 if ratios else None


def _e2e(records: Sequence[PassRecord], setup_s: float, raw: bool = False) -> Dict[str, float]:
    ops, seconds_per_pass, _ = median_pass(records, raw)
    # Every op kind's median latency, summarized by their geometric mean.
    # The kinds' latencies cluster (a pass holds 4 to 72 kinds of very
    # different cost), so any median across kinds or samples can sit in a
    # gap between two clusters and jump across it between seeds.
    kind_p50s = [
        statistics.median(wall for wall, _ in runs) for runs in _by_label(records, raw).values()
    ]
    return {
        "setup_s": setup_s,
        "ops_per_s": ops / seconds_per_pass,
        "op_gmean_ms": statistics.geometric_mean(kind_p50s) * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_benchmark(
    name: str, seed: int, seconds: float, trace: bool
) -> Tuple[Dict[str, object], Optional[Tracer]]:
    """Run one workload; return the full report (see ``README.md``) and,
    when traced, the tracer holding every span."""
    workload = make_workload(name, seed)
    workload.oracle()

    import_walls, import_factors = zip(*(import_seconds() for _ in range(IMPORT_REPS)))
    clock = reference.HostClock()
    setup_walls, setup_spans = [], []
    for rep in range(SETUP_REPS):
        gc.collect()
        clock.sample()
        _, wall, span = _timed(clock, lambda: workload.setup(rep))
        setup_walls.append(wall)
        setup_spans.append(span)

    tracer = Tracer() if trace else None
    counters: Dict[str, int] = {}
    passes: List[PassRecord] = []
    for index in range(planned_passes(workload, seconds)):
        gc.collect()
        if tracer is None or index % 2 == 0:
            passes.append(_run_pass(workload, index, None, clock))
            continue
        before = counter_snapshot()
        with installed(tracer):
            workload.tracer = tracer
            try:
                passes.append(_run_pass(workload, index, tracer, clock))
            finally:
                workload.tracer = NULL_TRACER
        for key, value in counter_snapshot().items():
            counters[key] = counters.get(key, 0) + value - before.get(key, 0)

    setup_factors = [clock.factor(start, end) for start, end in setup_spans]
    setup_s = statistics.median(
        wall / factor for wall, factor in zip(import_walls, import_factors)
    ) + statistics.median(wall / factor for wall, factor in zip(setup_walls, setup_factors))
    raw_setup_s = statistics.median(import_walls) + statistics.median(setup_walls)
    for record in passes:
        record.factors = [clock.factor(start, end) for start, end in record.spans]

    all_results = [
        (label, result) for record in passes for label, result in zip(record.labels, record.results)
    ]
    failures = [(label, result.detail) for label, result in all_results if not result.ok]
    untraced = [record for record in passes if not record.traced]
    ref_op_walls = [wall for record in untraced for wall in record.times()]
    summary = workload.summary(all_results)
    ops, seconds_per_pass, instructions = median_pass(untraced)

    e2e = _e2e(untraced, setup_s)
    raw = _e2e(untraced, raw_setup_s, raw=True)
    extra: Dict[str, Dict[str, object]] = {
        "error_rate": {"value": len(failures) / len(all_results), "unit": "ratio"},
    }
    if instructions:
        extra["sim_mips"] = {"value": instructions / seconds_per_pass / 1e6, "unit": "MIPS"}
    extra["op_p50_ms"] = {"value": statistics.median(ref_op_walls) * 1000.0, "unit": "ms"}
    if len(ref_op_walls) >= 10 * TAIL_SAMPLES:
        extra["op_p90_ms"] = {
            "value": statistics.quantiles(ref_op_walls, n=10)[8] * 1000.0,
            "unit": "ms",
        }
    if "sim_overhead_pct" in summary:
        extra["sim_overhead_pct"] = {"value": summary["sim_overhead_pct"], "unit": "%"}
    pass_rows = [
        {
            "index": record.index,
            "traced": record.traced,
            "ops": len(record.walls),
            "host_factor": record.factor,
            "ops_per_s": len(record.walls) / sum(record.times()),
            "raw_ops_per_s": len(record.walls) / sum(record.walls),
            "op_p50_ms": statistics.median(record.times()) * 1000.0,
        }
        for record in passes
    ]

    report: Dict[str, object] = {
        "schema": SCHEMA,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "op_unit": workload.unit,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": len(os.sched_getaffinity(0)),
            "reference_nominal_s": reference.NOMINAL_S,
        },
        "correct": not failures,
        "attempted": len(all_results),
        "failed": len(failures),
        "failures": failures[:20],
        "e2e": {key: {"value": value, "unit": E2E_UNITS[key]} for key, value in e2e.items()},
        "raw": {key: {"value": value, "unit": E2E_UNITS[key]} for key, value in raw.items()},
        "extra": extra,
        "setup": {
            "import_s": import_walls,
            "import_host_factors": import_factors,
            "reps_s": setup_walls,
            "reps_host_factors": setup_factors,
            "build_s": workload.build_s,
        },
        "passes": pass_rows,
        "spread": {
            "ops_per_s": spread([row["ops_per_s"] for row in pass_rows if not row["traced"]]),
            "host_factor": spread([row["host_factor"] for row in pass_rows]),
            "op_ms": spread([wall * 1000.0 for wall in ref_op_walls]),
            "setup_rep_s": spread(setup_walls),
            "import_s": spread(import_walls),
        },
        "samples": {"ops": len(ref_op_walls), "passes": len(untraced)},
        #: Reference seconds of every untraced op, by op kind.
        "kinds": {label: [wall for wall, _ in runs] for label, runs in _by_label(untraced).items()},
    }
    if tracer is not None:
        accounts = SpanTable(tracer.spans).ops()
        unattributed = [1.0 - account["layers_s"] / account["wall_s"] for account in accounts]
        report["layers"] = layer_metrics(tracer, counters, build_s=workload.build_s)
        report["tracing"] = {
            "overhead_pct": tracing_overhead_pct(passes),
            "unattributed_pct": 100.0 * sum(
                account["wall_s"] - account["layers_s"] for account in accounts
            ) / sum(account["wall_s"] for account in accounts),
            "unattributed_max_pct": 100.0 * max(unattributed),
            "spans": len(tracer.spans),
            "traced_ops": len(accounts),
        }
        report["counters"] = counters
    return report, tracer


def result_line(report: Dict[str, object]) -> str:
    """The final stdout line: correctness counts plus the metrics of this
    mode (end-to-end untraced, per-layer traced)."""
    if report["trace"]:
        metrics = {
            key: {"value": report["layers"][key], "unit": unit_of(key)} for key in LAYER_METRICS
        }
    else:
        metrics = report["e2e"]
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics,
        }
    )


def describe(report: Dict[str, object], out=sys.stdout) -> None:
    """Human-readable lines: every metric by name with its unit."""
    print(
        f"r2cbench {report['workload']} seed={report['seed']} "
        f"passes={len(report['passes'])} ops={report['attempted']} ({report['op_unit']}s), "
        f"{report['samples']['ops']} untraced op samples",
        file=out,
    )
    for key, entry in report["e2e"].items():
        raw = report["raw"][key]["value"]
        print(f"  {key:<26} {entry['value']:.6g} {entry['unit']}  (raw {raw:.6g})", file=out)
    for key, entry in report["extra"].items():
        print(f"  {key:<26} {entry['value']:.6g} {entry['unit']}", file=out)
    for key in ("ops_per_s", "host_factor"):
        values = report["spread"][key]
        print(
            f"  per-pass {key:<17} "
            + " ".join(f"{value:.4g}" for value in values["values"])
            + f"  (IQR {100 * values['iqr_share']:.1f}% of median)",
            file=out,
        )
    if "tracing" in report:
        tracing = report["tracing"]
        overhead = tracing["overhead_pct"]
        print(
            f"  tracing: {tracing['spans']} spans over {tracing['traced_ops']} ops, "
            f"overhead {'n/a' if overhead is None else f'{overhead:.2f}%'}, "
            f"unattributed {tracing['unattributed_pct']:.3f}% "
            f"(max op {tracing['unattributed_max_pct']:.3f}%)",
            file=out,
        )
        for key, value in report["layers"].items():
            print(f"  {key:<34} {value:.6g} {unit_of(key)}", file=out)
    for label, detail in report["failures"]:
        print(f"  FAILED {label}: {detail}", file=out)
