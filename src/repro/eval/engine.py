"""The experiment-execution engine: cached, parallel compile/load/run.

The paper's methodology (Section 6.2) multiplies out to thousands of
(benchmark × machine × config × seed) cells, each one "recompile with a
fresh seed, load, run, collect metrics".  Every experiment driver used to
hand-roll that loop serially — recompiling even the unchanged baseline for
every overhead measurement.  This module centralizes the loop:

* :class:`RunRequest` / :class:`RunRecord` — typed request/result pairs.
  A request is fully keyed by (module fingerprint, config digest, machine,
  load seed, budget, heap size); because the simulator is deterministic,
  that key *determines* the record.
* :class:`CompileCache` — content-addressed, in memory and bounded: a
  given (module, config) is compiled once per process (the session's,
  and each pool worker's) while its binary is among the
  :data:`COMPILE_CACHE_CAPACITY` most recently used, however many
  drivers ask for it.
* Executors — a serial in-process path and a ``ProcessPoolExecutor``
  fan-out (``jobs > 1``) over independent cells, with deterministic result
  ordering regardless of completion order.  Requests sharing a compile key
  are grouped onto one worker so no binary is built twice in one batch.
* Observability — every executed run yields a :class:`RunRecord` (JSONL-
  serializable, with wall/compile-time split out from the deterministic
  payload) and the engine aggregates an :class:`EngineSummary` (cache
  hits, compile counts, worker utilization) rendered by
  :mod:`repro.eval.report`.

Identical requests are also deduplicated at the *run* level: the engine
memoizes records by run key, so e.g. the baseline run of a (benchmark,
machine) pair is executed once per session no matter how many overhead
measurements reference it.

Failure tolerance: ``submit`` *always* returns a full, request-ordered
record list.  Every record carries an ``outcome`` — ``ok``, ``fault``
(deterministic guest fault: memory fault, booby trap, allocator OOM,
budget exhaustion), ``timeout`` (wall clock exceeded), or ``error``
(compile failure, worker death, any host-side exception) — with a
``failure`` detail dict instead of an exception crossing the batch
boundary.  The parallel path drains futures as they complete under a
per-future deadline, survives ``BrokenProcessPool`` by rebuilding the pool
with capped exponential backoff and retrying surviving requests one per
future (so a poison request quarantines *itself*, not its batch), and
falls back to serial in-process execution after repeated breakage.  The
:mod:`repro.reliability.faults` plan threads through here to inject every
one of those failure modes on demand (``python -m repro chaos``).
"""

from __future__ import annotations

import atexit
import json
import os
import time
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.compiler import compile_module
from repro.core.config import R2CConfig
from repro.errors import AllocatorError, InjectedFault, MachineError, ReproError
from repro.machine.backends import DEFAULT_BACKEND, get_backend, run
from repro.machine.costs import get_costs
from repro.machine.loader import load_binary
from repro.machine.state import ExecutionResult, MachineState
from repro.obs.tracing import enable_tracing, span, trace_capture, tracing_enabled
from repro.toolchain.binary import Binary
from repro.toolchain.ir import Module

if TYPE_CHECKING:  # avoid an import cycle: reliability imports nothing from eval
    from repro.reliability.faults import FaultPlan

#: (module fingerprint, config digest) — identifies one compilation.
CompileKey = Tuple[str, str]
#: Compile key + (machine, load seed, budget, heap size, attribute_tags,
#: backend) — identifies one deterministic run.  The execution backend is
#: part of the key (two backends are two distinct executions) even though
#: the canonical payload is backend-invariant by construction.
RunKey = Tuple[str, str, str, int, int, int, bool, str]

DEFAULT_INSTRUCTION_BUDGET = 50_000_000
DEFAULT_HEAP_SIZE = 8 * 1024 * 1024


@dataclass
class RunRequest:
    """One cell of an experiment: run ``module`` under ``config``.

    ``label`` is free-form provenance (e.g. ``"figure6/full/mcf"``) carried
    into the record; it does not participate in any cache key.

    ``backend`` selects the machine's execution backend
    (:mod:`repro.machine.backends`).  ``None`` defers to the engine's
    session default; both backends produce identical counters, so the
    choice only affects wall-clock time — but it still participates in the
    run key so measurements from different backends are never conflated.

    ``verify`` runs the :mod:`repro.analysis` checkers over the compiled
    binary and the loaded process before execution, raising
    :class:`~repro.analysis.findings.VerificationError` on any finding.
    Verification is a pure assertion — it cannot change the deterministic
    payload — so, like wall-clock timing, it is *excluded* from the run
    key: a verified record satisfies later unverified requests for the
    same cell.
    """

    module: Module
    config: R2CConfig
    machine: str = "epyc-rome"
    load_seed: int = 1
    instruction_budget: int = DEFAULT_INSTRUCTION_BUDGET
    heap_size: int = DEFAULT_HEAP_SIZE
    attribute_tags: bool = False
    backend: Optional[str] = None
    verify: bool = False
    label: str = ""

    @property
    def compile_key(self) -> CompileKey:
        return (self.module.fingerprint(), self.config.digest())

    @property
    def run_key(self) -> RunKey:
        fingerprint, digest = self.compile_key
        return (
            fingerprint,
            digest,
            self.machine,
            self.load_seed,
            self.instruction_budget,
            self.heap_size,
            self.attribute_tags,
            self.backend or DEFAULT_BACKEND,
        )

#: RunRecord fields that depend on the execution environment, not the
#: (deterministic) request — excluded from canonical comparisons.  The
#: backend belongs here: backends are required to produce identical
#: counters, so canonical payloads compare equal across backends (the
#: differential tests rely on exactly that).
ENVIRONMENT_FIELDS = (
    "compile_seconds",
    "run_seconds",
    "cache_hit",
    "worker",
    "backend",
    "verified",
    # Trace spans carry wall-clock durations, so they are environmental by
    # definition even though the span *tree* is deterministic.
    "spans",
)


#: Valid RunRecord.outcome states.  ``ok`` and ``fault`` are deterministic
#: (a guest fault replays identically on both backends, so fault records
#: are cached and compared canonically); ``timeout`` and ``error`` are
#: environmental and never enter the run cache.
OUTCOMES = ("ok", "fault", "timeout", "error")

#: Outcomes the engine may serve from the run cache.
CACHEABLE_OUTCOMES = ("ok", "fault")


@dataclass
class RunRecord:
    """The full, JSONL-serializable result of one executed request."""

    label: str
    module_fingerprint: str
    config_digest: str
    machine: str
    seed: int
    load_seed: int
    instruction_budget: int
    heap_size: int
    cycles: float
    instructions: int
    calls: int
    max_rss: int
    icache_misses: int
    exit_code: int
    output: Tuple[int, ...]
    text_bytes: int
    instruction_count: int
    tag_cycles: Optional[Dict[str, float]] = None
    #: Canonical and backend-invariant like ``icache_misses``; defaulted so
    #: JSONL written before this field existed still loads.
    icache_hits: int = 0
    #: ``ok | fault | timeout | error`` — see :data:`OUTCOMES`.
    outcome: str = "ok"
    #: Failure detail for non-ok outcomes: ``{"class", "rule", "message"}``
    #: (``rule`` names the FaultPlan rule when injection caused it).
    failure: Optional[Dict[str, str]] = None
    backend: str = DEFAULT_BACKEND
    verified: bool = False
    compile_seconds: float = 0.0
    run_seconds: float = 0.0
    cache_hit: bool = False
    worker: int = 0
    #: Trace spans captured while executing this request (exported
    #: :class:`repro.obs.tracing.Span` dicts), shipped back from pool
    #: workers; ``None`` unless tracing was enabled.
    spans: Optional[List[Dict[str, object]]] = None

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    def canonical(self) -> Dict[str, object]:
        """The deterministic payload: everything except timing/worker."""
        data = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ENVIRONMENT_FIELDS
        }
        data["output"] = list(self.output)
        return data

    def canonical_json(self) -> str:
        return json.dumps(self.canonical(), sort_keys=True)

    def to_json(self) -> str:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["output"] = list(self.output)
        return json.dumps(data, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "RunRecord":
        data = json.loads(line)
        # Forward compatibility: JSONL written by a newer schema may carry
        # fields this build does not know; drop them instead of raising
        # TypeError so old readers keep working across schema growth.
        known = {f.name for f in fields(cls)}
        data = {key: value for key, value in data.items() if key in known}
        data["output"] = tuple(data.get("output", ()))
        return cls(**data)


def write_records(records: Iterable[RunRecord], path: str) -> int:
    """Append ``records`` to ``path`` as JSON Lines; returns the count."""
    count = 0
    with open(path, "a", encoding="utf-8") as handle:
        for record in records:
            handle.write(record.to_json() + "\n")
            count += 1
    return count


def read_records(path: str) -> List[RunRecord]:
    with open(path, "r", encoding="utf-8") as handle:
        return [RunRecord.from_json(line) for line in handle if line.strip()]


#: Binaries a :class:`CompileCache` keeps.  Every hit of ``all --quick``
#: lies within 59 binaries of the key's previous use, while a seed sweep
#: or a re-randomizing fleet compiles a new binary per cell or generation
#: and never asks for an old one again.
COMPILE_CACHE_CAPACITY = 64


class CompileCache:
    """Content-addressed (module fingerprint, config digest) -> Binary,
    least recently used first.  A hit refreshes the key's recency; a
    compile past :data:`COMPILE_CACHE_CAPACITY` evicts the least recently
    used binary (``evictions``), which a later request compiles again."""

    def __init__(self) -> None:
        self._entries: OrderedDict[CompileKey, Binary] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.compile_seconds = 0.0
        #: How many times each key was actually compiled in this process:
        #: 1, or more when the key was evicted and requested again.
        self.compile_counts: Dict[CompileKey, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_compile(self, module: Module, config: R2CConfig) -> Tuple[Binary, float, bool]:
        """Return (binary, compile_seconds, was_cache_hit)."""
        key = (module.fingerprint(), config.digest())
        binary = self._entries.get(key)
        if binary is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return binary, 0.0, True
        started = time.perf_counter()
        binary = compile_module(module, config)
        elapsed = time.perf_counter() - started
        self._entries[key] = binary
        if len(self._entries) > COMPILE_CACHE_CAPACITY:
            self._entries.popitem(last=False)
            self.evictions += 1
        self.misses += 1
        self.compile_seconds += elapsed
        self.compile_counts[key] = self.compile_counts.get(key, 0) + 1
        return binary, elapsed, False


def _failure_record(
    request: RunRequest,
    *,
    outcome: str,
    fault_class: str,
    rule: str = "",
    message: str = "",
) -> RunRecord:
    """A zero-counter record for a request that never produced a result."""
    fingerprint, digest = request.compile_key
    return RunRecord(
        label=request.label,
        module_fingerprint=fingerprint,
        config_digest=digest,
        machine=request.machine,
        seed=request.config.seed,
        load_seed=request.load_seed,
        instruction_budget=request.instruction_budget,
        heap_size=request.heap_size,
        cycles=0.0,
        instructions=0,
        calls=0,
        max_rss=0,
        icache_misses=0,
        exit_code=-1,
        output=(),
        text_bytes=0,
        instruction_count=0,
        tag_cycles=None,
        outcome=outcome,
        failure={"class": fault_class, "rule": rule, "message": message},
        backend=request.backend or DEFAULT_BACKEND,
        verified=False,
        worker=os.getpid(),
    )


def _execute_request(
    cache: CompileCache, request: RunRequest, plan: Optional["FaultPlan"] = None
) -> RunRecord:
    """Compile (through ``cache``), load, run; collect the full record.

    With tracing enabled, the spans completed while executing this
    request (cache probe, compile, load, verify, run) are captured and
    attached to the record — pool workers ship them back this way.
    """
    with trace_capture() as capture:
        record = _execute_request_phases(cache, request, plan)
    if tracing_enabled():
        record.spans = capture.to_dicts()
    return record


def _execute_request_phases(
    cache: CompileCache, request: RunRequest, plan: Optional["FaultPlan"] = None
) -> RunRecord:
    """The phase sequence of one request, each behind a trace span.

    Guest faults (memory faults, booby traps, allocator OOM, budget
    exhaustion) are deterministic outcomes of the request, not host
    errors: they are captured into an ``outcome="fault"`` record that
    keeps the partial counters accumulated up to the faulting
    instruction.  Host-side failures still raise — the guarded wrapper
    turns those into ``error`` records.
    """
    label = request.label
    if plan is not None:
        compile_rule = plan.rule_of_kind(label, "compile-error")
        if compile_rule is not None:
            raise InjectedFault("compile-error", compile_rule.rule_id)
    with span("engine/cache-probe", "engine", label=label) as probe:
        binary, compile_seconds, cache_hit = cache.get_or_compile(
            request.module, request.config
        )
        probe.set(hit=cache_hit)
    backend = request.backend or DEFAULT_BACKEND
    if request.verify:
        from repro.analysis import verify_binary

        with span("engine/verify-binary", "engine"):
            verify_binary(binary, target=request.label or None).raise_if_findings()
    started = time.perf_counter()
    with span("engine/load", "engine", seed=request.load_seed):
        process = load_binary(
            binary, seed=request.load_seed, heap_size=request.heap_size
        )
    if request.verify:
        from repro.analysis import verify_loaded

        with span("engine/verify-process", "engine"):
            verify_loaded(process, target=request.label or None).raise_if_findings()
    process.register_service("attack_hook", lambda proc, cpu: 0)
    if plan is not None:
        plan.apply_process_faults(process, request)
    state = MachineState(
        process,
        get_costs(request.machine),
        instruction_budget=request.instruction_budget,
        attribute_tags=request.attribute_tags,
    )
    result = ExecutionResult()
    outcome = "ok"
    failure: Optional[Dict[str, str]] = None
    with span("engine/run", "engine", backend=backend):
        try:
            # Passing the result in keeps the partial counters on a fault.
            run(state, backend, result)
        except (MachineError, AllocatorError) as exc:
            outcome = "fault"
            rule_id = ""
            if plan is not None:
                kind = "alloc-oom" if isinstance(exc, AllocatorError) else "bitflip"
                matched = plan.rule_of_kind(label, kind)
                rule_id = matched.rule_id if matched is not None else ""
            failure = {"class": type(exc).__name__, "rule": rule_id, "message": str(exc)}
    process.note_resident()
    run_seconds = time.perf_counter() - started
    fingerprint, digest = request.compile_key
    return RunRecord(
        label=request.label,
        module_fingerprint=fingerprint,
        config_digest=digest,
        machine=request.machine,
        seed=request.config.seed,
        load_seed=request.load_seed,
        instruction_budget=request.instruction_budget,
        heap_size=request.heap_size,
        cycles=result.cycles,
        instructions=result.instructions,
        calls=result.calls,
        max_rss=process.max_rss,
        icache_misses=result.icache_misses,
        icache_hits=result.icache_hits,
        exit_code=result.exit_code if outcome == "ok" else -1,
        output=tuple(result.output),
        text_bytes=binary.text_size,
        instruction_count=binary.instruction_count(),
        tag_cycles=dict(result.tag_cycles) if request.attribute_tags else None,
        outcome=outcome,
        failure=failure,
        backend=backend,
        verified=request.verify,
        compile_seconds=compile_seconds,
        run_seconds=run_seconds,
        cache_hit=cache_hit,
        worker=os.getpid(),
    )


#: True inside pool worker processes (set by the pool initializer) — the
#: worker-crash/hang injections only take real effect where killing or
#: stalling the process cannot take the host session down with it.
_IN_POOL_WORKER = False


def _mark_pool_worker() -> None:
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True


def _execute_request_guarded(
    cache: CompileCache, request: RunRequest, plan: Optional["FaultPlan"] = None
) -> RunRecord:
    """Execute one request; *never* raises.

    Injected worker faults are handled first: a ``worker-crash`` rule
    hard-kills a pool worker (the engine's BrokenProcessPool recovery is
    what is under test) but records an ``error`` in-process; a
    ``worker-hang`` rule sleeps in a pool worker (the engine's deadline
    fires) but records a ``timeout`` in-process.  Everything else funnels
    through :func:`_execute_request`, with host-side exceptions converted
    to ``error`` records.
    """
    if plan is not None:
        label = request.label
        crash = plan.rule_of_kind(label, "worker-crash")
        if crash is not None:
            if _IN_POOL_WORKER:
                os._exit(17)
            return _failure_record(
                request,
                outcome="error",
                fault_class="worker-crash",
                rule=crash.rule_id,
                message="injected worker crash (recorded in-process)",
            )
        hang = plan.rule_of_kind(label, "worker-hang")
        if hang is not None:
            if _IN_POOL_WORKER:
                time.sleep(hang.hang_seconds)
            else:
                return _failure_record(
                    request,
                    outcome="timeout",
                    fault_class="worker-hang",
                    rule=hang.rule_id,
                    message=f"injected {hang.hang_seconds:g}s hang (serial mode: "
                    "recorded as timeout)",
                )
    try:
        return _execute_request(cache, request, plan)
    except InjectedFault as exc:
        return _failure_record(
            request,
            outcome="error",
            fault_class=exc.kind,
            rule=exc.rule_id,
            message=str(exc),
        )
    except ReproError as exc:
        return _failure_record(
            request, outcome="error", fault_class=type(exc).__name__, message=str(exc)
        )


#: Per-worker-process compile cache (workers are long-lived, so binaries
#: built for one batch are reused by later batches dispatched to them).
_WORKER_CACHE: Optional[CompileCache] = None


def _worker_execute_group(
    group: List[Tuple[int, RunRequest]],
    plan: Optional["FaultPlan"] = None,
    trace: bool = False,
) -> List[Tuple[int, RunRecord]]:
    global _WORKER_CACHE
    if _WORKER_CACHE is None:
        _WORKER_CACHE = CompileCache()
    if trace and not tracing_enabled():
        # The parent enabled tracing after this worker was forked (or the
        # pool spawned fresh): mirror the flag so the request spans exist
        # to ship back through RunRecord.spans.
        enable_tracing(True)
    return [
        (index, _execute_request_guarded(_WORKER_CACHE, request, plan))
        for index, request in group
    ]


@dataclass
class FailureSummary:
    """Counts of everything that did not go to plan, by taxonomy level."""

    #: Records with ``outcome != "ok"``.
    failures: int = 0
    by_outcome: Dict[str, int] = field(default_factory=dict)
    #: Exception / fault class (``GuardPageFault``, ``worker-crash``, ...).
    by_class: Dict[str, int] = field(default_factory=dict)
    #: FaultPlan rule IDs, for injected failures.
    by_rule: Dict[str, int] = field(default_factory=dict)
    pool_rebuilds: int = 0
    quarantined: int = 0
    serial_fallbacks: int = 0

    @property
    def clean(self) -> bool:
        return self.failures == 0 and self.pool_rebuilds == 0

    def count(self, record: "RunRecord") -> None:
        if record.outcome == "ok":
            return
        self.failures += 1
        self.by_outcome[record.outcome] = self.by_outcome.get(record.outcome, 0) + 1
        detail = record.failure or {}
        klass = detail.get("class", "unknown")
        self.by_class[klass] = self.by_class.get(klass, 0) + 1
        rule = detail.get("rule", "")
        if rule:
            self.by_rule[rule] = self.by_rule.get(rule, 0) + 1


@dataclass
class EngineSummary:
    """Session-level engine counters, rendered by ``report.render_engine_summary``."""

    jobs: int
    batches: int
    requested: int
    executed: int
    run_cache_hits: int
    #: Executed records whose binary came from (or was built into) the
    #: compile cache of the process that ran them; failure records, which
    #: carry no binary, count in neither.  Each pool worker keeps its own
    #: cache, so under ``jobs > 1`` these two depend on which process ran
    #: what: one binary may be compiled in several.
    compile_cache_hits: int
    compiles: int
    #: Distinct (module, config) binaries the executed records ran —
    #: independent of ``jobs`` and of the order work reached the workers.
    distinct_binaries: int
    compile_seconds: float
    run_seconds: float
    worker_runs: Dict[int, int] = field(default_factory=dict)
    backend: str = DEFAULT_BACKEND
    failures: FailureSummary = field(default_factory=FailureSummary)

    @property
    def workers(self) -> int:
        return len(self.worker_runs)


#: Pool breakage is retried with capped exponential backoff (the n-th
#: rebuild waits ``min(POOL_BACKOFF_CAP, POOL_BACKOFF_BASE * 2**(n-1))``
#: seconds) at most ``MAX_POOL_REBUILDS`` times per batch before the
#: engine falls back to serial in-process execution; a request that
#: breaks the pool more than ``MAX_REQUEST_RETRIES`` times is quarantined
#: with an ``error`` record.  Read at use time, so a test can patch them.
MAX_POOL_REBUILDS = 3
MAX_REQUEST_RETRIES = 2
POOL_BACKOFF_BASE = 0.05
POOL_BACKOFF_CAP = 1.0


def _backoff(rebuilds: int) -> None:
    delay = min(POOL_BACKOFF_CAP, POOL_BACKOFF_BASE * (2 ** (rebuilds - 1)))
    if delay > 0:
        time.sleep(delay)


class ExperimentEngine:
    """Executes batches of :class:`RunRequest` with caching and fan-out.

    ``jobs == 1`` runs everything in-process; ``jobs > 1`` fans
    independent cells out over a persistent ``ProcessPoolExecutor``.
    Results always come back in request order.

    ``backend`` is the session default execution backend, applied to every
    request that does not name one itself (``RunRequest.backend=None``).

    ``fault_plan`` threads a :class:`repro.reliability.faults.FaultPlan`
    through every execution (serial and worker-side); ``timeout`` is the
    per-future wall-clock deadline in seconds (``None`` = wait forever).
    Pool breakage is retried, then survived by serial fallback and
    quarantine (see :data:`MAX_POOL_REBUILDS`).
    """

    def __init__(
        self,
        jobs: int = 1,
        backend: str = DEFAULT_BACKEND,
        *,
        fault_plan: Optional["FaultPlan"] = None,
        timeout: Optional[float] = None,
    ):
        get_backend(backend)  # fail fast on unknown names
        self.backend = backend
        self.jobs = max(1, int(jobs))
        self.fault_plan = fault_plan
        self.timeout = timeout
        self.cache = CompileCache()
        self.records: List[RunRecord] = []
        self._run_cache: Dict[RunKey, RunRecord] = {}
        self._run_cache_hits = 0
        self._requested = 0
        self._batches = 0
        self._pool_rebuilds = 0
        self._quarantined = 0
        self._serial_fallbacks = 0
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if self._pool is not None:
            try:
                self._pool.shutdown()
            except Exception:  # a broken pool may refuse a clean shutdown
                pass
            self._pool = None

    def _discard_pool(self, *, terminate: bool) -> None:
        """Drop the worker pool (broken or holding hung workers).

        ``terminate=True`` additionally kills the worker processes — after
        a timeout they may be stuck in an injected (or real) hang and
        would never drain a cooperative shutdown.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if terminate:
            for process in list(getattr(pool, "_processes", {}).values()):
                try:
                    process.terminate()
                except Exception:
                    pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution ----------------------------------------------------------

    def run(self, request: RunRequest) -> RunRecord:
        return self.submit([request])[0]

    def submit(self, requests: Sequence[RunRequest]) -> List[RunRecord]:
        """Execute a batch; returns records in request order.

        Requests whose run key was already executed this session (or that
        appear more than once in the batch) are served from the run cache.
        """
        self._batches += 1
        self._requested += len(requests)
        if self.backend != DEFAULT_BACKEND:
            requests = [
                request
                if request.backend is not None
                else replace(request, backend=self.backend)
                for request in requests
            ]
        results: List[Optional[RunRecord]] = [None] * len(requests)
        pending: Dict[RunKey, List[int]] = {}
        order: List[RunKey] = []
        for position, request in enumerate(requests):
            key = self._effective_run_key(request)
            cached = self._run_cache.get(key)
            if cached is not None:
                self._run_cache_hits += 1
                results[position] = cached
            else:
                if key not in pending:
                    order.append(key)
                pending.setdefault(key, []).append(position)
        # Duplicates inside the batch count as run-cache hits too.
        self._run_cache_hits += sum(len(p) - 1 for p in pending.values())

        unique = [(key, requests[pending[key][0]]) for key in order]
        if self.jobs == 1 or len(unique) <= 1:
            executed = [
                (key, _execute_request_guarded(self.cache, request, self.fault_plan))
                for key, request in unique
            ]
        else:
            executed = self._submit_parallel(unique)

        for key, record in executed:
            # Timeouts and host errors are environmental — rerunning the
            # same key may well succeed, so only deterministic outcomes
            # enter the run cache.
            if record.outcome in CACHEABLE_OUTCOMES:
                self._run_cache[key] = record
            self.records.append(record)
            for position in pending[key]:
                results[position] = record
        assert all(record is not None for record in results)
        return results  # type: ignore[return-value]

    def _effective_run_key(self, request: RunRequest) -> RunKey:
        """The run key, extended with the fault-injection signature.

        Labels do not participate in the plain run key, but fault rules
        match on labels — without the extension, a clean request and a
        fault-injected request for the same cell would alias in the run
        cache.
        """
        key = request.run_key
        if self.fault_plan is not None:
            signature = self.fault_plan.injection_signature(request.label)
            if signature is not None:
                return key + signature  # type: ignore[return-value]
        return key

    def _submit_parallel(
        self, unique: List[Tuple[RunKey, RunRequest]]
    ) -> List[Tuple[RunKey, RunRecord]]:
        """Fan unique requests out to worker processes; never raises.

        Requests sharing a compile key form one work item, so each binary
        is compiled at most once per batch, by the worker that runs it.
        Futures are drained as they complete (one slow compile group no
        longer serializes the rest) under a per-future wall-clock
        deadline.  A ``BrokenProcessPool`` rebuilds the pool with capped
        exponential backoff and re-submits the surviving requests one per
        future, so a poison request ends up quarantined alone; repeated
        breakage falls back to serial in-process execution.  Request
        order is restored by the final index sort regardless of
        completion order.
        """
        plan = self.fault_plan
        groups: Dict[CompileKey, List[Tuple[int, RunRequest]]] = {}
        solo: List[List[Tuple[int, RunRequest]]] = []
        for index, (_, request) in enumerate(unique):
            if plan is not None and (
                plan.rule_of_kind(request.label, "worker-crash") is not None
                or plan.rule_of_kind(request.label, "worker-hang") is not None
            ):
                # A request armed to kill or stall its worker gets a future
                # of its own, so the blast radius excludes its compile
                # group (groupmates would otherwise starve behind it).
                solo.append([(index, request)])
            else:
                groups.setdefault(request.compile_key, []).append((index, request))
        records: Dict[int, RunRecord] = {}
        attempts: Dict[int, int] = {}
        items: List[List[Tuple[int, RunRequest]]] = list(groups.values()) + solo
        rebuilds = 0
        while items:
            if rebuilds > MAX_POOL_REBUILDS:
                # The pool keeps dying: run what is left in-process.  The
                # guarded executor records injected worker crashes instead
                # of honouring them, so this path always terminates.
                self._serial_fallbacks += 1
                for item in items:
                    for index, request in item:
                        records[index] = _execute_request_guarded(
                            self.cache, request, plan
                        )
                break
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs, initializer=_mark_pool_worker
                )
            try:
                fmap = {
                    self._pool.submit(
                        _worker_execute_group, item, plan, tracing_enabled()
                    ): item
                    for item in items
                }
            except BrokenProcessPool:
                rebuilds += 1
                self._pool_rebuilds += 1
                self._discard_pool(terminate=False)
                _backoff(rebuilds)
                continue
            items = []
            deadline = None if self.timeout is None else time.monotonic() + self.timeout
            broke = False
            outstanding = set(fmap)
            while outstanding:
                remaining = (
                    None
                    if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                done, outstanding = wait(
                    outstanding, timeout=remaining, return_when=FIRST_COMPLETED
                )
                for future in done:
                    item = fmap[future]
                    try:
                        for index, record in future.result():
                            records[index] = record
                    except BrokenProcessPool:
                        broke = True
                    except Exception as exc:  # pragma: no cover — defensive
                        for index, request in item:
                            records[index] = _failure_record(
                                request,
                                outcome="error",
                                fault_class=type(exc).__name__,
                                message=str(exc),
                            )
                if broke:
                    break
                if not done and outstanding:
                    # Deadline expired: everything unfinished is hung (or
                    # starved behind a hang).  Record timeouts, kill the
                    # workers, and let the next batch start a fresh pool.
                    for future in outstanding:
                        for index, request in fmap[future]:
                            records[index] = self._timeout_record(request)
                    self._discard_pool(terminate=True)
                    outstanding = set()
            if broke:
                rebuilds += 1
                self._pool_rebuilds += 1
                self._discard_pool(terminate=False)
                _backoff(rebuilds)
                # Retry survivors one request per future: the next breakage
                # then identifies poison requests individually.  A pool
                # break takes down every in-flight future, so strikes must
                # be attributed: if a known worker-killer (a request armed
                # with a worker-crash fault) was still unfinished, the
                # break is its fault and bystanders are requeued without a
                # strike; only with no known suspect does everyone
                # unfinished take one (the organic-crash case, where the
                # culprit is unknowable from outside the dead worker).
                unfinished = [
                    (index, request)
                    for item in fmap.values()
                    for index, request in item
                    if index not in records
                ]
                suspects = {
                    index
                    for index, request in unfinished
                    if plan is not None
                    and plan.rule_of_kind(request.label, "worker-crash") is not None
                }
                for index, request in unfinished:
                    if suspects and index not in suspects:
                        items.append([(index, request)])
                        continue
                    attempts[index] = attempts.get(index, 0) + 1
                    if attempts[index] > MAX_REQUEST_RETRIES:
                        self._quarantined += 1
                        records[index] = self._quarantine_record(request)
                    else:
                        items.append([(index, request)])
        ordered = sorted(records.items())
        return [(unique[index][0], record) for index, record in ordered]

    def _timeout_record(self, request: RunRequest) -> RunRecord:
        hang = (
            self.fault_plan.rule_of_kind(request.label, "worker-hang")
            if self.fault_plan is not None
            else None
        )
        return _failure_record(
            request,
            outcome="timeout",
            fault_class="worker-hang" if hang is not None else "timeout",
            rule=hang.rule_id if hang is not None else "",
            message=f"exceeded {self.timeout:g}s wall-clock deadline",
        )

    def _quarantine_record(self, request: RunRequest) -> RunRecord:
        crash = (
            self.fault_plan.rule_of_kind(request.label, "worker-crash")
            if self.fault_plan is not None
            else None
        )
        return _failure_record(
            request,
            outcome="error",
            fault_class="worker-crash" if crash is not None else "worker-lost",
            rule=crash.rule_id if crash is not None else "",
            message="worker died repeatedly running this request; quarantined",
        )

    # -- observability ------------------------------------------------------

    def write_records(self, path: str) -> int:
        """Write every record executed so far to ``path`` as JSONL."""
        return write_records(self.records, path)

    def compile_count(self, module: Module, config: R2CConfig) -> int:
        """How many times this exact (module, config) was compiled in
        this process: more than once only when its binary was evicted
        from the compile cache in between."""
        return self.cache.compile_counts.get(
            (module.fingerprint(), config.digest()), 0
        )

    def summary(self) -> EngineSummary:
        worker_runs: Dict[int, int] = {}
        compile_hits = 0
        compiles = 0
        compile_seconds = 0.0
        run_seconds = 0.0
        failures = FailureSummary(
            pool_rebuilds=self._pool_rebuilds,
            quarantined=self._quarantined,
            serial_fallbacks=self._serial_fallbacks,
        )
        binaries: Set[CompileKey] = set()
        for record in self.records:
            worker_runs[record.worker] = worker_runs.get(record.worker, 0) + 1
            if record.text_bytes:  # failure records carry no binary
                binaries.add((record.module_fingerprint, record.config_digest))
                if record.cache_hit:
                    compile_hits += 1
                else:
                    compiles += 1
            compile_seconds += record.compile_seconds
            run_seconds += record.run_seconds
            failures.count(record)
        return EngineSummary(
            jobs=self.jobs,
            batches=self._batches,
            requested=self._requested,
            executed=len(self.records),
            run_cache_hits=self._run_cache_hits,
            compile_cache_hits=compile_hits,
            compiles=compiles,
            distinct_binaries=len(binaries),
            compile_seconds=compile_seconds,
            run_seconds=run_seconds,
            worker_runs=worker_runs,
            backend=self.backend,
            failures=failures,
        )


class RequestBatch:
    """Build a keyed batch, submit once, read results back by key.

    The drivers' idiom::

        batch = RequestBatch(engine)
        batch.add(("full", name, seed), RunRequest(...))
        results = batch.run()
        results.median(("full", name, seed), "cycles")
    """

    def __init__(self, engine: ExperimentEngine):
        self.engine = engine
        self.requests: List[RunRequest] = []
        self._slots: Dict[object, List[int]] = {}

    def add(self, key: object, request: RunRequest) -> None:
        self._slots.setdefault(key, []).append(len(self.requests))
        self.requests.append(request)

    def run(self) -> "BatchResults":
        return BatchResults(self.engine.submit(self.requests), self._slots)


class BatchResults:
    def __init__(self, records: List[RunRecord], slots: Dict[object, List[int]]):
        self._records = records
        self._slots = slots

    def records(self, key: object) -> List[RunRecord]:
        return [self._records[position] for position in self._slots[key]]

    def record(self, key: object) -> RunRecord:
        positions = self._slots[key]
        if len(positions) != 1:
            raise KeyError(f"{key!r} has {len(positions)} records, expected 1")
        return self._records[positions[0]]

    def median(self, key: object, metric: str = "cycles") -> float:
        from repro.eval.stats import median

        return median([getattr(record, metric) for record in self.records(key)])


# ---------------------------------------------------------------------------
# The session engine: one shared cache/pool per process by default.
# ---------------------------------------------------------------------------

_SESSION_ENGINE: Optional[ExperimentEngine] = None


def get_session_engine() -> ExperimentEngine:
    """The process-wide default engine (serial unless reconfigured)."""
    global _SESSION_ENGINE
    if _SESSION_ENGINE is None:
        _SESSION_ENGINE = ExperimentEngine(jobs=1)
    return _SESSION_ENGINE


def set_session_engine(engine: ExperimentEngine) -> ExperimentEngine:
    """Install ``engine`` as the process-wide default; returns it.

    The engine it replaces is closed — its worker pool, if any, would
    otherwise leak until interpreter exit.
    """
    global _SESSION_ENGINE
    previous = _SESSION_ENGINE
    if previous is not None and previous is not engine:
        previous.close()
    _SESSION_ENGINE = engine
    return engine


@atexit.register
def _close_session_engine() -> None:
    """Last-resort cleanup for the session engine's worker pool."""
    if _SESSION_ENGINE is not None:
        _SESSION_ENGINE.close()
