"""The fleet scheduler: virtual-clock serving with robustness invariants.

:class:`Fleet` runs a discrete-event simulation over a virtual clock.
Requests are submitted with arrival times (:meth:`Fleet.submit`), and
:meth:`Fleet.run` drains the event heap: admission, dispatch, hedging,
deadlines, crashes, hangs, warm spares, and MARDU-style rolling
re-randomization are all events keyed ``(time, seq)`` — the sequence
number makes simultaneous events deterministic, and all randomness comes
from seeded :class:`~repro.rng.DiversityRng` children, so two runs with
the same seed produce bit-identical metrics on every backend.

The robustness contract, by construction:

* **no silent drops** — every submitted request resolves to exactly one
  typed :class:`FleetOutcome`; shedding is the explicit ``REJECTED``
  outcome, never a vanished request (:meth:`Fleet.run` raises if any
  request is left unresolved);
* **bounded admission** — a token bucket plus a bounded queue shed load
  *at arrival*, so overload degrades service latency for nobody who was
  admitted;
* **deadlines + hedged retry** — an admitted request that is still
  pending at ``hedge_after_seconds`` is hedged to an idle sibling (first
  completion wins); one still pending at ``deadline_seconds`` resolves
  ``TIMED_OUT``;
* **crash containment** — a guest fault resolves that request ``FAULT``
  (the R2C story: the attack became a fault) and takes the worker
  through the supervisor's capped-backoff restart schedule; a killed or
  hung worker's in-flight request is re-enqueued at the queue head and
  completes ``DEGRADED``;
* **quarantine + warm spares** — a flapping slot leaves rotation and is
  replaced from the shared compile cache (a cache hit makes the spare
  warm — activation costs a swap, not a compile);
* **zero-downtime re-randomization** — the next generation compiles in
  the background, the worker drains between requests, and the swap
  window is measured, never guessed.
"""

from __future__ import annotations

import enum
import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import InjectedFault
from repro.fleet.workers import FleetWorker, WorkerState
from repro.obs.tracing import span
from repro.rng import DiversityRng

__all__ = ["ChaosSpec", "Fleet", "FleetOutcome", "FleetStats", "TokenBucket"]


class FleetOutcome(str, enum.Enum):
    """The five typed resolutions every request ends in."""

    #: Served first try, within deadline.
    OK = "ok"
    #: Served, but only after a hedge or a crash-retry.
    DEGRADED = "degraded"
    #: The request was an attack probe; diversity turned it into a guest
    #: fault (and the worker was restarted).
    FAULT = "fault"
    #: Shed at admission (token bucket or queue bound) — explicit, typed,
    #: never silent.
    REJECTED = "rejected"
    #: Admitted but still unresolved at the deadline.
    TIMED_OUT = "timed-out"


@dataclass
class FleetRequest:
    """One request's lifecycle bookkeeping."""

    request_id: int
    arrival: float
    outcome: Optional[FleetOutcome] = None
    start: Optional[float] = None
    finish: Optional[float] = None
    retries: int = 0
    hedged: bool = False
    hedge_scheduled: bool = False
    #: Worker slots this request was dispatched to (original + hedge).
    workers: List[int] = field(default_factory=list)
    #: Live dispatches (original and/or hedge still running).
    inflight: int = 0
    #: Chaos marked this arrival as an attack probe.
    is_attack: bool = False

    @property
    def done(self) -> bool:
        return self.outcome is not None

    @property
    def latency(self) -> float:
        if self.finish is None:
            raise RuntimeError(f"request {self.request_id} never resolved")
        return self.finish - self.arrival


class TokenBucket:
    """Virtual-clock token bucket: ``rate`` tokens/sec, ``burst`` deep."""

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self._stamp = 0.0

    def admit(self, now: float) -> bool:
        self.tokens = min(self.burst, self.tokens + (now - self._stamp) * self.rate)
        self._stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass
class ChaosSpec:
    """Fleet-scoped chaos: seeded, fractional, and always survivable.

    ``kill_fraction`` / ``hang_fraction`` of workers are killed / hung at
    seeded times (``kill_waves`` / ``hang_waves`` rounds spread across
    the run); ``attack_fraction`` of arrivals are attack probes that
    fault their worker; every ``compile_fault_every``-th background
    build's first attempt raises an
    :class:`~repro.errors.InjectedFault` compile error.
    """

    kill_fraction: float = 0.25
    hang_fraction: float = 0.25
    attack_fraction: float = 0.02
    compile_fault_every: int = 2
    kill_waves: int = 2
    hang_waves: int = 1


@dataclass
class FleetStats:
    """Counters the serving report aggregates."""

    arrivals: int = 0
    outcomes: Dict[str, int] = field(
        default_factory=lambda: {outcome.value: 0 for outcome in FleetOutcome}
    )
    shed: int = 0
    retries: int = 0
    hedges: int = 0
    restarts: int = 0
    swaps: int = 0
    rerand_skipped: int = 0
    quarantines: int = 0
    spare_activations: int = 0
    kills: int = 0
    hangs: int = 0
    hang_detections: int = 0
    compile_faults: int = 0

    @property
    def resolved(self) -> int:
        return sum(self.outcomes.values())

    @property
    def served(self) -> int:
        return self.outcomes["ok"] + self.outcomes["degraded"]


class Fleet:
    """The ``submit()`` front-end over a pool of supervised workers."""

    def __init__(
        self,
        workers: List[FleetWorker],
        *,
        seed: int = 0,
        deadline_seconds: float = 0.1,
        hedge_after_seconds: Optional[float] = 0.03,
        max_queue: int = 64,
        bucket_rate: float = 500.0,
        bucket_burst: float = 32.0,
        rerand_interval: Optional[float] = None,
        compile_seconds: float = 0.05,
        swap_seconds: float = 0.002,
        hang_detect_seconds: float = 0.05,
        chaos: Optional[ChaosSpec] = None,
    ) -> None:
        if not workers:
            raise ValueError("a fleet needs at least one worker")
        self.workers = workers
        self.deadline_seconds = deadline_seconds
        self.hedge_after_seconds = hedge_after_seconds
        self.max_queue = max_queue
        self.bucket = TokenBucket(bucket_rate, bucket_burst)
        self.rerand_interval = rerand_interval
        self.compile_seconds = compile_seconds
        self.swap_seconds = swap_seconds
        self.hang_detect_seconds = hang_detect_seconds
        self.chaos = chaos

        rng = DiversityRng(seed).child("fleet")
        self._jitter = rng.child("service")
        self._attack_rng = rng.child("attack")
        self._chaos_rng = rng.child("chaos")

        self.stats = FleetStats()
        self.requests: List[FleetRequest] = []
        self._queue: Deque[int] = deque()
        self._events: List[Tuple[float, int, str, tuple]] = []
        self._seq = 0
        self._rr = 0
        self._builds = 0
        #: (begin, end) of every completed swap's drain+swap window.
        self.swap_windows: List[Tuple[float, float]] = []
        self._swap_begin: Dict[int, float] = {}
        #: Virtual times a slot's layout changed (swap or spare).
        self.layout_changes: List[float] = []
        self.now = 0.0

        self._handlers = {
            "arrival": self._handle_arrival,
            "deadline": self._handle_deadline,
            "complete": self._handle_complete,
            "hedge": self._handle_hedge,
            "worker-up": self._handle_worker_up,
            "rerand": self._handle_rerand,
            "swap-ready": self._handle_swap_ready,
            "swap-done": self._handle_swap_done,
            "spare": self._handle_spare,
            "kill": self._handle_kill,
            "hang": self._handle_hang,
            "hang-detect": self._handle_hang_detect,
        }

    # -- scheduling primitives ----------------------------------------------

    def _push(self, at: float, kind: str, payload: tuple = ()) -> None:
        heapq.heappush(self._events, (at, self._seq, kind, payload))
        self._seq += 1

    def submit(self, arrival: float) -> int:
        """Enqueue one request for arrival at virtual time ``arrival``."""
        request = FleetRequest(request_id=len(self.requests), arrival=arrival)
        if self.chaos is not None and self.chaos.attack_fraction > 0:
            request.is_attack = self._attack_rng.random() < self.chaos.attack_fraction
        self.requests.append(request)
        self._push(arrival, "arrival", (request.request_id,))
        return request.request_id

    def schedule_rerandomization(self, duration: float) -> None:
        """MARDU-style rolling waves: each worker re-randomizes once per
        ``rerand_interval``, slots staggered across the interval so only
        one worker is ever draining at a time."""
        if not self.rerand_interval:
            return
        count = len(self.workers)
        stagger = self.rerand_interval / count
        wave = 0
        while True:
            base = wave * self.rerand_interval
            if base + stagger >= duration:
                break
            for index in range(count):
                at = base + (index + 1) * stagger
                if at < duration:
                    self._push(at, "rerand", (index,))
            wave += 1

    def schedule_chaos(self, duration: float) -> None:
        """Seeded kill/hang waves spread across the middle of the run."""
        if self.chaos is None:
            return
        count = len(self.workers)
        for kind, fraction, waves, rng in (
            ("kill", self.chaos.kill_fraction, self.chaos.kill_waves,
             self._chaos_rng.child("kill")),
            ("hang", self.chaos.hang_fraction, self.chaos.hang_waves,
             self._chaos_rng.child("hang")),
        ):
            if fraction <= 0:
                continue
            victims_per_wave = max(1, round(fraction * count))
            for _ in range(waves):
                at = duration * (0.15 + 0.7 * rng.random())
                victims = rng.sample(range(count), min(victims_per_wave, count))
                self._push(at, kind, (tuple(sorted(victims)),))

    def _build_injector(self, worker_id: int, generation: int, attempt: int) -> None:
        """Compile-fault chaos for background builds: first attempt of
        every Nth build fails; the retry (re-rolled seed) goes through."""
        if attempt > 0:
            return
        self._builds += 1
        every = self.chaos.compile_fault_every if self.chaos else 0
        if every > 0 and self._builds % every == 0:
            self.stats.compile_faults += 1
            raise InjectedFault(
                "compile-error",
                "fleet-chaos",
                f"injected compile fault (build {self._builds}, "
                f"worker {worker_id}, generation {generation})",
            )

    # -- the event loop ------------------------------------------------------

    def run(self) -> FleetStats:
        """Drain every event; raises if any request was lost (the zero
        silent drops contract)."""
        with span("fleet.run", category="fleet", workers=len(self.workers)):
            while self._events:
                at, _, kind, payload = heapq.heappop(self._events)
                self.now = at
                self._handlers[kind](at, *payload)
        lost = [request.request_id for request in self.requests if not request.done]
        if lost:
            raise RuntimeError(
                f"fleet lost {len(lost)} requests (ids {lost[:8]}...): "
                "every request must resolve to a typed outcome"
            )
        return self.stats

    def _resolve(self, now: float, request: FleetRequest, outcome: FleetOutcome) -> None:
        request.outcome = outcome
        request.finish = now
        self.stats.outcomes[outcome.value] += 1

    # -- admission + dispatch ------------------------------------------------

    def _handle_arrival(self, now: float, rid: int) -> None:
        self.stats.arrivals += 1
        request = self.requests[rid]
        if not self.bucket.admit(now) or len(self._queue) >= self.max_queue:
            self.stats.shed += 1
            self._resolve(now, request, FleetOutcome.REJECTED)
            return
        self._push(now + self.deadline_seconds, "deadline", (rid,))
        self._queue.append(rid)
        self._dispatch(now)

    def _next_worker(self, exclude: Tuple[int, ...] = ()) -> Optional[FleetWorker]:
        count = len(self.workers)
        for offset in range(count):
            worker = self.workers[(self._rr + offset) % count]
            if worker.dispatchable and worker.worker_id not in exclude:
                self._rr = (worker.worker_id + 1) % count
                return worker
        return None

    def _dispatch(self, now: float) -> None:
        while self._queue:
            rid = self._queue[0]
            request = self.requests[rid]
            if request.done:
                self._queue.popleft()
                continue
            worker = self._next_worker()
            if worker is None:
                return
            self._queue.popleft()
            self._assign(now, request, worker)

    def _assign(self, now: float, request: FleetRequest, worker: FleetWorker) -> None:
        worker.state = WorkerState.BUSY
        worker.current_request = request.request_id
        request.workers.append(worker.worker_id)
        request.inflight += 1
        if request.start is None:
            request.start = now
        assert worker.profile is not None
        service = worker.profile.service_seconds * (0.85 + 0.3 * self._jitter.random())
        if request.is_attack:
            # The probe faults partway through its handler.
            self._push(
                now + 0.5 * service,
                "complete",
                (worker.worker_id, worker.epoch, request.request_id, True),
            )
        else:
            self._push(
                now + service,
                "complete",
                (worker.worker_id, worker.epoch, request.request_id, False),
            )
        if self.hedge_after_seconds is not None and not request.hedge_scheduled:
            request.hedge_scheduled = True
            self._push(now + self.hedge_after_seconds, "hedge", (request.request_id,))

    # -- request lifecycle ---------------------------------------------------

    def _handle_complete(self, now: float, wid: int, epoch: int, rid: int, fault: bool) -> None:
        worker = self.workers[wid]
        if worker.epoch != epoch:
            return  # stale: this process was torn down (kill/hang/swap)
        request = self.requests[rid]
        request.inflight -= 1
        worker.current_request = None
        if fault:
            # Diversity turned the attack into a fault; the request is
            # answered with an error and the worker restarts.
            if not request.done:
                self._resolve(now, request, FleetOutcome.FAULT)
            self._crash_worker(now, worker, reenqueue=False)
            return
        worker.served += 1
        worker.consecutive_crashes = 0
        if not request.done:
            outcome = (
                FleetOutcome.DEGRADED
                if (request.retries > 0 or request.hedged)
                else FleetOutcome.OK
            )
            self._resolve(now, request, outcome)
        if worker.state is WorkerState.DRAINING:
            self._begin_swap(now, worker)
        else:
            worker.state = WorkerState.IDLE
            self._dispatch(now)

    def _handle_hedge(self, now: float, rid: int) -> None:
        request = self.requests[rid]
        if request.done or request.hedged or request.inflight == 0:
            return
        sibling = self._next_worker(exclude=tuple(request.workers))
        if sibling is None:
            return  # best-effort: no idle sibling, the deadline still guards
        request.hedged = True
        self.stats.hedges += 1
        self._assign(now, request, sibling)

    def _handle_deadline(self, now: float, rid: int) -> None:
        request = self.requests[rid]
        if request.done:
            return
        self._resolve(now, request, FleetOutcome.TIMED_OUT)

    # -- worker lifecycle ----------------------------------------------------

    def _crash_worker(
        self,
        now: float,
        worker: FleetWorker,
        *,
        timed_out: bool = False,
        reenqueue: bool = True,
    ) -> None:
        rid = worker.current_request
        worker.current_request = None
        worker.epoch += 1
        delay = worker.record_crash(timed_out=timed_out)
        if rid is not None and reenqueue:
            request = self.requests[rid]
            request.inflight -= 1
            if not request.done:
                # Head of queue: it has been waiting longest.
                request.retries += 1
                self.stats.retries += 1
                self._queue.appendleft(rid)
        if worker.flapping:
            worker.state = WorkerState.QUARANTINED
            self.stats.quarantines += 1
            self._launch_spare(now, worker)
        else:
            worker.state = WorkerState.RESTARTING
            self._push(now + delay, "worker-up", (worker.worker_id, worker.epoch))
        self._dispatch(now)

    def _handle_worker_up(self, now: float, wid: int, epoch: int) -> None:
        worker = self.workers[wid]
        if worker.epoch != epoch or worker.state is not WorkerState.RESTARTING:
            return
        self.stats.restarts += 1
        if worker.pending_profile is not None:
            # A re-randomized binary finished building while the slot was
            # down; come back up already rotated.
            worker.promote_pending()
            self.stats.swaps += 1
            self.layout_changes.append(now)
        worker.state = WorkerState.IDLE
        self._dispatch(now)

    def _handle_kill(self, now: float, victims: Tuple[int, ...]) -> None:
        for wid in victims:
            worker = self.workers[wid]
            if worker.state in (
                WorkerState.RESTARTING,
                WorkerState.QUARANTINED,
                WorkerState.SWAPPING,
            ):
                continue  # already down or mid-teardown
            self.stats.kills += 1
            self._crash_worker(now, worker)

    def _handle_hang(self, now: float, victims: Tuple[int, ...]) -> None:
        for wid in victims:
            worker = self.workers[wid]
            if worker.state not in (
                WorkerState.IDLE,
                WorkerState.BUSY,
                WorkerState.DRAINING,
            ):
                continue
            self.stats.hangs += 1
            # The process stops responding: invalidate its completion and
            # swap events, block dispatch, and arm the hang watchdog (the
            # fleet's per-request deadline analogue of the supervisor's
            # probe deadline).
            worker.epoch += 1
            worker.state = WorkerState.BUSY
            self._push(
                now + self.hang_detect_seconds, "hang-detect", (wid, worker.epoch)
            )

    def _handle_hang_detect(self, now: float, wid: int, epoch: int) -> None:
        worker = self.workers[wid]
        if worker.epoch != epoch:
            return
        self.stats.hang_detections += 1
        self._crash_worker(now, worker, timed_out=True)

    # -- rolling re-randomization -------------------------------------------

    def _handle_rerand(self, now: float, wid: int) -> None:
        worker = self.workers[wid]
        if (
            worker.state not in (WorkerState.IDLE, WorkerState.BUSY)
            or worker.pending_generation is not None
        ):
            self.stats.rerand_skipped += 1
            return
        generation = worker.generation + 1
        faults_before = worker.compile_faults
        with span("fleet.build", category="fleet", worker=wid, generation=generation):
            try:
                worker.pending_profile = worker.build(generation, self._build_injector)
            except RuntimeError:
                self.stats.rerand_skipped += 1
                return
        worker.pending_generation = generation
        # Chaos-faulted attempts cost an extra (virtual) compile each.
        attempts = 1 + (worker.compile_faults - faults_before)
        self._push(now + self.compile_seconds * attempts, "swap-ready", (wid, worker.epoch))

    def _handle_swap_ready(self, now: float, wid: int, epoch: int) -> None:
        worker = self.workers[wid]
        if worker.epoch != epoch:
            return  # crashed/hung meanwhile; worker-up promotes the build
        if worker.state is WorkerState.IDLE:
            self._swap_begin[wid] = now
            self._begin_swap(now, worker)
        elif worker.state is WorkerState.BUSY:
            self._swap_begin[wid] = now
            worker.state = WorkerState.DRAINING  # finish the current request first

    def _begin_swap(self, now: float, worker: FleetWorker) -> None:
        worker.state = WorkerState.SWAPPING
        worker.epoch += 1  # the old process is gone
        self._push(now + self.swap_seconds, "swap-done", (worker.worker_id, worker.epoch))

    def _handle_swap_done(self, now: float, wid: int, epoch: int) -> None:
        worker = self.workers[wid]
        if worker.epoch != epoch or worker.state is not WorkerState.SWAPPING:
            return
        worker.promote_pending()
        self.stats.swaps += 1
        self.layout_changes.append(now)
        begin = self._swap_begin.pop(wid, now)
        self.swap_windows.append((begin, now))
        worker.state = WorkerState.IDLE
        self._dispatch(now)

    # -- quarantine + warm spares -------------------------------------------

    def _launch_spare(self, now: float, worker: FleetWorker) -> None:
        if worker.pending_profile is None:
            generation = worker.generation + 1
            faults_before = worker.compile_faults
            with span(
                "fleet.spare", category="fleet", worker=worker.worker_id,
                generation=generation,
            ):
                try:
                    worker.pending_profile = worker.build(generation, self._build_injector)
                except RuntimeError:
                    # Builds kept faulting: fall back to the restart path
                    # so the slot is never stranded.
                    worker.state = WorkerState.RESTARTING
                    self._push(
                        now + self.compile_seconds, "worker-up",
                        (worker.worker_id, worker.epoch),
                    )
                    return
            worker.pending_generation = generation
            attempts = 1 + (worker.compile_faults - faults_before)
            if worker.pending_profile.cache_hit:
                # Warm spare: the shared cache already had this build.
                delay = self.swap_seconds
            else:
                delay = self.compile_seconds * attempts
        else:
            delay = self.swap_seconds  # a rotation build was already ready
        self._push(now + delay, "spare", (worker.worker_id, worker.epoch))

    def _handle_spare(self, now: float, wid: int, epoch: int) -> None:
        worker = self.workers[wid]
        if worker.epoch != epoch or worker.state is not WorkerState.QUARANTINED:
            return
        worker.promote_pending()
        worker.consecutive_crashes = 0
        self.stats.spare_activations += 1
        self.layout_changes.append(now)
        worker.state = WorkerState.IDLE
        self._dispatch(now)
