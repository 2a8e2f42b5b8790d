"""Fleet workers: real compiled victims behind the scheduler.

A :class:`FleetWorker` owns one slot in the fleet.  Each *generation* of
the slot is a freshly-diversified build (new :class:`R2CConfig` seed)
compiled through the fleet's shared in-memory
:class:`~repro.eval.engine.CompileCache` and measured once for real on
the configured backend: the worker loads the binary, runs the webserver
workload to completion, and records the resulting
:class:`ServiceProfile` (cycles, instructions, i-cache behaviour).
Every request the scheduler routes to that generation is then
*accounted* from the profile against the virtual clock — simulated
cycles are backend-invariant, so the whole fleet simulation is
deterministic across backends while still being anchored to a genuine
guest execution per generation.

Crash/backoff bookkeeping reuses the supervisor's restart schedule
(:func:`repro.reliability.supervisor.backoff_delay`): consecutive crashes
escalate the revival delay, and a flapping worker (too many consecutive
crashes) is quarantined for warm-spare replacement instead of being
revived in place.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.config import R2CConfig
from repro.errors import InjectedFault
from repro.eval.engine import CompileCache
from repro.machine.backends import DEFAULT_BACKEND, run
from repro.machine.costs import get_costs
from repro.machine.loader import load_binary
from repro.machine.state import MachineState
from repro.reliability.supervisor import backoff_delay
from repro.toolchain.ir import Module

#: Virtual cycles per virtual second.  The webserver workload costs a few
#: thousand cycles per serve, so 1 MHz puts per-request service time in
#: the single-digit-millisecond range — realistic request latencies
#: without inflating run horizons.
CLOCK_HZ = 1_000_000.0

#: A build attempt whose compile was chaos-faulted retries with a seed
#: bumped by this much — a "different build machine" rolling new dice.
RETRY_SEED_STRIDE = 1_000_003

#: Attempts per build before giving up (compile-fault chaos injects at
#: most one fault per build, so two attempts always suffice; the third is
#: headroom).
MAX_BUILD_ATTEMPTS = 3

#: Callable the chaos layer installs to fault background builds.  Called
#: with (worker_id, generation, attempt); raises
#: :class:`~repro.errors.InjectedFault` to fail that attempt.
BuildInjector = Callable[[int, int, int], None]


class WorkerState(str, enum.Enum):
    """Where a worker slot is in its serve/restart/swap lifecycle."""

    #: Ready for dispatch.
    IDLE = "idle"
    #: Serving a request (or hung — the scheduler tells them apart by
    #: whether the completion event is still live).
    BUSY = "busy"
    #: Crashed; waiting out the backoff delay before revival.
    RESTARTING = "restarting"
    #: A re-randomized binary is ready; finishing the current request
    #: before swapping (no new dispatches).
    DRAINING = "draining"
    #: Mid-swap: the old process is torn down and the new generation is
    #: being activated.
    SWAPPING = "swapping"
    #: Flapping (crash storm on this slot); out of rotation until the
    #: warm spare takes over.
    QUARANTINED = "quarantined"


@dataclass
class ServiceProfile:
    """One measured guest execution, reused for every request the same
    worker generation serves."""

    cycles: float
    instructions: int
    icache_hits: int
    icache_misses: int
    max_rss: int
    #: Host seconds (environmental — never feeds the virtual clock).
    compile_seconds: float
    run_seconds: float
    #: The build came out of the compile cache.
    cache_hit: bool

    @property
    def service_seconds(self) -> float:
        """Nominal virtual service time for one request."""
        return self.cycles / CLOCK_HZ


class FleetWorker:
    """One supervised slot in the fleet.

    The worker is deliberately *passive*: it builds and measures
    generations and keeps crash/health counters, while the
    :class:`~repro.fleet.core.Fleet` event loop owns all timing (when to
    revive, when to swap, when to quarantine).  ``epoch`` increments on
    every kill/hang/swap so stale completion events for a torn-down
    process can be recognized and dropped.
    """

    def __init__(
        self,
        worker_id: int,
        module: Module,
        base_config: R2CConfig,
        cache: CompileCache,
        *,
        backend: str = DEFAULT_BACKEND,
        machine: str = "epyc-rome",
        load_seed: int = 0xF1EE7,
        instruction_budget: int = 5_000_000,
        backoff_base: float = 0.005,
        backoff_cap: float = 0.25,
        quarantine_crashes: int = 3,
    ) -> None:
        self.worker_id = worker_id
        self.module = module
        self.base_config = base_config
        self.cache = cache
        self.backend = backend
        self.machine = machine
        self.load_seed = load_seed
        self.instruction_budget = instruction_budget
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.quarantine_crashes = quarantine_crashes

        self.state = WorkerState.IDLE
        self.generation = 0
        #: Bumped on kill/hang/swap; events carry the epoch they were
        #: scheduled under and are ignored if the worker has moved on.
        self.epoch = 0
        self.profile: Optional[ServiceProfile] = None
        #: The next generation's profile, built in the background and
        #: promoted at swap time.
        self.pending_profile: Optional[ServiceProfile] = None
        self.pending_generation: Optional[int] = None
        self.current_request: Optional[int] = None

        self.consecutive_crashes = 0
        self.crashes = 0
        self.timeouts = 0
        self.restarts = 0
        self.swaps = 0
        self.served = 0
        self.compile_faults = 0

    # -- builds --------------------------------------------------------------

    def variant_config(self, generation: int, attempt: int = 0) -> R2CConfig:
        """The diversification config for one (generation, attempt).

        Seeds are spaced so no two (worker, generation) pairs collide,
        keeping every slot's every rotation independently diversified;
        a faulted attempt re-rolls with a far-away seed.
        """
        seed = (
            self.base_config.seed
            + 7_919 * (self.worker_id + 1)
            + 101 * generation
            + RETRY_SEED_STRIDE * attempt
        )
        return self.base_config.replace(seed=seed)

    def build(
        self, generation: int, injector: Optional[BuildInjector] = None
    ) -> ServiceProfile:
        """Compile (through the shared cache) + load + one measured run.

        ``injector`` models compile-infrastructure faults during
        background builds: an attempt it faults is counted and retried
        with a re-rolled seed, so chaos slows rotation down but never
        wedges it.
        """
        last: Optional[InjectedFault] = None
        for attempt in range(MAX_BUILD_ATTEMPTS):
            try:
                if injector is not None:
                    injector(self.worker_id, generation, attempt)
                return self._measure(self.variant_config(generation, attempt))
            except InjectedFault as fault:
                self.compile_faults += 1
                last = fault
        raise RuntimeError(
            f"worker {self.worker_id} generation {generation} build kept "
            f"faulting: {last}"
        )

    def _measure(self, config: R2CConfig) -> ServiceProfile:
        binary, compile_seconds, hit = self.cache.get_or_compile(self.module, config)
        started = time.perf_counter()
        process = load_binary(
            binary, seed=self.load_seed + 31 * self.worker_id, execute_only=True
        )
        state = MachineState(
            process, get_costs(self.machine), instruction_budget=self.instruction_budget
        )
        result = run(state, self.backend)
        return ServiceProfile(
            cycles=result.cycles,
            instructions=result.instructions,
            icache_hits=result.icache_hits,
            icache_misses=result.icache_misses,
            max_rss=process.max_rss,
            compile_seconds=compile_seconds,
            run_seconds=time.perf_counter() - started,
            cache_hit=hit,
        )

    def promote_pending(self) -> None:
        """Activate the background-built generation (swap completion)."""
        if self.pending_profile is None or self.pending_generation is None:
            raise RuntimeError(f"worker {self.worker_id} has no pending generation")
        self.profile = self.pending_profile
        self.generation = self.pending_generation
        self.pending_profile = None
        self.pending_generation = None
        self.swaps += 1

    # -- health --------------------------------------------------------------

    def record_crash(self, *, timed_out: bool = False) -> float:
        """Account one crash (or detected hang); returns the backoff
        delay the scheduler must wait before reviving this slot."""
        self.crashes += 1
        if timed_out:
            self.timeouts += 1
        self.consecutive_crashes += 1
        return backoff_delay(self.consecutive_crashes, self.backoff_base, self.backoff_cap)

    @property
    def flapping(self) -> bool:
        """Crash-storming on this slot: quarantine + warm-spare it."""
        return self.consecutive_crashes >= self.quarantine_crashes

    @property
    def dispatchable(self) -> bool:
        return self.state is WorkerState.IDLE and self.profile is not None
