"""The victim fleet: a supervised, self-healing serving layer.

R2C's pitch is that diversity pays off because the *service keeps
running* while attacks turn into faults.  This package models the
defender-side machinery that makes that true at fleet scale:

* :mod:`repro.fleet.workers` — supervised victim workers with real
  compiled binaries, measured service profiles, and crash/backoff state;
* :mod:`repro.fleet.core` — the :class:`~repro.fleet.core.Fleet`
  scheduler: virtual-clock event loop, token-bucket admission, bounded
  queueing with explicit shedding, hedged retry, deadlines, chaos, and
  MARDU-style rolling re-randomization with zero dropped requests;
* :mod:`repro.fleet.loadgen` — the deterministic open-loop load
  generator and the serving report, written as a ``repro-fleet/v1``
  artifact.

Every serving metric (latency percentiles, shed/retry/swap counts,
attacker window) is modelled from simulated cycles and seeded RNG, so
it is bit-identical across backends and runs; the artifact keeps it
apart from the host's compile-cache telemetry and wall seconds.
"""

from repro.fleet.core import ChaosSpec, Fleet, FleetOutcome, FleetStats, TokenBucket
from repro.fleet.loadgen import FleetReport, open_loop_arrivals, run_fleet
from repro.fleet.workers import CLOCK_HZ, FleetWorker, ServiceProfile, WorkerState

__all__ = [
    "CLOCK_HZ",
    "ChaosSpec",
    "Fleet",
    "FleetOutcome",
    "FleetReport",
    "FleetStats",
    "FleetWorker",
    "ServiceProfile",
    "TokenBucket",
    "WorkerState",
    "open_loop_arrivals",
    "run_fleet",
]
