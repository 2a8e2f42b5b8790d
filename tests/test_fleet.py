"""Tests for the victim fleet (repro.fleet.*).

The acceptance physics under test: the scheduler never loses a request
(every arrival resolves to a typed outcome, under load shedding, chaos,
and rolling re-randomization alike); and the whole simulation is
bit-deterministic — same seed, same metrics, on every backend.
"""

import json
import pickle

import pytest

from repro.core.compiler import compile_module
from repro.core.config import R2CConfig
from repro.eval.engine import CompileCache
from repro.fleet import (
    ChaosSpec,
    Fleet,
    FleetOutcome,
    FleetWorker,
    TokenBucket,
    WorkerState,
    open_loop_arrivals,
    run_fleet,
)
from repro.fleet.loadgen import validate
from repro.rng import DiversityRng
from repro.workloads.webserver import build_webserver


@pytest.fixture(scope="module")
def module():
    return build_webserver(requests=1, footprint_pages=1)


# ---------------------------------------------------------------------------
# Binaries
# ---------------------------------------------------------------------------

def test_binary_pickle_roundtrip(module):
    """Binaries (including the BTDP constructor) survive pickling — the
    invariant the engine's process pool rests on."""
    binary = compile_module(module, R2CConfig.full(seed=3))
    clone = pickle.loads(pickle.dumps(binary))
    assert clone.constructors  # the BTDP constructor survived


# ---------------------------------------------------------------------------
# Scheduler mechanics
# ---------------------------------------------------------------------------

def test_token_bucket_refills_on_virtual_clock():
    bucket = TokenBucket(rate=10.0, burst=2.0)
    assert bucket.admit(0.0) and bucket.admit(0.0)
    assert not bucket.admit(0.0)  # burst spent
    assert bucket.admit(0.1)  # one token back after 0.1s at 10/s
    assert not bucket.admit(0.1)


def test_open_loop_arrivals_seeded():
    first = open_loop_arrivals(rps=100.0, duration_seconds=1.0, rng=DiversityRng(7))
    second = open_loop_arrivals(rps=100.0, duration_seconds=1.0, rng=DiversityRng(7))
    other = open_loop_arrivals(rps=100.0, duration_seconds=1.0, rng=DiversityRng(8))
    assert first == second
    assert first != other
    assert all(0.0 <= at < 1.0 for at in first)
    assert first == sorted(first)


def small_fleet(module, workers=2, **kwargs):
    cache = CompileCache()
    pool = [
        FleetWorker(index, module, R2CConfig.full(seed=1_000), cache, backend="fast")
        for index in range(workers)
    ]
    for worker in pool:
        worker.profile = worker.build(0)
    return Fleet(pool, **kwargs)


def test_admission_sheds_explicitly_never_silently(module):
    """Overload resolves as typed REJECTED outcomes; arrivals always
    equal resolved outcomes."""
    fleet = small_fleet(
        module, workers=1, seed=3, bucket_rate=20.0, bucket_burst=2.0, max_queue=2,
        rerand_interval=None, hedge_after_seconds=None,
    )
    for index in range(50):
        fleet.submit(0.001 * index)  # 1000 rps offered at 20 rps admitted
    stats = fleet.run()
    assert stats.arrivals == 50
    assert stats.resolved == 50
    assert stats.outcomes["rejected"] > 0
    assert stats.shed == stats.outcomes["rejected"]


def test_deadline_resolves_timed_out(module):
    """A deadline shorter than the service time resolves TIMED_OUT —
    still typed, still counted."""
    fleet = small_fleet(
        module, workers=1, seed=3, deadline_seconds=0.0001,
        hedge_after_seconds=None, rerand_interval=None,
    )
    fleet.submit(0.0)
    stats = fleet.run()
    assert stats.outcomes["timed-out"] == 1
    assert stats.resolved == 1


def test_kill_reenqueues_inflight_request_as_degraded(module):
    """A killed worker's in-flight request retries on a sibling and
    completes DEGRADED — robustness the client can see but survive."""
    fleet = small_fleet(
        module, workers=2, seed=3, rerand_interval=None, hedge_after_seconds=None,
    )
    rid = fleet.submit(0.0)
    fleet._push(0.001, "kill", ((0,),))  # mid-service: worker 0 has it
    stats = fleet.run()
    assert stats.kills == 1
    assert stats.retries == 1
    request = fleet.requests[rid]
    assert request.outcome is FleetOutcome.DEGRADED
    assert request.workers == [0, 1]


def test_flapping_worker_quarantined_and_warm_spared(module):
    """Consecutive crashes quarantine the slot; the warm spare comes up
    re-diversified (a fresh generation) and serves again."""
    fleet = small_fleet(
        module, workers=1, seed=3, rerand_interval=None, hedge_after_seconds=None,
    )
    worker = fleet.workers[0]
    worker.quarantine_crashes = 3
    # Three kills spaced past the backoff revivals: a crash storm on the
    # slot with no successful serve in between.
    fleet._push(0.010, "kill", ((0,),))
    fleet._push(0.030, "kill", ((0,),))
    fleet._push(0.060, "kill", ((0,),))
    stats = fleet.run()
    assert stats.quarantines == 1
    assert stats.spare_activations == 1
    assert worker.state is WorkerState.IDLE
    assert worker.generation == 1  # the spare is a new diversification
    assert worker.consecutive_crashes == 0


def test_rolling_rerandomization_zero_drops(module):
    """Every worker rotates layouts under live load and not one request
    is dropped or shed by the rotation."""
    fleet = small_fleet(
        module, workers=2, seed=5, rerand_interval=0.2, hedge_after_seconds=None,
    )
    rng = DiversityRng(5).child("loadgen")
    for at in open_loop_arrivals(rps=150.0, duration_seconds=1.0, rng=rng):
        fleet.submit(at)
    fleet.schedule_rerandomization(1.0)
    stats = fleet.run()
    assert stats.swaps >= 4  # both workers rotated repeatedly
    assert stats.resolved == stats.arrivals
    assert stats.outcomes["rejected"] == 0
    assert stats.outcomes["timed-out"] == 0
    assert len(fleet.layout_changes) == stats.swaps
    assert all(worker.generation > 0 for worker in fleet.workers)


# ---------------------------------------------------------------------------
# End-to-end: run_fleet
# ---------------------------------------------------------------------------

def test_run_fleet_deterministic_across_backends_and_runs():
    kwargs = dict(workers=2, rps=150.0, duration_seconds=0.5, seed=9, chaos=True)
    fast = run_fleet(backend="fast", **kwargs)
    again = run_fleet(backend="fast", **kwargs)
    assert fast.serving() == again.serving()
    for backend in ("reference", "jit"):
        assert run_fleet(backend=backend, **kwargs).serving() == fast.serving()
    # Different seeds genuinely differ.
    other = run_fleet(backend="fast", workers=2, rps=150.0,
                      duration_seconds=0.5, seed=10, chaos=True)
    assert fast.serving() != other.serving()


def test_run_fleet_chaos_zero_lost():
    spec = ChaosSpec(kill_fraction=0.5, hang_fraction=0.5, attack_fraction=0.05,
                     compile_fault_every=2, kill_waves=3, hang_waves=2)
    report = run_fleet(workers=3, rps=200.0, duration_seconds=1.0,
                       backend="fast", seed=4, chaos_spec=spec)
    assert report.zero_lost
    assert report.kills + report.hangs > 0
    assert report.outcomes["fault"] > 0  # attack probes became faults
    assert report.compile_faults > 0
    assert report.swaps > 0  # rotation kept going under fire
    assert report.restarts > 0


def test_run_fleet_artifact_validates_and_roundtrips():
    report = run_fleet(workers=2, rps=100.0, duration_seconds=0.5,
                       backend="fast", seed=2)
    artifact = json.loads(report.to_json())
    assert validate(artifact) == []
    assert artifact["model"]["arrivals"] == report.arrivals
    assert artifact["model"]["p99_ms"] == report.p99_ms
    assert "cache" not in artifact["model"]  # host telemetry stays in host
    assert artifact["host"]["anchor_run_seconds"] > 0  # measured, not a literal
    assert artifact["anchor"]["cycles"] > 0  # anchored by a real execution
    assert validate(dict(artifact, schema="repro-fleet/v0")) != []
    del artifact["anchor"]["cycles"]
    assert validate(artifact) == ["anchor missing 'cycles'"]


def test_run_fleet_anchor_is_generation_zero_under_rotation():
    # Rotation moves worker 0 onto fresh layouts during the run; the
    # artifact's anchor must stay its generation-0 execution.
    kwargs = dict(workers=2, rps=100.0, duration_seconds=0.5, backend="fast", seed=2)
    rotated = run_fleet(rerand_interval=0.1, **kwargs)
    still = run_fleet(rerand_interval=None, **kwargs)
    assert rotated.swaps > 0 and still.swaps == 0
    anchor = json.loads(rotated.to_json())["anchor"]
    assert anchor == json.loads(still.to_json())["anchor"]


def test_fleet_cli_writes_artifact_only_with_out(tmp_path, monkeypatch, capsys):
    from repro.__main__ import main

    monkeypatch.chdir(tmp_path)
    argv = ["fleet", "--workers", "2", "--rps", "100", "--duration", "0.5", "--seed", "2"]
    assert main(argv) == 0
    assert list(tmp_path.iterdir()) == []
    out = tmp_path / "fleet.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert [path.name for path in tmp_path.iterdir()] == ["fleet.json"]
    assert validate(json.loads(out.read_text())) == []
