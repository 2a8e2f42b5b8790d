"""Section 7.3: the R2C + MVEE combination, measured.

The paper proposes pairing R2C with a Multi-Variant Execution Engine and
argues the combination "would detect data corruption or leakage in one of
the variants with high probability".  This bench quantifies that: for each
attack, compare the single-variant outcome distribution against the
two-variant MVEE outcome distribution over several campaigns.
"""

import gc
import time

from repro.attacks.aocr import make_aocr_hook
from repro.attacks.rop import make_rop_hook
from repro.attacks.scenario import VictimSession
from repro.core.compiler import compile_module
from repro.core.config import R2CConfig
from repro.defenses.lockstep import LockstepGroup
from repro.machine.backends import get_backend
from repro.machine.costs import get_costs
from repro.machine.loader import load_binary
from repro.machine.state import ExecutionResult, MachineState
from repro.workloads.webserver import build_webserver

from benchmarks.conftest import save_artifact

TRIALS = 6


def mvee_outcome(trial, hook=None):
    """One two-variant R2C + MVEE probe's lockstep verdict."""
    session = VictimSession(
        R2CConfig.full(), build_seed=900 + trial, load_seed=0xBEEF, variants=2
    )
    return session.probe_ex(hook, attacker_seed=trial).lockstep.outcome.value


def test_mvee_detection_rates(run_once):
    def experiment():
        rows = {}
        for label, hook_factory in (("rop", make_rop_hook), ("aocr", make_aocr_hook)):
            tallies = {"clean": 0, "diverged": 0, "trapped": 0, "compromised": 0}
            for trial in range(TRIALS):
                tallies[mvee_outcome(trial, hook_factory())] += 1
            rows[label] = tallies
        # Control: benign runs never diverge.
        benign = {"clean": 0, "diverged": 0, "trapped": 0, "compromised": 0}
        for trial in range(TRIALS):
            benign[mvee_outcome(trial)] += 1
        rows["benign"] = benign
        return rows

    rows = run_once(experiment)
    lines = ["R2C + MVEE (2 variants) outcome tallies", ""]
    lines.append(f"{'campaign':10s} {'clean':>6s} {'diverged':>9s} {'trapped':>8s} {'compromised':>12s}")
    for label, tallies in rows.items():
        lines.append(
            f"{label:10s} {tallies['clean']:6d} {tallies['diverged']:9d} "
            f"{tallies['trapped']:8d} {tallies['compromised']:12d}"
        )
    save_artifact("mvee_combination", "\n".join(lines))

    assert rows["benign"]["clean"] == TRIALS  # zero false positives
    for label in ("rop", "aocr"):
        assert rows[label]["compromised"] == 0
        detected = rows[label]["diverged"] + rows[label]["trapped"]
        assert detected >= TRIALS // 2, label


VARIANTS = 4
REPEATS = 5


def _timed(leg, seed):
    """Host wall seconds of ``leg(seed)`` with the collector paused."""
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        value = leg(seed)
        return time.perf_counter() - started, value
    finally:
        gc.enable()


def lockstep_cost():
    """Best-of-REPEATS host wall seconds of the webserver as one variant,
    and as VARIANTS lockstep replicas.

    The single leg compiles, loads, prepares and runs one variant.  The
    lockstep leg compiles and loads once, forks the other replicas with
    ``Process.clone()`` under one layout (every replica runs on the
    load's one set of micro-ops), and runs them in one
    :class:`LockstepGroup` with the per-sync cross-check armed.  Every
    leg compiles under a fresh seed, so no leg hits another's compile
    cache.  The minimum is the least-noisy estimator of host wall time.
    """
    module = build_webserver(requests=2)
    costs = get_costs("epyc-rome")
    backend = get_backend("fast")
    # The webserver needs well under a megabyte of heap; the default
    # 8 MiB arena would make page bookkeeping, not the workload, the
    # dominant cost of every load and fork in both legs.
    heap_size = 2 * 1024 * 1024

    def single(seed):
        binary = compile_module(module, R2CConfig.full(seed=seed))
        process = load_binary(binary, seed=1, heap_size=heap_size)
        state = MachineState(process, costs)
        state.rip = process.entry_point
        state._halted = False
        result = ExecutionResult()
        backend.execute(backend.prepare(state), state, result)
        return result

    def lockstep(seed):
        binary = compile_module(module, R2CConfig.full(seed=seed))
        leader = load_binary(binary, seed=1, heap_size=heap_size)
        processes = [leader] + [leader.clone() for _ in range(VARIANTS - 1)]
        group = LockstepGroup(processes, costs=costs, backend="fast", sync_every=4096)
        return group.run()

    single_walls, lockstep_walls = [], []
    for rep in range(REPEATS):
        wall, single_result = _timed(single, 0xA5 + 2 * rep)
        single_walls.append(wall)
        wall, lockstep_result = _timed(lockstep, 0xB6 + 2 * rep)
        lockstep_walls.append(wall)
    return min(single_walls), single_result, min(lockstep_walls), lockstep_result


def test_lockstep_cost_per_variant(run_once):
    """The amortized-setup claim, measured: a 4-variant LockstepGroup
    completes the webserver workload in under 2.5x the wall cost of one
    variant (one compile and load serve all four states, and the
    replicas share one bind of the instructions they run)."""
    single_wall, single, lockstep_wall, lockstep = run_once(lockstep_cost)
    outcome = lockstep.outcome.value
    ratio = lockstep_wall / single_wall
    save_artifact(
        "lockstep_cost",
        f"lockstep x{len(lockstep.variants)} (webserver): {outcome}, "
        f"cost ratio {ratio:.3f}x ({lockstep_wall:.4f}s vs {single_wall:.4f}s "
        f"single, best of {REPEATS})",
    )

    assert outcome == "clean"
    assert len(lockstep.variants) == VARIANTS
    # 4 variants actually ran: ~4x the simulated work of one.
    instructions = sum(variant.result.instructions for variant in lockstep.variants)
    assert instructions > 3 * single.instructions
    # The acceptance bar: one compile, load and bind of what the
    # replicas run keeps N=4 under 2.5x.
    assert ratio < 2.5, (lockstep_wall, single_wall)
