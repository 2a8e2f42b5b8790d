"""The four workloads: set-up, the op list of one pass, and the oracle checks.

Each workload is a closed loop with one client: the runner executes a
pass's ops one after another, each starting when the previous one ends.  Every
pass draws fresh load seeds (and, for spec-sweep and mvee-lockstep,
fresh compile seeds) from the run's ``--seed``, so every pass is
equally cold: the engine's compile cache, the jit's code cache (keyed
by binary digest *and* address-space layout) and the decode cache all
miss on a pass's first use of a variant.  Set-up runs under negative
pass indices, so its seeds never collide with a measured pass.

Outputs are checked against :func:`repro.toolchain.interp.interpret_module`
run on the same IR (guest output and exit code), which never touches the
compiler or the machine; the attack matrix checks the paper's Table 3
invariants instead.  Oracles are computed before set-up starts, outside
every timed window.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.attacks import ALL_ATTACKS, VictimSession
from repro.attacks.outcomes import AttackOutcome
from repro.core.compiler import compile_module
from repro.core.config import R2CConfig
from repro.defenses.lockstep import LockstepGroup, MveeOutcome
from repro.defenses.related import DEFENSE_MODELS
from repro.eval.engine import ExperimentEngine, RunRequest
from repro.machine import ExecutionResult, MachineState, get_backend
from repro.machine.costs import get_costs
from repro.machine.loader import load_binary
from repro.toolchain.interp import interpret_module
from repro.workloads.spec import SPEC_BENCHMARKS, build_spec_benchmark
from repro.workloads.webserver import build_webserver

from benchmarks.r2cbench.layers import NULL_TRACER

#: Every workload runs the jit backend at its defaults (tier 3 untouched).
BACKEND = "jit"
MACHINE = "epyc-rome"
BTRA_MODES = ("avx", "push")


def derive_seed(*parts) -> int:
    """A 32-bit seed from the run seed and a path of labels (stable across
    Python versions, unlike ``hash``)."""
    digest = hashlib.sha256(":".join(str(part) for part in parts).encode("utf-8"))
    return int.from_bytes(digest.digest()[:4], "big")


@dataclass
class OpResult:
    """What one op produced, as far as the runner's metrics need it."""

    ok: bool
    #: Guest instructions and cycles retired (0 where the op cannot see
    #: them, as for attack trials).
    instructions: int = 0
    cycles: float = 0.0
    #: Why the check failed, for the report.
    detail: str = ""
    #: How an attack trial ended: ``"<outcome>/<probes>"``.
    outcome: str = ""


@dataclass
class Op:
    label: str
    run: Callable[[], OpResult]
    #: What ``Workload.warm`` needs to repeat the op (spec-steady only).
    args: Tuple = ()


def _expect(expected: Tuple[int, List[int]], exit_code: int, output: Sequence[int]) -> str:
    """Empty when (exit_code, output) matches the oracle, else the mismatch."""
    got = (exit_code, list(output))
    if got == (expected[0], list(expected[1])):
        return ""
    return f"expected exit/output {expected[0]}/{list(expected[1])[:4]}, got {got[0]}/{got[1][:4]}"


class Workload:
    """Base class: the runner calls ``oracle`` once, ``setup`` once per
    set-up repetition, then ``ops(p)`` for each measured pass."""

    name = ""
    #: What one op is, for the report ("cell", "run", ...).
    unit = ""
    #: Nominal reference seconds of one pass, which sets how many passes
    #: fit in ``--seconds`` (measured on a 2-core x86-64 host).
    pass_s = 1.0
    #: Whether traced passes re-run each op through :meth:`warm`.
    warms = False

    def __init__(self, seed: int):
        self.seed = seed
        #: Spans the workload records itself; the runner swaps in a real
        #: tracer for traced passes.
        self.tracer = NULL_TRACER
        #: Seconds the last set-up spent building IR modules.
        self.build_s = 0.0

    def oracle(self) -> None:
        raise NotImplementedError

    def setup(self, rep: int) -> None:
        raise NotImplementedError

    def ops(self, pass_index: int) -> List[Op]:
        raise NotImplementedError

    def warm(self, op: Op) -> None:
        """Re-run ``op``'s simulated part on a warm code cache (traced
        passes only; nothing by default)."""

    def summary(self, results: Sequence[Tuple[str, OpResult]]) -> Dict[str, float]:
        """Extra deterministic metrics over all measured ops."""
        return {}

    def _warm_up(self, rep: int) -> None:
        """Set-up's one untimed op, drawn from a set-up-only pass."""
        op = self.ops(-(rep + 1))[0]
        result = op.run()
        if not result.ok:
            raise RuntimeError(f"{self.name}: warm-up op {op.label} failed: {result.detail}")

    def _build(self, build: Callable[[], object]):
        started = time.perf_counter()
        built = build()
        self.build_s = time.perf_counter() - started
        return built


class SpecSweep(Workload):
    """The paper's experiment loop: 12 SPEC stand-ins x (baseline + 3
    full-R2C seeds) through the experiment engine, one cell at a time."""

    name = "spec-sweep"
    unit = "cell"
    pass_s = 3.6
    FULL_VARIANTS = 3

    def oracle(self) -> None:
        self.expected = {
            name: interpret_module(build_spec_benchmark(name)) for name in SPEC_BENCHMARKS
        }

    def setup(self, rep: int) -> None:
        self.modules = self._build(
            lambda: {name: build_spec_benchmark(name) for name in SPEC_BENCHMARKS}
        )
        self.engine = ExperimentEngine(jobs=1, backend=BACKEND)
        self._warm_up(rep)

    def ops(self, pass_index: int) -> List[Op]:
        ops = []
        for name, module in self.modules.items():
            seeds = [derive_seed(self.seed, pass_index, name, j) for j in range(4)]
            configs = [("baseline", R2CConfig.baseline(seed=seeds[0]))]
            for j in range(1, self.FULL_VARIANTS + 1):
                # Alternate the BTRA setup sequence, starting on the other
                # mode every pass, so both modes get equal weight.
                mode = BTRA_MODES[(j + pass_index) % 2]
                configs.append((f"full-{mode}", R2CConfig.full(seed=seeds[j], btra_mode=mode)))
            for j, (kind, config) in enumerate(configs):
                request = RunRequest(
                    module=module,
                    config=config,
                    machine=MACHINE,
                    load_seed=derive_seed(self.seed, pass_index, name, j, "load"),
                    label=f"{name}/{kind}",
                )
                ops.append(
                    Op(request.label, lambda name=name, request=request: self._cell(name, request))
                )
        return ops

    def _cell(self, name: str, request: RunRequest) -> OpResult:
        with self.tracer.span("engine.run"):
            record = self.engine.run(request)
        if record.outcome != "ok":
            return OpResult(False, detail=f"outcome {record.outcome}: {record.failure}")
        detail = _expect(self.expected[name], record.exit_code, record.output)
        return OpResult(not detail, record.instructions, record.cycles, detail)

    def summary(self, results: Sequence[Tuple[str, OpResult]]) -> Dict[str, float]:
        """``sim_overhead_pct``: geomean over every full-R2C cell of its
        cycles over the same pass's baseline cycles for that program,
        minus 1 — the paper's headline number (Figure 6), in percent."""
        logs = []
        baseline: Dict[str, float] = {}
        for label, result in results:
            name, kind = label.split("/")
            if kind == "baseline":
                baseline[name] = result.cycles
            elif result.ok and baseline.get(name):
                logs.append(math.log(result.cycles / baseline[name]))
        if not logs:
            return {}
        return {"sim_overhead_pct": (math.exp(sum(logs) / len(logs)) - 1.0) * 100.0}


class SpecSteady(Workload):
    """Long runs on pre-compiled full-R2C binaries: load + prepare +
    execute on a fresh layout, so compiled-code speed dominates."""

    name = "spec-steady"
    unit = "run"
    pass_s = 1.6
    warms = True
    PROGRAMS = ("xz", "mcf", "lbm", "omnetpp")
    SCALE = 20

    def __init__(self, seed: int):
        super().__init__(seed)
        self.backend = get_backend(BACKEND)
        self.costs = get_costs(MACHINE)

    def oracle(self) -> None:
        self.expected = {
            name: interpret_module(
                build_spec_benchmark(name, scale=self.SCALE), step_budget=200_000_000
            )
            for name in self.PROGRAMS
        }

    def setup(self, rep: int) -> None:
        modules = self._build(
            lambda: {name: build_spec_benchmark(name, scale=self.SCALE) for name in self.PROGRAMS}
        )
        # The build seeds are fixed and --seed moves only the layouts:
        # omnetpp's run time differs by up to 15% between builds (tier 3
        # forms different traces over a different code layout), and it
        # is most of a pass, so per-seed builds would hide any regression
        # smaller than that.
        self.binaries = {
            name: compile_module(
                module,
                R2CConfig.full(
                    seed=derive_seed(self.name, name), btra_mode=BTRA_MODES[index % 2]
                ),
            )
            for index, (name, module) in enumerate(modules.items())
        }
        self._warm_up(rep)

    def ops(self, pass_index: int) -> List[Op]:
        ops = []
        for name in self.PROGRAMS:
            args = (name, derive_seed(self.seed, pass_index, name))
            ops.append(Op(name, lambda args=args: self._run(*args), args))
        return ops

    def _execute(self, name: str, load_seed: int) -> ExecutionResult:
        process = load_binary(self.binaries[name], seed=load_seed)
        state = MachineState(process, self.costs)
        state.rip = process.entry_point
        program = self.backend.prepare(state)
        result = ExecutionResult()
        self.backend.execute(program, state, result)
        return result

    def _run(self, name: str, load_seed: int) -> OpResult:
        result = self._execute(name, load_seed)
        detail = _expect(self.expected[name], result.exit_code, result.output)
        return OpResult(not detail, result.instructions, result.cycles, detail)

    def warm(self, op: Op) -> None:
        """Execute the op's (binary, layout) again: the jit code cache now
        hits, so the difference to the op's execute is lowering time."""
        self._execute(*op.args)


#: The seed every attack-matrix victim is built with: Table 3's first
#: (``experiment_table3``'s ``base_seed``).
TABLE3_BUILD_SEED = 100


class AttackMatrix(Workload):
    """Table 3: every attack against every defense model, one trial per
    cell per pass, through :class:`VictimSession`."""

    name = "attack-matrix"
    unit = "trial"
    pass_s = 4.4
    #: Table 3 invariants (checked on every seed 0-11 before being kept):
    #: every attack succeeds against the undiversified baseline, and none
    #: succeeds against full R2C, alone or in lockstep.
    MUST_SUCCEED = ("none",)
    MUST_NOT_SUCCEED = ("r2c", "r2c-mvee")

    def oracle(self) -> None:
        """The Table 3 invariants are the oracle; nothing to precompute."""

    def setup(self, rep: int) -> None:
        self._warm_up(rep)

    def ops(self, pass_index: int) -> List[Op]:
        # The victim *build* is the same in every pass: Blind ROP's probe
        # count, and with it most of a pass's cost, is set by where the
        # function shuffle drops its target (10 to 1200 probes between
        # build seeds), so each op kind's median over passes would mix
        # runs of very different cost.  --seed moves the layouts and the
        # attacker's choices, which keeps every pass cold.
        build_seed = TABLE3_BUILD_SEED
        load_seed = derive_seed(self.seed, pass_index, "load")
        attacker_seed = derive_seed(self.seed, pass_index, "attacker")
        return [
            Op(
                f"{defense}/{attack}",
                lambda defense=defense, attack=attack: self._trial(
                    defense, attack, build_seed, load_seed, attacker_seed
                ),
            )
            for defense in DEFENSE_MODELS
            for attack in ALL_ATTACKS
        ]

    def _trial(
        self, defense: str, attack: str, build_seed: int, load_seed: int, attacker_seed: int
    ) -> OpResult:
        model = DEFENSE_MODELS[defense]
        with self.tracer.span("attack.session") as span:
            session = VictimSession(
                model.victim_config(seed=build_seed),
                execute_only=model.execute_only,
                shadow_stack=model.shadow_stack,
                variants=model.variants,
                load_seed=load_seed,
                backend=BACKEND,
            )
            result = ALL_ATTACKS[attack](session, attacker_seed=attacker_seed)
            span.info = result.probes
        outcome = f"{result.outcome.value}/{result.probes}"
        succeeded = result.outcome is AttackOutcome.SUCCESS
        if defense in self.MUST_SUCCEED and not succeeded:
            return OpResult(False, detail=f"{attack} did not succeed on {defense}", outcome=outcome)
        if defense in self.MUST_NOT_SUCCEED and succeeded:
            return OpResult(False, detail=f"{attack} succeeded on {defense}", outcome=outcome)
        return OpResult(True, outcome=outcome)


class MveeLockstep(Workload):
    """A webserver deployed as 4 lockstep replicas: compile a fresh seed,
    load, fork 3 clones, run the group to completion."""

    name = "mvee-lockstep"
    unit = "group"
    pass_s = 3.5
    REQUESTS = 32
    CLONES = 3
    SYNC_EVERY = 256
    OPS_PER_PASS = 8

    def oracle(self) -> None:
        self.expected = interpret_module(build_webserver(requests=self.REQUESTS))

    def setup(self, rep: int) -> None:
        self.module = self._build(lambda: build_webserver(requests=self.REQUESTS))
        self._warm_up(rep)

    def ops(self, pass_index: int) -> List[Op]:
        return [
            Op(
                f"group{index}",
                lambda index=index: self._group(
                    derive_seed(self.seed, pass_index, index),
                    BTRA_MODES[(index + pass_index) % 2],
                    derive_seed(self.seed, pass_index, index, "load"),
                ),
            )
            for index in range(self.OPS_PER_PASS)
        ]

    def _group(self, build_seed: int, mode: str, load_seed: int) -> OpResult:
        binary = compile_module(self.module, R2CConfig.full(seed=build_seed, btra_mode=mode))
        leader = load_binary(binary, seed=load_seed)
        processes = [leader] + [leader.clone() for _ in range(self.CLONES)]
        with self.tracer.span("lockstep.run") as span:
            group = LockstepGroup(processes, backend=BACKEND, sync_every=self.SYNC_EVERY)
            outcome = group.run()
            span.info = outcome.sync_points
        if outcome.outcome is not MveeOutcome.CLEAN:
            return OpResult(False, detail=f"lockstep ended {outcome.outcome.value}: {outcome.notes}")
        for variant in group.variants:
            if variant.status != "exit":
                return OpResult(False, detail=f"variant {variant.index} ended {variant.status}")
            detail = _expect(self.expected, variant.result.exit_code, variant.output)
            if detail:
                return OpResult(False, detail=f"variant {variant.index}: {detail}")
        return OpResult(
            True,
            instructions=sum(variant.result.instructions for variant in group.variants),
            cycles=sum(variant.result.cycles for variant in group.variants),
        )


WORKLOADS: Dict[str, type] = {
    workload.name: workload for workload in (SpecSweep, SpecSteady, AttackMatrix, MveeLockstep)
}


def make_workload(name: str, seed: int) -> Workload:
    try:
        return WORKLOADS[name](seed)
    except KeyError:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}") from None
