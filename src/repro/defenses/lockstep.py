"""Batched N-variant lockstep execution (the Section 7.3 MVEE substrate).

The program/state split (:mod:`repro.machine.state`) makes architectural
state a first-class value: one decoded program can drive any number of
:class:`MachineState`\\ s.  :class:`LockstepGroup` builds on that to run N
variant states in *batches* — one scheduling loop advances every running
variant ``sync_every`` instructions via the backend ``step`` primitive,
then cross-checks observable behaviour at the sync point:

* **output events** — every variant must produce the same output prefix
  (the MVEE I/O-replication model: outputs are the syscalls of this
  machine);
* **heap-allocation ordering** — every variant must issue the identical
  allocation request sequence (sizes, in order).  This is the invariant
  that makes address-based write replay sound: follower heap layouts may
  *differ* (diversified bases), but only because of layout, never because
  of allocator drift;
* **fault classes and exit behaviour** — variants must agree on how they
  end (clean exit with equal codes, or the same fault class);
* **architectural state** — when every variant is the *same* binary under
  the *same* layout (e.g. N replicas guarding against corruption), the
  group compares ``rip`` and all sixteen registers at every sync point,
  naming the first mismatching register in the report.

Every variant gets its program from ``Backend.prepare``, and none pays
for code it does not run: on ``fast`` an instruction is bound the first
time any process of its load fetches it, so replicas cloned from one
load share one set of micro-ops and bind each instruction once, and on
``jit`` they share the load's linked program too (its dispatch table,
linked units and tier-3 state), so a unit one replica linked is a dict
hit for the others.  Each replica keeps its own promotion counts and
fetch-checked pages, and its interpreter spans run on the load's shared
micro-ops.

A divergence is surfaced as a :class:`DivergenceReport` — the
crash-report analogue for the MVEE detection signal: which variant, at
which sync point, which rip, and the first mismatching register/output
word — and maps to the first-class
:attr:`repro.attacks.outcomes.AttackOutcome.DIVERGED`.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.attacks.monitor import DefenseMonitor
from repro.errors import MachineError
from repro.machine.backends import DEFAULT_BACKEND, get_backend
from repro.machine.costs import MachineCosts, get_costs
from repro.machine.isa import Reg
from repro.machine.state import ExecutionResult, MachineState

__all__ = [
    "DivergenceReport",
    "LockstepGroup",
    "LockstepVariant",
    "LockstepResult",
    "MveeOutcome",
    "run_bitflip_lockstep",
]

#: Register names in architectural index order (``state.regs`` order).
REG_NAMES = tuple(Reg(index).name.lower() for index in range(16))


class MveeOutcome(enum.Enum):
    """Cross-check verdict for a variant group (historically the MVEE's)."""

    #: All variants agreed; no attack effect observed.
    CLEAN = "clean"
    #: Variants diverged (outputs / state / allocation order / fault
    #: classes) — the MVEE's detection signal.
    DIVERGED = "diverged"
    #: A variant tripped an R2C booby trap / BTDP (reactive detection
    #: fires even before cross-checking).
    TRAPPED = "trapped"
    #: Every variant reached the attacker's goal identically — the only
    #: way an attack beats an MVEE.  (Assigned by the attack-aware
    #: caller, ``VictimSession._probe_lockstep``; the group itself only
    #: knows CLEAN/DIVERGED/TRAPPED.)
    COMPROMISED = "compromised"


@dataclass
class DivergenceReport:
    """Where and how a variant fell out of lockstep (CrashReport-style).

    ``sync_point`` is the 1-based cross-check round that caught the
    mismatch; ``instructions`` the diverging variant's executed-instruction
    count at that round; ``field`` names the first mismatching observable
    (a register name, ``output[j]``, ``alloc[j]``, ``rip``, or
    ``status``); ``expected`` is the leader's value, ``observed`` the
    diverging variant's.
    """

    variant: int
    sync_point: int
    kind: str  # "output" | "register" | "rip" | "alloc" | "status" | "exit"
    rip: int
    instructions: int
    field: str
    expected: object
    observed: object
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": "repro-divergence/v1",
            "variant": self.variant,
            "sync_point": self.sync_point,
            "kind": self.kind,
            "rip": self.rip,
            "instructions": self.instructions,
            "field": self.field,
            "expected": repr(self.expected),
            "observed": repr(self.observed),
            "detail": self.detail,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def summary_line(self) -> str:
        return (
            f"DIVERGED v{self.variant} @sync{self.sync_point} "
            f"rip={self.rip:#x} {self.kind}:{self.field} "
            f"expected={self.expected!r} observed={self.observed!r}"
        )


@dataclass
class LockstepVariant:
    """One variant's state, program, and running bookkeeping."""

    index: int
    process: object
    state: MachineState
    program: object
    result: ExecutionResult
    status: str = "running"  # "running" | "exit" | "detected" | "crashed"
    error: Optional[MachineError] = None
    alloc_log: List[int] = field(default_factory=list)

    @property
    def output(self):
        return self.process.output


@dataclass
class LockstepResult:
    """What a :meth:`LockstepGroup.run` observed."""

    outcome: MveeOutcome
    variants: List[LockstepVariant] = field(default_factory=list)
    divergence: Optional[DivergenceReport] = None
    sync_points: int = 0
    notes: List[str] = field(default_factory=list)


class LockstepGroup:
    """Steps N loaded variant processes in batched lockstep.

    ``processes`` are already-loaded :class:`~repro.machine.process.Process`
    images (same module semantics; possibly differently diversified and
    differently laid out).  Variant 0 is the *leader*: cross-checks
    compare every other variant's observables against it.

    ``sync_every`` is the batch size: each scheduling round advances every
    running variant that many instructions, then cross-checks.  Output,
    allocation-order, and end-state checks tolerate step skew (variants
    legitimately execute different instruction counts when their binaries
    differ); the architectural register/rip comparison is only armed when
    every variant shares one binary *and* one layout (``compare_state``).
    """

    def __init__(
        self,
        processes: Sequence[object],
        *,
        costs: Optional[MachineCosts] = None,
        backend: str = DEFAULT_BACKEND,
        sync_every: int = 256,
        instruction_budget: int = 5_000_000,
        shadow_stack: bool = False,
        monitor: Optional[DefenseMonitor] = None,
    ):
        if len(processes) < 2:
            raise ValueError("lockstep needs at least two variants")
        if sync_every < 1:
            raise ValueError("sync_every must be positive")
        self.backend_name = backend
        self._backend = get_backend(backend)
        self.sync_every = sync_every
        self.monitor = monitor if monitor is not None else DefenseMonitor()
        costs = costs if costs is not None else get_costs("epyc-rome")
        self.variants: List[LockstepVariant] = []
        for index, process in enumerate(processes):
            state = MachineState(
                process,
                costs,
                instruction_budget=instruction_budget,
                shadow_stack=shadow_stack,
            )
            if process.entry_point is None:
                raise MachineError(f"variant {index} has no entry point")
            state.rip = process.entry_point
            state._halted = False
            # Replicas cloned from one load share its program on every
            # backend: micro-ops bound, or units linked, as any of them
            # runs.  A variant loaded on its own gets its own program,
            # which on jit links the binary's cached units.
            program = self._backend.prepare(state)
            self.variants.append(
                LockstepVariant(
                    index=index,
                    process=process,
                    state=state,
                    program=program,
                    result=ExecutionResult(),
                )
            )
        for variant in self.variants:
            self._instrument_allocs(variant)
        #: Replica mode: per-sync architectural state comparison.
        self.compare_state = self._replicas()
        self.sync_points = 0
        self.divergence: Optional[DivergenceReport] = None
        self.notes: List[str] = []

    # -- setup helpers -------------------------------------------------------

    def _replicas(self) -> bool:
        """True when every variant is the same binary under the same layout
        — the precondition for per-sync architectural state comparison."""
        first = self.variants[0].process
        anchor = (
            first.binary,
            first.layout.text_base,
            first.layout.data_base,
            first.layout.heap_base,
            first.layout.stack_base,
        )
        for variant in self.variants[1:]:
            process = variant.process
            probe = (
                process.binary,
                process.layout.text_base,
                process.layout.data_base,
                process.layout.heap_base,
                process.layout.stack_base,
            )
            if probe[0] is not anchor[0] or probe[1:] != anchor[1:]:
                return False
        return True

    def _instrument_allocs(self, variant: LockstepVariant) -> None:
        """Log every ``malloc`` request size, preserving service behaviour.

        The logs feed the allocation-ordering cross-check: identical
        request sequences are the invariant that lets N-variant probes
        replay leader writes by address and still attribute follower
        divergence to *layout* rather than allocator drift.
        """
        try:
            inner = variant.process.service("malloc")
        except MachineError:
            return  # no allocator mapped; nothing to record
        log = variant.alloc_log

        def recording_malloc(proc, cpu, _inner=inner, _log=log):
            _log.append(cpu.regs[Reg.RDI])
            return _inner(proc, cpu)

        variant.process.register_service("malloc", recording_malloc)

    # -- execution -----------------------------------------------------------

    def _advance(self, variant: LockstepVariant, steps: int) -> None:
        if variant.status != "running":
            return
        try:
            halted = self._backend.step(
                variant.program, variant.state, variant.result, steps
            )
        except MachineError as exc:
            # Drop the traceback: its first frame holds ``variant``, whose
            # ``error`` is this fault, so the variant's process and every
            # page would sit in a reference cycle until a gc pass.
            exc.__traceback__ = None
            variant.status = self.monitor.classify(exc)
            variant.error = exc
            return
        if halted:
            variant.status = "exit"

    def run_variant_until(
        self, index: int, predicate: Callable[[LockstepVariant], bool]
    ) -> LockstepVariant:
        """Step one variant alone (in ``sync_every`` slices) until
        ``predicate(variant)`` holds or the variant stops running.

        N-variant probes use this to let the leader reach its
        vulnerability and record the attacker's writes before the
        followers replay them.
        """
        variant = self.variants[index]
        while variant.status == "running" and not predicate(variant):
            self._advance(variant, self.sync_every)
        return variant

    def run(self) -> LockstepResult:
        """Batched lockstep to completion (or to the first divergence)."""
        while self.divergence is None:
            running = [v for v in self.variants if v.status == "running"]
            if not running:
                break
            for variant in running:
                self._advance(variant, self.sync_every)
            self.sync_points += 1
            self._cross_check()
        return self._finish()

    # -- cross-checking ------------------------------------------------------

    def _diverge(
        self,
        variant: LockstepVariant,
        kind: str,
        field_name: str,
        expected,
        observed,
        detail: str = "",
    ) -> None:
        if self.divergence is not None:
            return
        self.divergence = DivergenceReport(
            variant=variant.index,
            sync_point=self.sync_points,
            kind=kind,
            rip=variant.state.rip,
            instructions=variant.result.instructions,
            field=field_name,
            expected=expected,
            observed=observed,
            detail=detail,
        )
        self.monitor.note_divergence()
        self.notes.append(self.divergence.summary_line())

    def _check_prefix(
        self, kind: str, label: str, leader_seq, variant: LockstepVariant, seq
    ) -> bool:
        """Common-prefix agreement between the leader's event sequence and a
        variant's.  Skew-tolerant: only indices both have produced count."""
        common = min(len(leader_seq), len(seq))
        for j in range(common):
            if leader_seq[j] != seq[j]:
                self._diverge(
                    variant,
                    kind,
                    f"{label}[{j}]",
                    leader_seq[j],
                    seq[j],
                    detail=f"first {label} mismatch at index {j}",
                )
                return False
        return True

    def _cross_check(self) -> None:
        leader = self.variants[0]
        for variant in self.variants[1:]:
            if not self._check_prefix(
                "output", "output", leader.output, variant, variant.output
            ):
                return
            if not self._check_prefix(
                "alloc", "alloc", leader.alloc_log, variant, variant.alloc_log
            ):
                return
        if self.compare_state:
            self._cross_check_state(leader)

    def _cross_check_state(self, leader: LockstepVariant) -> None:
        """Replica mode: identical images must march in architectural
        lockstep — compare status, rip, then every register against the
        leader at each sync point."""
        for variant in self.variants[1:]:
            if variant.status != leader.status:
                self._diverge(
                    variant,
                    "status",
                    "status",
                    leader.status,
                    variant.status,
                    detail=str(variant.error) if variant.error else "",
                )
                return
            if variant.status != "running":
                continue
            if variant.state.rip != leader.state.rip:
                self._diverge(
                    variant, "rip", "rip", hex(leader.state.rip), hex(variant.state.rip)
                )
                return
            for index, name in enumerate(REG_NAMES):
                if variant.state.regs[index] != leader.state.regs[index]:
                    self._diverge(
                        variant,
                        "register",
                        name,
                        leader.state.regs[index],
                        variant.state.regs[index],
                    )
                    return

    def _finish(self) -> LockstepResult:
        result = LockstepResult(
            outcome=MveeOutcome.CLEAN,
            variants=self.variants,
            divergence=self.divergence,
            sync_points=self.sync_points,
            notes=self.notes,
        )
        if any(v.status == "detected" for v in self.variants):
            result.outcome = MveeOutcome.TRAPPED
            result.notes.append("an R2C booby trap fired in at least one variant")
            return result
        if self.divergence is not None:
            result.outcome = MveeOutcome.DIVERGED
            return result
        behaviours = {
            (v.status, v.state._exit_code if v.status == "exit" else None, tuple(v.output))
            for v in self.variants
        }
        if len(behaviours) > 1:
            leader = self.variants[0]
            for variant in self.variants[1:]:
                if variant.status != leader.status:
                    self._diverge(
                        variant, "status", "status", leader.status, variant.status
                    )
                    break
                if tuple(variant.output) != tuple(leader.output):
                    self._diverge(
                        variant,
                        "output",
                        f"output[{min(len(leader.output), len(variant.output))}]",
                        len(leader.output),
                        len(variant.output),
                        detail="output lengths differ",
                    )
                    break
                if variant.state._exit_code != leader.state._exit_code:
                    self._diverge(
                        variant,
                        "exit",
                        "exit_code",
                        leader.state._exit_code,
                        variant.state._exit_code,
                    )
                    break
            result.divergence = self.divergence
            result.outcome = MveeOutcome.DIVERGED
            result.notes.append(
                "variant behaviour diverged: "
                + ", ".join(f"v{v.index}={v.status}" for v in self.variants)
            )
        return result


def run_bitflip_lockstep(
    *,
    variants: int = 2,
    corrupt_variant: int = 1,
    fault_seed: int = 0,
    flips: int = 24,
    region: str = "data",
    backend: str = DEFAULT_BACKEND,
    sync_every: int = 64,
    load_seed: int = 0x1C0C,
    requests: int = 4,
) -> LockstepResult:
    """Replica lockstep with a seeded bitflip in one follower.

    Loads N replicas of the (undiversified) victim under one layout, then
    corrupts ``corrupt_variant``'s memory with ``flips`` seeded bitflips
    (via :class:`repro.reliability.faults.FaultPlan`, so the corruption is
    deterministic per ``fault_seed``) and runs the group.  Replica mode
    arms the per-sync register/rip comparison, so a flip that perturbs
    execution is pinned to the exact variant, sync point, and register.

    Used by the lockstep divergence tests and the ``python -m repro mvee
    --bitflip-seed`` demo path (the CI divergence artifact).
    """
    from types import SimpleNamespace

    from repro.core.compiler import compile_module
    from repro.core.config import R2CConfig
    from repro.machine.loader import load_binary
    from repro.reliability.faults import FaultPlan, FaultRule
    from repro.workloads.victim import build_victim

    if not 0 < corrupt_variant < variants:
        raise ValueError("corrupt_variant must name a follower (1..variants-1)")
    binary = compile_module(build_victim(requests=requests), R2CConfig.baseline())
    leader = load_binary(binary, seed=load_seed, execute_only=False)
    leader.register_service("attack_hook", lambda proc, cpu: 0)
    # Replicas fork from the loaded leader (identical layout by
    # construction; an order of magnitude cheaper than re-loading).
    processes = [leader] + [leader.clone() for _ in range(variants - 1)]
    plan = FaultPlan(
        seed=fault_seed,
        rules=(
            FaultRule(
                rule_id="lockstep-bitflip", kind="bitflip", count=flips, region=region
            ),
        ),
    )
    plan.apply_process_faults(
        processes[corrupt_variant],
        SimpleNamespace(label="lockstep-bitflip", load_seed=load_seed),
    )
    group = LockstepGroup(processes, backend=backend, sync_every=sync_every)
    return group.run()
