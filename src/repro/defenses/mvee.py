"""Multi-Variant Execution Engine (the Section 7.3 proposal).

The paper: "A way to strengthen R2C's security would be to combine it with
Multi-Variant Execution Engines.  MVEEs and diversification defenses like
R2C naturally complement each other.  Considering that R2C diversifies
along multiple dimensions, an MVEE would detect data corruption or leakage
in one of the variants with high probability."

This module implements that combination as a façade over
:class:`repro.defenses.lockstep.LockstepGroup`.  An :class:`MVEE` compiles
the same source into N *differently diversified* variants (different R2C
seeds), then runs them in two phases:

1. **Leader phase** — the leader alone is stepped until its attack hook
   fires; the attack logic runs against it and its memory *writes* are
   recorded byte-for-byte.
2. **Lockstep phase** — all variants are stepped in batches by one
   scheduling loop (one decode per distinct binary, N architectural
   states).  Each follower replays the recorded writes at the same
   addresses when *its* hook fires — MVEE input replication.  At every
   sync point the group cross-checks output events and heap-allocation
   ordering; at the end it cross-checks exit status and fault class.

Because the variants' layouts differ, a write that surgically corrupts
the leader lands somewhere else in a follower — and the resulting
behavioural divergence is a detection, even when the attack against a
single variant would have succeeded silently.

**The identical-allocation-sequence invariant.**  Write replay is *by
address*.  That is only meaningful if follower heap objects sit at the
same allocator offsets as the leader's — i.e. every variant must issue
the identical sequence of allocation requests (sizes, in order).  R2C
diversification never perturbs the guest's allocation behaviour (traps
and BTDPs are placed by load-time constructors, not guest ``malloc``), so
the invariant holds for benign runs; the lockstep group *asserts* it at
every sync point by logging each variant's ``malloc`` request sizes and
cross-checking the sequences as prefixes.  A mismatch is reported as an
``alloc`` divergence — allocator drift is then attributable evidence, not
a silent source of bogus write replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.attacks.monitor import DefenseMonitor
from repro.attacks.outcomes import AttackOutcome
from repro.attacks.scenario import arm_write_replay, output_success
from repro.attacks.surface import AttackerView, ReferenceKnowledge
from repro.core.compiler import compile_module
from repro.core.config import R2CConfig
from repro.defenses.lockstep import (
    DivergenceReport,
    LockstepGroup,
    MveeOutcome,
)
from repro.machine.loader import load_binary
from repro.toolchain.ir import Module
from repro.workloads.victim import build_victim

__all__ = [
    "MVEE",
    "MveeOutcome",
    "MveeResult",
    "VariantRun",
    "mvee_attack_outcome",
]


@dataclass
class VariantRun:
    """Observable behaviour of one variant."""

    status: str  # "exit" | "crashed" | "detected"
    exit_code: Optional[int]
    output: Tuple[int, ...]
    attacked_success: bool


@dataclass
class MveeResult:
    outcome: MveeOutcome
    variants: List[VariantRun] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Populated when the lockstep cross-check caught a divergence: which
    #: variant, at which sync point, first mismatching observable.
    divergence: Optional[DivergenceReport] = None
    sync_points: int = 0

    @property
    def detected(self) -> bool:
        return self.outcome in (MveeOutcome.DIVERGED, MveeOutcome.TRAPPED)


class MVEE:
    """Runs N diversified variants of one module in batched lockstep."""

    def __init__(
        self,
        config: R2CConfig,
        *,
        module: Optional[Module] = None,
        variants: int = 2,
        build_seed: int = 0,
        load_seed: int = 0xBEEF,
        backend: str = "reference",
        sync_every: int = 256,
    ):
        if variants < 2:
            raise ValueError("an MVEE needs at least two variants")
        self.module = module if module is not None else build_victim()
        self.configs = [
            config.replace(seed=build_seed + 1000 * index) for index in range(variants)
        ]
        self.binaries = [compile_module(self.module, cfg) for cfg in self.configs]
        self.load_seed = load_seed
        self.backend = backend
        self.sync_every = sync_every
        # The attacker's reference: their own build, as in VictimSession.
        self.reference = ReferenceKnowledge(
            compile_module(self.module, config.replace(seed=build_seed + 0x5EED))
        )
        self.monitor = DefenseMonitor()

    # -- execution -------------------------------------------------------------

    def run(
        self,
        attack_fn: Optional[Callable[[AttackerView], None]] = None,
        *,
        attacker_seed: int = 0,
    ) -> MveeResult:
        """Run all variants (optionally under attack) and cross-check."""
        processes = [
            load_binary(binary, seed=self.load_seed) for binary in self.binaries
        ]
        leader_fired = arm_write_replay(
            processes, self.reference, attack_fn, attacker_seed=attacker_seed
        )
        group = LockstepGroup(
            processes,
            backend=self.backend,
            sync_every=self.sync_every,
            instruction_budget=5_000_000,
            monitor=self.monitor,
            # Diversified variants never match architecturally; only their
            # observable events (output, allocation order, exit) must.
            compare_state=False,
        )
        # Phase 1: the leader runs alone until its hook has fired and the
        # attacker's writes are on record (or the leader stops first).
        group.run_variant_until(0, leader_fired)
        # Phase 2: everyone in batched lockstep; followers replay the
        # leader's writes when their own hooks fire.
        lockstep = group.run()

        runs = [
            VariantRun(
                status=variant.status,
                exit_code=(
                    variant.state._exit_code if variant.status == "exit" else None
                ),
                output=tuple(variant.output),
                attacked_success=output_success(variant.output),
            )
            for variant in lockstep.variants
        ]
        result = MveeResult(
            outcome=MveeOutcome.CLEAN,
            variants=runs,
            divergence=lockstep.divergence,
            sync_points=lockstep.sync_points,
        )
        if any(run.status == "detected" for run in runs):
            result.outcome = MveeOutcome.TRAPPED
            result.notes.append("an R2C booby trap fired in at least one variant")
        elif all(run.attacked_success for run in runs):
            result.outcome = MveeOutcome.COMPROMISED
            result.notes.append("every variant reached the attacker goal identically")
        elif lockstep.outcome is MveeOutcome.DIVERGED:
            result.outcome = MveeOutcome.DIVERGED
            result.notes.extend(lockstep.notes)
        return result


def mvee_attack_outcome(result: MveeResult) -> AttackOutcome:
    """Map an MVEE cross-check result onto the attack-outcome scale."""
    if result.outcome is MveeOutcome.COMPROMISED:
        return AttackOutcome.SUCCESS
    if result.outcome is MveeOutcome.DIVERGED:
        return AttackOutcome.DIVERGED
    if result.detected:
        return AttackOutcome.DETECTED
    return AttackOutcome.FAILED
