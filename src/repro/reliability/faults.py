"""Deterministic fault injection for the experiment engine.

R2C is a *reactive* defense: its value proposition is that corruption
faults immediately and the defender survives the fault (Sections 4.2,
7.2).  Proving the survival half needs faults on demand — so this module
defines a seeded, picklable :class:`FaultPlan` the engine threads through
to its workers.  Rules match request labels by glob and inject one of five
fault kinds, each exercising a different error path:

``bitflip``
    Flip seeded bits in a mapped region of the loaded process before
    execution (:meth:`~repro.machine.memory.Memory.corrupt_bit`).  Applied
    once, pre-run, so every registered backend then runs the *same* corrupted
    image — fault records stay byte-identical across backends.
``alloc-oom``
    Arm the process allocator to fail after N more allocations
    (:meth:`~repro.heap.allocator.Allocator.arm_oom`).
``compile-error``
    Raise a synthetic :class:`~repro.errors.InjectedFault` before the
    compile, modelling toolchain breakage.
``worker-crash``
    Hard-kill the pool worker (``os._exit``) mid-batch; in-process
    execution records the crash instead of taking down the host.
``worker-hang``
    Sleep past the engine's wall-clock timeout in a pool worker; serial
    execution converts the rule directly into a ``timeout`` record.

Determinism: bitflip addresses derive from ``DiversityRng(plan.seed)``
keyed by (rule id, load seed) — never from the label — so two requests
with equal run keys matched by the same rules behave identically and the
engine's run-level dedup stays sound (the engine extends the run key with
:meth:`FaultPlan.injection_signature`).
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.rng import DiversityRng

#: The supported fault kinds, in documentation order.
FAULT_KINDS = (
    "bitflip",
    "alloc-oom",
    "compile-error",
    "worker-crash",
    "worker-hang",
)

#: Regions a bitflip rule may target.  Text is deliberately absent:
#: instructions are simulator objects, not bytes, so flipping text pages
#: would corrupt nothing observable.
BITFLIP_REGIONS = ("data", "heap", "stack")


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: *which* requests (label glob) get *what* fault.

    ``rule_id`` is free-form but must be unique within a plan; it is
    carried into the failure detail of every record the rule produces, so
    chaos runs can assert each rule actually fired.
    """

    rule_id: str
    kind: str
    match: str = "*"
    #: bitflip: how many bits to flip.
    count: int = 1
    #: bitflip: which region of the address space to corrupt.
    region: str = "data"
    #: alloc-oom: how many allocations to allow after arming.
    after_allocs: int = 0
    #: worker-hang: how long the worker sleeps (should exceed the engine
    #: timeout, or the "hang" resolves itself).
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}")
        if self.kind == "bitflip" and self.region not in BITFLIP_REGIONS:
            raise ValueError(
                f"bad bitflip region {self.region!r}; choose from {BITFLIP_REGIONS}"
            )

    def matches(self, label: str) -> bool:
        return fnmatch.fnmatchcase(label, self.match)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, immutable, picklable set of :class:`FaultRule`.

    Plans cross the process boundary with every worker dispatch, so they
    must stay plain data.  All lookups key on the request *label* — labels
    are the experiment-facing name of a cell, which is what a chaos matrix
    naturally addresses.
    """

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        ids = [rule.rule_id for rule in self.rules]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate rule ids in plan: {ids}")

    # -- lookups -----------------------------------------------------------

    def rules_for(self, label: str) -> Tuple[FaultRule, ...]:
        return tuple(rule for rule in self.rules if rule.matches(label))

    def rule_of_kind(self, label: str, kind: str) -> Optional[FaultRule]:
        for rule in self.rules:
            if rule.kind == kind and rule.matches(label):
                return rule
        return None

    def injection_signature(self, label: str) -> Optional[Tuple[object, ...]]:
        """What the engine appends to the run key for this label.

        ``None`` means no rule matches — the request's behaviour is
        untouched and the plain run key stands.  Otherwise the signature
        captures everything that can change behaviour: the plan seed and
        the matched rule set.
        """
        matched = self.rules_for(label)
        if not matched:
            return None
        return (self.seed, tuple(rule.rule_id for rule in matched))

    # -- application -------------------------------------------------------

    def apply_process_faults(self, process, request) -> List[str]:
        """Arm per-process faults (bitflips, allocator OOM) on a loaded
        process; returns the rule IDs actually applied."""
        label = request.label
        applied: List[str] = []
        oom = self.rule_of_kind(label, "alloc-oom")
        if oom is not None and process.allocator is not None:
            process.allocator.arm_oom(oom.after_allocs, oom.rule_id)
            applied.append(oom.rule_id)
        for rule in self.rules:
            if rule.kind == "bitflip" and rule.matches(label):
                self._apply_bitflips(process, request, rule)
                applied.append(rule.rule_id)
        return applied

    def _apply_bitflips(self, process, request, rule: FaultRule) -> None:
        layout = process.layout
        base, size = {
            "data": (layout.data_base, layout.data_size),
            "heap": (layout.heap_base, layout.heap_size),
            "stack": (layout.stack_base, layout.stack_size),
        }[rule.region]
        rng = DiversityRng(self.seed).child(f"{rule.rule_id}:{request.load_seed}")
        words = max(1, size // 8)
        for _ in range(max(1, rule.count)):
            word = rng.randint(0, words - 1)
            bit = rng.randint(0, 63)
            process.memory.corrupt_bit(base + word * 8 + bit // 8, bit % 8)
