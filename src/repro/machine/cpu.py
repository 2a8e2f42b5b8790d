"""The CPU: a machine state bound to an execution backend.

Since the program/state split, architectural state — registers, flags,
the shadow stack, the i-cache, the halt latch — lives in
:class:`~repro.machine.state.MachineState`; the per-instruction
interpretation lives in pluggable execution backends
(:mod:`repro.machine.backends`), which take a *(program, state)* pair:

* ``reference`` — the original monolithic interpreter loop, preserved
  verbatim as the semantic baseline;
* ``fast`` — per-opcode handler tables over a pre-resolved micro-op
  stream (:mod:`repro.machine.uops`), decoded once per binary;
* ``jit`` — compiled block functions and traces
  (:mod:`repro.machine.jit`); observed runs (trace hook, tag
  attribution, opcode counts) run on ``fast``.

:class:`CPU` is the thin façade that binds one state to one decoded
program under one backend: it *is* a ``MachineState`` (so every trace
hook, runtime service, and micro-op handler keeps receiving the familiar
object), plus a backend name and the classic :meth:`CPU.run` /
:meth:`CPU.step` entry points.  Callers that drive several states with
one program — the lockstep MVEE, the debugger — talk to the backend
directly instead.

All backends are required to produce byte-identical
:class:`ExecutionResult` counters and to raise the same faults
(:class:`BoobyTrapTriggered`, :class:`GuardPageFault`, shadow-stack
violations, ...) at the same instructions; ``tests/test_backends.py`` and
the property-based equivalence suite enforce this.

Executed ``TRAP`` instructions raise :class:`BoobyTrapTriggered` — that is a
booby trap detonating (a BTRA being returned to, or a prolog trap being
reached by a mislocated gadget), not an ordinary crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import MachineError
from repro.machine.costs import MachineCosts
from repro.machine.isa import Op
from repro.machine.process import Process
from repro.machine.state import MachineState

__all__ = ["CPU", "ExecutionResult", "UNTAGGED_TAG"]

#: Attribution bucket for untagged (application) instructions.  With
#: ``attribute_tags=True`` every executed instruction lands in exactly one
#: ``tag_cycles``/``tag_counts`` bucket — diversification-emitted code
#: under its own tag, everything else here — so the buckets decompose the
#: run's total cycles and instruction count.
UNTAGGED_TAG = "app"


@dataclass
class ExecutionResult:
    """Counters and outputs from one program run.

    Every field is backend-invariant: the ``reference`` and ``fast``
    backends fill identical values (including ``opcode_counts`` and
    ``tag_cycles``) for the same program and seed.
    """

    exit_code: int = 0
    instructions: int = 0
    #: Total cycles as a float, derived from ``cycle_units`` at every
    #: flush point (one exact division — never accumulated in float, so
    #: sliced ``step()`` runs and whole runs agree bit-for-bit).
    cycles: float = 0.0
    #: Total cycles in exact integer units of 1/``CYCLE_UNIT`` cycles —
    #: the canonical accumulator all backends add into.  Integer addition
    #: is associative, which is what lets the tier-2 backend fold whole
    #: blocks of charges into single literals.
    cycle_units: int = 0
    calls: int = 0
    rets: int = 0
    branches: int = 0
    #: Branch-family instructions that redirected control flow.  A faulting
    #: indirect target is not counted (the fault wins, matching the
    #: reference loop's ordering).
    branches_taken: int = 0
    icache_hits: int = 0
    icache_misses: int = 0
    #: Instructions carrying a memory operand — the same predicate that
    #: charges ``mem_operand_extra``.
    mem_ops: int = 0
    #: Booby traps detonated (executed TRAP instructions); counted before
    #: the BoobyTrapTriggered fault propagates.
    traps: int = 0
    output: List[int] = field(default_factory=list)
    opcode_counts: Dict[Op, int] = field(default_factory=dict)
    #: Cycles attributed to instruction tags, filled when the CPU runs with
    #: ``attribute_tags=True``.  Untagged instructions land under
    #: :data:`UNTAGGED_TAG`.  Derived from ``tag_cycle_units`` at flush
    #: time; the unit buckets sum to ``cycle_units`` exactly and
    #: ``tag_counts`` sums to ``instructions`` exactly.
    tag_cycles: Dict[str, float] = field(default_factory=dict)
    #: Per-tag cycle totals in integer units (canonical accumulator
    #: behind ``tag_cycles``).
    tag_cycle_units: Dict[str, int] = field(default_factory=dict)
    #: Per-tag executed-instruction counts (same bucketing as ``tag_cycles``).
    tag_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def icache_miss_rate(self) -> float:
        total = self.icache_hits + self.icache_misses
        return self.icache_misses / total if total else 0.0

    def perf_counters(self):
        """This run as a :class:`repro.obs.counters.PerfCounters` view."""
        from repro.obs.counters import PerfCounters

        return PerfCounters.from_result(self)


class CPU(MachineState):
    """One :class:`MachineState` bound to a named execution backend.

    ``backend`` selects the execution backend by name (see
    :mod:`repro.machine.backends`); the default ``"reference"`` is the
    original interpreter loop.  The decoded program is prepared lazily on
    first :meth:`run`/:meth:`step` and cached for the CPU's lifetime.
    """

    def __init__(
        self,
        process: Process,
        costs: MachineCosts,
        *,
        check_alignment: bool = True,
        instruction_budget: int = 50_000_000,
        count_opcodes: bool = False,
        trace_fn=None,
        shadow_stack: bool = False,
        attribute_tags: bool = False,
        backend: str = "reference",
    ):
        super().__init__(
            process,
            costs,
            check_alignment=check_alignment,
            instruction_budget=instruction_budget,
            count_opcodes=count_opcodes,
            trace_fn=trace_fn,
            shadow_stack=shadow_stack,
            attribute_tags=attribute_tags,
        )
        self.backend_name = backend
        self._program = None

    # -- execution ------------------------------------------------------------

    def _bind(self):
        """(backend, prepared program) for this CPU — prepared once."""
        from repro.machine.backends import get_backend

        backend = get_backend(self.backend_name)
        if self._program is None:
            self._program = backend.prepare(self)
        return backend, self._program

    def run(self, entry: Optional[int] = None, result: Optional[ExecutionResult] = None) -> ExecutionResult:
        """Run from ``entry`` (default: the process entry point) until EXIT.

        Faults (memory, booby traps, budget) propagate as exceptions; the
        partially filled ``result`` can be passed in by callers that want
        counters even when the run crashes.
        """
        backend, program = self._bind()
        if entry is None:
            entry = self.process.entry_point
        if entry is None:
            raise MachineError("process has no entry point")
        res = result if result is not None else ExecutionResult()
        self.rip = entry
        self._halted = False
        return backend.execute(program, self, res)

    def step(self, result: ExecutionResult, max_steps: int = 1) -> bool:
        """Execute up to ``max_steps`` instructions from the current ``rip``.

        Returns True once the program has halted.  Counters accumulate
        into ``result`` across calls, and a sequence of steps is
        byte-identical to one uninterrupted :meth:`run` — including the
        instruction budget, which counts ``result.instructions`` as
        already spent.  Callers start a fresh run by setting ``rip`` (or
        calling :meth:`run`); ``step`` never resets state.
        """
        backend, program = self._bind()
        return backend.step(program, self, result, max_steps)
