"""Architectural state as a first-class value.

:class:`MachineState` owns everything a run mutates — the sixteen general
registers, the vector registers, ``rip``, the compare flag, the shadow
stack, the i-cache, the halt latch — plus the handles execution needs (the
:class:`~repro.machine.process.Process` whose memory it reads and writes,
the :class:`~repro.machine.costs.MachineCosts` model) and the knobs that
parameterize interpretation (instruction budget, shadow stack, tag
attribution, the trace hook).

Execution itself lives elsewhere: a *program* (the process's decoded
instruction index, or a bound micro-op program) plus a backend
(:mod:`repro.machine.backends`) drive a state forward.  One decoded
program can therefore drive any number of states — the mechanism behind
:class:`repro.defenses.lockstep.LockstepGroup`'s N-variant execution —
and a state can be handed between drivers (the debugger single-steps the
same state a backend later runs to completion).

:func:`repro.machine.backends.run` runs a state from its process's entry
point on a named backend, accumulating into an :class:`ExecutionResult`.
Trace hooks, runtime services and micro-op handlers receive the state
itself as their ``cpu`` argument.

Snapshots
---------

:meth:`clone` captures the architectural state — registers, flags,
shadow stack, i-cache contents *and* hit/miss counters, halt latch —
into a detached copy; :meth:`restore` copies a snapshot back in place.
The process handle (and with it memory) is shared, not copied: memory is
owned by the process, and write-effects are not part of the
architectural snapshot.  Within that contract, execution resumed from
any point is byte-identical to uninterrupted execution on every
registered backend (``tests/test_state.py`` proves it property-based).
The ``jit`` backend honours this by construction: a resume address that
lands mid-block — a debugger hand-off, a BTRA-displaced return — takes
its deopt path onto the interpreter for exactly the block residue, so
stepping a state and running it produce the same trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import InvalidInstruction
from repro.machine.costs import MachineCosts
from repro.machine.icache import ICache
from repro.machine.isa import Imm, Mem, Reg
from repro.machine.process import Process
from repro.numeric import MASK64

__all__ = ["ExecutionResult", "MachineState", "UNTAGGED_TAG"]

#: Attribution bucket for untagged (application) instructions.  With
#: ``attribute_tags=True`` every executed instruction lands in exactly one
#: ``tag_cycles``/``tag_counts`` bucket — diversification-emitted code
#: under its own tag, everything else here — so the buckets decompose the
#: run's total cycles and instruction count.
UNTAGGED_TAG = "app"


@dataclass
class ExecutionResult:
    """Counters and outputs from one program run.

    Every field is backend-invariant: every registered backend fills
    identical values (including ``tag_cycles``) for the same program and
    seed.  How a backend got them (blocks compiled, deopts taken) is
    host-side, not machine state; :data:`repro.machine.jit.JIT_STATS`
    counts that.
    """

    exit_code: int = 0
    #: Instructions executed, including the one that faulted (the budget
    #: check and trace hook run before execution).
    instructions: int = 0
    #: Total simulated cycles (per-opcode base cost + i-cache miss
    #: penalties + the memory-operand surcharge) as a float, derived from
    #: ``cycle_units`` at every flush point (one exact division — never
    #: accumulated in float, so sliced ``step()`` runs and whole runs
    #: agree bit-for-bit).
    cycles: float = 0.0
    #: Total cycles in exact integer units of 1/``CYCLE_UNIT`` cycles —
    #: the canonical accumulator all backends add into.  Integer addition
    #: is associative, which is what lets the tier-2 backend fold whole
    #: blocks of charges into single literals.
    cycle_units: int = 0
    calls: int = 0
    rets: int = 0
    #: Branch-family instructions executed: ``jmp`` and every ``jcc``
    #: (calls and returns are counted apart).
    branches: int = 0
    #: Branch-family instructions that redirected control flow.  A faulting
    #: indirect target is not counted (the fault wins, matching the
    #: reference loop's ordering).  The frontend predicts fall-through, so
    #: these are also the mispredicts.
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
    #: Cycles attributed to instruction tags, filled when the state runs
    #: with ``attribute_tags=True``.  Untagged instructions land under
    #: :data:`UNTAGGED_TAG`.  Derived from ``tag_cycle_units`` at flush
    #: time; the unit buckets sum to ``cycle_units`` exactly and
    #: ``tag_counts`` sums to ``instructions`` exactly, while
    #: ``sum(tag_cycles.values())`` equals ``cycles`` only up to float
    #: re-association (compare with ``math.isclose``).
    tag_cycles: Dict[str, float] = field(default_factory=dict)
    #: Per-tag cycle totals in integer units (canonical accumulator
    #: behind ``tag_cycles``).
    tag_cycle_units: Dict[str, int] = field(default_factory=dict)
    #: Per-tag executed-instruction counts (same bucketing as
    #: ``tag_cycles``).  Those under ``btra*`` and ``btdp*`` tags are the
    #: reactive-camouflage work a run performed.
    tag_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def icache_miss_rate(self) -> float:
        total = self.icache_hits + self.icache_misses
        return self.icache_misses / total if total else 0.0


class MachineState:
    """The architectural state of one executing variant.

    Mutable execution state lives here; interpretation lives in the
    execution backends.  All attribute names are part of the handler
    calling convention (micro-op handlers, trace hooks, and runtime
    services receive this object), so they are stable API.
    """

    def __init__(
        self,
        process: Process,
        costs: MachineCosts,
        *,
        instruction_budget: int = 50_000_000,
        trace_fn=None,
        shadow_stack: bool = False,
        attribute_tags: bool = False,
    ):
        self.process = process
        self.costs = costs
        self.instruction_budget = instruction_budget
        #: Backward-edge CFI (Section 8.2 comparison): calls push the
        #: return address onto a protected shadow stack; a ret whose target
        #: disagrees raises ShadowStackViolation.
        self.shadow_stack_enabled = shadow_stack
        self.shadow_stack: List[int] = []
        #: Attribute cycles to instruction tags (overhead decomposition).
        self.attribute_tags = attribute_tags
        #: Optional per-instruction hook ``trace_fn(state, rip, instr)``,
        #: called before execution.  Debugging/analysis only (it sees the
        #: machine state the instruction will observe).
        self.trace_fn = trace_fn
        self.icache = ICache(costs.icache_size, costs.icache_line, costs.icache_ways)
        self.regs: List[int] = [0] * 16
        self.regs[Reg.RSP] = process.layout.stack_top & ~0xF
        self.vregs: List[bytes] = [bytes(32)] * 4
        self.rip = 0
        self._cmp = 0  # signed result of the last CMP/TEST
        self._halted = False
        self._exit_code = 0
        # Counters handlers and compiled units bump; ``fast`` and ``jit``
        # drives add them into their result and zero them
        # (backends.flush_handler_counters).
        self._bk_calls = self._bk_rets = self._bk_branches = self._bk_taken = self._bk_traps = 0
        #: Exactly one driver may step this state (the debugger claims it);
        #: passive trace hooks chain on ``trace_fn`` instead.
        self.debugger_attached = False

    # -- register access ----------------------------------------------------

    def get_reg(self, reg: Reg) -> int:
        return self.regs[reg]

    def set_reg(self, reg: Reg, value: int) -> None:
        self.regs[reg] = value & MASK64

    # -- operand evaluation -------------------------------------------------

    def _mem_address(self, operand: Mem) -> int:
        addr = operand.offset
        if operand.base is not None:
            addr += self.regs[operand.base]
        if operand.index is not None:
            addr += self.regs[operand.index] * operand.scale
        return addr & MASK64

    def _read_operand(self, operand) -> int:
        if isinstance(operand, Reg):
            return self.regs[operand]
        if isinstance(operand, Imm):
            if operand.symbol is not None:
                raise InvalidInstruction(f"unresolved symbol {operand.symbol!r} at runtime")
            return operand.value & MASK64
        if isinstance(operand, Mem):
            return self.process.memory.read_word(self._mem_address(operand))
        raise InvalidInstruction(f"cannot read operand {operand!r}")

    def _write_operand(self, operand, value: int) -> None:
        if isinstance(operand, Reg):
            self.regs[operand] = value & MASK64
        elif isinstance(operand, Mem):
            self.process.memory.write_word(self._mem_address(operand), value)
        else:
            raise InvalidInstruction(f"cannot write operand {operand!r}")

    def _branch_target(self, operand) -> int:
        if isinstance(operand, Imm):
            if operand.symbol is not None:
                raise InvalidInstruction(f"unresolved branch target {operand.symbol!r}")
            return operand.value & MASK64
        if isinstance(operand, Reg):
            return self.regs[operand]
        if isinstance(operand, Mem):
            return self.process.memory.read_word(self._mem_address(operand))
        raise InvalidInstruction(f"bad branch target {operand!r}")

    # -- snapshot / restore --------------------------------------------------

    #: Mutable architectural fields a snapshot must deep-copy.  The process
    #: (and its memory) is deliberately *shared*: write-effects belong to
    #: the process, not the architectural snapshot.
    _SNAPSHOT_SCALARS = ("rip", "_cmp", "_halted", "_exit_code")

    def clone(self) -> "MachineState":
        """A detached copy of the architectural state.

        The copy shares the process/memory handle, cost model, and trace
        hook, but owns private copies of every mutable architectural
        field — registers, vector registers, shadow stack, and the
        i-cache including its hit/miss counters — so stepping the copy
        (or the original) cannot perturb the other.
        """
        twin = MachineState.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin.regs = list(self.regs)
        twin.vregs = list(self.vregs)
        twin.shadow_stack = list(self.shadow_stack)
        twin.icache = self.icache.clone()
        return twin

    def restore(self, snapshot: "MachineState") -> None:
        """Copy ``snapshot``'s architectural state back into this state.

        The inverse of :meth:`clone`: after ``state.restore(snap)`` the
        state's registers, flags, shadow stack, i-cache, and halt latch
        equal the snapshot's.  Memory is untouched — callers replaying
        execution are responsible for the process side of the world.
        """
        self.regs = list(snapshot.regs)
        self.vregs = list(snapshot.vregs)
        self.shadow_stack = list(snapshot.shadow_stack)
        self.icache = snapshot.icache.clone()
        for name in self._SNAPSHOT_SCALARS:
            setattr(self, name, getattr(snapshot, name))

    def state_equal(self, other: "MachineState") -> bool:
        """Architectural equality (registers, flags, shadow stack, i-cache
        counters) — the predicate the snapshot property tests assert."""
        return (
            self.regs == other.regs
            and self.vregs == other.vregs
            and self.shadow_stack == other.shadow_stack
            and self.rip == other.rip
            and self._cmp == other._cmp
            and self._halted == other._halted
            and self._exit_code == other._exit_code
            and self.icache.hits == other.icache.hits
            and self.icache.misses == other.icache.misses
        )
