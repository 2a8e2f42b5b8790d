"""Execution backends: the dispatch/execute stages of the pipeline.

Architectural state lives in :class:`~repro.machine.state.MachineState`;
a backend owns the interpretation loop and takes a *(program, state)*
pair.  ``prepare(state)`` returns the program that backend drives for
the state's process (``fast`` and ``jit`` cache it on the process, so N
states over one process share it); ``execute(program, state, res)`` runs
the state from ``state.rip`` to completion;
``step(program, state, res, max_steps)`` advances at most
``max_steps`` instructions and returns whether the program has halted —
the primitive under the debugger's single-stepping and the lockstep
MVEE's batched N-variant scheduling.  :func:`run` is the one-call form:
run a state from its process's entry point on a named backend.

Three implementations ship:

* :class:`ReferenceBackend` (``"reference"``) — the original monolithic
  interpreter loop, moved here verbatim.  Its program is the process's
  instruction index; it re-classifies operands and re-checks fetch
  permissions on every instruction and is the semantic baseline every
  other backend is measured against.
* :class:`FastBackend` (``"fast"``) — drives the pre-resolved micro-ops
  of :mod:`repro.machine.uops`, binding each address the first time it
  fetches it.  Operand dispatch, memory address recipes, instruction
  costs, and i-cache line spans are resolved at that bind, so the hot
  loop is a handler call plus cost bookkeeping, and a load binds only
  the code its processes run, once for all its clones.  A fetch check
  runs once per page: the loop compares each micro-op's interned page
  with the page it last checked, and on a change looks the page up in
  the memory's set of pages checked since the last mapping/protection
  change.
* :class:`~repro.machine.jit.JitBackend` (``"jit"``) — the final stage
  of the progressive-lowering pipeline (tier 0: micro-ops; tier 1:
  basic-block CFG with superinstruction fusion,
  :mod:`repro.machine.blocks`; tier 2: one ``exec``-compiled Python
  function per block, :mod:`repro.machine.jit`).  Budget checks, cost
  folds, and i-cache accounting collapse into block prologs.  ``fast``
  is its one interpreter: cold code and anything the compiled form
  cannot express bit-identically run there, in block-granular spans
  over the process's micro-ops, and observed drives (trace hook, tag
  attribution) run there wholesale.  ``reference`` stays the
  differential oracle.

All backends must fill byte-identical :class:`ExecutionResult`\\ s —
same counters, same faults at the same ``rip``, same shadow-stack and
trace-hook behaviour.  Cycle accounting is carried in exact integer
units (``costs.CYCLE_UNIT`` units per cycle); because integer addition
is associative the grouping of the additions is immaterial — a backend
may charge per instruction, per ``step`` slice, or per folded basic
block and still land on the same total.  Float ``res.cycles`` is
*derived* from ``res.cycle_units`` at every flush (one exact division),
never accumulated in float, so a run advanced in arbitrary ``step``
slices accumulates, into one result, the exact bytes an uninterrupted
``execute`` produces.  The instruction budget counts
``res.instructions`` already accumulated — a fresh result reproduces
the historical per-call semantics bit-for-bit.
``tests/test_backends.py``, ``tests/test_state.py`` and the equivalence
suite hold them to all of this.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import (
    BoobyTrapTriggered,
    ExecutionLimitExceeded,
    InvalidInstruction,
    MachineError,
    ShadowStackViolation,
    StackMisaligned,
)
from repro.machine.costs import CYCLE_UNIT
from repro.machine.isa import Imm, Mem, Op, Reg, VECTOR_WORDS, WORD
from repro.machine.state import UNTAGGED_TAG, ExecutionResult
from repro.machine.uops import HALT, MicroOp, _bind_one, get_bound_program
from repro.numeric import MASK64, to_signed, truncated_div

__all__ = [
    "ExecutionBackend",
    "ReferenceBackend",
    "FastBackend",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "available_backends",
    "get_backend",
    "run",
]


class ExecutionBackend:
    """A dispatch/execute stage over *(program, state)* pairs.

    Each backend supplies ``prepare`` (resolve a state's process into
    the program form it drives) and ``_drive`` (advance from
    ``state.rip`` until EXIT, a fault, or ``max_steps`` instructions,
    accumulating into ``res`` exactly like the reference loop; counters
    are flushed even when a fault propagates).  On top of ``_drive``,
    ``execute`` runs to completion and ``step`` advances at most
    ``max_steps`` instructions, returning True once the program has
    halted.
    """

    name: str

    def execute(self, program, state, res):
        self._drive(program, state, res, None)
        res.exit_code = state._exit_code
        state.process.exit_code = state._exit_code
        return res

    def step(self, program, state, res, max_steps: int) -> bool:
        if state._halted:
            return True
        self._drive(program, state, res, max_steps)
        if state._halted:
            res.exit_code = state._exit_code
            state.process.exit_code = state._exit_code
        return state._halted


class ReferenceBackend(ExecutionBackend):
    """The original interpreter loop, preserved as the semantic baseline."""

    name = "reference"

    def prepare(self, state):
        """The reference program is the process's instruction index."""
        return state.process.instructions

    def _drive(self, program, cpu, res, max_steps: Optional[int]):
        # Local bindings for the hot loop.
        instructions = program
        op_units = cpu.costs.op_unit_costs
        mem_extra = cpu.costs.mem_operand_extra_units
        miss_penalty = cpu.costs.icache_miss_penalty_units
        icache_access = cpu.icache.access
        regs = cpu.regs
        memory = cpu.process.memory
        budget = cpu.instruction_budget - res.instructions
        shadow = cpu.shadow_stack if cpu.shadow_stack_enabled else None
        attribute = cpu.attribute_tags
        tag_units = res.tag_cycle_units
        tag_counts = res.tag_counts

        remaining = max_steps
        executed = 0
        cycles = 0
        calls = 0
        rets = 0
        branches = 0
        taken = 0
        mem_ops = 0
        traps = 0

        try:
            while not cpu._halted:
                if remaining is not None:
                    if remaining == 0:
                        break
                    remaining -= 1
                rip = cpu.rip
                instr = instructions.get(rip)
                if instr is None:
                    memory.fetch_check(rip)
                    raise InvalidInstruction(f"no instruction at {rip:#x}")
                memory.fetch_check(rip, instr.size)

                executed += 1
                if executed > budget:
                    raise ExecutionLimitExceeded(
                        f"budget of {cpu.instruction_budget} instructions exceeded"
                    )

                if cpu.trace_fn is not None:
                    cpu.trace_fn(cpu, rip, instr)

                op = instr.op
                cost = op_units[op]
                misses = icache_access(rip, instr.size)
                if misses:
                    cost += misses * miss_penalty
                if isinstance(instr.a, Mem) or isinstance(instr.b, Mem):
                    cost += mem_extra
                    mem_ops += 1
                cycles += cost
                if attribute:
                    tag = instr.tag if instr.tag is not None else UNTAGGED_TAG
                    tag_units[tag] = tag_units.get(tag, 0) + cost
                    tag_counts[tag] = tag_counts.get(tag, 0) + 1

                next_rip = rip + instr.size

                if op is Op.MOV:
                    cpu._write_operand(instr.a, cpu._read_operand(instr.b))
                elif op is Op.PUSH:
                    rsp = (regs[Reg.RSP] - WORD) & MASK64
                    regs[Reg.RSP] = rsp
                    memory.write_word(rsp, cpu._read_operand(instr.a))
                elif op is Op.POP:
                    rsp = regs[Reg.RSP]
                    cpu._write_operand(instr.a, memory.read_word(rsp))
                    regs[Reg.RSP] = (rsp + WORD) & MASK64
                elif op is Op.ADD:
                    cpu._write_operand(
                        instr.a, cpu._read_operand(instr.a) + cpu._read_operand(instr.b)
                    )
                elif op is Op.SUB:
                    cpu._write_operand(
                        instr.a, cpu._read_operand(instr.a) - cpu._read_operand(instr.b)
                    )
                elif op is Op.IMUL:
                    cpu._write_operand(
                        instr.a,
                        to_signed(cpu._read_operand(instr.a)) * to_signed(cpu._read_operand(instr.b)),
                    )
                elif op is Op.IDIV:
                    divisor = to_signed(cpu._read_operand(instr.b))
                    if divisor == 0:
                        raise MachineError(f"division by zero at {rip:#x}")
                    dividend = to_signed(cpu._read_operand(instr.a))
                    cpu._write_operand(instr.a, truncated_div(dividend, divisor))
                elif op is Op.AND:
                    cpu._write_operand(
                        instr.a, cpu._read_operand(instr.a) & cpu._read_operand(instr.b)
                    )
                elif op is Op.OR:
                    cpu._write_operand(
                        instr.a, cpu._read_operand(instr.a) | cpu._read_operand(instr.b)
                    )
                elif op is Op.XOR:
                    cpu._write_operand(
                        instr.a, cpu._read_operand(instr.a) ^ cpu._read_operand(instr.b)
                    )
                elif op is Op.SHL:
                    cpu._write_operand(
                        instr.a, cpu._read_operand(instr.a) << (cpu._read_operand(instr.b) & 63)
                    )
                elif op is Op.SHR:
                    cpu._write_operand(
                        instr.a, (cpu._read_operand(instr.a) & MASK64) >> (cpu._read_operand(instr.b) & 63)
                    )
                elif op is Op.NEG:
                    cpu._write_operand(instr.a, -cpu._read_operand(instr.a))
                elif op is Op.LEA:
                    if not isinstance(instr.b, Mem):
                        raise InvalidInstruction("lea requires a memory operand")
                    cpu._write_operand(instr.a, cpu._mem_address(instr.b))
                elif op is Op.CMP:
                    cpu._cmp = to_signed(cpu._read_operand(instr.a)) - to_signed(
                        cpu._read_operand(instr.b)
                    )
                elif op is Op.TEST:
                    cpu._cmp = to_signed(
                        cpu._read_operand(instr.a) & cpu._read_operand(instr.b)
                    )
                elif op is Op.SETE:
                    cpu._write_operand(instr.a, 1 if cpu._cmp == 0 else 0)
                elif op is Op.SETNE:
                    cpu._write_operand(instr.a, 1 if cpu._cmp != 0 else 0)
                elif op is Op.SETL:
                    cpu._write_operand(instr.a, 1 if cpu._cmp < 0 else 0)
                elif op is Op.SETLE:
                    cpu._write_operand(instr.a, 1 if cpu._cmp <= 0 else 0)
                elif op is Op.SETG:
                    cpu._write_operand(instr.a, 1 if cpu._cmp > 0 else 0)
                elif op is Op.SETGE:
                    cpu._write_operand(instr.a, 1 if cpu._cmp >= 0 else 0)
                elif op is Op.JMP:
                    next_rip = cpu._branch_target(instr.a)
                    branches += 1
                    taken += 1
                elif op is Op.JE:
                    branches += 1
                    if cpu._cmp == 0:
                        next_rip = cpu._branch_target(instr.a)
                        taken += 1
                elif op is Op.JNE:
                    branches += 1
                    if cpu._cmp != 0:
                        next_rip = cpu._branch_target(instr.a)
                        taken += 1
                elif op is Op.JL:
                    branches += 1
                    if cpu._cmp < 0:
                        next_rip = cpu._branch_target(instr.a)
                        taken += 1
                elif op is Op.JLE:
                    branches += 1
                    if cpu._cmp <= 0:
                        next_rip = cpu._branch_target(instr.a)
                        taken += 1
                elif op is Op.JG:
                    branches += 1
                    if cpu._cmp > 0:
                        next_rip = cpu._branch_target(instr.a)
                        taken += 1
                elif op is Op.JGE:
                    branches += 1
                    if cpu._cmp >= 0:
                        next_rip = cpu._branch_target(instr.a)
                        taken += 1
                elif op is Op.CALL:
                    if regs[Reg.RSP] % 16 != 0:
                        raise StackMisaligned(
                            f"rsp={regs[Reg.RSP]:#x} not 16-byte aligned at call ({rip:#x})"
                        )
                    target = cpu._branch_target(instr.a)
                    rsp = (regs[Reg.RSP] - WORD) & MASK64
                    regs[Reg.RSP] = rsp
                    memory.write_word(rsp, next_rip)
                    if shadow is not None:
                        shadow.append(next_rip)
                    next_rip = target
                    calls += 1
                elif op is Op.RET:
                    rsp = regs[Reg.RSP]
                    next_rip = memory.read_word(rsp)
                    regs[Reg.RSP] = (rsp + WORD) & MASK64
                    if shadow is not None:
                        expected = shadow.pop() if shadow else 0
                        if expected != next_rip:
                            raise ShadowStackViolation(expected, next_rip)
                    rets += 1
                elif op is Op.NOP:
                    pass
                elif op is Op.TRAP:
                    traps += 1
                    raise BoobyTrapTriggered(rip)
                elif op is Op.VLOAD or op is Op.VLOAD512:
                    if not isinstance(instr.b, Mem):
                        raise InvalidInstruction("vload requires a memory source")
                    nbytes = WORD * (VECTOR_WORDS if op is Op.VLOAD else 2 * VECTOR_WORDS)
                    data = memory.read(cpu._mem_address(instr.b), nbytes)
                    cpu.vregs[instr.a - Reg.YMM0] = data
                elif op is Op.VSTORE or op is Op.VSTORE512:
                    if not isinstance(instr.a, Mem):
                        raise InvalidInstruction("vstore requires a memory destination")
                    memory.write(cpu._mem_address(instr.a), cpu.vregs[instr.b - Reg.YMM0])
                elif op is Op.VZEROUPPER:
                    pass
                elif op is Op.CALLRT:
                    if not isinstance(instr.a, Imm) or instr.a.symbol is None:
                        raise InvalidInstruction("callrt requires a service name")
                    fn = cpu.process.service(instr.a.symbol)
                    regs[Reg.RAX] = fn(cpu.process, cpu) & MASK64
                elif op is Op.OUT:
                    cpu.process.output.append(cpu._read_operand(instr.a))
                elif op is Op.EXIT:
                    cpu._exit_code = cpu._read_operand(instr.a) if instr.a is not None else 0
                    cpu._halted = True
                else:  # pragma: no cover - exhaustive over Op
                    raise InvalidInstruction(f"unimplemented opcode {op}")

                cpu.rip = next_rip
        finally:
            res.instructions += executed
            res.cycle_units += cycles
            res.cycles = res.cycle_units / CYCLE_UNIT
            if attribute and tag_units:
                res.tag_cycles = {tag: units / CYCLE_UNIT for tag, units in tag_units.items()}
            res.calls += calls
            res.rets += rets
            res.branches += branches
            res.branches_taken += taken
            res.mem_ops += mem_ops
            res.traps += traps
            res.icache_hits = cpu.icache.hits
            res.icache_misses = cpu.icache.misses
            res.output = cpu.process.output


def flush_handler_counters(cpu, res) -> None:
    """Add the ``cpu._bk_*`` counters handlers and compiled units bump into
    ``res`` and zero them.  ``fast`` and ``jit`` drives end through here,
    so a drive nested in another (a jit interpreter span) never counts
    them twice."""
    res.calls += cpu._bk_calls
    cpu._bk_calls = 0
    res.rets += cpu._bk_rets
    cpu._bk_rets = 0
    res.branches += cpu._bk_branches
    cpu._bk_branches = 0
    res.branches_taken += cpu._bk_taken
    cpu._bk_taken = 0
    res.traps += cpu._bk_traps
    cpu._bk_traps = 0


#: ``fast``'s "no page checked yet" marker: a fresh drive, and every
#: point where permissions may have changed, start from it.
_UNCHECKED = object()


def _missing(cpu, memory, address, remaining):
    """Fault path for control flow reaching a non-instruction address.

    Mirrors the reference loop exactly: ``rip`` rests at the invalid
    address, and the fault is raised only when the loop goes on to fetch
    it — a ``step`` with no instructions ``remaining`` returns normally
    (the caller ends the drive) and the next ``step`` raises.  A
    fetch-permission fault (guard page, unmapped, execute-only
    violation) takes precedence over :class:`InvalidInstruction`.
    """
    cpu.rip = address
    if remaining == 0:
        return
    memory.fetch_check(address)
    raise InvalidInstruction(f"no instruction at {address:#x}")


class FastBackend(ExecutionBackend):
    """Micro-op driver: dispatch over pre-resolved handlers.

    Per instruction the loop does: a fetch-permission check memoized per
    page, the budget tick, the i-cache charge over precomputed line
    spans, the cost accounting (in exact integer cycle units), and one
    handler call.  An address is bound to its micro-op the first time the
    loop fetches it, and the micro-op is linked into the
    ``next_u``/``target`` slot of its predecessor, so the common case
    never consults the index.

    The fetch check is exact.  ``memory._fetched`` holds the pages that
    passed a fetch check since the last :meth:`Memory.map_region` or
    :meth:`Memory.protect` (both clear it), and a page that passed once
    passes again, with nothing more to record: its residency was noted
    the first time.  So the loop keeps the page it checked last, by
    identity; a micro-op on that page skips the check, and one on another
    page reads the set, running :meth:`Memory.fetch_check` only on a
    miss.  After a runtime service or a trace hook, which may change
    permissions, the next fetch reads the set again.  An instruction
    whose bytes do not lie in one page (``page`` None) is checked on
    every fetch, so each of its pages is noted resident.
    """

    name = "fast"

    def prepare(self, state):
        """The micro-op program of the state's process under its cost
        model, cached on the load — so every state over the load or any
        of its clones shares one program.  It starts empty; ``_drive``
        binds what it fetches."""
        return get_bound_program(state.process, state.costs)

    def _drive(self, program, cpu, res, max_steps: Optional[int]):
        process = cpu.process
        memory = process.memory
        index_get = program.index.get

        icache = cpu.icache
        sets = icache._sets
        num_sets = icache.num_sets
        ways = icache.ways
        miss_penalty = cpu.costs.icache_miss_penalty_units
        mem_extra = cpu.costs.mem_operand_extra_units
        budget = cpu.instruction_budget - res.instructions
        trace = cpu.trace_fn
        attribute = cpu.attribute_tags
        tag_units = res.tag_cycle_units
        tag_counts = res.tag_counts

        # Handler-visible state lives on the state; its counters and the
        # loop-local ones are flushed in the ``finally`` exactly like the
        # reference loop.
        cpu._bk_mem = memory
        cpu._bk_shadow = cpu.shadow_stack if cpu.shadow_stack_enabled else None

        remaining = max_steps
        executed = 0
        cycles = 0
        mem_ops = 0
        hits = 0
        cache_misses = 0
        fetched = memory._fetched
        # The page the last fetch check covered (never None, which marks
        # an instruction that straddles pages).
        checked = _UNCHECKED

        # Each of the four ways control reaches an address the loop has
        # not linked (this first fetch, a fall-through, a computed or
        # first-taken direct target, the fall-through after a service
        # call) looks the address up and binds it on a miss.
        u = index_get(cpu.rip) or _bind_one(program, cpu.rip)
        try:
            if u is None:
                if not cpu._halted:
                    _missing(cpu, memory, cpu.rip, remaining)
            else:
                while True:
                    if remaining is not None:
                        if remaining == 0:
                            cpu.rip = u.rip
                            break
                        remaining -= 1
                    try:
                        if u.page is not checked:
                            page = u.page
                            if page is None:
                                memory.fetch_check(u.rip, u.instr.size)
                            else:
                                if page not in fetched:
                                    memory.fetch_check(u.rip, u.instr.size)
                                    fetched.add(page)
                                checked = page

                        executed += 1
                        if executed > budget:
                            raise ExecutionLimitExceeded(
                                f"budget of {cpu.instruction_budget} instructions exceeded"
                            )

                        if trace is not None:
                            cpu.rip = u.rip
                            trace(cpu, u.rip, u.instr)
                            checked = _UNCHECKED

                        cost = u.base_cost
                        misses = 0
                        for line in u.lines:
                            entries = sets[line % num_sets]
                            if line in entries:
                                entries.move_to_end(line)
                                hits += 1
                            else:
                                cache_misses += 1
                                misses += 1
                                entries[line] = True
                                if len(entries) > ways:
                                    entries.popitem(last=False)
                        if misses:
                            cost += misses * miss_penalty
                        if u.has_mem:
                            cost += mem_extra
                            mem_ops += 1
                        cycles += cost
                        if attribute:
                            tag = u.instr.tag
                            if tag is None:
                                tag = UNTAGGED_TAG
                            tag_units[tag] = tag_units.get(tag, 0) + cost
                            tag_counts[tag] = tag_counts.get(tag, 0) + 1

                        nxt = u.handler(cpu, u)
                    except BaseException:
                        cpu.rip = u.rip
                        raise

                    if nxt is None:
                        nu = u.next_u
                        if nu is None:
                            nu = index_get(u.next_rip) or _bind_one(program, u.next_rip)
                            if nu is None:
                                _missing(cpu, memory, u.next_rip, remaining)
                                break
                            u.next_u = nu
                        u = nu
                    elif nxt.__class__ is MicroOp:
                        u = nxt
                    elif nxt.__class__ is int:
                        nu = index_get(nxt) or _bind_one(program, nxt)
                        if nu is None:
                            _missing(cpu, memory, nxt, remaining)
                            break
                        if u.target == nxt:  # a direct branch, taken first
                            u.target = nu
                        u = nu
                    elif nxt is HALT:
                        cpu.rip = u.next_rip
                        break
                    else:  # SYNC: a runtime service may have changed mappings
                        checked = _UNCHECKED
                        nu = u.next_u
                        if nu is None:
                            nu = index_get(u.next_rip) or _bind_one(program, u.next_rip)
                            if nu is None:
                                _missing(cpu, memory, u.next_rip, remaining)
                                break
                            u.next_u = nu
                        u = nu
        finally:
            res.instructions += executed
            res.cycle_units += cycles
            res.cycles = res.cycle_units / CYCLE_UNIT
            if attribute and tag_units:
                res.tag_cycles = {tag: units / CYCLE_UNIT for tag, units in tag_units.items()}
            flush_handler_counters(cpu, res)
            res.mem_ops += mem_ops
            icache.hits += hits
            icache.misses += cache_misses
            res.icache_hits = icache.hits
            res.icache_misses = icache.misses
            res.output = process.output


DEFAULT_BACKEND = "reference"

BACKENDS: Dict[str, ExecutionBackend] = {
    "reference": ReferenceBackend(),
    "fast": FastBackend(),
}


def available_backends():
    """Names of the registered execution backends, sorted."""
    return sorted(BACKENDS)


def get_backend(name: str) -> ExecutionBackend:
    """Look up a backend by name; raises MachineError for unknown names."""
    try:
        return BACKENDS[name]
    except KeyError:
        known = ", ".join(available_backends())
        raise MachineError(f"unknown execution backend {name!r} (have: {known})") from None


def run(state, backend: str = DEFAULT_BACKEND, result: Optional[ExecutionResult] = None):
    """Run ``state`` from its process's entry point until EXIT.

    ``backend`` names the execution backend.  Faults (memory, booby
    traps, budget) propagate as exceptions; a caller that wants the
    counters of a crashed run passes its own ``result`` in, which is
    filled up to the faulting instruction.  ``prepare`` and ``execute``
    are looked up on the backend instance at call time, so wrappers
    installed on an instance see every run.
    """
    entry = state.process.entry_point
    if entry is None:
        raise MachineError("process has no entry point")
    impl = get_backend(backend)
    if result is None:
        result = ExecutionResult()
    state.rip = entry
    state._halted = False
    return impl.execute(impl.prepare(state), state, result)


# The tier-2 block-compiling backend builds on ExecutionBackend and
# FastBackend, so it lives in its own module, imported once both exist.
from repro.machine.jit import JitBackend  # noqa: E402

BACKENDS["jit"] = JitBackend()
