"""The bind stage: pre-resolved micro-ops for the ``fast`` backend, which
is also the ``jit`` backend's interpreter.

The reference interpreter re-classifies operands (``isinstance`` chains),
re-computes memory-operand addresses from scratch, and re-derives i-cache
line spans for every executed instruction.  All of that is static: it
depends only on the instruction, the (per-process) load layout, and the
machine cost model — never on run-time machine state.  This module pays
those costs once per executed address:

* :func:`get_bound_program` returns the (initially empty)
  :class:`BoundProgram` of one load under one cost model, which the
  load's clones share.
* :func:`_bind_one` binds one instruction of that load into a
  :class:`MicroOp` — its specialized handler, absolute operand
  addresses, base cost, i-cache line occupancy and page.
  :meth:`FastBackend._drive <repro.machine.backends.FastBackend._drive>`
  calls it the first time it fetches an address, and links the micro-op
  into the fall-through (``next_u``) or direct-branch (``target``) slot
  of the micro-op that led there, so steady-state control flow never
  consults the index.
* :func:`decode_operands` and :func:`unresolved_symbol` are the one
  operand decoder: the jit's tier 1 (:func:`repro.machine.jit.lower_slice`)
  fills its lowering records with them too.

Handlers follow a tiny calling convention shared with the ``fast``
backend driver (:mod:`repro.machine.backends`): ``handler(cpu, uop)``
reaches guest memory through ``cpu._bk_mem``, which ``_drive`` sets (so
no micro-op holds a process's memory or any per-process state), and
returns ``None`` to fall through, the micro-op's ``target`` for a taken
direct branch (a :class:`MicroOp` once linked, its address until then),
an ``int`` for a computed target (``ret``/indirect calls), :data:`HALT`
after ``EXIT``, or :data:`SYNC` after a runtime service call (whose host
code may have changed page permissions).  A micro-op is therefore a
function of the instruction and the cost model alone, so every clone of
a load, and every lockstep replica, runs on the load's one set of
micro-ops.

Every handler replicates the reference interpreter's semantics exactly —
including operand evaluation order, masking, fault types and messages —
so both backends produce byte-identical :class:`ExecutionResult`\\ s; the
differential tests in ``tests/test_backends.py`` and the property-based
equivalence suite enforce this.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.errors import (
    BoobyTrapTriggered,
    InvalidInstruction,
    MachineError,
    ShadowStackViolation,
    StackMisaligned,
)
from repro.machine.icache import line_span
from repro.machine.isa import Imm, Instruction, Mem, Op, Reg, VECTOR_WORDS, WORD
from repro.machine.memory import PAGE_MASK, PAGE_SIZE
from repro.numeric import MASK64, to_signed, truncated_div

#: Sentinel returned by the EXIT handler: stop the driver loop.
HALT = object()
#: Sentinel returned by the CALLRT handler: fall through, but fetch-check
#: the next page again (the service may have remapped/mprotected pages).
SYNC = object()

_RSP = int(Reg.RSP)
_RAX = int(Reg.RAX)
_YMM0 = int(Reg.YMM0)


class MicroOp:
    """One pre-resolved instruction, bound to a load and cost model.

    ``page`` is the base of the page the instruction lies in, interned
    by its :class:`BoundProgram` so the ``fast`` loop can tell a page
    change by identity; it is None for an instruction whose bytes do not
    lie in one page, which the loop fetch-checks on every fetch."""

    __slots__ = (
        "rip",
        "next_rip",
        "instr",
        "base_cost",
        "has_mem",
        "lines",
        "handler",
        "next_u",
        "target",
        "a_reg",
        "b_reg",
        "imm",
        "a_base",
        "a_off",
        "b_base",
        "b_off",
        "page",
    )


class BoundProgram:
    """The micro-ops of one (load, cost model) pair, bound on demand.

    ``index`` maps absolute addresses to micro-ops and starts empty: the
    ``fast`` backend binds an instruction (:func:`_bind_one`) the first
    time it fetches that address, so a load pays only for the code its
    processes run.  The program keeps the load's instruction index and
    what a bind reads of the cost model (per-opcode cycle units, the
    i-cache line size), never a process or its memory, so the load and
    all its clones share it.  ``lines`` interns the i-cache line tuples
    of its micro-ops, so micro-ops on the same lines share one, and
    ``pages`` interns their page bases.
    """

    __slots__ = ("index", "instructions", "op_units", "line_size", "lines", "pages")

    def __init__(self, instructions: Dict[int, Instruction], costs):
        self.index: Dict[int, MicroOp] = {}
        self.instructions = instructions
        self.op_units = costs.op_unit_costs
        self.line_size = costs.icache_line
        self.lines: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        self.pages: Dict[int, int] = {}


Handler = Callable[[object, MicroOp], object]


# ---------------------------------------------------------------------------
# Specialized handlers.  Each covers one (opcode, operand-kind) combination
# and reads pre-extracted MicroOp fields instead of re-classifying operands.
# ---------------------------------------------------------------------------


def _mov_rr(cpu, u):
    r = cpu.regs
    r[u.a_reg] = r[u.b_reg]


def _mov_ri(cpu, u):
    cpu.regs[u.a_reg] = u.imm


def _mov_r_mb(cpu, u):
    r = cpu.regs
    r[u.a_reg] = cpu._bk_mem.read_word((u.b_off + r[u.b_base]) & MASK64)


def _mov_r_ma(cpu, u):
    cpu.regs[u.a_reg] = cpu._bk_mem.read_word(u.b_off)


def _mov_mb_r(cpu, u):
    r = cpu.regs
    cpu._bk_mem.write_word((u.a_off + r[u.a_base]) & MASK64, r[u.b_reg])


def _mov_ma_r(cpu, u):
    cpu._bk_mem.write_word(u.a_off, cpu.regs[u.b_reg])


def _mov_mb_i(cpu, u):
    cpu._bk_mem.write_word((u.a_off + cpu.regs[u.a_base]) & MASK64, u.imm)


def _mov_ma_i(cpu, u):
    cpu._bk_mem.write_word(u.a_off, u.imm)


def _lea_r_mb(cpu, u):
    r = cpu.regs
    r[u.a_reg] = (u.b_off + r[u.b_base]) & MASK64


def _lea_r_ma(cpu, u):
    cpu.regs[u.a_reg] = u.b_off


def _push_r(cpu, u):
    r = cpu.regs
    rsp = (r[_RSP] - WORD) & MASK64
    r[_RSP] = rsp
    cpu._bk_mem.write_word(rsp, r[u.a_reg])


def _push_i(cpu, u):
    r = cpu.regs
    rsp = (r[_RSP] - WORD) & MASK64
    r[_RSP] = rsp
    cpu._bk_mem.write_word(rsp, u.imm)


def _pop_r(cpu, u):
    r = cpu.regs
    rsp = r[_RSP]
    r[u.a_reg] = cpu._bk_mem.read_word(rsp)
    r[_RSP] = (rsp + WORD) & MASK64


def _make_alu(fn) -> Dict[str, Handler]:
    """Build the specialized variants of one two-operand ALU opcode."""

    def rr(cpu, u):
        r = cpu.regs
        r[u.a_reg] = fn(r[u.a_reg], r[u.b_reg]) & MASK64

    def ri(cpu, u):
        r = cpu.regs
        r[u.a_reg] = fn(r[u.a_reg], u.imm) & MASK64

    def r_mb(cpu, u):
        r = cpu.regs
        r[u.a_reg] = fn(
            r[u.a_reg], cpu._bk_mem.read_word((u.b_off + r[u.b_base]) & MASK64)
        ) & MASK64

    def r_ma(cpu, u):
        r = cpu.regs
        r[u.a_reg] = fn(r[u.a_reg], cpu._bk_mem.read_word(u.b_off)) & MASK64

    def mb_r(cpu, u):
        r = cpu.regs
        mem = cpu._bk_mem
        addr = (u.a_off + r[u.a_base]) & MASK64
        mem.write_word(addr, fn(mem.read_word(addr), r[u.b_reg]) & MASK64)

    def mb_i(cpu, u):
        mem = cpu._bk_mem
        addr = (u.a_off + cpu.regs[u.a_base]) & MASK64
        mem.write_word(addr, fn(mem.read_word(addr), u.imm) & MASK64)

    return {"RR": rr, "RI": ri, "R,MB": r_mb, "R,MA": r_ma, "MB,R": mb_r, "MB,I": mb_i}


_ALU_FNS = {
    Op.ADD: lambda a, b: a + b,
    Op.SUB: lambda a, b: a - b,
    Op.AND: lambda a, b: a & b,
    Op.OR: lambda a, b: a | b,
    Op.XOR: lambda a, b: a ^ b,
    Op.SHL: lambda a, b: a << (b & 63),
    Op.SHR: lambda a, b: a >> (b & 63),
    Op.IMUL: lambda a, b: to_signed(a) * to_signed(b),
}


def _idiv_rr(cpu, u):
    r = cpu.regs
    divisor = to_signed(r[u.b_reg])
    if divisor == 0:
        raise MachineError(f"division by zero at {u.rip:#x}")
    r[u.a_reg] = truncated_div(to_signed(r[u.a_reg]), divisor) & MASK64


def _idiv_ri(cpu, u):
    divisor = to_signed(u.imm)
    if divisor == 0:
        raise MachineError(f"division by zero at {u.rip:#x}")
    r = cpu.regs
    r[u.a_reg] = truncated_div(to_signed(r[u.a_reg]), divisor) & MASK64


def _neg_r(cpu, u):
    r = cpu.regs
    r[u.a_reg] = (-r[u.a_reg]) & MASK64


def _cmp_rr(cpu, u):
    r = cpu.regs
    cpu._cmp = to_signed(r[u.a_reg]) - to_signed(r[u.b_reg])


def _cmp_ri(cpu, u):
    cpu._cmp = to_signed(cpu.regs[u.a_reg]) - to_signed(u.imm)


def _cmp_r_mb(cpu, u):
    r = cpu.regs
    cpu._cmp = to_signed(r[u.a_reg]) - to_signed(
        cpu._bk_mem.read_word((u.b_off + r[u.b_base]) & MASK64)
    )


def _cmp_mb_r(cpu, u):
    r = cpu.regs
    cpu._cmp = to_signed(
        cpu._bk_mem.read_word((u.a_off + r[u.a_base]) & MASK64)
    ) - to_signed(r[u.b_reg])


def _cmp_mb_i(cpu, u):
    cpu._cmp = to_signed(
        cpu._bk_mem.read_word((u.a_off + cpu.regs[u.a_base]) & MASK64)
    ) - to_signed(u.imm)


def _test_rr(cpu, u):
    r = cpu.regs
    cpu._cmp = to_signed(r[u.a_reg] & r[u.b_reg])


def _test_ri(cpu, u):
    cpu._cmp = to_signed(cpu.regs[u.a_reg] & u.imm)


def _make_setcc(cond) -> Handler:
    def h(cpu, u):
        cpu.regs[u.a_reg] = 1 if cond(cpu._cmp) else 0

    return h


def _jmp_i(cpu, u):
    cpu._bk_branches += 1
    cpu._bk_taken += 1
    return u.target


def _jmp_r(cpu, u):
    cpu._bk_branches += 1
    cpu._bk_taken += 1
    return cpu.regs[u.a_reg]


def _make_jcc(cond) -> Handler:
    def h(cpu, u):
        cpu._bk_branches += 1
        if cond(cpu._cmp):
            cpu._bk_taken += 1
            return u.target
        return None

    return h


_CONDITIONS = {
    "E": lambda c: c == 0,
    "NE": lambda c: c != 0,
    "L": lambda c: c < 0,
    "LE": lambda c: c <= 0,
    "G": lambda c: c > 0,
    "GE": lambda c: c >= 0,
}


def _call_i(cpu, u):
    r = cpu.regs
    if r[_RSP] % 16 != 0:
        raise StackMisaligned(
            f"rsp={r[_RSP]:#x} not 16-byte aligned at call ({u.rip:#x})"
        )
    rsp = (r[_RSP] - WORD) & MASK64
    r[_RSP] = rsp
    cpu._bk_mem.write_word(rsp, u.next_rip)
    shadow = cpu._bk_shadow
    if shadow is not None:
        shadow.append(u.next_rip)
    cpu._bk_calls += 1
    return u.target


def _call_r(cpu, u):
    r = cpu.regs
    if r[_RSP] % 16 != 0:
        raise StackMisaligned(
            f"rsp={r[_RSP]:#x} not 16-byte aligned at call ({u.rip:#x})"
        )
    target = r[u.a_reg]
    rsp = (r[_RSP] - WORD) & MASK64
    r[_RSP] = rsp
    cpu._bk_mem.write_word(rsp, u.next_rip)
    shadow = cpu._bk_shadow
    if shadow is not None:
        shadow.append(u.next_rip)
    cpu._bk_calls += 1
    return target


def _ret(cpu, u):
    r = cpu.regs
    rsp = r[_RSP]
    target = cpu._bk_mem.read_word(rsp)
    r[_RSP] = (rsp + WORD) & MASK64
    shadow = cpu._bk_shadow
    if shadow is not None:
        expected = shadow.pop() if shadow else 0
        if expected != target:
            raise ShadowStackViolation(expected, target)
    cpu._bk_rets += 1
    return target


def _nop(cpu, u):
    return None


def _trap(cpu, u):
    cpu._bk_traps += 1
    raise BoobyTrapTriggered(u.rip)


def _make_vload(nbytes: int, absolute: bool) -> Handler:
    if absolute:

        def h(cpu, u):
            cpu.vregs[u.a_reg - _YMM0] = cpu._bk_mem.read(u.b_off, nbytes)

    else:

        def h(cpu, u):
            addr = (u.b_off + cpu.regs[u.b_base]) & MASK64
            cpu.vregs[u.a_reg - _YMM0] = cpu._bk_mem.read(addr, nbytes)

    return h


def _make_vstore(absolute: bool) -> Handler:
    if absolute:

        def h(cpu, u):
            cpu._bk_mem.write(u.a_off, cpu.vregs[u.b_reg - _YMM0])

    else:

        def h(cpu, u):
            addr = (u.a_off + cpu.regs[u.a_base]) & MASK64
            cpu._bk_mem.write(addr, cpu.vregs[u.b_reg - _YMM0])

    return h


def _callrt(cpu, u):
    symbol = u.instr.a.symbol
    if symbol is None:
        raise InvalidInstruction("callrt requires a service name")
    fn = cpu.process.service(symbol)
    cpu.rip = u.rip  # services observe the machine mid-instruction
    cpu.regs[_RAX] = fn(cpu.process, cpu) & MASK64
    return SYNC


def _out_r(cpu, u):
    cpu.process.output.append(cpu.regs[u.a_reg])


def _out_i(cpu, u):
    cpu.process.output.append(u.imm)


def _exit_i(cpu, u):
    cpu._exit_code = u.imm
    cpu._halted = True
    return HALT


def _exit_r(cpu, u):
    cpu._exit_code = cpu.regs[u.a_reg]
    cpu._halted = True
    return HALT


def _exit_n(cpu, u):
    cpu._exit_code = 0
    cpu._halted = True
    return HALT


# ---------------------------------------------------------------------------
# Generic fallback handlers: one per opcode, operating on the original
# (rebased) Instruction via the state's reference operand helpers.  These are
# the reference semantics verbatim, adapted to the driver protocol, and
# cover every operand combination the specialized table does not.
# ---------------------------------------------------------------------------


def _g_mov(cpu, u):
    i = u.instr
    cpu._write_operand(i.a, cpu._read_operand(i.b))


def _g_push(cpu, u):
    r = cpu.regs
    rsp = (r[_RSP] - WORD) & MASK64
    r[_RSP] = rsp
    cpu._bk_mem.write_word(rsp, cpu._read_operand(u.instr.a))


def _g_pop(cpu, u):
    r = cpu.regs
    rsp = r[_RSP]
    cpu._write_operand(u.instr.a, cpu._bk_mem.read_word(rsp))
    r[_RSP] = (rsp + WORD) & MASK64


def _make_g_alu(fn) -> Handler:
    def h(cpu, u):
        i = u.instr
        cpu._write_operand(i.a, fn(cpu._read_operand(i.a), cpu._read_operand(i.b)))

    return h


def _g_idiv(cpu, u):
    i = u.instr
    divisor = to_signed(cpu._read_operand(i.b))
    if divisor == 0:
        raise MachineError(f"division by zero at {u.rip:#x}")
    dividend = to_signed(cpu._read_operand(i.a))
    cpu._write_operand(i.a, truncated_div(dividend, divisor))


def _g_neg(cpu, u):
    cpu._write_operand(u.instr.a, -cpu._read_operand(u.instr.a))


def _g_lea(cpu, u):
    i = u.instr
    if not isinstance(i.b, Mem):
        raise InvalidInstruction("lea requires a memory operand")
    cpu._write_operand(i.a, cpu._mem_address(i.b))


def _g_cmp(cpu, u):
    i = u.instr
    cpu._cmp = to_signed(cpu._read_operand(i.a)) - to_signed(cpu._read_operand(i.b))


def _g_test(cpu, u):
    i = u.instr
    cpu._cmp = to_signed(cpu._read_operand(i.a) & cpu._read_operand(i.b))


def _make_g_setcc(cond) -> Handler:
    def h(cpu, u):
        cpu._write_operand(u.instr.a, 1 if cond(cpu._cmp) else 0)

    return h


def _g_jmp(cpu, u):
    # Reference semantics: a faulting indirect target is not counted.
    target = cpu._branch_target(u.instr.a)
    cpu._bk_branches += 1
    cpu._bk_taken += 1
    return target


def _make_g_jcc(cond) -> Handler:
    def h(cpu, u):
        cpu._bk_branches += 1
        if cond(cpu._cmp):
            target = cpu._branch_target(u.instr.a)
            cpu._bk_taken += 1
            return target
        return None

    return h


def _g_call(cpu, u):
    r = cpu.regs
    if r[_RSP] % 16 != 0:
        raise StackMisaligned(
            f"rsp={r[_RSP]:#x} not 16-byte aligned at call ({u.rip:#x})"
        )
    target = cpu._branch_target(u.instr.a)
    rsp = (r[_RSP] - WORD) & MASK64
    r[_RSP] = rsp
    cpu._bk_mem.write_word(rsp, u.next_rip)
    shadow = cpu._bk_shadow
    if shadow is not None:
        shadow.append(u.next_rip)
    cpu._bk_calls += 1
    return target


def _make_g_vload(nbytes: int) -> Handler:
    def h(cpu, u):
        i = u.instr
        if not isinstance(i.b, Mem):
            raise InvalidInstruction("vload requires a memory source")
        data = cpu._bk_mem.read(cpu._mem_address(i.b), nbytes)
        cpu.vregs[i.a - Reg.YMM0] = data

    return h


def _g_vstore(cpu, u):
    i = u.instr
    if not isinstance(i.a, Mem):
        raise InvalidInstruction("vstore requires a memory destination")
    cpu._bk_mem.write(cpu._mem_address(i.a), cpu.vregs[i.b - Reg.YMM0])


def _g_callrt(cpu, u):
    i = u.instr
    if not isinstance(i.a, Imm) or i.a.symbol is None:
        raise InvalidInstruction("callrt requires a service name")
    fn = cpu.process.service(i.a.symbol)
    cpu.rip = u.rip
    cpu.regs[_RAX] = fn(cpu.process, cpu) & MASK64
    return SYNC


def _g_out(cpu, u):
    cpu.process.output.append(cpu._read_operand(u.instr.a))


def _g_exit(cpu, u):
    i = u.instr
    cpu._exit_code = cpu._read_operand(i.a) if i.a is not None else 0
    cpu._halted = True
    return HALT


GENERIC: Dict[Op, Handler] = {
    Op.MOV: _g_mov,
    Op.PUSH: _g_push,
    Op.POP: _g_pop,
    Op.ADD: _make_g_alu(lambda a, b: a + b),
    Op.SUB: _make_g_alu(lambda a, b: a - b),
    Op.IMUL: _make_g_alu(lambda a, b: to_signed(a) * to_signed(b)),
    Op.IDIV: _g_idiv,
    Op.AND: _make_g_alu(lambda a, b: a & b),
    Op.OR: _make_g_alu(lambda a, b: a | b),
    Op.XOR: _make_g_alu(lambda a, b: a ^ b),
    Op.SHL: _make_g_alu(lambda a, b: a << (b & 63)),
    Op.SHR: _make_g_alu(lambda a, b: (a & MASK64) >> (b & 63)),
    Op.NEG: _g_neg,
    Op.LEA: _g_lea,
    Op.CMP: _g_cmp,
    Op.TEST: _g_test,
    Op.JMP: _g_jmp,
    Op.CALL: _g_call,
    Op.RET: _ret,  # operand-free: the specialized handler is the semantics
    Op.NOP: _nop,
    Op.TRAP: _trap,
    Op.VLOAD: _make_g_vload(WORD * VECTOR_WORDS),
    Op.VLOAD512: _make_g_vload(WORD * 2 * VECTOR_WORDS),
    Op.VSTORE: _g_vstore,
    Op.VSTORE512: _g_vstore,
    Op.VZEROUPPER: _nop,
    Op.CALLRT: _g_callrt,
    Op.OUT: _g_out,
    Op.EXIT: _g_exit,
}
for _name, _cond in _CONDITIONS.items():
    GENERIC[Op[f"SET{_name}"]] = _make_g_setcc(_cond)
    GENERIC[Op[f"J{_name}"]] = _make_g_jcc(_cond)


def _build_handler_table() -> Dict[Tuple[Op, str, str], Handler]:
    table: Dict[Tuple[Op, str, str], Handler] = {
        (Op.MOV, "R", "R"): _mov_rr,
        (Op.MOV, "R", "I"): _mov_ri,
        (Op.MOV, "R", "MB"): _mov_r_mb,
        (Op.MOV, "R", "MA"): _mov_r_ma,
        (Op.MOV, "MB", "R"): _mov_mb_r,
        (Op.MOV, "MA", "R"): _mov_ma_r,
        (Op.MOV, "MB", "I"): _mov_mb_i,
        (Op.MOV, "MA", "I"): _mov_ma_i,
        (Op.LEA, "R", "MB"): _lea_r_mb,
        (Op.LEA, "R", "MA"): _lea_r_ma,
        (Op.PUSH, "R", "N"): _push_r,
        (Op.PUSH, "I", "N"): _push_i,
        (Op.POP, "R", "N"): _pop_r,
        (Op.IDIV, "R", "R"): _idiv_rr,
        (Op.IDIV, "R", "I"): _idiv_ri,
        (Op.NEG, "R", "N"): _neg_r,
        (Op.CMP, "R", "R"): _cmp_rr,
        (Op.CMP, "R", "I"): _cmp_ri,
        (Op.CMP, "R", "MB"): _cmp_r_mb,
        (Op.CMP, "MB", "R"): _cmp_mb_r,
        (Op.CMP, "MB", "I"): _cmp_mb_i,
        (Op.TEST, "R", "R"): _test_rr,
        (Op.TEST, "R", "I"): _test_ri,
        (Op.JMP, "I", "N"): _jmp_i,
        (Op.JMP, "R", "N"): _jmp_r,
        (Op.CALL, "I", "N"): _call_i,
        (Op.CALL, "R", "N"): _call_r,
        (Op.RET, "N", "N"): _ret,
        (Op.NOP, "N", "N"): _nop,
        (Op.TRAP, "N", "N"): _trap,
        (Op.VLOAD, "R", "MB"): _make_vload(WORD * VECTOR_WORDS, False),
        (Op.VLOAD, "R", "MA"): _make_vload(WORD * VECTOR_WORDS, True),
        (Op.VLOAD512, "R", "MB"): _make_vload(WORD * 2 * VECTOR_WORDS, False),
        (Op.VLOAD512, "R", "MA"): _make_vload(WORD * 2 * VECTOR_WORDS, True),
        (Op.VSTORE, "MB", "R"): _make_vstore(False),
        (Op.VSTORE, "MA", "R"): _make_vstore(True),
        (Op.VSTORE512, "MB", "R"): _make_vstore(False),
        (Op.VSTORE512, "MA", "R"): _make_vstore(True),
        (Op.VZEROUPPER, "N", "N"): _nop,
        (Op.CALLRT, "I", "N"): _callrt,
        (Op.OUT, "R", "N"): _out_r,
        (Op.OUT, "I", "N"): _out_i,
        (Op.EXIT, "I", "N"): _exit_i,
        (Op.EXIT, "R", "N"): _exit_r,
        (Op.EXIT, "N", "N"): _exit_n,
    }
    for alu_op, fn in _ALU_FNS.items():
        variants = _make_alu(fn)
        table[(alu_op, "R", "R")] = variants["RR"]
        table[(alu_op, "R", "I")] = variants["RI"]
        table[(alu_op, "R", "MB")] = variants["R,MB"]
        table[(alu_op, "R", "MA")] = variants["R,MA"]
        table[(alu_op, "MB", "R")] = variants["MB,R"]
        table[(alu_op, "MB", "I")] = variants["MB,I"]
    for name, cond in _CONDITIONS.items():
        table[(Op[f"SET{name}"], "R", "N")] = _make_setcc(cond)
        table[(Op[f"J{name}"], "I", "N")] = _make_jcc(cond)
    return table


HANDLERS: Dict[Tuple[Op, str, str], Handler] = _build_handler_table()

#: Branch-family opcodes whose immediate target ``fast`` links to a MicroOp.
_DIRECT_BRANCH_OPS = frozenset(
    {Op.JMP, Op.JE, Op.JNE, Op.JL, Op.JLE, Op.JG, Op.JGE, Op.CALL}
)


def _direct_target(instr: Instruction) -> Optional[int]:
    """The resolved immediate target of a direct branch, or None."""
    a = instr.a
    if isinstance(a, Imm) and a.symbol is None and instr.op in _DIRECT_BRANCH_OPS:
        return a.value & MASK64
    return None


#: Opcodes that end a basic block: control transfers (taken or not),
#: halts, traps, and runtime-service calls (whose host code may remap
#: pages, invalidating fetch checks for whatever follows).  The
#: block-recovery tier (:mod:`repro.machine.blocks`) splits on these and
#: on every direct branch target, so a block is a maximal straight-line
#: run — entered only at its head, left only at its last instruction.
TERMINATOR_OPS = frozenset(
    {
        Op.JMP,
        Op.JE,
        Op.JNE,
        Op.JL,
        Op.JLE,
        Op.JG,
        Op.JGE,
        Op.CALL,
        Op.RET,
        Op.CALLRT,
        Op.EXIT,
        Op.TRAP,
    }
)


def _kind(operand) -> str:
    """Classify an operand for handler dispatch (layout-independent)."""
    if operand is None:
        return "N"
    cls = operand.__class__
    if cls is Reg:
        return "R"
    if cls is Imm:
        return "I"
    if cls is Mem:
        if operand.index is not None:
            return "MX"
        return "MA" if operand.base is None else "MB"
    return "O"  # Label or malformed: generic handler raises at execution


def select_handler(instr: Instruction) -> Handler:
    """Pick the execution handler for one instruction (the dispatch decision)."""
    handler = HANDLERS.get((instr.op, _kind(instr.a), _kind(instr.b)))
    return handler if handler is not None else GENERIC[instr.op]


# ---------------------------------------------------------------------------
# Operand decoding, shared by tier 0 (:func:`_bind_one`) and tier 1
# (:func:`repro.machine.jit._classify`).
# ---------------------------------------------------------------------------


def unresolved_symbol(instr: Instruction) -> bool:
    """True when an immediate still names a symbol after rebase (CALLRT's
    service name aside): only the generic handlers run such an
    instruction, faulting through the reference operand path."""
    a, b = instr.a, instr.b
    return (a.__class__ is Imm and a.symbol is not None and instr.op is not Op.CALLRT) or (
        b.__class__ is Imm and b.symbol is not None
    )


def decode_operands(u, instr: Instruction) -> None:
    """Fill ``u``'s operand fields from ``instr``: register numbers, the
    masked immediate, each memory operand's base register and offset (an
    offset is masked only when the operand has neither base nor index),
    whether a memory operand is present, and a direct branch's target
    address (None for any other instruction).  Operand classes are tested
    by identity, as :func:`_kind` does: they have no subclasses."""
    a, b = instr.a, instr.b
    ka, kb = a.__class__, b.__class__
    u.a_reg = int(a) if ka is Reg else 0
    u.b_reg = int(b) if kb is Reg else 0
    if kb is Imm and b.symbol is None:
        u.imm = b.value & MASK64
    elif ka is Imm and a.symbol is None:
        u.imm = a.value & MASK64
    else:
        u.imm = 0
    if ka is Mem:
        u.a_base = None if a.base is None else int(a.base)
        u.a_off = a.offset & MASK64 if a.base is None and a.index is None else a.offset
    else:
        u.a_base = None
        u.a_off = 0
    if kb is Mem:
        u.b_base = None if b.base is None else int(b.base)
        u.b_off = b.offset & MASK64 if b.base is None and b.index is None else b.offset
    else:
        u.b_base = None
        u.b_off = 0
    u.has_mem = ka is Mem or kb is Mem
    u.target = _direct_target(instr)


# ---------------------------------------------------------------------------
# Bind: resolve one instruction against one load and cost model.
# ---------------------------------------------------------------------------


def _bind_one(program: BoundProgram, addr: int) -> Optional[MicroOp]:
    """Bind the instruction at ``addr`` into ``program`` (None if there is
    no instruction there).

    The micro-op starts unlinked: ``next_u`` is unset and a direct
    branch's ``target`` is its address.  The ``fast`` loop stores the
    micro-op it reaches in either slot the first time control follows it.
    Its ``page`` is set exactly when :meth:`Memory.fetch_check
    <repro.machine.memory.Memory.fetch_check>` of its bytes checks one
    page.
    """
    instr = program.instructions.get(addr)
    if instr is None:
        return None
    size = instr.size
    u = MicroOp()
    u.rip = addr
    u.next_rip = addr + size
    u.instr = instr
    u.base_cost = program.op_units[instr.op]
    lines = line_span(addr, size, program.line_size)
    u.lines = program.lines.setdefault(lines, lines)
    u.handler = GENERIC[instr.op] if unresolved_symbol(instr) else select_handler(instr)
    u.next_u = None
    decode_operands(u, instr)
    offset = addr & PAGE_MASK
    if 0 < size <= PAGE_SIZE - offset:
        base = addr - offset
        u.page = program.pages.setdefault(base, base)
    else:
        u.page = None
    program.index[addr] = u
    return u


def get_bound_program(process, costs) -> BoundProgram:
    """The micro-op program of ``process``'s load under ``costs``, cached
    per pair on the load and shared by its clones
    (:attr:`Process.bound_programs
    <repro.machine.process.Process.bound_programs>`).  It starts empty;
    the ``fast`` loop fills it as it fetches."""
    cache = process.bound_programs
    key = id(costs)
    entry = cache.get(key)
    if entry is not None and entry[0] is costs:
        return entry[1]
    program = BoundProgram(process.instructions, costs)
    cache[key] = (costs, program)
    return program
