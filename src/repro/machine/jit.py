"""Tiers 2 and 3 of the progressive-lowering pipeline: lazy block
compilation and loop-trace compilation.

The ``jit`` backend executes nothing up front.  ``prepare`` is a cheap
handle around the process's instruction index; lowering happens *per
dynamic block head, when the process comes back to it soon*: on an entry
within :data:`_REUSE_WINDOW` retired instructions of its previous one,
or on its :data:`_PROMOTE_COUNT`-th entry, whichever comes first (or on
its first, when another process of the same binary already compiled the
unit).  Hot loops and the code they call come back within a few thousand
instructions and compile on their second entry; code a process re-enters
rarely, such as a request handler the router picks every fourth request,
waits until its compile can pay:

* tier 1 — :func:`lower_slice`: :func:`repro.machine.blocks.slice_block`
  recovers the straight-line run from the entry address through its
  terminator, every instruction lowers to a :class:`_JU` (a slice with
  one that only the generic interpreter path can run — an unresolved
  symbolic immediate, or an operand form the toolchain never emits,
  such as an indexed operand outside ``mov`` — stays at tier 1),
  and :func:`~repro.machine.blocks.fuse_slice` annotates the
  compare-and-branch superinstruction (the compare's result forwards to
  its branch in a local);
* tier 2 — the slice compiles to one ``exec``-compiled Python function.
  Everything the interpreters re-derive per instruction is folded into
  the generated source: operand dispatch becomes specialized statements,
  per-instruction cycle charges fold into **one integer literal per
  block** (integer cycle units are associative —
  :data:`repro.machine.costs.CYCLE_UNIT`), i-cache accounting keeps only
  the genuinely uncertain probes (guaranteed intra-block hits are a baked
  constant, :func:`repro.machine.icache.block_line_plan`), the
  instruction budget is one folded comparison in the block prolog, and
  memory words go through one page view per base register (a *frame*:
  the register's value at its first access, one page lookup, and an
  in-page word index; RSP's pushes, pops and ``add``/``sub rsp, imm``
  move within it), so a stack frame's accesses or a BTRA push run pay
  one lookup, not one per access.
* tier 3 — hot loop heads (backward direct-branch targets, detected at
  tier-2 compile time) are *armed* with an entry counter; once hot, the
  driver records the path of tier-2 blocks control takes from the head.
  A path that returns to its head through segments joined by a direct
  ``jmp`` or a ``jcc`` compiles to one **loop trace**
  (:class:`_TraceCompiler`): registers, the instruction cursor, the
  i-cache miss count, and the iteration counter live in Python locals
  across iterations, per-iteration static charges (cycles, hit/mem/branch
  bookkeeping) apply as ``it * constant`` only at exits, and memory
  goes through the same frames as in blocks: a base register the path
  never writes gets a *hoisted* frame, whose page view lookups and
  per-word indices run once per call in the trace prolog, and any other
  base an ordinary frame in the loop body.  Conditional branches
  between segments become guards whose off-trace side *flushes the exact
  executed prefix* and returns the off-trace address — a side exit is a
  normal return, not a deopt.  Any other transition (a call, return,
  indirect jump, runtime call, trap, EXIT, or slice cut) ends the
  recording and nothing forms; the head is re-armed a bounded number of
  times.

Block functions thread by address: a function returns the next block
head as a non-negative ``int`` (register values are masked, so real
addresses never collide with escapes), ``None`` after EXIT, or the
bitwise complement ``~offset`` of its head's text offset as a *deopt
escape*.  The driver trampolines
between compiled functions through one dictionary lookup; trace
functions obey the same protocol, so a trace is just a block function
that covers many blocks and many iterations per call.

**The deopt contract.**  Anything compiled code cannot reproduce
*bit-identically* re-enters the interpreter mid-run with all partial
counters flushed first: cold code (a head not yet re-entered within
the reuse window nor entered :data:`_PROMOTE_COUNT` times, and with no
unit for it in the binary's cache entry), slices containing an
instruction tier 1 cannot lower (negative-cached, interpreted
forever), text pages not fetch-checked since the last permission
change, budget or step-slice exhaustion, and faults (every compiled
unit, block or trace, charges an exact per-prefix constant from one
baked fault table keyed by the generated source line that raised, then
re-raises with ``rip`` at the faulting instruction; a line key, not a
guest address, because one address can occur in more than one segment
of a trace).  Fetch permission is checked per page, as ``fast`` checks
it: a unit's prolog tests each text page its bytes cover (bound at
link time, like every address) against ``FD``, the driven process's
:attr:`Memory._fetched <repro.machine.memory.Memory>` set of pages
fetch-checked since the last ``map_region``/``protect``.  On a miss
the driver fetch-checks the unit's missing pages, adds them to the
set, and re-enters; a page that fails leaves the span to the
interpreter, which faults at the exact instruction.  A loop trace
tests its pages once per call, not once per iteration (nothing a trace
runs can change permissions), and budget deopts from a loop trace fall
through to the interpreter exactly like block deopts.
The interpreter is ``fast``'s micro-op loop, and only it: each segment
runs one block-granular span (as many instructions as the slice at its
start holds) over the load's micro-ops, bound on first fetch,
directly into the caller's result —
exact, because all cycle accounting is integer units and every drive
adds the handler counters into the result and zeroes them
(:func:`~repro.machine.backends.flush_handler_counters`).  A drive that
starts with a trace hook or tag attribution installed runs on ``fast``
wholesale: those observe single instructions, which compiled code folds
away.  The differential suite
holds ``jit`` to byte-identical :class:`ExecutionResult`\\ s, faults,
``rip``, counters, folded profiles, and lockstep divergence points
against both other backends.

Linked code belongs to the load, not the process: a
:class:`JitProgram` (its namespace, dispatch table, linked functions,
negative cache and tier-3 state) serves the load and every
``Process.clone`` of it, so a fork-server probe or a lockstep replica
enters, in one dict hit, a head a sibling already linked.  Each process
keeps only its promotion counts and the bindings (memory accessors and
word views, output, fetch-checked pages, probe marks) a drive writes
into the namespace on entry and takes out again on exit.  Compiled code
belongs to the binary: every load of one binary under one cost model —
reloads and re-randomized restarts under a fresh ASLR layout alike —
shares one code-cache entry
(:data:`_CODE_CACHE`) while the entry is resident.  The cache keeps the
:data:`_CODE_CACHE_CAPACITY` (32) most recently linked binaries; linking
one more evicts the least recent.  A running process keeps the entry it
linked, so eviction changes when code is compiled, never what runs: the
binary's next process starts a fresh entry and compiles its units
again.  Units are position-independent: every address
literal is written relative to the text base ``T`` and bound once per
program as a parameter default when the unit is linked (never as an add
per executed exit), and fault tables hold text offsets, relocated on the
fault path only.  The entry also keeps the monotone i-cache verdict, so
the text walk behind it runs once per binary, and a head whose unit the
entry already holds links on its *first* entry in every later load
(see :class:`JitProgram`).  A slice's length is a fact about the binary
too: the entry memoizes, per text offset, the instruction count of the
slice :func:`~repro.machine.blocks.slice_block` recovers there, so no
process of the binary walks a slice again to size an interpreter span.
"""

from __future__ import annotations

import re
import sys
from collections import OrderedDict
from math import lcm
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.errors import (
    BoobyTrapTriggered,
    MachineError,
    MemoryFault,
    ShadowStackViolation,
    StackMisaligned,
)
# The package imports ``backends`` first, and ``backends`` imports this
# module only at its bottom, after ExecutionBackend is defined.
from repro.machine.backends import ExecutionBackend, FastBackend, flush_handler_counters
from repro.machine.blocks import backward_branch_target, fuse_slice, slice_block
from repro.machine.costs import CYCLE_UNIT, fold_cost
from repro.machine.icache import block_line_plan, line_span
from repro.machine.isa import Imm, Mem, Op, Reg
from repro.machine.memory import PAGE_SIZE, page_range
from repro.machine.uops import _kind, decode_operands, get_bound_program, unresolved_symbol
from repro.numeric import MASK64, to_signed, truncated_div

__all__ = [
    "JitBackend",
    "JitProgram",
    "JIT_STATS",
    "jit_stats_snapshot",
    "reset_jit_stats",
    "clear_jit_cache",
    "Lowering",
    "lower_slice",
]

_RSP = int(Reg.RSP)
_YMM0 = int(Reg.YMM0)

#: Instructions a process may retire between two entries to a block head
#: for the second to lower it to tier 2.  Lowering costs about 26 µs per
#: instruction (slice recovery, codegen and ``compile()``: 26.3-26.8 µs
#: over the 53,030 instructions of the 1,141 blocks one ``spec-sweep``
#: pass compiles, seed 11, two passes on a 2-core host, of which
#: ``compile()`` is about 15 µs) and compiled code saves about
#: 0.65 µs per instruction per execution over an interpreter span, so a
#: block repays its compile after about 40 executions: code that comes
#: back soon (hot loops and what they call) will, code a process re-enters
#: rarely may not.  With nothing compiled (seed 0, one pass), all 1,141
#: second entries of a ``spec-sweep`` pass lie within 3,798 instructions
#: of the first, while 1,916 of 3,036 per-replica second entries of an
#: ``mvee-lockstep`` pass lie beyond 8,192; 1,344 of those, the request
#: handlers the router picks every fourth request, lie at 8,320-8,576,
#: so a server with shorter requests compiles them again.  In one run
#: each on a 2-core host, a window of 2,048 made a ``spec-sweep`` pass
#: slower (6.01 -> 6.40 s), and 4,000 and 8,192 left it as it was.
_REUSE_WINDOW = 8192

#: Entries that lower a block head whatever their spacing: within a
#: factor of 2 of the ~40 executions a compile needs to repay.  Used
#: alone (no window, one run each), it took two ``mvee-lockstep`` passes
#: from 3.79 to 2.93 s but a ``spec-sweep`` pass from 6.02 to 6.85 s,
#: whose interpreted share rose from 0.8% to 11% of instructions.
_PROMOTE_COUNT = 16

#: Upper bound on one lowering unit (not a semantic boundary: execution
#: re-enters the pipeline at the cut).
_SLICE_LIMIT = 256

#: Block-function executions at an armed loop head before a trace is
#: recorded through it (tier 3).
_TRACE_THRESHOLD = 8

#: Upper bound on segments (basic blocks) in one trace.
_TRACE_MAX_SEGMENTS = 8

#: Recording attempts per head before tracing it is given up (a
#: recording that does not close back on its head is abandoned, and the
#: head re-armed, this many times).
_TRACE_MAX_TRIES = 3

#: Session-wide lowering/observability counters (r2cbench reports them
#: as its ``jit.*`` layer metrics).
#: ``superblocks``, ``trace_guard_failures`` and ``traces_blacklisted``
#: always read 0 (only loop traces form); they stay for the readers that
#: index every key.
JIT_STATS = {
    "programs": 0,
    "blocks_compiled": 0,
    "superinstructions_fused": 0,
    "deopts": 0,
    "code_cache_hits": 0,
    "code_cache_evictions": 0,
    "traces_compiled": 0,
    "loop_traces": 0,
    "superblocks": 0,
    "trace_side_exits": 0,
    "trace_guard_failures": 0,
    "traces_blacklisted": 0,
}


def jit_stats_snapshot() -> Dict[str, int]:
    return dict(JIT_STATS)


def reset_jit_stats() -> None:
    for key in JIT_STATS:
        JIT_STATS[key] = 0


# ---------------------------------------------------------------------------
# Tier-2 eligibility and per-instruction lowering records
# ---------------------------------------------------------------------------

#: Two-operand ALU result expressions ({a}/{b} are operand value exprs).
_ALU_EXPR = {
    Op.ADD: "({a} + {b})",
    Op.SUB: "({a} - {b})",
    Op.AND: "({a} & {b})",
    Op.OR: "({a} | {b})",
    Op.XOR: "({a} ^ {b})",
    Op.SHL: "({a} << ({b} & 63))",
    Op.SHR: "({a} >> ({b} & 63))",
    Op.IMUL: "(ts({a}) * ts({b}))",
}

#: ALU ops whose result cannot leave the 64-bit range when both operands
#: are in it (registers and memory words always are; immediates are
#: masked at classification) — the ``& M`` truncation is elided.
_NO_MASK_OPS = frozenset({Op.AND, Op.OR, Op.XOR, Op.SHR})

_SETCC_COND = {
    Op.SETE: "== 0",
    Op.SETNE: "!= 0",
    Op.SETL: "< 0",
    Op.SETLE: "<= 0",
    Op.SETG: "> 0",
    Op.SETGE: ">= 0",
}

_JCC_COND = {
    Op.JE: "== 0",
    Op.JNE: "!= 0",
    Op.JL: "< 0",
    Op.JLE: "<= 0",
    Op.JG: "> 0",
    Op.JGE: ">= 0",
}

#: Negation of each condition string, for trace side-exit guards.
_COND_INVERT = {
    "== 0": "!= 0",
    "!= 0": "== 0",
    "< 0": ">= 0",
    "<= 0": "> 0",
    "> 0": "<= 0",
    ">= 0": "< 0",
}

_VBYTES = {Op.VLOAD: 32, Op.VLOAD512: 64, Op.VSTORE: 32, Op.VSTORE512: 64}

#: Opcodes whose generated statements can raise (memory access, division,
#: alignment/shadow checks, traps, host services).  Slices containing none
#: of these (and no memory operands) compile without a try/except wrapper.
_FAULTABLE = {
    Op.IDIV,
    Op.PUSH,
    Op.POP,
    Op.CALL,
    Op.RET,
    Op.TRAP,
    Op.CALLRT,
    Op.VLOAD,
    Op.VLOAD512,
    Op.VSTORE,
    Op.VSTORE512,
}

#: ``MX`` is the indexed operand ``[base? + index*scale + off]``: the
#: toolchain's variable-index slot and global accesses
#: (``_lower_slot_load``/``_store`` and ``_lower_global_load``/``_store``
#: in :mod:`repro.toolchain.lower`) emit it only as a ``mov`` load or
#: store through a register.
_MOV_FORMS = {
    ("R", "R"), ("R", "I"), ("R", "MB"), ("R", "MA"), ("R", "MX"),
    ("MB", "R"), ("MA", "R"), ("MX", "R"), ("MB", "I"), ("MA", "I"),
}
_ALU_FORMS = {
    ("R", "R"), ("R", "I"), ("R", "MB"), ("R", "MA"),
    ("MB", "R"), ("MB", "I"),
}
_CMP_FORMS = {("R", "R"), ("R", "I"), ("R", "MB"), ("MB", "R"), ("MB", "I")}


class _JU:
    """One instruction's lowering record: operand kinds pre-classified,
    and the operand fields decoded by tier 0's decoder
    (:func:`repro.machine.uops.decode_operands`: immediates masked, an
    offset masked only when the operand has neither base nor index).
    ``idx``/``scale`` are the index register and scale of an ``MX``
    operand (None/1 otherwise; at most one operand of a lowered
    instruction is ``MX``)."""

    __slots__ = (
        "rip", "next_rip", "size", "op", "ka", "kb",
        "a_reg", "b_reg", "imm", "a_base", "a_off", "b_base", "b_off",
        "idx", "scale", "sym", "has_mem", "target",
    )


def _supported(op: Op, ka: str, kb: str) -> bool:
    """Tier-2 eligibility for one (opcode, operand-kind) combination."""
    if op is Op.MOV:
        return (ka, kb) in _MOV_FORMS
    if op in _ALU_EXPR:
        return (ka, kb) in _ALU_FORMS
    if op is Op.LEA:
        return (ka, kb) in {("R", "MB"), ("R", "MA")}
    if op is Op.PUSH:
        return ka in ("R", "I")
    if op is Op.EXIT:
        return ka in ("R", "I", "N")
    if op is Op.POP or op is Op.NEG or op in _SETCC_COND:
        return ka == "R"
    if op is Op.IDIV:
        return ka == "R" and kb in ("R", "I")
    if op is Op.CMP:
        return (ka, kb) in _CMP_FORMS
    if op is Op.TEST:
        return (ka, kb) in {("R", "R"), ("R", "I")}
    if op is Op.JMP or op is Op.CALL:
        return ka in ("R", "I")
    if op in _JCC_COND:
        return ka == "I"
    if op in (Op.RET, Op.NOP, Op.TRAP, Op.VZEROUPPER):
        return True
    if op in (Op.VLOAD, Op.VLOAD512):
        return ka == "R" and kb in ("MB", "MA")
    if op in (Op.VSTORE, Op.VSTORE512):
        return ka in ("MB", "MA") and kb == "R"
    if op is Op.OUT:
        return ka in ("R", "I")
    return False


def _classify(addr: int, instr) -> Optional[_JU]:
    """Lower one instruction to a :class:`_JU`, or None when only the
    generic (reference-semantics) path can run it."""
    if unresolved_symbol(instr):
        return None
    a, b = instr.a, instr.b
    op = instr.op
    ka, kb = _kind(a), _kind(b)
    if op is Op.CALLRT:
        if not (isinstance(a, Imm) and a.symbol is not None):
            return None
    elif not _supported(op, ka, kb):
        return None
    ju = _JU()
    ju.rip = addr
    ju.size = instr.size
    ju.next_rip = addr + instr.size
    ju.op = op
    ju.ka = ka
    ju.kb = kb
    decode_operands(ju, instr)
    indexed = a if ka == "MX" else b if kb == "MX" else None
    ju.idx = None if indexed is None else int(indexed.index)
    ju.scale = 1 if indexed is None else indexed.scale
    ju.sym = a.symbol if isinstance(a, Imm) else None
    return ju


class Lowering(NamedTuple):
    """One slice through the jit's front end (:func:`lower_slice`): its
    ``(address, instruction)`` ``items``, the lowered ``jus`` (all of
    them, or the prefix before the first instruction only the generic
    reference-semantics path can run), and the ``fused`` annotations."""

    items: List[tuple]
    jus: List[_JU]
    fused: List[Tuple[str, int, int]]

    @property
    def compiles(self) -> bool:
        """True when the whole slice lowers, i.e. reaches tier 2."""
        return bool(self.items) and len(self.jus) == len(self.items)


def lower_slice(instructions, addr: int) -> Lowering:
    """Tier 1 for the head ``addr``: slice the straight-line run,
    lower each instruction (stopping at the first that cannot lower) and
    annotate fusion.  Block compilation, trace formation and the
    ``disasm-blocks`` dump all decide tiers with this one function."""
    items = slice_block(instructions, addr, _SLICE_LIMIT)
    jus: List[_JU] = []
    for iaddr, instr in items:
        ju = _classify(iaddr, instr)
        if ju is None:
            break
        jus.append(ju)
    return Lowering(items, jus, fuse_slice(items))


def _faultable(ju: _JU) -> bool:
    return ju.op in _FAULTABLE or ju.has_mem


#: Opcodes that write their register destination ``a``.
_WRITES_A = frozenset({Op.MOV, Op.LEA, Op.IDIV, Op.NEG, *_ALU_EXPR, *_SETCC_COND})


def _written(ju: _JU) -> Tuple[int, ...]:
    """The general-purpose registers ``ju`` writes: the register
    destination of a ``mov``, an ALU op, ``lea``, ``pop``, ``idiv``,
    ``neg`` or ``setcc``, and RSP for ``push``, ``pop``, ``call`` and
    ``ret``.  (``vload`` writes a vector register; a runtime call, which
    writes RAX, ends every unit.)"""
    op = ju.op
    if op in _WRITES_A:
        return (ju.a_reg,) if ju.ka == "R" else ()
    if op is Op.POP:
        return (ju.a_reg, _RSP)
    if op is Op.PUSH or op is Op.CALL or op is Op.RET:
        return (_RSP,)
    return ()


#: 64-bit words per page: a page's word view has this many elements.
_PAGE_WORDS = PAGE_SIZE // 8


class _Frame:
    """One base register's frame in a block or a loop trace (see
    "inlined memory word access" in :class:`_SliceCompiler`): the
    register ``reg``, the static ``delta`` of its current value from the
    frame value ``h<reg>`` (only RSP's static steps move it), and whether
    the read and the write view have been looked up."""

    __slots__ = ("reg", "delta", "read", "write")

    def __init__(self, reg: int):
        self.reg = reg
        self.delta = 0
        self.read = False
        self.write = False

    def addr(self, offset: int) -> str:
        """The masked address ``offset`` bytes from the frame value."""
        h = f"h{self.reg}"
        if offset == 0:
            return h
        return f"({h} + {offset}) & M" if offset > 0 else f"({h} - {-offset}) & M"

    def view(self, write: bool) -> Tuple[str, str, Optional[str]]:
        """(view, word index, lookup statement) of the frame's write or
        read view; the statement is None when an earlier call returned
        it."""
        b = self.reg
        if write:
            view, index, get, seen = f"W{b}", f"j{b}", "WMG", self.write
            self.write = True
        else:
            view, index, get, seen = f"R{b}", f"i{b}", "RMG", self.read
            self.read = True
        lookup = None if seen else (
            f"{view} = {get}(h{b} & -4096); {index} = (h{b} & 4095) >> 3 "
            f"if {view} is not None and not h{b} & 7 else 1 << 62"
        )
        return view, index, lookup


def _word(index: str, k: int) -> Tuple[str, str]:
    """(bound test, element index) of word ``k`` from a frame's word
    index ``index``: the test holds when the word lies in the view's
    page (a missing view or an unaligned frame value fails it)."""
    if k >= 0:
        return f"{index} < {_PAGE_WORDS - k}", f"{index} + {k}" if k else index
    return f"{-k} <= {index} < {_PAGE_WORDS - k}", f"{index} - {-k}"


def _mem_addr_expr(off: str, base: Optional[int], idx: Optional[int] = None,
                   scale: int = 1) -> str:
    """The masked effective address ``MachineState._mem_address``
    computes, as a generated-code expression (``off`` is the rendered
    displacement: a literal, or a name bound to a relocated address)."""
    if idx is not None:
        terms = f"{off} + r[{idx}] * {scale}"
        return f"({terms} + r[{base}]) & M" if base is not None else f"({terms}) & M"
    if base is None:
        return off
    return f"({off} + r[{base}]) & M"


def _sx(expr: str) -> str:
    """Sign-extend a masked 64-bit expression inline (branchless
    ``to_signed``).  Only safe for side-effect-free expressions — the
    operand is evaluated twice."""
    return f"({expr} - (({expr} >> 63) << 64))"


def _fault_lineno() -> int:
    """Line (in the handling frame — the generated block function) where
    the in-flight exception was raised.

    The fault-attribution mechanism: instead of maintaining an ``I =
    <rip>`` bookkeeping local before every faultable instruction — pure
    happy-path overhead — the generated except handler maps the faulting
    *source line* back to its instruction address through a baked
    line-number table.  The traceback's first entry is always the handling
    frame with ``tb_lineno`` at the offending statement, whether the
    exception was raised by a nested call (memory accessors, runtime
    services) or by an inline ``raise``.
    """
    return sys.exc_info()[2].tb_lineno


def _text_fits_icache(instructions, costs) -> bool:
    """True when the program's whole text maps at most ``ways`` distinct
    lines into every i-cache set.

    Under that bound **no eviction can ever occur** — a set never grows
    past its capacity — so LRU recency is unobservable and every probe
    reduces to first-touch membership: a line misses exactly once per
    process lifetime and hits forever after.  The compiled-code prober and
    codegen exploit this (``monotone`` mode): probes skip the LRU
    ``move_to_end``/eviction mutations, and a block that has run its
    probes once to completion marks itself in ``PD`` and skips them on
    every later execution — they are all guaranteed hits with no state
    change.  The interpreter's exact-LRU probes interoperate: its
    ``move_to_end`` calls are no-ops for observability when nothing ever
    evicts.
    """
    num_sets = costs.icache_size // (costs.icache_line * costs.icache_ways)
    ways = costs.icache_ways
    line_size = costs.icache_line
    seen = set()
    per_set: Dict[int, int] = {}
    for addr, instr in instructions.items():
        for line in line_span(addr, instr.size, line_size):
            if line not in seen:
                seen.add(line)
                index = line % num_sets
                count = per_set.get(index, 0) + 1
                if count > ways:
                    return False
                per_set[index] = count
    return True


def _make_probers(ways: int, monotone: bool):
    """(probe_one, probe_many) i-cache probe helpers for generated code,
    returning the miss count.  Bound per program so ``ways`` is a closure
    constant.

    The exact variants mirror :meth:`ICache.access`'s set mutation order;
    the ``monotone`` variants (text fits the cache, see
    :func:`_text_fits_icache`) skip the unobservable LRU maintenance —
    membership insert on miss only."""

    if monotone:

        def probe_one(sets, index, line):
            entry = sets[index]
            if line in entry:
                return 0
            entry[line] = True
            return 1

        def probe_many(sets, pairs):
            misses = 0
            for index, line in pairs:
                entry = sets[index]
                if line not in entry:
                    misses += 1
                    entry[line] = True
            return misses

        return probe_one, probe_many

    def probe_one(sets, index, line):
        entry = sets[index]
        if line in entry:
            entry.move_to_end(line)
            return 0
        entry[line] = True
        if len(entry) > ways:
            entry.popitem(last=False)
        return 1

    def probe_many(sets, pairs):
        misses = 0
        for index, line in pairs:
            entry = sets[index]
            if line in entry:
                entry.move_to_end(line)
            else:
                misses += 1
                entry[line] = True
                if len(entry) > ways:
                    entry.popitem(last=False)
        return misses

    return probe_one, probe_many


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------


class _SliceCompiler:
    """Generates the source of one block function.

    Per-instruction instruction counts, cycle charges, guaranteed i-cache
    hits, and memory-op counts fold into *static integer constants*
    accumulated at codegen time.  The generated body carries only the
    genuinely dynamic parts — LRU probes for lines not guaranteed
    resident (misses ``m``) — and the terminator flush charges
    ``K + m * penalty`` in one statement.  Per-tag counts are never
    compiled (those drives run on ``fast``).  Memory words go through
    one page view per base register (a *frame*, see "inlined memory
    word access" below), so a stack frame's accesses or a BTRA push run
    pay one page lookup, not one per access.

    Faults restore the exact executed prefix from the unit's baked fault
    table ``faults``: generated line -> ``(rip, x, k, h, o, b, t)``, the
    text offset of the faultable instruction a fault on that line
    attributes to and the prefix executed through it (instructions, cycle
    units, i-cache hit charges, memory ops, and the branches and taken
    branches a trace retires at segment ends; both 0 in a block).  Pure
    lines carry the entry of the most recent faultable instruction.

    The source is position-independent: every address literal is written
    relative to the text base ``T`` of the program that links it.  Exit
    addresses, i-cache line tags (relative to ``L``, the base's line),
    and operands the loader resolved from a symbol (``symbolic``: text
    offset -> which of ``a``/``b`` carried one; data sits one fixed gap
    after text, so it shares the slide) become parameter defaults such
    as ``a<i>=T+<offset>`` that ``exec`` evaluates once per link, so
    executing a unit pays no relocation add; so are the text pages the
    prolog tests against ``FD``.  The head needs none: a deopt escape
    returns ``~offset``.  Paths that run at most once per process (EXIT,
    a trap, a fault) use ``T+<offset>`` inline.  ``base`` is the text base of
    the program that generates the unit; i-cache set indices and page
    splits depend on it only through the residue the code-cache key
    holds.
    """

    def __init__(self, addr: int, segments: List[Lowering], costs,
                 monotone: bool = False, base: int = 0,
                 symbolic: Optional[Dict[int, Tuple[bool, bool]]] = None):
        self.base = base
        #: The head's text offset: names the unit and keys its deopt
        #: escape and its ``PD`` mark.
        self.offset = addr - base
        self.symbolic = symbolic or {}
        #: Default-argument expression -> parameter name.
        self.bound: Dict[str, str] = {}
        self.costs = costs
        #: Text fits the i-cache (see :func:`_text_fits_icache`): probes
        #: are first-touch-only and skippable once the block has probed
        #: to completion.
        self.monotone = monotone
        self.num_sets = costs.icache_size // (costs.icache_line * costs.icache_ways)
        self.penalty = costs.icache_miss_penalty_units
        self.lines: List[str] = []
        #: Each segment's i-cache line plan (a block is one segment).
        self.plans = [
            block_line_plan([(a, i.size) for a, i in lowering.items], costs.icache_line)
            for lowering in segments
        ]
        jus = [j for lowering in segments for j in lowering.jus]
        #: Text offsets of the pages the unit's bytes cover, segment by
        #: segment in path order (each page once): what its prolog tests.
        self.pages: List[int] = []
        for lowering in segments:
            first, _ = lowering.items[0]
            last, instr = lowering.items[-1]
            for page in page_range(first, last + instr.size - first):
                if page - base not in self.pages:
                    self.pages.append(page - base)
        #: Instructions in the unit (per iteration, for a trace).
        self.total = len(jus)
        self.needs_try = any(_faultable(j) for j in jus)
        self.indent = "        " if self.needs_try else "    "
        self.load(self.plans[0], segments[0])
        self.has_probe = any(
            must for plan in self.plans for probes in plan for _, must in probes
        )
        self.has_mem_any = any(j.has_mem for j in jus)
        # Static accumulators (branches ``b``/``t`` move only in traces).
        self.stat_x = 0
        self.stat_k = 0
        self.stat_g = 0
        self.stat_o = 0
        self.stat_p = 0
        self.stat_b = 0
        self.stat_t = 0
        self._pending: List[Tuple[int, int]] = []
        # The fault-table entry of each emitted line, and of the next one.
        self._tags: List[Tuple[int, ...]] = []
        self._tag = (next((j.rip - base for j in jus if _faultable(j)), 0),) + (0,) * 6
        #: Generated line -> fault-table entry (None without a try).
        self.faults: Optional[dict] = None
        #: Base register -> its open :class:`_Frame`.
        self.frames: Dict[int, _Frame] = {}

    # -- relocation --------------------------------------------------------

    def bind(self, expr: str) -> str:
        """The parameter whose default evaluates ``expr`` when the unit is
        linked (one name per distinct expression)."""
        name = self.bound.get(expr)
        if name is None:
            name = self.bound[expr] = f"a{len(self.bound)}"
        return name

    def at(self, addr: int) -> str:
        """A text-relative address, bound at link time."""
        return self.bind(f"T+{addr - self.base}")

    def once(self, addr: int) -> str:
        """A text-relative address on a path run at most once per
        process, computed where it runs."""
        return f"T+{addr - self.base}"

    def page_misses(self) -> str:
        """The prolog's fetch-permission test: true when a page the unit
        covers has not been fetch-checked since the last permission
        change (``FD`` is the driven process's set of checked pages)."""
        return " or ".join(f"{self.at(self.base + page)} not in FD" for page in self.pages)

    def signature(self, function: str) -> str:
        """The ``def`` line, with the link-time bound parameters."""
        params = "".join(f", {name}={expr}" for expr, name in self.bound.items())
        return f"def {function}(cpu, r, S, C{params}):"

    def _symbolic(self, ju: _JU) -> Tuple[bool, bool]:
        return self.symbolic.get(ju.rip - self.base, (False, False))

    def imm(self, ju: _JU, signed: bool = False) -> str:
        """The instruction's immediate (``to_signed`` with ``signed``)."""
        a_sym, b_sym = self._symbolic(ju)
        if b_sym if ju.kb == "I" else a_sym:
            return self.bind(f"ts(T+{ju.imm - self.base})") if signed else self.at(ju.imm)
        return repr(to_signed(ju.imm) if signed else ju.imm)

    def disp(self, ju: _JU, operand: str) -> Tuple[int, Optional[int], bool]:
        """Operand ``a`` or ``b``'s memory displacement, its base
        register, and whether the displacement is a relocated address."""
        a_sym, b_sym = self._symbolic(ju)
        if operand == "a":
            return ju.a_off, ju.a_base, a_sym
        return ju.b_off, ju.b_base, b_sym

    def lit(self, value: int, relocated: bool) -> str:
        return self.at(value) if relocated else repr(value)

    def mem_addr(self, ju: _JU, operand: str) -> str:
        """Operand ``a`` or ``b``'s effective-address expression."""
        off, base, relocated = self.disp(ju, operand)
        return _mem_addr_expr(self.lit(off, relocated), base, ju.idx, ju.scale)

    # -- helpers -----------------------------------------------------------

    def load(self, plan, lowering: Lowering) -> None:
        """Point the per-slice emission state at one segment and its line
        plan (a trace loads each of its segments in turn)."""
        self.jus = lowering.jus
        self.plan = plan
        self.fused_cmp = any(kind == "cmp+jcc" for kind, _, _ in lowering.fused)

    def emit(self, line: str) -> None:
        self.lines.append(self.indent + line)
        self._tags.append(self._tag)

    def prefix(self) -> Tuple[int, ...]:
        """The static executed prefix so far: (instructions, cycle units,
        i-cache hit charges, memory ops, branches, taken branches)."""
        return (
            self.stat_x, self.stat_k, self.stat_g + self.stat_p, self.stat_o,
            self.stat_b, self.stat_t,
        )

    def assemble(self, head: List[str], tail: List[str]) -> str:
        """Join the function source and key the fault table by the line
        each body statement lands on.  The table is linked into the
        execution namespace as an object (:meth:`JitBackend._install`),
        so ``compile()`` never parses it."""
        if self.needs_try:
            first = len(head) + 1
            self.faults = {first + index: tag for index, tag in enumerate(self._tags)}
        return "\n".join(head + self.lines + tail)

    def flush_probes(self) -> None:
        """Emit the pending LRU probe batch.

        Probes of consecutive non-faultable instructions batch into one
        generated statement: nothing between two faultable statements can
        observe i-cache state, so running the probes back-to-back at the
        next possible fault point (or the terminator) is indistinguishable
        from the interpreter's per-fetch interleaving — and it keeps the
        generated source (whose ``compile()`` time is the dominant cost of
        a cold cell) an order of magnitude smaller than inline probes.
        """
        pending = self._pending
        if not pending:
            return
        # Monotone mode: once this block has probed to completion (the
        # ``PD`` mark before its terminator), every later probe is a
        # guaranteed hit with no state change — skip the calls outright.
        guard = "if not f: " if self.monotone else ""
        # Line tags move with the text base (``L`` is its line); set
        # indices do not, because the code-cache key fixes the base's
        # residue modulo the i-cache period.
        first = self.base // self.costs.icache_line
        if len(pending) == 1:
            index, line = pending[0]
            self.emit(f"{guard}m += PRB1(S, {index}, {self.bind(f'L+{line - first}')})")
        else:
            pairs = ", ".join(f"({index}, L+{line - first})" for index, line in pending)
            self.emit(f"{guard}m += PRB(S, {self.bind(f'({pairs})')})")
        self.stat_p += len(pending)
        pending.clear()

    def flush_stmts(self) -> List[str]:
        out = ["C[0] = n"]
        if self.has_probe:
            out.append(f"C[1] += {self.stat_k} + m * {self.penalty}")
            out.append(f"C[3] += {self.stat_g + self.stat_p} - m")
            out.append("C[4] += m")
        else:
            out.append(f"C[1] += {self.stat_k}")
            if self.stat_g:
                out.append(f"C[3] += {self.stat_g}")
        if self.stat_o:
            out.append(f"C[2] += {self.stat_o}")
        return out

    def emit_flush_and(self, tail: str) -> None:
        for stmt in self.flush_stmts():
            self.emit(stmt)
        self.emit(tail)

    # -- inlined memory word access ----------------------------------------
    #
    # The single hottest thing compiled code does is call
    # ``Memory.read_word``/``write_word``.  Compiled code inlines the
    # aligned single-page fast path instead: ``RMG``/``WMG`` are bound
    # ``dict.get`` methods over the memory's word-view maps (page base ->
    # 64-bit memoryview, present iff the page is materialized and
    # currently grants the permission — see
    # :class:`repro.machine.memory.Memory`), so a hit licenses indexed
    # view accesses outright.  Every miss — unaligned, unmaterialized,
    # unmapped, protected, guard, big-endian host — falls back to the
    # accessor call at the exact address, which reproduces the exact
    # behaviour including the fault, from a line the fault table
    # attributes to the same instruction.
    #
    # A page is looked up once per base register, not once per access.
    # A register's *frame* (:class:`_Frame`) is its value ``h<b>`` at the
    # first access through it, one ``RMG`` lookup of that value's page on
    # the first read (view ``R<b>``, word index ``i<b>``) and one ``WMG``
    # lookup on the first write (``W<b>``, ``j<b>``); the index is
    # ``1 << 62``, past every bound, when the view is missing or the
    # value unaligned.  Every 8-aligned ``[b + disp]`` access is then one
    # indexed view access behind a constant bound test, with the accessor
    # at the exact address as its other branch; a read-modify-write
    # memory-destination ALU form is a load and a store through the frame.
    # RSP's push, pop, call, ret and ``add``/``sub rsp, imm`` move a
    # static delta inside RSP's frame (each still assigns ``r[RSP]``), so
    # a push run costs one lookup; any other write to a base register
    # ends its frame, and the next access opens a new one.  A loop trace
    # hoists the frame of every base its path never writes into its
    # prolog, per-word indices included (see :class:`_TraceCompiler`).
    # Exact, because a materialized page's view object never changes,
    # and only ``protect`` changes which table lists it: while guest code
    # runs, only runtime services call it (or ``map_region``), and a
    # service call ends a block and never enters a trace.  A page that
    # materializes through an accessor call keeps taking the accessor
    # until its frame is opened again.  Unaligned or relocated
    # displacements and absolute (``MA``) and indexed (``MX``) operands
    # keep one lookup per access.

    def open_frame(self, base: int) -> _Frame:
        """``base``'s frame, opened here (``h<base> = r[base]``) if none
        is."""
        frame = self.frames.get(base)
        if frame is None:
            frame = self.frames[base] = _Frame(base)
            self.emit(f"h{base} = r[{base}]")
        return frame

    def frame_site(self, base: Optional[int], disp: int,
                   relocated: bool) -> Optional[Tuple[_Frame, int]]:
        """The frame a ``[base + disp]`` word access goes through and the
        access's byte offset from its frame value, or None when the access
        keeps one lookup per access: no base, or a relocated or unaligned
        displacement, or one a page or more from the frame value."""
        if base is None or relocated:
            return None
        frame = self.frames.get(base)
        offset = disp + (0 if frame is None else frame.delta)
        if offset & 7 or not -PAGE_SIZE < offset < PAGE_SIZE:
            return None
        return self.open_frame(base), offset

    def frame_word(self, frame: _Frame, offset: int, write: bool) -> Tuple[str, str]:
        """(bound test, view element) of the word ``offset`` bytes from
        the frame value, looking the frame's read or write view up on its
        first use."""
        view, index, lookup = frame.view(write)
        if lookup is not None:
            self.emit(lookup)
        test, element = _word(index, offset >> 3)
        return test, f"{view}[{element}]"

    def emit_frame_load(self, target: str, frame: _Frame, offset: int) -> None:
        test, word = self.frame_word(frame, offset, False)
        self.emit(f"{target} = {word} if {test} else RW({frame.addr(offset)})")

    def emit_frame_store(self, frame: _Frame, offset: int, value: str) -> None:
        test, word = self.frame_word(frame, offset, True)
        self.emit(f"if {test}: {word} = {value}")
        self.emit(f"else: WW({frame.addr(offset)}, {value})")

    def move_stack(self, frame: _Frame, step: int) -> None:
        """``r[RSP] += step`` inside RSP's frame.  A frame moved off
        alignment, or a page or more from its value, ends: its views
        would serve no later access."""
        frame.delta += step
        self.emit(f"r[{_RSP}] = {frame.addr(frame.delta)}")
        if frame.delta & 7 or not -PAGE_SIZE < frame.delta < PAGE_SIZE:
            del self.frames[_RSP]

    def stack_step(self, ju: _JU) -> Optional[int]:
        """The constant ``ju`` adds to RSP, when RSP's frame is open and
        ``ju`` is a ``push``, a ``pop`` (``pop rsp`` discards the word it
        loads), a ``call``, a ``ret`` or an ``add``/``sub rsp, imm`` whose
        immediate the loader does not relocate; None otherwise."""
        if _RSP not in self.frames:
            return None
        op = ju.op
        if op is Op.PUSH or op is Op.CALL:
            return -8
        if op is Op.RET or op is Op.POP:
            return 8
        if (
            (op is Op.ADD or op is Op.SUB) and ju.a_reg == _RSP and ju.kb == "I"
            and not self._symbolic(ju)[1]
        ):
            step = to_signed(ju.imm)
            return step if op is Op.ADD else -step
        return None

    def retire(self, ju: _JU) -> None:
        """End the frame of every register ``ju`` wrote, except RSP's
        when ``ju`` moved RSP by a static step (its frame moved along)."""
        frames = self.frames
        for reg in _written(ju):
            if reg in frames and (reg != _RSP or self.stack_step(ju) is None):
                del frames[reg]

    def emit_push(self, value: str) -> None:
        """``r[RSP] -= 8``, then store ``value`` (evaluated after the
        assignment, as the interpreters do) at the new RSP."""
        frame = self.open_frame(_RSP)
        self.move_stack(frame, -8)
        self.emit_frame_store(frame, frame.delta, value)

    def emit_pop(self, target: str) -> None:
        """Load the word at RSP into ``target``, then ``r[RSP] += 8``."""
        frame = self.open_frame(_RSP)
        self.emit_frame_load(target, frame, frame.delta)
        self.move_stack(frame, 8)

    def emit_load_q(self, target: str, qvar: str) -> None:
        """``target = read_word(qvar)`` with the aligned path inline."""
        self.emit(f"z = {qvar} & 4095")
        self.emit(f"u = RMG({qvar} - z)")
        self.emit(f"{target} = u[z >> 3] if u is not None and not z & 7 else RW({qvar})")

    def emit_load(self, target: str, off: int, base: Optional[int],
                  relocated: bool = False) -> None:
        """``target = read_word(off [+ r[base]])``, through ``base``'s
        frame where :meth:`frame_site` allows; absolute addresses fold
        the page split and alignment test at codegen time (a relocated
        address keeps its page offset: slides are page multiples)."""
        site = self.frame_site(base, off, relocated)
        if site is not None:
            self.emit_frame_load(target, *site)
            return
        if base is None:
            z = off & 4095
            if not z & 7:
                self.emit(f"u = RMG({self.lit(off - z, relocated)})")
                self.emit(
                    f"{target} = u[{z >> 3}] if u is not None "
                    f"else RW({self.lit(off, relocated)})"
                )
            else:
                self.emit(f"{target} = RW({self.lit(off, relocated)})")
            return
        self.emit(f"q = ({self.lit(off, relocated)} + r[{base}]) & M")
        self.emit_load_q(target, "q")

    def emit_store_q(self, qvar: str, value: str) -> None:
        """``write_word(qvar, value)`` with the aligned path inline.
        ``value`` must be side-effect-free and already 64-bit masked (all
        register values, classified immediates, and masked ALU results
        are; the word view raises on out-of-range stores)."""
        self.emit(f"z = {qvar} & 4095")
        self.emit(f"u = WMG({qvar} - z)")
        self.emit(f"if u is None or z & 7: WW({qvar}, {value})")
        self.emit(f"else: u[z >> 3] = {value}")

    def emit_store(self, off: int, base: Optional[int], relocated: bool,
                   value: str) -> None:
        site = self.frame_site(base, off, relocated)
        if site is not None:
            self.emit_frame_store(*site, value)
            return
        if base is None:
            z = off & 4095
            if not z & 7:
                self.emit(f"u = WMG({self.lit(off - z, relocated)})")
                self.emit(f"if u is None: WW({self.lit(off, relocated)}, {value})")
                self.emit(f"else: u[{z >> 3}] = {value}")
            else:
                self.emit(f"WW({self.lit(off, relocated)}, {value})")
            return
        self.emit(f"q = ({self.lit(off, relocated)} + r[{base}]) & M")
        self.emit_store_q("q", value)

    # -- accounting --------------------------------------------------------

    def account(self, position: int, ju: _JU) -> None:
        for line, must_probe in self.plan[position]:
            if not must_probe:
                self.stat_g += 1
                continue
            self._pending.append((line % self.num_sets, line))
        self.stat_x += 1
        self.stat_k += fold_cost(self.costs, ju.op, 0, ju.has_mem)
        if ju.has_mem:
            self.stat_o += 1
        if self.needs_try and _faultable(ju):
            # A fault at this instruction must observe exactly the probes
            # of instructions up to and including it — flush the batch now.
            # Every line from here to the next faultable instruction
            # restores this prefix.
            self.flush_probes()
            self._tag = (ju.rip - self.base,) + self.prefix()

    # -- semantics ---------------------------------------------------------

    def a_val(self, ju: _JU) -> str:
        if ju.ka == "R":
            return f"r[{ju.a_reg}]"
        if ju.ka == "I":
            return self.imm(ju)
        raise AssertionError(ju.ka)

    def b_val(self, ju: _JU) -> str:
        kb = ju.kb
        if kb == "R":
            return f"r[{ju.b_reg}]"
        if kb == "I":
            return self.imm(ju)
        raise AssertionError(kb)

    def emit_semantics(self, position: int, ju: _JU) -> None:
        op = ju.op
        ka, kb = ju.ka, ju.kb
        if op is Op.MOV:
            # Indexed forms compute their address afresh on every
            # execution and look its page up per access: the address
            # moves with the index even when the base is loop-invariant.
            if ka == "R":
                if kb in ("MB", "MA"):
                    self.emit_load(f"r[{ju.a_reg}]", *self.disp(ju, "b"))
                elif kb == "MX":
                    self.emit(f"q = {self.mem_addr(ju, 'b')}")
                    self.emit_load_q(f"r[{ju.a_reg}]", "q")
                else:
                    self.emit(f"r[{ju.a_reg}] = {self.b_val(ju)}")
            elif ka == "MX":
                self.emit(f"q = {self.mem_addr(ju, 'a')}")
                self.emit_store_q("q", self.b_val(ju))
            else:
                self.emit_store(*self.disp(ju, "a"), self.b_val(ju))
        elif op in _ALU_EXPR:
            expr = _ALU_EXPR[op]
            step = self.stack_step(ju) if ju.a_reg == _RSP else None
            if step is not None:
                # ``add``/``sub rsp, imm``: a static step in RSP's frame.
                self.move_stack(self.frames[_RSP], step)
            elif ka == "R":
                if kb in ("MB", "MA"):
                    self.emit_load("y", *self.disp(ju, "b"))
                    bexpr = "y"
                else:
                    bexpr = self.b_val(ju)
                if op is Op.IMUL:
                    # Inline sign extension for register/loaded operands;
                    # fold it entirely for immediates.
                    sa = _sx(f"r[{ju.a_reg}]")
                    sb = self.imm(ju, signed=True) if kb == "I" else _sx(bexpr)
                    body = f"({sa} * {sb})"
                else:
                    body = expr.format(a=f"r[{ju.a_reg}]", b=bexpr)
                mask = "" if op in _NO_MASK_OPS else " & M"
                self.emit(f"r[{ju.a_reg}] = {body}{mask}")
            else:  # MB destination: read-modify-write one address
                site = self.disp(ju, "a")
                self.emit_load("y", *site)
                body = expr.format(a="y", b=self.b_val(ju))
                mask = "" if op in _NO_MASK_OPS else " & M"
                self.emit(f"y = {body}{mask}")
                self.emit_store(*site, "y")
        elif op is Op.LEA:
            self.emit(f"r[{ju.a_reg}] = {self.mem_addr(ju, 'b')}")
        elif op is Op.PUSH:
            self.emit_push(self.a_val(ju))
        elif op is Op.POP:
            self.emit_pop(f"r[{ju.a_reg}]")
        elif op is Op.IDIV:
            fault = f"raise ME('division by zero at %#x' % ({self.once(ju.rip)}))"
            if kb == "R":
                self.emit(f"dv = ts(r[{ju.b_reg}])")
                self.emit("if dv == 0:")
                self.emit("    " + fault)
                self.emit(f"r[{ju.a_reg}] = td(ts(r[{ju.a_reg}]), dv) & M")
            else:
                # A relocated divisor is an address, never 0.
                divisor = self.imm(ju, signed=True)
                if divisor == "0":
                    self.emit(fault)
                else:
                    self.emit(f"r[{ju.a_reg}] = td(ts(r[{ju.a_reg}]), {divisor}) & M")
        elif op is Op.NEG:
            self.emit(f"r[{ju.a_reg}] = (-r[{ju.a_reg}]) & M")
        elif op is Op.CMP or op is Op.TEST:
            if op is Op.CMP:
                # At most one operand is memory (_CMP_FORMS); load it into
                # a local first so sign extension can inline.
                if ka == "R":
                    lhs = _sx(f"r[{ju.a_reg}]")
                else:
                    self.emit_load("y", *self.disp(ju, "a"))
                    lhs = _sx("y")
                if kb == "I":
                    rhs = self.imm(ju, signed=True)
                elif kb == "R":
                    rhs = _sx(f"r[{ju.b_reg}]")
                else:
                    self.emit_load("y", *self.disp(ju, "b"))
                    rhs = _sx("y")
                value = f"{lhs} - {rhs}"
            else:
                value = _sx(f"(r[{ju.a_reg}] & {self.b_val(ju)})")
            if self.fused_cmp and position == len(self.jus) - 2:
                self.emit(f"w_ = {value}")
                self.emit("cpu._cmp = w_")
            else:
                self.emit(f"cpu._cmp = {value}")
        elif op in _SETCC_COND:
            self.emit(f"r[{ju.a_reg}] = 1 if cpu._cmp {_SETCC_COND[op]} else 0")
        elif op in (Op.VLOAD, Op.VLOAD512):
            nbytes = _VBYTES[op]
            self.emit(f"cpu.vregs[{ju.a_reg - _YMM0}] = RD({self.mem_addr(ju, 'b')}, {nbytes})")
        elif op in (Op.VSTORE, Op.VSTORE512):
            self.emit(f"WR({self.mem_addr(ju, 'a')}, cpu.vregs[{ju.b_reg - _YMM0}])")
        elif op is Op.OUT:
            self.emit(f"OA({self.a_val(ju)})")
        elif op in (Op.NOP, Op.VZEROUPPER):
            pass
        else:  # pragma: no cover - terminators handled by emit_terminator
            raise AssertionError(f"unexpected straight-line op {op}")

    def emit_terminator(self, ju: _JU) -> None:
        op = ju.op
        if op is Op.EXIT:
            ka = ju.ka
            value = self.imm(ju) if ka == "I" else (f"r[{ju.a_reg}]" if ka == "R" else "0")
            self.emit(f"cpu._exit_code = {value}")
            self.emit("cpu._halted = True")
            self.emit(f"cpu.rip = {self.once(ju.next_rip)}")
            self.emit_flush_and("return None")
        elif op is Op.TRAP:
            self.emit("cpu._bk_traps += 1")
            self.emit(f"raise BTT({self.once(ju.rip)})")
        elif op is Op.JMP:
            self.emit("cpu._bk_branches += 1")
            self.emit("cpu._bk_taken += 1")
            if ju.ka == "R":
                self.emit_flush_and(f"return r[{ju.a_reg}]")
            else:
                self.emit_flush_and(f"return {self.imm(ju)}")
        elif op in _JCC_COND:
            cond = _JCC_COND[op]
            value = "w_" if self.fused_cmp else "cpu._cmp"
            self.emit("cpu._bk_branches += 1")
            self.emit(f"if {value} {cond}:")
            self.emit("    cpu._bk_taken += 1")
            for stmt in self.flush_stmts():
                self.emit("    " + stmt)
            self.emit(f"    return {self.imm(ju)}")
            self.emit_flush_and(f"return {self.at(ju.next_rip)}")
        elif op is Op.CALL:
            self.emit(f"if r[{_RSP}] % 16 != 0:")
            self.emit(
                "    raise SM('rsp=%#x not 16-byte aligned at call (%#x)' "
                f"% (r[{_RSP}], {self.once(ju.rip)}))"
            )
            indirect = ju.ka == "R"
            if indirect:
                self.emit(f"tv = r[{ju.a_reg}]")
            ret = self.at(ju.next_rip)
            self.emit_push(ret)
            self.emit("if sh is not None:")
            self.emit(f"    sh.append({ret})")
            self.emit("cpu._bk_calls += 1")
            if indirect:
                self.emit_flush_and("return tv")
            else:
                self.emit_flush_and(f"return {self.imm(ju)}")
        elif op is Op.RET:
            self.emit_pop("tv")
            self.emit("if sh is not None:")
            self.emit("    ex = sh.pop() if sh else 0")
            self.emit("    if ex != tv:")
            self.emit("        raise SSV(ex, tv)")
            self.emit("cpu._bk_rets += 1")
            self.emit_flush_and("return tv")
        elif op is Op.CALLRT:
            self.emit("pr = cpu.process")
            self.emit(f"fn = pr.service({ju.sym!r})")
            self.emit(f"cpu.rip = {self.at(ju.rip)}")
            self.emit("r[0] = fn(pr, cpu) & M")
            self.emit_flush_and(f"return {self.at(ju.next_rip)}")
        else:  # slice cut (limit / missing successor): plain fall-through
            self.emit_semantics(len(self.jus) - 1, ju)
            self.emit_flush_and(f"return {self.at(ju.next_rip)}")

    # -- assembly ----------------------------------------------------------

    def generate(self) -> str:
        jus = self.jus
        last = len(jus) - 1
        for position, ju in enumerate(jus):
            self.account(position, ju)
            if position == last:
                # Nothing can fault past here: run any still-pending probes.
                self.flush_probes()
                if self.monotone and self.has_probe:
                    # Every probe of this block has now executed at least
                    # once; its lines are resident forever (nothing ever
                    # evicts), so later executions skip the probes.
                    self.emit(f"if not f: PD[{self.offset}] = 1")
                self.emit_terminator(ju)
            else:
                self.emit_semantics(position, ju)
                self.retire(ju)

        misses = self.page_misses()
        head = [
            self.signature(f"b_{self.offset:x}"),
            f"    n = C[0] + {self.total}",
            f"    if n > C[5] or {misses}:",
            f"        return {~self.offset}",
        ]
        if self.has_probe:
            head.append("    m = 0")
            if self.monotone:
                head.append(f"    f = {self.offset} in PD")
        if jus[last].op in (Op.CALL, Op.RET):
            head.append("    sh = cpu._bk_shadow")
        tail: List[str] = []
        if self.needs_try:
            head.append("    try:")
            tail.append("    except BaseException:")
            tail.append(f"        I, x_, k_, h_, o_, _, _ = F_b_{self.offset:x}[TB()]")
            tail.append("        C[0] += x_")
            if self.has_probe:
                tail.append(f"        C[1] += k_ + m * {self.penalty}")
                tail.append("        C[3] += h_ - m")
                tail.append("        C[4] += m")
            else:
                tail.append("        C[1] += k_")
                tail.append("        C[3] += h_")
            if self.has_mem_any:
                tail.append("        C[2] += o_")
            tail.append("        cpu.rip = T + I")
            tail.append("        raise")
        return self.assemble(head, tail)


# ---------------------------------------------------------------------------
# Tier 3: loop-trace code generation
# ---------------------------------------------------------------------------


def _links(ju: _JU, nh: int) -> bool:
    """Whether a slice ending in ``ju`` continues to ``nh`` through a
    direct ``jmp`` or a ``jcc`` — the only joins a loop trace compiles."""
    if ju.op is Op.JMP:
        return ju.target == nh
    return ju.op in _JCC_COND and nh in (ju.target, ju.next_rip)


class _TraceCompiler(_SliceCompiler):
    """Generates the source of one tier-3 loop trace function.

    A loop trace is a recorded cycle of tier-2 slices, each ending in a
    direct branch to the next and the last back to the head, wrapped in a
    ``while`` loop.  Unconditional jumps between segments disappear;
    conditional branches become guards whose off-trace side *flushes the
    exact executed prefix* and returns the off-trace address (a side exit
    is a normal block-function return with exact counters, not a deopt).
    Registers, the instruction cursor, the i-cache miss count, and the
    iteration count live in Python locals across iterations, and
    per-iteration static charges are applied as ``it * constant`` only at
    exits, deopts, and faults.

    Memory goes through the block compiler's frames.  A base register
    the recorded path never writes (:func:`_written` over every segment,
    known before codegen) gets a *hoisted* frame: its value ``h<b>``, its
    ``RMG``/``WMG`` lookups and one index per word it accesses
    (``i<b>_<k>`` for word ``k``, or ``j<b>_<k>`` for a store: the word's
    view index when the bound test holds, else None) are emitted once
    into the prolog, so an access in the loop is one view access behind
    a None test, with the accessor at the exact address as its other
    branch.  A view missing at the prolog (a page the loop materializes)
    keeps taking the accessor for the whole call.  Every other base,
    RSP included, gets an ordinary frame in the loop body, looked up
    once per iteration.

    Fault attribution is the block compiler's line-keyed table, which is
    what a trace needs: one guest address can occur in more than one
    segment (an inner loop's block recorded twice, or slices that
    overlap), and each occurrence has its own executed prefix.  The
    prefix is per-iteration; the handler adds the ``it``-scaled
    full-iteration constants on top.  Accounting is the block compiler's
    static folding throughout.
    """

    # Per-iteration static constants are unknown until the whole body is
    # emitted; flush sites reference them through these tokens,
    # substituted once at the end of :meth:`generate`.
    _T_K = "_KIT_"   # cycle units
    _T_G = "_GIT_"   # i-cache hit charges (guaranteed + probed)
    _T_O = "_OIT_"   # memory ops
    _T_I = "_ILN_"   # instructions
    _T_B = "_BIT_"   # branches retired at segment ends
    _T_T = "_TIT_"   # taken branches at segment ends
    #: Register write-back site: expands to one semicolon-joined line
    #: restoring every cached register into ``r`` (line counts are stable,
    #: so the baked fault table stays valid).
    _T_W = "_WB_"

    #: Register accesses in emitted statements (``r[<index>]``); each one
    #: rewrites to a trace-local ``g<index>``.
    _REG_REF = re.compile(r"\br\[(\d+)\]")

    def __init__(self, segments: List[Tuple[int, Lowering]], costs, monotone: bool,
                 base: int = 0, symbolic: Optional[Dict[int, Tuple[bool, bool]]] = None):
        super().__init__(
            segments[0][0], [lowering for _, lowering in segments], costs, monotone,
            base, symbolic,
        )
        self.segments = segments
        self.indent += "    "
        #: Registers the recorded path writes; a base outside this set
        #: gets a hoisted frame.
        self.written = {
            reg for _, lowering in segments for ju in lowering.jus for reg in _written(ju)
        }
        #: The hoisted frames' prolog statements, keyed by the local each
        #: assigns (insertion-ordered: a value before its lookups, a
        #: lookup before its word indices).
        self.prolog: Dict[str, str] = {}
        #: Registers referenced anywhere in the body (insertion-ordered);
        #: each lives in a local ``g<index>`` for the whole trace.
        self.cached: Dict[int, None] = {}

    # -- overrides ---------------------------------------------------------

    def emit(self, line: str) -> None:
        if "r[" in line:
            line = self._REG_REF.sub(self._cache_reg, line)
        super().emit(line)

    def _cache_reg(self, match) -> str:
        index = int(match.group(1))
        self.cached[index] = None
        return f"g{index}"

    def open_frame(self, base: int) -> _Frame:
        """A written base's frame opens in the body; any other base's
        frame is hoisted: its value is set once, in the prolog."""
        if base in self.written or base in self.frames:
            return super().open_frame(base)
        frame = self.frames[base] = _Frame(base)
        self.cached[base] = None
        self.prolog[f"h{base}"] = f"h{base} = g{base}"
        return frame

    def frame_word(self, frame: _Frame, offset: int, write: bool) -> Tuple[str, str]:
        """A hoisted frame's view lookup and the word's bound-tested
        index go to the prolog, once each; the body tests the index for
        None."""
        if frame.reg in self.written:
            return super().frame_word(frame, offset, write)
        view, index, lookup = frame.view(write)
        if lookup is not None:
            self.prolog[view] = lookup
        k = offset >> 3
        word = f"{index}_{k}" if k >= 0 else f"{index}_n{-k}"
        if word not in self.prolog:
            test, element = _word(index, k)
            self.prolog[word] = f"{word} = {element} if {test} else None"
        return f"{word} is not None", f"{view}[{word}]"

    # -- trace-specific emission -------------------------------------------

    def _charge(self, prefix) -> List[str]:
        """Statements that write the cached registers back and charge
        ``it`` full iterations plus an executed prefix of the current one:
        its (instructions, cycle units, i-cache hit charges, memory ops,
        branches, taken branches), as integers or generated-code names."""
        x, k, h, o, b, t = (f" + {value}" if value else "" for value in prefix)
        out = [self._T_W, f"C[0] = n{x}"]
        if self.has_probe:
            out.append(f"C[1] += it * {self._T_K}{k} + m * {self.penalty}")
            out.append(f"C[3] += it * {self._T_G}{h} - m")
            out.append("C[4] += m")
        else:
            out.append(f"C[1] += it * {self._T_K}{k}")
            out.append(f"C[3] += it * {self._T_G}{h}")
        if self.has_mem_any:
            out.append(f"C[2] += it * {self._T_O}{o}")
        out.append(f"cpu._bk_branches += it * {self._T_B}{b}")
        out.append(f"cpu._bk_taken += it * {self._T_T}{t}")
        return out

    def _side_exit(self, target: str) -> None:
        """Flush the exact executed prefix and leave the trace through a
        normal (non-deopt) return of the off-trace address."""
        for stmt in self._charge(self.prefix()):
            self.emit("    " + stmt)
        self.emit("    JS['trace_side_exits'] += 1")
        self.emit(f"    return {target}")

    def _emit_branch(self, ju: _JU, nh: int) -> None:
        """Lower a segment's closing branch to the next segment head
        ``nh``: a ``jmp`` disappears, a ``jcc`` becomes a guard."""
        self.stat_b += 1
        if ju.op is Op.JMP:
            self.stat_t += 1
            return
        cond = _JCC_COND[ju.op]
        value = "w_" if self.fused_cmp else "cpu._cmp"
        if nh == ju.target:
            # On-trace direction is taken; the guard exits through the
            # fall-through on the inverted condition (the exit prefix
            # therefore excludes this branch's taken count).
            self.emit(f"if {value} {_COND_INVERT[cond]}:")
            self._side_exit(self.at(ju.next_rip))
            self.stat_t += 1
        else:
            self.emit(f"if {value} {cond}:")
            self.stat_t += 1
            self._side_exit(self.imm(ju))
            self.stat_t -= 1

    # -- assembly ----------------------------------------------------------

    def generate(self) -> str:
        H = self.offset
        segments = self.segments
        for index, ((_, lowering), plan) in enumerate(zip(segments, self.plans)):
            self.load(plan, lowering)
            last = len(self.jus) - 1
            for position, ju in enumerate(self.jus):
                self.account(position, ju)
                if position == last:
                    self.flush_probes()
                    self._emit_branch(ju, segments[(index + 1) % len(segments)][0])
                else:
                    self.emit_semantics(position, ju)
                    self.retire(ju)
        self.emit("it += 1")
        self.emit(f"n = n + {self._T_I}")
        if self.monotone and self.has_probe:
            # All probes of the trace have now run once; their lines are
            # resident forever (nothing ever evicts).
            self.emit("if not f:")
            self.emit(f"    PD[{~H}] = 1")
            self.emit("    f = 1")

        misses = self.page_misses()
        head = [
            self.signature(f"t_{H:x}"),
            f"    if {misses}:",
            f"        return {~H}",
            "    n = C[0]",
        ]
        if self.has_probe:
            head.append("    m = 0")
            if self.monotone:
                head.append(f"    f = {~H} in PD")
        head.append("    it = 0")
        if self.cached:
            head.append(
                "    " + "; ".join(f"g{i} = r[{i}]" for i in self.cached)
            )
        head.extend("    " + stmt for stmt in self.prolog.values())
        w = "    "
        if self.needs_try:
            head.append("    try:")
            w = "        "
        head.append(w + "while 1:")
        head.append(w + f"    if n + {self._T_I} > C[5]:")
        head.extend(w + "        " + stmt for stmt in self._charge((0,) * 6))
        head.append(w + f"        return {~H}")

        tail: List[str] = []
        if self.needs_try:
            tail.append("    except BaseException:")
            tail.append(f"        I, x_, k_, h_, o_, b_, t_ = F_t_{H:x}[TB()]")
            tail.extend(
                "        " + stmt
                for stmt in self._charge(("x_", "k_", "h_", "o_", "b_", "t_"))
            )
            tail.append("        cpu.rip = T + I")
            tail.append("        raise")

        writeback = "; ".join(f"r[{i}] = g{i}" for i in self.cached) or "pass"
        source = self.assemble(head, tail)
        for token, value in (
            (self._T_W, writeback),
            (self._T_K, self.stat_k),
            (self._T_G, self.stat_g + self.stat_p),
            (self._T_O, self.stat_o),
            (self._T_I, self.total),
            (self._T_B, self.stat_b),
            (self._T_T, self.stat_t),
        ):
            source = source.replace(token, str(value))
        return source


# ---------------------------------------------------------------------------
# Compiled units, the compiled-code cache, and programs
# ---------------------------------------------------------------------------


class _Unit(NamedTuple):
    """One compiled block or loop trace, shareable across every process
    of one binary, whatever its layout.

    ``segments`` lists the text offsets of the constituent slice heads in
    order (just the head, for a block); the CLI renders trace membership
    from them.  ``pages`` lists the text offsets of the pages the unit's
    bytes cover, in path order: its prolog tests them, and the driver
    fetch-checks the ones a deopt found unchecked.  ``length`` counts its
    instructions (per iteration, for a trace).  ``faults`` is the
    line-keyed fault table (see :class:`_SliceCompiler`), or None when
    nothing in the unit can fault.  ``back_target`` is the text offset of
    a block's backward direct-branch target: a loop-header candidate the
    tier-3 promoter arms for recording."""

    code: object
    name: str
    segments: List[int]
    pages: List[int]
    length: int
    faults: Optional[dict]
    back_target: Optional[int] = None


class _BinaryCode(NamedTuple):
    """What the compiled-code cache holds for one binary under one cost
    model: the i-cache fit verdict (:func:`_text_fits_icache`), which
    operands the loader resolves from a symbol (text offset -> ``(a,
    b)``), ``units``: text offset -> :class:`_Unit`, or None
    (negative-cached: interpreted only), and ``("t", offset)`` -> loop
    trace, and ``lengths``: text offset -> instruction count of the
    slice :func:`~repro.machine.blocks.slice_block` recovers from there,
    filled on first use (:meth:`JitProgram.slice_length`)."""

    monotone: bool
    symbolic: Dict[int, Tuple[bool, bool]]
    units: Dict[object, Optional[_Unit]]
    lengths: Dict[int, int]


def _symbolic_operands(binary) -> Dict[int, Tuple[bool, bool]]:
    """Text offset -> whether operand ``a``/``b`` of the instruction there
    is one the loader resolves from a symbol: an immediate (except
    CALLRT's service name) or a memory displacement.  Text and data
    symbols both move with the text slide (data sits one fixed gap after
    text), so these are exactly the operands a relocated unit rewrites."""
    symbolic = {}
    for offset, instr in binary.text:
        # One pass per binary over every instruction: exact type tests
        # (Imm and Mem have no subclasses) keep it cheap.
        a, b = instr.a, instr.b
        kind_a, kind_b = type(a), type(b)
        a_sym = (
            kind_a is Mem or (kind_a is Imm and instr.op is not Op.CALLRT)
        ) and a.symbol is not None
        b_sym = (kind_b is Imm or kind_b is Mem) and b.symbol is not None
        if a_sym or b_sym:
            symbolic[offset] = (a_sym, b_sym)
    return symbolic


#: Binaries whose compiled code :data:`_CODE_CACHE` keeps.  Every hit of
#: a full ``all --backend jit`` run lies within 17 binaries of the
#: entry's previous use, and a 10 s r2cbench run of any workload but
#: ``spec-sweep`` links at most about 27 binaries, while a seed sweep or
#: a re-randomizing fleet makes a new binary per cell or generation and
#: never returns to an old one.
_CODE_CACHE_CAPACITY = 32

#: (fingerprint, digest, costs signature, text-base residue, data gap) ->
#: :class:`_BinaryCode`, least recently linked first.  The residue is
#: the text base modulo the i-cache period and the page size: set
#: indices, guaranteed-hit plans, the fit verdict and page splits of
#: absolute operands repeat with it, and ASLR slides are page multiples,
#: so every load of a binary shares one entry while it is resident.
#: Linking a binary past capacity evicts the least recently linked one
#: (``JIT_STATS["code_cache_evictions"]``); its running processes keep
#: the entry's dicts, and its next process starts a fresh entry.
_CODE_CACHE: OrderedDict[tuple, _BinaryCode] = OrderedDict()


def clear_jit_cache() -> None:
    """Drop all cached compiled units and fit verdicts (test isolation
    helper)."""
    _CODE_CACHE.clear()


#: The namespace names whose values belong to one process (see
#: :class:`_Bindings`), each None while no drive runs.
_UNBOUND = dict.fromkeys(("RW", "WW", "RD", "WR", "RMG", "WMG", "OA", "FD", "PD"))


class _Bindings:
    """One process's own part of a shared :class:`JitProgram`: the
    namespace ``names`` its drives bind — memory accessors, the
    aligned-word dispatch maps (page base -> 64-bit view) of the inlined
    memory fast path (see :meth:`_SliceCompiler.emit_load`), the output
    append, ``FD`` (its :attr:`Memory._fetched
    <repro.machine.memory.Memory>` set) and ``PD`` (its monotone "block
    fully probed" marks) — the i-cache those marks describe, and its
    promotion ``entries``: head -> (entries so far, the process's retired
    instructions at the last one).  A drive reads that clock from the
    result it is given, so a caller that hands each drive a fresh
    :class:`~repro.machine.state.ExecutionResult` reads a negative or
    small distance, inside the window, and such a head compiles on its
    second entry."""

    __slots__ = ("names", "icache", "entries")

    def __init__(self, process):
        memory = process.memory
        self.names = {
            "RW": memory.read_word,
            "WW": memory.write_word,
            "RD": memory.read,
            "WR": memory.write,
            "RMG": memory._rmv.get,
            "WMG": memory._wmv.get,
            "OA": process.output.append,
            "FD": memory._fetched,
            "PD": {},
        }
        self.icache = None
        self.entries: Dict[int, Tuple[int, int]] = {}


class JitProgram:
    """Prepared form for the ``jit`` backend: one load under one cost
    model, shared by the load and every ``Process.clone`` of it.

    Preparing builds a cheap handle over the load's instruction index —
    no decode, no bind, no codegen — so cold or short-lived processes pay
    nothing for selecting this backend.  :meth:`link` runs on the first
    compiled drive of any process of the load.  It builds the execution
    namespace compiled units are ``exec``-ed against (runtime helpers,
    error types, i-cache probers, and the text base ``T`` that relocated
    units bind as they link), the address -> linked-function dispatch
    ``table``, the ``no_compile`` negative cache and the tier-3 state.
    All of it serves every process of the load: a unit is ``exec``-ed
    once per load, and a fork-server probe or a lockstep replica enters a
    head a sibling linked in one dict hit.  What differs per process is a
    :class:`_Bindings` record the process keeps (``Process.jit_bindings``)
    with its promotion counts; each drive writes its bindings into the
    namespace on entry and puts the previous ones back on exit, so a
    drive nested in a runtime service runs on its own process's state and
    ``bound`` names the process whose drive is running.  Promotion counts
    stay per process: counted per load, a lockstep group's replicas
    promote each other's cold heads, and a traced ``mvee-lockstep`` pass
    compiled 1,822 blocks instead of 766 (under second-entry promotion).

    ``units`` is the binary's entry in the compiled-code cache, keyed by
    text offset: every load of one binary — any layout — links the same
    code objects, so each hot unit's source is generated and compiled
    once per binary while the entry is resident, and a head whose unit is
    already there links on its first entry.  ``lengths`` is the same
    entry's slice lengths, so no process of the binary walks a slice
    another one measured.  A process without a binary fingerprint shares
    nothing with other loads and links at base 0 (its offsets are its
    addresses).

    Nothing here refers to a process once its drive is over (the load
    caches its program, and the drive's state carries the process), and
    linked functions are not left in the namespace, so a finished process
    and its memory are freed as soon as the last reference goes, not at
    the next full garbage collection."""

    __slots__ = (
        "costs", "instructions", "cache_key", "base", "monotone", "symbolic",
        "units", "lengths", "table", "no_compile", "namespace", "bound",
        "pending", "armed", "loop_targets", "trace_tries", "traces",
    )

    def __init__(self, process, costs):
        self.costs = costs
        self.instructions = process.instructions
        #: None until :meth:`link`.
        self.table: Optional[Dict[int, object]] = None
        #: The :class:`_Bindings` written into the namespace (None
        #: between drives).
        self.bound: Optional[_Bindings] = None
        binary = process.binary
        fingerprint = getattr(binary, "module_fingerprint", None)
        digest = getattr(binary, "config_digest", None)
        if fingerprint and digest:
            layout = process.layout
            sets = costs.icache_size // (costs.icache_line * costs.icache_ways)
            residue = layout.text_base % lcm(sets * costs.icache_line, PAGE_SIZE)
            self.base = layout.text_base
            self.cache_key = (
                fingerprint,
                digest,
                costs.signature,
                residue,
                layout.data_base - layout.text_base,
            )
        else:
            self.base = 0
            self.cache_key = None

    def link(self, process) -> None:
        """Build the load's execution state on the first compiled drive
        of any of its processes.  The binary's cache entry holds the
        text-fits-the-i-cache verdict (:func:`_text_fits_icache`), so its
        walk runs once per binary and cost model, and ``prepare`` stays
        cheap."""
        key = self.cache_key
        code = None if key is None else _CODE_CACHE.get(key)
        if code is not None:
            _CODE_CACHE.move_to_end(key)
        else:
            code = _BinaryCode(
                _text_fits_icache(self.instructions, self.costs),
                {} if key is None else _symbolic_operands(process.binary),
                {},
                {},
            )
            if key is not None:
                _CODE_CACHE[key] = code
                if len(_CODE_CACHE) > _CODE_CACHE_CAPACITY:
                    _CODE_CACHE.popitem(last=False)
                    JIT_STATS["code_cache_evictions"] += 1
        self.monotone = monotone = code.monotone
        self.symbolic = code.symbolic
        self.units = code.units
        self.lengths = code.lengths
        self.table = {}
        self.no_compile: set = set()
        # Tier-3 state.  ``pending`` is the list armed loop-head wrappers
        # append to when their entry counter crosses the trace threshold
        # (the driver polls its truthiness once per block transition).  A
        # head whose ``trace_tries`` reach _TRACE_MAX_TRIES is given up.
        self.pending: List[int] = []
        self.armed: Dict[int, object] = {}
        self.loop_targets: set = set()
        self.trace_tries: Dict[int, int] = {}
        #: Trace head -> installed loop trace.
        self.traces: Dict[int, _Unit] = {}
        namespace = {
            "T": self.base,
            "L": self.base // self.costs.icache_line,
            "M": MASK64,
            "ts": to_signed,
            "td": truncated_div,
            "ME": MachineError,
            "SSV": ShadowStackViolation,
            "SM": StackMisaligned,
            "BTT": BoobyTrapTriggered,
            "JS": JIT_STATS,
            "TB": _fault_lineno,
        }
        namespace["PRB1"], namespace["PRB"] = _make_probers(
            self.costs.icache_ways, monotone
        )
        # Every per-process name exists from the start, so binding a
        # process replaces values and never adds a key.
        namespace.update(_UNBOUND)
        self.namespace = namespace

    def slice_length(self, offset: int) -> int:
        """Instruction count of the slice at text ``offset``: what
        :func:`~repro.machine.blocks.slice_block` recovers there, walked
        on the binary's first use of the offset (0 at an address with no
        instruction)."""
        length = self.lengths.get(offset)
        if length is None:
            length = self.lengths[offset] = len(
                slice_block(self.instructions, self.base + offset, _SLICE_LIMIT)
            )
        return length

    def trace_info(self) -> Dict[int, dict]:
        """Installed loop traces: head -> {segments, length} (the
        ``disasm-blocks`` CLI renders this)."""
        if self.table is None:
            return {}
        return {
            head: {
                "segments": [self.base + offset for offset in unit.segments],
                "length": unit.length,
            }
            for head, unit in self.traces.items()
        }


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------


class JitBackend(ExecutionBackend):
    """Tier-2 lazily block-compiling backend (``"jit"``).

    ``prepare`` returns a cheap :class:`JitProgram`; lowering happens per
    dynamic block head once the process re-enters it within
    :data:`_REUSE_WINDOW` instructions or enters it for the
    :data:`_PROMOTE_COUNT`-th time (tier 1 slice recovery + fusion, then
    tier 2 codegen, with compiled code objects shared through the
    binary-keyed cache, whose units link on a head's first entry).
    ``execute``/``step`` trampoline between compiled block functions by
    address.  Its one interpreter is a private ``fast`` backend: every
    span compiled code cannot reproduce bit-for-bit runs on the load's
    micro-ops (see the module docstring)."""

    name = "jit"

    def __init__(self):
        self._fast = FastBackend()

    # -- program management -------------------------------------------------

    def prepare(self, state):
        """The :class:`JitProgram` for the state's load under its cost
        model, cached in ``Process.jit_programs``, which every clone of
        the load shares: a fork-server probe or a lockstep replica (a
        ``Process.clone()``) runs on the program its load linked, and
        only a reload gets a program of its own, which links the
        binary's cached units.  Interpreter spans run on the load's
        shared micro-ops."""
        cache = state.process.jit_programs
        key = id(state.costs)
        entry = cache.get(key)
        if entry is not None and entry[0] is state.costs:
            return entry[1]
        program = JitProgram(state.process, state.costs)
        JIT_STATS["programs"] += 1
        cache[key] = (state.costs, program)
        return program

    # -- lowering -----------------------------------------------------------

    def _install(self, program, head: int, unit: _Unit):
        """Link ``unit`` into the load's ``program`` (one ``exec`` per
        unit per load) and dispatch ``head`` to it, for every process of
        the load.  The function leaves the namespace it keeps as its
        globals, so the two form no reference cycle.  Linking is the same
        for every process: the prolog tests fetch permission against the
        driven process's checked pages on each entry."""
        namespace = program.namespace
        if unit.faults is not None:
            namespace[f"F_{unit.name}"] = unit.faults
        exec(unit.code, namespace)
        fn = program.table[head] = namespace.pop(unit.name)
        return fn

    def _promote(self, program, addr: int):
        """Lower the slice at ``addr`` to a linked block function, or
        negative-cache it (returns None: interpret this head forever)."""
        units = program.units
        offset = addr - program.base
        if offset in units:
            unit = units[offset]
            if unit is not None:
                JIT_STATS["code_cache_hits"] += 1
        else:
            unit = units[offset] = self._compile_slice(program, addr)
        if unit is None:
            program.no_compile.add(addr)
            return None
        self._install(program, addr, unit)
        # Tier 3: install the loop trace another process of this binary
        # compiled for this head (lockstep replicas and re-randomized
        # reloads record and compile each trace exactly once), or arm
        # loop-header candidates — this block's backward branch target,
        # and this head itself if a back edge to it was seen before it was
        # promoted.
        trace = units.get(("t", offset))
        if trace is not None:
            JIT_STATS["code_cache_hits"] += 1
            program.traces[addr] = trace
            return self._install(program, addr, trace)
        if unit.back_target is not None:
            self._arm(program, program.base + unit.back_target)
        if addr in program.loop_targets:
            self._arm(program, addr)
        return program.table[addr]

    # -- tier 3: arming, recording, formation -------------------------------

    def _arm(self, program, head: int) -> None:
        """Wrap the compiled block at ``head`` with an entry counter that
        requests trace recording once the head proves hot.  The wrapper
        is the only tier-3 cost a non-hot block ever pays, and it is
        removed again as soon as the head is traced or given up."""
        if (
            head in program.armed or head in program.traces
            or program.trace_tries.get(head, 0) >= _TRACE_MAX_TRIES
        ):
            return
        fn = program.table.get(head)
        if fn is None:
            program.loop_targets.add(head)
            return
        counter = [0]
        pending = program.pending

        def counting(cpu, r, S, C, _fn=fn, _c=counter, _h=head, _p=pending):
            value = _fn(cpu, r, S, C)
            _c[0] += 1
            if _c[0] == _TRACE_THRESHOLD:
                _p.append(_h)
            return value

        program.armed[head] = fn
        program.table[head] = counting

    def _disarm(self, program, head: int) -> None:
        fn = program.armed.pop(head, None)
        if fn is not None:
            program.table[head] = fn

    def _record(self, program, cpu, r, S, C, rip: int, value):
        """Drive execution while recording a loop path through the most
        recently requested head.  Entered from the driver right after the
        block at ``rip`` returned ``value``; returns the last undispatched
        block-function result (the driver resumes from it).

        Recording starts when control reaches the head.  A path that
        returns to the head through segments joined by direct ``jmp`` or
        ``jcc`` compiles to a loop trace.  Anything else abandons the
        recording and re-arms the head, until its tries run out: a
        transition of another kind (call, return, indirect jump, runtime
        call, trap, slice cut), EXIT, a deopt escape, a head with no
        compiled function, or the segment limit."""
        pending = program.pending
        head = pending[-1]
        table_get = program.table.get
        path: Optional[List[Tuple[int, Lowering]]] = None
        while True:
            if path is None and rip == head:
                path = []
            if path is not None:
                lowering = lower_slice(program.instructions, rip)
                path.append((rip, lowering))
                if value is None or value < 0 or not _links(lowering.jus[-1], value):
                    break
                if value == head:
                    pending.remove(head)
                    self._form_trace(program, head, path)
                    return value
                if len(path) >= _TRACE_MAX_SEGMENTS:
                    break
            elif value is None or value < 0:
                return value
            fn = table_get(value)
            if fn is None:
                if path is None:
                    return value
                break
            cpu.rip = rip = value
            value = fn(cpu, r, S, C)
        pending.remove(head)
        program.trace_tries[head] = program.trace_tries.get(head, 0) + 1
        self._disarm(program, head)
        self._arm(program, head)
        return value

    def _form_trace(self, program, head: int, path) -> None:
        """Compile a recorded loop path (or take the binary's cached trace
        for ``head``) and install it."""
        self._disarm(program, head)
        base = program.base
        key = ("t", head - base)
        unit = program.units.get(key)
        if unit is not None:
            JIT_STATS["code_cache_hits"] += 1
        else:
            compiler = _TraceCompiler(
                path, program.costs, program.monotone, base, program.symbolic
            )
            unit = program.units[key] = _Unit(
                compile(compiler.generate(), f"<jit-trace:{compiler.offset:#x}>", "exec"),
                f"t_{compiler.offset:x}",
                [addr - base for addr, _ in path], compiler.pages, compiler.total,
                compiler.faults,
            )
            JIT_STATS["traces_compiled"] += 1
            JIT_STATS["loop_traces"] += 1
        program.traces[head] = unit
        self._install(program, head, unit)

    def _compile_slice(self, program, addr: int) -> Optional[_Unit]:
        lowering = lower_slice(program.instructions, addr)
        if not lowering.compiles:
            return None
        base = program.base
        compiler = _SliceCompiler(
            addr, [lowering], program.costs, program.monotone, base, program.symbolic
        )
        offset = compiler.offset
        code = compile(compiler.generate(), f"<jit:{offset:#x}>", "exec")
        JIT_STATS["blocks_compiled"] += 1
        JIT_STATS["superinstructions_fused"] += len(lowering.fused)
        back = backward_branch_target(lowering.items)
        return _Unit(
            code, f"b_{offset:x}", [offset], compiler.pages, compiler.total,
            compiler.faults, None if back is None else back - base,
        )

    # -- execution ----------------------------------------------------------

    def _drive(self, program, cpu, res, max_steps: Optional[int]):
        if cpu.trace_fn is not None or cpu.attribute_tags:
            # Observed drives need every instruction: trace hooks ride the
            # interpreter's hoisted-hook semantics (profilers depend on
            # it), and tag attribution is per-instruction bookkeeping
            # compiled blocks fold away.  The whole drive runs on the fast
            # interpreter.
            self._fast._drive(
                get_bound_program(cpu.process, program.costs), cpu, res, max_steps
            )
            return

        process = cpu.process
        memory = process.memory
        icache = cpu.icache
        if program.table is None:
            program.link(process)
        own = process.jit_bindings.get(program)
        if own is None:
            own = process.jit_bindings[program] = _Bindings(process)
        if own.icache is not icache:
            # "Block fully probed" marks describe one i-cache's contents;
            # if the process is ever re-driven against a fresh machine
            # state (new, cold i-cache), the marks must not carry over.
            own.names["PD"].clear()
            own.icache = icache
        table_get = program.table.get
        entries = own.entries
        no_compile = program.no_compile
        units = program.units
        base = program.base
        pending = program.pending

        cpu._bk_shadow = cpu.shadow_stack if cpu.shadow_stack_enabled else None

        max_total = None if max_steps is None else res.instructions + max_steps
        # Drive-cumulative accounting, flushed into ``res`` at interp
        # boundaries and once at the end: C[0] instructions, C[1] cycle
        # units, C[2] memory ops, C[3]/C[4] i-cache hits/misses, and C[5]
        # the folded instruction allowance block prologs compare against.
        C = [0, 0, 0, 0, 0, 0]
        self._allowance(cpu, res, C, max_total)
        r = cpu.regs
        S = icache._sets
        interp = self._interp
        promote = self._promote

        # Bind this process into the load's namespace for the drive, and
        # put back whatever was bound before (a drive this one is nested
        # in, through a runtime service, or nothing) when it ends, so the
        # namespace keeps no finished process alive.  Trace requests
        # belong to one drive too.
        namespace = program.namespace
        outer = program.bound
        if outer is not own:
            namespace.update(own.names)
            program.bound = own
        outer_pending = pending[:]
        pending.clear()
        try:
            while True:
                rip = cpu.rip
                fn = table_get(rip)
                if fn is None:
                    # An entry counts, and links or compiles, only while
                    # the drive can still retire an instruction: a head
                    # reached as compiled code uses up the allowance is
                    # entered by the next drive, not this one.
                    if rip not in no_compile and C[0] < C[5]:
                        # The clock is the process's retired instructions,
                        # so promotion repeats exactly run to run.
                        clock = res.instructions + C[0]
                        seen = entries.get(rip)
                        if seen is None:
                            entries[rip] = (1, clock)
                            # A head whose unit the binary's cache entry
                            # already holds links on its first entry: its
                            # compile is paid.
                            if rip - base in units:
                                fn = promote(program, rip)
                        else:
                            count = seen[0] + 1
                            entries[rip] = (count, clock)
                            if (
                                clock - seen[1] <= _REUSE_WINDOW
                                or count >= _PROMOTE_COUNT
                                or rip - base in units
                            ):
                                fn = promote(program, rip)
                    if fn is None:
                        if not interp(program, cpu, res, C, max_total):
                            break
                        continue
                value = fn(cpu, r, S, C)
                if pending:
                    # An armed loop head crossed the trace threshold:
                    # drive through the recorder until the path resolves.
                    value = self._record(program, cpu, r, S, C, rip, value)
                if value is None:
                    break  # EXIT: rip and exit code already set
                if value >= 0:
                    cpu.rip = value
                    continue
                # Deopt escape: the prolog rejected the block or trace (a
                # text page not fetch-checked since the last permission
                # change, or the folded allowance would be exceeded) and
                # returned its head's ~text offset.
                addr = base + ~value
                cpu.rip = addr
                if self._revalidate(program, memory, addr):
                    continue
                JIT_STATS["deopts"] += 1
                if not interp(program, cpu, res, C, max_total):
                    break
        finally:
            self._flush(cpu, res, C, icache, process)
            pending[:] = outer_pending
            if outer is not own:
                namespace.update(_UNBOUND if outer is None else outer.names)
                program.bound = outer

    # -- driver helpers -----------------------------------------------------

    def _allowance(self, cpu, res, C, max_total: Optional[int]) -> None:
        """Recompute C[5]: how many more instructions compiled code may
        retire before budget or step-slice limits need interpreter-exact
        handling."""
        limit = cpu.instruction_budget
        if max_total is not None and max_total < limit:
            limit = max_total
        C[5] = limit - res.instructions

    def _flush(self, cpu, res, C, icache, process) -> None:
        """Fold the drive-local accumulators into the result.  Exact under
        integer cycle units; called before every interpreter segment and
        once when the drive ends (including fault exits)."""
        res.instructions += C[0]
        C[0] = 0
        res.cycle_units += C[1]
        C[1] = 0
        res.cycles = res.cycle_units / CYCLE_UNIT
        res.mem_ops += C[2]
        C[2] = 0
        icache.hits += C[3]
        C[3] = 0
        icache.misses += C[4]
        C[4] = 0
        res.icache_hits = icache.hits
        res.icache_misses = icache.misses
        flush_handler_counters(cpu, res)
        res.output = process.output

    def _interp(self, program, cpu, res, C, max_total: Optional[int]) -> bool:
        """Run one block-granular span on the ``fast`` interpreter, over
        the load's micro-ops, directly into ``res`` (exact: all
        accounting is integer units).  The span is as long as the slice
        at ``rip``, read from the binary's memoized slice lengths
        (:meth:`JitProgram.slice_length`).  Returns False when the drive is
        over (halt or step exhaustion)."""
        self._flush(cpu, res, C, cpu.icache, cpu.process)
        if cpu._halted or (max_total is not None and res.instructions >= max_total):
            return False
        # At least one instruction: at an address with none, the
        # interpreter raises the exact fetch fault or InvalidInstruction.
        span = program.slice_length(cpu.rip - program.base) or 1
        if max_total is not None:
            span = min(span, max_total - res.instructions)
        self._fast._drive(get_bound_program(cpu.process, program.costs), cpu, res, span)
        self._allowance(cpu, res, C, max_total)
        return not cpu._halted and (max_total is None or res.instructions < max_total)

    def _revalidate(self, program, memory, addr: int) -> bool:
        """Fetch-check the text pages of the code compiled at ``addr`` —
        its slice, or every segment of the loop trace installed there —
        that the process has not checked since the last permission
        change, in path order, adding each that passes to
        :attr:`Memory._fetched <repro.machine.memory.Memory>`, where the
        unit's prolog tests them.  A page passes when it is mapped
        executable, and its check notes it resident as an instruction
        fetch from it would.  Returns True when it checked a page and
        every one passed: the unit may run.  Returns False when no page
        needed a check (the deopt was the allowance's) or one fails; the
        caller then falls to the interpreter, which fetches instruction
        by instruction and faults at the exact one with exact
        counters."""
        base = program.base
        unit = program.traces.get(addr) or program.units[addr - base]
        fetched = memory._fetched
        checked = False
        for page in unit.pages:
            page += base
            if page not in fetched:
                try:
                    memory.fetch_check(page)
                except MemoryFault:
                    return False
                fetched.add(page)
                checked = True
        return checked
