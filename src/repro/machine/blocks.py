"""Tier 1 of the progressive-lowering pipeline: basic blocks + fusion.

The machine layer lowers guest code through four tiers:

* **tier 0** — micro-ops (:mod:`repro.machine.uops`), each bound the
  first time the ``fast`` backend fetches its address; the terminal
  form that backend drives directly;
* **tier 1** (this module) — a recovered basic-block CFG over a
  process's instruction index, with a slice's closing compare and
  branch fused into a *superinstruction*;
* **tier 2** (:mod:`repro.machine.jit`) — one ``exec``-compiled Python
  function per block, threaded together by direct jumps;
* **tier 3** (:mod:`repro.machine.jit`) — hot loop heads (backward
  direct-branch targets, :func:`backward_branch_target`) record the
  block path control takes through them; a path that returns to its
  head through direct ``jmp``/``jcc`` joins is glued into one loop
  trace function with guard-protected side exits.

Tier 1's contract: block boundaries are **stable** — derived only from
addresses, sizes, and direct branch targets, all fixed at load time —
and every block is a maximal straight-line run: entered only at its
head, left only at its final instruction.  How far down the pipeline the
code at a head gets is the jit's call, not this module's:
:func:`repro.machine.jit.lower_slice` lowers the slice from the head
through its terminator to tier 2 when every instruction in it lowers;
otherwise the head stays at tier 1 and its slice runs as an interpreter
span on tier 0's micro-ops (the ``fast`` loop), via the jit backend's
deopt path.

Fusion never changes semantics, counters, or fault behaviour — a fused
pair still charges two instructions, two costs (in the reference float
order), and stores ``cpu._cmp`` for later SETcc readers.  What it
removes is re-materialization: the compare result forwards to its
branch in a local instead of round-tripping through machine state.
(Stack traffic needs no fusion: compiled code reaches RSP's words
through one page view per frame, see :mod:`repro.machine.jit`.)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.machine.isa import Imm, Instruction, Op
from repro.machine.uops import TERMINATOR_OPS, _direct_target
from repro.numeric import MASK64

__all__ = [
    "BasicBlock",
    "recover_blocks",
    "slice_block",
    "fuse_slice",
    "backward_branch_target",
    "FUSABLE_COMPARES",
    "FUSABLE_BRANCHES",
]

#: First halves of a fused compare-and-branch superinstruction.
FUSABLE_COMPARES = frozenset({Op.CMP, Op.TEST})

#: Second halves: the conditional branches reading ``cpu._cmp``.
FUSABLE_BRANCHES = frozenset({Op.JE, Op.JNE, Op.JL, Op.JLE, Op.JG, Op.JGE})


class BasicBlock:
    """One recovered straight-line run of instructions, as
    ``(address, instruction)`` pairs."""

    __slots__ = ("bid", "addr", "items")

    def __init__(self, bid: int, items: List[Tuple[int, Instruction]]):
        self.bid = bid
        self.addr = items[0][0]
        self.items = items

    def __len__(self) -> int:
        return len(self.items)

    @property
    def end(self) -> int:
        """Address one past the last instruction."""
        addr, instr = self.items[-1]
        return addr + instr.size

    def successors(self) -> List[Tuple[str, Optional[int]]]:
        """Static successor edges as (kind, address-or-None) pairs.

        ``None`` addresses are computed at run time (indirect jumps,
        returns).  Fall-through past a non-terminator block end (a
        straight-line block split by an incoming branch target) is a
        plain ``fall`` edge.
        """
        last = self.items[-1][1]
        op = last.op
        taken = _direct_target(last)
        if op is Op.JMP:
            return [("jump", taken)]
        if op in FUSABLE_BRANCHES:
            return [("taken", taken), ("fall", self.end)]
        if op is Op.CALL:
            return [("call", taken), ("return-site", self.end)]
        if op is Op.RET:
            return [("ret", None)]
        if op is Op.EXIT:
            return []
        if op is Op.TRAP:
            return [("trap", None)]
        # CALLRT and blocks split by an incoming edge fall through.
        return [("fall", self.end)]


def recover_blocks(instructions: Dict[int, Instruction]) -> List[BasicBlock]:
    """Recover the basic-block CFG of a process's instruction index
    (address -> instruction, in text order).

    Leaders are: the first instruction, every direct branch target that
    holds an instruction, and every instruction following a terminator.
    Non-contiguous address runs (hand-assembled processes with gaps)
    also split, so each instruction of a block ends where the next one
    starts.
    """
    leaders = {next(iter(instructions))} if instructions else set()
    for addr, instr in instructions.items():
        target = _direct_target(instr)
        if target in instructions:
            leaders.add(target)
        if instr.op in TERMINATOR_OPS and addr + instr.size in instructions:
            leaders.add(addr + instr.size)

    blocks: List[BasicBlock] = []
    current: List[Tuple[int, Instruction]] = []

    def close() -> None:
        if current:
            blocks.append(BasicBlock(len(blocks), list(current)))
            current.clear()

    follows: Optional[int] = None  # address after the previous instruction
    for addr, instr in instructions.items():
        if current and (addr in leaders or addr != follows):
            close()
        current.append((addr, instr))
        follows = addr + instr.size
        if instr.op in TERMINATOR_OPS:
            close()
    close()
    return blocks


def slice_block(instructions, addr: int, limit: int = 256) -> List[tuple]:
    """The straight-line run from ``addr`` through its terminator.

    ``instructions`` is a process's decoded instruction index (address ->
    :class:`~repro.machine.isa.Instruction`).  The slice stops at the
    first :data:`TERMINATOR_OPS` member, at an address with no decoded
    instruction (the caller's fault path takes over), or at ``limit``
    instructions (a bound on single lowering units, not a semantic
    boundary — execution simply re-enters the pipeline at the cut).

    Unlike :func:`recover_blocks` this needs no leader analysis: the
    tier-2 promoter lowers the *dynamic* run from wherever control
    actually entered, so a BTRA-displaced landing mid-block gets its own
    slice rather than a misaligned CFG node.
    """
    items = []
    get = instructions.get
    while len(items) < limit:
        instr = get(addr)
        if instr is None:
            break
        items.append((addr, instr))
        if instr.op in TERMINATOR_OPS:
            break
        addr += instr.size
    return items


#: Branches whose backward form signals a loop back edge (direct jumps
#: and the conditional family; calls never close loops).
_BACKWARD_BRANCH_OPS = frozenset(
    {Op.JMP, Op.JE, Op.JNE, Op.JL, Op.JLE, Op.JG, Op.JGE}
)


def backward_branch_target(items: List[tuple]) -> Optional[int]:
    """Loop-header candidate of one slice, or None.

    A slice whose final instruction is a direct branch to an address at
    or before itself is a loop back edge by construction (guest code is
    static; nothing else re-enters earlier text repeatedly).  The tier-3
    trace recorder (:mod:`repro.machine.jit`) arms exactly these targets
    for recording.
    """
    if not items:
        return None
    addr, instr = items[-1]
    if instr.op not in _BACKWARD_BRANCH_OPS:
        return None
    a = instr.a
    if not isinstance(a, Imm) or a.symbol is not None:
        return None
    target = a.value & MASK64
    return target if target <= addr else None


def fuse_slice(items: List[tuple]) -> List[Tuple[str, int, int]]:
    """Superinstruction annotations for an instruction slice, as
    ``(kind, first index, instruction count)`` triples.

    One pattern, which the tier-2 and tier-3 code generators exploit:
    ``cmp+jcc`` / ``test+jcc`` closing the slice — the compare's result
    forwards to the branch in a local (the store to ``cpu._cmp`` still
    happens, since later SETcc micro-ops and snapshots read it).

    Computed from ``(address, instruction)`` pairs, so the tier-2
    promoter fuses lazily sliced blocks without a tier-0 bind.
    """
    count = len(items)
    if (
        count >= 2
        and items[-2][1].op in FUSABLE_COMPARES
        and items[-1][1].op in FUSABLE_BRANCHES
    ):
        return [("cmp+jcc", count - 2, 2)]
    return []

