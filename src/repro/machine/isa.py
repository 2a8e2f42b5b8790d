"""The instruction set targeted by the toolchain.

The ISA is a pragmatic model of the x86-64 subset R2C's code generator
manipulates.  Two properties of real x86 are preserved exactly, because the
BTRA setup sequence of Section 5.1 depends on them:

* ``push`` decrements ``rsp`` by 8 and stores at the new ``rsp``;
* ``call`` decrements ``rsp`` by 8, stores the return address at the new
  ``rsp``, and transfers control.  Because the caller repositions ``rsp``
  *above* the already-pushed return-address slot before the ``call``, the
  ``call`` instruction overwrites that slot in place — all addresses hit
  the stack in step (1) and never change afterwards, closing the race
  window discussed in Section 5.1.

Instructions carry an encoded byte size.  Sizes drive both the address
layout of the text section (so leaked code pointers have realistic values)
and the instruction-cache cost model (so a 12-``push`` BTRA setup really
is hungrier than the 7-instruction AVX2 one).
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple, Union

WORD = 8
VECTOR_WORDS = 4  # a 256-bit ymm register holds four 64-bit words


class Reg(enum.IntEnum):
    """Architectural registers.  GPRs 0..15 mirror x86-64, ymm0..3 follow."""

    RAX = 0
    RBX = 1
    RCX = 2
    RDX = 3
    RSI = 4
    RDI = 5
    RBP = 6
    RSP = 7
    R8 = 8
    R9 = 9
    R10 = 10
    R11 = 11
    R12 = 12
    R13 = 13
    R14 = 14
    R15 = 15
    YMM0 = 16
    YMM1 = 17
    YMM2 = 18
    YMM3 = 19


GPRS = tuple(Reg(i) for i in range(16))
VECTOR_REGS = (Reg.YMM0, Reg.YMM1, Reg.YMM2, Reg.YMM3)

#: Registers the register allocator may hand out to program values.
#: rsp/rbp are reserved for stack management; rax/rdx for returns and
#: scratch; rdi/rsi/rdx/rcx/r8/r9 double as argument registers, matching
#: the System V convention modelled in :mod:`repro.toolchain.callconv`.
ALLOCATABLE_GPRS = (
    Reg.RBX,
    Reg.RCX,
    Reg.RSI,
    Reg.RDI,
    Reg.R8,
    Reg.R9,
    Reg.R10,
    Reg.R11,
    Reg.R12,
    Reg.R13,
    Reg.R14,
    Reg.R15,
)


class Imm:
    """Immediate operand.  ``symbol`` marks a link-time relocation."""

    __slots__ = ("value", "symbol")

    def __init__(self, value: int = 0, symbol: Optional[str] = None):
        self.value = value
        self.symbol = symbol

    def __repr__(self) -> str:
        if self.symbol is not None:
            return f"Imm({self.symbol}{self.value:+#x})" if self.value else f"Imm({self.symbol})"
        return f"Imm({self.value:#x})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Imm)
            and self.value == other.value
            and self.symbol == other.symbol
        )

    def __hash__(self) -> int:
        return hash((self.value, self.symbol))


class Mem:
    """Memory operand: ``[base + index*scale + offset]``.

    ``symbol`` requests link-time materialization of an absolute address
    into ``offset`` (base must then be None) — the model's stand-in for
    RIP-relative addressing of globals and the GOT.
    """

    __slots__ = ("base", "offset", "index", "scale", "symbol")

    def __init__(
        self,
        base: Optional[Reg] = None,
        offset: int = 0,
        index: Optional[Reg] = None,
        scale: int = 1,
        symbol: Optional[str] = None,
    ):
        self.base = base
        self.offset = offset
        self.index = index
        self.scale = scale
        self.symbol = symbol

    def __repr__(self) -> str:
        parts = []
        if self.symbol:
            parts.append(self.symbol)
        if self.base is not None:
            parts.append(self.base.name.lower())
        if self.index is not None:
            parts.append(f"{self.index.name.lower()}*{self.scale}")
        if self.offset or not parts:
            parts.append(f"{self.offset:#x}")
        return f"Mem[{'+'.join(parts)}]"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Mem)
            and self.base == other.base
            and self.offset == other.offset
            and self.index == other.index
            and self.scale == other.scale
            and self.symbol == other.symbol
        )

    def __hash__(self) -> int:
        return hash((self.base, self.offset, self.index, self.scale, self.symbol))


class Label:
    """A pre-link branch target, local to one function."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"Label({self.name})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Label) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)


Operand = Union[Reg, Imm, Mem, Label]


class Op(enum.Enum):
    """Opcodes."""

    MOV = "mov"
    LEA = "lea"
    PUSH = "push"
    POP = "pop"
    ADD = "add"
    SUB = "sub"
    IMUL = "imul"
    IDIV = "idiv"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    NEG = "neg"
    CMP = "cmp"
    TEST = "test"
    SETE = "sete"
    SETNE = "setne"
    SETL = "setl"
    SETLE = "setle"
    SETG = "setg"
    SETGE = "setge"
    JMP = "jmp"
    JE = "je"
    JNE = "jne"
    JL = "jl"
    JLE = "jle"
    JG = "jg"
    JGE = "jge"
    CALL = "call"
    RET = "ret"
    NOP = "nop"
    TRAP = "trap"
    VLOAD = "vload"  # vmovdqu ymm, [mem] (256-bit)
    VSTORE = "vstore"  # vmovdqa [mem], ymm (256-bit)
    VLOAD512 = "vload512"  # vmovdqu64 zmm, [mem] (AVX-512, Section 7.1)
    VSTORE512 = "vstore512"  # vmovdqa64 [mem], zmm
    VZEROUPPER = "vzeroupper"
    CALLRT = "callrt"  # invoke a named runtime service (malloc, free, ...)
    OUT = "out"  # append a register value to the process output stream
    EXIT = "exit"  # terminate the program with a status code

    # Members compare by identity, so they may hash by it: enum's own
    # ``__hash__`` is a Python-level call (hash of the member name) on
    # every Op-keyed dict or set lookup — binds, slice walks and the
    # reference loop make one per instruction.
    __hash__ = object.__hash__


JCC_OPS = (Op.JE, Op.JNE, Op.JL, Op.JLE, Op.JG, Op.JGE)
SETCC_OPS = (Op.SETE, Op.SETNE, Op.SETL, Op.SETLE, Op.SETG, Op.SETGE)

#: Default encoded sizes in bytes, indexed by opcode.  Operand-dependent
#: cases (push imm vs push reg, mov with immediates) are refined in
#: :func:`encoded_size`.
_BASE_SIZES = {
    Op.MOV: 3,
    Op.LEA: 5,
    Op.PUSH: 2,
    Op.POP: 2,
    Op.ADD: 4,
    Op.SUB: 4,
    Op.IMUL: 4,
    Op.IDIV: 4,
    Op.AND: 4,
    Op.OR: 4,
    Op.XOR: 3,
    Op.SHL: 4,
    Op.SHR: 4,
    Op.NEG: 3,
    Op.CMP: 4,
    Op.TEST: 3,
    Op.SETE: 4,
    Op.SETNE: 4,
    Op.SETL: 4,
    Op.SETLE: 4,
    Op.SETG: 4,
    Op.SETGE: 4,
    Op.JMP: 5,
    Op.JE: 6,
    Op.JNE: 6,
    Op.JL: 6,
    Op.JLE: 6,
    Op.JG: 6,
    Op.JGE: 6,
    Op.CALL: 5,
    Op.RET: 1,
    Op.NOP: 1,
    Op.TRAP: 1,
    Op.VLOAD: 8,
    Op.VSTORE: 8,
    Op.VLOAD512: 8,
    Op.VSTORE512: 8,
    Op.VZEROUPPER: 3,
    Op.CALLRT: 5,
    Op.OUT: 3,
    Op.EXIT: 2,
}


def encoded_size(op: Op, a: Optional[Operand], b: Optional[Operand]) -> int:
    """Return a plausible x86-64 encoding size for the instruction."""
    size = _BASE_SIZES[op]
    if op is Op.PUSH and isinstance(a, Imm):
        # Pushing a full 64-bit address (a BTRA or embedded return address)
        # needs a wide encoding; this is what makes the push-based BTRA
        # setup i-cache hungry.
        size = 8
    elif op is Op.MOV and isinstance(b, Imm):
        size = 10 if (b.symbol is not None or abs(b.value) > 0x7FFFFFFF) else 7
    elif op in (Op.MOV, Op.CMP, Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR):
        if isinstance(a, Mem) or isinstance(b, Mem):
            size += 3
        elif isinstance(b, Imm):
            size += 3
    elif op is Op.CALL and not isinstance(a, (Imm, Label)):
        size = 3 if isinstance(a, Reg) else 7
    return size


class Instruction:
    """One decoded instruction.

    ``size`` is the encoded byte length (defaults from :func:`encoded_size`;
    NOP-insertion passes override it to emit multi-byte NOP padding).
    ``tag`` is an optional provenance marker ("btra-setup", "prolog-trap",
    ...) used by tests and the evaluation harness, never by the CPU.
    """

    __slots__ = ("op", "a", "b", "size", "tag")

    def __init__(
        self,
        op: Op,
        a: Optional[Operand] = None,
        b: Optional[Operand] = None,
        size: Optional[int] = None,
        tag: Optional[str] = None,
    ):
        self.op = op
        self.a = a
        self.b = b
        self.size = encoded_size(op, a, b) if size is None else size
        self.tag = tag

    def operands(self) -> Tuple[Optional[Operand], Optional[Operand]]:
        return (self.a, self.b)

    def __repr__(self) -> str:
        parts = [self.op.value]
        if self.a is not None:
            parts.append(repr(self.a) if not isinstance(self.a, Reg) else self.a.name.lower())
        if self.b is not None:
            parts.append(repr(self.b) if not isinstance(self.b, Reg) else self.b.name.lower())
        text = " ".join(parts)
        if self.tag:
            text += f"  ; {self.tag}"
        return f"<{text}>"
