"""Round-trip property of the disassembler (ISSUE satellite a).

Every opcode in the ISA must render through ``format_instruction`` and
re-parse through ``parse_instruction`` losslessly — the binary invariant
checker and the entropy auditor both lean on the listing grammar, so a
rendering ambiguity (e.g. ``$f+-0x8``) is a correctness bug, not a
cosmetic one.
"""

from __future__ import annotations

import pytest

from repro.core.config import R2CConfig
from repro.core.compiler import compile_module
from repro.machine.isa import Imm, Instruction, Label, Mem, Op, Reg
from repro.toolchain.disasm import (
    disassemble_function,
    format_instruction,
    format_operand,
    parse_instruction,
    parse_listing,
    parse_operand,
    render_instruction,
)

# Operand shapes covering every branch of format_operand / parse_operand.
OPERAND_SAMPLES = [
    None,
    Reg.RAX,
    Reg.RSP,
    Reg.R13,
    Reg.YMM2,
    Imm(0),
    Imm(42),
    Imm(-8),
    Imm(0x7FFFFFFF),
    Imm(-0x80000000),
    Imm(0, symbol="counter"),
    Imm(0x18, symbol="__r2c_guard"),
    Imm(-0x10, symbol="f::.Lret3"),  # negative addend: the $f-0x10 form
    Mem(base=Reg.RSP),
    Mem(base=Reg.RSP, offset=8),
    Mem(base=Reg.RBP, offset=-0x18),
    Mem(symbol="glob"),
    Mem(symbol="glob", offset=16),
    Mem(base=Reg.RAX, index=Reg.RCX, scale=8),
    Mem(base=Reg.RAX, index=Reg.RCX, scale=8, offset=-4),
    Mem(),  # renders [0x0]
    Label(".Lprolog_body"),
    Label(".Lbtra_ok7"),
]


@pytest.mark.parametrize("operand", OPERAND_SAMPLES, ids=repr)
def test_operand_round_trip(operand):
    assert parse_operand(format_operand(operand)) == operand


def _sample_operands(op: Op):
    """A plausible (a, b) pair per opcode — syntax, not semantics, is
    what the round trip proves, so one representative shape suffices."""
    if op in (Op.RET, Op.NOP, Op.TRAP, Op.VZEROUPPER):
        return None, None
    if op is Op.PUSH:
        return Imm(-0x10, symbol="main::.Lret2"), None
    if op is Op.POP:
        return Reg.RBX, None
    if op in (Op.JMP, Op.JE, Op.JNE, Op.JL, Op.JLE, Op.JG, Op.JGE):
        return Label(".Ltarget"), None
    if op is Op.CALL:
        return Imm(0, symbol="callee"), None
    if op is Op.CALLRT:
        return Label("malloc"), None
    if op in (Op.OUT, Op.NEG, Op.IDIV):
        return Reg.RDI, None
    if op is Op.EXIT:
        return Imm(1), None
    if op in (Op.SETE, Op.SETNE, Op.SETL, Op.SETLE, Op.SETG, Op.SETGE):
        return Reg.RAX, None
    if op in (Op.VLOAD, Op.VLOAD512):
        return Reg.YMM1, Mem(base=Reg.RSP, offset=-0x40)
    if op in (Op.VSTORE, Op.VSTORE512):
        return Mem(base=Reg.RSP, offset=-0x40), Reg.YMM1
    if op is Op.LEA:
        return Reg.RAX, Mem(base=Reg.RBP, index=Reg.RCX, scale=8, offset=-8)
    # Generic two-operand ALU/compare/mov shape.
    return Reg.RAX, Mem(base=Reg.RBP, offset=-0x20)


@pytest.mark.parametrize("op", list(Op), ids=lambda op: op.value)
def test_every_opcode_round_trips(op):
    a, b = _sample_operands(op)
    original = Instruction(op, a, b, tag="roundtrip-check")
    offset, parsed = parse_instruction(format_instruction(0x1A0, original))
    assert offset == 0x1A0
    assert parsed.op is original.op
    assert parsed.a == original.a
    assert parsed.b == original.b
    assert parsed.size == original.size
    assert parsed.tag == original.tag


@pytest.mark.parametrize("op", list(Op), ids=lambda op: op.value)
def test_every_opcode_round_trips_untagged(op):
    a, b = _sample_operands(op)
    original = Instruction(op, a, b)
    _, parsed = parse_instruction(format_instruction(0, original))
    assert (parsed.op, parsed.a, parsed.b, parsed.tag) == (op, a, b, None)


def test_render_instruction_is_offset_and_tag_free():
    instr = Instruction(Op.MOV, Reg.RAX, Imm(7), tag="nop-sled")
    assert render_instruction(instr) == "mov rax, $0x7"
    assert render_instruction(Instruction(Op.RET)) == "ret"


def test_negative_symbol_addend_is_unambiguous():
    # The historical ambiguity: "$f+-0x8" does not re-parse; the signed
    # rendering "$f-0x8" must be emitted and decoded instead.
    text = format_operand(Imm(-8, symbol="f"))
    assert text == "$f-0x8"
    assert parse_operand(text) == Imm(-8, symbol="f")


def test_parse_listing_recovers_overridden_sizes():
    nop = Instruction(Op.NOP, size=5)  # multi-byte NOP from the sled pass
    ret = Instruction(Op.RET)
    listing = "\n".join(
        ["<f>:  (6 bytes)", format_instruction(0x10, nop), format_instruction(0x15, ret)]
    )
    items = parse_listing(listing)
    assert [(o, i.op, i.size) for o, i in items] == [
        (0x10, Op.NOP, 5),
        (0x15, Op.RET, ret.size),
    ]


def test_listing_round_trip_across_fused_boundaries(simple_module):
    """Listings sliced across superinstruction fusion boundaries must
    survive the render/parse cycle with the fusion annotations intact.

    The tier-2 promoter fuses ``cmp+jcc`` from lazily sliced blocks
    (:func:`fuse_slice`); a listing that re-parses into different
    fusions would make a disassembly-driven tool disagree with the
    execution engine about superinstruction extent.
    """
    from repro.machine.blocks import fuse_slice, slice_block

    # The module's branches supply cmp+jcc pairs; push-mode BTRAs' push
    # runs fuse into nothing (compiled code serves them through RSP's
    # frame).
    binary = compile_module(simple_module, R2CConfig.full(seed=3, btra_mode="push"))
    index = dict(binary.text)

    fused_kinds = set()
    slices = []
    for offset, _ in binary.text:
        items = slice_block(index, offset)
        fusions = fuse_slice(items)
        if fusions:
            slices.append((items, fusions))
            fused_kinds.update(kind for kind, _, _ in fusions)
    # The workload must actually exercise fusion, or the round trip
    # proves nothing.
    assert fused_kinds == {"cmp+jcc"}

    for items, fusions in slices:
        listing = "\n".join(format_instruction(addr, instr) for addr, instr in items)
        parsed = parse_listing(listing)
        assert [(o, i.op, i.a, i.b) for o, i in parsed] == [
            (o, i.op, i.a, i.b) for o, i in items
        ]
        assert fuse_slice(parsed) == fusions


def test_compiled_function_listing_round_trips(simple_module):
    """Disassemble every function of a fully diversified binary and parse
    the listings back; the reconstruction must match the text stream
    field-for-field (offsets, operands, sizes, provenance tags)."""
    for mode in ("avx", "push"):
        binary = compile_module(simple_module, R2CConfig.full(seed=9, btra_mode=mode))
        for name in binary.frame_records:
            start, end = binary.function_range(name)
            expected = [item for item in binary.text if start <= item[0] < end]
            parsed = parse_listing(disassemble_function(binary, name))
            assert len(parsed) == len(expected), name
            for (po, pi), (eo, ei) in zip(parsed, expected):
                assert po == eo, name
                assert pi.op is ei.op, (name, eo)
                assert pi.a == ei.a, (name, eo)
                assert pi.b == ei.b, (name, eo)
                assert pi.tag == ei.tag, (name, eo)
                # The final instruction's size is unrecoverable from
                # offsets alone; everywhere else it must match.
                if (po, pi) is not parsed[-1]:
                    assert pi.size == ei.size, (name, eo)
