"""Disassembly/objdump-style rendering of linked binaries — and back.

Renders instructions with their text offsets, section maps, and
per-function listings, useful for inspecting what the diversification
passes actually emitted (``print(disassemble_function(binary, "main"))``).

The rendering is *lossless*: :func:`parse_instruction` /
:func:`parse_listing` reconstruct the instruction stream from a listing,
and the round-trip property (``tests/test_disasm.py``) holds for every
opcode in the ISA.  The binary invariant checker leans on the same
operand model, so faithful decoding is load-bearing, not cosmetic.

Grammar notes (the ambiguities the parser depends on being closed):

* immediates are ``$<value>`` or ``$<symbol>`` or ``$<symbol><±value>``
  — the signed form is used even for negative addends, so ``$f-0x8``
  never renders as the unparseable ``$f+-0x8``;
* memory operands are ``[term+term...±offset]``; a bare register name
  inside brackets is a base register, anything else is a symbol (symbols
  shadowing register names would be ambiguous — the toolchain never
  emits them, and :func:`parse_operand` resolves in favor of registers);
* a bare token outside brackets is a register if it names one, else a
  pre-link :class:`Label`.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.machine.isa import Imm, Instruction, Label, Mem, Op, Operand, Reg
from repro.toolchain.binary import Binary

_REG_NAMES = {reg.name.lower(): reg for reg in Reg}
_OPS_BY_NAME = {op.value: op for op in Op}

_TERM = re.compile(r"([+-]?)([^+-]+)")
_SIGNED_HEX = re.compile(r"([+-])0x([0-9a-fA-F]+)$")
_LINE = re.compile(
    r"^\s*(?P<offset>0x[0-9a-fA-F]+):\s+(?P<op>\S+)\s*(?P<operands>.*?)\s*$"
)


def format_operand(operand) -> str:
    if operand is None:
        return ""
    if isinstance(operand, Reg):
        return operand.name.lower()
    if isinstance(operand, Imm):
        if operand.symbol is not None:
            # The sign always separates symbol from addend ($f+0x8 / $f-0x8);
            # "+{value:#x}" would render negative addends as "$f+-0x8".
            return f"${operand.symbol}{operand.value:+#x}" if operand.value else f"${operand.symbol}"
        return f"${operand.value:#x}"
    if isinstance(operand, Mem):
        parts = []
        if operand.symbol:
            parts.append(operand.symbol)
        if operand.base is not None:
            parts.append(operand.base.name.lower())
        if operand.index is not None:
            parts.append(f"{operand.index.name.lower()}*{operand.scale}")
        inner = "+".join(parts) if parts else ""
        if operand.offset:
            inner = f"{inner}{operand.offset:+#x}" if inner else f"{operand.offset:#x}"
        return f"[{inner or '0x0'}]"
    if isinstance(operand, Label):
        return operand.name
    return repr(operand)


def format_instruction(offset: int, instr: Instruction) -> str:
    operands = ", ".join(
        text for text in (format_operand(instr.a), format_operand(instr.b)) if text
    )
    line = f"  {offset:#08x}:  {instr.op.value:<10s} {operands}"
    if instr.tag:
        line = f"{line:<58s}; {instr.tag}"
    return line


def render_instruction(instr: Instruction) -> str:
    """Offset- and tag-free rendering: the instruction's own identity.

    What the entropy auditor hashes when comparing gadgets across
    diversified variants (provenance tags are defender-side metadata an
    attacker never sees).
    """
    operands = ", ".join(
        text for text in (format_operand(instr.a), format_operand(instr.b)) if text
    )
    return f"{instr.op.value} {operands}".rstrip()


# ---------------------------------------------------------------------------
# parsing (the inverse direction)
# ---------------------------------------------------------------------------


def parse_operand(text: str) -> Optional[Operand]:
    """Parse one rendered operand; inverse of :func:`format_operand`."""
    text = text.strip()
    if not text:
        return None
    if text.startswith("$"):
        body = text[1:]
        if body.startswith(("0x", "-0x")) or body.lstrip("-").isdigit():
            return Imm(int(body, 0))
        match = _SIGNED_HEX.search(body)
        if match:
            sign, digits = match.groups()
            value = int(digits, 16) * (-1 if sign == "-" else 1)
            return Imm(value, symbol=body[: match.start()])
        return Imm(0, symbol=body)
    if text.startswith("[") and text.endswith("]"):
        return _parse_mem(text[1:-1])
    reg = _REG_NAMES.get(text)
    if reg is not None:
        return reg
    return Label(text)


def _parse_mem(inner: str) -> Mem:
    base: Optional[Reg] = None
    index: Optional[Reg] = None
    scale = 1
    offset = 0
    symbol: Optional[str] = None
    for match in _TERM.finditer(inner):
        sign, term = match.groups()
        if term.startswith("0x") or term.isdigit():
            offset = int(term, 0) * (-1 if sign == "-" else 1)
        elif "*" in term:
            reg_name, _, scale_text = term.partition("*")
            index = _REG_NAMES[reg_name]
            scale = int(scale_text, 0)
        elif term in _REG_NAMES:
            base = _REG_NAMES[term]
        else:
            symbol = term
    return Mem(base=base, offset=offset, index=index, scale=scale, symbol=symbol)


def parse_instruction(line: str) -> Tuple[int, Instruction]:
    """Parse one listing line back to ``(offset, Instruction)``.

    The encoded size is recomputed from the operands (a listing line does
    not carry it); :func:`parse_listing` recovers overridden sizes — e.g.
    multi-byte NOP padding — from consecutive offsets.
    """
    text, tag = line, None
    if ";" in line:
        text, _, tag_text = line.partition(";")
        tag = tag_text.strip() or None
    match = _LINE.match(text)
    if match is None:
        raise ValueError(f"unparseable listing line: {line!r}")
    op = _OPS_BY_NAME.get(match.group("op"))
    if op is None:
        raise ValueError(f"unknown mnemonic in listing line: {line!r}")
    operand_text = match.group("operands")
    operands = [parse_operand(part) for part in operand_text.split(",")] if operand_text else []
    a = operands[0] if len(operands) > 0 else None
    b = operands[1] if len(operands) > 1 else None
    return int(match.group("offset"), 16), Instruction(op, a, b, tag=tag)


def parse_listing(listing: str) -> List[Tuple[int, Instruction]]:
    """Parse a multi-line listing (header lines are skipped).

    Where consecutive offsets imply a different encoded size than the
    default — NOP-insertion emits multi-byte NOPs — the parsed
    instruction's ``size`` is corrected from the offset delta.
    """
    items: List[Tuple[int, Instruction]] = []
    for line in listing.splitlines():
        stripped = line.strip()
        if not stripped or not stripped.startswith("0x"):
            continue
        items.append(parse_instruction(line))
    for position in range(len(items) - 1):
        offset, instr = items[position]
        delta = items[position + 1][0] - offset
        if delta > 0 and delta != instr.size:
            instr.size = delta
    return items


def disassemble_function(binary: Binary, name: str) -> str:
    """objdump-style listing of one function."""
    start, end = binary.function_range(name)
    lines = [f"<{name}>:  ({end - start} bytes)"]
    for offset, instr in binary.text:
        if start <= offset < end:
            lines.append(format_instruction(offset, instr))
    return "\n".join(lines)


def section_map(binary: Binary) -> str:
    """Summarize the layout: functions with offsets/sizes, then globals."""
    lines = [f"text: {binary.text_size} bytes, {len(binary.frame_records)} functions"]
    for name, record in sorted(
        binary.frame_records.items(), key=lambda kv: kv[1].entry_offset
    ):
        marker = "" if record.protected else "  [unprotected]"
        lines.append(
            f"  {record.entry_offset:#08x}  {record.end_offset - record.entry_offset:5d}B"
            f"  {name}{marker}"
        )
    lines.append(f"data: {binary.data_size} bytes, {len(binary.symbols_data)} symbols")
    for name, offset in sorted(binary.symbols_data.items(), key=lambda kv: kv[1]):
        lines.append(f"  {offset:#08x}  {name}")
    return "\n".join(lines)
