"""The program loader: maps a linked binary into a fresh process.

The loader is the "kernel + dynamic loader" of the simulation.  It

* picks an ASLR layout (independent slides for text, data, heap, stack);
* rebases the position-independent binary: every symbolic operand and data
  relocation is resolved against the randomized bases;
* maps the text execute-only (the leakage-resilience prerequisite of
  Section 3), data/heap/stack read-write;
* stands up the heap allocator and registers the ``malloc``/``free``
  runtime services;
* runs the binary's constructors — this is where the R2C runtime
  constructor allocates BTDP guard pages (Section 5.2) — and finally
  points the process at ``_start``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import LinkError
from repro.heap.allocator import Allocator
from repro.machine.isa import Imm, Instruction, Mem, Op, Reg
from repro.machine.process import Process, randomize_layout
from repro.rng import DiversityRng

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import at runtime
    from repro.toolchain.binary import Binary

DEFAULT_HEAP_SIZE = 8 * 1024 * 1024
DEFAULT_STACK_SIZE = 1024 * 1024


def _malloc_service(process: Process, cpu) -> int:
    size = cpu.regs[Reg.RDI]
    return process.allocator.malloc(size)


def _free_service(process: Process, cpu) -> int:
    process.allocator.free(cpu.regs[Reg.RDI])
    return 0


def load_binary(
    binary: "Binary",
    *,
    seed: int = 0,
    aslr: bool = True,
    execute_only: bool = True,
    heap_size: int = DEFAULT_HEAP_SIZE,
    stack_size: int = DEFAULT_STACK_SIZE,
) -> Process:
    """Map ``binary`` into a new :class:`Process`, ready to run."""
    rng = DiversityRng(seed).child("loader")
    layout = randomize_layout(
        rng,
        text_size=max(binary.text_size, 1),
        data_size=max(binary.data_size, 1),
        heap_size=heap_size,
        stack_size=stack_size,
        aslr=aslr,
    )
    process = Process(layout, execute_only_text=execute_only)
    process.binary = binary

    def resolve(symbol: str) -> int:
        section, offset = binary.symbol_offset(symbol)
        base = layout.text_base if section == "text" else layout.data_base
        return base + offset

    # ---- text ---------------------------------------------------------------
    for offset, instr in binary.text:
        process.place_instruction(layout.text_base + offset, _rebase(instr, resolve))
    # Text pages are file-backed and become resident with the image, so
    # binary-size growth (BTRA setup code, NOPs, booby traps) shows up in
    # maxrss, as in the paper's Section 6.2.5 accounting.
    for offset in range(0, max(binary.text_size, 1), 4096):
        process.memory.store_raw(layout.text_base + offset, b"\x00")

    # ---- data ---------------------------------------------------------------
    if binary.data_image:
        process.memory.store_raw(layout.data_base, bytes(binary.data_image))
    for data_offset, symbol, addend in binary.data_relocs:
        process.memory.store_word_raw(
            layout.data_base + data_offset, resolve(symbol) + addend
        )

    # ---- symbols --------------------------------------------------------------
    for name, offset in binary.symbols_text.items():
        process.symbols[name] = layout.text_base + offset
    for name, offset in binary.symbols_data.items():
        process.symbols[name] = layout.data_base + offset

    # ---- heap + runtime services -----------------------------------------------
    process.allocator = Allocator(process.memory, layout.heap_base, layout.heap_size)
    process.register_service("malloc", _malloc_service)
    process.register_service("free", _free_service)

    # ---- constructors (R2C runtime setup happens here) ---------------------------
    for index, constructor in enumerate(binary.constructors):
        constructor(process, rng.child(f"ctor{index}"))

    entry = process.symbols.get(binary.entry_symbol)
    if entry is None:
        raise LinkError(f"entry symbol {binary.entry_symbol!r} missing")
    process.entry_point = entry
    process.note_resident()
    return process


def _rebase(instr: Instruction, resolve) -> Instruction:
    """Resolve symbolic operands against the process layout."""
    a, b = instr.a, instr.b
    changed = False
    if isinstance(a, Imm) and a.symbol is not None and instr.op is not Op.CALLRT:
        a = Imm(resolve(a.symbol) + a.value)
        changed = True
    if isinstance(b, Imm) and b.symbol is not None:
        b = Imm(resolve(b.symbol) + b.value)
        changed = True
    if isinstance(a, Mem) and a.symbol is not None:
        a = Mem(a.base, a.offset + resolve(a.symbol), a.index, a.scale)
        changed = True
    if isinstance(b, Mem) and b.symbol is not None:
        b = Mem(b.base, b.offset + resolve(b.symbol), b.index, b.scale)
        changed = True
    if not changed:
        return instr
    return Instruction(instr.op, a, b, size=instr.size, tag=instr.tag)
