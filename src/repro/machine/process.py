"""Process image: sections, ASLR, runtime services, and accounting.

A :class:`Process` owns the virtual memory, the address-space layout, the
decoded instruction index for the text section, the output stream, and the
table of runtime services ("glibc" functions such as ``malloc`` that guest
code reaches through the ``CALLRT`` instruction).

The layout mirrors a PIE binary on x86-64 Linux: text and data live in the
``0x55xx...`` range, the heap in its own region above them, and the stack
near ``0x7ffc...``.  The distinct value ranges matter: AOCR's statistical
analysis clusters leaked words by value range to pick out heap pointers
(Section 2.3), and BTDPs must fall into the same cluster as benign heap
pointers (Section 4.2).  ASLR slides each region independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.errors import MachineError
from repro.machine.isa import Instruction
from repro.machine.memory import Memory, PAGE_SIZE, Perm
from repro.rng import DiversityRng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.state import MachineState


# Region anchors (pre-ASLR).  Chosen so text/data, heap, and stack words are
# separable by value range, like on real Linux.
TEXT_ANCHOR = 0x5555_5540_0000
HEAP_ANCHOR = 0x6200_0000_0000
STACK_ANCHOR = 0x7FFC_0000_0000

#: Maximum ASLR slide per region, in pages.
ASLR_SLIDE_PAGES = 0x4000


@dataclass
class AddressSpaceLayout:
    """Resolved (post-ASLR) region bases and sizes for one process."""

    text_base: int
    text_size: int
    data_base: int
    data_size: int
    heap_base: int
    heap_size: int
    stack_base: int  # lowest mapped stack address
    stack_size: int

    @property
    def stack_top(self) -> int:
        """Initial stack pointer (highest usable address, 16-byte aligned)."""
        return self.stack_base + self.stack_size

    def region_of(self, address: int) -> Optional[str]:
        """Classify an address as text/data/heap/stack, or ``None``."""
        if self.text_base <= address < self.text_base + self.text_size:
            return "text"
        if self.data_base <= address < self.data_base + self.data_size:
            return "data"
        if self.heap_base <= address < self.heap_base + self.heap_size:
            return "heap"
        if self.stack_base <= address < self.stack_base + self.stack_size:
            return "stack"
        return None


def randomize_layout(
    rng: DiversityRng,
    *,
    text_size: int,
    data_size: int,
    heap_size: int = 8 * 1024 * 1024,
    stack_size: int = 1024 * 1024,
    aslr: bool = True,
) -> AddressSpaceLayout:
    """Build a layout with independent per-region ASLR slides."""

    def slide(label: str) -> int:
        if not aslr:
            return 0
        return rng.child(f"aslr:{label}").randint(0, ASLR_SLIDE_PAGES) * PAGE_SIZE

    def round_up(n: int) -> int:
        return (n + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)

    text_base = TEXT_ANCHOR + slide("text")
    text_size = round_up(max(text_size, PAGE_SIZE))
    # One unmapped guard gap page between text and data.
    data_base = text_base + text_size + PAGE_SIZE
    data_size = round_up(max(data_size, PAGE_SIZE))
    heap_base = HEAP_ANCHOR + slide("heap")
    stack_base = STACK_ANCHOR + slide("stack")
    return AddressSpaceLayout(
        text_base=text_base,
        text_size=text_size,
        data_base=data_base,
        data_size=data_size,
        heap_base=heap_base,
        heap_size=round_up(heap_size),
        stack_base=stack_base,
        stack_size=round_up(stack_size),
    )


RuntimeService = Callable[["Process", "MachineState"], int]


class Process:
    """A loaded program instance: memory, instructions, services, output."""

    def __init__(self, layout: AddressSpaceLayout, *, execute_only_text: bool = True):
        self.layout = layout
        self.memory = Memory()
        self.execute_only_text = execute_only_text
        # Address -> decoded instruction; populated by the loader.
        self.instructions: Dict[int, Instruction] = {}
        self.entry_point: Optional[int] = None
        self.symbols: Dict[str, int] = {}
        self.output: List[int] = []
        self.exit_code: Optional[int] = None
        self._services: Dict[str, RuntimeService] = {}
        self._peak_resident = 0
        #: The load's micro-op programs, one per cost model
        #: (repro.machine.uops.get_bound_program): a micro-op depends only
        #: on the instruction index and the cost model, so every clone of
        #: the load shares this dict.
        self.bound_programs: Dict[int, tuple] = {}
        #: The load's jit programs, one per cost model
        #: (repro.machine.jit.JitProgram): a program's namespace, dispatch
        #: table and linked units name nothing of a process, so every
        #: clone of the load shares this dict, and each unit links once.
        self.jit_programs: Dict[int, tuple] = {}
        #: This process's own jit state per program: its promotion counts
        #: and the bindings (memory accessors, output, fetch-checked
        #: pages, probe marks) each drive writes into the program's
        #: namespace.  A clone starts with none.
        self.jit_bindings: Dict[object, object] = {}
        # Set by the loader:
        self.binary = None  # the Binary this process was loaded from
        self.allocator = None  # repro.heap.Allocator over the heap region
        self.text_base = layout.text_base
        self.data_base = layout.data_base

        text_perm = Perm.X if execute_only_text else Perm.RX
        self.memory.map_region(layout.text_base, layout.text_size, text_perm)
        self.memory.map_region(layout.data_base, layout.data_size, Perm.RW)
        self.memory.map_region(layout.heap_base, layout.heap_size, Perm.RW)
        self.memory.map_region(layout.stack_base, layout.stack_size, Perm.RW)
        self.note_resident()

    # -- replica cloning -----------------------------------------------------

    def clone(self) -> "Process":
        """Fork an identical replica: same binary, same layout, private
        memory/allocator/output/services.

        The decoded instruction index and the symbol table are immutable
        after loading, so they are shared, and so are the load's bound
        micro-op programs (:attr:`bound_programs`) and jit programs
        (:attr:`jit_programs`): neither a micro-op nor a linked unit holds
        anything of a process, so the load and all its clones bind each
        instruction and link each compiled unit once.  Everything a run
        mutates (memory pages, allocator state, the output stream, the
        service table, jit promotion counts and bindings) is copied or
        reset.  Of the memory, only materialized
        pages are copied; untouched pages stay shared until either side
        writes or protects them (see
        :meth:`repro.machine.memory.Memory.clone`).  Cloning a loaded
        process is an order of magnitude cheaper than re-loading the
        binary — it skips section mapping, instruction rebasing, and the
        runtime constructors.  It is the fork of a fork server:
        :class:`~repro.attacks.scenario.VictimSession` clones every worker
        from an image that never runs, which consecutive sessions of one
        deployment share, and N-replica lockstep groups clone their
        replicas from the leader."""
        clone = Process.__new__(Process)
        clone.layout = self.layout
        clone.memory = self.memory.clone()
        clone.execute_only_text = self.execute_only_text
        clone.instructions = self.instructions
        clone.entry_point = self.entry_point
        clone.symbols = self.symbols
        clone.output = list(self.output)
        clone.exit_code = self.exit_code
        clone._services = dict(self._services)
        clone._peak_resident = self._peak_resident
        clone.bound_programs = self.bound_programs
        clone.jit_programs = self.jit_programs
        clone.jit_bindings = {}
        clone.binary = self.binary
        clone.allocator = (
            None if self.allocator is None else self.allocator.clone(clone.memory)
        )
        clone.text_base = self.text_base
        clone.data_base = self.data_base
        runtime_info = getattr(self, "r2c_runtime", None)
        if runtime_info is not None:
            clone.r2c_runtime = dict(runtime_info)
        return clone

    # -- instruction index ---------------------------------------------------

    def place_instruction(self, address: int, instr: Instruction) -> None:
        if address in self.instructions:
            raise MachineError(f"instruction overlap at {address:#x}")
        self.instructions[address] = instr

    def instruction_at(self, address: int) -> Optional[Instruction]:
        return self.instructions.get(address)

    # -- runtime services ------------------------------------------------------

    def register_service(self, name: str, fn: RuntimeService) -> None:
        """Expose a host-side "libc" function to guest code via CALLRT."""
        self._services[name] = fn

    def service(self, name: str) -> RuntimeService:
        try:
            return self._services[name]
        except KeyError:
            raise MachineError(f"unknown runtime service {name!r}") from None

    # -- accounting -------------------------------------------------------------

    def note_resident(self) -> int:
        """Update and return the peak resident-set size (maxrss analogue)."""
        resident = self.memory.resident_bytes()
        if resident > self._peak_resident:
            self._peak_resident = resident
        return resident

    @property
    def max_rss(self) -> int:
        return self._peak_resident
