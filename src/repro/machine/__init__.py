"""Simulated x86-64-style machine: memory, ISA, execution, process image.

This package is the hardware/OS substrate the paper's LLVM prototype
assumes.  It provides:

* :mod:`repro.machine.memory` — paged virtual memory with R/W/X permissions,
  execute-only pages, and guard pages (the mechanism behind BTDPs).
* :mod:`repro.machine.isa` — the instruction set the toolchain targets,
  including ``push``/``call``/``ret`` with x86 semantics (a ``call``
  overwrites the word at the new stack-pointer position, which the BTRA
  setup sequence of Section 5.1 relies on) and AVX2-style batched stores.
* :mod:`repro.machine.icache` / :mod:`repro.machine.costs` — the cycle cost
  model, including an instruction-cache simulator that reproduces why the
  push-based BTRA setup is slower than the AVX2 one (Section 6.2.1).
* :mod:`repro.machine.state` — :class:`MachineState`, the architectural
  state (registers, flags, shadow stack, i-cache) as a first-class,
  snapshot-able value; one decoded program can drive N states.  Runs
  account cycles, calls and i-cache traffic in :class:`ExecutionResult`.
* :mod:`repro.machine.uops` / :mod:`repro.machine.backends` — the
  fetch/decode/execute pipeline: a process's instructions are bound
  into pre-resolved micro-ops as they are first fetched and driven by
  the ``reference`` interpreter loop, the ``fast`` handler-table backend,
  or the ``jit`` backend (:mod:`repro.machine.blocks` /
  :mod:`repro.machine.jit`: compiled block functions and tier-3 loop traces;
  observed runs go to ``fast``), with byte-identical results.
  :func:`run` runs a state from its entry point on a named backend.
* :mod:`repro.machine.process` — the process image with ASLR over text,
  data, heap and stack regions.
* :mod:`repro.machine.loader` — maps a linked binary into a process.
"""

from repro.machine.memory import Memory, Perm, PAGE_SIZE
from repro.machine.isa import (
    Imm,
    Instruction,
    Label,
    Mem,
    Op,
    Reg,
    WORD,
)
from repro.machine.costs import MachineCosts, MACHINE_PRESETS
from repro.machine.icache import ICache
from repro.machine.state import ExecutionResult, MachineState
from repro.machine.backends import (
    ExecutionBackend,
    available_backends,
    get_backend,
    run,
)
from repro.machine.process import AddressSpaceLayout, Process
from repro.machine.loader import load_binary

__all__ = [
    "Memory",
    "Perm",
    "PAGE_SIZE",
    "WORD",
    "Op",
    "Reg",
    "Imm",
    "Mem",
    "Label",
    "Instruction",
    "MachineCosts",
    "MACHINE_PRESETS",
    "ICache",
    "MachineState",
    "ExecutionResult",
    "ExecutionBackend",
    "available_backends",
    "get_backend",
    "run",
    "AddressSpaceLayout",
    "Process",
    "load_binary",
]
