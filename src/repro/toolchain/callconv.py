"""The modelled calling convention (System V x86-64 flavoured).

* The first six arguments travel in ``rdi, rsi, rdx, rcx, r8, r9``;
  further arguments are pushed on the stack above the return address —
  the case that forces offset-invariant addressing under BTRAs
  (Section 5.1.1 of the paper).
* ``rax`` carries the return value and doubles as scratch; ``rdx`` is the
  second scratch (never live across an argument setup).
* All *allocatable* registers are callee-saved: a function saves every
  allocatable register it touches in its frame.  This deviation from the
  real SysV split (where some are caller-saved) keeps call lowering simple
  while preserving the property AOCR exploits: register-resident values —
  heap pointers included — get spilled into readable stack frames.
* ``rsp`` must be 16-byte aligned at every ``call`` instruction; the CPU
  enforces this, so the BTRA parity padding of Section 5.1 is not optional.
"""

from __future__ import annotations

from repro.machine.isa import Reg

#: Argument registers, in order.
ARG_REGS = (Reg.RDI, Reg.RSI, Reg.RDX, Reg.RCX, Reg.R8, Reg.R9)

#: Registers the allocator may assign to virtual registers (all callee-saved).
ALLOCATABLE = (Reg.RBX, Reg.R10, Reg.R11, Reg.R12, Reg.R13, Reg.R14, Reg.R15)

#: Scratch registers used by the code generator between IR statements.
SCRATCH0 = Reg.RAX
SCRATCH1 = Reg.RDX

#: Return-value register.
RET_REG = Reg.RAX

#: Frame-pointer register, used only for offset-invariant addressing of
#: stack arguments (never as a general frame pointer).
FP_REG = Reg.RBP

MAX_REG_ARGS = len(ARG_REGS)
