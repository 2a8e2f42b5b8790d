"""Structured defender-side crash reports (Section 4.2 triage).

When a worker faults, the defender gets one shot at telemetry before the
process is reaped.  :class:`CrashReport` snapshots everything a real crash
handler would: the exception, the faulting address, the architectural
registers, a window of stack memory around ``rsp``, and a backtrace
recovered through the ``.eh_frame`` analogue (:mod:`repro.toolchain.
unwind`) — which, per Section 7.2.4, must work through any number of
BTRAs.

Triage classifies the fault the way R2C's reactive story needs:

* ``btra-trip`` — control flow reached a booby-trap function: a BTRA was
  consumed, i.e. a ROP chain executed.
* ``btdp-trip`` — a guard page was dereferenced: a booby-trapped data
  pointer was followed.
* ``cfi-violation`` — the shadow stack (Section 8.2 comparison point)
  disagreed with a return.
* ``benign-fault`` — everything else (wild access, budget exhaustion):
  possibly an attack side effect, but not a trap detection.

Reports are deterministic: every registered backend leaves identical
architectural state at a fault (the differential tests compare serialized
reports byte-for-byte across backends).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    BoobyTrapTriggered,
    GuardPageFault,
    MachineError,
    MemoryFault,
    ShadowStackViolation,
)
from repro.machine.isa import Reg
from repro.machine.memory import WORD_BYTES
from repro.toolchain.unwind import UnwindError, backtrace

TRIAGE_BTRA = "btra-trip"
TRIAGE_BTDP = "btdp-trip"
TRIAGE_CFI = "cfi-violation"
TRIAGE_BENIGN = "benign-fault"

#: Triage states that count as *detections* (a trap fired, not just a crash).
DETECTION_TRIAGES = (TRIAGE_BTRA, TRIAGE_BTDP, TRIAGE_CFI)

#: Words of stack captured on each side of rsp.
STACK_WINDOW_WORDS = 16

_REG_NAMES = [reg.name.lower() for reg in Reg if reg < 16]


def triage_fault(exc: MachineError) -> str:
    """Map a machine fault to its reactive-defense meaning."""
    if isinstance(exc, BoobyTrapTriggered):
        return TRIAGE_BTRA
    if isinstance(exc, GuardPageFault):
        return TRIAGE_BTDP
    if isinstance(exc, ShadowStackViolation):
        return TRIAGE_CFI
    return TRIAGE_BENIGN


@dataclass
class CrashReport:
    """Post-mortem snapshot of one faulted worker."""

    #: Supervisor-assigned sequence number (probe index); 0 if standalone.
    sequence: int
    fault_class: str
    message: str
    triage: str
    rip: int
    #: The faulting data address, for memory faults; None otherwise.
    faulting_address: Optional[int]
    #: Region ("text"/"data"/"heap"/"stack"/None) of the faulting address.
    faulting_region: Optional[str]
    registers: Dict[str, int]
    #: (address, value) pairs around rsp; unmapped words are skipped.
    stack_window: Tuple[Tuple[int, int], ...]
    #: Function names innermost-first, via the .eh_frame analogue.
    backtrace: Tuple[str, ...] = ()
    #: Why the backtrace stops short, when the stack is too corrupt to walk.
    backtrace_error: Optional[str] = None
    #: Most-recent trace span *names* (oldest first) when tracing was on.
    #: Names only — durations differ between backends, and serialized
    #: reports are compared byte-for-byte across them.
    recent_spans: Tuple[str, ...] = ()

    @property
    def detected(self) -> bool:
        return self.triage in DETECTION_TRIAGES

    @classmethod
    def from_fault(
        cls, exc: MachineError, cpu, process, *, sequence: int = 0
    ) -> "CrashReport":
        """Build a report from a fault plus the post-mortem machine state."""
        rip = cpu.rip
        rsp = cpu.regs[Reg.RSP]
        registers = {
            name: cpu.regs[index] for index, name in enumerate(_REG_NAMES)
        }
        faulting_address = getattr(exc, "address", None)
        faulting_region = (
            process.layout.region_of(faulting_address)
            if faulting_address is not None
            else None
        )
        window: List[Tuple[int, int]] = []
        for offset in range(-STACK_WINDOW_WORDS, STACK_WINDOW_WORDS):
            address = rsp + offset * WORD_BYTES
            try:
                window.append((address, process.memory.load_word_raw(address)))
            except MemoryFault:
                continue
        trace: Tuple[str, ...] = ()
        trace_error: Optional[str] = None
        try:
            trace = tuple(backtrace(process, rip, rsp))
        except UnwindError as unwind_exc:
            # A smashed stack is exactly when unwinding fails loudly; the
            # failure itself is forensic signal.
            trace_error = str(unwind_exc)
        from repro.obs.tracing import recent_span_names

        return cls(
            sequence=sequence,
            fault_class=type(exc).__name__,
            message=str(exc),
            triage=triage_fault(exc),
            rip=rip,
            faulting_address=faulting_address,
            faulting_region=faulting_region,
            registers=registers,
            stack_window=tuple(window),
            backtrace=trace,
            backtrace_error=trace_error,
            recent_spans=tuple(recent_span_names()),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "sequence": self.sequence,
            "fault_class": self.fault_class,
            "message": self.message,
            "triage": self.triage,
            "rip": self.rip,
            "faulting_address": self.faulting_address,
            "faulting_region": self.faulting_region,
            "registers": dict(self.registers),
            "stack_window": [list(pair) for pair in self.stack_window],
            "backtrace": list(self.backtrace),
            "backtrace_error": self.backtrace_error,
            "recent_spans": list(self.recent_spans),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def summary_line(self) -> str:
        """One-line triage summary (the supervisor's log format)."""
        where = (
            f" at {self.faulting_address:#x} ({self.faulting_region or 'unmapped'})"
            if self.faulting_address is not None
            else ""
        )
        frames = "/".join(self.backtrace[:4]) if self.backtrace else "<no unwind>"
        return (
            f"#{self.sequence} {self.triage}: {self.fault_class}{where}"
            f" rip={self.rip:#x} bt={frames}"
        )
