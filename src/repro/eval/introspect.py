"""Defender-side introspection utilities for experiments and examples.

These helpers read ground truth (frame records, call-site records, the
R2C runtime info) that *defenders* own.  Attack code never uses them; the
ablation benches and examples use them to verify what attacks could or
could not have learned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.compiler import compile_module
from repro.core.config import R2CConfig
from repro.machine.backends import run
from repro.machine.costs import get_costs
from repro.machine.isa import Reg
from repro.machine.loader import load_binary
from repro.machine.state import MachineState
from repro.toolchain.builder import IRBuilder
from repro.toolchain.ir import Module

WORD = 8


def build_two_site_module(loop_calls: int = 3) -> Module:
    """main calls ``callee`` from two distinct call sites (A in a loop, B
    once); ``callee`` fires the attack hook."""
    ir = IRBuilder("two-site")
    callee = ir.function("callee", params=["x"])
    callee.local("t")
    callee.store_local("t", callee.add(callee.param("x"), 1))
    callee.rtcall("attack_hook", [], void=True)
    callee.ret(callee.load_local("t"))

    m = ir.function("main")
    m.local("acc")
    m.store_local("acc", 0)
    ivar = m.counted_loop(loop_calls, "body", "done")
    i = m.load_local(ivar)
    r = m.call("callee", [i])  # site A
    m.store_local("acc", m.add(m.load_local("acc"), r))
    m.loop_backedge(ivar, "body")
    m.new_block("done")
    r2 = m.call("callee", [7])  # site B
    m.out(m.add(m.load_local("acc"), r2))
    m.ret(0)
    return ir.finish()


@dataclass
class HookSnapshot:
    """Ground-truth view of the innermost BTRA site at one hook firing."""

    rsp: int
    ra_slot: int
    ra: int
    pre: List[int]
    post: List[int]


@dataclass
class HookProbe:
    """Compiles a module, runs it, and snapshots every hook firing."""

    config: R2CConfig
    module: Optional[Module] = None
    hook_function: str = "callee"
    load_seed: int = 5
    snapshots: List[HookSnapshot] = field(default_factory=list)

    def run(self) -> "HookProbe":
        module = self.module if self.module is not None else build_two_site_module()
        self.binary = compile_module(module, self.config)
        self.process = load_binary(self.binary, seed=self.load_seed)
        record = self.binary.frame_records[self.hook_function]
        text_base = self.process.text_base

        def hook(process, cpu):
            rsp = cpu.regs[Reg.RSP]
            ra_slot = rsp + record.frame_bytes + WORD * record.post_offset
            ra = process.memory.load_word_raw(ra_slot)
            site = self.binary.callsite_records.get(ra - text_base)
            pre = [
                process.memory.load_word_raw(ra_slot + WORD * (k + 1))
                for k in range(site.pre_words if site else 0)
            ]
            post = [
                process.memory.load_word_raw(ra_slot - WORD * (k + 1))
                for k in range(site.post_words if site else 0)
            ]
            self.snapshots.append(HookSnapshot(rsp, ra_slot, ra, pre, post))
            return 0

        self.process.register_service("attack_hook", hook)
        self.result = run(MachineState(self.process, get_costs("epyc-rome")))
        return self


class CallRaceObserver:
    """Observes the stack right before and right after each BTRA call —
    the MTB race of Section 5.1 / the kR^X comparison of Section 8."""

    def __init__(self, binary, text_base, window_words: int = 16):
        self.binary = binary
        self.text_base = text_base
        self.window_words = window_words
        self.observations: List[Dict] = []
        self._pending = None

    def __call__(self, cpu, rip, instr) -> None:
        from repro.machine.isa import Op

        if self._pending is not None:
            before, base = self._pending
            self._pending = None
            after = self._window(cpu, base)
            changed = [
                base + WORD * k
                for k in range(len(before))
                if before[k] != after[k]
            ]
            self.observations.append(
                {"changed_slots": changed, "after": after, "base": base}
            )
        if instr.op is Op.CALL:
            ret_offset = rip + instr.size - self.text_base
            record = self.binary.callsite_records.get(ret_offset)
            if record is not None and record.uses_btra:
                base = cpu.regs[Reg.RSP] - WORD * self.window_words
                self._pending = (self._window(cpu, base), base)

    def _window(self, cpu, base) -> List[int]:
        memory = cpu.process.memory
        return [
            memory.load_word_raw(base + WORD * k)
            for k in range(2 * self.window_words)
        ]


def observe_call_races(config: R2CConfig, *, load_seed: int = 5) -> List[Dict]:
    """Run the two-site module under ``config`` with a race observer."""
    module = build_two_site_module()
    binary = compile_module(module, config)
    process = load_binary(binary, seed=load_seed)
    process.register_service("attack_hook", lambda proc, cpu: 0)
    observer = CallRaceObserver(binary, process.text_base)
    run(MachineState(process, get_costs("epyc-rome"), trace_fn=observer))
    return observer.observations
