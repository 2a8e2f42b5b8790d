#!/usr/bin/env python3
"""Toolbox tour: disassemble, debug, and unwind a diversified binary.

Compiles the victim server under full R2C and then:

1. prints the section map and the diversified `process_request` listing
   (spot the `btra-setup`, `btdp`, and `prolog-trap` annotations);
2. sets a breakpoint on the handler, steps, and watches a global;
3. unwinds the stack from deep inside the request path — straight through
   every booby-trapped frame (the Section 7.2.4 claim).

Run:  python examples/inspect_diversity.py
"""

from repro.core.config import R2CConfig
from repro.core.compiler import compile_module
from repro.machine import MachineState, run
from repro.machine.costs import get_costs
from repro.machine.debugger import Debugger
from repro.machine.isa import Reg
from repro.machine.loader import load_binary
from repro.toolchain.disasm import disassemble_function, section_map
from repro.toolchain.unwind import backtrace
from repro.workloads.victim import build_victim


def main():
    print(__doc__)
    binary = compile_module(build_victim(), R2CConfig.full(seed=2026, btra_mode="push"))

    print("=== section map (diversified layout) ===")
    print(section_map(binary))
    print()

    print("=== process_request, diversified ===")
    listing = disassemble_function(binary, "process_request")
    print("\n".join(listing.splitlines()[:28]))
    print("  ...")
    print()

    print("=== debugger session ===")
    process = load_binary(binary, seed=11)
    process.register_service("attack_hook", lambda p, c: 0)
    debugger = Debugger(MachineState(process, get_costs("epyc-rome")))
    debugger.break_at("process_request")
    debugger.add_watchpoint(process.symbols["counters"] + 24)
    hits = 0
    while not debugger.cont():
        hits += 1
        if hits == 1:
            print(f"breakpoint: {debugger.current_function()} at {debugger.rip:#x}")
            debugger.step(5)
            print(f"after 5 steps: rip={debugger.rip:#x}, still in "
                  f"{debugger.current_function()}")
    print(f"breakpoint hit {hits} times (one per request); "
          f"watchpoint fired {len(debugger.watch_hits)} times")
    print()

    print("=== unwinding through BTRA frames ===")
    process2 = load_binary(binary, seed=12)
    trace = {}

    def hook(proc, cpu):
        if "bt" not in trace:
            trace["bt"] = backtrace(proc, cpu.rip, cpu.regs[Reg.RSP])
        return 0

    process2.register_service("attack_hook", hook)
    run(MachineState(process2, get_costs("epyc-rome")))
    print(" -> ".join(trace["bt"]))
    print("Every frame above carries booby-trapped return addresses, yet the")
    print(".eh_frame metadata unwinds it precisely — exception handling works.")


if __name__ == "__main__":
    main()
