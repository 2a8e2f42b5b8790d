"""Backfill tests for the step-based debugger.

Breakpoints (by address and symbol), single-stepping, watchpoints, and
composition with the profiler — each checked for parity across both
execution backends, since the debugger drives either backend's ``step``
primitive over an explicit :class:`MachineState`.
"""

import pytest

from repro.core.compiler import compile_module
from repro.core.config import R2CConfig
from repro.machine.backends import run
from repro.machine.costs import get_costs
from repro.machine.debugger import Debugger
from repro.machine.isa import Imm, Instruction, Mem, Op, Reg
from repro.machine.loader import load_binary
from repro.machine.state import MachineState

from tests.test_backends import BACKENDS, DATA, assemble

I = Instruction


def counting_program():
    return assemble(
        [
            I(Op.MOV, Reg.RAX, Imm(0)),
            I(Op.ADD, Reg.RAX, Imm(5)),
            I(Op.ADD, Reg.RAX, Imm(7)),
            I(Op.OUT, Reg.RAX),
            I(Op.EXIT, Imm(0)),
        ]
    )


def test_single_step_parity_across_backends():
    """Stepping one instruction at a time observes the same (rip, rax)
    trajectory on both backends, ending with the same result."""
    trajectories = {}
    for backend in BACKENDS:
        process, _ = counting_program()
        state = MachineState(process, get_costs("epyc-rome"))
        debugger = Debugger(state, backend=backend)
        seen = []
        while not debugger.step():
            seen.append((state.rip, state.regs[Reg.RAX]))
        trajectories[backend] = (seen, debugger.result.exit_code, list(process.output))
    assert trajectories["reference"] == trajectories["fast"]
    seen, exit_code, output = trajectories["fast"]
    assert len(seen) == 4  # stopped before each of the 4 remaining instrs
    assert exit_code == 0 and output == [12]


def test_step_count_runs_exactly_n_instructions():
    process, addresses = counting_program()
    state = MachineState(process, get_costs("epyc-rome"))
    debugger = Debugger(state)
    assert not debugger.step(3)
    assert state.rip == addresses[3]  # parked on the OUT
    assert state.regs[Reg.RAX] == 12
    assert debugger.step(100)  # runs off the end: program finishes
    assert debugger.finished


def test_breakpoint_then_resume_matches_undebugged_run():
    for backend in BACKENDS:
        plain_process, _ = counting_program()
        plain = run(MachineState(plain_process, get_costs("epyc-rome")), backend)

        process, addresses = counting_program()
        state = MachineState(process, get_costs("epyc-rome"))
        debugger = Debugger(state, backend=backend)
        debugger.add_breakpoint(addresses[2])
        assert not debugger.cont()
        assert state.rip == addresses[2] and state.regs[Reg.RAX] == 5
        assert debugger.cont()
        assert debugger.result.exit_code == plain.exit_code
        assert list(process.output) == list(plain_process.output)
        # Step-based stopping never re-fetches: the accumulated result of
        # a debugged run is byte-identical to the undebugged run, counts
        # and float cycles included.
        assert debugger.result.instructions == plain.instructions
        assert debugger.result.cycles == plain.cycles


def test_remove_breakpoint():
    process, addresses = counting_program()
    state = MachineState(process, get_costs("epyc-rome"))
    debugger = Debugger(state)
    debugger.add_breakpoint(addresses[1])
    debugger.add_breakpoint(addresses[3])
    debugger.remove_breakpoint(addresses[1])
    assert not debugger.cont()
    assert state.rip == addresses[3]  # first stop is the remaining breakpoint
    assert debugger.cont()


def test_symbol_breakpoint_on_compiled_module(simple_module):
    binary = compile_module(simple_module, R2CConfig.full(seed=6))
    stops = {}
    for backend in BACKENDS:
        process = load_binary(binary, seed=1)
        process.register_service("attack_hook", lambda proc, cpu: 0)
        state = MachineState(process, get_costs("epyc-rome"))
        debugger = Debugger(state, backend=backend)
        address = debugger.break_at("double")
        assert not debugger.cont()
        assert state.rip == address
        assert debugger.current_function() == "double"
        assert debugger.cont()
        # Relative position only: the load seed randomizes absolute bases.
        stops[backend] = (address - process.text_base, debugger.result.exit_code)
    assert stops["reference"] == stops["fast"]


def test_watchpoint_records_old_and_new_values():
    instrs = [
        I(Op.MOV, Reg.RAX, Imm(DATA)),
        I(Op.MOV, Mem(Reg.RAX), Imm(0xBEEF)),
        I(Op.MOV, Mem(Reg.RAX), Imm(0xCAFE)),
        I(Op.EXIT, Imm(0)),
    ]
    process, _ = assemble(instrs, execute_only=False)
    state = MachineState(process, get_costs("epyc-rome"))
    debugger = Debugger(state)
    debugger.add_watchpoint(DATA)
    assert debugger.cont()
    values = [(hit["old"], hit["new"]) for hit in debugger.watch_hits]
    assert values == [(0, 0xBEEF), (0xBEEF, 0xCAFE)]


def test_debugger_leaves_trace_hook_free():
    """The step-based debugger does not occupy ``trace_fn``: a hook
    installed before (or after) attaching keeps seeing every executed
    instruction exactly once."""
    process, _ = counting_program()
    state = MachineState(process, get_costs("epyc-rome"))
    seen = []
    state.trace_fn = lambda c, rip, ins: seen.append(rip)
    debugger = Debugger(state)
    assert state.trace_fn is not None  # not displaced
    assert debugger.cont()
    assert len(seen) == debugger.result.instructions == 5


def test_debugger_drives_bare_machine_state():
    """Single-stepping works against a MachineState passed explicitly,
    backend chosen by name."""
    for backend in BACKENDS:
        process, addresses = counting_program()
        state = MachineState(process, get_costs("epyc-rome"))
        debugger = Debugger(state, backend=backend)
        assert not debugger.step(3)
        assert state.rip == addresses[3]
        assert state.regs[Reg.RAX] == 12
        assert debugger.step(100)
        assert debugger.result.exit_code == 0
        assert list(process.output) == [12]


def test_debugged_run_matches_plain_run_counters():
    """The refetch quirk is gone: stepping one instruction at a time
    accumulates exactly the undebugged run's result on both backends."""
    for backend in BACKENDS:
        plain_process, _ = counting_program()
        plain = run(MachineState(plain_process, get_costs("epyc-rome")), backend)

        process, _ = counting_program()
        state = MachineState(process, get_costs("epyc-rome"))
        debugger = Debugger(state, backend=backend)
        while not debugger.step():
            pass
        assert debugger.result.instructions == plain.instructions
        assert debugger.result.cycles == plain.cycles
        assert debugger.result.exit_code == plain.exit_code


def test_stepping_respects_instruction_budget():
    """The budget counts accumulated instructions across step slices, so a
    stepped run faults at exactly the same instruction as a plain run."""
    from repro.errors import ExecutionLimitExceeded

    for backend in BACKENDS:
        process, _ = counting_program()
        state = MachineState(process, get_costs("epyc-rome"), instruction_budget=3)
        debugger = Debugger(state, backend=backend)
        assert not debugger.step(2)
        with pytest.raises(ExecutionLimitExceeded):
            debugger.step(2)
        assert debugger.result.instructions == 4  # counted like the plain run


def test_profiler_chains_onto_debugger():
    """A profiler attached on top of a debugger keeps breakpoints working
    and still accounts every executed instruction's cycles."""
    from repro.obs.profiler import CycleProfiler

    process, addresses = counting_program()
    state = MachineState(process, get_costs("epyc-rome"))
    debugger = Debugger(state)
    profiler = CycleProfiler(state)  # chains the debugger's hook
    debugger.add_breakpoint(addresses[3])
    assert not debugger.cont()
    assert state.rip == addresses[3]
    assert debugger.cont()
    # The debugger no longer rides the trace hook, so the profiler sees
    # each executed instruction exactly once and both tallies agree — the
    # old one-high-per-stop refetch quirk is gone.
    assert profiler.instructions == debugger.result.instructions
    assert profiler.total_cycles == debugger.result.cycles
