"""Differential tests for the execution backends.

The fetch/decode/execute split (DESIGN.md) requires the ``fast``
micro-op backend to be observationally indistinguishable from the
``reference`` interpreter loop: identical :class:`ExecutionResult`
counters (cycles, tag attribution, i-cache hits/misses),
identical faults (type, message, and faulting ``rip``) — even for
runs that crash mid-program — plus identical trace-hook and debugger
behaviour.  These tests drive both backends over the same programs and
compare everything.

The bind stage itself is also covered: ``fast`` binds an instruction
the first time it fetches it, links what it binds into the micro-op
that led there, and leaves no reference cycle through a process's
memory.
"""

import dataclasses
import gc
import itertools
import weakref

import pytest

from repro.core.compiler import compile_module
from repro.core.config import R2CConfig
from repro.errors import (
    BoobyTrapTriggered,
    ExecutionLimitExceeded,
    GuardPageFault,
    InvalidInstruction,
    MachineError,
    MemoryFault,
    ShadowStackViolation,
    StackMisaligned,
)
from repro.machine.backends import available_backends, get_backend, run
from repro.machine.costs import get_costs
from repro.machine.debugger import Debugger
from repro.machine.isa import Imm, Instruction, Mem, Op, Reg
from repro.machine.loader import load_binary
from repro.machine.memory import PAGE_SIZE, Perm
from repro.machine.uops import MicroOp, get_bound_program
from repro.machine.process import AddressSpaceLayout, Process
from repro.machine.state import ExecutionResult, MachineState

from tests.conftest import FULL_CONFIGS

I = Instruction

TEXT = 0x5555_0000_0000
DATA = 0x5555_0010_0000
HEAP = 0x6200_0000_0000
STACK = 0x7FFC_0000_0000

# Every registered backend participates in the differential suite — a
# backend added to the registry is automatically held to the reference
# contract here (and in the debugger/lockstep/state parity tests, which
# import this tuple).
BACKENDS = tuple(available_backends())


def assemble(instrs, *, execute_only=True):
    layout = AddressSpaceLayout(
        text_base=TEXT,
        text_size=0x10000,
        data_base=DATA,
        data_size=0x10000,
        heap_base=HEAP,
        heap_size=0x10000,
        stack_base=STACK,
        stack_size=0x10000,
    )
    process = Process(layout, execute_only_text=execute_only)
    addr = TEXT
    addresses = []
    for instr in instrs:
        process.place_instruction(addr, instr)
        addresses.append(addr)
        addr += instr.size
    process.entry_point = TEXT
    return process, addresses


def run_one_backend(make_process, backend, slices=None, **state_kwargs):
    """Run ``make_process()`` under ``backend``; capture result and fault.

    With ``slices`` (an iterator of instruction counts) the run is driven
    through ``step()`` slices of those lengths instead of one ``run()``."""
    process = make_process()
    res = ExecutionResult()
    state = MachineState(process, get_costs("epyc-rome"), **state_kwargs)
    error = None
    try:
        if slices is None:
            run(state, backend, res)
        else:
            impl = get_backend(backend)
            program = impl.prepare(state)
            state.rip = process.entry_point
            while not impl.step(program, state, res, next(slices)):
                pass
    except Exception as exc:  # noqa: BLE001 - faults are the subject here
        error = (type(exc), str(exc))
    return {
        "result": dataclasses.asdict(res),
        "error": error,
        "rip": state.rip,
        "regs": list(state.regs),
        "shadow": list(state.shadow_stack),
        "exit_code": process.exit_code,
    }


def compare_backends(make_process, **state_kwargs):
    """Assert every registered backend observes the identical machine
    trajectory."""
    reference = run_one_backend(make_process, "reference", **state_kwargs)
    for backend in BACKENDS:
        if backend == "reference":
            continue
        observed = run_one_backend(make_process, backend, **state_kwargs)
        assert observed == reference, f"backend {backend!r} diverged"
    return reference


# ---------------------------------------------------------------------------
# Clean runs: counters must match field-for-field.
# ---------------------------------------------------------------------------


def test_counters_identical_on_straight_line_code():
    def make():
        process, _ = assemble(
            [
                I(Op.MOV, Reg.RAX, Imm(40)),
                I(Op.MOV, Reg.RBX, Imm(2)),
                I(Op.ADD, Reg.RAX, Reg.RBX),
                I(Op.PUSH, Reg.RAX),
                I(Op.POP, Reg.RCX),
                I(Op.OUT, Reg.RCX),
                I(Op.EXIT, Imm(0)),
            ]
        )
        return process

    outcome = compare_backends(make)
    assert outcome["error"] is None
    assert outcome["result"]["output"] == [42]


def test_counters_identical_on_compiled_workloads(simple_module):
    for name, config in FULL_CONFIGS.items():
        binary = compile_module(simple_module, config)

        def make():
            process = load_binary(binary, seed=1)
            process.register_service("attack_hook", lambda proc, cpu: 0)
            return process

        outcome = compare_backends(make, attribute_tags=True)
        assert outcome["error"] is None, (name, outcome["error"])
        assert outcome["result"]["instructions"] > 0


def test_cycles_are_float_identical(simple_module):
    """Cost addition order is preserved, so float cycles match exactly."""
    binary = compile_module(simple_module, R2CConfig.full(seed=5))
    totals = {}
    for backend in BACKENDS:
        process = load_binary(binary, seed=1)
        process.register_service("attack_hook", lambda proc, cpu: 0)
        result = run(MachineState(process, get_costs("i9-9900k")), backend)
        totals[backend] = result.cycles
    assert all(total == totals["reference"] for total in totals.values())


# ---------------------------------------------------------------------------
# Fault equivalence: type, message, faulting rip, and partial counters.
# ---------------------------------------------------------------------------


def test_booby_trap_identical():
    def make():
        process, _ = assemble([I(Op.NOP), I(Op.TRAP), I(Op.EXIT, Imm(0))])
        return process

    outcome = compare_backends(make)
    assert outcome["error"][0] is BoobyTrapTriggered
    assert outcome["result"]["instructions"] == 2  # NOP + the trap itself


def test_shadow_stack_violation_identical():
    def make():
        instrs = [
            I(Op.CALL, Imm(0)),
            I(Op.EXIT, Imm(0)),
            # callee: overwrite the return address, then return.
            I(Op.MOV, Mem(Reg.RSP), Imm(0x1234)),
            I(Op.RET),
        ]
        process, addresses = assemble(instrs)
        instrs[0].a = Imm(addresses[2])
        return process

    outcome = compare_backends(make, shadow_stack=True)
    assert outcome["error"][0] is ShadowStackViolation
    assert outcome["result"]["rets"] == 0  # violating ret is not counted


def test_budget_exhaustion_identical():
    def make():
        instrs = [I(Op.JMP, Imm(0))]
        process, addresses = assemble(instrs)
        instrs[0].a = Imm(addresses[0])
        return process

    outcome = compare_backends(make, instruction_budget=75)
    assert outcome["error"][0] is ExecutionLimitExceeded
    assert outcome["result"]["instructions"] == 76


def test_division_by_zero_identical():
    def make():
        process, _ = assemble(
            [
                I(Op.MOV, Reg.RAX, Imm(1)),
                I(Op.MOV, Reg.RBX, Imm(0)),
                I(Op.IDIV, Reg.RAX, Reg.RBX),
                I(Op.EXIT, Imm(0)),
            ]
        )
        return process

    outcome = compare_backends(make)
    assert outcome["error"][0] is MachineError
    assert "division by zero" in outcome["error"][1]


def test_stack_misalignment_identical():
    def make():
        instrs = [
            I(Op.PUSH, Imm(1)),
            I(Op.CALL, Imm(0)),
            I(Op.EXIT, Imm(0)),
            I(Op.RET),
        ]
        process, addresses = assemble(instrs)
        instrs[1].a = Imm(addresses[3])
        return process

    outcome = compare_backends(make)
    assert outcome["error"][0] is StackMisaligned


def test_fetch_from_data_identical():
    def make():
        process, _ = assemble([I(Op.JMP, Imm(DATA)), I(Op.EXIT, Imm(0))])
        return process

    outcome = compare_backends(make)
    assert outcome["error"][0] is MemoryFault
    assert outcome["rip"] == DATA  # rip rests at the invalid target


def test_jump_into_instruction_middle_identical():
    """Executable bytes with no decoded instruction: InvalidInstruction."""

    def make():
        instrs = [I(Op.JMP, Imm(0)), I(Op.EXIT, Imm(0))]
        process, addresses = assemble(instrs)
        instrs[0].a = Imm(addresses[1] + 1)
        return process

    outcome = compare_backends(make)
    assert outcome["error"][0] is InvalidInstruction
    assert "no instruction at" in outcome["error"][1]


def test_guard_page_dereference_identical():
    def make():
        process, _ = assemble(
            [
                I(Op.MOV, Reg.RAX, Imm(HEAP)),
                I(Op.MOV, Reg.RBX, Mem(Reg.RAX)),
                I(Op.EXIT, Imm(0)),
            ]
        )
        process.memory.protect(HEAP, 4096, Perm.NONE, guard=True)
        return process

    outcome = compare_backends(make)
    assert outcome["error"][0] is GuardPageFault


def test_runtime_service_changing_permissions_identical():
    """A CALLRT service may remap pages; the fast backend must revalidate
    its memoized fetch checks afterwards (the SYNC path)."""

    def make():
        process, _ = assemble(
            [
                I(Op.CALLRT, Imm(symbol="lockdown")),
                I(Op.MOV, Reg.RAX, Imm(HEAP)),
                I(Op.MOV, Reg.RBX, Mem(Reg.RAX)),
                I(Op.EXIT, Imm(0)),
            ]
        )

        def lockdown(proc, cpu):
            proc.memory.protect(HEAP, 4096, Perm.NONE, guard=True)
            return 0

        process.register_service("lockdown", lockdown)
        return process

    outcome = compare_backends(make)
    assert outcome["error"][0] is GuardPageFault


def test_runtime_service_revoking_its_own_text_page_identical():
    """A service that revokes execute permission on the page its caller
    runs from: the next fetch from that page faults on every backend,
    though ``fast`` checked that page before the call."""

    def make():
        process, _ = assemble(
            [
                I(Op.MOV, Reg.RAX, Imm(1)),
                I(Op.CALLRT, Imm(symbol="lockdown")),
                I(Op.MOV, Reg.RAX, Imm(2)),
                I(Op.EXIT, Imm(0)),
            ]
        )

        def lockdown(proc, cpu):
            proc.memory.protect(TEXT, PAGE_SIZE, Perm.RW)
            return 0

        process.register_service("lockdown", lockdown)
        return process

    outcome = compare_backends(make)
    assert outcome["error"][0] is MemoryFault


def straddling_loop_process(inside: bool):
    """A counted loop whose block crosses from the first text page into
    the second — the boundary falls ``inside`` a sized NOP, or right
    after it.  Its third trip calls a runtime service that revokes
    execute permission on the second page, after two entries of the
    block (enough for ``jit`` to compile it).  The fourth entry then
    faults fetching from the second page."""
    head = [
        I(Op.MOV, Reg.RCX, Imm(0)),
        I(Op.JMP, Imm(0)),  # to the loop
        I(Op.CALLRT, Imm(symbol="revoke")),  # the third trip's detour
        I(Op.JMP, Imm(0)),  # back to the loop
    ]
    add, nop = I(Op.ADD, Reg.RCX, Imm(1)), I(Op.NOP, size=8)
    loop = PAGE_SIZE - add.size - (3 if inside else nop.size)
    instrs = head + [I(Op.NOP, size=loop - sum(instr.size for instr in head))]
    instrs += [
        add, nop,
        I(Op.CMP, Reg.RCX, Imm(3)), I(Op.JE, Imm(0)),  # to the detour
        I(Op.CMP, Reg.RCX, Imm(6)), I(Op.JL, Imm(0)),  # to the loop
        I(Op.EXIT, Imm(0)),
    ]
    process, addresses = assemble(instrs)
    assert addresses[5] == TEXT + loop
    for index, target in ((1, 5), (3, 5), (8, 2), (10, 5)):
        instrs[index].a = Imm(addresses[target])

    def revoke(proc, cpu):
        proc.memory.protect(TEXT + PAGE_SIZE, PAGE_SIZE, Perm.R)
        return 0

    process.register_service("revoke", revoke)
    return process, addresses


@pytest.mark.parametrize("inside", [True, False], ids=["inside-nop", "after-nop"])
def test_execute_permission_revoked_under_a_straddling_block(inside, monkeypatch):
    """Every backend faults at the same instruction, with the same
    registers, counters and resident set, when a text page loses execute
    permission under a block that straddles it — through ``run`` and
    through ``step()`` slices.  On ``jit`` the block is compiled, so its
    prolog finds the second page unchecked and deopts, and the
    revalidation fails: the interpreter span that follows raises the
    fault."""
    jit = get_backend("jit")
    revalidations = []
    real = jit._revalidate

    def recording(*args):
        revalidations.append(real(*args))
        return revalidations[-1]

    monkeypatch.setattr(jit, "_revalidate", recording)
    processes = []

    def make():
        process, _ = straddling_loop_process(inside)
        processes.append(process)
        return process

    # The NOP itself, or the first instruction on the second page.
    _, addresses = straddling_loop_process(inside)
    fault = addresses[6 if inside else 7]
    for sliced in (False, True):
        observed = {}
        for backend in BACKENDS:
            slices = itertools.cycle([5, 3, 11]) if sliced else None
            outcome = run_one_backend(make, backend, slices=slices)
            outcome["resident"] = processes[-1].memory.resident_bytes()
            observed[backend] = outcome
        want = observed["reference"]
        assert want["error"][0] is MemoryFault
        assert want["rip"] == fault
        assert want["regs"][Reg.RCX] == 4
        assert want["resident"] == 2 * PAGE_SIZE  # both text pages, fetched
        for backend in BACKENDS:
            assert observed[backend] == want, (backend, sliced)
    assert False in revalidations


def test_clones_share_micro_ops_and_fault_on_their_own_permissions():
    """Every clone of a load runs on the load's one bound program, yet
    fetch checks stay per process: in one clone a runtime service
    revokes execute permission on a text page under a straddling block,
    and that clone faults at the reference's instruction with the
    reference's ``rip``, registers, counters and resident set, while its
    sibling, whose service changes nothing, runs clean — in either
    order, on every backend."""

    def keep(proc, cpu):
        return 0

    def run_clone(image, backend, revoking):
        process = image.clone()
        if not revoking:
            process.register_service("revoke", keep)
        outcome = run_one_backend(lambda: process, backend)
        outcome["resident"] = process.memory.resident_bytes()
        outcome["max_rss"] = process.max_rss
        return outcome

    for inside in (True, False):
        reference = straddling_loop_process(inside)[0]
        want = {revoking: run_clone(reference, "reference", revoking) for revoking in (True, False)}
        assert want[True]["error"][0] is MemoryFault and want[False]["error"] is None
        for backend in BACKENDS:
            for order in ((True, False), (False, True)):
                image = straddling_loop_process(inside)[0]
                for revoking in order:
                    assert run_clone(image, backend, revoking) == want[revoking], (
                        backend, inside, order, revoking,
                    )
    costs = get_costs("epyc-rome")
    image = straddling_loop_process(True)[0]
    states = [MachineState(image.clone(), costs) for _ in range(2)]
    fast = get_backend("fast")
    assert fast.prepare(states[0]) is fast.prepare(states[1]) is get_bound_program(image, costs)


def straddling_jump_process():
    """A counted loop on the first text page whose back edge is a
    ``jmp`` straddling into the second page; nothing else lies there."""

    def build(head, exit_):
        process, addresses = assemble(
            [
                I(Op.MOV, Reg.RCX, Imm(0)),
                I(Op.ADD, Reg.RCX, Imm(1)),  # 1: loop head
                I(Op.CMP, Reg.RCX, Imm(3)),
                I(Op.JGE, Imm(exit_)),
                I(Op.JMP, Imm(TEXT + PAGE_SIZE - 2)),
                I(Op.OUT, Reg.RCX),  # 5: exit
                I(Op.EXIT, Imm(0)),
            ]
        )
        process.place_instruction(TEXT + PAGE_SIZE - 2, I(Op.JMP, Imm(head), size=5))
        return process, addresses

    _, addresses = build(0, 0)
    return build(addresses[1], addresses[5])[0]


@pytest.mark.parametrize("executable", [True, False])
def test_a_straddling_instruction_is_fetch_checked_on_every_fetch(executable):
    """An instruction whose bytes reach into a second page is checked on
    each fetch, so that page is resident exactly as on the reference
    (even when the first page's check already passed), and a second page
    without execute permission faults at the straddling instruction."""
    processes = []

    def make():
        process = straddling_jump_process()
        if not executable:
            process.memory.protect(TEXT + PAGE_SIZE, PAGE_SIZE, Perm.RW)
        processes.append(process)
        return process

    observed = {}
    for backend in BACKENDS:
        observed[backend] = run_one_backend(make, backend)
        observed[backend]["resident"] = processes[-1].memory.resident_bytes()
    want = observed["reference"]
    if executable:
        assert want["error"] is None and want["resident"] == 2 * PAGE_SIZE
    else:
        assert want["error"][0] is MemoryFault
        assert want["rip"] == TEXT + PAGE_SIZE - 2
    for backend in BACKENDS:
        assert observed[backend] == want, backend


def test_step_faults_only_when_it_fetches_a_missing_instruction():
    """A ``step`` whose last instruction transfers to an address with no
    instruction returns with ``rip`` on that address; the next ``step``
    raises.  Three ways there: a jump to an unmapped address, falling off
    the end of text, and a ``ret`` into the (non-executable) data."""
    cases = {
        "jmp-unmapped": (
            lambda: [I(Op.MOV, Reg.RAX, Imm(1)), I(Op.JMP, Imm(0xDEAD000)), I(Op.EXIT, Imm(0))],
            0xDEAD000,
            MemoryFault,
        ),
        "end-of-text": (
            lambda: [I(Op.MOV, Reg.RAX, Imm(1)), I(Op.NOP)],
            None,
            InvalidInstruction,
        ),
        "ret-into-data": (
            lambda: [I(Op.PUSH, Imm(DATA)), I(Op.RET), I(Op.EXIT, Imm(0))],
            DATA,
            MemoryFault,
        ),
    }
    for name, (make, target, fault) in cases.items():
        observed = {}
        for backend_name in BACKENDS:
            process, addresses = assemble(make())
            state = MachineState(process, get_costs("epyc-rome"))
            state.rip = process.entry_point
            backend = get_backend(backend_name)
            program = backend.prepare(state)
            res = ExecutionResult()
            halted = backend.step(program, state, res, 2)
            first = (halted, state.rip, dataclasses.asdict(res))
            with pytest.raises(MachineError) as error:
                backend.step(program, state, res, 2)
            observed[backend_name] = (
                first, type(error.value), str(error.value), state.rip,
                dataclasses.asdict(res),
            )
        end = addresses[-1] + make()[-1].size
        reference = observed["reference"]
        assert reference[0][:2] == (False, end if target is None else target), name
        assert reference[0][2]["instructions"] == 2, name
        assert reference[1] is fault, name
        for backend_name in BACKENDS:
            assert observed[backend_name] == reference, (name, backend_name)


# ---------------------------------------------------------------------------
# Observability parity: counters and folded-stack profiles must be
# byte-identical between backends across seeds and BTRA modes.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("btra_mode", ["avx", "push"])
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_perf_counters_and_profiles_identical(seed, btra_mode):
    """Folded profiles, per-tag cycle decomposition, and shadow-ICache
    attribution are backend-byte-identical.  The observed leg runs the
    jit on ``fast``; the plain leg below compiles the xz workload's hot
    blocks and loop traces, so its BTRA-displaced returns execute in
    compiled block functions."""
    from repro.obs.profiler import CycleProfiler
    from repro.workloads.spec import build_spec_benchmark

    module = build_spec_benchmark("xz")
    binary = compile_module(module, R2CConfig.full(seed=seed, btra_mode=btra_mode))
    observed = {}
    for backend in BACKENDS:
        process = load_binary(binary, seed=seed)
        state = MachineState(process, get_costs("epyc-rome"), attribute_tags=True)
        profiler = CycleProfiler(state)
        result = run(state, backend)
        observed[backend] = {
            "folded": profiler.folded_stacks(),
            "hottest": profiler.hottest_rips(5),
            "result": dataclasses.asdict(result),
        }
    for backend in BACKENDS:
        assert observed[backend] == observed["reference"], backend

    # Plain leg: no profiler, no attribution — the only drive the jit
    # compiles (the observed leg above ran it on fast).
    lean = {}
    for backend in BACKENDS:
        process = load_binary(binary, seed=seed)
        state = MachineState(process, get_costs("epyc-rome"))
        result = run(state, backend)
        lean[backend] = dataclasses.asdict(result)
        if backend == "jit":
            jit_program = get_backend("jit").prepare(state)
    for backend in BACKENDS:
        assert lean[backend] == lean["reference"], backend
    # The jit leg ran xz's hot loop as an installed loop trace (freshly
    # compiled or taken from the image's code cache).
    assert jit_program.trace_info()


# ---------------------------------------------------------------------------
# Trace hooks and the debugger ride on either backend.
# ---------------------------------------------------------------------------


def test_trace_fn_sees_identical_stream():
    streams = {}
    for backend in BACKENDS:
        seen = []
        process, _ = assemble(
            [
                I(Op.MOV, Reg.RAX, Imm(7)),
                I(Op.OUT, Reg.RAX),
                I(Op.EXIT, Imm(0)),
            ]
        )
        state = MachineState(
            process,
            get_costs("epyc-rome"),
            trace_fn=lambda c, rip, ins: seen.append((rip, ins.op, c.rip)),
        )
        run(state, backend)
        streams[backend] = seen
    assert streams["reference"] == streams["fast"]
    # The hook observes state.rip parked on the traced instruction.
    assert all(rip == cur for rip, _, cur in streams["fast"])


def test_debugger_breakpoints_work_on_fast_backend():
    states = {}
    for backend in BACKENDS:
        instrs = [
            I(Op.MOV, Reg.RAX, Imm(1)),
            I(Op.ADD, Reg.RAX, Imm(2)),
            I(Op.OUT, Reg.RAX),
            I(Op.EXIT, Imm(0)),
        ]
        process, addresses = assemble(instrs)
        state = MachineState(process, get_costs("epyc-rome"))
        debugger = Debugger(state, backend=backend)
        debugger.add_breakpoint(addresses[2])
        assert not debugger.cont()  # stopped at the OUT
        at_break = (state.rip, state.regs[Reg.RAX])
        assert debugger.cont()  # runs to completion
        states[backend] = (at_break, debugger.result.exit_code, list(process.output))
    assert states["reference"] == states["fast"]


# ---------------------------------------------------------------------------
# The bind stage: one program per (process, cost model), bound as fetched.
# ---------------------------------------------------------------------------


def test_bound_program_cached_per_process_and_costs():
    process, _ = assemble([I(Op.NOP), I(Op.EXIT, Imm(0))])
    costs = get_costs("epyc-rome")
    program = get_bound_program(process, costs)
    assert get_bound_program(process, costs) is program
    other = get_bound_program(process, get_costs("xeon"))
    assert other is not program
    assert program.index == {}


def test_fast_binds_only_what_it_fetches():
    def build(target):
        return assemble([I(Op.JMP, Imm(target)), I(Op.NOP), I(Op.EXIT, Imm(0))])

    _, addresses = build(0)
    process, addresses = build(addresses[2])
    state = MachineState(process, get_costs("epyc-rome"))
    run(state, "fast")
    program = get_backend("fast").prepare(state)
    assert sorted(program.index) == [addresses[0], addresses[2]]


def test_fast_links_what_it_binds():
    """Unlinked micro-ops give the same results, only slower, so no
    differential test can see a ``fast`` loop that never stores what it binds:
    check the links themselves after a counted loop."""

    def build(loop_head):
        return assemble(
            [
                I(Op.MOV, Reg.RCX, Imm(0)),    # 0
                I(Op.ADD, Reg.RCX, Imm(1)),    # 1: loop head
                I(Op.CMP, Reg.RCX, Imm(5)),    # 2
                I(Op.JL, Imm(loop_head)),      # 3: back edge
                I(Op.OUT, Reg.RCX),            # 4
                I(Op.EXIT, Imm(0)),            # 5
            ]
        )

    _, addresses = build(0)
    process, addresses = build(addresses[1])
    state = MachineState(process, get_costs("epyc-rome"))
    assert run(state, "fast").output == [5]
    index = get_backend("fast").prepare(state).index
    assert sorted(index) == addresses
    back_edge = index[addresses[3]]
    assert back_edge.target is index[addresses[1]]
    for addr in addresses[:5]:  # every executed fall-through
        follower = index[addr].next_u
        assert follower.__class__ is MicroOp
        assert follower.rip == index[addr].next_rip


@pytest.mark.parametrize("attribute_tags", [False, True])
@pytest.mark.parametrize("backend", BACKENDS)
def test_finished_process_frees_its_memory(backend, attribute_tags):
    """A run leaves no reference cycle that holds the process's memory:
    once the process and its state are dropped, reference counting alone
    frees the memory (the collector stays off)."""
    from repro.workloads.spec import build_spec_benchmark

    binary = compile_module(build_spec_benchmark("xz"), R2CConfig.full(seed=1))
    process = load_binary(binary, seed=1)
    memory = weakref.ref(process.memory)
    enabled = gc.isenabled()
    gc.disable()
    try:
        state = MachineState(process, get_costs("epyc-rome"), attribute_tags=attribute_tags)
        result = run(state, backend)
        assert result.exit_code == 0
        del process, state, result
        assert memory() is None
    finally:
        if enabled:
            gc.enable()


def _victim_image():
    """A loaded full-R2C victim (seed 3, load seed 5) that no one runs:
    a fork server's image, which every test below clones."""
    from repro.workloads.victim import build_victim

    binary = compile_module(build_victim(), R2CConfig.full(seed=3))
    image = load_binary(binary, seed=5)
    image.register_service("attack_hook", lambda proc, cpu: 0)
    return image


def test_a_drive_nested_in_a_service_runs_on_its_own_process():
    """Clone A of a victim image runs until its ``attack_hook`` service
    fires, and the service runs clone B of the same image to completion
    before A goes on.  On ``jit`` the two drives share the load's linked
    program, so B's drive binds B's memory and output into its namespace
    and A's come back when it ends.  On every backend, each clone's
    result, ``rip``, registers, output and ``max_rss`` (read after both
    finished) equal ``reference``'s."""
    from repro.workloads.victim import fire_once

    costs = get_costs("epyc-rome")

    def observe(state, result):
        process = state.process
        process.note_resident()
        return {
            "result": dataclasses.asdict(result),
            "rip": state.rip,
            "regs": list(state.regs),
            "output": list(process.output),
            "max_rss": process.max_rss,
        }

    def nested(backend):
        image = _victim_image()
        inner = MachineState(image.clone(), costs)
        outer = MachineState(image.clone(), costs)
        runs = {}

        def hook(proc, cpu):
            runs["B"] = run(inner, backend)

        outer.process.register_service("attack_hook", fire_once(hook))
        runs["A"] = run(outer, backend)
        return {"A": observe(outer, runs["A"]), "B": observe(inner, runs["B"])}

    want = nested("reference")
    assert want["A"]["result"]["exit_code"] == want["B"]["result"]["exit_code"] == 0
    for backend in BACKENDS:
        assert nested(backend) == want, backend


def test_finished_clones_of_one_image_free_their_memory():
    """Three clones of one victim image run one after another on ``jit``,
    on the load's one program, and each is dropped when it finishes:
    reference counting alone frees every clone's memory (the collector
    stays off), because each drive takes its process's bindings out of
    the shared namespace as it ends."""
    image = _victim_image()
    costs = get_costs("epyc-rome")
    memories = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            process = image.clone()
            memories.append(weakref.ref(process.memory))
            state = MachineState(process, costs)
            assert run(state, "jit").exit_code == 0
            del process, state
        assert [memory() for memory in memories] == [None, None, None]
        assert len(image.jit_programs) == 1
    finally:
        if enabled:
            gc.enable()


def test_rerunning_same_process_reuses_bound_program():
    process, _ = assemble(
        [I(Op.MOV, Reg.RAX, Imm(3)), I(Op.OUT, Reg.RAX), I(Op.EXIT, Imm(0))]
    )
    costs = get_costs("epyc-rome")
    state = MachineState(process, costs)
    run(state, "fast")
    assert len(process.bound_programs) == 1
    run(MachineState(process, costs), "fast")
    assert len(process.bound_programs) == 1


# ---------------------------------------------------------------------------
# Backend registry.
# ---------------------------------------------------------------------------


def test_backend_registry():
    assert set(BACKENDS) <= set(available_backends())
    assert get_backend("fast").name == "fast"
    with pytest.raises(MachineError):
        get_backend("warp-drive")


def test_unknown_backend_fails_at_run():
    process, _ = assemble([I(Op.EXIT, Imm(0))])
    state = MachineState(process, get_costs("epyc-rome"))
    with pytest.raises(MachineError):
        run(state, "bogus")


# ---------------------------------------------------------------------------
# run(): the one-call entry point.
# ---------------------------------------------------------------------------


def test_run_goes_through_the_backend_instance(monkeypatch):
    """``run`` looks ``prepare`` and ``execute`` up on the backend
    instance at call time, so wrappers installed there see every run."""
    jit = get_backend("jit")
    calls = []

    def recording(name, method):
        def wrapper(*args):
            calls.append(name)
            return method(*args)

        return wrapper

    # Patching the instance dict (not the attribute) lets the undo delete
    # the wrappers instead of leaving bound methods behind on the instance.
    monkeypatch.setitem(vars(jit), "prepare", recording("prepare", jit.prepare))
    monkeypatch.setitem(vars(jit), "execute", recording("execute", jit.execute))
    process, _ = assemble(
        [I(Op.MOV, Reg.RAX, Imm(7)), I(Op.OUT, Reg.RAX), I(Op.EXIT, Imm(0))]
    )
    result = run(MachineState(process, get_costs("epyc-rome")), "jit")
    assert calls == ["prepare", "execute"]
    assert result.output == [7]


def test_run_needs_an_entry_point():
    process, _ = assemble([I(Op.EXIT, Imm(0))])
    process.entry_point = None
    with pytest.raises(MachineError, match="^process has no entry point$"):
        run(MachineState(process, get_costs("epyc-rome")))
