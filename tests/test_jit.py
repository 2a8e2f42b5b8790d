"""Tests for the tier-2 jit backend and the progressive-lowering pipeline.

The differential suite (:mod:`tests.test_backends`) already holds ``jit``
to byte-identical results against ``reference`` and ``fast`` across
seeds and BTRA modes — every backend in the registry participates.  This
module covers what is specific to lowering: the block CFG recovery and
fusion tiers, monotone i-cache detection, the compiled-code cache shared
across loads of one image, and the deopt contract under a debugger —
breakpoints and single-stepping mid-run must observe the exact same
machine trajectory on ``jit`` as on ``fast``, including through
BTRA-displaced returns.
"""

import dataclasses
import functools
import itertools
import re
import sys
from types import SimpleNamespace

import pytest

from repro.core.compiler import compile_module
from repro.core.config import R2CConfig
from repro.defenses.lockstep import LockstepGroup, MveeOutcome
from repro.errors import (
    BoobyTrapTriggered,
    ExecutionLimitExceeded,
    GuardPageFault,
    MachineError,
    MemoryFault,
    StackMisaligned,
)
from repro.machine.backends import ReferenceBackend, get_backend, run
from repro.machine.blocks import recover_blocks
from repro.machine.costs import get_costs
from repro.machine.debugger import Debugger
from repro.machine import jit as jit_module
from repro.machine.isa import Imm, Instruction, Mem, Op, Reg
from repro.machine.jit import (
    _CODE_CACHE,
    _SliceCompiler,
    _TraceCompiler,
    _classify,
    _text_fits_icache,
    clear_jit_cache,
    jit_stats_snapshot,
    lower_slice,
)
from repro.machine.loader import load_binary
from repro.machine.memory import Perm
from repro.machine.state import ExecutionResult, MachineState
from repro.toolchain.binary import Binary
from repro.toolchain.builder import IRBuilder
from repro.workloads.spec import SPEC_BENCHMARKS, build_spec_benchmark
from repro.workloads.victim import build_victim
from repro.workloads.webserver import build_webserver

from tests.test_backends import (
    BACKENDS, DATA, HEAP, assemble, compare_backends, run_one_backend,
)
from tests.test_differential_fuzz import _slices, build_spec

I = Instruction


def loop_module():
    """A module whose hot loop re-enters its block heads many times —
    enough to cross the jit promotion threshold within one run."""
    ir = IRBuilder("jitloop")
    double = ir.function("double", params=["x"])
    double.ret(double.mul(double.param("x"), 2))
    main = ir.function("main")
    main.local("i")
    main.local("acc")
    main.store_local("i", 0)
    main.store_local("acc", 0)
    main.br("loop")
    main.new_block("loop")
    i = main.load_local("i")
    cond = main.cmp("lt", i, 50)
    main.cbr(cond, "body", "done")
    main.new_block("body")
    doubled = main.call("double", [main.load_local("i")])
    main.store_local("acc", main.add(main.load_local("acc"), doubled))
    main.store_local("i", main.add(main.load_local("i"), 1))
    main.br("loop")
    main.new_block("done")
    main.out(main.load_local("acc"))
    main.ret(0)
    return ir.finish()


# ---------------------------------------------------------------------------
# Debugger-triggered deopt: breakpoints and single steps mid-run must not
# perturb anything, through BTRA-displaced returns.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("btra_mode", ["avx", "push"])
def test_debugger_breakpoint_and_steps_identical_on_jit(btra_mode):
    """Break inside a callee, single-step through its (BTRA-displaced)
    return, continue to exit: ``jit`` == ``fast`` at every observation."""
    binary = compile_module(
        loop_module(), R2CConfig.full(seed=7, btra_mode=btra_mode)
    )
    observed = {}
    for backend in ("fast", "jit"):
        process = load_binary(binary, seed=1)
        state = MachineState(process, get_costs("epyc-rome"))
        debugger = Debugger(state, backend=backend)
        debugger.break_at("double")
        stream = []
        stops = 0
        # Stop at the callee a few times; single-step each stop through
        # the RET (BTRA displaces the on-stack return address — the
        # executed stream must come back to the call site regardless).
        while stops < 3 and not debugger.cont():
            stops += 1
            stream.append(("stop", state.rip, list(state.regs)))
            for _ in range(25):
                if debugger.step(1):
                    break
                stream.append(state.rip)
        finished = debugger.finished or debugger.cont()
        while not finished:
            finished = debugger.cont()
        observed[backend] = {
            "stops": stops,
            "stream": stream,
            "result": dataclasses.asdict(debugger.result),
            "output": list(process.output),
            "rip": state.rip,
        }
    assert observed["jit"] == observed["fast"]


def test_debugged_run_equals_unbroken_run_on_jit():
    """The accumulated result of a breakpointed jit session equals an
    uninterrupted jit run (and the fast run) exactly."""
    binary = compile_module(loop_module(), R2CConfig.full(seed=8))

    def plain(backend):
        process = load_binary(binary, seed=1)
        state = MachineState(process, get_costs("epyc-rome"))
        return dataclasses.asdict(run(state, backend))

    process = load_binary(binary, seed=1)
    state = MachineState(process, get_costs("epyc-rome"))
    debugger = Debugger(state, backend="jit")
    debugger.break_at("double")
    while not debugger.cont():
        debugger.step(3)
    debugged = dataclasses.asdict(debugger.result)

    assert debugged == plain("jit")
    assert debugged == plain("fast")


def test_single_stepping_drives_the_deopt_path():
    """max_steps=1 slices can never satisfy a block prolog's folded
    allowance, so a stepped jit session must route through the deopt
    escape once blocks are promoted — and still finish correctly."""
    binary = compile_module(loop_module(), R2CConfig.full(seed=9))
    process = load_binary(binary, seed=1)
    state = MachineState(process, get_costs("epyc-rome"))
    debugger = Debugger(state, backend="jit")
    before = jit_stats_snapshot()
    while not debugger.step(1):
        pass
    after = jit_stats_snapshot()
    assert after["deopts"] > before["deopts"]
    assert debugger.result.exit_code == 0


# ---------------------------------------------------------------------------
# Tier 3 deopt contract: mid-trace events — a breakpoint landing inside
# a compiled loop trace, budget exhaustion mid-iteration, and a
# permission change between back edges — must all hand execution back to
# the interpreter with the exact fast-backend stream.
# ---------------------------------------------------------------------------


def hot_loop_spec(iterations=80):
    """A machine-level counted loop, hot enough to compile a tier-3 loop
    trace within one run.  Returns (spec, head_index, body_index)."""
    spec = [
        (Op.MOV, Reg.RAX, Imm(0)),
        (Op.MOV, Reg.RBP, Imm(DATA)),
        (Op.MOV, Reg.RCX, Imm(iterations)),
    ]
    head = len(spec)
    spec.append((Op.ADD, Reg.RAX, Imm(3)))
    body = len(spec)
    spec.append((Op.MOV, Mem(Reg.RBP, 8), Reg.RAX))
    spec.append((Op.MOV, Reg.RBX, Mem(Reg.RBP, 8)))
    spec.append((Op.SUB, Reg.RCX, Imm(1)))
    spec.append((Op.CMP, Reg.RCX, Imm(0)))
    spec.append((Op.JG, ("L", head), None))
    spec.append((Op.OUT, Reg.RAX, None))
    spec.append((Op.EXIT, Imm(0), None))
    spec = [entry if len(entry) == 3 else (*entry, None) for entry in spec]
    return spec, head, body


def test_breakpoint_inside_compiled_loop_trace():
    """Phase 1 runs a big step slice at full compiled speed (the loop
    trace executes); phase 2 sets a breakpoint on an address *inside*
    the trace body and continues — the trace prolog must reject its
    allowance, deopt, and the stepped stream must equal ``fast``'s."""
    spec, _head, body = hot_loop_spec()
    body_addr = build_spec(spec)[1][body]
    observed = {}
    for backend in ("fast", "jit"):
        process, addresses = build_spec(spec)
        state = MachineState(process, get_costs("epyc-rome"))
        debugger = Debugger(state, backend=backend)
        before = jit_stats_snapshot()
        debugger.step(300)
        mid = jit_stats_snapshot()
        debugger.add_breakpoint(addresses[body])
        stream = []
        assert not debugger.cont()
        stream.append(("stop", state.rip, list(state.regs)))
        for _ in range(30):
            if debugger.step(1):
                break
            stream.append(state.rip)
        debugger.remove_breakpoint(addresses[body])
        finished = debugger.finished
        while not finished:
            finished = debugger.cont()
        observed[backend] = {
            "stream": stream,
            "result": dataclasses.asdict(debugger.result),
            "rip": state.rip,
            "output": list(process.output),
        }
        if backend == "jit":
            # The big slice really did compile and enter a loop trace.
            assert mid["loop_traces"] > before["loop_traces"]
    assert observed["jit"] == observed["fast"]
    # The stop parked exactly on the mid-trace breakpoint address.
    assert observed["jit"]["stream"][0][1] == body_addr


def test_budget_exhaustion_mid_trace_iteration():
    """An instruction budget landing mid-iteration: the loop trace must
    refuse the iteration it cannot afford, deopt, and let the
    interpreter raise ExecutionLimitExceeded at the exact instruction."""
    spec, head, _body = hot_loop_spec()
    body_len = 6  # ADD through JG
    budget = 3 + 50 * body_len + 2  # setup + 50 iterations + 2 instrs
    before = jit_stats_snapshot()
    outcomes = {
        backend: run_one_backend(
            lambda: build_spec(spec)[0], backend, instruction_budget=budget
        )
        for backend in ("reference", "fast", "jit")
    }
    after = jit_stats_snapshot()
    assert after["loop_traces"] > before["loop_traces"]
    assert outcomes["jit"] == outcomes["reference"]
    assert outcomes["fast"] == outcomes["reference"]
    assert outcomes["jit"]["error"][0] is ExecutionLimitExceeded
    assert outcomes["jit"]["result"]["instructions"] == budget + 1


def epoch_bump_process():
    """A nested counted loop whose outer body calls a CALLRT service that
    re-protects a heap page, which forgets every fetch-checked page (the
    re-randomization signal)."""
    spec = [
        (Op.MOV, Reg.RAX, Imm(0)),
        (Op.MOV, Reg.RDI, Imm(4)),  # outer trips
    ]
    outer = len(spec)
    spec.append((Op.MOV, Reg.RCX, Imm(40)))  # inner trips
    inner = len(spec)
    spec.append((Op.ADD, Reg.RAX, Imm(1)))
    spec.append((Op.SUB, Reg.RCX, Imm(1)))
    spec.append((Op.CMP, Reg.RCX, Imm(0)))
    spec.append((Op.JG, ("L", inner)))
    spec.append((Op.CALLRT, Imm(symbol="bump")))
    spec.append((Op.SUB, Reg.RDI, Imm(1)))
    spec.append((Op.CMP, Reg.RDI, Imm(0)))
    spec.append((Op.JG, ("L", outer)))
    spec.append((Op.OUT, Reg.RAX))
    spec.append((Op.EXIT, Imm(0)))
    spec = [entry if len(entry) == 3 else (*entry, None) for entry in spec]
    process, _ = build_spec(spec)

    def bump(proc, cpu):
        # Same permissions, no page fetch-checked: exactly what a benign
        # re-randomization step looks like to the fetch path.
        proc.memory.protect(HEAP, 4096, Perm.RW)
        return 0

    process.register_service("bump", bump)
    return process


def test_fetch_epoch_bump_between_back_edges():
    """A CALLRT service between inner-loop activations changes
    permissions, which empties the memory's set of fetch-checked pages.
    The installed trace's prolog must find its text pages unchecked; the
    driver fetch-checks them, adds them to the set and re-enters the same
    compiled trace."""
    before = jit_stats_snapshot()
    outcomes = {
        backend: run_one_backend(epoch_bump_process, backend)
        for backend in ("reference", "fast", "jit")
    }
    after = jit_stats_snapshot()
    assert outcomes["jit"] == outcomes["reference"]
    assert outcomes["fast"] == outcomes["reference"]
    assert outcomes["jit"]["error"] is None
    assert after["loop_traces"] > before["loop_traces"]
    # The trace was compiled once and revalidated after each permission
    # change, not recompiled: the jit run saw 4 inner-loop activations
    # but at most one trace compilation for the head.
    assert after["traces_compiled"] - before["traces_compiled"] <= 2


def test_a_drive_nested_in_a_trace_recording_keeps_its_own_requests(monkeypatch):
    """A loop head whose block jumps to a block ending in a runtime call,
    so every recording through the head runs the call.  On even trips,
    clone A's service drives a clone of the same image from the loop's
    last block with one trip left, which runs compiled code and passes
    the head once.  The clones share the load's program and its armed
    heads, so some of those drives start while A's recording of the
    head is pending; a nested drive must neither take that request nor
    resolve it.  Every run equals ``reference``, on every backend."""
    spec = [
        (Op.MOV, Reg.RCX, Imm(24)),
        (Op.SUB, Reg.RCX, Imm(1)),  # 1: the loop head
        (Op.JMP, ("L", 3)),
        (Op.CALLRT, Imm(symbol="nest")),
        (Op.ADD, Reg.RAX, Reg.RCX),  # 4: the loop's last block
        (Op.CMP, Reg.RCX, Imm(0)),
        (Op.JG, ("L", 1)),
        (Op.OUT, Reg.RAX),
        (Op.EXIT, Imm(0)),
    ]
    spec = [entry if len(entry) == 3 else (*entry, None) for entry in spec]

    def nested(backend):
        image, addresses = build_spec(spec)
        image.register_service("nest", lambda proc, cpu: 0)
        impl = get_backend(backend)
        inner = []

        def nest(proc, cpu):
            if cpu.regs[Reg.RCX] % 2 == 0:
                state = MachineState(image.clone(), get_costs("epyc-rome"))
                state.regs[Reg.RCX] = 1
                state.rip = addresses[4]
                result = impl.execute(impl.prepare(state), state, ExecutionResult())
                inner.append((dataclasses.asdict(result), state.rip, list(state.regs)))
            return 0

        outer = image.clone()
        outer.register_service("nest", nest)
        return run_one_backend(lambda: outer, backend), inner

    jit = get_backend("jit")
    recording = []
    nested_in_recording = []
    real_record, real_drive = jit._record, jit._drive

    def record(*args):
        recording.append(True)
        try:
            return real_record(*args)
        finally:
            recording.pop()

    def drive(*args):
        nested_in_recording.append(bool(recording))
        return real_drive(*args)

    monkeypatch.setattr(jit, "_record", record)
    monkeypatch.setattr(jit, "_drive", drive)
    observed = {backend: nested(backend) for backend in ("reference", "fast", "jit")}
    assert any(nested_in_recording)
    want = observed["reference"]
    assert want[0]["error"] is None and len(want[1]) == 12
    assert observed["jit"] == want
    assert observed["fast"] == want


def test_fault_at_an_address_a_loop_trace_covers_twice():
    """A loop trace can cover one guest address in two segments, each
    with its own executed prefix, which is why fault tables are keyed by
    generated source line.  The trace forms at M as ``[M, H, N]``, so
    ``M…je`` appears both as its own segment and inside H's.  RBX walks
    off the end of the data mapping; 510 or 511 loads before the fault
    land the faulting load in each of the two copies.  The fault, its
    ``rip``, registers and counters must equal the interpreters'."""
    for loads in (510, 511):
        spec = [
            (Op.MOV, Reg.RAX, Imm(0)),
            (Op.MOV, Reg.RBX, Imm(DATA + 0x10000 - 8 * loads)),
            (Op.MOV, Reg.RCX, Imm(10_000)),
            (Op.MOV, Reg.RSI, Imm(0)),
            (Op.JMP, ("L", 12)),
            (Op.SUB, Reg.RCX, Imm(1)),  # 5: H
            (Op.MOV, Reg.RDX, Mem(Reg.RBX, 0)),  # 6: M
            (Op.ADD, Reg.RAX, Reg.RDX),
            (Op.ADD, Reg.RBX, Imm(8)),
            (Op.XOR, Reg.RSI, Imm(1)),
            (Op.CMP, Reg.RSI, Imm(0)),
            (Op.JE, ("L", 5)),
            (Op.CMP, Reg.RCX, Imm(0)),  # 12: N
            (Op.JG, ("L", 6)),
            (Op.EXIT, Imm(0)),
        ]
        spec = [entry if len(entry) == 3 else (*entry, None) for entry in spec]
        process, addresses = build_spec(spec)
        state = MachineState(process, get_costs("epyc-rome"))
        with pytest.raises(MemoryFault):
            run(state, "jit")
        head, h, n = addresses[6], addresses[5], addresses[12]
        assert get_backend("jit").prepare(state).trace_info() == {
            head: {"segments": [head, h, n], "length": 15}
        }
        outcome = compare_backends(lambda: build_spec(spec)[0])
        assert outcome["error"][0] is MemoryFault
        assert outcome["rip"] == head
        assert outcome["regs"][Reg.RBX] == DATA + 0x10000
        assert outcome["regs"][Reg.RSI] == (0 if loads == 510 else 1)


def test_indirect_jump_target_flip_identical():
    """A hot ``jmp reg`` whose target flips permanently mid-run: the
    block ending in it runs compiled at tier 2, returning whichever
    target the register holds, and no trace forms through it — all
    byte-identical to the interpreter backends."""
    spec = [
        (Op.MOV, Reg.RAX, Imm(0)),
        (Op.MOV, Reg.RCX, Imm(240)),
    ]
    target_slot = len(spec)
    spec.append((Op.MOV, Reg.RDX, None))  # patched: address of landing A
    head = len(spec)
    spec.append((Op.ADD, Reg.RAX, Imm(1)))
    spec.append((Op.JMP, Reg.RDX))
    landing_a = len(spec)
    spec.append((Op.ADD, Reg.RAX, Imm(2)))
    jmp_common = len(spec)
    spec.append((Op.JMP, None))  # patched: common tail
    landing_b = len(spec)
    spec.append((Op.ADD, Reg.RAX, Imm(5)))
    common = len(spec)
    spec.append((Op.SUB, Reg.RCX, Imm(1)))
    spec.append((Op.CMP, Reg.RCX, Imm(200)))
    jne_skip = len(spec)
    spec.append((Op.JNE, None))  # patched: skip the target flip
    switch_slot = len(spec)
    spec.append((Op.MOV, Reg.RDX, None))  # patched: address of landing B
    skip = len(spec)
    spec.append((Op.CMP, Reg.RCX, Imm(0)))
    spec.append((Op.JG, ("L", head)))
    spec.append((Op.OUT, Reg.RAX))
    spec.append((Op.EXIT, Imm(0)))
    spec = [entry if len(entry) == 3 else (*entry, None) for entry in spec]
    spec[target_slot] = (Op.MOV, Reg.RDX, ("L", landing_a))
    spec[jmp_common] = (Op.JMP, ("L", common), None)
    spec[jne_skip] = (Op.JNE, ("L", skip), None)
    spec[switch_slot] = (Op.MOV, Reg.RDX, ("L", landing_b))

    before = jit_stats_snapshot()
    outcomes = {
        backend: run_one_backend(lambda: build_spec(spec)[0], backend)
        for backend in ("reference", "fast", "jit")
    }
    after = jit_stats_snapshot()
    assert outcomes["jit"] == outcomes["reference"]
    assert outcomes["fast"] == outcomes["reference"]
    assert outcomes["jit"]["error"] is None
    assert after["blocks_compiled"] > before["blocks_compiled"]
    assert after["traces_compiled"] == before["traces_compiled"]


def test_loop_traces_form_only_through_direct_branches():
    """The tier-3 boundary.  A hot loop that calls a function compiles
    its blocks but no trace (the call ends every recording), and stays
    byte-identical to ``reference``.  A loop whose blocks are joined by a
    direct ``jmp`` and a ``jcc`` forms exactly one loop trace."""
    binary = compile_module(loop_module(), R2CConfig.full(seed=12))
    clear_jit_cache()
    before = jit_stats_snapshot()
    compare_backends(lambda: load_binary(binary, seed=1))
    after = jit_stats_snapshot()
    assert after["blocks_compiled"] > before["blocks_compiled"]
    assert after["traces_compiled"] == before["traces_compiled"]

    spec = [
        (Op.MOV, Reg.RAX, Imm(0)),
        (Op.MOV, Reg.RCX, Imm(60)),
        (Op.ADD, Reg.RAX, Imm(3)),  # 2: loop head
        (Op.JMP, ("L", 5), None),  # direct jump to the latch
        (Op.EXIT, Imm(1), None),  # never runs
        (Op.SUB, Reg.RCX, Imm(1)),  # 5: latch
        (Op.CMP, Reg.RCX, Imm(0)),
        (Op.JG, ("L", 2), None),
        (Op.OUT, Reg.RAX, None),
        (Op.EXIT, Imm(0), None),
    ]
    before = jit_stats_snapshot()
    outcome = compare_backends(lambda: build_spec(spec)[0])
    after = jit_stats_snapshot()
    assert outcome["result"]["output"] == [180]
    assert after["loop_traces"] - before["loop_traces"] == 1
    assert after["traces_compiled"] - before["traces_compiled"] == 1


# ---------------------------------------------------------------------------
# Tier 1: CFG recovery, fusion, and the tiers the jit assigns.
# ---------------------------------------------------------------------------


def test_block_recovery_boundaries_and_fusion(capsys):
    """Tier-1 CFG recovery splits at branch targets and after
    terminators, and the ``disasm-blocks`` dump reports what the jit
    compiles: every block head the jit lowered while running the
    workload is at tier 2 in the dump, every head it refused at tier 1."""
    def build(loop_head):
        return assemble(
            [
                I(Op.MOV, Reg.RAX, Imm(0)),       # 0: falls into loop head
                I(Op.PUSH, Reg.RAX),              # 1: loop head (branch target)
                I(Op.PUSH, Reg.RBX),              # 2: push run with 1
                I(Op.POP, Reg.RBX),               # 3
                I(Op.POP, Reg.RAX),               # 4
                I(Op.ADD, Reg.RAX, Imm(1)),       # 5
                I(Op.CMP, Reg.RAX, Imm(3)),       # 6: fuses with 7
                I(Op.JL, Imm(loop_head)),         # 7: back edge
                I(Op.EXIT, Imm(0)),               # 8
            ]
        )

    # Two-pass: assemble to learn the loop head, reassemble with the
    # back edge pointing at it (the target width may shift addresses, so
    # iterate to a fixed point).
    _, addresses = build(0)
    while True:
        process, new_addresses = build(addresses[1])
        if new_addresses == addresses:
            break
        addresses = new_addresses
    blocks = {block.addr: block for block in recover_blocks(process.instructions)}
    assert len(blocks) == 3
    heads = sorted(blocks)
    assert heads == [addresses[0], addresses[1], addresses[8]]
    loop = blocks[addresses[1]]
    assert len(loop) == 7
    assert ("taken", addresses[1]) in loop.successors()
    lowering = lower_slice(process.instructions, addresses[1])
    assert lowering.compiles
    assert {kind for kind, _, _ in lowering.fused} == {"cmp+jcc", "push-run"}

    from repro.__main__ import main

    assert main(["disasm-blocks", "xz"]) == 0
    dump = capsys.readouterr().out
    assert "918 blocks, 918 at tier 2, 0 at tier 1" in dump.splitlines()[0]
    tiers = {
        int(head, 16): int(tier)
        for head, tier in re.findall(
            r"^block \d+[^:]*: \[(0x[0-9a-f]+), 0x[0-9a-f]+\) \d+ uops, tier (\d)$",
            dump,
            re.MULTILINE,
        )
    }
    assert len(tiers) == 918
    # Run the dumped image (same compile seed, load seed and cost model)
    # under the jit and read back which heads it compiled.
    binary = compile_module(build_spec_benchmark("xz"), R2CConfig.full(seed=1))
    process = load_binary(binary, seed=1)
    state = MachineState(process, get_costs("epyc-rome"))
    jit = get_backend("jit")
    jit_program = jit.prepare(state)
    state.rip = process.entry_point
    jit.execute(jit_program, state, ExecutionResult())
    # The binary's units are keyed by text offset.
    units = {
        process.text_base + offset: unit
        for offset, unit in jit_program.units.items()
        if isinstance(offset, int) and process.text_base + offset in tiers
    }
    assert any(unit is not None for unit in units.values())
    for addr, unit in units.items():
        assert tiers[addr] == (1 if unit is None else 2), hex(addr)


def test_disasm_blocks_traces_names_every_trace(capsys):
    """``disasm-blocks --traces`` runs the workload under the jit and
    gives every loop trace its own ``trace 0x…`` section: each head an
    ``in trace`` annotation names has one, and the sections match the
    count in the header."""
    from repro.__main__ import main

    assert main(["disasm-blocks", "xz", "--traces"]) == 0
    dump = capsys.readouterr().out
    count = int(re.search(r"^loop traces: (\d+)$", dump, re.MULTILINE).group(1))
    members = set(re.findall(r"^  in trace (0x[0-9a-f]+)", dump, re.MULTILINE))
    sections = re.findall(
        r"^trace (0x[0-9a-f]+): \d+ segments, \d+ instructions\n  segments: (0x[0-9a-f]+)",
        dump,
        re.MULTILINE,
    )
    heads = {head for head, _ in sections}
    assert count == len(sections) >= 1
    assert members and members <= heads
    # A loop trace's first segment is its head.
    assert all(head == first for head, first in sections)


def test_monotone_icache_detection():
    costs = get_costs("epyc-rome")
    process, _ = assemble([I(Op.MOV, Reg.RAX, Imm(1)), I(Op.EXIT, Imm(0))])
    assert _text_fits_icache(process.instructions, costs)
    # ways+1 distinct lines hashing into one set force real LRU.
    sets = costs.icache_size // (costs.icache_line * costs.icache_ways)
    stride = sets * costs.icache_line
    crowded = {
        0x1000 + k * stride: SimpleNamespace(size=1)
        for k in range(costs.icache_ways + 1)
    }
    assert not _text_fits_icache(crowded, costs)


# ---------------------------------------------------------------------------
# Tiers 2 and 3: compiled code belongs to the binary.  Units are keyed
# per binary, relocated to each load's text base, and linked on a head's
# first entry in every later process.
# ---------------------------------------------------------------------------


def _run_jit(binary, seed):
    process = load_binary(binary, seed=seed)
    state = MachineState(process, get_costs("epyc-rome"))
    return process, run(state, "jit")


def test_code_cache_reused_across_loads_of_one_image():
    binary = compile_module(loop_module(), R2CConfig.full(seed=10))
    clear_jit_cache()

    before = jit_stats_snapshot()
    first_process, first = _run_jit(binary, 1)
    mid = jit_stats_snapshot()
    _, second = _run_jit(binary, 1)
    after = jit_stats_snapshot()

    assert dataclasses.asdict(first) == dataclasses.asdict(second)
    # The hot loop crosses the promotion threshold: blocks were compiled.
    assert mid["blocks_compiled"] > before["blocks_compiled"]
    # The second load (same image, same layout seed) relinks cached code
    # objects instead of recompiling.
    assert after["blocks_compiled"] == mid["blocks_compiled"]
    assert after["code_cache_hits"] > mid["code_cache_hits"]

    # A re-randomized load — another text base — compiles no block and
    # no trace: it links the same units, relocated, under one key.
    process, third = _run_jit(binary, 2)
    assert process.text_base != first_process.text_base
    assert jit_stats_snapshot()["blocks_compiled"] == after["blocks_compiled"]
    assert jit_stats_snapshot()["traces_compiled"] == after["traces_compiled"]
    assert len(_CODE_CACHE) == 1
    reference = run(
        MachineState(load_binary(binary, seed=2), get_costs("epyc-rome")), "reference"
    )
    assert dataclasses.asdict(third) == dataclasses.asdict(reference)


def test_units_are_identical_under_two_layouts(monkeypatch):
    """Every unit generated for one binary — blocks and loop traces,
    with pushed BTRAs, calls and global accesses — has byte-identical
    source and fault table under two layouts: nothing in it names an
    address of the layout it was generated under."""
    generated = {}

    def recording(generate):
        def wrapper(self):
            source = generate(self)
            generated[source.split("(", 1)[0]] = (source, self.faults)
            return source

        return wrapper

    monkeypatch.setattr(_SliceCompiler, "generate", recording(_SliceCompiler.generate))
    monkeypatch.setattr(_TraceCompiler, "generate", recording(_TraceCompiler.generate))
    binary = compile_module(
        build_spec_benchmark("xz"), R2CConfig.full(seed=3, btra_mode="push")
    )
    units = []
    for seed in (1, 2):
        clear_jit_cache()
        generated.clear()
        _run_jit(binary, seed)
        units.append(dict(generated))
    assert units[0] == units[1]
    sources = [source for source, _ in units[0].values()]
    assert any(source.startswith("def t_") for source in sources)
    assert any("sh.append(a" in source for source in sources)


def _fault_binary(kind: str) -> Binary:
    """A position-independent binary whose code faults, at the
    instruction its ``fault`` symbol names, inside a unit a first process
    compiles: ``div`` divides by a counter that reaches 0 on the loop's
    fifth trip; ``guard`` walks an indexed load through the data symbol
    ``buf`` into the guard page its constructor installs, on the fourth
    trip; ``trap`` loads a text address and runs a booby trap."""
    if kind == "div":
        code = [
            I(Op.MOV, Reg.RCX, Imm(5)),
            "loop", I(Op.SUB, Reg.RCX, Imm(1)), I(Op.MOV, Reg.RAX, Imm(100)),
            "fault", I(Op.IDIV, Reg.RAX, Reg.RCX),
        ]
    elif kind == "guard":
        code = [
            I(Op.MOV, Reg.RDX, Imm(0)), I(Op.MOV, Reg.RCX, Imm(8)),
            "loop", "fault",
            I(Op.MOV, Reg.RAX, Mem(None, 0, index=Reg.RDX, scale=8, symbol="buf")),
            I(Op.ADD, Reg.RDX, Imm(512)), I(Op.SUB, Reg.RCX, Imm(1)),
        ]
    else:
        code = [
            I(Op.JMP, Imm(symbol="loop")),
            "loop", I(Op.MOV, Reg.RAX, Imm(symbol="loop")),
            "fault", I(Op.TRAP),
        ]
    code += [
        I(Op.CMP, Reg.RCX, Imm(0)), I(Op.JG, Imm(symbol="loop")),
        I(Op.OUT, Reg.RAX), I(Op.EXIT, Imm(0)),
    ]
    symbols = {"_start": 0}
    text = []
    offset = 0
    for item in code:
        if isinstance(item, str):
            symbols[item] = offset
        else:
            text.append((offset, item))
            offset += item.size

    def guard(process, rng):
        process.memory.protect(process.data_base + 3 * 4096, 4096, Perm.NONE, guard=True)

    return Binary(
        name=f"shared-{kind}",
        text=text,
        text_size=offset,
        data_size=4 * 4096,
        symbols_text=symbols,
        symbols_data={"buf": 0},
        constructors=[guard] if kind == "guard" else [],
        metadata={"module_fingerprint": f"shared-{kind}", "config_digest": "test"},
    )


@pytest.mark.parametrize(
    "kind, error",
    [("div", MachineError), ("guard", GuardPageFault), ("trap", BoobyTrapTriggered)],
)
def test_fault_inside_a_shared_unit_reports_its_own_layout(kind, error):
    """A division by zero, a guard-page load and a booby trap, raised by
    a unit a first process compiled under another text base, report the
    second layout's ``rip``, exception message and counters — equal to
    ``reference`` — and the second process compiles nothing."""
    binary = _fault_binary(kind)
    clear_jit_cache()
    jit = get_backend("jit")
    first = load_binary(binary, seed=1)
    state = MachineState(first, get_costs("epyc-rome"))
    program = jit.prepare(state)
    state.rip = first.entry_point
    with pytest.raises(error):
        jit.execute(program, state, ExecutionResult())
    if kind == "trap":
        # A trap ends the process the first time its block runs; a
        # restarted worker still compiles the block on its second entry.
        # Its fresh result restarts the retired-instruction clock, so the
        # distance back to the first entry reads negative, inside the
        # reuse window.
        state.rip = first.symbols["loop"]
        with pytest.raises(error):
            jit.execute(program, state, ExecutionResult())

    before = jit_stats_snapshot()
    outcome = compare_backends(lambda: load_binary(binary, seed=2))
    after = jit_stats_snapshot()
    assert after["blocks_compiled"] == before["blocks_compiled"]
    assert after["code_cache_hits"] > before["code_cache_hits"]
    second = load_binary(binary, seed=2)
    assert second.text_base != first.text_base
    assert outcome["error"][0] is error
    assert outcome["rip"] == second.symbols["fault"]
    if kind == "div":
        assert outcome["error"][1] == f"division by zero at {outcome['rip']:#x}"
    elif kind == "trap":
        assert outcome["regs"][Reg.RAX] == second.symbols["loop"]


def test_second_process_interprets_nothing_where_units_are_cached(monkeypatch):
    """A head whose unit the binary's cache entry holds links on its
    first entry: a second process, under another layout, starts no
    interpreter span at any such head."""
    binary = compile_module(loop_module(), R2CConfig.full(seed=13))
    clear_jit_cache()
    _run_jit(binary, 1)
    jit = get_backend("jit")
    spans = []
    interp = jit._interp

    def recording(program, cpu, *args):
        spans.append(cpu.rip - program.base)
        return interp(program, cpu, *args)

    monkeypatch.setattr(jit, "_interp", recording)
    process, _ = _run_jit(binary, 2)
    (entry,) = _CODE_CACHE.values()
    cached = {
        offset for offset, unit in entry.units.items()
        if isinstance(offset, int) and unit is not None
    }
    assert cached and spans
    assert not cached & set(spans)


def test_later_processes_walk_no_slice_the_binary_measured(monkeypatch):
    """Slice lengths belong to the binary: after a first clone of a
    loaded image runs in ``step()`` slices, a second clone and a reload
    under another layout size every interpreter span from the memo.
    The only slices they walk are the ones tier 3 lowers again to record
    a path.  Every run equals ``reference`` on the same load."""
    binary = compile_module(build_spec_benchmark("omnetpp"), R2CConfig.full(seed=1))
    image = load_binary(binary, seed=1)

    def reload():
        return load_binary(binary, seed=2)

    walks = {}
    real = jit_module.slice_block

    def counting(*args, **kwargs):
        caller = sys._getframe(1).f_code.co_name
        walks["lower_slice" if caller == "lower_slice" else "other"] += 1
        return real(*args, **kwargs)

    def run_jit(make):
        walks.update(lower_slice=0, other=0)
        observed = run_one_backend(make, "jit", slices=itertools.repeat(97))
        return observed, dict(walks)

    monkeypatch.setattr(jit_module, "slice_block", counting)
    clear_jit_cache()
    first, first_walks = run_jit(image.clone)
    second, second_walks = run_jit(image.clone)
    reloaded, reload_walks = run_jit(reload)
    assert first_walks["other"] > 0
    assert second_walks["other"] == 0
    assert reload_walks["other"] == 0
    assert len(_CODE_CACHE) == 1

    want = run_one_backend(image.clone, "reference", slices=itertools.repeat(97))
    assert want["error"] is None
    assert first == want
    assert second == want
    assert reloaded == run_one_backend(reload, "reference", slices=itertools.repeat(97))


def test_clones_share_the_loads_linked_program_and_its_trace_tries(monkeypatch):
    """Linked code and tier-3 state belong to the load.  omnetpp in
    97-instruction ``step()`` slices: a first clone of an image links
    98 units and records 3 loop paths, all of which fail; a second
    clone enters what the first linked and re-records nothing the first
    gave up on.  A reload under another layout is a new load: it links
    every unit again (from the binary's cache, compiling nothing) and
    records the same 3 paths.  Every run equals ``reference``.

    98, not the 195 of second-entry promotion: about half of those
    units were heads at mid-block step cuts, or heads re-entered more
    than the reuse window apart, which now run on the interpreter."""
    binary = compile_module(build_spec_benchmark("omnetpp"), R2CConfig.full(seed=1))
    image = load_binary(binary, seed=1)

    def reload():
        return load_binary(binary, seed=2)

    jit = get_backend("jit")
    calls = {}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(jit, name, wrapper)

    counting("_record", jit._record)
    counting("_install", jit._install)

    def run_jit(make):
        calls.update(_record=0, _install=0)
        before = jit_stats_snapshot()
        observed = run_one_backend(make, "jit", slices=itertools.repeat(97))
        compiled = jit_stats_snapshot()["blocks_compiled"] - before["blocks_compiled"]
        return observed, (calls["_record"], calls["_install"]), compiled

    clear_jit_cache()
    first, first_calls, _ = run_jit(image.clone)
    second, second_calls, _ = run_jit(image.clone)
    reloaded, reload_calls, reload_compiled = run_jit(reload)
    assert first_calls == (3, 98)
    assert second_calls == (0, 0)
    assert reload_calls == (3, 98) and reload_compiled == 0
    state = MachineState(image.clone(), get_costs("epyc-rome"))
    assert jit.prepare(state) is jit.prepare(MachineState(image, get_costs("epyc-rome")))

    want = run_one_backend(image.clone, "reference", slices=itertools.repeat(97))
    assert want["error"] is None
    assert first == want
    assert second == want
    assert reloaded == run_one_backend(reload, "reference", slices=itertools.repeat(97))


def reuse_distance_spec(trips: int):
    """A filler loop inside an outer loop.  Returns (spec, near, far):
    ``near`` heads the filler loop and comes back every 3 instructions;
    ``far`` opens each of the ``trips`` outer trips, and a filler loop
    longer than the reuse window separates its entries."""
    filler = jit_module._REUSE_WINDOW // 3 + 1
    spec = [
        (Op.MOV, Reg.RBX, Imm(trips)),
        (Op.JMP, ("L", 2), None),
        (Op.MOV, Reg.RCX, Imm(filler)),  # far
        (Op.SUB, Reg.RCX, Imm(1)),  # near
        (Op.CMP, Reg.RCX, Imm(0)),
        (Op.JG, ("L", 3), None),
        (Op.SUB, Reg.RBX, Imm(1)),
        (Op.CMP, Reg.RBX, Imm(0)),
        (Op.JG, ("L", 2), None),
        (Op.OUT, Reg.RBX, None),
        (Op.EXIT, Imm(0), None),
    ]
    return spec, 3, 2


@pytest.mark.parametrize("slices", [None, (97, 5, 1000)], ids=["whole", "sliced"])
def test_a_head_compiles_when_it_comes_back_soon_or_often(monkeypatch, slices):
    """Promotion reads the reuse distance, in retired instructions: the
    filler loop's head compiles on its second entry, 3 instructions
    after its first; the outer loop's head, whose entries lie a filler
    loop apart, compiles on its ``_PROMOTE_COUNT``-th entry and not
    before.  Whole and in ``step()`` slices, each run equals
    ``reference``."""
    spec, near, far = reuse_distance_spec(jit_module._PROMOTE_COUNT + 1)
    _, addresses = build_spec(spec)
    jit = get_backend("jit")
    promoted = {}  # head -> the driven process's entry count at each promotion
    real = jit._promote

    def recording(program, addr):
        promoted.setdefault(addr, []).append(program.bound.entries[addr][0])
        return real(program, addr)

    monkeypatch.setattr(jit, "_promote", recording)

    def make():
        return build_spec(spec)[0]

    def schedule():
        return None if slices is None else itertools.cycle(slices)

    observed = run_one_backend(make, "jit", slices=schedule())
    assert promoted[addresses[near]] == [2]
    assert promoted[addresses[far]] == [jit_module._PROMOTE_COUNT]
    want = run_one_backend(make, "reference", slices=schedule())
    assert want["error"] is None and want["result"]["output"] == [0]
    assert observed == want


@pytest.mark.parametrize("slices", [None, (19, 1000)], ids=["whole", "sliced"])
def test_a_head_reached_at_a_step_boundary_is_entered_once(monkeypatch, slices):
    """A 3-trip loop of 6 instructions between a 1-instruction prolog
    and a 5-instruction exit block: whole, only the loop head compiles.
    With a first ``step()`` slice of 19 instructions, the compiled loop
    retires the 19th and returns the exit head as the slice's allowance
    runs out; the run enters that head once, in the next slice, so it
    does not compile either.  Both runs equal ``reference``."""
    spec = [
        (Op.MOV, Reg.RCX, Imm(3)),
        (Op.ADD, Reg.RAX, Imm(1)),  # 1: loop head
        (Op.ADD, Reg.RAX, Imm(1)),
        (Op.ADD, Reg.RAX, Imm(1)),
        (Op.SUB, Reg.RCX, Imm(1)),
        (Op.CMP, Reg.RCX, Imm(0)),
        (Op.JG, ("L", 1), None),
        (Op.ADD, Reg.RAX, Imm(2)),  # 7: exit head
        (Op.ADD, Reg.RAX, Imm(2)),
        (Op.ADD, Reg.RAX, Imm(2)),
        (Op.OUT, Reg.RAX, None),
        (Op.EXIT, Imm(0), None),
    ]
    _, addresses = build_spec(spec)
    jit = get_backend("jit")
    compiled = []
    real = jit._compile_slice

    def recording(program, addr):
        compiled.append(addr)
        return real(program, addr)

    monkeypatch.setattr(jit, "_compile_slice", recording)

    def schedule():
        return None if slices is None else iter(slices)

    def make():
        return build_spec(spec)[0]

    observed = run_one_backend(make, "jit", slices=schedule())
    assert compiled == [addresses[1]]
    want = run_one_backend(make, "reference", slices=schedule())
    assert want["error"] is None and want["result"]["output"] == [15]
    assert want["result"]["instructions"] == 24
    assert observed == want


def _lockstep_webserver(build_seed: int, backend: str):
    binary = compile_module(build_webserver(requests=32), R2CConfig.full(seed=build_seed))
    leader = load_binary(binary, seed=5)
    group = LockstepGroup(
        [leader] + [leader.clone() for _ in range(3)], backend=backend, sync_every=256
    )
    result = group.run()
    variants = [
        (
            variant.status,
            dataclasses.asdict(variant.result),
            list(variant.output),
            list(variant.state.regs),
            variant.state.rip,
        )
        for variant in result.variants
    ]
    observed = (
        result.outcome, result.divergence, result.sync_points, result.notes, variants
    )
    return binary, group, observed


@pytest.mark.parametrize("build_seed", [3, 11])
def test_lockstep_replicas_leave_rarely_routed_handlers_interpreted(build_seed):
    """The ``mvee-lockstep`` shape: a 32-request webserver under full R2C
    as one load plus 3 clones, synced every 256 instructions.  The router
    sends each request down one of 4 handler chains, so each replica
    comes back to a chain about every fourth request, farther apart than
    the reuse window, and too few times to reach ``_PROMOTE_COUNT``: no
    head inside a ``route<i>_chain<j>`` function compiles, while the
    request parser's loop does.  The group's result and every replica's
    counters, output and registers equal ``reference``'s."""
    clear_jit_cache()
    binary, group, observed = _lockstep_webserver(build_seed, "jit")
    program = group.variants[0].program
    assert all(variant.program is program for variant in group.variants)
    compiled = {
        binary.function_at_offset(head - program.base) for head in program.table
    }
    assert "parse_request" in compiled
    chains = {name for name in compiled if re.fullmatch(r"route\d_chain\d", name or "")}
    assert not chains
    _, _, want = _lockstep_webserver(build_seed, "reference")
    assert want[0] is MveeOutcome.CLEAN
    assert observed == want


@pytest.mark.parametrize("slice_length", [97, 256, 1000])
def test_forced_eviction_mid_run_stays_byte_identical(monkeypatch, slice_length):
    """With room for one binary, four processes of two binaries (xz,
    omnetpp, xz, omnetpp), driven round-robin in ``step()`` slices,
    evict each other's entries on every link.  The evicted processes run
    on the entries they linked, the second xz and omnetpp compile
    theirs again, and every run equals ``reference``."""
    monkeypatch.setattr(jit_module, "_CODE_CACHE_CAPACITY", 1)
    binaries = {
        name: compile_module(build_spec_benchmark(name), R2CConfig.full(seed=seed))
        for name, seed in (("xz", 3), ("omnetpp", 4))
    }
    order = ["xz", "omnetpp", "xz", "omnetpp"]
    clear_jit_cache()
    before = jit_stats_snapshot()
    jit = get_backend("jit")
    drives = []
    for name in order:
        process = load_binary(binaries[name], seed=1)
        state = MachineState(process, get_costs("epyc-rome"))
        program = jit.prepare(state)
        state.rip = process.entry_point
        drives.append((program, state, ExecutionResult()))
    running = list(drives)
    while running:
        running = [
            drive for drive in running if not jit.step(*drive, slice_length)
        ]
    assert len(_CODE_CACHE) == 1
    after = jit_stats_snapshot()
    assert after["code_cache_evictions"] - before["code_cache_evictions"] == 3

    wants = {
        name: run_one_backend(functools.partial(load_binary, binary, seed=1), "reference")
        for name, binary in binaries.items()
    }
    for name, (_, state, res) in zip(order, drives):
        want = wants[name]
        assert want["error"] is None
        assert dataclasses.asdict(res) == want["result"], name
        assert state.rip == want["rip"], name
        assert list(state.regs) == want["regs"], name


# ---------------------------------------------------------------------------
# Observed drives (tag attribution, a trace hook) run on ``fast``.
# ---------------------------------------------------------------------------


def test_observed_drives_run_on_fast_and_compile_nothing():
    """Jit drives with ``attribute_tags`` or a trace hook lower nothing —
    the jit counters stay put — and equal ``fast`` byte for byte; the
    hook sees every executed instruction.  A plain drive of a fresh load
    of the same binary afterwards still compiles the hot loop's blocks."""
    binary = compile_module(loop_module(), R2CConfig.full(seed=11))

    def drive(backend_name, **flags):
        process = load_binary(binary, seed=1)
        state = MachineState(process, get_costs("epyc-rome"), **flags)
        backend = get_backend(backend_name)
        program = backend.prepare(state)
        state.rip = process.entry_point
        before = jit_stats_snapshot()
        result = backend.execute(program, state, ExecutionResult())
        observed = {
            "result": dataclasses.asdict(result),
            "regs": list(state.regs),
            "rip": state.rip,
        }
        return observed, before, jit_stats_snapshot()

    clear_jit_cache()
    on_jit, before, after = drive("jit", attribute_tags=True)
    assert after == before
    assert on_jit["result"]["tag_counts"]
    assert on_jit == drive("fast", attribute_tags=True)[0]

    seen = {"jit": [], "fast": []}
    on_jit, before, after = drive(
        "jit", trace_fn=lambda cpu, rip, instr: seen["jit"].append(rip)
    )
    assert after == before
    assert len(seen["jit"]) == on_jit["result"]["instructions"] > 0
    on_fast = drive("fast", trace_fn=lambda cpu, rip, instr: seen["fast"].append(rip))[0]
    assert on_jit == on_fast
    assert seen["jit"] == seen["fast"]

    _, before, after = drive("jit")
    assert after["blocks_compiled"] > before["blocks_compiled"]


# ---------------------------------------------------------------------------
# One interpreter under the jit: every span runs on ``fast``'s micro-ops.
# ---------------------------------------------------------------------------


def test_jit_never_calls_the_reference_loop(monkeypatch):
    """With the ``reference`` loop patched to raise, unobserved jit runs
    (whole, in ``step()`` slices, out of budget, and across permission
    changes) still finish and equal the reference results computed before
    the patch."""
    binary = compile_module(build_spec_benchmark("omnetpp"), R2CConfig.full(seed=1))

    def omnetpp():
        return load_binary(binary, seed=1)

    cases = [
        (omnetpp, {}),
        (omnetpp, {"slices": itertools.repeat(97)}),
        (omnetpp, {"instruction_budget": 40_000}),
        (epoch_bump_process, {}),
    ]
    expected = [run_one_backend(make, "reference", **kwargs) for make, kwargs in cases]
    assert expected[2]["error"][0] is ExecutionLimitExceeded

    def refuse(self, program, cpu, res, max_steps):
        raise AssertionError("the jit drove the reference loop")

    monkeypatch.setattr(ReferenceBackend, "_drive", refuse)
    clear_jit_cache()
    for (make, kwargs), want in zip(cases, expected):
        assert run_one_backend(make, "jit", **kwargs) == want


def call_loop_process(trips: int, last: Op):
    """A counted loop around a call, ending in ``last`` (EXIT or TRAP)."""
    spec = [
        (Op.MOV, Reg.RCX, Imm(trips)),
        (Op.CALL, ("L", 6), None),  # loop head
        (Op.SUB, Reg.RCX, Imm(1)),
        (Op.CMP, Reg.RCX, Imm(0)),
        (Op.JG, ("L", 1), None),
        (last, Imm(0) if last is Op.EXIT else None, None),
        (Op.ADD, Reg.RAX, Imm(1)),  # the callee
        (Op.RET, None, None),
    ]
    return build_spec(spec)[0]


def _handler_counters(state):
    return [state._bk_calls, state._bk_rets, state._bk_branches, state._bk_taken,
            state._bk_traps]


@pytest.mark.parametrize("last", [Op.EXIT, Op.TRAP])
def test_fast_drive_leaves_handler_counters_zero(last):
    """``fast`` adds the handler counters into its result and zeroes
    them, whether its drive returns or raises, so a drive nested in a
    jit drive cannot count them twice."""
    fast = get_backend("fast")
    state = MachineState(call_loop_process(5, last), get_costs("epyc-rome"))
    program = fast.prepare(state)
    state.rip = state.process.entry_point
    res = ExecutionResult()
    assert not fast.step(program, state, res, 7)
    assert res.calls and res.rets and res.branches
    assert _handler_counters(state) == [0] * 5
    if last is Op.TRAP:
        with pytest.raises(BoobyTrapTriggered):
            fast.execute(program, state, res)
    else:
        fast.execute(program, state, res)
    assert _handler_counters(state) == [0] * 5
    assert (res.calls, res.rets, res.branches, res.branches_taken, res.traps) == (
        5, 5, 5, 4, int(last is Op.TRAP)
    )


def test_jit_spans_count_calls_returns_and_branches_once(monkeypatch):
    """A jit run in small ``step()`` slices interprets calls, returns and
    branches on ``fast`` inside its drives, and still matches
    ``reference`` exactly on every counter, the trap included."""
    make = functools.partial(call_loop_process, 40, Op.TRAP)
    expected = run_one_backend(make, "reference", slices=itertools.repeat(5))
    jit = get_backend("jit")
    drive = jit._fast._drive
    interpreted = dict.fromkeys(("calls", "rets", "branches"), 0)

    def counting(program, cpu, res, max_steps):
        before = {key: getattr(res, key) for key in interpreted}
        try:
            drive(program, cpu, res, max_steps)
        finally:
            for key in interpreted:
                interpreted[key] += getattr(res, key) - before[key]

    monkeypatch.setattr(jit._fast, "_drive", counting)
    before = jit_stats_snapshot()
    observed = run_one_backend(make, "jit", slices=itertools.repeat(5))
    assert jit_stats_snapshot()["blocks_compiled"] > before["blocks_compiled"]
    assert all(interpreted.values()), interpreted
    assert observed["error"][0] is BoobyTrapTriggered
    for key in ("calls", "rets", "branches", "branches_taken", "traps"):
        assert observed["result"][key] == expected["result"][key], key
    assert observed == expected


def misaligned_call_process():
    """A counted loop (12 trips) whose ``call`` heads a block that control
    reaches only through ``jmp`` and ``jne``, so the jit compiles it.  On
    the trip where ``rcx == 4`` a ``push`` misaligns the stack and a
    ``jmp`` enters that compiled ``call``."""
    spec = [
        (Op.MOV, Reg.RCX, Imm(12)),
        (Op.JMP, ("L", 6), None),
        (Op.CMP, Reg.RCX, Imm(4)),  # 2: loop top
        (Op.JNE, ("L", 6), None),
        (Op.PUSH, Imm(0), None),
        (Op.JMP, ("L", 6), None),
        (Op.CALL, ("L", 11), None),  # 6: the call head
        (Op.SUB, Reg.RCX, Imm(1)),
        (Op.CMP, Reg.RCX, Imm(0)),
        (Op.JG, ("L", 2), None),
        (Op.EXIT, Imm(0), None),
        (Op.RET, None, None),  # 11: the callee
    ]
    return build_spec(spec)


@pytest.mark.parametrize("slice_len", [None, 5], ids=["whole", "sliced"])
def test_compiled_call_raises_stack_misaligned(slice_len):
    """A misaligned ``call`` in compiled code raises the interpreters'
    ``StackMisaligned`` at the same ``rip``, with the same registers and
    counters, in a whole run and in ``step()`` slices."""

    def outcome(backend):
        slices = None if slice_len is None else itertools.repeat(slice_len)
        return run_one_backend(lambda: misaligned_call_process()[0], backend, slices)

    want = outcome("reference")
    before = jit_stats_snapshot()
    assert outcome("jit") == want
    assert jit_stats_snapshot()["blocks_compiled"] > before["blocks_compiled"]
    assert outcome("fast") == want
    assert want["error"][0] is StackMisaligned
    assert want["rip"] == misaligned_call_process()[1][6]
    assert want["regs"][Reg.RCX] == 4
    assert want["result"]["calls"] == 8


# ---------------------------------------------------------------------------
# Tiers 2 and 3: the toolchain's indexed ``mov`` forms.
# ---------------------------------------------------------------------------


def _indexed_loop_spec(trips: int, walk: int):
    """A counted loop through both indexed ``mov`` forms.

    RBP is a fixed base into the data section; RCX counts up and RDI is
    ``-RCX``.  Each iteration loads the word the previous one stored,
    through ``[rbp + rcx*8]`` (base) and ``[rdi*8 + table]`` (absolute
    table address, no base; the negative index wraps mod 2**64 back
    into the mapping), and loads ``[rbp + rsi*8 + 3]`` (unaligned)
    through RSI, which grows by ``walk`` each iteration — far enough,
    for a large ``walk``, to leave the data mapping mid-loop."""
    table = DATA + 0x800
    return [
        (Op.MOV, Reg.RBP, Imm(table)),
        (Op.MOV, Reg.RCX, Imm(0)),
        (Op.MOV, Reg.RSI, Imm(0)),
        (Op.MOV, Reg.R8, Imm(trips)),
        # loop head (entry 4)
        (Op.MOV, Reg.RAX, Mem(Reg.RBP, 0, index=Reg.RCX, scale=8)),
        (Op.ADD, Reg.RAX, Reg.RCX),
        (Op.MOV, Mem(Reg.RBP, 8, index=Reg.RCX, scale=8), Reg.RAX),
        (Op.MOV, Reg.RDI, Reg.RCX),
        (Op.NEG, Reg.RDI, None),
        (Op.MOV, Reg.RBX, Mem(None, table, index=Reg.RDI, scale=8)),
        (Op.ADD, Reg.RBX, Reg.RAX),
        (Op.MOV, Mem(None, table - 8, index=Reg.RDI, scale=8), Reg.RBX),
        (Op.MOV, Reg.RDX, Mem(Reg.RBP, 3, index=Reg.RSI, scale=8)),
        (Op.ADD, Reg.RSI, Imm(walk)),
        (Op.ADD, Reg.RCX, Imm(1)),
        (Op.SUB, Reg.R8, Imm(1)),
        (Op.CMP, Reg.R8, Imm(0)),
        (Op.JG, ("L", 4), None),
        (Op.OUT, Reg.RAX, None),
        (Op.OUT, Reg.RBX, None),
        (Op.OUT, Reg.RDX, None),
        (Op.EXIT, Imm(0), None),
    ]


@pytest.mark.parametrize("walk", [1, 64])
def test_indexed_mov_in_hot_loop_identical(walk):
    """Both indexed ``mov`` forms, with and without a base register,
    with a negative index, run compiled (tier 2, then as a loop trace)
    with results identical to the interpreters.  A
    ``walk`` of 64 words per iteration leaves the mapping after 124
    iterations: the ``MemoryFault``, its ``rip``, the registers and the
    partial counters must match too."""
    spec = _indexed_loop_spec(200, walk)
    process, addresses = build_spec(spec)
    for addr in addresses[4:13]:
        assert _classify(addr, process.instructions[addr]) is not None
    before = jit_stats_snapshot()
    outcome = compare_backends(lambda: build_spec(spec)[0])
    after = jit_stats_snapshot()
    assert after["blocks_compiled"] > before["blocks_compiled"]
    assert after["loop_traces"] > before["loop_traces"]
    if walk == 1:
        assert outcome["error"] is None
        total = sum(range(200))
        assert outcome["result"]["output"][0] == total
    else:
        assert outcome["error"][0] is MemoryFault
        assert outcome["rip"] == addresses[12]
        assert outcome["regs"][Reg.RCX] == 124


def test_every_benchmark_binary_lowers_at_tier_2():
    """No instruction of any binary the benchmark runs — the 12 SPEC
    stand-ins, the 32-request webserver and the attack victim, under
    baseline and full R2C — is left without a tier-2 lowering, so no
    hot slice is refused to the reference interpreter."""
    modules = {name: build_spec_benchmark(name) for name in SPEC_BENCHMARKS}
    modules["webserver"] = build_webserver(requests=32)
    modules["victim"] = build_victim()
    refused = []
    for name, module in modules.items():
        for label, config in (
            ("baseline", R2CConfig.baseline()), ("full", R2CConfig.full(seed=1))
        ):
            process = load_binary(compile_module(module, config), seed=1)
            refused.extend(
                (name, label, hex(addr))
                for addr, instr in process.instructions.items()
                if _classify(addr, instr) is None
            )
    assert refused == []


# ---------------------------------------------------------------------------
# Tier 2: one page view per base register (frames).
# ---------------------------------------------------------------------------


def _frame_loop(body, setup=()):
    """``setup``, then ``body`` as a 5-trip loop on R8, then RAX..RDX
    out: the loop head compiles on its second entry and runs compiled 4
    times, too few for a loop trace, so ``body`` runs as a tier-2 block."""
    spec = [(Op.MOV, Reg.R8, Imm(5)), *setup]
    head = len(spec)
    spec += body
    spec += [
        (Op.SUB, Reg.R8, Imm(1)),
        (Op.CMP, Reg.R8, Imm(0)),
        (Op.JG, ("L", head), None),
    ]
    spec += [(Op.OUT, reg, None) for reg in (Reg.RAX, Reg.RBX, Reg.RCX, Reg.RDX)]
    spec.append((Op.EXIT, Imm(0), None))
    return spec


def _leaf_call_spec():
    """A loop that calls a leaf with a stack frame: ``push rbp``, a
    32-byte and an 8 KiB ``sub rsp`` with aligned ``[rsp + d]`` and
    ``[rbp - d]`` accesses between them, the matching ``add rsp``,
    ``pop rbp`` and ``ret``."""
    spec = _frame_loop([(Op.NOP, None, None), (Op.ADD, Reg.RAX, Imm(3))])
    # The loop's first instruction calls the leaf placed after EXIT.
    spec[1] = (Op.CALL, ("L", len(spec)), None)
    spec += [
        (Op.PUSH, Reg.RBP, None),
        (Op.MOV, Reg.RBP, Reg.RSP),
        (Op.SUB, Reg.RSP, Imm(32)),
        (Op.MOV, Mem(Reg.RSP, 8), Reg.RAX),
        (Op.MOV, Mem(Reg.RSP, 16), Reg.RCX),
        (Op.MOV, Reg.RBX, Mem(Reg.RBP, -24)),
        (Op.ADD, Reg.RCX, Mem(Reg.RSP, 8)),
        (Op.SUB, Reg.RSP, Imm(8192)),
        (Op.MOV, Mem(Reg.RSP, 8), Reg.RCX),
        (Op.MOV, Reg.RDX, Mem(Reg.RSP, 8)),
        (Op.ADD, Reg.RSP, Imm(8192)),
        (Op.ADD, Reg.RSP, Imm(32)),
        (Op.POP, Reg.RBP, None),
        (Op.RET, None, None),
    ]
    return spec


def _push_run(base: int):
    """RSP set to ``base``, 10 pushes and 10 pops into rotated
    registers (R8, the loop counter, is pushed but not popped into),
    then a load of the last word of ``base``'s page."""
    regs = (Reg.RAX, Reg.RBX, Reg.RCX, Reg.RDX, Reg.RSI, Reg.RDI,
            Reg.R8, Reg.R9, Reg.R10, Reg.R11)
    spec = [(Op.MOV, Reg.RSP, Imm(base)), (Op.ADD, Reg.RAX, Imm(0x101))]
    spec += [(Op.PUSH, reg, None) for reg in regs]
    popped = (Reg.RBX, Reg.RCX, Reg.RDX, Reg.RSI, Reg.RDI, Reg.R9, Reg.R10,
              Reg.R11, Reg.R12, Reg.RAX)
    spec += [(Op.POP, reg, None) for reg in popped]
    # The word past the end of RSP's page at the first push: a push
    # that missed its page would have written there.
    spec.append((Op.ADD, Reg.RAX, Mem(None, base - (base & 4095) + 4088)))
    return spec


def _lookup(reg: Reg, write: bool = False) -> str:
    """The generated line that looks up ``reg``'s frame view."""
    view, get = ("W", "WMG") if write else ("R", "RMG")
    return f"{view}{int(reg)} = {get}(h{int(reg)} & -4096)"


#: name -> (setup, body) of a frame case (see ``_frame_loop``), with a
#: line the case's block source must hold.
FRAME_CASES = {
    # RBX holds the last two words of a page: [rbx + 16] and on lie in
    # the next page.
    "page-end": (
        [(Op.MOV, Reg.RBX, Imm(DATA + 0x1000 - 16)), (Op.MOV, Reg.RAX, Imm(0x1111))],
        [
            (Op.MOV, Mem(Reg.RBX, 0), Reg.RAX),
            (Op.MOV, Mem(Reg.RBX, 16), Reg.RAX),
            (Op.MOV, Mem(Reg.RBX, 24), Reg.RCX),
            (Op.MOV, Reg.RCX, Mem(Reg.RBX, 8)),
            (Op.MOV, Reg.RDX, Mem(Reg.RBX, 16)),
            (Op.ADD, Reg.RCX, Mem(Reg.RBX, 24)),
            (Op.ADD, Reg.RAX, Reg.RCX),
            (Op.MOV, Mem(Reg.RBX, 8), Reg.RAX),
        ],
        _lookup(Reg.RBX, write=True),
    ),
    # An unaligned base, whose [rbx + 8] also spans two pages.
    "unaligned-base": (
        [(Op.MOV, Reg.RBX, Imm(DATA + 0x1000 - 13)), (Op.MOV, Reg.RAX, Imm(0x2222))],
        [
            (Op.MOV, Mem(Reg.RBX, 0), Reg.RAX),
            (Op.MOV, Mem(Reg.RBX, 8), Reg.RCX),
            (Op.MOV, Reg.RCX, Mem(Reg.RBX, 16)),
            (Op.MOV, Reg.RDX, Mem(Reg.RBX, 8)),
            (Op.ADD, Reg.RAX, Reg.RDX),
            (Op.MOV, Mem(Reg.RBX, 16), Reg.RAX),
        ],
        "h1 = r[1]",
    ),
    # Negative displacements in the frame's page, just below it, and a
    # page and more below it.
    "negative-disp": (
        [(Op.MOV, Reg.RBX, Imm(DATA + 0x2000 + 8)), (Op.MOV, Reg.RAX, Imm(0x3333))],
        [
            (Op.MOV, Mem(Reg.RBX, -8), Reg.RAX),
            (Op.MOV, Mem(Reg.RBX, -16), Reg.RAX),
            (Op.MOV, Mem(Reg.RBX, -0x1010), Reg.RCX),
            (Op.MOV, Reg.RCX, Mem(Reg.RBX, -16)),
            (Op.ADD, Reg.RCX, Mem(Reg.RBX, -8)),
            (Op.MOV, Reg.RDX, Mem(Reg.RBX, -0x1010)),
            (Op.ADD, Reg.RAX, Reg.RCX),
            # The last word of RBX's page, where a store below the page
            # that missed it would have landed.
            (Op.ADD, Reg.RDX, Mem(None, DATA + 0x2FF8)),
        ],
        "W1[j1 - 1]",
    ),
    # A 10-push run from 32 bytes above a page start: six pushes land
    # in the page below the frame's.
    "push-run-across-page": ([], _push_run(DATA + 0x3000 + 32), _lookup(Reg.RSP, write=True)),
    # A store and loads through a base that walks into untouched pages,
    # and the other order through a second walker: each compiled trip
    # materializes its pages mid-block.
    "materialize": (
        [(Op.MOV, Reg.RBX, Imm(DATA + 0x5000)), (Op.MOV, Reg.RSI, Imm(DATA + 0xA000))],
        [
            (Op.MOV, Mem(Reg.RBX, 8), Reg.RCX),
            (Op.MOV, Reg.RDX, Mem(Reg.RBX, 8)),
            (Op.MOV, Reg.RAX, Mem(Reg.RBX, 16)),
            (Op.MOV, Reg.RDI, Mem(Reg.RSI, 24)),
            (Op.MOV, Mem(Reg.RSI, 32), Reg.RDX),
            (Op.ADD, Reg.RAX, Mem(Reg.RSI, 32)),
            (Op.MOV, Mem(Reg.RSI, 40), Reg.RAX),
            (Op.ADD, Reg.RCX, Imm(7)),
            (Op.ADD, Reg.RBX, Imm(0x1000)),
            (Op.ADD, Reg.RSI, Imm(0x1000)),
        ],
        _lookup(Reg.RSI),
    ),
    # RBX overwritten between accesses: by a load through itself, an
    # ALU op, a pop and a lea.
    "overwritten-base": (
        [
            (Op.MOV, Reg.RBX, Imm(DATA + 0x100)),
            (Op.MOV, Reg.RCX, Imm(DATA + 0x200)),
            (Op.MOV, Reg.RAX, Imm(0x4444)),
        ],
        [
            (Op.MOV, Mem(Reg.RBX, 8), Reg.RCX),
            (Op.ADD, Reg.RAX, Mem(Reg.RBX, 16)),
            (Op.MOV, Reg.RBX, Mem(Reg.RBX, 8)),
            (Op.MOV, Mem(Reg.RBX, 16), Reg.RAX),
            (Op.ADD, Reg.RBX, Imm(8)),
            (Op.MOV, Reg.RDX, Mem(Reg.RBX, 8)),
            (Op.PUSH, Imm(DATA + 0x300), None),
            (Op.POP, Reg.RBX, None),
            (Op.MOV, Mem(Reg.RBX, 8), Reg.RDX),
            (Op.LEA, Reg.RBX, Mem(Reg.RCX, -0x100)),
            (Op.MOV, Mem(Reg.RBX, 16), Reg.RDX),
            (Op.ADD, Reg.RAX, Mem(Reg.RBX, 16)),
        ],
        "h1 = r[1]",
    ),
    # ``pop rsp`` leaves RSP 8 above where it was (the loaded word is
    # discarded), and accesses through RSP follow.
    "pop-rsp": (
        [],
        [
            (Op.MOV, Reg.RSP, Imm(DATA + 0x6040)),
            (Op.PUSH, Reg.RAX, None),
            (Op.PUSH, Reg.RBX, None),
            (Op.POP, Reg.RSP, None),
            (Op.MOV, Reg.RCX, Mem(Reg.RSP, 0)),
            (Op.PUSH, Reg.RDX, None),
            (Op.POP, Reg.RDX, None),
            (Op.ADD, Reg.RDX, Mem(Reg.RSP, -8)),
            (Op.ADD, Reg.RAX, Imm(5)),
        ],
        _lookup(Reg.RSP),
    ),
}


def _frame_case_spec(name: str):
    if name == "stack-frame":
        return _leaf_call_spec(), _lookup(Reg.RBP)
    setup, body, line = FRAME_CASES[name]
    return _frame_loop(body, setup), line


def _differential_frames(make, line: str, monkeypatch) -> dict:
    """Run ``make()`` on every backend, whole and in ``step()`` slices
    (random lengths, then single steps); every observation must equal
    ``reference``'s whole run, and a block the jit compiled must hold
    ``line``."""
    sources = []
    generate = _SliceCompiler.generate

    def recording(self):
        source = generate(self)
        if type(self) is _SliceCompiler:
            sources.append(source)
        return source

    monkeypatch.setattr(_SliceCompiler, "generate", recording)
    want = run_one_backend(make, "reference")
    for backend in BACKENDS:
        for slices in (None, _slices(7), itertools.repeat(3)):
            observed = run_one_backend(make, backend, slices=slices)
            assert observed == want, (backend, slices)
    assert any(line in source for source in sources)
    return want


@pytest.mark.parametrize("name", [*FRAME_CASES, "stack-frame"])
def test_frames_equal_reference(monkeypatch, name):
    """Each frame edge case runs compiled and equals ``reference`` on
    every backend, whole and sliced."""
    spec, line = _frame_case_spec(name)
    want = _differential_frames(lambda: build_spec(spec)[0], line, monkeypatch)
    assert want["error"] is None
    assert want["exit_code"] == 0


@pytest.mark.parametrize(
    "perm, guard, error",
    [(Perm.R, False, MemoryFault), (Perm.X, False, MemoryFault),
     (Perm.NONE, True, GuardPageFault)],
    ids=["read-only", "execute-only", "guard"],
)
def test_frame_store_into_a_protected_page_faults_exactly(monkeypatch, perm, guard, error):
    """A base walks a page per trip, and its fourth trip — compiled —
    stores into a page without write permission: the fault's class,
    ``rip``, registers and partial counters equal ``reference``'s on
    every backend, whole and sliced."""
    spec = _frame_loop(
        [
            (Op.MOV, Mem(Reg.RBX, 8), Reg.RCX),
            (Op.MOV, Reg.RAX, Mem(Reg.RBX, 16)),
            (Op.ADD, Reg.RCX, Imm(5)),
            (Op.ADD, Reg.RBX, Imm(0x1000)),
        ],
        [(Op.MOV, Reg.RBX, Imm(DATA))],
    )

    def make():
        process, _ = build_spec(spec)
        process.memory.protect(DATA + 0x3000, 0x1000, perm, guard=guard)
        return process

    want = _differential_frames(make, _lookup(Reg.RBX, write=True), monkeypatch)
    assert want["error"][0] is error
    assert want["rip"] == build_spec(spec)[1][2]
    assert want["regs"][Reg.R8] == 2
