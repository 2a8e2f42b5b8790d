"""Tests for stack unwinding through diversified frames (Section 7.2.4)."""

import pytest

from repro.core.config import R2CConfig
from repro.core.compiler import compile_module
from repro.machine.backends import run
from repro.machine.costs import get_costs
from repro.machine.isa import Reg
from repro.machine.loader import load_binary
from repro.machine.state import MachineState
from repro.toolchain.unwind import UnwindError, backtrace, unwind
from repro.workloads.victim import build_victim

EXPECTED_CHAIN = ["validate", "parse_headers", "process_request", "main", "_start"]


def capture_backtrace(config, *, load_seed=4, corrupt=False):
    binary = compile_module(build_victim(), config)
    process = load_binary(binary, seed=load_seed)
    captured = {}

    def hook(proc, cpu):
        if captured:
            return 0
        rsp = cpu.regs[Reg.RSP]
        if corrupt:
            record = binary.frame_records["validate"]
            ra_slot = rsp + record.frame_bytes + 8 * record.post_offset
            proc.memory.write_word(ra_slot, 0x1234)
        try:
            captured["bt"] = backtrace(proc, cpu.rip, rsp)
        except UnwindError as exc:
            captured["error"] = exc
        return 0

    process.register_service("attack_hook", hook)
    try:
        run(MachineState(process, get_costs("epyc-rome")))
    except Exception:
        if not corrupt:  # a corrupted stack is allowed to crash the victim
            raise
    return captured


@pytest.mark.parametrize(
    "config",
    [
        R2CConfig.baseline(),
        R2CConfig.full(seed=31),
        R2CConfig.full(seed=31, btra_mode="push"),
        R2CConfig(seed=7, enable_btra=True, btra_mode="push"),
        R2CConfig.oia_only(seed=2),
    ],
    ids=["baseline", "full-avx", "full-push", "btra-only", "oia-only"],
)
def test_backtrace_through_diversified_frames(config):
    captured = capture_backtrace(config)
    assert captured["bt"] == EXPECTED_CHAIN


def test_backtrace_identical_across_seeds():
    for seed in (1, 2, 3):
        captured = capture_backtrace(R2CConfig.full(seed=seed))
        assert captured["bt"] == EXPECTED_CHAIN


def test_unwind_reports_frame_details():
    binary = compile_module(build_victim(), R2CConfig.full(seed=31))
    process = load_binary(binary, seed=4)
    captured = {}

    def hook(proc, cpu):
        if not captured:
            captured["frames"] = unwind(proc, cpu.rip, cpu.regs[Reg.RSP])
        return 0

    process.register_service("attack_hook", hook)
    run(MachineState(process, get_costs("epyc-rome")))
    frames = captured["frames"]
    assert frames[0].function == "validate"
    # Each outer frame's rsp is strictly higher than the inner one's.
    rsps = [f.frame_rsp for f in frames]
    assert rsps == sorted(rsps)
    # Return addresses land inside the recorded caller functions.
    text_base = process.text_base
    for inner, outer in zip(frames, frames[1:-1]):
        ra_offset = inner.return_address - text_base
        assert binary.function_at_offset(ra_offset) == outer.function


def test_unwinder_detects_corrupted_return_address():
    captured = capture_backtrace(R2CConfig.full(seed=31), corrupt=True)
    assert "error" in captured


def test_unwind_outside_text_fails():
    binary = compile_module(build_victim(), R2CConfig.baseline())
    process = load_binary(binary, seed=4)
    with pytest.raises(UnwindError):
        unwind(process, 0xDEAD, process.layout.stack_top - 64)
