"""BTRA invariants: the return-address properties of Section 4.1.

These tests compile real programs, stop them at a hook inside a callee,
and inspect the concrete stack bytes — verifying that booby-trapped return
addresses look, sit, and behave exactly as the paper specifies.
"""

import pytest

from repro.core.config import R2CConfig
from repro.core.compiler import compile_module
from repro.errors import BoobyTrapTriggered
from repro.machine.backends import run
from repro.machine.costs import get_costs
from repro.machine.isa import Reg
from repro.machine.loader import load_binary
from repro.machine.state import MachineState
from repro.toolchain.builder import IRBuilder

WORD = 8


def build_probe_module(loop_calls=3):
    """main calls callee from site A (in a loop) and from site B once."""
    ir = IRBuilder("probe")
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


class StackProbe:
    """Runs a compiled probe module, snapshotting the stack at each hook."""

    def __init__(self, config, *, load_seed=5, loop_calls=3):
        self.module = build_probe_module(loop_calls)
        self.binary = compile_module(self.module, config)
        self.process = load_binary(self.binary, seed=load_seed)
        self.snapshots = []

        def hook(process, cpu):
            rsp = cpu.regs[Reg.RSP]
            self.snapshots.append(self._snapshot(rsp))
            return 0

        self.process.register_service("attack_hook", hook)
        self.result = run(MachineState(self.process, get_costs("epyc-rome")))

    def _snapshot(self, rsp):
        binary = self.binary
        text_base = self.process.text_base
        record = binary.frame_records["callee"]
        ra_slot = rsp + record.frame_bytes + WORD * record.post_offset
        ra = self.process.memory.load_word_raw(ra_slot)
        site = binary.callsite_records.get(ra - text_base)
        pre = [
            self.process.memory.load_word_raw(ra_slot + WORD * (k + 1))
            for k in range(site.pre_words if site else 0)
        ]
        post = [
            self.process.memory.load_word_raw(ra_slot - WORD * (k + 1))
            for k in range(site.post_words if site else 0)
        ]
        return {"rsp": rsp, "ra_slot": ra_slot, "ra": ra, "pre": pre, "post": post, "site": site}

    def booby_trap_ranges(self):
        names = self.binary.metadata["booby_trap_functions"]
        base = self.process.text_base
        return [
            (base + self.binary.frame_records[n].entry_offset,
             base + self.binary.frame_records[n].end_offset)
            for n in names
        ]


FULL_PUSH = R2CConfig.full(seed=21, btra_mode="push")
FULL_AVX = R2CConfig.full(seed=21, btra_mode="avx")


@pytest.fixture(scope="module")
def push_probe():
    return StackProbe(FULL_PUSH)


@pytest.fixture(scope="module")
def avx_probe():
    return StackProbe(FULL_AVX)


@pytest.mark.parametrize("probe_config", [FULL_PUSH, FULL_AVX], ids=["push", "avx"])
def test_btras_surround_the_return_address(probe_config):
    probe = StackProbe(probe_config)
    snap = probe.snapshots[0]
    assert snap["site"] is not None and snap["site"].uses_btra
    assert snap["site"].pre_words >= 1
    traps = probe.booby_trap_ranges()

    def is_btra(value):
        return any(start <= value < end for start, end in traps)

    assert all(is_btra(v) for v in snap["pre"]), "pre-BTRAs must target booby traps"
    assert all(is_btra(v) for v in snap["post"])
    assert not is_btra(snap["ra"]), "the real RA must not be a booby trap"


def test_property_a_each_btra_used_once_per_site(push_probe):
    snap = push_probe.snapshots[0]
    candidates = snap["pre"] + snap["post"] + [snap["ra"]]
    assert len(set(candidates)) == len(candidates)


def test_property_b_same_site_same_btras(push_probe):
    """Multiple invocations of one call site show identical BTRA sets."""
    first, second, third = push_probe.snapshots[:3]
    assert first["pre"] == second["pre"] == third["pre"]
    assert first["post"] == second["post"] == third["post"]
    assert first["ra"] == second["ra"] == third["ra"]


def test_property_c_different_sites_different_btras(push_probe):
    site_a = push_probe.snapshots[0]
    site_b = push_probe.snapshots[3]
    assert site_a["ra"] != site_b["ra"]
    assert set(site_a["pre"]) != set(site_b["pre"])


def test_pre_count_is_even_everywhere():
    for config in (FULL_PUSH, FULL_AVX):
        binary = compile_module(build_probe_module(), config)
        for record in binary.callsite_records.values():
            if record.uses_btra:
                assert record.pre_words % 2 == 0


def test_post_bounded_by_callee_post_offset():
    binary = compile_module(build_probe_module(), FULL_PUSH)
    for record in binary.callsite_records.values():
        if record.uses_btra and record.callee is not None:
            callee_rec = binary.frame_records[record.callee]
            if callee_rec.protected:
                assert record.post_words <= callee_rec.post_offset


def test_avx_and_push_produce_same_stack_shape(push_probe, avx_probe):
    """Both setup sequences leave pre/post BTRAs around the RA."""
    push_snap = push_probe.snapshots[0]
    avx_snap = avx_probe.snapshots[0]
    assert len(push_snap["pre"]) >= 1 and len(avx_snap["pre"]) >= 1
    assert avx_snap["site"].use_avx and not push_snap["site"].use_avx

    # Same seed -> the same plan decisions -> the same symbolic targets
    # (absolute addresses differ because the two encodings lay text out
    # differently).
    def symbolic(probe, values):
        out = []
        for value in values:
            offset = value - probe.process.text_base
            name = probe.binary.function_at_offset(offset)
            out.append((name, offset - probe.binary.frame_records[name].entry_offset))
        return out

    assert symbolic(push_probe, push_snap["pre"]) == symbolic(avx_probe, avx_snap["pre"])


def test_returning_into_a_btra_detonates(push_probe):
    """The reactive component: using a BTRA as a return target traps."""
    probe = StackProbe(FULL_PUSH)
    captured = {}

    def hook(process, cpu):
        if captured:
            return 0
        rsp = cpu.regs[Reg.RSP]
        snap = probe._snapshot.__func__(probe, rsp)  # reuse the prober
        captured["done"] = True
        process.memory.write_word(snap["ra_slot"], snap["pre"][0])
        return 0

    process = load_binary(probe.binary, seed=6)
    process.register_service("attack_hook", hook)
    # The probe's snapshot helper reads through probe.process; repoint it.
    probe.process = process
    with pytest.raises(BoobyTrapTriggered):
        run(MachineState(process, get_costs("epyc-rome")))


def test_unprotected_callees_get_no_btras_by_default():
    ir = IRBuilder()
    ext = ir.function("external", params=["x"], protected=False)
    ext.ret(ext.param("x"))
    m = ir.function("main")
    m.out(m.call("external", [1]))
    m.ret(0)
    config = R2CConfig(seed=3, enable_btra=True, btras_for_unprotected_calls=False)
    binary = compile_module(ir.finish(), config)
    for record in binary.callsite_records.values():
        if record.callee == "external":
            assert not record.uses_btra


def test_worst_case_mode_adds_btras_to_unprotected_calls():
    ir = IRBuilder()
    ext = ir.function("external", params=["x"], protected=False)
    ext.ret(ext.param("x"))
    m = ir.function("main")
    m.out(m.call("external", [5]))
    m.ret(0)
    module = ir.finish()
    config = R2CConfig(seed=3, enable_btra=True, btras_for_unprotected_calls=True)
    binary = compile_module(module, config)
    found = [r for r in binary.callsite_records.values() if r.callee == "external"]
    assert found and all(r.uses_btra for r in found)
    # And the program still runs correctly.
    from tests.conftest import assert_equivalent

    assert_equivalent(module, config)


def test_stack_arg_unprotected_callee_never_gets_btras():
    ir = IRBuilder()
    params = [f"p{i}" for i in range(8)]
    ext = ir.function("external_wide", params=params, protected=False)
    acc = ext.param("p0")
    for p in params[1:]:
        acc = ext.add(acc, ext.param(p))
    ext.ret(acc)
    m = ir.function("main")
    m.out(m.call("external_wide", list(range(8))))
    m.ret(0)
    module = ir.finish()
    config = R2CConfig(seed=3, enable_btra=True, btras_for_unprotected_calls=True)
    binary = compile_module(module, config)
    for record in binary.callsite_records.values():
        if record.callee == "external_wide":
            assert not record.uses_btra
    from tests.conftest import assert_equivalent

    assert_equivalent(module, config)


def test_section_742_unprotected_caller_disables_callee_r2c():
    """A protected stack-arg function directly called from unprotected code
    has R2C disabled (the WebKit/Chromium patches)."""
    ir = IRBuilder()
    params = [f"p{i}" for i in range(8)]
    wide = ir.function("wide", params=params)  # protected, stack args
    acc = wide.param("p0")
    for p in params[1:]:
        acc = wide.add(acc, wide.param(p))
    wide.ret(acc)
    ext = ir.function("ext_caller", protected=False)
    ext.ret(ext.call("wide", [1, 2, 3, 4, 5, 6, 7, 8]))
    m = ir.function("main")
    m.out(m.call("ext_caller"))
    m.out(m.call("wide", [8, 7, 6, 5, 4, 3, 2, 1]))
    m.ret(0)
    module = ir.finish()
    config = R2CConfig.full(seed=5)
    binary = compile_module(module, config)
    assert "wide" in binary.metadata["r2c_disabled_functions"]
    from tests.conftest import assert_equivalent

    assert_equivalent(module, config)


def test_callee_btras_ablation_shares_sets():
    probe = StackProbe(FULL_PUSH.replace(unsafe_callee_btras=True))
    site_a = probe.snapshots[0]
    site_b = probe.snapshots[3]
    # Both sites call `callee`: under the weakened variant their BTRA sets
    # coincide, so the only difference is the return address itself.
    assert site_a["pre"] == site_b["pre"]
    assert site_a["ra"] != site_b["ra"]


def test_integrity_check_detonates_on_btra_corruption():
    config = FULL_PUSH.replace(btra_integrity_check=True)
    module = build_probe_module()
    binary = compile_module(module, config)
    process = load_binary(binary, seed=9)
    text_base = process.text_base
    record = binary.frame_records["callee"]
    state = {}

    def hook(proc, cpu):
        if state:
            return 0
        state["done"] = True
        rsp = cpu.regs[Reg.RSP]
        ra_slot = rsp + record.frame_bytes + WORD * record.post_offset
        ra = proc.memory.load_word_raw(ra_slot)
        site = binary.callsite_records[ra - text_base]
        # Corrupt every pre-BTRA (a PIROP-style spray).
        for k in range(site.pre_words):
            proc.memory.write_word(ra_slot + WORD * (k + 1), 0x4141_4141)
        return 0

    process.register_service("attack_hook", hook)
    with pytest.raises(BoobyTrapTriggered):
        run(MachineState(process, get_costs("epyc-rome")))
