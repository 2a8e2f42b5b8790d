"""BTDP invariants: guard pages, camouflage, and the Figure 5 hardening."""

import pytest

from repro.attacks.clustering import classify_word, cluster_by_gaps
from repro.core.config import R2CConfig
from repro.core.compiler import compile_module
from repro.core.passes.btdp import HARDENED_PTR_SYMBOL, NAIVE_ARRAY_SYMBOL
from repro.errors import GuardPageFault
from repro.machine.backends import run
from repro.machine.costs import get_costs
from repro.machine.isa import Reg
from repro.machine.loader import load_binary
from repro.machine.memory import PAGE_SIZE, Perm
from repro.machine.state import MachineState
from repro.workloads.victim import build_victim

WORD = 8


def make_process(config, *, load_seed=3):
    binary = compile_module(build_victim(), config)
    process = load_binary(binary, seed=load_seed)
    process.register_service("attack_hook", lambda proc, cpu: 0)
    return binary, process


BTDP_CFG = R2CConfig(seed=8, enable_btdp=True)


def test_guard_pages_are_protected_and_flagged():
    _, process = make_process(BTDP_CFG)
    info = process.r2c_runtime
    assert info["guarded"]
    for page in info["guard_pages"]:
        assert page % PAGE_SIZE == 0
        assert process.memory.perm_at(page) == Perm.NONE
        assert process.memory.is_guard(page)


def test_btdp_values_point_into_guard_pages():
    _, process = make_process(BTDP_CFG)
    info = process.r2c_runtime
    pages = set(info["guard_pages"])
    for value in info["btdp_values"]:
        assert (value & ~(PAGE_SIZE - 1)) in pages


def test_btdp_dereference_raises_guard_fault():
    _, process = make_process(BTDP_CFG)
    value = process.r2c_runtime["btdp_values"][0]
    with pytest.raises(GuardPageFault):
        process.memory.read_word(value)


def test_btdps_share_value_range_with_benign_heap_pointers():
    """A value-range clusterer cannot separate BTDPs from real heap
    pointers — they land in one cluster (Section 4.2)."""
    _, process = make_process(BTDP_CFG)
    benign = process.allocator.malloc(64)
    btdps = process.r2c_runtime["btdp_values"]
    assert classify_word(benign) == "heap"
    assert all(classify_word(v) == "heap" for v in btdps)
    clusters = cluster_by_gaps([benign] + list(btdps))
    containing = [c for c in clusters if benign in c]
    assert len(containing) == 1
    assert len(containing[0]) == len(btdps) + 1


def test_hardened_mode_data_section_hides_the_array():
    """Figure 5: the data section holds only a pointer to the heap array
    plus decoys; the BTDP values themselves are not in the data section."""
    binary, process = make_process(BTDP_CFG)
    assert BTDP_CFG.btdp_hardened
    assert HARDENED_PTR_SYMBOL in binary.symbols_data
    assert NAIVE_ARRAY_SYMBOL not in binary.symbols_data
    array_ptr = process.memory.read_word(process.symbols[HARDENED_PTR_SYMBOL])
    assert process.layout.region_of(array_ptr) == "heap"
    info = process.r2c_runtime
    assert array_ptr == info["array_addr"]
    # Decoys are guard-page pointers that never appear in the stack array.
    decoys = info["decoy_values"]
    assert decoys and all(classify_word(v) == "heap" for v in decoys)
    assert not set(decoys) & set(info["btdp_values"])


def test_naive_mode_exposes_array_in_data_section():
    config = BTDP_CFG.replace(btdp_hardened=False)
    binary, process = make_process(config)
    assert NAIVE_ARRAY_SYMBOL in binary.symbols_data
    base = process.symbols[NAIVE_ARRAY_SYMBOL]
    values = [
        process.memory.read_word(base + WORD * i) for i in range(config.btdp_array_len)
    ]
    assert values == process.r2c_runtime["btdp_values"]


def test_btdps_written_into_stack_frames():
    """At the hook, the victim's stack must contain BTDP values."""
    binary = compile_module(build_victim(), R2CConfig.full(seed=14))
    process = load_binary(binary, seed=4)
    found = {}

    def hook(proc, cpu):
        if found:
            return 0
        found["x"] = True
        rsp = cpu.regs[Reg.RSP]
        btdps = set(proc.r2c_runtime["btdp_values"])
        hits = 0
        for offset in range(0, 200 * WORD, WORD):
            addr = rsp + offset
            if not proc.memory.is_mapped(addr):
                break
            if proc.memory.load_word_raw(addr) in btdps:
                hits += 1
        found["hits"] = hits
        return 0

    process.register_service("attack_hook", hook)
    run(MachineState(process, get_costs("epyc-rome")))
    assert found["hits"] >= 1


def test_stackless_functions_skipped():
    config = R2CConfig(seed=8, enable_btdp=True, btdp_skip_stackless=True)
    from repro.core.pass_manager import build_plan
    from repro.toolchain.builder import IRBuilder
    import copy

    ir = IRBuilder()
    leaf = ir.function("leaf")  # no params, no locals
    leaf.ret(42)
    m = ir.function("main")
    m.local("x")
    m.store_local("x", m.call("leaf"))
    m.out(m.load_local("x"))
    m.ret(0)
    module = ir.finish()
    plan, _ = build_plan(copy.deepcopy(module), config)
    assert plan.functions["leaf"].btdp_count == 0


def test_btdp_count_within_config_bounds():
    config = R2CConfig(seed=8, enable_btdp=True, btdp_min_per_function=1, btdp_max_per_function=3)
    from repro.core.pass_manager import build_plan
    import copy

    module = build_victim()
    plan, _ = build_plan(copy.deepcopy(module), config)
    counted = [f.btdp_count for f in plan.functions.values() if f.btdp_count]
    assert counted
    assert all(1 <= c <= 3 for c in counted)


def test_unguarded_ablation_reads_silently():
    config = BTDP_CFG.replace(unsafe_btdp_no_guard=True)
    _, process = make_process(config)
    assert not process.r2c_runtime["guarded"]
    value = process.r2c_runtime["btdp_values"][0]
    process.memory.read_word(value)  # must not raise


def test_guard_pages_never_reused_by_malloc():
    _, process = make_process(BTDP_CFG)
    pages = set(process.r2c_runtime["guard_pages"])
    for _ in range(50):
        p = process.allocator.malloc(256)
        assert (p & ~(PAGE_SIZE - 1)) not in pages
