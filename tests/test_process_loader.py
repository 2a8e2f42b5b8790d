"""Tests for the process image, ASLR, and the loader."""

import pytest

from repro.core.config import R2CConfig
from repro.core.compiler import compile_module
from repro.errors import MemoryFault
from repro.machine.loader import load_binary
from repro.machine.memory import PAGE_SIZE, Perm
from repro.machine.process import randomize_layout
from repro.rng import DiversityRng
from repro.toolchain.builder import IRBuilder


def tiny_module():
    ir = IRBuilder()
    ir.global_var("g", init=(123,))
    m = ir.function("main")
    m.out(m.load_global("g"))
    m.ret(0)
    return ir.finish()


def test_layout_regions_are_disjoint_and_classified():
    layout = randomize_layout(
        DiversityRng(3), text_size=8192, data_size=4096
    )
    regions = [
        (layout.text_base, layout.text_size, "text"),
        (layout.data_base, layout.data_size, "data"),
        (layout.heap_base, layout.heap_size, "heap"),
        (layout.stack_base, layout.stack_size, "stack"),
    ]
    spans = sorted((b, b + s) for b, s, _ in regions)
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 <= s2
    for base, size, name in regions:
        assert layout.region_of(base) == name
        assert layout.region_of(base + size - 1) == name
    assert layout.region_of(0x1234) is None


def test_aslr_varies_with_seed():
    bases = set()
    for seed in range(8):
        layout = randomize_layout(
            DiversityRng(seed), text_size=4096, data_size=4096
        )
        bases.add(layout.text_base)
    assert len(bases) > 4


def test_aslr_disabled_is_deterministic():
    a = randomize_layout(DiversityRng(1), text_size=4096, data_size=4096, aslr=False)
    b = randomize_layout(DiversityRng(2), text_size=4096, data_size=4096, aslr=False)
    assert a.text_base == b.text_base


def test_stack_top_is_16_aligned():
    layout = randomize_layout(DiversityRng(9), text_size=4096, data_size=4096)
    assert layout.stack_top % 16 == 0


def test_loader_maps_text_execute_only_by_default():
    binary = compile_module(tiny_module())
    process = load_binary(binary, seed=1)
    with pytest.raises(MemoryFault):
        process.memory.read(process.symbols["main"], 8)
    process.memory.fetch_check(process.symbols["main"])


def test_loader_readable_text_option():
    binary = compile_module(tiny_module())
    process = load_binary(binary, seed=1, execute_only=False)
    process.memory.read(process.symbols["main"], 8)  # must not raise


def test_loader_resolves_data_and_symbols():
    binary = compile_module(tiny_module())
    process = load_binary(binary, seed=2)
    g = process.symbols["g"]
    assert process.memory.read_word(g) == 123
    assert process.layout.region_of(g) == "data"
    assert process.layout.region_of(process.symbols["main"]) == "text"


def test_same_load_seed_same_layout():
    binary = compile_module(tiny_module())
    a = load_binary(binary, seed=7)
    b = load_binary(binary, seed=7)
    assert a.symbols == b.symbols


def test_different_load_seed_different_layout():
    binary = compile_module(tiny_module())
    a = load_binary(binary, seed=7)
    b = load_binary(binary, seed=8)
    assert a.symbols["main"] != b.symbols["main"]


def test_text_pages_resident_after_load():
    binary = compile_module(tiny_module())
    process = load_binary(binary, seed=1)
    assert process.max_rss >= PAGE_SIZE * 2  # at least text + data


@pytest.mark.parametrize("config", [R2CConfig(seed=9), R2CConfig.full(seed=9)])
def test_untouched_pages_share_descriptors_after_load(config):
    """Only pages the load wrote or protected get a descriptor of their
    own; the rest of each region (most of the 8 MiB heap) shares one."""
    from repro.workloads.victim import build_victim

    process = load_binary(compile_module(build_victim(requests=3), config), seed=7)
    pages = process.memory._pages.values()
    materialized = sum(page.data is not None for page in pages)
    protected = len(process.r2c_runtime["guard_pages"]) if config.enable_btdp else 0
    assert len({id(page) for page in pages}) <= materialized + protected + 4
    assert len(pages) > 2000


def test_resident_grows_with_heap_use():
    binary = compile_module(tiny_module())
    process = load_binary(binary, seed=1)
    before = process.note_resident()
    ptr = process.allocator.malloc(10 * PAGE_SIZE)
    for page in range(10):
        process.memory.store_word_raw(ptr + page * PAGE_SIZE, 1)
    after = process.note_resident()
    assert after >= before + 9 * PAGE_SIZE


def test_function_pointer_reloc_points_at_function():
    ir = IRBuilder()
    f = ir.function("callee", params=["x"])
    f.ret(f.param("x"))
    ir.global_var("fp", init=(("callee", 0),))
    m = ir.function("main")
    m.ret(0)
    binary = compile_module(ir.finish())
    process = load_binary(binary, seed=3)
    assert process.memory.read_word(process.symbols["fp"]) == process.symbols["callee"]


def test_cloned_process_runs_byte_identical_to_fresh_load():
    """Process.clone() is a faithful fork: clones of a loaded process that
    never ran execute exactly like a second load under the same seed, on
    every backend, whether the run exits or faults (in the hook or later in
    guest code), and one clone's run leaves the image intact for the next."""
    from repro.errors import MachineError
    from repro.machine.backends import available_backends, run
    from repro.machine.costs import get_costs
    from repro.machine.state import ExecutionResult, MachineState
    from repro.workloads.victim import build_victim

    def clean(proc, cpu):
        return 0

    def read_unmapped(proc, cpu):
        proc.memory.read_word(0xDEAD_0000_0000)

    def smash_handler(proc, cpu):
        proc.memory.store_word_raw(proc.symbols["handler_ptr"], 0xDEAD_0000_0000)
        return 0

    def outcome(process, hook, backend):
        process.register_service("attack_hook", hook)
        state = MachineState(process, get_costs("epyc-rome"))
        result = ExecutionResult()
        fault = None
        try:
            run(state, backend, result)
        except MachineError as exc:
            fault = (type(exc), str(exc), state.rip)
        return vars(result), fault, process.output, process.max_rss

    module = build_victim(requests=3)
    for config in (R2CConfig.baseline(), R2CConfig.full(seed=9)):
        binary = compile_module(module, config)
        image = load_binary(binary, seed=7)
        for backend in available_backends():
            for hook in (clean, read_unmapped, smash_handler):
                fresh = outcome(load_binary(binary, seed=7), hook, backend)
                assert (fresh[1] is None) == (hook is clean)
                for _ in range(2):
                    assert outcome(image.clone(), hook, backend) == fresh


def test_cloned_process_is_isolated():
    """Writes, protection changes, and allocations on the clone never show
    through to the original (and vice versa)."""
    binary = compile_module(tiny_module())
    original = load_binary(binary, seed=5)
    clone = original.clone()

    slot = original.symbols["g"]
    assert clone.memory.read_word(slot) == 123
    clone.memory.store_word_raw(slot, 456)
    assert original.memory.read_word(slot) == 123
    original.memory.store_word_raw(slot, 789)
    assert clone.memory.read_word(slot) == 456

    ptr = clone.allocator.malloc(64)
    assert ptr not in original.allocator._live
    clone.memory.protect(original.layout.data_base, PAGE_SIZE, Perm.NONE)
    with pytest.raises(MemoryFault):
        clone.memory.read(slot, 8)
    original.memory.read(slot, 8)  # original unaffected
