"""Tests for the diversification passes and pass manager."""

import copy

from repro.core.config import R2CConfig
from repro.core.compiler import compile_module
from repro.core.pass_manager import build_plan
from repro.machine.isa import Op
from repro.workloads.victim import build_victim
from tests.conftest import assert_equivalent


def plan_for(config, module=None):
    module = module if module is not None else build_victim()
    working = copy.deepcopy(module)
    plan, disabled = build_plan(working, config)
    return working, plan, disabled


def test_function_shuffle_permutes_order():
    _, plan_a, _ = plan_for(R2CConfig(seed=1, enable_function_shuffle=True))
    _, plan_b, _ = plan_for(R2CConfig(seed=2, enable_function_shuffle=True))
    assert plan_a.function_order != plan_b.function_order
    assert sorted(plan_a.function_order) == sorted(plan_b.function_order)


def test_booby_traps_interleaved_even_without_shuffle():
    _, plan, _ = plan_for(R2CConfig(seed=1, enable_btra=True))
    order = plan.function_order
    trap_positions = [i for i, n in enumerate(order) if n.startswith("__bt")]
    assert trap_positions
    # Not all appended at the end: at least one trap precedes a function.
    assert trap_positions[0] < len(order) - len(trap_positions)


def test_global_shuffle_adds_padding_and_reorders():
    module, plan, _ = plan_for(
        R2CConfig(seed=3, enable_global_shuffle=True, global_padding_min=1, global_padding_max=3)
    )
    assert plan.global_order is not None
    padding = [g for g in module.globals if g.is_padding]
    assert padding
    app_names = [n for n in plan.global_order if not n.startswith("__gpad")]
    original = [g.name for g in build_victim().globals]
    assert sorted(app_names) == sorted(original)
    assert app_names != original  # actually shuffled with this seed


def test_nop_insertion_within_bounds():
    _, plan, _ = plan_for(
        R2CConfig(seed=4, enable_nop_insertion=True, nops_min=2, nops_max=5)
    )
    counts = [
        cs.nops_before
        for fplan in plan.functions.values()
        for cs in fplan.call_sites
    ]
    assert counts
    assert all(2 <= c <= 5 for c in counts)


def test_nop_instructions_emitted():
    config = R2CConfig(seed=4, enable_nop_insertion=True)
    binary = compile_module(build_victim(), config)
    nops = [i for _, i in binary.text if i.op is Op.NOP and i.tag == "nop-insertion"]
    assert nops


def test_prolog_traps_within_bounds_and_emitted():
    config = R2CConfig(seed=4, enable_prolog_traps=True, prolog_traps_min=1, prolog_traps_max=5)
    _, plan, _ = plan_for(config)
    counts = [f.prolog_traps for f in plan.functions.values() if f.prolog_traps]
    assert counts and all(1 <= c <= 5 for c in counts)
    binary = compile_module(build_victim(), config)
    traps = [i for _, i in binary.text if i.op is Op.TRAP and i.tag == "prolog-trap"]
    assert traps


def test_prolog_traps_change_entry_to_body_distance():
    base = compile_module(build_victim(), R2CConfig.baseline())
    trapped = compile_module(build_victim(), R2CConfig(seed=4, enable_prolog_traps=True))
    name = "process_request"
    base_size = base.frame_records[name].end_offset - base.frame_records[name].entry_offset
    trap_size = trapped.frame_records[name].end_offset - trapped.frame_records[name].entry_offset
    assert trap_size > base_size


def test_slot_shuffle_produces_different_frame_layouts():
    config_a = R2CConfig(seed=1, enable_stack_slot_shuffle=True)
    config_b = R2CConfig(seed=2, enable_stack_slot_shuffle=True)
    binary_a = compile_module(build_victim(), config_a)
    binary_b = compile_module(build_victim(), config_b)
    rec_a = binary_a.frame_records["process_request"].slot_offsets
    rec_b = binary_b.frame_records["process_request"].slot_offsets
    assert rec_a != rec_b


def test_regalloc_shuffle_changes_emitted_code():
    a = compile_module(build_victim(), R2CConfig(seed=1, enable_regalloc_shuffle=True))
    b = compile_module(build_victim(), R2CConfig(seed=2, enable_regalloc_shuffle=True))
    text_a = [(o, repr(i)) for o, i in a.text]
    text_b = [(o, repr(i)) for o, i in b.text]
    assert text_a != text_b


def test_r2c_disabled_functions_empty_when_all_protected():
    _, _, disabled = plan_for(R2CConfig.full(seed=1))
    assert disabled == set()


def test_plan_records_worst_case_flag():
    _, plan, _ = plan_for(R2CConfig(seed=1, enable_btra=True, btras_for_unprotected_calls=True))
    assert plan.btras_for_unprotected_calls


def test_pass_manager_is_idempotent_per_seed():
    m1, plan1, _ = plan_for(R2CConfig.full(seed=42))
    m2, plan2, _ = plan_for(R2CConfig.full(seed=42))
    assert plan1.function_order == plan2.function_order
    assert plan1.global_order == plan2.global_order
    for name in plan1.functions:
        f1, f2 = plan1.functions[name], plan2.functions[name]
        assert f1.post_offset == f2.post_offset
        assert f1.btdp_indices == f2.btdp_indices
        assert [c.pre_btras for c in f1.call_sites] == [c.pre_btras for c in f2.call_sites]


def test_compiler_does_not_mutate_input_module():
    module = build_victim()
    globals_before = [g.name for g in module.globals]
    functions_before = set(module.functions)
    compile_module(module, R2CConfig.full(seed=5))
    assert [g.name for g in module.globals] == globals_before
    assert set(module.functions) == functions_before


def test_all_passes_compose_semantically(simple_module):
    """Every pairwise combination of passes keeps semantics."""
    flags = [
        "enable_btra",
        "enable_btdp",
        "enable_nop_insertion",
        "enable_prolog_traps",
        "enable_stack_slot_shuffle",
        "enable_regalloc_shuffle",
        "enable_function_shuffle",
        "enable_global_shuffle",
    ]
    for i, first in enumerate(flags):
        for second in flags[i + 1 :]:
            config = R2CConfig(seed=13, **{first: True, second: True})
            assert_equivalent(simple_module, config)
