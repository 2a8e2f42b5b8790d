"""Tests for the IR optimizer: folding, DCE, branch folding — and above
all, semantics preservation under diversification."""

import copy

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import R2CConfig
from repro.toolchain.builder import IRBuilder
from repro.toolchain.interp import interpret_module
from repro.toolchain.opt import optimize_module
from tests.conftest import assert_equivalent
from tests.test_equivalence import generate_random_module


def count_instrs(module):
    return sum(
        len(block.instrs) for fn in module.functions.values() for block in fn.blocks
    )


def test_constant_folding_shrinks_code():
    ir = IRBuilder()
    m = ir.function("main")
    a = m.add(2, 3)
    b = m.mul(a, 4)
    c = m.bxor(b, 1)
    m.out(c)
    m.ret(0)
    module = ir.finish()
    before = count_instrs(module)
    optimize_module(module)
    after = count_instrs(module)
    assert after < before
    assert interpret_module(module) == (0, [21])


def test_folding_preserves_signed_semantics():
    ir = IRBuilder()
    m = ir.function("main")
    m.out(m.div(-7, 2))
    m.out(m.mod(-7, 2))
    m.out(m.shr(m.const(-1), 1))
    m.ret(0)
    module = ir.finish()
    reference = interpret_module(copy.deepcopy(module))
    optimize_module(module)
    assert interpret_module(module) == reference


def test_division_by_constant_zero_not_folded_away():
    ir = IRBuilder()
    m = ir.function("main")
    m.out(m.div(1, 0))
    m.ret(0)
    module = ir.finish()
    optimize_module(module)
    from repro.toolchain.interp import InterpError

    with pytest.raises(InterpError, match="division by zero"):
        interpret_module(module)


def test_dead_code_eliminated():
    ir = IRBuilder()
    m = ir.function("main")
    m.add(1, 2)  # dead
    m.mul(3, 4)  # dead
    m.out(7)
    m.ret(0)
    module = ir.finish()
    optimize_module(module)
    assert count_instrs(module) == 2  # out + ret
    assert interpret_module(module) == (0, [7])


def test_calls_are_never_removed():
    ir = IRBuilder()
    ir.global_var("g")
    f = ir.function("sideeffect", params=["x"])
    f.store_global("g", f.param("x"))
    f.ret(0)
    m = ir.function("main")
    m.call("sideeffect", [9])  # result unused, call must stay
    m.out(m.load_global("g"))
    m.ret(0)
    module = ir.finish()
    optimize_module(module)
    assert interpret_module(module) == (0, [9])


def test_branch_folding_removes_unreachable_block():
    ir = IRBuilder()
    m = ir.function("main")
    cond = m.cmp("lt", 1, 2)  # constant true
    m.cbr(cond, "yes", "no")
    m.new_block("yes")
    m.out(1)
    m.ret(0)
    m.new_block("no")
    m.out(2)
    m.ret(0)
    module = ir.finish()
    optimize_module(module)
    labels = module.functions["main"].block_labels()
    assert "no" not in labels
    assert interpret_module(module) == (0, [1])


def test_entry_block_never_dropped():
    ir = IRBuilder()
    m = ir.function("main")
    m.ret(0)
    module = ir.finish()
    optimize_module(module)
    assert module.functions["main"].blocks


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program_seed=st.integers(min_value=0, max_value=10**6))
def test_optimizer_preserves_semantics_on_random_programs(program_seed):
    module = generate_random_module(program_seed)
    reference = interpret_module(copy.deepcopy(module))
    optimize_module(module)
    assert interpret_module(module) == reference


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    program_seed=st.integers(min_value=0, max_value=10**6),
    config_seed=st.integers(min_value=0, max_value=10**6),
)
def test_optimized_full_r2c_matches_interpreter(program_seed, config_seed):
    """opt_level=1 composed with full diversification stays correct."""
    module = generate_random_module(program_seed)
    config = R2CConfig.full(seed=config_seed).replace(opt_level=1)
    assert_equivalent(module, config)


def test_optimization_is_fair_between_baseline_and_protected():
    """Both sides of an overhead measurement see the same optimizer."""
    from repro.eval.engine import RunRequest, get_session_engine
    from repro.workloads.spec import build_spec_benchmark

    module = build_spec_benchmark("xz")
    o0, o1 = get_session_engine().submit(
        [
            RunRequest(module=module, config=R2CConfig.baseline()),
            RunRequest(module=module, config=R2CConfig.baseline().replace(opt_level=1)),
        ]
    )
    assert o1.output == o0.output
    assert o1.instructions <= o0.instructions
