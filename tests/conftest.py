"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.analysis import set_default_verify
from repro.core.config import R2CConfig
from repro.core.compiler import compile_module
from repro.machine.backends import DEFAULT_BACKEND, run
from repro.machine.costs import get_costs
from repro.machine.loader import load_binary
from repro.machine.state import MachineState
from repro.toolchain.builder import IRBuilder
from repro.toolchain.interp import interpret_module

# Every compilation in the test suite runs the repro.analysis verifiers as
# a post-condition (R2CConfig.verify=False opts individual tests out, e.g.
# when deliberately building broken modules).
set_default_verify(True)


def run_compiled(
    module,
    config=None,
    *,
    load_seed=1,
    machine="epyc-rome",
    backend=DEFAULT_BACKEND,
    **state_kwargs,
):
    """Compile, load and run a module on ``backend``; return
    (ExecutionResult, process).  ``state_kwargs`` go to the MachineState."""
    binary = compile_module(module, config)
    process = load_binary(binary, seed=load_seed)
    process.register_service("attack_hook", lambda proc, cpu: 0)
    result = run(MachineState(process, get_costs(machine), **state_kwargs), backend)
    process.note_resident()
    return result, process


def assert_equivalent(module, config, *, load_seed=1):
    """Assert the compiled module matches the reference interpreter."""
    expected_exit, expected_out = interpret_module(module)
    result, _ = run_compiled(module, config, load_seed=load_seed)
    assert result.exit_code == expected_exit, (
        f"exit {result.exit_code} != {expected_exit} under {config}"
    )
    assert result.output == expected_out, (
        f"output {result.output} != {expected_out} under {config}"
    )


@pytest.fixture
def simple_module():
    """A small module exercising calls, branches, locals and globals."""
    ir = IRBuilder("simple")
    ir.global_var("counter", init=(5,))
    double = ir.function("double", params=["x"])
    double.ret(double.mul(double.param("x"), 2))
    main = ir.function("main")
    main.local("acc")
    main.store_local("acc", 0)
    value = main.call("double", [21])
    main.store_local("acc", value)
    g = main.load_global("counter")
    cond = main.cmp("gt", g, 3)
    main.cbr(cond, "big", "small")
    main.new_block("big")
    main.out(main.add(main.load_local("acc"), g))
    main.br("done")
    main.new_block("small")
    main.out(0)
    main.br("done")
    main.new_block("done")
    main.ret(main.load_local("acc"))
    return ir.finish()


FULL_CONFIGS = {
    "baseline": R2CConfig.baseline(),
    "full-avx": R2CConfig.full(seed=11),
    "full-push": R2CConfig.full(seed=12, btra_mode="push"),
}
