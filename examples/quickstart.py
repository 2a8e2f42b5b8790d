#!/usr/bin/env python3
"""Quickstart: compile a program with R2C and see the diversification.

Builds a small program against the public API, compiles it three ways
(baseline, full R2C with the AVX2 BTRA setup, full R2C with the push
setup), verifies all three compute the same result, and shows what an
attacker leaking the stack would see under each.

Run:  python examples/quickstart.py
"""

from repro import R2CConfig, compile_module
from repro.attacks.clustering import classify_word
from repro.machine import MachineState, run
from repro.machine.costs import get_costs
from repro.machine.isa import Reg
from repro.machine.loader import load_binary
from repro.toolchain.builder import IRBuilder


def build_program():
    """A tiny 'application': hash a few values through helper calls."""
    ir = IRBuilder("quickstart")
    mix = ir.function("mix", params=["x", "y"])
    mix.rtcall("attack_hook", [], void=True)  # a place to peek at the stack
    value = mix.bxor(mix.mul(mix.param("x"), 31), mix.param("y"))
    mix.ret(mix.band(value, 0xFFFF_FFFF))

    main = ir.function("main")
    main.local("acc")
    main.store_local("acc", 1)
    ivar = main.counted_loop(10, "body", "done")
    i = main.load_local(ivar)
    h = main.call("mix", [main.load_local("acc"), i])
    main.store_local("acc", h)
    main.loop_backedge(ivar, "body")
    main.new_block("done")
    main.out(main.load_local("acc"))
    main.ret(0)
    return ir.finish()


def compile_and_run(config, label):
    binary = compile_module(build_program(), config)
    process = load_binary(binary, seed=7)
    peek = {}

    def hook(proc, cpu):
        if peek:
            return 0
        rsp = cpu.regs[Reg.RSP]
        top = proc.layout.stack_top
        words = [
            proc.memory.load_word_raw(rsp + 8 * k)
            for k in range(min(24, (top - rsp) // 8))
        ]
        peek["code_ptrs"] = [w for w in words if classify_word(w) == "image"]
        return 0

    process.register_service("attack_hook", hook)
    result = run(MachineState(process, get_costs("epyc-rome")))
    print(f"{label:>10}: output={result.output}  cycles={result.cycles:10.0f}  "
          f"text={binary.text_size:6d}B  "
          f"code-pointer-looking words in one leaked frame window: "
          f"{len(peek['code_ptrs'])}")
    return result


def main():
    print(__doc__)
    base = compile_and_run(R2CConfig.baseline(), "baseline")
    avx = compile_and_run(R2CConfig.full(seed=1), "r2c-avx")
    push = compile_and_run(R2CConfig.full(seed=2, btra_mode="push"), "r2c-push")

    assert base.output == avx.output == push.output, "diversification changed semantics!"
    print()
    print(f"overhead: avx {100 * (avx.cycles / base.cycles - 1):.1f}%, "
          f"push {100 * (push.cycles / base.cycles - 1):.1f}%")
    print("Under R2C the leaked stack window is full of booby-trapped return")
    print("addresses — only one of those code pointers is real.")


if __name__ == "__main__":
    main()
