"""Cycle-cost presets for the four evaluation machines.

The paper evaluates on AMD EPYC Rome 7H12, Intel i9-9900K, AMD Threadripper
3970X, and Intel Xeon Platinum 8358 (Section 6.1) and observes per-machine
divergence (Figure 6): the Xeon shows the highest overall overhead, omnetpp
suffers most there, while xalancbmk does better on the Intel parts than on
AMD.  We model each machine as a set of per-opcode cycle costs plus an
i-cache geometry and miss penalty.  The divergence mechanisms encoded here:

* store/push throughput differs between the microarchitectures (Zen 2 has
  two store AGUs; Coffee Lake one store port) — affects the push-based
  BTRA setup;
* AVX2 store cost and the ``vzeroupper`` transition differ;
* the miss penalty scales inversely with clock (the 2.6 GHz Xeon pays more
  relative cycles per L2 round-trip than the 3.7 GHz Threadripper).

Absolute cycle values are model parameters, not microarchitectural truth;
only their ratios matter for reproducing overhead shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.machine.isa import Op

#: Integer cycle units per modeled cycle.  All cycle accounting is done in
#: exact integer units of 1/``CYCLE_UNIT`` cycles (0.01-cycle resolution):
#: integer addition is associative, so per-block folded cost totals, sliced
#: ``step()`` runs, and whole-program runs all accumulate bit-identical
#: totals regardless of how the additions are grouped — the property the
#: tier-2 code generator's per-block cost folding rests on.  Float
#: ``ExecutionResult.cycles`` is derived from the unit total at flush time
#: (one exact division), never accumulated in float.
CYCLE_UNIT = 100


def cycles_to_units(value: float) -> int:
    """Quantize a cycle cost to integer units (0.01-cycle resolution)."""
    return round(value * CYCLE_UNIT)


def _default_op_costs() -> Dict[Op, float]:
    return {
        Op.MOV: 1.0,
        Op.LEA: 1.0,
        Op.PUSH: 1.0,
        Op.POP: 1.0,
        Op.ADD: 1.0,
        Op.SUB: 1.0,
        Op.IMUL: 3.0,
        Op.IDIV: 20.0,
        Op.AND: 1.0,
        Op.OR: 1.0,
        Op.XOR: 1.0,
        Op.SHL: 1.0,
        Op.SHR: 1.0,
        Op.NEG: 1.0,
        Op.CMP: 1.0,
        Op.TEST: 1.0,
        Op.SETE: 1.0,
        Op.SETNE: 1.0,
        Op.SETL: 1.0,
        Op.SETLE: 1.0,
        Op.SETG: 1.0,
        Op.SETGE: 1.0,
        Op.JMP: 1.0,
        Op.JE: 1.5,
        Op.JNE: 1.5,
        Op.JL: 1.5,
        Op.JLE: 1.5,
        Op.JG: 1.5,
        Op.JGE: 1.5,
        Op.CALL: 2.0,
        Op.RET: 2.0,
        Op.NOP: 0.25,
        Op.TRAP: 0.25,
        Op.VLOAD: 2.0,
        Op.VSTORE: 2.0,
        Op.VLOAD512: 2.6,
        Op.VSTORE512: 2.6,
        Op.VZEROUPPER: 1.0,
        Op.CALLRT: 30.0,
        Op.OUT: 5.0,
        Op.EXIT: 1.0,
    }


@dataclass
class MachineCosts:
    """Per-machine cycle cost model.

    Attributes:
        name: preset identifier, e.g. ``"epyc-rome"``.
        op_costs: base cycles per opcode.
        mem_operand_extra: additional cycles when an instruction has a
            memory operand (address generation + L1d access).
        icache_size / icache_ways / icache_line: modeled L1i geometry
            (scaled to the synthetic workloads; see MACHINE_PRESETS).
        icache_miss_penalty: cycles charged per L1i line miss.
    """

    name: str
    op_costs: Dict[Op, float] = field(default_factory=_default_op_costs)
    mem_operand_extra: float = 0.5
    icache_size: int = 4 * 1024
    icache_ways: int = 8
    icache_line: int = 64
    icache_miss_penalty: float = 12.0

    @property
    def op_unit_costs(self) -> Dict[Op, int]:
        """``op_costs`` quantized to integer cycle units (cached)."""
        table = self.__dict__.get("_op_unit_costs")
        if table is None:
            table = {op: cycles_to_units(v) for op, v in self.op_costs.items()}
            self.__dict__["_op_unit_costs"] = table
        return table

    @property
    def signature(self) -> tuple:
        """A hashable content identity for the cost model (cached).

        The compiled-code cache keys on this (not ``id``) so equal cost
        models — however constructed — share generated code.
        """
        signature = self.__dict__.get("_signature")
        if signature is None:
            signature = self.__dict__["_signature"] = (
                self.name,
                tuple(sorted((op.name, value) for op, value in self.op_costs.items())),
                self.mem_operand_extra,
                self.icache_size,
                self.icache_ways,
                self.icache_line,
                self.icache_miss_penalty,
            )
        return signature

    @property
    def mem_operand_extra_units(self) -> int:
        return cycles_to_units(self.mem_operand_extra)

    @property
    def icache_miss_penalty_units(self) -> int:
        return cycles_to_units(self.icache_miss_penalty)

    def with_overrides(self, **op_overrides: float) -> "MachineCosts":
        """Return a copy with the named opcode costs replaced.

        Keys are lower-case opcode names (``push=1.3``).
        """
        costs = dict(self.op_costs)
        for key, value in op_overrides.items():
            costs[Op[key.upper()]] = value
        return MachineCosts(
            name=self.name,
            op_costs=costs,
            mem_operand_extra=self.mem_operand_extra,
            icache_size=self.icache_size,
            icache_ways=self.icache_ways,
            icache_line=self.icache_line,
            icache_miss_penalty=self.icache_miss_penalty,
        )


def fold_cost(costs: "MachineCosts", op: Op, misses: int, has_mem: bool) -> int:
    """The exact per-instruction cycle charge, in integer units.

    Base cost plus ``misses * miss_penalty`` plus the memory-operand
    extra.  Because cycle units are integers the sum is associative: the
    tier-2 code generator folds any run of instructions into one literal
    and still produces the exact unit total the interpreter tiers
    accumulate one instruction at a time.
    """
    cost = costs.op_unit_costs[op]
    if misses:
        cost += misses * costs.icache_miss_penalty_units
    if has_mem:
        cost += costs.mem_operand_extra_units
    return cost


def _preset(name: str, *, miss_penalty: float, mem_extra: float, **ops: float) -> MachineCosts:
    base = MachineCosts(name=name, icache_miss_penalty=miss_penalty, mem_operand_extra=mem_extra)
    return base.with_overrides(**ops) if ops else base


#: The four machines of Section 6.1.
#:
#: The modeled L1i is 4 KiB, not the physical 32 KiB: the synthetic
#: workloads are ~100x smaller than real SPEC binaries, so the cache is
#: scaled down with them to preserve the code-footprint/cache ratio that
#: drives the push-vs-AVX gap (Section 7.1 attributes that gap to
#: instruction-cache pressure).
#:
#: The Intel presets charge more for the store-heavy BTRA traffic (call,
#: push, vector store) relative to plain ALU work than the Zen 2 presets
#: do — the divergence mechanism behind the paper's observation that the
#: webserver throughput cost is 12-13% on the i9 but only 3-4% on the AMD
#: machines (Section 6.2.4).
MACHINE_PRESETS: Dict[str, MachineCosts] = {
    # AMD EPYC Rome 7H12 @3.2 GHz — strong store throughput (two store
    # AGUs), cheap calls.
    "epyc-rome": _preset(
        "epyc-rome", miss_penalty=11.0, mem_extra=0.4,
        push=0.95, vstore=0.9, vload=0.8, vstore512=1.3, vload512=1.1, call=1.7, ret=1.7,
    ),
    # Intel i9-9900K @3.6 GHz — one store port; bursty stack writes and
    # call/ret traffic cost relatively more.
    "i9-9900k": _preset(
        "i9-9900k", miss_penalty=13.0, mem_extra=0.55,
        push=1.35, vstore=1.3, vload=1.0, vstore512=1.8, vload512=1.4, call=2.6, ret=2.6,
    ),
    # AMD Threadripper 3970X @3.7 GHz — Zen 2 like the EPYC, higher clock
    # (relatively cheaper misses).
    "tr-3970x": _preset(
        "tr-3970x", miss_penalty=10.0, mem_extra=0.4,
        push=0.95, vstore=0.9, vload=0.8, vstore512=1.3, vload512=1.1, call=1.7, ret=1.7,
    ),
    # Intel Xeon Platinum 8358 @2.6 GHz — low clock inflates relative miss
    # and store costs; the paper's worst-case machine (8.5% geomean).
    "xeon": _preset(
        "xeon", miss_penalty=15.0, mem_extra=0.6,
        push=1.45, vstore=1.4, vload=1.1, vstore512=1.9, vload512=1.5, call=2.7, ret=2.7,
    ),
}

DEFAULT_MACHINE = "epyc-rome"


def get_costs(name: str) -> MachineCosts:
    """Look up a preset by name, raising ``KeyError`` with the valid names."""
    try:
        return MACHINE_PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown machine {name!r}; choose from {sorted(MACHINE_PRESETS)}") from None
