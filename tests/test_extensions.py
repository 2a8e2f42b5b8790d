"""Tests for the paper's discussed-but-optional extensions that this
reproduction implements: AVX-512 BTRA batches (Section 7.1), load-time
re-randomization (Section 7.3), and the BTRA consistency check (covered
further in test_btra)."""

import pytest

from repro.attacks import AttackOutcome, VictimSession, blindrop_attack, pirop_attack
from repro.core.config import R2CConfig
from repro.eval.engine import RunRequest, get_session_engine
from repro.machine.isa import Op
from repro.core.compiler import compile_module
from repro.workloads.spec import build_spec_benchmark
from repro.workloads.victim import build_victim
from tests.conftest import assert_equivalent


AVX512_FULL = R2CConfig.full(seed=19).replace(btra_vector_words=8)


def test_avx512_variant_is_semantics_preserving(simple_module):
    assert_equivalent(simple_module, AVX512_FULL)
    assert_equivalent(build_victim(), AVX512_FULL)


def test_avx512_emits_512_bit_ops():
    binary = compile_module(build_victim(), AVX512_FULL)
    ops = {instr.op for _, instr in binary.text}
    assert Op.VSTORE512 in ops and Op.VLOAD512 in ops
    assert Op.VSTORE not in ops


def test_avx512_halves_the_vector_instruction_count():
    avx2 = compile_module(build_victim(), R2CConfig.full(seed=19))
    avx512 = compile_module(build_victim(), AVX512_FULL)
    count2 = sum(1 for _, i in avx2.text if i.op in (Op.VSTORE, Op.VLOAD))
    count512 = sum(1 for _, i in avx512.text if i.op in (Op.VSTORE512, Op.VLOAD512))
    assert count512 < count2
    assert count512 >= count2 / 3  # roughly halved, not magicked away


def omnetpp_cycles(*configs):
    """Cycles of one seed-1 omnetpp run under each of ``configs``."""
    module = build_spec_benchmark("omnetpp")
    records = get_session_engine().submit(
        [RunRequest(module=module, config=config.replace(seed=1)) for config in configs]
    )
    return [record.cycles for record in records]


def test_avx512_reduces_btra_overhead_on_call_dense_code():
    """Section 7.1: same BTRA count, wider batches -> lower impact."""
    base, avx2, avx512 = omnetpp_cycles(
        R2CConfig.baseline(),
        R2CConfig.btra_avx_only(),
        R2CConfig.btra_avx_only().replace(btra_vector_words=8),
    )
    assert avx512 < avx2
    assert avx512 > base


def test_avx512_supports_twice_as_many_btras_for_similar_cost():
    """The other direction of the Section 7.1 trade-off: 20 BTRAs with
    512-bit batches cost about what 10 cost with 256-bit batches."""
    ten_avx2, twenty_avx512 = omnetpp_cycles(
        R2CConfig.btra_avx_only(),
        R2CConfig.btra_avx_only().replace(btra_vector_words=8, btras_per_callsite=20),
    )
    assert twenty_avx512 <= ten_avx2 * 1.25


def test_bad_vector_width_rejected():
    from repro.errors import ToolchainError

    with pytest.raises(ToolchainError, match="vector width"):
        compile_module(build_victim(), R2CConfig.full(seed=1).replace(btra_vector_words=6))


def test_rerandomization_changes_layout_across_restarts():
    session = VictimSession(R2CConfig.baseline(), rerandomize_on_restart=True)
    p1, _ = session.spawn()
    p2, _ = session.spawn()
    assert p1.symbols["main"] != p2.symbols["main"]


def test_rerandomization_defeats_blindrop_even_on_baseline():
    """Section 7.3: "Both attacks could be prevented by load time
    re-randomization" — with fresh ASLR per restart, the crash side
    channel and the address scan stop transferring between probes."""
    session = VictimSession(
        R2CConfig.baseline(), execute_only=False, rerandomize_on_restart=True
    )
    result = blindrop_attack(session, attacker_seed=3, max_probes=300)
    assert result.outcome is not AttackOutcome.SUCCESS


def test_pirop_is_aslr_immune_but_not_diversity_immune():
    """PIROP's defining property (Goktas et al., Section 7.2.5): it works
    *regardless of ASLR* — even per-restart re-randomization does not stop
    the 16-nibble guess against a monoculture build, because the low bits
    it corrupts are build constants, not load-time randomness.  What does
    stop it is R2C's compile-time entropy (shuffled functions, prolog
    traps, BTRA-displaced return addresses)."""
    rerandomized = VictimSession(
        R2CConfig.baseline(), execute_only=False, rerandomize_on_restart=True
    )
    result = pirop_attack(rerandomized, attacker_seed=3)
    assert result.outcome is AttackOutcome.SUCCESS  # ASLR-immunity

    diversified = VictimSession(R2CConfig.full(seed=23))
    result = pirop_attack(diversified, attacker_seed=3)
    assert result.outcome is not AttackOutcome.SUCCESS
