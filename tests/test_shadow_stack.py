"""Tests for the shadow-stack enforcement model (Section 8.2).

The paper's framing: backward-edge CFI "generally prevents ROP and
JIT-ROP, but its effectiveness against AOCR depends on whether the
malicious control-flow transfers are valid in the approximated CFG."
AOCR's whole-function reuse only rides *forward* edges (an indirect call
the program legitimately makes), so a shadow stack never fires on it —
while every return-hijacking attack is caught immediately.
"""

from repro.attacks import (
    ALL_ATTACKS,
    AttackOutcome,
    VictimSession,
    aocr_attack,
    blindrop_attack,
    rop_attack,
)
from repro.core.config import R2CConfig
from repro.defenses import DEFENSE_MODELS
from repro.errors import ShadowStackViolation
from repro.machine.backends import run
from repro.machine.costs import get_costs
from repro.machine.loader import load_binary
from repro.machine.state import MachineState
from repro.core.compiler import compile_module
from repro.workloads.spec import build_spec_benchmark


def shadow_session(**kwargs):
    model = DEFENSE_MODELS["shadowstack"]
    return VictimSession(
        model.victim_config(seed=7),
        execute_only=model.execute_only,
        shadow_stack=True,
        **kwargs,
    )


def test_legitimate_programs_run_under_shadow_stack():
    """Every benchmark's call/ret discipline satisfies the shadow stack —
    including under full R2C, whose BTRAs never alter return targets."""
    for config in (R2CConfig.baseline(), R2CConfig.full(seed=5, btra_mode="push")):
        binary = compile_module(build_spec_benchmark("xz"), config)
        process = load_binary(binary, seed=3)
        process.register_service("attack_hook", lambda p, c: 0)
        result = run(MachineState(process, get_costs("epyc-rome"), shadow_stack=True))
        assert result.exit_code == 0


def test_shadow_stack_detects_return_hijack():
    session = shadow_session()
    result = rop_attack(session, attacker_seed=1)
    assert result.outcome is AttackOutcome.DETECTED
    assert session.monitor.shadow_stack_hits == 1


def test_shadow_stack_detects_blindrop_probes():
    session = shadow_session()
    result = blindrop_attack(session, attacker_seed=1)
    assert result.outcome is AttackOutcome.DETECTED


def test_shadow_stack_does_not_stop_aocr():
    """The Section 8.2 caveat, demonstrated: AOCR rides forward edges."""
    session = shadow_session()
    result = aocr_attack(session, attacker_seed=1)
    assert result.outcome is AttackOutcome.SUCCESS
    assert session.monitor.shadow_stack_hits == 0


def test_violation_carries_expected_and_actual():
    exc = ShadowStackViolation(0x1000, 0x2000)
    assert exc.expected == 0x1000 and exc.actual == 0x2000


def test_shadow_stack_and_r2c_compose():
    """Orthogonality (Section 8.2: "R2C and CFI are orthogonal defenses
    and could in principle strengthen each other")."""
    session = VictimSession(R2CConfig.full(seed=9), shadow_stack=True)
    for attack_name in ("rop", "aocr", "pirop"):
        result = ALL_ATTACKS[attack_name](session, attacker_seed=2)
        assert result.outcome is not AttackOutcome.SUCCESS, attack_name
