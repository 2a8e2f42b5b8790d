"""Security evaluation tests: every attack vs. baseline and vs. R2C.

These reproduce the qualitative claims of Section 7.2: the monoculture
baseline falls to every attack; full R2C either thwarts them (FAILED /
CRASHED without payload execution) or actively detects them (booby traps,
BTDP guard pages).
"""

import pytest

from repro.attacks import (
    ALL_ATTACKS,
    AttackOutcome,
    VictimSession,
    aocr_attack,
    blindrop_attack,
    jitrop_attack,
    pirop_attack,
    rop_attack,
)
from repro.attacks.monitor import DefenseMonitor
from repro.core.config import R2CConfig
from repro.errors import BoobyTrapTriggered, GuardPageFault, MemoryFault


def baseline_session(**kwargs):
    return VictimSession(R2CConfig.baseline(), execute_only=False, **kwargs)


def r2c_session(seed=42, **kwargs):
    return VictimSession(R2CConfig.full(seed=seed), execute_only=True, **kwargs)


# ---- the monoculture falls to everything ----------------------------------

@pytest.mark.parametrize(
    "attack_name",
    ["rop", "indirect-jitrop", "aocr", "pirop", "mined-rop", "mined-aocr"],
)
def test_baseline_falls_to_single_shot_attacks(attack_name):
    result = ALL_ATTACKS[attack_name](baseline_session(), attacker_seed=1)
    assert result.outcome is AttackOutcome.SUCCESS, result


def test_mined_rop_matches_handwritten_rop_on_the_monoculture():
    """The miner-synthesized chain must reproduce the hand-written
    attack's outcome against the undiversified victim (ISSUE acceptance):
    same success, through a chain derived entirely from the census."""
    handwritten = rop_attack(baseline_session(), attacker_seed=1)
    mined = ALL_ATTACKS["mined-rop"](baseline_session(), attacker_seed=1)
    assert mined.outcome is handwritten.outcome is AttackOutcome.SUCCESS
    assert mined.probes == 1


@pytest.mark.parametrize("attack_name", ["mined-rop", "mined-aocr"])
def test_mined_attack_outcomes_are_backend_invariant(attack_name):
    """Table 3's mined rows must be byte-identical across execution
    backends; the per-cell guarantee is outcome identity."""
    from repro.machine.backends import available_backends

    for make_session in (baseline_session, lambda **kw: r2c_session(seed=41, **kw)):
        outcomes = {
            backend: ALL_ATTACKS[attack_name](
                make_session(backend=backend), attacker_seed=41
            ).outcome
            for backend in available_backends()
        }
        assert len(set(outcomes.values())) == 1, outcomes


def test_baseline_falls_to_jitrop_when_text_is_readable():
    result = jitrop_attack(baseline_session(), attacker_seed=1)
    assert result.outcome is AttackOutcome.SUCCESS


def test_baseline_falls_to_blindrop_with_restarts():
    result = blindrop_attack(baseline_session(), attacker_seed=1)
    assert result.outcome is AttackOutcome.SUCCESS
    assert result.probes > 5  # it genuinely brute-forced
    assert result.crashes > 0


# ---- R2C stops all of them --------------------------------------------------

@pytest.mark.parametrize("attack_name", sorted(ALL_ATTACKS))
@pytest.mark.parametrize("victim_seed", [41, 42, 43])
def test_r2c_stops_every_attack(attack_name, victim_seed):
    session = r2c_session(seed=victim_seed)
    result = ALL_ATTACKS[attack_name](session, attacker_seed=victim_seed)
    assert result.outcome is not AttackOutcome.SUCCESS, result


def test_jitrop_fails_on_execute_only_text():
    """Execute-only memory stops direct code disclosure cold."""
    result = jitrop_attack(r2c_session(), attacker_seed=3)
    assert result.outcome in (AttackOutcome.CRASHED, AttackOutcome.FAILED)


def test_aocr_gets_detected_by_btdps():
    """AOCR's heap-pointer chase hits a BTDP with high probability."""
    detected = 0
    for seed in range(6):
        session = r2c_session(seed=70 + seed)
        result = aocr_attack(session, attacker_seed=seed)
        assert result.outcome is not AttackOutcome.SUCCESS
        if result.outcome is AttackOutcome.DETECTED:
            detected += 1
    assert detected >= 3  # BTDPs outnumber benign heap pointers


def test_blindrop_trips_the_detection_budget_under_r2c():
    session = r2c_session(seed=55)
    result = blindrop_attack(session, attacker_seed=5)
    assert result.outcome is AttackOutcome.DETECTED
    assert session.monitor.booby_trap_hits >= session.monitor.detection_budget
    # And it needed far fewer probes than the baseline success required:
    assert result.probes < 100


def test_aocr_succeeds_against_code_only_diversity():
    """The paper's core motivation: Readactor-style code diversification
    without data diversification does NOT stop AOCR."""
    from repro.defenses import DEFENSE_MODELS

    model = DEFENSE_MODELS["readactor"]
    successes = 0
    for trial in range(4):
        session = VictimSession(
            model.victim_config(seed=200 + trial), execute_only=model.execute_only
        )
        result = aocr_attack(session, attacker_seed=trial)
        if result.outcome is AttackOutcome.SUCCESS:
            successes += 1
    assert successes >= 3


def test_rop_fails_against_readactor_style_defense():
    from repro.defenses import DEFENSE_MODELS

    model = DEFENSE_MODELS["readactor"]
    session = VictimSession(model.victim_config(seed=201), execute_only=True)
    result = rop_attack(session, attacker_seed=1)
    assert result.outcome is not AttackOutcome.SUCCESS


def test_pirop_succeeds_against_pure_aslr_but_not_r2c():
    base = pirop_attack(baseline_session(), attacker_seed=2)
    assert base.outcome is AttackOutcome.SUCCESS
    assert base.probes <= 16  # at most one guess per ASLR nibble
    protected = pirop_attack(r2c_session(seed=77), attacker_seed=2)
    assert protected.outcome is not AttackOutcome.SUCCESS


def test_monitor_classification():
    monitor = DefenseMonitor(detection_budget=2)
    assert monitor.classify(GuardPageFault("read", 0x1)) == "detected"
    assert monitor.classify(BoobyTrapTriggered(0x2)) == "detected"
    assert monitor.classify(MemoryFault("read", 0x3)) == "crashed"
    assert monitor.tripped
    assert monitor.btdp_hits == 1 and monitor.booby_trap_hits == 1


def test_attack_results_carry_bookkeeping():
    session = baseline_session()
    result = rop_attack(session, attacker_seed=1)
    assert result.attack == "rop"
    assert result.probes == 1
    assert str(result).startswith("rop: success")


# ---- ablations: the weakened variants are actually weaker -------------------

def test_naive_btdp_placement_lets_attackers_filter_decoys():
    """Figure 5: with the BTDP array readable in the data section, an
    attacker who knows the data base can subtract BTDPs from the heap
    cluster and dereference only benign pointers."""
    from repro.attacks.scenario import VictimSession

    config = R2CConfig.full(seed=60).replace(btdp_hardened=False)
    session = VictimSession(config)
    process, _ = session.spawn()
    info = process.r2c_runtime
    base = process.symbols["__btdp_array"]
    leaked = {
        process.memory.read_word(base + 8 * i)
        for i in range(config.btdp_array_len)
    }
    # Every stack BTDP is identifiable from the data section...
    assert set(info["btdp_values"]) <= leaked
    # ...whereas in hardened mode the data section exposes only decoys that
    # never appear on the stack.
    config_h = R2CConfig.full(seed=60)
    session_h = VictimSession(config_h)
    process_h, _ = session_h.spawn()
    info_h = process_h.r2c_runtime
    assert not set(info_h["btdp_values"]) & set(info_h["decoy_values"])


def test_unguarded_btdps_lose_the_reactive_property():
    config = R2CConfig.full(seed=61).replace(unsafe_btdp_no_guard=True)
    session = VictimSession(config)
    result = aocr_attack(session, attacker_seed=1)
    # Never detected: without guard pages the dereference is silent.
    assert result.outcome is not AttackOutcome.DETECTED
