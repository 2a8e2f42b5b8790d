"""Tests for the feng-shui AOCR refinement (Section 7.2.3)."""

from repro.attacks import AttackOutcome, VictimSession, aocr_attack
from repro.attacks.fengshui import (
    GROOMED_DISTANCES,
    fengshui_attack,
    find_groomed_pairs,
)
from repro.core.config import R2CConfig


def test_pair_finder_matches_known_distances():
    values = [0x1000, 0x1000 + 48, 0x9000, 0x5000]
    pairs = find_groomed_pairs(values)
    assert (0x1000, 0x1000 + 48) in pairs
    assert all(b - a in GROOMED_DISTANCES for a, b in pairs)


def test_pair_finder_ignores_random_values():
    import random

    rng = random.Random(7)
    values = [0x6200_0000_0000 + rng.randint(0, 2**24) for _ in range(8)]
    pairs = find_groomed_pairs(values)
    assert len(pairs) <= 1  # random addresses almost never pair up


def test_fengshui_succeeds_against_baseline():
    session = VictimSession(R2CConfig.baseline(), execute_only=False)
    result = fengshui_attack(session, attacker_seed=1)
    assert result.outcome is AttackOutcome.SUCCESS


def test_fengshui_dodges_btdp_detection_better_than_plain_aocr():
    """The Section 7.2.3 concession, quantified: distance filtering avoids
    the guard pages plain AOCR trips over."""
    plain_detected = 0
    fengshui_detected = 0
    trials = 6
    for trial in range(trials):
        plain = VictimSession(R2CConfig.full(seed=600 + trial))
        if aocr_attack(plain, attacker_seed=trial).outcome is AttackOutcome.DETECTED:
            plain_detected += 1
        refined = VictimSession(R2CConfig.full(seed=600 + trial))
        if fengshui_attack(refined, attacker_seed=trial).outcome is AttackOutcome.DETECTED:
            fengshui_detected += 1
    assert fengshui_detected < plain_detected


def test_fengshui_still_fails_against_full_r2c():
    """Dodging detection is not winning: shuffled+padded globals still
    break the corruption stage ("reduces attack surface considerably")."""
    for trial in range(4):
        session = VictimSession(R2CConfig.full(seed=650 + trial))
        result = fengshui_attack(session, attacker_seed=trial)
        assert result.outcome is not AttackOutcome.SUCCESS


def test_fengshui_beats_btdp_only_hardening():
    """BTDPs alone (no data-layout shuffling) do NOT stop the refined
    attack — the defense needs the whole R2C stack, which is exactly why
    the paper combines code, stack, and data diversification."""
    successes = 0
    for trial in range(4):
        config = R2CConfig(seed=660 + trial, enable_btdp=True)
        session = VictimSession(config, execute_only=False)
        if fengshui_attack(session, attacker_seed=trial).outcome is AttackOutcome.SUCCESS:
            successes += 1
    assert successes >= 3
