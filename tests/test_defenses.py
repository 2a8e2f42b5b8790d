"""Tests for the related-defense models (the Table 3 rows)."""

from repro.attacks import ALL_ATTACKS, AttackOutcome, VictimSession, aocr_attack
from repro.defenses import DEFENSE_MODELS


def test_all_paper_rows_present():
    assert list(DEFENSE_MODELS) == [
        "none",
        "codearmor",
        "tasr",
        "stackarmor",
        "readactor",
        "krx",
        "shadowstack",
        "r2c",
        "r2c-mvee",
    ]


def test_mvee_row_is_n_variant():
    """The Section 7.3 combination row deploys 2 lockstep variants; every
    other row keeps the single-variant default."""
    assert DEFENSE_MODELS["r2c-mvee"].variants == 2
    assert all(
        model.variants == 1
        for name, model in DEFENSE_MODELS.items()
        if name != "r2c-mvee"
    )


def test_victim_config_reseeds():
    model = DEFENSE_MODELS["r2c"]
    assert model.victim_config(1).seed == 1
    assert model.victim_config(2).seed == 2


def test_only_r2c_has_data_and_stack_diversification():
    r2c = DEFENSE_MODELS["r2c"].config
    assert r2c.enable_btra and r2c.enable_btdp and r2c.enable_global_shuffle
    readactor = DEFENSE_MODELS["readactor"].config
    assert not readactor.enable_btdp and not readactor.enable_global_shuffle


def test_krx_models_single_decoy():
    krx = DEFENSE_MODELS["krx"].config
    assert krx.enable_btra and krx.btras_per_callsite == 1
    assert not krx.enable_btdp  # "no heap pointer protection"


def test_defense_models_are_runnable():
    """Every defense row compiles and runs the victim correctly."""
    for name, model in DEFENSE_MODELS.items():
        session = VictimSession(model.victim_config(seed=5), execute_only=model.execute_only)
        status, result = session.probe(lambda view: None)
        assert status == "clean", name


def test_code_only_rerandomization_loses_to_aocr():
    """CodeArmor/TASR-style code-space defenses fall to AOCR (Section 8)."""
    for name in ("codearmor", "tasr"):
        model = DEFENSE_MODELS[name]
        successes = 0
        for trial in range(3):
            session = VictimSession(
                model.victim_config(seed=300 + trial), execute_only=model.execute_only
            )
            if aocr_attack(session, attacker_seed=trial).outcome is AttackOutcome.SUCCESS:
                successes += 1
        assert successes >= 2, name


def test_r2c_row_blocks_every_attack_class():
    model = DEFENSE_MODELS["r2c"]
    for attack_name, attack in ALL_ATTACKS.items():
        session = VictimSession(model.victim_config(seed=91), execute_only=True)
        result = attack(session, attacker_seed=7)
        assert result.outcome is not AttackOutcome.SUCCESS, attack_name
