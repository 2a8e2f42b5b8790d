"""Tests for the MVEE combination (Section 7.3).

The claim under test: because R2C diversifies along multiple dimensions,
running two differently-diversified variants under input replication turns
even *silently successful* attacks into detectable divergence.  The
combination is an N-variant :class:`VictimSession`; each probe's
``lockstep`` result carries the group's verdict.
"""

import json

import pytest

from repro.attacks.rop import make_rop_hook
from repro.attacks.aocr import make_aocr_hook
from repro.attacks.scenario import VictimSession
from repro.core.config import R2CConfig
from repro.defenses.lockstep import MveeOutcome

#: The load seed every variant of an MVEE probe is deployed under.
MVEE_LOAD_SEED = 0xBEEF


def mvee(config, *, variants=2, build_seed=0):
    return VictimSession(
        config, build_seed=build_seed, load_seed=MVEE_LOAD_SEED, variants=variants
    )


def test_benign_runs_agree():
    """Diversified variants are observationally equivalent, so the
    cross-check is quiet in normal operation — the MVEE's false-positive
    story depends on exactly this."""
    probe = mvee(R2CConfig.full(), variants=3, build_seed=10).probe_ex(None)
    assert probe.status == "clean"
    result = probe.lockstep
    assert result.outcome is MveeOutcome.CLEAN
    outputs = {tuple(variant.output) for variant in result.variants}
    assert len(outputs) == 1
    assert all(variant.status == "exit" for variant in result.variants)


def test_variants_are_actually_different_binaries():
    a, b = mvee(R2CConfig.full(), build_seed=10).variant_binaries
    assert a.symbols_text != b.symbols_text


def test_mvee_detects_rop_that_baseline_misses():
    """Against a single undiversified victim the ROP attack succeeds
    silently.  Under an MVEE of two *baseline* variants it still wins
    (identical layouts -> identical corruption), but with R2C variants the
    same replicated writes diverge."""
    # Baseline "variants" are bit-identical: the attack compromises both.
    identical = mvee(R2CConfig.baseline())
    probe = identical.probe_ex(make_rop_hook(), attacker_seed=1)
    assert probe.lockstep.outcome is MveeOutcome.COMPROMISED
    assert probe.status == "success"

    diversified = mvee(R2CConfig.full())
    probe = diversified.probe_ex(make_rop_hook(), attacker_seed=1)
    assert probe.lockstep.outcome is not MveeOutcome.COMPROMISED


def test_mvee_turns_aocr_into_detection():
    detections = 0
    for trial in range(4):
        session = mvee(R2CConfig.full(), build_seed=50 + trial)
        probe = session.probe_ex(make_aocr_hook(), attacker_seed=trial)
        assert probe.lockstep.outcome is not MveeOutcome.COMPROMISED
        if probe.lockstep.outcome in (MveeOutcome.DIVERGED, MveeOutcome.TRAPPED):
            detections += 1
    assert detections >= 2


def test_mvee_detects_even_against_weak_diversity():
    """The complementarity claim: even a *partially* diversified build
    (code shuffling only, which AOCR beats one-on-one) becomes resistant
    under an MVEE, because the data writes that succeed in the leader
    corrupt different bytes in the follower."""
    code_only = R2CConfig(
        enable_function_shuffle=True,
        enable_global_shuffle=True,
        enable_stack_slot_shuffle=True,
    )
    compromised = 0
    for trial in range(4):
        session = mvee(code_only, build_seed=80 + trial)
        probe = session.probe_ex(make_aocr_hook(), attacker_seed=trial)
        if probe.lockstep.outcome is MveeOutcome.COMPROMISED:
            compromised += 1
    assert compromised <= 1


def test_mvee_result_bookkeeping():
    session = mvee(R2CConfig.full(), build_seed=5)
    probe = session.probe_ex(make_rop_hook(), attacker_seed=2)
    result = probe.lockstep
    assert len(result.variants) == 2
    # The probe status is read off the lockstep verdict.
    assert (result.outcome, probe.status) in (
        (MveeOutcome.TRAPPED, "detected"),
        (MveeOutcome.DIVERGED, "diverged"),
        (MveeOutcome.CLEAN, "clean"),
        (MveeOutcome.CLEAN, "crashed"),
    )
    if result.outcome is MveeOutcome.DIVERGED:
        # Lockstep divergence carries its CrashReport-style evidence.
        assert result.divergence is not None
        assert 1 <= result.divergence.variant < 2
        assert result.divergence.sync_point >= 1


def test_mvee_alloc_sequences_agree_on_benign_runs():
    """The identical-allocation-sequence invariant that makes by-address
    write replay sound: every diversified variant issues the same malloc
    request sizes in the same order (asserted each sync point by the
    lockstep group; observed here over a clean run)."""
    from repro.defenses.lockstep import LockstepGroup
    from repro.machine.loader import load_binary

    processes = []
    for binary in mvee(R2CConfig.full(), variants=3, build_seed=10).variant_binaries:
        process = load_binary(binary, seed=MVEE_LOAD_SEED)
        process.register_service("attack_hook", lambda proc, cpu: 0)
        processes.append(process)
    group = LockstepGroup(processes)
    assert not group.compare_state  # distinct binaries: observables only
    result = group.run()
    assert result.outcome is MveeOutcome.CLEAN
    logs = [variant.alloc_log for variant in group.variants]
    assert logs[0], "victim workload allocates; the invariant must be exercised"
    assert logs[0] == logs[1] == logs[2]


def test_mvee_cli_attack_and_bitflip_artifacts(tmp_path, capsys):
    """``python -m repro mvee`` end to end: the attack mode's and the
    bitflip mode's ``--out`` artifacts, and the exit status that flags
    the one outcome lockstep cannot detect (every variant compromised)."""
    from repro.__main__ import main

    with pytest.raises(SystemExit):
        main(["mvee", "--variants", "1"])  # lockstep needs two variants

    attack = tmp_path / "attack.json"
    assert main(["mvee", "--variants", "2", "--backend", "fast", "--out", str(attack)]) == 0
    report = json.loads(attack.read_text())
    assert report["mode"] == "attack:aocr"
    assert report["outcome"] == "trapped"
    assert report["sync_points"] == 12
    assert report["divergence"] is None

    argv = ["mvee", "--variants", "2", "--attack", "rop", "--config", "baseline"]
    assert main(argv + ["--backend", "fast"]) == 1
    assert "outcome: compromised" in capsys.readouterr().out

    bitflip = tmp_path / "bitflip.json"
    argv = ["mvee", "--variants", "3", "--bitflip-seed", "5", "--backend", "fast"]
    assert main(argv + ["--out", str(bitflip)]) == 0
    report = json.loads(bitflip.read_text())
    assert report["mode"] == "bitflip"
    assert report["outcome"] == "diverged"
    divergence = report["divergence"]
    assert (divergence["variant"], divergence["sync_point"], divergence["field"]) == (1, 5, "rax")
