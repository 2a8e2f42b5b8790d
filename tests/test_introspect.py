"""Tests for the defender-side introspection utilities."""

from repro.core.config import R2CConfig
from repro.eval.introspect import (
    HookProbe,
    build_two_site_module,
    observe_call_races,
)
from repro.toolchain.interp import interpret_module


def test_two_site_module_runs():
    module = build_two_site_module()
    exit_code, output = interpret_module(module)
    assert exit_code == 0
    assert len(output) == 1


def test_hook_probe_snapshots_every_invocation():
    probe = HookProbe(R2CConfig.full(seed=2, btra_mode="push")).run()
    assert len(probe.snapshots) == 4  # 3 loop calls + 1 extra site
    for snap in probe.snapshots:
        assert snap.ra_slot > snap.rsp
        assert snap.pre  # BTRAs present under full R2C


def test_hook_probe_baseline_has_no_btras():
    probe = HookProbe(R2CConfig.baseline()).run()
    assert all(not snap.pre and not snap.post for snap in probe.snapshots)


def test_race_observer_sees_all_btra_calls():
    observations = observe_call_races(R2CConfig.full(seed=2, btra_mode="push"))
    assert len(observations) == 4
    # The atomic sequence never changes a visible word across the call.
    assert all(not obs["changed_slots"] for obs in observations)


def test_race_observer_ignores_unprotected_calls():
    observations = observe_call_races(R2CConfig.baseline())
    assert observations == []  # no BTRA call sites to observe
