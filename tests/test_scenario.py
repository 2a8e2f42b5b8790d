"""Tests for the victim-session harness: probes, restarts, budgets."""

import dataclasses

import pytest

from repro.attacks.monitor import DefenseMonitor
from repro.attacks.scenario import AttackAborted, VictimSession, run_attack
from repro.attacks.outcomes import AttackOutcome
from repro.core.config import R2CConfig
from repro.machine.backends import available_backends
from repro.workloads.victim import ATTACK_ARG


def test_probe_clean_on_noop_hook():
    session = VictimSession(R2CConfig.baseline())
    status, result = session.probe(lambda view: None)
    assert status == "clean"
    assert result is not None and result.exit_code == 0


def test_probe_hook_fires_exactly_once():
    session = VictimSession(R2CConfig.baseline())
    fired = []
    session.probe(lambda view: fired.append(view.rsp))
    assert len(fired) == 1  # six requests, one armed hook


def test_probe_abort_is_clean():
    session = VictimSession(R2CConfig.baseline())

    def hook(view):
        raise AttackAborted("giving up")

    status, _ = session.probe(hook)
    assert status == "clean"


def test_probe_crash_classified():
    session = VictimSession(R2CConfig.baseline())

    def hook(view):
        view.read_word(0xDEAD_0000_0000)

    status, result = session.probe(hook)
    assert status == "crashed"
    assert result is None
    assert session.monitor.crashes == 1


def test_probe_detection_classified():
    session = VictimSession(R2CConfig.full(seed=3))

    def hook(view):
        process = view._process
        view.read_word(process.r2c_runtime["btdp_values"][0])

    status, _ = session.probe(hook)
    assert status == "detected"
    assert session.monitor.btdp_hits == 1


def test_forked_workers_share_layout():
    session = VictimSession(R2CConfig.full(seed=3))
    p1, _ = session.spawn()
    p2, _ = session.spawn()
    assert p1.symbols == p2.symbols


def test_detection_budget_trips():
    monitor = DefenseMonitor(detection_budget=2)
    assert not monitor.tripped
    from repro.errors import GuardPageFault

    monitor.classify(GuardPageFault("read", 1))
    monitor.classify(GuardPageFault("read", 2))
    assert monitor.tripped


def test_run_attack_success_path():
    session = VictimSession(R2CConfig.baseline())

    def hook(view):
        # Simulate the goal directly: write through the handler pointer.
        ref = view.reference
        process = view._process
        data_base = process.symbols["config_blob"] - ref.global_offset("config_blob")
        target = view.read_word(data_base + ref.global_offset("admin_table"))
        view.write_word(data_base + ref.global_offset("handler_ptr"), target)
        view.write_word(data_base + ref.global_offset("default_param"), ATTACK_ARG)

    result = run_attack(session, hook, "manual")
    assert result.outcome is AttackOutcome.SUCCESS
    assert result.attack == "manual"


def test_victim_session_with_build_seed_override():
    a = VictimSession(R2CConfig.full(), build_seed=1)
    b = VictimSession(R2CConfig.full(), build_seed=2)
    assert a.config.seed == 1 and b.config.seed == 2
    assert a.binary.symbols_text != b.binary.symbols_text


def test_n_variant_session_monoculture_is_compromised():
    """Identical (baseline) variants offer the lockstep no divergence to
    catch: the replicated writes compromise every variant."""
    from repro.attacks.rop import make_rop_hook

    session = VictimSession(R2CConfig.baseline(), variants=2, build_seed=1)
    result = run_attack(session, make_rop_hook(), "rop")
    assert result.outcome is AttackOutcome.SUCCESS


def test_n_variant_session_surfaces_diverged_outcome():
    """Weak (code-only) diversity loses one-on-one to AOCR, but the
    2-variant lockstep session turns the attack into DIVERGED — the
    first-class outcome, counted by the monitor."""
    from repro.attacks.aocr import make_aocr_hook

    code_only = R2CConfig(
        enable_function_shuffle=True,
        enable_global_shuffle=True,
        enable_stack_slot_shuffle=True,
    )
    session = VictimSession(code_only, variants=2, build_seed=80)
    result = run_attack(session, make_aocr_hook(), "aocr", attacker_seed=0)
    assert result.outcome is AttackOutcome.DIVERGED
    assert session.monitor.divergences == 1
    assert session.monitor.detections >= 1


def test_single_variant_session_is_unchanged():
    session = VictimSession(R2CConfig.full(), build_seed=1)
    assert session.variants == 1
    assert session.variant_binaries == [session.binary]
    with pytest.raises(ValueError):
        VictimSession(R2CConfig.full(), variants=0)


def test_cli_list_and_unknown(capsys):
    from repro.__main__ import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out and "figure6" in out
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_cli_runs_quick_security(capsys):
    from repro.__main__ import main

    assert main(["security", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "closed" in out


def test_cli_exits_nonzero_after_a_failed_run(monkeypatch, capsys):
    import repro.__main__ as cli
    from repro.eval.engine import RunRequest, get_session_engine
    from repro.workloads.spec import build_spec_benchmark

    def starved(quick):
        request = RunRequest(
            module=build_spec_benchmark("xz"),
            config=R2CConfig.baseline(),
            instruction_budget=100,
        )
        return get_session_engine().run(request).outcome

    monkeypatch.setitem(cli.EXPERIMENTS, "table1", (starved, "starved run"))
    assert cli.main(["table1"]) == 1
    out = capsys.readouterr().out
    assert "failures: 1 (fault:1)" in out


def _count_calls(monkeypatch, name):
    """Count calls to ``scenario.<name>`` (still calling through)."""
    from repro.attacks import scenario

    calls = []
    real = getattr(scenario, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(scenario, name, counting)
    return calls


def test_restart_same_session_loads_each_variant_once(monkeypatch):
    """A fork server clones every worker from one image per variant
    binary, and a later session that deploys the same binaries under the
    same layout takes those images and loads nothing; re-randomizing
    restarts load on every spawn."""
    from repro.attacks import scenario

    loads = _count_calls(monkeypatch, "load_binary")
    for variants in (1, 2):
        monkeypatch.setattr(scenario, "_previous_images", {})
        loads.clear()
        for _ in range(2):
            session = VictimSession(R2CConfig.full(seed=3), variants=variants)
            for _ in range(3):
                session.probe_ex(lambda view: None)
        assert len(loads) == variants
        loads.clear()
        session = VictimSession(
            R2CConfig.full(seed=3), variants=variants, rerandomize_on_restart=True
        )
        for _ in range(3):
            session.probe_ex(lambda view: None)
        assert len(loads) == 3 * variants


def test_sessions_take_the_previous_sessions_images(monkeypatch):
    """The image memo is keyed by (build key, load seed, execute_only):
    a session that changes any of them loads again, and the memo then
    holds only the images of the last session that spawned."""
    from repro.attacks import scenario

    monkeypatch.setattr(scenario, "_previous_images", {})
    loads = _count_calls(monkeypatch, "load_binary")

    def deploy(config=R2CConfig.full(seed=3), **kwargs):
        session = VictimSession(config, **kwargs)
        session.spawn()
        return session

    first = deploy()
    assert len(loads) == 1
    assert deploy()._images[0] is first._images[0]
    assert len(loads) == 1
    for kwargs in (
        {"config": R2CConfig.full(seed=4)},
        {"load_seed": 7},
        {"execute_only": False},
    ):
        deploy()  # the memo holds the first deployment's image again
        loads.clear()
        session = deploy(**kwargs)
        assert len(loads) == 1, kwargs
        assert list(scenario._previous_images.values()) == session._images
    # An untouched session leaves the memo alone.
    VictimSession(R2CConfig.full(seed=3))
    assert list(scenario._previous_images.values()) == session._images


def _probe_observables(probe):
    """Everything a probe's caller can see of how it ended."""
    return {
        "status": probe.status,
        "result": None if probe.result is None else dataclasses.asdict(probe.result),
        "error": None if probe.exception is None else (type(probe.exception), str(probe.exception)),
        "output": list(probe.process.output),
        "rip": probe.cpu.rip,
        "regs": list(probe.cpu.regs),
        "max_rss": probe.process.max_rss,
    }


def _success_hook(view):
    ref = view.reference
    data_base = view._process.symbols["config_blob"] - ref.global_offset("config_blob")
    target = view.read_word(data_base + ref.global_offset("admin_table"))
    view.write_word(data_base + ref.global_offset("handler_ptr"), target)
    view.write_word(data_base + ref.global_offset("default_param"), ATTACK_ARG)


def _crash_hook(view):
    view.write_word(view._process.symbols["handler_ptr"], 0xDEAD_0000_0000)


def _btdp_hook(view):
    view.read_word(view._process.r2c_runtime["btdp_values"][0])


@pytest.mark.parametrize("backend", available_backends())
def test_a_probe_on_an_adopted_image_equals_one_on_a_fresh_load(backend, monkeypatch):
    """A session that takes the previous session's image probes exactly
    as one that loads afresh: status, result counters, output, ``rip``,
    registers and peak residency, for clean, successful, crashing and
    detected probes."""
    from repro.attacks import scenario

    cases = [
        (R2CConfig.baseline(), lambda view: None, "clean"),
        (R2CConfig.baseline(), _success_hook, "success"),
        (R2CConfig.baseline(), _crash_hook, "crashed"),
        (R2CConfig.full(seed=3), _btdp_hook, "detected"),
    ]
    for config, hook, status in cases:
        monkeypatch.setattr(scenario, "_previous_images", {})
        fresh = VictimSession(config, backend=backend).probe_ex(hook)
        # The fresh probe's load is now the memo's image, and its run
        # bound micro-ops the next one shares.
        session = VictimSession(config, backend=backend)
        adopted = session.probe_ex(hook)
        assert session._images == list(scenario._previous_images.values())
        assert fresh.status == status
        assert _probe_observables(adopted) == _probe_observables(fresh)


def test_a_probes_writes_never_reach_the_next_probe():
    session = VictimSession(R2CConfig.baseline())
    seen = []

    def hook(view):
        slot = view._process.symbols["handler_ptr"]
        seen.append(view.read_word(slot))
        view.write_word(slot, 0xDEAD_0000_0000)

    assert session.probe(hook)[0] == "crashed"
    assert session.probe(hook)[0] == "crashed"
    assert seen[0] == seen[1] != 0xDEAD_0000_0000
    status, result = session.probe(lambda view: None)
    assert status == "clean" and result.exit_code == 0


def test_sessions_reuse_the_previous_sessions_builds(monkeypatch):
    """Consecutive sessions of one victim compile it once: the leader,
    every follower and the attacker's copy, except under ``none``, whose
    attacker's copy is the victim's build.  The memo then holds only the
    latest session's builds."""
    from repro.attacks import scenario
    from repro.defenses import DEFENSE_MODELS

    compiles = _count_calls(monkeypatch, "compile_module")
    for name in ("none", "r2c", "r2c-mvee"):
        model = DEFENSE_MODELS[name]
        monkeypatch.setattr(scenario, "_previous_builds", {})
        compiles.clear()
        for _ in range(8):
            session = VictimSession(model.victim_config(seed=100), variants=model.variants)
        assert len(compiles) == (1 if name == "none" else model.variants + 1)
    previous = session
    compiles.clear()
    session = VictimSession(R2CConfig.full(seed=101))
    assert len(compiles) == 2
    builds = {id(session.binary), id(session.reference.binary)}
    assert {id(binary) for binary in scenario._previous_builds.values()} == builds
    assert id(previous.binary) not in builds


def test_sessions_given_no_module_share_one_victim(monkeypatch):
    """Sessions created without a module build the default victim once
    and share that module object (and its memoized fingerprint)."""
    from repro.attacks import scenario

    monkeypatch.setattr(scenario, "_default_victim", None)
    builds = _count_calls(monkeypatch, "build_victim")
    first = VictimSession(R2CConfig.baseline())
    second = VictimSession(R2CConfig.full(seed=5))
    assert first.module is second.module
    assert len(builds) == 1


def _processes_left_in_cycles(action):
    """Processes that only a reference cycle keeps alive after ``action()``."""
    import gc

    from repro.machine.process import Process

    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        action()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return sum(isinstance(obj, Process) for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


@pytest.mark.parametrize("variants", [1, 2])
def test_a_crashed_probe_frees_its_process(variants):
    """The fault a crashed probe keeps holds no traceback, so the probe's
    processes are freed by reference counting, not by a later gc pass."""

    def crash():
        session = VictimSession(R2CConfig.baseline(), variants=variants)
        probe = session.probe_ex(lambda view: view.read_word(0xDEAD_0000_0000))
        assert probe.exception is not None

    assert _processes_left_in_cycles(crash) == 0
