"""Reproducibility: builds, loads, runs, and attack campaigns are pure
functions of their seeds — the property the whole evaluation methodology
rests on."""

from repro.attacks import ALL_ATTACKS, VictimSession
from repro.core.config import R2CConfig
from repro.core.compiler import compile_module
from repro.eval.engine import ExperimentEngine, RunRequest
from repro.workloads.spec import build_spec_benchmark
from repro.workloads.victim import build_victim


def test_compile_is_deterministic():
    config = R2CConfig.full(seed=123)
    a = compile_module(build_victim(), config)
    b = compile_module(build_victim(), config)
    assert a.symbols_text == b.symbols_text
    assert bytes(a.data_image) == bytes(b.data_image)
    assert [(o, repr(i)) for o, i in a.text] == [(o, repr(i)) for o, i in b.text]


def test_run_metrics_are_deterministic():
    """Two independent engines each compile, load and run the cell once
    (no cache can serve the second from the first) and measure the same."""
    request = RunRequest(
        module=build_spec_benchmark("omnetpp"), config=R2CConfig.full(seed=4), load_seed=9
    )
    metrics = []
    for _ in range(2):
        with ExperimentEngine() as engine:
            record = engine.run(request)
        summary = engine.summary()
        assert (summary.executed, summary.compiles) == (1, 1)
        metrics.append((record.cycles, record.instructions, record.calls, record.max_rss))
    assert metrics[0] == metrics[1]


def test_attack_campaigns_are_deterministic():
    for name in ("rop", "aocr", "pirop"):
        results = []
        for _ in range(2):
            session = VictimSession(R2CConfig.full(seed=31), load_seed=7)
            result = ALL_ATTACKS[name](session, attacker_seed=5)
            results.append((result.outcome, result.probes, result.detections))
        assert results[0] == results[1], name


def test_seed_isolation_between_features():
    """Changing one feature's presence must not reshuffle another feature's
    decisions (labelled child streams)."""
    base = R2CConfig(seed=9, enable_prolog_traps=True)
    with_nops = base.replace(enable_nop_insertion=True)
    from repro.core.pass_manager import build_plan
    import copy

    module = build_victim()
    plan_a, _ = build_plan(copy.deepcopy(module), base)
    plan_b, _ = build_plan(copy.deepcopy(module), with_nops)
    for name in plan_a.functions:
        assert (
            plan_a.functions[name].prolog_traps == plan_b.functions[name].prolog_traps
        )
