"""Tests for the evaluation harness, statistics, and experiment drivers.

The experiment drivers run here on reduced inputs (few benchmarks, single
seed); the benchmarks/ directory runs them at full size.
"""

import pytest

from repro.core.config import R2CConfig
from repro.eval.experiments import (
    btra_guess_probability,
    experiment_memory,
    experiment_scalability,
    experiment_security_probabilities,
    experiment_table1,
    experiment_table2,
    experiment_table3,
    experiment_webserver,
)
from repro.eval.engine import RunRequest, get_session_engine
from repro.eval.stats import geomean, median, overhead_percent, ratio_summary
from repro.eval import report
from repro.workloads.spec import build_spec_benchmark


def test_geomean():
    assert geomean([2, 8]) == pytest.approx(4.0)
    assert geomean([1.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        geomean([])
    with pytest.raises(ValueError):
        geomean([1.0, -1.0])


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        median([])


def test_overhead_percent():
    assert overhead_percent(110, 100) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        overhead_percent(1, 0)


def test_ratio_summary():
    summary = ratio_summary({"a": 1.0, "b": 1.21})
    assert summary["max"] == pytest.approx(1.21)
    assert summary["geomean"] == pytest.approx(1.1)


def test_engine_run_collects_metrics():
    record = get_session_engine().run(
        RunRequest(module=build_spec_benchmark("xz"), config=R2CConfig.baseline())
    )
    assert record.exit_code == 0
    assert record.instructions > 1000
    assert record.calls > 10
    assert record.max_rss > 0


def test_protected_run_costs_more_than_baseline():
    module = build_spec_benchmark("omnetpp")
    protected, baseline = get_session_engine().submit(
        [
            RunRequest(module=module, config=R2CConfig.full(seed=1)),
            RunRequest(module=module, config=R2CConfig.baseline(seed=1)),
        ]
    )
    assert protected.cycles / baseline.cycles > 1.05


def test_diversified_build_computes_what_baseline_computes():
    module = build_spec_benchmark("xz")
    base, protected = get_session_engine().submit(
        [
            RunRequest(module=module, config=R2CConfig.baseline()),
            RunRequest(module=module, config=R2CConfig.full(seed=3)),
        ]
    )
    assert (base.exit_code, base.output) == (protected.exit_code, protected.output)


def test_table1_shapes_hold():
    """Push > AVX > BTDP/Prolog/Layout; Layout ~= 1 (Table 1)."""
    rows = experiment_table1(
        seeds=(1,),
        benchmarks=["omnetpp", "xalancbmk", "lbm"],
        components=["Push", "AVX", "Layout"],
    )
    assert rows["Push"]["geomean"] > rows["AVX"]["geomean"]
    assert rows["Layout"]["geomean"] < 1.02
    assert rows["Push"]["max"] >= rows["Push"]["geomean"]
    rendered = report.render_table1(rows)
    assert "Push" in rendered and "geomean" in rendered


def test_table2_counts_scale_free_ordering():
    counts = experiment_table2(inputs=(1,), benchmarks=["nab", "lbm", "omnetpp"])
    assert counts["nab"] > counts["omnetpp"] > counts["lbm"]
    assert "nab" in report.render_table2(counts)


def test_webserver_experiment_shows_overhead():
    data = experiment_webserver(requests=40, seeds=(1,), machines=["epyc-rome", "xeon"])
    for server, per_machine in data.items():
        for machine, pct in per_machine.items():
            assert 0 < pct < 60
    assert "nginx" in report.render_webserver(data)


def test_memory_experiment_contrast():
    """SPEC overhead small, webserver overhead large (Section 6.2.5)."""
    data = experiment_memory(benchmarks=["mcf", "lbm"])
    assert all(pct < 15 for pct in data["spec"].values())
    assert all(pct > 40 for pct in data["webserver"].values())
    assert all(share > 30 for share in data["btdp_share"].values())
    assert "BTDP" in report.render_memory(data)


def test_scalability_experiment_verifies():
    rows = experiment_scalability(sizes=(60, 120))
    assert all(row["verified"] for row in rows)
    assert rows[1]["instructions"] > rows[0]["instructions"]
    assert "functions" in report.render_scalability(rows)


def test_table3_matrix_small():
    matrix = experiment_table3(
        trials=1, attacks=["rop", "aocr"], defenses=["none", "r2c"]
    )
    assert matrix["none"]["rop"]["success"] == 1
    assert matrix["none"]["aocr"]["success"] == 1
    assert matrix["r2c"]["rop"]["success"] == 0
    assert matrix["r2c"]["aocr"]["success"] == 0
    rendered = report.render_table3(matrix)
    assert "●" in rendered and "○" in rendered


def test_session_drivers_run_on_the_engine_backend(monkeypatch):
    """The drivers that build victim sessions — Table 3, §7.2.3's heap
    picks (behind ``security`` and the BTDP sweep) and the supervised
    campaigns — run them on the session engine's backend: under an
    engine on ``fast``, no other registered backend prepares a
    program."""
    from repro.eval.engine import ExperimentEngine, get_session_engine, set_session_engine
    from repro.eval.experiments import experiment_btdp_sweep, experiment_supervised
    from repro.machine.backends import BACKENDS

    prepared = set()
    for name, backend in BACKENDS.items():
        def prepare(state, _name=name, _prepare=backend.prepare):
            prepared.add(_name)
            return _prepare(state)

        monkeypatch.setattr(backend, "prepare", prepare)
    original = get_session_engine()
    set_session_engine(ExperimentEngine(jobs=1, backend="fast"))
    try:
        experiment_table3(trials=1, attacks=["rop"], defenses=["r2c"])
        experiment_security_probabilities(leaks=(1,), mc_trials=10, stack_samples=1)
        experiment_btdp_sweep(maxima=(2,), stack_samples=1)
        experiment_supervised(policies=("none",), victims=("r2c",), trials=1)
    finally:
        set_session_engine(original)
    assert prepared == {"fast"}


def test_security_probability_closed_form():
    assert btra_guess_probability(10, 1) == pytest.approx(1 / 11)
    assert btra_guess_probability(10, 4) == pytest.approx(0.00007, abs=2e-5)


def test_security_probabilities_match_monte_carlo():
    data = experiment_security_probabilities(
        leaks=(1, 2), mc_trials=30000, stack_samples=4
    )
    for n in (1, 2):
        closed = data["btra_closed_form"][n]
        measured = data["btra_measured"][n]
        assert measured == pytest.approx(closed, rel=0.35)
    frac = data["heap_benign_fraction"]
    assert frac is not None and 0.0 < frac < 1.0
    assert "closed" in report.render_security_probabilities(data)
