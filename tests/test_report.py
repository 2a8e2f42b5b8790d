"""Backfill tests for the text renderers in :mod:`repro.eval.report`.

Renderers are the last unchecked surface between experiment data and the
console: each test builds the real dataclasses the renderer consumes and
pins the load-bearing parts of the output (headers, rows, verdict
lines) without chaining a full experiment run.
"""

import dataclasses

from repro.analysis.entropy import EntropyAudit
from repro.analysis.findings import Finding
from repro.analysis.lint import LintReport, LintTargetResult
from repro.eval.engine import EngineSummary, FailureSummary
from repro.eval.report import (
    render_engine_summary,
    render_lint,
    render_table1,
)


def test_render_table1_rows():
    text = render_table1(
        {
            "BTRA": {"max": 1.08, "geomean": 1.03},
            "Full": {"max": 1.21, "geomean": 1.09},
        }
    )
    assert "Component overheads" in text
    assert "BTRA" in text and "1.08" in text and "1.09" in text


def test_render_lint_clean_corpus():
    audit = EntropyAudit(
        seeds=[1, 2],
        gadget_counts=[10, 11],
        pairwise_survival=[(1, 2, 0.05)],
        layout_entropy_bits=1.0,
        max_layout_entropy_bits=1.0,
        regalloc_divergence=0.4,
    )
    report = LintReport(
        corpus="spec",
        config_name="full",
        seeds=[1, 2],
        targets=[LintTargetResult(name="xz", seeds=[1, 2], audit=audit)],
    )
    text = render_lint(report)
    assert "corpus=spec config=full" in text
    assert "xz" in text and "0.0500" in text
    assert "0 findings" in text


def test_render_lint_lists_findings():
    finding = Finding(rule="LINT001", where="xz/seed1", message="workload faulted")
    report = LintReport(
        corpus="spec",
        config_name="full",
        seeds=[1],
        targets=[
            LintTargetResult(name="xz", seeds=[1], findings=[finding], audit=None)
        ],
    )
    text = render_lint(report)
    assert "1 finding(s):" in text
    assert "[LINT001] xz/seed1: workload faulted" in text
    # No audit: the table falls back to placeholder columns.
    assert "-" in text


def test_render_engine_summary_with_failures():
    failures = FailureSummary(
        failures=2,
        by_outcome={"fault": 1, "timeout": 1},
        by_class={"GuardPageFault": 1},
        by_rule={"FLT001": 1},
        pool_rebuilds=1,
        quarantined=1,
    )
    summary = EngineSummary(
        jobs=2,
        batches=3,
        requested=10,
        executed=8,
        run_cache_hits=2,
        compile_cache_hits=4,
        compiles=6,
        distinct_binaries=6,
        compile_seconds=1.25,
        run_seconds=3.5,
        worker_runs={0: 4, 1: 4},
        backend="fast",
        failures=failures,
    )
    text = render_engine_summary(summary)
    assert "8 runs executed" in text and "backend=fast" in text
    assert "compile 1.25s" in text and "run 3.50s" in text
    # The seconds are sums over runs, not wall time, and with jobs > 1
    # every worker process compiles into its own cache.
    assert "time summed over runs: compile 1.25s" in text
    assert "compiles, counted per worker process: 6 (+4 compile-cache hits" in text
    serial = render_engine_summary(dataclasses.replace(summary, jobs=1))
    assert "  compiles: 6 (+4 compile-cache hits" in serial
    assert "workers (2): 0:4, 1:4" in text
    assert "failures: 2 (fault:1, timeout:1)" in text
    assert "injected by rule: FLT001:1" in text
    assert "1 pool rebuilds" in text and "1 quarantined" in text
