"""Benchmark-suite plumbing.

Each benchmark regenerates one table or figure of the paper (see
DESIGN.md section 4), records its wall time via pytest-benchmark, prints
the rendered artifact, and archives it under ``benchmarks/results/`` so
EXPERIMENTS.md can reference concrete numbers.

The experiments are deterministic end-to-end, so every benchmark runs its
payload exactly once (``benchmark.pedantic(rounds=1)``) — repetition would
re-measure identical work.

The suite shares one :class:`repro.eval.engine.ExperimentEngine` per
session, so binaries compiled for one benchmark (e.g. every baseline) are
reused by the rest.  ``pytest benchmarks/ --jobs N`` fans independent
runs out over N worker processes; ``--records-out PATH`` archives every
executed run as JSONL.  The engine's cache/worker summary is saved to
``benchmarks/results/engine_summary.txt``.
"""

from __future__ import annotations

import os

import pytest

from repro.eval.engine import ExperimentEngine, set_session_engine
from repro.eval.report import render_engine_summary
from repro.machine.backends import DEFAULT_BACKEND

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def save_artifact(name: str, text: str) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(text + "\n")
    print()
    print(text)


def pytest_addoption(parser):
    group = parser.getgroup("repro", "R2C experiment engine")
    group.addoption(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for independent experiment runs (default: serial)",
    )
    group.addoption(
        "--records-out",
        default=None,
        metavar="PATH",
        help="append per-run JSONL records to PATH",
    )
    group.addoption(
        "--backend",
        default=DEFAULT_BACKEND,
        help="execution backend for experiment runs (reference, fast or jit; "
        f"identical results, different wall time; default: {DEFAULT_BACKEND})",
    )


@pytest.fixture(scope="session", autouse=True)
def repro_engine(request):
    """One shared engine for the whole benchmark session."""
    engine = set_session_engine(
        ExperimentEngine(
            jobs=request.config.getoption("--jobs"),
            backend=request.config.getoption("--backend"),
        )
    )
    yield engine
    if engine.records:
        save_artifact("engine_summary", render_engine_summary(engine.summary()))
        records_out = request.config.getoption("--records-out")
        if records_out:
            engine.write_records(records_out)
    engine.close()


@pytest.fixture
def run_once(benchmark):
    """Run a payload exactly once under pytest-benchmark timing."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
