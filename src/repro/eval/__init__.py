"""Evaluation harness: regenerates every table and figure of the paper.

* :mod:`repro.eval.stats` — geometric means, medians, overhead ratios.
* :mod:`repro.eval.engine` — the run-execution engine: typed
  request/record pairs, content-addressed compile cache, serial and
  process-pool executors, JSONL run records (Section 6.2 methodology at
  scale: recompile per seed, report the median).
* :mod:`repro.eval.experiments` — one driver per table/figure, each
  submitting request batches to the engine; see DESIGN.md section 4 for
  the experiment index.
* :mod:`repro.eval.report` — text renderers mirroring the paper's tables.
"""

from repro.eval.engine import (
    ExperimentEngine,
    RunRecord,
    RunRequest,
    get_session_engine,
    set_session_engine,
)
from repro.eval.stats import geomean, median, overhead_percent

__all__ = [
    "ExperimentEngine",
    "RunRequest",
    "RunRecord",
    "get_session_engine",
    "set_session_engine",
    "geomean",
    "median",
    "overhead_percent",
]
