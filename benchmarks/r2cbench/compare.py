"""Compare two sets of r2cbench runs: ``python -m benchmarks.r2cbench.compare BASE NEW``.

``BASE`` and ``NEW`` are directories of ``--out`` reports (any mix of
workloads; untraced reports feed the end-to-end rows, traced ones the
deterministic-count rows).  For every (workload, end-to-end metric) the
report gives both medians and interquartile ranges and one verdict, by
the bound ``BENCHMARK.json`` fixes for that metric:

* ``within bound`` — the new median is no worse than the base median by
  more than the bound;
* ``worse`` — it is worse by more than the bound;
* ``unresolved`` — the base runs' own spread (IQR over median) is wider
  than the bound, so neither can be told from noise; it reads
  ``better (every run)`` instead when every new run beats every base run.

Each row also gives the change of the medians of the uncalibrated host
seconds (``raw``).  It means something only when the base and new runs
were interleaved, one base run then one new run, on the same host.

Simulated results must not move at all between two runs of the same
code, seed and run length: ``sim_overhead_pct`` and every exact
per-layer count (``jit.*``, ``sim.instructions``, ``sim.cycles``,
``*.calls`` and the like) are compared for equality.  Exits 1 on any
``worse``, any ``unresolved`` (a gated metric that was not checked) or
any differing count.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

from benchmarks.r2cbench.layers import unit_of
from benchmarks.r2cbench.stats import quartiles

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "BENCHMARK.json",
)
EXACT_UNITS = ("count", "cycles", "KB", "ratio")


def load_runs(directory: str) -> List[Dict[str, object]]:
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            runs.append(json.load(handle))
    if not runs:
        raise SystemExit(f"no run reports (*.json) in {directory}")
    return runs


def verdict(base: Sequence[float], new: Sequence[float], better: str, bound: float) -> str:
    """The §6.5 rule of the choosing-metrics method, for one metric."""
    q1, base_median, q3 = quartiles(base)
    new_median = statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_share = sign * (new_median - base_median) / base_median
    if (q3 - q1) / base_median > bound:
        all_better = all(sign * (n - b) < 0 for n in new for b in base)
        return "better (every run)" if all_better else "unresolved"
    return "worse" if worse_share > bound else "within bound"


def _change(base: Sequence[float], new: Sequence[float]) -> float:
    """Change of the median, in percent of the base median."""
    return (statistics.median(new) / statistics.median(base) - 1.0) * 100.0


def _row(workload: str, metric: str, base: Sequence[Dict[str, object]],
         new: Sequence[Dict[str, object]], spec: Dict[str, object]) -> Tuple[str, str]:
    def values(runs, kind="e2e"):
        return [run[kind][metric]["value"] for run in runs]

    bq1, bmed, bq3 = quartiles(values(base))
    nq1, nmed, nq3 = quartiles(values(new))
    decided = verdict(values(base), values(new), spec["better"], spec["bound"])
    line = (
        f"{workload:<14} {metric:<12} {bmed:>10.4g} {100 * (bq3 - bq1) / bmed:>6.1f}% "
        f"{nmed:>10.4g} {100 * (nq3 - nq1) / nmed:>6.1f}% "
        f"{_change(values(base), values(new)):>+7.2f}% "
        f"{_change(values(base, 'raw'), values(new, 'raw')):>+7.2f}% "
        f"{100 * spec['bound']:>5.1f}%  {decided} (n={len(base)}/{len(new)})"
    )
    return decided, line


def exact(name: str) -> bool:
    """Whether a per-layer value is fixed by the seed and run length: the
    simulated counts, call counts and the sizes of what was compiled.
    Host times, their shares and collector runs are not."""
    return unit_of(name) in EXACT_UNITS and name != "gc.collections"


def _deterministic(runs: Sequence[Dict[str, object]]) -> Dict[Tuple[str, str], set]:
    """(workload and run inputs, name) -> the set of values seen for each
    exact count."""
    seen: Dict[Tuple[str, str], set] = {}
    for run in runs:
        inputs = f"{run['workload']} seed={run['seed']} seconds={run['seconds']:g}"
        if "sim_overhead_pct" in run["extra"]:
            seen.setdefault((inputs, "sim_overhead_pct"), set()).add(
                run["extra"]["sim_overhead_pct"]["value"]
            )
        for name, value in run.get("layers", {}).items():
            if exact(name):
                seen.setdefault((inputs, name), set()).add(value)
    return seen


def compare(base_runs, new_runs, benchmark) -> Tuple[List[str], bool]:
    specs = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    lines = [
        f"{'workload':<14} {'metric':<12} {'base p50':>10} {'IQR':>7} "
        f"{'new p50':>10} {'IQR':>7} {'change':>8} {'raw':>8} {'bound':>6}  verdict",
    ]
    failed = False
    for workload in [entry["name"] for entry in benchmark["workloads"]]:
        base = [run for run in base_runs if run["workload"] == workload and not run["trace"]]
        new = [run for run in new_runs if run["workload"] == workload and not run["trace"]]
        if not base or not new:
            lines.append(f"{workload:<14} (no untraced runs on one side)")
            continue
        for metric, spec in specs.items():
            decided, line = _row(workload, metric, base, new, spec)
            failed |= decided in ("worse", "unresolved")
            lines.append(line)
    lines.append("")
    lines.append("simulated results (must be bit-identical across both sets):")
    base_seen, new_seen = _deterministic(base_runs), _deterministic(new_runs)
    identical = 0
    for key in sorted(set(base_seen) | set(new_seen)):
        values = base_seen.get(key, set()) | new_seen.get(key, set())
        if len(values) == 1 and key in base_seen and key in new_seen:
            identical += 1
            continue
        failed = True
        lines.append(f"  DIFFERS {key[0]} {key[1]}: {sorted(values)}")
    lines.append(f"  {identical} of {len(set(base_seen) | set(new_seen))} values identical")
    return lines, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.r2cbench.compare")
    parser.add_argument("base", help="directory of --out reports from the base code")
    parser.add_argument("new", help="directory of --out reports from the new code")
    args = parser.parse_args(argv)
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    lines, failed = compare(load_runs(args.base), load_runs(args.new), benchmark)
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
