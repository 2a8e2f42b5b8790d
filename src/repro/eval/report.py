"""Text renderers that print experiment results in the paper's shapes."""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.workloads.victim import ATTACK_ARG  # noqa: F401  (re-export convenience)


def render_table1(rows: Dict[str, Dict[str, object]]) -> str:
    """Render the Table 1 component-overhead summary (max / geomean)."""
    lines = ["Component overheads (ratio to baseline)", ""]
    lines.append(f"{'':8s} {'max':>6s} {'geomean':>8s}")
    for label, row in rows.items():
        lines.append(f"{label:8s} {row['max']:6.2f} {row['geomean']:8.2f}")
    return "\n".join(lines)


def render_table2(counts: Dict[str, int]) -> str:
    lines = ["Median call frequencies (simulated runs)", ""]
    lines.append(f"{'Benchmark':12s} {'Call Frequency':>14s}")
    for name, value in counts.items():
        lines.append(f"{name:12s} {value:14,d}")
    return "\n".join(lines)


def render_figure6(data: Dict[str, Dict[str, float]]) -> str:
    machines = sorted(next(iter(data.values())).keys())
    lines = ["Full R2C overhead (%) per benchmark and machine", ""]
    header = f"{'benchmark':12s}" + "".join(f"{m:>11s}" for m in machines)
    lines.append(header)
    for name, per_machine in data.items():
        row = f"{name:12s}" + "".join(f"{per_machine[m]:11.1f}" for m in machines)
        lines.append(row)
    return "\n".join(lines)


def render_webserver(data: Dict[str, Dict[str, float]]) -> str:
    lines = ["Webserver throughput decrease (%)", ""]
    machines = sorted(next(iter(data.values())).keys())
    lines.append(f"{'server':8s}" + "".join(f"{m:>11s}" for m in machines))
    for server, per_machine in data.items():
        lines.append(f"{server:8s}" + "".join(f"{per_machine[m]:11.1f}" for m in machines))
    return "\n".join(lines)


def render_memory(data: Dict[str, object]) -> str:
    lines = ["Memory (maxrss) overhead (%)", ""]
    for name, pct in data["spec"].items():
        lines.append(f"  SPEC {name:12s} {pct:6.1f}%")
    for server, pct in data["webserver"].items():
        share = data["btdp_share"][server]
        lines.append(f"  {server:17s} {pct:6.1f}%   ({share:.0f}% of overhead from BTDP pages)")
    return "\n".join(lines)


def render_scalability(rows: List[Dict[str, object]]) -> str:
    lines = ["Scalability: browser-scale corpora under full R2C", ""]
    lines.append(
        f"{'functions':>10s} {'instrs':>9s} {'text KiB':>9s} {'compile s':>10s} {'verified':>9s}"
    )
    for row in rows:
        lines.append(
            f"{row['functions']:>10d} {row['instructions']:>9d} "
            f"{row['text_bytes'] / 1024:>9.1f} {row['compile_seconds']:>10.2f} "
            f"{str(row['verified']):>9s}"
        )
    return "\n".join(lines)


def render_table3(matrix: Dict[str, Dict[str, Dict[str, int]]]) -> str:
    """Render the defense-comparison matrix with the paper's circles:
    a defense gets ● for an attack class when no trial succeeded."""
    attacks = list(next(iter(matrix.values())).keys())
    lines = ["Defense comparison (● = attack never succeeded, ◐ = mixed, ○ = attack succeeds)", ""]
    lines.append(f"{'defense':12s}" + "".join(f"{a:>17s}" for a in attacks))
    for defense, row in matrix.items():
        cells = []
        for attack in attacks:
            tallies = row[attack]
            total = sum(tallies.values())
            successes = tallies["success"]
            if successes == 0:
                mark = "●"
            elif successes == total:
                mark = "○"
            else:
                mark = "◐"
            cells.append(f"{mark} ({successes}/{total})".rjust(17))
        lines.append(f"{defense:12s}" + "".join(cells))
    return "\n".join(lines)


def render_security_probabilities(data: Dict[str, object]) -> str:
    lines = ["BTRA guessing probability: closed form vs Monte Carlo", ""]
    for n, closed in data["btra_closed_form"].items():
        measured = data["btra_measured"][n]
        lines.append(f"  n={n}: closed={closed:.7f}  measured={measured:.7f}")
    frac = data["heap_benign_fraction"]
    if frac is not None:
        lines.append("")
        lines.append(
            f"Heap-pointer cluster: benign fraction H/(H+B) measured = {frac:.3f}"
        )
    return "\n".join(lines)


def render_btra_sweep(data) -> str:
    lines = ["BTRA count sweep (overhead vs guessing probability)", ""]
    lines.append(f"{'BTRAs':>6s} {'overhead %':>11s} {'P(guess RA)':>12s}")
    for count, row in data.items():
        lines.append(
            f"{count:6d} {row['overhead_pct']:11.1f} {row['guess_probability']:12.4f}"
        )
    return "\n".join(lines)


def render_btdp_sweep(data) -> str:
    lines = ["BTDP density sweep (overhead vs benign heap-pointer fraction)", ""]
    lines.append(f"{'max/fn':>6s} {'overhead %':>11s} {'H/(H+B)':>9s}")
    for maximum, row in data.items():
        lines.append(
            f"{maximum:6d} {row['overhead_pct']:11.1f} {row['benign_fraction']:9.2f}"
        )
    return "\n".join(lines)


def render_opt_levels(data) -> str:
    lines = ["Full-R2C overhead by optimization level", ""]
    lines.append(f"{'benchmark':12s} {'-O0 %':>8s} {'-O1 %':>8s}")
    for name, row in data.items():
        lines.append(f"{name:12s} {row['O0']:8.1f} {row['O1']:8.1f}")
    return "\n".join(lines)


def render_engine_summary(summary) -> str:
    """Render an :class:`repro.eval.engine.EngineSummary`: cache behavior,
    compile/run host seconds summed over runs, and per-worker
    utilization.  Under ``jobs > 1`` each worker process compiles into its
    own cache, so the compile and compile-cache-hit counts are marked as
    per-worker, and the summed seconds can exceed the session's wall
    time."""
    per_worker = ", counted per worker process" if summary.jobs > 1 else ""
    lines = [
        f"Engine: {summary.executed} runs executed "
        f"({summary.requested} requested, {summary.run_cache_hits} run-cache hits) "
        f"across {summary.batches} batches, jobs={summary.jobs}, "
        f"backend={summary.backend}",
        f"  compiles{per_worker}: {summary.compiles} "
        f"(+{summary.compile_cache_hits} compile-cache hits, "
        f"{summary.distinct_binaries} distinct binaries)",
        f"  time summed over runs: compile {summary.compile_seconds:.2f}s, "
        f"run {summary.run_seconds:.2f}s",
    ]
    if summary.worker_runs:
        utilization = ", ".join(
            f"{worker}:{count}" for worker, count in sorted(summary.worker_runs.items())
        )
        lines.append(f"  workers ({summary.workers}): {utilization}")
    failures = summary.failures
    if not failures.clean:
        outcomes = ", ".join(
            f"{outcome}:{count}" for outcome, count in sorted(failures.by_outcome.items())
        )
        lines.append(f"  failures: {failures.failures} ({outcomes})")
        if failures.by_rule:
            rules = ", ".join(
                f"{rule}:{count}" for rule, count in sorted(failures.by_rule.items())
            )
            lines.append(f"  injected by rule: {rules}")
        if failures.pool_rebuilds or failures.quarantined or failures.serial_fallbacks:
            lines.append(
                f"  recovery: {failures.pool_rebuilds} pool rebuilds, "
                f"{failures.quarantined} quarantined, "
                f"{failures.serial_fallbacks} serial fallbacks"
            )
    return "\n".join(lines)


def render_supervised(rows: Dict[object, Dict[str, object]]) -> str:
    """Render the supervised-restart experiment: per (victim, policy)
    attack tallies plus the supervisor's detection/restart counters."""
    lines = [
        "Supervised restart policies vs crash-probing attack "
        "(medians across trials; latency = probes until first trap trip "
        "or crash storm)",
        "",
        f"{'victim':10s} {'policy':20s} {'success':>8s} {'probes':>7s} "
        f"{'crashes':>8s} {'restarts':>9s} {'denials':>8s} "
        f"{'backoff s':>10s} {'latency':>8s}",
    ]
    for (victim, policy), row in rows.items():
        tallies = row["tallies"]
        total = sum(tallies.values())
        latency = row["detection_latency"]
        lines.append(
            f"{victim:10s} {policy:20s} "
            f"{tallies.get('success', 0):>4d}/{total:<3d} "
            f"{row['probes']:>7.0f} {row['crashes']:>8.0f} "
            f"{row['restarts']:>9.0f} {row['denials']:>8.0f} "
            f"{row['backoff_seconds']:>10.1f} "
            f"{'-' if latency is None else format(latency, '.0f'):>8s}"
        )
    return "\n".join(lines)


def render_chaos(report) -> str:
    """Render a :class:`repro.reliability.chaos.ChaosReport`: the injected
    matrix cell-by-cell, then the verdict."""
    lines = [
        f"Chaos matrix: jobs={report.jobs} backend={report.backend} "
        f"seed={report.seed} timeout={report.timeout:g}s",
        "",
        f"{'cell':32s} {'outcome':8s} {'class':18s} {'rule':16s} ok",
    ]
    for cell in report.cells:
        lines.append(
            f"{cell.label:32s} {cell.outcome:8s} {cell.fault_class:18s} "
            f"{cell.rule:16s} {'yes' if cell.ok else 'NO'}"
        )
    lines.append("")
    if report.summary is not None:
        lines.append(render_engine_summary(report.summary))
        lines.append("")
    if report.ok:
        lines.append("chaos: OK — every injected fault surfaced as its expected outcome")
    else:
        lines.append(f"chaos: {len(report.violations)} violation(s):")
        for violation in report.violations:
            lines.append(f"  {violation}")
    return "\n".join(lines)


def render_fleet(report) -> str:
    """Render a :class:`repro.fleet.loadgen.FleetReport`: outcome tallies,
    latency percentiles, and the robustness counters."""
    outcomes = " ".join(
        f"{name}={count}" for name, count in sorted(report.outcomes.items())
    )
    lines = [
        f"Fleet: workers={report.workers} backend={report.backend} "
        f"seed={report.seed} offered={report.rps:g}rps "
        f"duration={report.duration_seconds:g}s "
        f"rerand={report.rerand_interval if report.rerand_interval else 'off'}"
        f"{' chaos' if report.chaos else ''}",
        "",
        f"  arrivals {report.arrivals}  ({outcomes})",
        f"  latency p50 {report.p50_ms:.2f}ms  p99 {report.p99_ms:.2f}ms  "
        f"sustained {report.sustained_rps:.1f} rps",
        f"  shed {report.shed}  retries {report.retries}  hedges {report.hedges}  "
        f"restarts {report.restarts}  quarantines {report.quarantines}  "
        f"spares {report.spare_activations}",
        f"  chaos: kills {report.kills}  hangs {report.hangs} "
        f"(detected {report.hang_detections})  compile faults {report.compile_faults}",
        f"  re-randomization: swaps {report.swaps}  layout changes "
        f"{report.layout_changes}  attacker window "
        f"{report.attacker_window_seconds:.3f}s  throughput dip "
        f"{report.throughput_dip_pct:.1f}% "
        f"({report.swap_window_rps:.1f} rps in swap windows vs "
        f"{report.steady_rps:.1f} steady)",
        f"  compile cache: hits {report.cache['hits']}  "
        f"misses {report.cache['misses']}  evictions {report.cache['evictions']}",
        "",
    ]
    if report.zero_lost:
        lines.append(
            "fleet: OK — every request resolved to a typed outcome "
            "(zero silent drops)"
        )
    else:
        lines.append("fleet: LOST REQUESTS — arrivals do not match outcomes")
    return "\n".join(lines)


def render_decomposition(data: Dict[str, float]) -> str:
    total = data.get("total_overhead_pct", 0.0)
    lines = [f"Overhead decomposition by emitted-instruction tag "
             f"(total overhead {total:.1f}%)", ""]
    for tag, share in data.items():
        if tag == "total_overhead_pct":
            continue
        lines.append(f"  {tag:24s} {share:6.1f}% of added cycles")
    return "\n".join(lines)


def render_lint(report) -> str:
    """Render an :class:`repro.analysis.lint.LintReport`: one row per
    target with its findings count and entropy-audit headline, followed by
    every finding's rule ID, site, and message."""
    lines = [
        f"Lint: corpus={report.corpus} config={report.config_name} "
        f"seeds={report.seeds}",
        "",
        f"{'target':12s} {'findings':>9s} {'gadget surv':>12s} "
        f"{'layout bits':>12s} {'regalloc div':>13s}",
    ]
    for target in report.targets:
        if target.audit is not None:
            survival = f"{target.audit.mean_survival:12.4f}"
            layout = f"{target.audit.layout_entropy_bits:12.2f}"
            regalloc = f"{target.audit.regalloc_divergence:>13.1%}"
        else:
            survival = f"{'-':>12s}"
            layout = f"{'-':>12s}"
            regalloc = f"{'-':>13s}"
        lines.append(
            f"{target.name:12s} {len(target.findings):>9d} {survival} {layout} {regalloc}"
        )
    lines.append("")
    if report.ok:
        lines.append("0 findings — corpus is clean.")
    else:
        lines.append(f"{len(report.findings)} finding(s):")
        for target in report.targets:
            for finding in target.findings:
                lines.append(f"  [{finding.rule}] {finding.where}: {finding.message}")
    return "\n".join(lines)
