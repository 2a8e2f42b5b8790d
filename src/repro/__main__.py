"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro list                 # what can be regenerated
    python -m repro table1 [--quick]     # Table 1 component overheads
    python -m repro figure6 --jobs 4     # fan runs out over 4 processes
    python -m repro table2 table3 ...    # any subset, in order
    python -m repro all --quick --jobs 4 # everything, reduced inputs
    python -m repro lint --corpus spec   # static verification sweep
    python -m repro chaos --jobs 4       # fault-injection matrix
    python -m repro profile xz           # hot-path cycle profile

``--quick`` shrinks benchmark subsets and seed counts so a full pass
finishes in a couple of minutes; omit it for the benchmark-suite-sized
runs (identical to ``pytest benchmarks/``).  ``--jobs N`` runs
independent (benchmark × machine × config × seed) cells on N worker
processes; results are identical to the serial path.  ``--records-out
PATH`` appends one JSONL record per executed run for offline analysis.
The command exits 1 when any run ended in a non-ok outcome.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.eval import experiments, report
from repro.eval.engine import ExperimentEngine, set_session_engine
from repro.machine.backends import DEFAULT_BACKEND, available_backends

QUICK_BENCHMARKS = ["perlbench", "mcf", "lbm", "omnetpp", "xalancbmk", "xz"]


def write_artifact(path: str, text: str, what: str) -> None:
    """Write ``text`` plus a newline to ``path`` and say so."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(f"[{what} -> {path}]")


def add_workload_args(parser: argparse.ArgumentParser, help: str) -> None:
    """The arguments naming one compiled, loaded SPEC workload."""
    from repro.workloads.spec import SPEC_BENCHMARKS

    parser.add_argument("workload", choices=sorted(SPEC_BENCHMARKS), help=help)
    parser.add_argument(
        "--config",
        default="full",
        choices=("baseline", "full"),
        help="diversification config (default: full)",
    )
    parser.add_argument(
        "--seed", type=int, default=1, metavar="N", help="compile seed (default: 1)"
    )
    parser.add_argument(
        "--load-seed", type=int, default=1, metavar="N", help="loader ASLR seed"
    )
    parser.add_argument(
        "--machine", default="epyc-rome", help="cost model (default: epyc-rome)"
    )


def add_backend_arg(parser: argparse.ArgumentParser, help: str) -> None:
    """``--backend``, defaulting to :data:`DEFAULT_BACKEND`."""
    parser.add_argument(
        "--backend",
        default=DEFAULT_BACKEND,
        choices=available_backends(),
        help=f"{help} (default: {DEFAULT_BACKEND})",
    )


def load_workload(args):
    """Compile and load the workload :func:`add_workload_args` parsed;
    returns ``(binary, process)``."""
    from repro.core.compiler import R2CCompiler
    from repro.core.config import R2CConfig
    from repro.machine.loader import load_binary
    from repro.workloads.spec import build_spec_benchmark

    make_config = R2CConfig.full if args.config == "full" else R2CConfig.baseline
    binary = R2CCompiler(make_config(seed=args.seed)).compile(
        build_spec_benchmark(args.workload)
    )
    return binary, load_binary(binary, seed=args.load_seed)


def run_table1(quick: bool) -> str:
    rows = experiments.experiment_table1(
        seeds=(1,) if quick else (1, 2),
        benchmarks=QUICK_BENCHMARKS if quick else None,
    )
    return report.render_table1(rows)


def run_table2(quick: bool) -> str:
    counts = experiments.experiment_table2(inputs=(1,) if quick else (1, 2, 3))
    return report.render_table2(counts)


def run_figure6(quick: bool) -> str:
    data = experiments.experiment_figure6(
        seeds=(1,) if quick else (1, 2),
        benchmarks=QUICK_BENCHMARKS if quick else None,
    )
    return report.render_figure6(data)


def run_webserver(quick: bool) -> str:
    data = experiments.experiment_webserver(
        requests=80 if quick else 150, seeds=(1,) if quick else (1, 2)
    )
    return report.render_webserver(data)


def run_memory(quick: bool) -> str:
    data = experiments.experiment_memory(
        benchmarks=QUICK_BENCHMARKS if quick else None
    )
    return report.render_memory(data)


def run_scalability(quick: bool) -> str:
    rows = experiments.experiment_scalability(sizes=(100, 300) if quick else (200, 600, 1800))
    return report.render_scalability(rows)


def run_table3(quick: bool) -> str:
    matrix = experiments.experiment_table3(trials=1 if quick else 3)
    return report.render_table3(matrix)


def run_security(quick: bool) -> str:
    data = experiments.experiment_security_probabilities(
        mc_trials=20_000 if quick else 200_000,
        stack_samples=6 if quick else 25,
    )
    return report.render_security_probabilities(data)


def run_sweeps(quick: bool) -> str:
    btra = experiments.experiment_btra_sweep(
        counts=(2, 10) if quick else (2, 5, 10, 15, 20)
    )
    btdp = experiments.experiment_btdp_sweep(
        maxima=(0, 5) if quick else (0, 2, 5, 8),
        stack_samples=3 if quick else 8,
    )
    return report.render_btra_sweep(btra) + "\n\n" + report.render_btdp_sweep(btdp)


def run_optlevels(quick: bool) -> str:
    data = experiments.experiment_opt_levels(
        redundancies=(0, 25) if quick else (0, 10, 25)
    )
    return report.render_opt_levels(data)


def run_decomposition(quick: bool) -> str:
    data = experiments.experiment_overhead_decomposition(
        benchmark="xz" if quick else "omnetpp"
    )
    return report.render_decomposition(data)


def run_supervised(quick: bool) -> str:
    rows = experiments.experiment_supervised(trials=1 if quick else 3)
    return report.render_supervised(rows)


def run_chaos_command(args) -> int:
    """``python -m repro chaos``: fault-injection matrix over the engine.

    Exits 1 unless every injected fault surfaced as its expected outcome
    with a full request-ordered record list, so CI can gate on it.
    With ``--fleet``, chaos instead targets the serving layer: seeded
    worker kills/hangs, attack-probe arrivals, and compile faults against
    a live fleet, gating on the zero-lost-requests contract.
    """
    from repro.reliability.chaos import run_chaos, run_fleet_chaos

    started = time.perf_counter()
    if args.fleet:
        fleet_report = run_fleet_chaos(
            backend=args.backend, seed=args.seed, workers=args.workers
        )
        serving = fleet_report.serving
        outcomes = " ".join(
            f"{name}={count}"
            for name, count in sorted(serving.get("outcomes", {}).items())
        )
        print(
            f"Fleet chaos: workers={fleet_report.workers} "
            f"backend={fleet_report.backend} seed={fleet_report.seed}"
        )
        print(f"  arrivals {serving.get('arrivals', 0)}  ({outcomes})")
        print(
            f"  kills {serving.get('kills', 0)}  hangs {serving.get('hangs', 0)}  "
            f"compile faults {serving.get('compile_faults', 0)}  "
            f"swaps {serving.get('swaps', 0)}  restarts {serving.get('restarts', 0)}"
        )
        if fleet_report.ok:
            print("chaos: OK — the fleet resolved every request under fire")
        else:
            print(f"chaos: {len(fleet_report.violations)} violation(s):")
            for violation in fleet_report.violations:
                print(f"  {violation}")
        print(f"[{time.perf_counter() - started:.1f}s]")
        if args.out:
            write_artifact(args.out, fleet_report.to_json(), "chaos report")
        return 0 if fleet_report.ok else 1
    chaos_report = run_chaos(
        jobs=args.jobs, backend=args.backend, seed=args.seed, timeout=args.timeout
    )
    print(report.render_chaos(chaos_report))
    print(f"[{time.perf_counter() - started:.1f}s]")
    if args.out:
        write_artifact(args.out, chaos_report.to_json(), "chaos report")
    return 0 if chaos_report.ok else 1


def chaos_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Inject every fault kind (bitflips, allocator OOM, "
        "compile errors, worker crashes, worker hangs) into real workloads "
        "and assert the experiment engine degrades them into structured "
        "failure records instead of losing the batch.",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=2,
        metavar="N",
        help="worker processes (default: 2; crashes/hangs need a pool)",
    )
    add_backend_arg(parser, "execution backend")
    parser.add_argument(
        "--seed", type=int, default=0, metavar="N", help="fault-plan seed (default: 0)"
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        metavar="S",
        help="per-batch wall-clock deadline in seconds (default: 10)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH", help="write the chaos report as JSON"
    )
    parser.add_argument(
        "--fleet",
        action="store_true",
        help="chaos the serving layer instead: kill/hang worker fractions, "
        "attack probes, and compile faults against a live fleet",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="fleet worker count for --fleet (default: 4)",
    )
    args = parser.parse_args(argv)
    return run_chaos_command(args)


def run_lint_command(args) -> int:
    """``python -m repro lint``: the static verification sweep.

    Exits 1 on any finding, so CI can gate on it directly.
    """
    from repro.analysis.lint import run_lint

    started = time.perf_counter()
    lint_report = run_lint(
        args.corpus,
        seeds=args.seeds,
        config=args.config,
        quick=args.quick,
        run=args.run,
    )
    print(report.render_lint(lint_report))
    print(f"[{time.perf_counter() - started:.1f}s]")
    if args.out:
        write_artifact(args.out, lint_report.to_json(), "findings report")
    return 0 if lint_report.ok else 1


def lint_main(argv) -> int:
    from repro.analysis.lint import CONFIGS, CORPORA

    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Statically verify compiled corpora: IR well-formedness, "
        "stack/unwind invariants, BTRA/BTDP/trap placement, and "
        "diversification entropy.",
    )
    parser.add_argument(
        "--corpus", default="spec", choices=CORPORA, help="corpus to verify"
    )
    parser.add_argument(
        "--seeds", type=int, default=3, metavar="N", help="seeds per module (default: 3)"
    )
    parser.add_argument(
        "--config",
        default="full",
        choices=sorted(CONFIGS),
        help="diversification config to verify under (default: full)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced corpus sizes for CI smoke legs"
    )
    parser.add_argument(
        "--run",
        action="store_true",
        help="also execute each cell with RunRequest.verify set",
    )
    add_backend_arg(parser, "execution backend for --run cells")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N", help="worker processes for --run cells"
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH", help="write the findings report as JSON"
    )
    args = parser.parse_args(argv)
    engine = set_session_engine(ExperimentEngine(jobs=args.jobs, backend=args.backend))
    try:
        return run_lint_command(args)
    finally:
        engine.close()


def profile_main(argv) -> int:
    """``python -m repro profile``: per-function/per-RIP cycle attribution.

    Compiles one SPEC workload, runs it with a :class:`CycleProfiler`
    attached, and prints the hot-path report.  ``--folded`` writes
    flamegraph-ready folded stacks; ``--trace`` additionally captures the
    compile/run span tree as Chrome ``trace_event`` JSON (load it in
    ``chrome://tracing`` or Perfetto).
    """
    from repro.machine.backends import run
    from repro.machine.costs import get_costs
    from repro.machine.state import MachineState
    from repro.obs.profiler import CycleProfiler
    from repro.obs.tracing import enable_tracing, get_collector

    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description="Profile one workload: per-function and per-address "
        "cycle attribution with BTRA-safe call stacks.",
    )
    add_workload_args(parser, "SPEC workload to profile")
    add_backend_arg(
        parser, "execution backend; profiles are byte-identical on every backend"
    )
    parser.add_argument(
        "--top", type=int, default=15, metavar="N", help="rows per report table"
    )
    parser.add_argument(
        "--folded", default=None, metavar="PATH", help="write folded stacks for flamegraphs"
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH", help="write Chrome trace_event JSON"
    )
    args = parser.parse_args(argv)

    if args.trace:
        enable_tracing(True)
    started = time.perf_counter()
    _, process = load_workload(args)
    state = MachineState(process, get_costs(args.machine), attribute_tags=True)
    profiler = CycleProfiler(state)
    result = run(state, args.backend)
    print(profiler.report(top=args.top))
    print()
    btra = sum(n for tag, n in result.tag_counts.items() if tag.startswith("btra"))
    btdp = sum(n for tag, n in result.tag_counts.items() if tag.startswith("btdp"))
    print(
        f"counters: {result.instructions} instructions, "
        f"{result.cycles:.0f} cycles, "
        f"i-cache miss rate {100.0 * result.icache_miss_rate:.2f}%, "
        f"{result.branches_taken}/{result.branches} branches taken, "
        f"{btra} BTRA / {btdp} BTDP events"
    )
    print(f"[{time.perf_counter() - started:.1f}s]")
    if args.folded:
        write_artifact(args.folded, profiler.folded_stacks(), "folded stacks")
    if args.trace:
        get_collector().write_chrome_trace(args.trace)
        print(f"[chrome trace -> {args.trace}]")
    return 0


def disasm_blocks_main(argv) -> int:
    """``python -m repro disasm-blocks``: the tier-1 block CFG of one
    workload.

    Compiles and loads the workload exactly as a run would, recovers the
    basic-block CFG from the process's instruction index
    (:func:`repro.machine.blocks.recover_blocks`), and prints one section
    per block: address range, instruction count, the tier the jit takes
    the block's head to (2 = compiles to a block function, 1 =
    interpreter-only, with the instruction that cannot lower), its
    compare-and-branch fusion (``cmp+jcc``, the one superinstruction the
    jit compiles; the header's count sums it over tier-2 blocks), and
    static successor edges.  Tier and fusion come from the jit's own lowering
    of the head (:func:`repro.machine.jit.lower_slice`), whose slice runs
    through the next terminator — past the block's end when an incoming
    branch split the block.

    With ``--traces`` the workload is additionally *run* under the jit
    backend and the dump gains the loop traces it recorded — segment
    list, length — plus a per-block membership annotation.  Traces are
    dynamic (recorded from hot paths), so this is the only part of the
    dump that needs a run.
    """
    from repro.machine.backends import get_backend, run
    from repro.machine.blocks import recover_blocks
    from repro.machine.costs import get_costs
    from repro.machine.jit import lower_slice
    from repro.machine.loader import load_binary
    from repro.machine.state import MachineState

    parser = argparse.ArgumentParser(
        prog="python -m repro disasm-blocks",
        description="Print the recovered basic-block CFG of one workload "
        "with per-block lowering tiers and fusion annotations.",
    )
    add_workload_args(parser, "SPEC workload to disassemble")
    parser.add_argument(
        "--tier", type=int, default=None, choices=(1, 2), help="only blocks at this tier"
    )
    parser.add_argument(
        "--traces",
        action="store_true",
        help="run the workload under the jit backend and show its loop traces",
    )
    args = parser.parse_args(argv)

    binary, process = load_workload(args)
    costs = get_costs(args.machine)
    blocks = recover_blocks(process.instructions)
    lowerings = {
        block.addr: lower_slice(process.instructions, block.addr) for block in blocks
    }
    compiled = [lowering for lowering in lowerings.values() if lowering.compiles]
    print(
        f"{args.workload} ({args.config}, seed {args.seed}): "
        f"{len(blocks)} blocks, {len(compiled)} at tier 2, "
        f"{len(blocks) - len(compiled)} at tier 1, "
        f"{sum(len(lowering.fused) for lowering in compiled)} superinstructions fused"
    )
    # Tier-3 trace membership needs a run: traces are recorded from hot
    # dynamic paths.  Run a fresh process so the CFG dump above stays a
    # pre-run view.
    traces: dict = {}
    membership: dict = {}
    if args.traces:
        state = MachineState(load_binary(binary, seed=args.load_seed), costs)
        run(state, "jit")
        # prepare returns the program the run used: it is cached per process.
        traces = get_backend("jit").prepare(state).trace_info()
        for head, info in traces.items():
            for segment in info["segments"]:
                membership.setdefault(segment, []).append(head)
        print(f"loop traces: {len(traces)}")
    # Address -> symbol for block-head labels (function heads only).
    symbols = {
        address: name
        for name, address in sorted(process.symbols.items())
        if "::" not in name
    }
    for block in blocks:
        lowering = lowerings[block.addr]
        tier = 2 if lowering.compiles else 1
        if args.tier is not None and tier != args.tier:
            continue
        label = symbols.get(block.addr)
        where = f" <{label}>" if label else ""
        print(
            f"\nblock {block.bid}{where}: [{block.addr:#x}, {block.end:#x}) "
            f"{len(block)} uops, tier {tier}"
        )
        if lowering.compiles:
            for kind, start, count in lowering.fused:
                print(f"  fused {kind}: {count} uops from {lowering.items[start][0]:#x}")
        else:
            addr, instr = lowering.items[len(lowering.jus)]
            print(f"  stays tier 1: no tier-2 lowering for {instr.op.name} at {addr:#x}")
        for head in membership.get(block.addr, ()):
            note = " (head)" if head == block.addr else ""
            print(f"  in trace {head:#x}{note}")
        for kind, target in block.successors():
            where = f"{target:#x}" if target is not None else "dynamic"
            print(f"  -> {kind} {where}")
    for head, info in sorted(traces.items()):
        print(
            f"\ntrace {head:#x}: {len(info['segments'])} segments, "
            f"{info['length']} instructions"
        )
        print("  segments: " + ", ".join(f"{s:#x}" for s in info["segments"]))
    return 0


def mvee_main(argv) -> int:
    """``python -m repro mvee``: run N variants in batched lockstep.

    Two modes:

    * **attack** (default): one N-variant
      :class:`~repro.attacks.scenario.VictimSession` probe — N
      differently-diversified builds, a scripted attack's writes
      replicated from the leader into the followers, and the lockstep
      cross-check (the Section 7.3 MVEE combination).
    * **bitflip** (``--bitflip-seed N``): run N replicas of one build
      with seeded memory corruption in one follower; replica mode pins
      the divergence to a variant, sync point, and register.

    ``--out`` writes a ``repro-divergence/v1`` JSON artifact (CI uploads
    it).  Exits 1 only when every variant was compromised identically —
    the one outcome an MVEE deployment cannot detect.
    """
    import json

    from repro.attacks.aocr import make_aocr_hook
    from repro.attacks.fengshui import make_fengshui_hook
    from repro.attacks.rop import make_rop_hook
    from repro.attacks.scenario import VictimSession, output_success
    from repro.core.config import R2CConfig
    from repro.defenses.lockstep import MveeOutcome, run_bitflip_lockstep

    hooks = {
        "aocr": make_aocr_hook,
        "rop": make_rop_hook,
        "fengshui": make_fengshui_hook,
        "none": lambda: None,
    }
    configs = {
        "full": R2CConfig.full,
        "baseline": R2CConfig.baseline,
    }
    parser = argparse.ArgumentParser(
        prog="python -m repro mvee",
        description="Run N diversified variants in batched lockstep and "
        "cross-check their behaviour (the Section 7.3 MVEE combination).",
    )
    parser.add_argument(
        "--variants", type=int, default=2, metavar="N", help="variant count (default: 2)"
    )
    parser.add_argument(
        "--attack",
        default="aocr",
        choices=sorted(hooks),
        help="scripted attack replicated into the followers (default: aocr)",
    )
    parser.add_argument(
        "--config",
        default="full",
        choices=sorted(configs),
        help="diversification config per variant (default: full)",
    )
    parser.add_argument(
        "--build-seed", type=int, default=0, metavar="N", help="base compile seed"
    )
    parser.add_argument(
        "--attacker-seed", type=int, default=0, metavar="N", help="attacker RNG seed"
    )
    add_backend_arg(parser, "execution backend")
    parser.add_argument(
        "--sync-every", type=int, default=256, metavar="N", help="cross-check batch size"
    )
    parser.add_argument(
        "--bitflip-seed",
        type=int,
        default=None,
        metavar="N",
        help="replica mode: seed N bitflips into one follower instead of attacking",
    )
    parser.add_argument(
        "--flips", type=int, default=96, metavar="N", help="bitflip count (replica mode)"
    )
    parser.add_argument(
        "--corrupt-variant",
        type=int,
        default=1,
        metavar="I",
        help="which follower takes the bitflips (replica mode, default: 1)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH", help="write the divergence report as JSON"
    )
    args = parser.parse_args(argv)
    if args.variants < 2:
        parser.error("--variants must be at least 2")

    started = time.perf_counter()
    if args.bitflip_seed is not None:
        mode = "bitflip"
        lockstep = run_bitflip_lockstep(
            variants=args.variants,
            corrupt_variant=args.corrupt_variant,
            fault_seed=args.bitflip_seed,
            flips=args.flips,
            backend=args.backend,
            sync_every=min(args.sync_every, 64),
        )
    else:
        mode = f"attack:{args.attack}"
        session = VictimSession(
            configs[args.config](),
            build_seed=args.build_seed,
            load_seed=0xBEEF,
            variants=args.variants,
            backend=args.backend,
            sync_every=args.sync_every,
        )
        probe = session.probe_ex(hooks[args.attack](), attacker_seed=args.attacker_seed)
        lockstep = probe.lockstep
    for variant in lockstep.variants:
        exit_code = variant.state._exit_code if variant.status == "exit" else None
        if mode == "bitflip":
            mark = " (corrupted)" if variant.index == args.corrupt_variant else ""
        else:
            mark = " [attacker goal reached]" if output_success(variant.output) else ""
        print(
            f"  v{variant.index}: {variant.status} exit={exit_code} "
            f"after {variant.result.instructions} instructions{mark}"
        )
    outcome, divergence = lockstep.outcome, lockstep.divergence
    print(f"outcome: {outcome.value} ({lockstep.sync_points} sync points)")
    # The notes carry the divergence summary line, if any.
    for note in lockstep.notes:
        print(f"  note: {note}")
    print(f"[{time.perf_counter() - started:.1f}s]")
    if args.out:
        payload = {
            "schema": "repro-divergence/v1",
            "mode": mode,
            "variants": args.variants,
            "backend": args.backend,
            "outcome": outcome.value,
            "sync_points": lockstep.sync_points,
            "divergence": divergence.to_dict() if divergence else None,
        }
        write_artifact(
            args.out, json.dumps(payload, sort_keys=True, indent=2), "divergence report"
        )
    return 1 if outcome is MveeOutcome.COMPROMISED else 0


def fleet_main(argv) -> int:
    """``python -m repro fleet``: the serving-axis benchmark.

    Drives a supervised victim fleet with seeded open-loop load (optionally
    under chaos) and prints the serving report; ``--out`` writes it as a
    ``repro-fleet/v1`` artifact.  Exits 1 if any request was lost, the
    artifact fails validation, or — with ``--chaos`` — nothing actually
    went wrong (an un-exercised chaos leg is a broken chaos leg).
    """
    import json

    from repro.fleet.loadgen import run_fleet, validate

    parser = argparse.ArgumentParser(
        prog="python -m repro fleet",
        description="Schedule seeded open-loop load across a pool of "
        "supervised victim workers with admission control, hedged "
        "retries, deadlines, and MARDU-style rolling re-randomization; "
        "report p50/p99 latency, sustained RPS, shed/retry/swap counts, "
        "and the attacker window.",
    )
    parser.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="victim worker slots (default: 4)",
    )
    parser.add_argument(
        "--rps", type=float, default=300.0, metavar="R",
        help="offered load, requests per virtual second (default: 300)",
    )
    parser.add_argument(
        "--duration", type=float, default=2.0, metavar="S",
        help="virtual seconds of load (default: 2.0)",
    )
    parser.add_argument(
        "--rerand-interval", type=float, default=1.0, metavar="K",
        help="per-worker re-randomization period in virtual seconds "
        "(default: 1.0; 0 disables rotation)",
    )
    parser.add_argument(
        "--deadline", type=float, default=0.1, metavar="S",
        help="per-request deadline in virtual seconds (default: 0.1)",
    )
    add_backend_arg(
        parser,
        "execution backend for the measured service profiles; "
        "metrics are backend-invariant",
    )
    parser.add_argument(
        "--machine", default="epyc-rome", help="cost model (default: epyc-rome)"
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="load/chaos/diversification seed (default: 0)",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="arm seeded worker kills/hangs, attack probes, and compile "
        "faults; the run must still resolve every request",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the repro-fleet/v1 artifact as JSON",
    )
    args = parser.parse_args(argv)

    started = time.perf_counter()
    fleet_report = run_fleet(
        workers=args.workers,
        rps=args.rps,
        duration_seconds=args.duration,
        rerand_interval=args.rerand_interval or None,
        backend=args.backend,
        machine=args.machine,
        seed=args.seed,
        chaos=args.chaos,
        deadline_seconds=args.deadline,
    )
    print(report.render_fleet(fleet_report))
    print(f"[{time.perf_counter() - started:.1f}s]")

    text = fleet_report.to_json()
    problems = validate(json.loads(text))
    if args.out:
        write_artifact(args.out, text, "fleet artifact")
    for problem in problems:
        print(f"schema violation: {problem}", file=sys.stderr)
    ok = fleet_report.zero_lost and not problems
    if args.chaos and fleet_report.kills + fleet_report.hangs == 0:
        print("chaos armed but no worker was killed or hung", file=sys.stderr)
        ok = False
    return 0 if ok else 1


def mine_main(argv) -> int:
    """``python -m repro mine``: the static gadget dataflow miner.

    Compiles N seed variants of one workload, censuses every ROP/JOP
    gadget by semantic summary (:mod:`repro.analysis.gadgets`),
    intersects the censuses for invariant gadgets (position-pinned and
    position-independent), synthesizes attack chains against the first
    variant, concretely re-executes a sample of summaries on the
    reference backend, and writes a ``repro-gadgets/v1`` artifact.
    Exits 1 on any summary/concrete mismatch or schema violation.
    """
    import json

    from repro.analysis.gadgets import GADGET_WINDOW, mine, validate
    from repro.analysis.lint import CONFIGS
    from repro.workloads.spec import SPEC_BENCHMARKS, build_spec_benchmark

    workloads = sorted(SPEC_BENCHMARKS) + ["victim", "webserver"]
    parser = argparse.ArgumentParser(
        prog="python -m repro mine",
        description="Mine ROP/JOP gadgets across N diversified variants: "
        "semantic census, invariant-gadget intersection, chain synthesis, "
        "and a repro-gadgets/v1 artifact.",
    )
    parser.add_argument("workload", choices=workloads, help="workload to mine")
    parser.add_argument(
        "--variants",
        type=int,
        default=3,
        metavar="N",
        help="seed variants to census (default: 3)",
    )
    parser.add_argument(
        "--seed", type=int, default=1, metavar="N", help="first variant seed (default: 1)"
    )
    parser.add_argument(
        "--config",
        default="full",
        choices=sorted(CONFIGS),
        help="diversification config to mine under (default: full)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=GADGET_WINDOW,
        metavar="N",
        help=f"longest gadget suffix in instructions (default: {GADGET_WINDOW})",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH", help="write the artifact as JSON"
    )
    args = parser.parse_args(argv)
    if args.variants < 2:
        parser.error("--variants must be at least 2")

    if args.workload == "victim":
        from repro.workloads.victim import build_victim

        module = build_victim()
    elif args.workload == "webserver":
        from repro.workloads.webserver import SERVERS, build_webserver

        module = build_webserver(SERVERS[0])
    else:
        module = build_spec_benchmark(args.workload)
    config = CONFIGS[args.config](args.seed)
    seeds = [args.seed + index for index in range(args.variants)]

    started = time.perf_counter()
    mine_report = mine(
        module,
        config,
        seeds,
        workload=args.workload,
        config_name=args.config,
        window=args.window,
    )
    print(mine_report.render())
    print(f"[{time.perf_counter() - started:.1f}s]")
    text = mine_report.to_json()
    problems = validate(json.loads(text))
    if args.out:
        write_artifact(args.out, text, "gadget artifact")
    for problem in problems:
        print(f"schema violation: {problem}", file=sys.stderr)
    return 0 if mine_report.ok and not problems else 1


EXPERIMENTS = {
    "table1": (run_table1, "Table 1: component overheads"),
    "table2": (run_table2, "Table 2: call frequencies"),
    "figure6": (run_figure6, "Figure 6: full R2C on four machines"),
    "webserver": (run_webserver, "Section 6.2.4: webserver throughput"),
    "memory": (run_memory, "Section 6.2.5: memory overhead"),
    "scalability": (run_scalability, "Section 6.3: browser-scale compilation"),
    "table3": (run_table3, "Table 3: attacks vs defenses"),
    "security": (run_security, "Sections 7.2.1/7.2.3: guessing probabilities"),
    "sweeps": (run_sweeps, "Parameter sweeps: BTRA count / BTDP density"),
    "optlevels": (run_optlevels, "Overhead by optimization level"),
    "decomposition": (run_decomposition, "Overhead decomposition by instruction tag"),
    "supervised": (run_supervised, "Section 4.2: restart policies vs crash probing"),
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # lint has its own flag set (corpus/seeds/config), so it gets its
        # own parser instead of riding the experiment options.
        return lint_main(list(argv[1:]))
    if argv and argv[0] == "chaos":
        # chaos likewise: it builds its own fault-armed engine.
        return chaos_main(list(argv[1:]))
    if argv and argv[0] == "profile":
        return profile_main(list(argv[1:]))
    if argv and argv[0] == "disasm-blocks":
        return disasm_blocks_main(list(argv[1:]))
    if argv and argv[0] == "mvee":
        return mvee_main(list(argv[1:]))
    if argv and argv[0] == "mine":
        return mine_main(list(argv[1:]))
    if argv and argv[0] == "fleet":
        return fleet_main(list(argv[1:]))
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the R2C paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=f"'list', 'all', or any of: {', '.join(EXPERIMENTS)}",
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced inputs (~minutes, not tens of minutes)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for independent runs (default: 1, serial)",
    )
    add_backend_arg(
        parser,
        "execution backend for all runs; every backend gives the same results",
    )
    parser.add_argument(
        "--records-out",
        default=None,
        metavar="PATH",
        help="append per-run JSONL records to PATH",
    )
    args = parser.parse_args(argv)

    if args.experiments == ["list"]:
        for name, (_, title) in EXPERIMENTS.items():
            print(f"  {name:13s} {title}")
        print(f"  {'lint':13s} Static verification sweep (own flags; see lint --help)")
        print(f"  {'chaos':13s} Fault-injection matrix (own flags; see chaos --help)")
        print(f"  {'profile':13s} Hot-path cycle profile (own flags; see profile --help)")
        print(f"  {'disasm-blocks':13s} Tier-1 block CFG dump (own flags; see disasm-blocks --help)")
        print(f"  {'mvee':13s} N-variant lockstep cross-check (own flags; see mvee --help)")
        print(f"  {'mine':13s} Static gadget dataflow miner (own flags; see mine --help)")
        print(f"  {'fleet':13s} Supervised victim fleet serving bench (own flags; see fleet --help)")
        return 0

    names = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s) {unknown}; try 'list'")
    if args.records_out:
        # Fail before hours of experiments, not after.
        try:
            open(args.records_out, "a", encoding="utf-8").close()
        except OSError as error:
            parser.error(f"--records-out {args.records_out}: {error}")

    engine = set_session_engine(ExperimentEngine(jobs=args.jobs, backend=args.backend))
    try:
        for name in names:
            fn, title = EXPERIMENTS[name]
            print(f"=== {title} ===")
            started = time.perf_counter()
            print(fn(args.quick))
            print(f"[{time.perf_counter() - started:.1f}s]")
            print()
        summary = engine.summary()
        if engine.records:
            print(report.render_engine_summary(summary))
        if args.records_out:
            count = engine.write_records(args.records_out)
            print(f"[{count} run records -> {args.records_out}]")
    finally:
        engine.close()
    # A failed run leaves partial counters behind the printed ratios.
    return 1 if summary.failures.failures else 0


if __name__ == "__main__":
    sys.exit(main())
