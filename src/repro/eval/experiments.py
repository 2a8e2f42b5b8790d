"""Experiment drivers: one function per table/figure of the paper.

Index (see DESIGN.md section 4):

==========================  ==========================================
:func:`experiment_table1`   Table 1 — component overheads (Push / AVX /
                            BTDP / Prolog / Layout / OIA)
:func:`experiment_table2`   Table 2 — median call frequencies
:func:`experiment_figure6`  Figure 6 — full R2C overhead per benchmark
                            on four machines
:func:`experiment_webserver`    §6.2.4 — nginx/Apache throughput
:func:`experiment_memory`       §6.2.5 — maxrss overheads + BTDP share
:func:`experiment_scalability`  §6.3 — browser-scale compilation
:func:`experiment_table3`       Table 3 / §7.2 — attacks vs. defenses
:func:`experiment_security_probabilities`
                            §7.2.1 / §7.2.3 — guessing probabilities,
                            closed form vs. measured
==========================  ==========================================

Every driver returns plain data structures; :mod:`repro.eval.report`
renders them in the paper's table shapes.

The compile/run-shaped drivers do no execution of their own: they build
one keyed :class:`~repro.eval.engine.RequestBatch` spanning every
(benchmark × machine × config × seed) cell and submit it to the
:class:`~repro.eval.engine.ExperimentEngine` (serial by default,
process-pool parallel under ``--jobs N``), then read results back by
key.  Baselines are ordinary cells — the engine's caches, not driver
code, guarantee each one is compiled and run once per session.  The
attack-shaped drivers (Table 3, §7.2) drive victim sessions instead.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.attacks import ALL_ATTACKS
from repro.attacks.clustering import cluster_pointers
from repro.attacks.scenario import VictimSession
from repro.core.config import R2CConfig
from repro.defenses.related import DEFENSE_MODELS
from repro.eval.engine import (
    ExperimentEngine,
    RequestBatch,
    RunRequest,
    get_session_engine,
)
from repro.eval.stats import geomean, median, overhead_percent
from repro.machine.costs import MACHINE_PRESETS
from repro.machine.state import UNTAGGED_TAG
from repro.rng import DiversityRng
from repro.toolchain.interp import interpret_module
from repro.workloads.browser import generate_browser_corpus
from repro.workloads.spec import SPEC_BENCHMARKS, SPEC_FOOTPRINT_PAGES, build_spec_benchmark
from repro.workloads.webserver import SERVERS, build_webserver

DEFAULT_SEEDS = (1, 2, 3)

#: Table 1 rows: label -> configuration factory.
COMPONENT_CONFIGS: Dict[str, Callable[[int], R2CConfig]] = {
    "Push": R2CConfig.btra_push_only,
    "AVX": R2CConfig.btra_avx_only,
    "BTDP": R2CConfig.btdp_only,
    "Prolog": R2CConfig.prolog_only,
    "Layout": R2CConfig.layout_only,
    "OIA": R2CConfig.oia_only,
}


def _benchmarks(subset: Optional[Sequence[str]]) -> List[str]:
    return list(subset) if subset else list(SPEC_BENCHMARKS)


def _engine(engine: Optional[ExperimentEngine]) -> ExperimentEngine:
    return engine if engine is not None else get_session_engine()


# ---------------------------------------------------------------------------
# Table 1: component overheads
# ---------------------------------------------------------------------------

def experiment_table1(
    *,
    scale: int = 1,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    machine: str = "epyc-rome",
    benchmarks: Optional[Sequence[str]] = None,
    components: Optional[Sequence[str]] = None,
    engine: Optional[ExperimentEngine] = None,
) -> Dict[str, Dict[str, object]]:
    """Per-component overhead ratios across the SPEC suite.

    Returns {component: {"per_benchmark": {name: ratio}, "max": r, "geomean": r}}.
    """
    engine = _engine(engine)
    names = _benchmarks(benchmarks)
    labels = list(components) if components else list(COMPONENT_CONFIGS)
    modules = {name: build_spec_benchmark(name, scale) for name in names}

    batch = RequestBatch(engine)
    for name in names:
        batch.add(
            ("baseline", name),
            RunRequest(
                module=modules[name],
                config=R2CConfig.baseline().replace(seed=seeds[0]),
                machine=machine,
                load_seed=seeds[0],
                label=f"table1/baseline/{name}",
            ),
        )
    for label in labels:
        config = COMPONENT_CONFIGS[label](0)
        for name in names:
            for seed in seeds:
                batch.add(
                    (label, name),
                    RunRequest(
                        module=modules[name],
                        config=config.replace(seed=seed),
                        machine=machine,
                        load_seed=seed,
                        label=f"table1/{label}/{name}",
                    ),
                )
    results = batch.run()

    rows: Dict[str, Dict[str, object]] = {}
    baselines = {name: results.median(("baseline", name)) for name in names}
    for label in labels:
        ratios = {
            name: results.median((label, name)) / baselines[name] for name in names
        }
        rows[label] = {
            "per_benchmark": ratios,
            "max": max(ratios.values()),
            "geomean": geomean(ratios.values()),
        }
    return rows


# ---------------------------------------------------------------------------
# Table 2: call frequencies
# ---------------------------------------------------------------------------

def experiment_table2(
    *,
    inputs: Sequence[int] = (1, 2, 3),
    benchmarks: Optional[Sequence[str]] = None,
    engine: Optional[ExperimentEngine] = None,
) -> Dict[str, int]:
    """Median executed-call counts per benchmark across input scales.

    Mirrors the paper's instrumentation ("we instrumented the SPEC CPU
    benchmark programs to count the number of executed call instructions
    ... For each benchmark we took the median call frequencies across all
    inputs").  Our ``call`` counter, like theirs, excludes tail calls by
    construction (the codegen never emits them).
    """
    engine = _engine(engine)
    names = _benchmarks(benchmarks)
    batch = RequestBatch(engine)
    for name in names:
        for scale in inputs:
            batch.add(
                name,
                RunRequest(
                    module=build_spec_benchmark(name, scale),
                    config=R2CConfig.baseline(),
                    label=f"table2/{name}/scale{scale}",
                ),
            )
    results = batch.run()
    return {name: int(results.median(name, "calls")) for name in names}


# ---------------------------------------------------------------------------
# Figure 6: full R2C on four machines
# ---------------------------------------------------------------------------

def experiment_figure6(
    *,
    scale: int = 1,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    machines: Optional[Sequence[str]] = None,
    benchmarks: Optional[Sequence[str]] = None,
    engine: Optional[ExperimentEngine] = None,
) -> Dict[str, Dict[str, float]]:
    """Full-protection overhead (%) per benchmark per machine, plus the
    per-machine geomean under key ``"geomean"``."""
    engine = _engine(engine)
    machine_names = list(machines) if machines else list(MACHINE_PRESETS)
    names = _benchmarks(benchmarks)
    modules = {name: build_spec_benchmark(name, scale) for name in names}

    batch = RequestBatch(engine)
    for machine in machine_names:
        for name in names:
            batch.add(
                ("baseline", machine, name),
                RunRequest(
                    module=modules[name],
                    config=R2CConfig.baseline().replace(seed=seeds[0]),
                    machine=machine,
                    load_seed=seeds[0],
                    label=f"figure6/baseline/{machine}/{name}",
                ),
            )
            for seed in seeds:
                batch.add(
                    ("full", machine, name),
                    RunRequest(
                        module=modules[name],
                        config=R2CConfig.full().replace(seed=seed),
                        machine=machine,
                        load_seed=seed,
                        label=f"figure6/full/{machine}/{name}",
                    ),
                )
    results = batch.run()

    result: Dict[str, Dict[str, float]] = {name: {} for name in names}
    per_machine_ratios: Dict[str, List[float]] = {m: [] for m in machine_names}
    for machine in machine_names:
        for name in names:
            baseline = results.median(("baseline", machine, name))
            protected = results.median(("full", machine, name))
            result[name][machine] = overhead_percent(protected, baseline)
            per_machine_ratios[machine].append(protected / baseline)
    result["geomean"] = {
        machine: 100.0 * (geomean(ratios) - 1.0)
        for machine, ratios in per_machine_ratios.items()
    }
    return result


# ---------------------------------------------------------------------------
# §6.2.4: webserver throughput
# ---------------------------------------------------------------------------

def experiment_webserver(
    *,
    requests: int = 150,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    machines: Optional[Sequence[str]] = None,
    engine: Optional[ExperimentEngine] = None,
) -> Dict[str, Dict[str, float]]:
    """Throughput decrease (%) per server per machine.

    Throughput = requests/cycle, so the throughput decrease equals
    1 - baseline_cycles/protected_cycles.
    """
    engine = _engine(engine)
    machine_names = list(machines) if machines else list(MACHINE_PRESETS)
    modules = {server: build_webserver(server, requests) for server in SERVERS}

    batch = RequestBatch(engine)
    for server in SERVERS:
        for machine in machine_names:
            batch.add(
                ("baseline", server, machine),
                RunRequest(
                    module=modules[server],
                    config=R2CConfig.baseline().replace(seed=seeds[0]),
                    machine=machine,
                    load_seed=seeds[0],
                    label=f"webserver/baseline/{server}/{machine}",
                ),
            )
            for seed in seeds:
                batch.add(
                    ("full", server, machine),
                    RunRequest(
                        module=modules[server],
                        config=R2CConfig.full().replace(seed=seed),
                        machine=machine,
                        load_seed=seed,
                        label=f"webserver/full/{server}/{machine}",
                    ),
                )
    results = batch.run()

    result: Dict[str, Dict[str, float]] = {}
    for server in SERVERS:
        result[server] = {}
        for machine in machine_names:
            baseline = results.median(("baseline", server, machine))
            protected = results.median(("full", server, machine))
            result[server][machine] = 100.0 * (1.0 - baseline / protected)
    return result


# ---------------------------------------------------------------------------
# §6.2.5: memory overhead
# ---------------------------------------------------------------------------

def experiment_memory(
    *,
    scale: int = 1,
    seed: int = 1,
    benchmarks: Optional[Sequence[str]] = None,
    engine: Optional[ExperimentEngine] = None,
) -> Dict[str, object]:
    """maxrss overheads: SPEC (with realistic working sets), webservers,
    and the share of webserver overhead attributable to BTDP pages."""
    engine = _engine(engine)
    names = _benchmarks(benchmarks)

    batch = RequestBatch(engine)
    for name in names:
        module = build_spec_benchmark(
            name, scale, footprint_pages=SPEC_FOOTPRINT_PAGES[name]
        )
        for tag, config in (
            ("base", R2CConfig.baseline()),
            ("full", R2CConfig.full(seed=seed)),
        ):
            batch.add(
                ("spec", tag, name),
                RunRequest(
                    module=module,
                    config=config,
                    load_seed=seed,
                    heap_size=32 << 20,
                    label=f"memory/spec-{tag}/{name}",
                ),
            )
    for server in SERVERS:
        module = build_webserver(server)
        for tag, config in (
            ("base", R2CConfig.baseline()),
            ("full", R2CConfig.full(seed=seed)),
            ("no_btdp", R2CConfig.full(seed=seed).replace(enable_btdp=False)),
        ):
            batch.add(
                ("web", tag, server),
                RunRequest(
                    module=module,
                    config=config,
                    load_seed=seed,
                    label=f"memory/web-{tag}/{server}",
                ),
            )
    results = batch.run()

    spec = {
        name: overhead_percent(
            results.record(("spec", "full", name)).max_rss,
            results.record(("spec", "base", name)).max_rss,
        )
        for name in names
    }
    web: Dict[str, float] = {}
    btdp_share: Dict[str, float] = {}
    for server in SERVERS:
        base = results.record(("web", "base", server)).max_rss
        full = results.record(("web", "full", server)).max_rss
        no_btdp = results.record(("web", "no_btdp", server)).max_rss
        web[server] = overhead_percent(full, base)
        total_extra = full - base
        btdp_extra = full - no_btdp
        btdp_share[server] = 100.0 * btdp_extra / total_extra if total_extra else 0.0

    return {"spec": spec, "webserver": web, "btdp_share": btdp_share}


# ---------------------------------------------------------------------------
# §6.3: scalability
# ---------------------------------------------------------------------------

def experiment_scalability(
    *,
    sizes: Sequence[int] = (200, 600, 1500),
    seed: int = 0,
    engine: Optional[ExperimentEngine] = None,
) -> List[Dict[str, object]]:
    """Compile browser-scale corpora under full R2C; verify correctness.

    Reports corpus size, generated function count, compile wall time, and
    whether the diversified binary matches the reference interpreter.
    """
    engine = _engine(engine)
    modules = {size: generate_browser_corpus(size, seed=seed) for size in sizes}
    expected = {size: interpret_module(modules[size]) for size in sizes}

    batch = RequestBatch(engine)
    for size in sizes:
        batch.add(
            size,
            RunRequest(
                module=modules[size],
                config=R2CConfig.full(seed=seed),
                load_seed=seed + 1,
                label=f"scalability/{size}",
            ),
        )
    results = batch.run()

    rows: List[Dict[str, object]] = []
    for size in sizes:
        record = results.record(size)
        rows.append(
            {
                "functions": size,
                "instructions": record.instruction_count,
                "text_bytes": record.text_bytes,
                "compile_seconds": record.compile_seconds,
                "verified": (record.exit_code, list(record.output))
                == (expected[size][0], expected[size][1]),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Table 3 / §7.2: attacks vs defenses
# ---------------------------------------------------------------------------

def experiment_table3(
    *,
    trials: int = 3,
    attacks: Optional[Sequence[str]] = None,
    defenses: Optional[Sequence[str]] = None,
    base_seed: int = 100,
    engine: Optional[ExperimentEngine] = None,
) -> Dict[str, Dict[str, Dict[str, int]]]:
    """Run every attack against every defense model.

    Returns {defense: {attack: {"success": n, "detected": n, "diverged": n,
    "crashed": n, "failed": n}}} over ``trials`` independently diversified
    victims.  N-variant defense rows (``model.variants > 1``, e.g.
    ``r2c-mvee``) run every probe in batched lockstep, so the ``diverged``
    tally counts cross-check catches.  Every session runs on the engine's
    backend.
    """
    backend = _engine(engine).backend
    attack_names = list(attacks) if attacks else list(ALL_ATTACKS)
    defense_names = list(defenses) if defenses else list(DEFENSE_MODELS)
    matrix: Dict[str, Dict[str, Dict[str, int]]] = {}
    for defense_name in defense_names:
        model = DEFENSE_MODELS[defense_name]
        row = matrix[defense_name] = {
            attack_name: dict.fromkeys(
                ("success", "detected", "diverged", "crashed", "failed"), 0
            )
            for attack_name in attack_names
        }
        # A trial's attacks all face one deployed victim, back to back,
        # so each session reuses the previous one's builds.
        for trial in range(trials):
            for attack_name in attack_names:
                session = VictimSession(
                    model.victim_config(seed=base_seed + trial),
                    execute_only=model.execute_only,
                    shadow_stack=model.shadow_stack,
                    variants=model.variants,
                    load_seed=base_seed + 17 * trial,
                    backend=backend,
                )
                result = ALL_ATTACKS[attack_name](
                    session, attacker_seed=base_seed + 31 * trial
                )
                row[attack_name][result.outcome.value] += 1
    return matrix


# ---------------------------------------------------------------------------
# §7.2.1 / §7.2.3: probabilistic security guarantees
# ---------------------------------------------------------------------------

def btra_guess_probability(btras: int, leaks: int) -> float:
    """Closed form of Section 7.2.1: (1/(R+1))**n."""
    return (1.0 / (btras + 1)) ** leaks


def _probe_benign_heap_picks(
    config: R2CConfig, *, load_seed: int, attacker_seed: int, backend: str
) -> Tuple[int, int]:
    """One heap-pointer-picking trial against a freshly diversified victim.

    Leaks the stack at the vulnerability, clusters the pointers, and
    checks every heap-cluster member against the R2C runtime's ground
    truth.  Returns (benign picks, total picks) — (0, 0) if the leak
    surfaced no heap pointers.  Shared by the §7.2.3 measurement and the
    BTDP density sweep.
    """
    session = VictimSession(config, load_seed=load_seed, backend=backend)
    picked: Dict[str, List[int]] = {}

    def hook(view):
        picked["heap"] = cluster_pointers(view.leak_stack()).heap_values()

    session.probe(hook, attacker_seed=attacker_seed)
    heap_values = picked.get("heap", [])
    if not heap_values:
        return 0, 0
    # Ground truth from the R2C runtime: which values are BTDPs?
    process, _ = session.spawn()
    btdp_values = set(process.r2c_runtime["btdp_values"])
    benign = sum(1 for value in heap_values if value not in btdp_values)
    return benign, len(heap_values)


def experiment_security_probabilities(
    *,
    btras: int = 10,
    leaks: Sequence[int] = (1, 2, 3, 4),
    mc_trials: int = 20000,
    stack_samples: int = 30,
    engine: Optional[ExperimentEngine] = None,
) -> Dict[str, object]:
    """Compare measured guessing odds against the paper's closed forms.

    * **BTRA guessing** (§7.2.1): Monte-Carlo draws of one candidate among
      R BTRAs + 1 return address, needing ``n`` independent hits.
    * **Heap-pointer picking** (§7.2.3): against real compiled victims,
      leak the stack at the vulnerability, cluster, pick a random member
      of the heap cluster, and check (against runtime ground truth)
      whether it was benign — the measured H/(H+B).  The victims run on
      the engine's backend.
    """
    backend = _engine(engine).backend
    rng = DiversityRng(7).child("security-mc")
    closed = {n: btra_guess_probability(btras, n) for n in leaks}
    measured = {}
    for n in leaks:
        hits = 0
        for _ in range(mc_trials):
            if all(rng.randint(0, btras) == 0 for _ in range(n)):
                hits += 1
        measured[n] = hits / mc_trials

    # Empirical heap-pointer odds against real victims.
    benign_picks = 0
    total_picks = 0
    per_sample_ratio = []
    for index in range(stack_samples):
        benign, total = _probe_benign_heap_picks(
            R2CConfig.full(seed=500 + index),
            load_seed=900 + index,
            attacker_seed=index,
            backend=backend,
        )
        if not total:
            continue
        benign_picks += benign
        total_picks += total
        per_sample_ratio.append(benign / total)

    return {
        "btra_closed_form": closed,
        "btra_measured": measured,
        "heap_benign_fraction": (benign_picks / total_picks) if total_picks else None,
        "heap_benign_fraction_samples": per_sample_ratio,
    }


# ---------------------------------------------------------------------------
# Parameter sweeps: the security/performance trade-offs behind the knobs
# ---------------------------------------------------------------------------

def experiment_btra_sweep(
    *,
    counts: Sequence[int] = (2, 5, 10, 15, 20),
    benchmark: str = "omnetpp",
    seeds: Sequence[int] = (1,),
    engine: Optional[ExperimentEngine] = None,
) -> Dict[int, Dict[str, float]]:
    """Overhead vs. BTRA count per call site, with the Section 7.2.1
    guessing probability each count buys.

    Section 4.1 parameterizes the maximum number of BTRAs; this sweep is
    the trade-off curve behind picking 10 — and behind the Section 7.1
    AVX-512 option of doubling the count.
    """
    engine = _engine(engine)
    module = build_spec_benchmark(benchmark)

    batch = RequestBatch(engine)
    batch.add(
        "baseline",
        RunRequest(
            module=module,
            config=R2CConfig.baseline().replace(seed=seeds[0]),
            load_seed=seeds[0],
            label=f"btra-sweep/baseline/{benchmark}",
        ),
    )
    for count in counts:
        config = R2CConfig.btra_avx_only().replace(btras_per_callsite=count)
        for seed in seeds:
            batch.add(
                count,
                RunRequest(
                    module=module,
                    config=config.replace(seed=seed),
                    load_seed=seed,
                    label=f"btra-sweep/{count}/{benchmark}",
                ),
            )
    results = batch.run()

    baseline = results.median("baseline")
    return {
        count: {
            "overhead_pct": overhead_percent(results.median(count), baseline),
            "guess_probability": 1.0 / (count + 1),
        }
        for count in counts
    }


def experiment_btdp_sweep(
    *,
    maxima: Sequence[int] = (0, 2, 5, 8),
    benchmark: str = "xalancbmk",
    seeds: Sequence[int] = (1,),
    stack_samples: int = 8,
    engine: Optional[ExperimentEngine] = None,
) -> Dict[int, Dict[str, float]]:
    """Overhead vs. BTDP density, with the measured benign heap-pointer
    fraction H/(H+B) each density buys (Section 7.2.3)."""
    engine = _engine(engine)
    module = build_spec_benchmark(benchmark)

    batch = RequestBatch(engine)
    batch.add(
        "baseline",
        RunRequest(
            module=module,
            config=R2CConfig.baseline().replace(seed=seeds[0]),
            load_seed=seeds[0],
            label=f"btdp-sweep/baseline/{benchmark}",
        ),
    )
    for maximum in maxima:
        config = R2CConfig.btdp_only().replace(btdp_max_per_function=maximum)
        for seed in seeds:
            batch.add(
                maximum,
                RunRequest(
                    module=module,
                    config=config.replace(seed=seed),
                    load_seed=seed,
                    label=f"btdp-sweep/{maximum}/{benchmark}",
                ),
            )
    results = batch.run()
    baseline = results.median("baseline")

    out: Dict[int, Dict[str, float]] = {}
    for maximum in maxima:
        benign, total = 0, 0
        if maximum > 0:
            full = R2CConfig.full().replace(btdp_max_per_function=maximum)
            for index in range(stack_samples):
                picks = _probe_benign_heap_picks(
                    full.replace(seed=700 + index),
                    load_seed=300 + index,
                    attacker_seed=index,
                    backend=engine.backend,
                )
                benign += picks[0]
                total += picks[1]
        out[maximum] = {
            "overhead_pct": overhead_percent(results.median(maximum), baseline),
            "benign_fraction": (benign / total) if total else 1.0,
        }
    return out


def _redundant_call_workload(calls: int = 400, redundancy: int = 10):
    """A call loop whose body carries foldable constant arithmetic — the
    shape unoptimized C has and our hand-tuned SPEC stand-ins lack."""
    from repro.toolchain.builder import IRBuilder
    from repro.workloads.programs import add_leaf_workers

    ir = IRBuilder("redundant")
    leaves = add_leaf_workers(ir, "w", 2, work=4)
    fb = ir.function("main")
    fb.local("acc")
    fb.store_local("acc", 0)
    ivar = fb.counted_loop(calls, "body", "done")
    i = fb.load_local(ivar)
    # Redundant, optimizer-removable constant computation per iteration.
    dead = fb.const(7)
    for step in range(redundancy):
        dead = fb.add(fb.mul(dead, 3), step)  # constant-foldable chain
    live = fb.band(dead, 0xFF)  # folds to a constant
    result = fb.call(leaves[0], [fb.add(i, live)])
    fb.store_local("acc", fb.add(fb.load_local("acc"), result))
    fb.loop_backedge(ivar, "body")
    fb.new_block("done")
    fb.out(fb.band(fb.load_local("acc"), 0xFFFF_FFFF))
    fb.ret(0)
    return ir.finish()


def experiment_opt_levels(
    *,
    seeds: Sequence[int] = (1,),
    redundancies: Sequence[int] = (0, 10, 25),
    engine: Optional[ExperimentEngine] = None,
) -> Dict[str, Dict[str, float]]:
    """Full-R2C overhead at -O0 vs -O1 on redundancy-laden code.

    Optimization deletes the foldable arithmetic around every call while
    the BTRA cost per call stays fixed, so the *relative* overhead rises
    with the optimization level — context for the paper's choice to
    report -O3 numbers as the (honest) worst case.
    """
    engine = _engine(engine)
    modules = {r: _redundant_call_workload(redundancy=r) for r in redundancies}

    batch = RequestBatch(engine)
    for redundancy in redundancies:
        for level in (0, 1):
            batch.add(
                ("baseline", redundancy, level),
                RunRequest(
                    module=modules[redundancy],
                    config=R2CConfig.baseline().replace(
                        opt_level=level, seed=seeds[0]
                    ),
                    load_seed=seeds[0],
                    label=f"opt-levels/baseline/r{redundancy}/O{level}",
                ),
            )
            for seed in seeds:
                batch.add(
                    ("full", redundancy, level),
                    RunRequest(
                        module=modules[redundancy],
                        config=R2CConfig.full().replace(opt_level=level, seed=seed),
                        load_seed=seed,
                        label=f"opt-levels/full/r{redundancy}/O{level}",
                    ),
                )
    results = batch.run()

    out: Dict[str, Dict[str, float]] = {}
    for redundancy in redundancies:
        label = f"redundancy={redundancy}"
        out[label] = {
            f"O{level}": overhead_percent(
                results.median(("full", redundancy, level)),
                results.median(("baseline", redundancy, level)),
            )
            for level in (0, 1)
        }
    return out


# ---------------------------------------------------------------------------
# Overhead decomposition by emitted-instruction tag
# ---------------------------------------------------------------------------

def experiment_overhead_decomposition(
    *,
    benchmark: str = "omnetpp",
    seed: int = 1,
    btra_mode: str = "avx",
    engine: Optional[ExperimentEngine] = None,
) -> Dict[str, float]:
    """Attribute full-R2C overhead to the instructions each feature emits.

    Runs the protected binary with per-tag cycle attribution and reports
    each diversification tag's share of the *added* cycles (plus the
    residual: i-cache pressure on untagged code, frame growth, etc.).
    A direct, measured version of the component analysis of Section 6.2.
    """
    engine = _engine(engine)
    module = build_spec_benchmark(benchmark)

    batch = RequestBatch(engine)
    batch.add(
        "base",
        RunRequest(
            module=module,
            config=R2CConfig.baseline(),
            load_seed=seed,
            label=f"decomposition/base/{benchmark}",
        ),
    )
    batch.add(
        "full",
        RunRequest(
            module=module,
            config=R2CConfig.full(seed=seed, btra_mode=btra_mode),
            load_seed=seed,
            attribute_tags=True,
            label=f"decomposition/full/{benchmark}",
        ),
    )
    results = batch.run()
    base = results.record("base")
    full = results.record("full")

    added = full.cycles - base.cycles
    decomposition: Dict[str, float] = {}
    tagged_total = 0.0
    for tag, cycles in sorted((full.tag_cycles or {}).items()):
        if tag == UNTAGGED_TAG:
            # The application bucket is not overhead; untagged *added*
            # cycles (i-cache pressure, frame growth) are the residual.
            continue
        decomposition[tag] = 100.0 * cycles / added if added else 0.0
        tagged_total += cycles
    decomposition["(untagged residual)"] = (
        100.0 * (added - tagged_total) / added if added else 0.0
    )
    decomposition["total_overhead_pct"] = 100.0 * added / base.cycles
    return decomposition


# ---------------------------------------------------------------------------
# §7.2 reactive: attacks against a *supervised* service
# ---------------------------------------------------------------------------

#: Victim configurations for the supervised bench: the undefended
#: monoculture (where restart policy is the only defense) and full R2C
#: (where booby traps detect the very first corrupted probe).
SUPERVISED_VICTIMS = ("baseline", "r2c")


def experiment_supervised(
    *,
    policies: Sequence[str] = ("none", "restart-same", "restart-rerandomize"),
    victims: Sequence[str] = SUPERVISED_VICTIMS,
    attack: str = "blindrop",
    trials: int = 3,
    base_seed: int = 300,
    engine: Optional[ExperimentEngine] = None,
) -> Dict[Tuple[str, str], Dict[str, object]]:
    """Measure attack success and detection latency per restart policy.

    Runs ``attack`` (a multi-probe campaign from ``ALL_ATTACKS``) against a
    :class:`~repro.reliability.supervisor.SupervisedSession` for every
    (victim config, restart policy) pair.  Returns ``{(victim, policy):
    {"tallies", "probes", "crashes", "restarts", "denials",
    "detection_latency", "backoff_seconds"}}`` with medians over
    ``trials`` independently seeded campaigns.

    The paper-shaped result (Sections 4, 7.3; MARDU): against the
    monoculture victim, ``restart-same`` reproduces the Blind-ROP success
    while ``restart-rerandomize`` breaks the cross-probe inference and
    drives success to zero; full R2C detects the probing within a few
    probes under any policy.  Every session runs on the engine's backend.
    """
    from repro.eval.stats import median as _median
    from repro.reliability.supervisor import SupervisedSession

    backend = _engine(engine).backend
    attack_fn = ALL_ATTACKS[attack]
    configs = {
        "baseline": lambda seed: R2CConfig.baseline(),
        "r2c": lambda seed: R2CConfig.full(seed=seed),
    }
    rows: Dict[Tuple[str, str], Dict[str, object]] = {}
    for victim_name in victims:
        make_config = configs[victim_name]
        for policy in policies:
            tallies = {"success": 0, "detected": 0, "crashed": 0, "failed": 0}
            probes: List[float] = []
            crashes: List[float] = []
            restarts: List[float] = []
            denials: List[float] = []
            backoffs: List[float] = []
            latencies: List[int] = []
            for trial in range(trials):
                session = SupervisedSession(
                    make_config(base_seed + trial),
                    policy=policy,
                    execute_only=victim_name != "baseline",
                    load_seed=base_seed + 17 * trial,
                    backend=backend,
                )
                result = attack_fn(session, attacker_seed=base_seed + 31 * trial)
                tallies[result.outcome.value] += 1
                probes.append(session.stats.probes)
                crashes.append(session.stats.crashes)
                restarts.append(session.stats.restarts)
                denials.append(session.stats.denials)
                backoffs.append(session.stats.backoff_seconds)
                if session.stats.detection_latency is not None:
                    latencies.append(session.stats.detection_latency)
            rows[(victim_name, policy)] = {
                "tallies": tallies,
                "probes": _median(probes),
                "crashes": _median(crashes),
                "restarts": _median(restarts),
                "denials": _median(denials),
                "backoff_seconds": _median(backoffs),
                "detection_latency": (
                    _median([float(v) for v in latencies]) if latencies else None
                ),
            }
    return rows
