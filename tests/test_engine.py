"""Tests for the experiment-execution engine (repro.eval.engine).

Covers the contract the drivers rely on: serial and parallel executors
produce identical records in request order, the compile cache is
content-addressed (same key -> same Binary object; new seed -> new
layout), identical run requests execute once per session, and JSONL
records round-trip.
"""

import pytest

from repro.core.config import R2CConfig
from repro.eval import engine as engine_module
from repro.eval.engine import (
    CompileCache,
    ExperimentEngine,
    RunRecord,
    RunRequest,
    read_records,
    write_records,
)
from repro.toolchain.builder import IRBuilder
from repro.workloads.programs import add_leaf_workers


def small_module(name="engine-test", calls=24):
    """A small call-heavy module: cheap to run, sensitive to diversification."""
    ir = IRBuilder(name)
    leaves = add_leaf_workers(ir, "w", 2, work=3)
    fb = ir.function("main")
    fb.local("acc")
    fb.store_local("acc", 0)
    ivar = fb.counted_loop(calls, "body", "done")
    i = fb.load_local(ivar)
    result = fb.call(leaves[0], [fb.add(i, 1)])
    fb.store_local("acc", fb.add(fb.load_local("acc"), result))
    fb.loop_backedge(ivar, "body")
    fb.new_block("done")
    fb.out(fb.band(fb.load_local("acc"), 0xFFFF_FFFF))
    fb.ret(0)
    return ir.finish()


def request_set(module, seeds=(1, 2, 3)):
    """Protected cells per seed plus one baseline cell."""
    requests = [
        RunRequest(
            module=module,
            config=R2CConfig.full(seed=seed),
            load_seed=seed,
            label=f"full/{seed}",
        )
        for seed in seeds
    ]
    requests.append(
        RunRequest(
            module=module,
            config=R2CConfig.baseline(seed=seeds[0]),
            load_seed=seeds[0],
            label="baseline",
        )
    )
    return requests


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------

def test_serial_and_parallel_records_identical():
    """The parallel executor is an implementation detail: for a fixed seed
    set it must produce byte-identical records, in request order."""
    module = small_module()
    requests = request_set(module)
    with ExperimentEngine(jobs=1) as serial, ExperimentEngine(jobs=2) as parallel:
        serial_records = serial.submit(requests)
        parallel_records = parallel.submit(requests)
    assert [r.canonical_json() for r in serial_records] == [
        r.canonical_json() for r in parallel_records
    ]
    assert [r.label for r in serial_records] == ["full/1", "full/2", "full/3", "baseline"]


def test_parallel_groups_share_compiles():
    """Duplicate load seeds against one binary compile once per batch even
    under the process-pool executor (cells grouped by compile key)."""
    module = small_module()
    config = R2CConfig.full(seed=5)
    requests = [
        RunRequest(module=module, config=config, load_seed=seed) for seed in (1, 2, 3)
    ]
    with ExperimentEngine(jobs=2) as engine:
        records = engine.submit(requests)
    assert sum(1 for r in records if not r.cache_hit) == 1
    assert sum(1 for r in records if r.cache_hit) == 2
    # One binary, three ASLR layouts; the computation is load-invariant.
    assert [r.load_seed for r in records] == [1, 2, 3]
    assert len({(r.exit_code, r.output) for r in records}) == 1


# ---------------------------------------------------------------------------
# Compile cache
# ---------------------------------------------------------------------------

def test_compile_cache_returns_same_binary_for_identical_key():
    cache = CompileCache()
    module = small_module()
    config = R2CConfig.full(seed=7)
    first, _, hit_first = cache.get_or_compile(module, config)
    second, _, hit_second = cache.get_or_compile(module, config)
    assert second is first
    assert (hit_first, hit_second) == (False, True)
    assert cache.compile_counts[(module.fingerprint(), config.digest())] == 1
    # A structurally identical module is the same content address.
    clone = small_module()
    third, _, hit_third = cache.get_or_compile(clone, config)
    assert third is first and hit_third


def test_compile_cache_seed_changes_layout():
    cache = CompileCache()
    module = small_module()
    a, _, _ = cache.get_or_compile(module, R2CConfig.full(seed=1))
    b, _, _ = cache.get_or_compile(module, R2CConfig.full(seed=2))
    assert a is not b
    # Differently seeded diversification: different text layout.
    assert a.symbols_text != b.symbols_text or a.eh_frame_rows() != b.eh_frame_rows()


def test_compile_cache_evicts_the_least_recently_used_binary(monkeypatch):
    """Past capacity the cache drops the binary it used least recently:
    a hit refreshes recency, and an evicted key compiles again."""
    monkeypatch.setattr(engine_module, "COMPILE_CACHE_CAPACITY", 2)
    cache = CompileCache()
    module = small_module()
    a, b, c = (R2CConfig.full(seed=seed) for seed in (1, 2, 3))
    cache.get_or_compile(module, a)
    cache.get_or_compile(module, b)
    assert cache.get_or_compile(module, a)[2]
    cache.get_or_compile(module, c)
    assert cache.evictions == 1
    assert len(cache) == 2
    assert cache.get_or_compile(module, a)[2]
    assert not cache.get_or_compile(module, b)[2]
    assert cache.compile_counts[(module.fingerprint(), b.digest())] == 2
    assert cache.evictions == 2


def test_binary_carries_cache_identity():
    module = small_module()
    config = R2CConfig.full(seed=3)
    binary, _, _ = CompileCache().get_or_compile(module, config)
    assert binary.module_fingerprint == module.fingerprint()
    assert binary.config_digest == config.digest()


def test_module_fingerprint_is_content_addressed():
    assert small_module().fingerprint() == small_module().fingerprint()
    assert small_module().fingerprint() != small_module(calls=25).fingerprint()
    assert R2CConfig.full(seed=1).digest() != R2CConfig.full(seed=2).digest()


# ---------------------------------------------------------------------------
# Run-level dedup: the Section 6.2 overhead loop
# ---------------------------------------------------------------------------

def test_identical_requests_execute_once():
    module = small_module()
    request = RunRequest(module=module, config=R2CConfig.full(seed=1), load_seed=1)
    with ExperimentEngine() as engine:
        first, second = engine.submit([request, request])
        third = engine.run(request)
    assert first is second is third
    summary = engine.summary()
    assert summary.executed == 1
    assert summary.requested == 3
    assert summary.run_cache_hits == 2


def test_overhead_batches_compile_and_run_baseline_once():
    """The Section 6.2 loop at seed recompiled/re-ran the baseline for
    every protected config; with the engine it happens exactly once per
    (module, machine), however many overhead batches name it."""
    module = small_module()
    baseline_config = R2CConfig.baseline().replace(seed=1)
    with ExperimentEngine() as engine:
        for config in (R2CConfig.full(), R2CConfig.btdp_only(), R2CConfig.layout_only()):
            records = engine.submit(
                [
                    RunRequest(module=module, config=config.replace(seed=seed), load_seed=seed)
                    for seed in (1, 2)
                ]
                + [RunRequest(module=module, config=baseline_config)]
            )
            assert all(record.ok for record in records)
        assert engine.compile_count(module, baseline_config) == 1
        baseline_records = [
            r for r in engine.records if r.config_digest == baseline_config.digest()
        ]
        assert len(baseline_records) == 1


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

def test_run_records_roundtrip_jsonl(tmp_path):
    module = small_module()
    with ExperimentEngine() as engine:
        records = engine.submit(request_set(module, seeds=(1, 2)))
        path = tmp_path / "records.jsonl"
        assert engine.write_records(str(path)) == len(records)
    loaded = read_records(str(path))
    assert loaded == records
    assert all(isinstance(r.output, tuple) for r in loaded)
    # Appending accumulates.
    write_records(records[:1], str(path))
    assert len(read_records(str(path))) == len(records) + 1


def test_record_canonical_excludes_environment_fields():
    module = small_module()
    with ExperimentEngine() as engine:
        record = engine.run(
            RunRequest(module=module, config=R2CConfig.full(seed=1), load_seed=1)
        )
    canonical = record.canonical()
    for field_name in ("compile_seconds", "run_seconds", "cache_hit", "worker"):
        assert field_name not in canonical
    assert canonical["cycles"] == record.cycles
    assert RunRecord.from_json(record.to_json()) == record


def test_decomposition_requests_carry_tag_cycles():
    module = small_module()
    with ExperimentEngine() as engine:
        plain = engine.run(
            RunRequest(module=module, config=R2CConfig.full(seed=1), load_seed=1)
        )
        tagged = engine.run(
            RunRequest(
                module=module,
                config=R2CConfig.full(seed=1),
                load_seed=1,
                attribute_tags=True,
            )
        )
    assert plain.tag_cycles is None
    assert tagged.tag_cycles and all(v >= 0 for v in tagged.tag_cycles.values())
    # Attribution is observability only — the run itself is unchanged.
    assert tagged.cycles == plain.cycles


def test_from_json_ignores_unknown_keys():
    """Forward compatibility: JSONL written by a newer schema (extra
    fields) must load, not raise, and round-trip what this build knows."""
    module = small_module()
    with ExperimentEngine() as engine:
        record = engine.run(
            RunRequest(module=module, config=R2CConfig.full(seed=1), load_seed=1)
        )
    import json

    data = json.loads(record.to_json())
    data["future_field"] = {"nested": True}
    data["another_new_counter"] = 7
    loaded = RunRecord.from_json(json.dumps(data))
    assert loaded == record
    assert RunRecord.from_json(loaded.to_json()) == loaded


def test_set_session_engine_closes_replaced_engine():
    """Replacing the session engine must not leak the old worker pool."""
    from repro.eval.engine import get_session_engine, set_session_engine

    original = get_session_engine()
    first = ExperimentEngine(jobs=2)
    second = ExperimentEngine(jobs=2)
    try:
        set_session_engine(first)
        # Force the pool into existence, then replace the engine.
        first.submit(request_set(small_module(), seeds=(1, 2)))
        assert first._pool is not None
        set_session_engine(second)
        assert first._pool is None  # closed by the replacement
        # Re-setting the same engine must not close it.
        set_session_engine(second)
    finally:
        set_session_engine(original)
        first.close()
        second.close()


def test_engine_summary_counts():
    module = small_module()
    with ExperimentEngine() as engine:
        engine.submit(request_set(module, seeds=(1, 2)))
        engine.submit(request_set(module, seeds=(1, 2)))  # all run-cache hits
        summary = engine.summary()
    assert summary.executed == 3
    assert summary.requested == 6
    assert summary.run_cache_hits == 3
    assert summary.batches == 2
    assert summary.compiles == 3
    assert summary.distinct_binaries == 3
    assert sum(summary.worker_runs.values()) == summary.executed


@pytest.mark.parametrize("jobs", [1, 2])
def test_distinct_binaries_do_not_depend_on_jobs(jobs):
    """A binary compiled in the parent and again in a pool worker is one
    distinct binary, whatever process ran which request."""
    module = small_module()
    config = R2CConfig.full(seed=1)
    with ExperimentEngine(jobs=jobs) as engine:
        # A one-request batch runs in-process even when a pool exists...
        engine.submit([RunRequest(module, config, load_seed=1)])
        # ...and two requests sharing its compile key form one work item.
        engine.submit([RunRequest(module, config, load_seed=seed) for seed in (2, 3)])
        summary = engine.summary()
    assert summary.executed == 3
    assert summary.distinct_binaries == 1
