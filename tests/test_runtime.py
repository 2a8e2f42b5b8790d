"""Tests for the R2C runtime constructor (Section 5.2 details)."""

from repro.core.config import R2CConfig
from repro.core.compiler import compile_module
from repro.machine.loader import load_binary
from repro.machine.memory import PAGE_SIZE
from repro.workloads.victim import build_victim


def load_with(config, seed=3):
    binary = compile_module(build_victim(), config)
    return load_binary(binary, seed=seed)


def test_guard_page_count_matches_config():
    config = R2CConfig(seed=1, enable_btdp=True, btdp_guard_pages=7)
    process = load_with(config)
    assert len(process.r2c_runtime["guard_pages"]) == 7


def test_overallocation_scatters_guard_pages():
    """Freeing all but a random subset leaves the survivors non-contiguous
    (Section 5.2: "scattered randomly across the heap")."""
    config = R2CConfig(
        seed=2, enable_btdp=True, btdp_guard_pages=8, btdp_overallocate_factor=4
    )
    process = load_with(config)
    pages = sorted(process.r2c_runtime["guard_pages"])
    gaps = [b - a for a, b in zip(pages, pages[1:])]
    assert any(gap > PAGE_SIZE for gap in gaps)


def test_no_overallocation_means_contiguous_pages():
    config = R2CConfig(
        seed=2, enable_btdp=True, btdp_guard_pages=4, btdp_overallocate_factor=1
    )
    process = load_with(config)
    assert len(process.r2c_runtime["guard_pages"]) == 4


def test_array_length_matches_config():
    config = R2CConfig(seed=1, enable_btdp=True, btdp_array_len=17)
    process = load_with(config)
    assert len(process.r2c_runtime["btdp_values"]) == 17


def test_decoy_count_matches_config():
    config = R2CConfig(seed=1, enable_btdp=True, btdp_decoys_in_data=6)
    process = load_with(config)
    assert len(process.r2c_runtime["decoy_values"]) == 6


def test_hardened_array_lives_on_heap():
    process = load_with(R2CConfig(seed=1, enable_btdp=True))
    addr = process.r2c_runtime["array_addr"]
    assert process.layout.region_of(addr) == "heap"


def test_naive_array_lives_in_data():
    process = load_with(R2CConfig(seed=1, enable_btdp=True, btdp_hardened=False))
    addr = process.r2c_runtime["array_addr"]
    assert process.layout.region_of(addr) == "data"


def test_different_load_seeds_different_btdp_values():
    config = R2CConfig(seed=1, enable_btdp=True)
    binary = compile_module(build_victim(), config)
    a = load_binary(binary, seed=1)
    b = load_binary(binary, seed=2)
    assert a.r2c_runtime["btdp_values"] != b.r2c_runtime["btdp_values"]


def test_same_load_seed_reproduces_btdp_values():
    config = R2CConfig(seed=1, enable_btdp=True)
    binary = compile_module(build_victim(), config)
    a = load_binary(binary, seed=5)
    b = load_binary(binary, seed=5)
    assert a.r2c_runtime["btdp_values"] == b.r2c_runtime["btdp_values"]


def test_btdp_offsets_within_pages_vary():
    """BTDPs point at random *offsets* within guard pages, not page bases."""
    config = R2CConfig(seed=1, enable_btdp=True, btdp_array_len=64)
    process = load_with(config)
    offsets = {v & (PAGE_SIZE - 1) for v in process.r2c_runtime["btdp_values"]}
    assert len(offsets) > 10
