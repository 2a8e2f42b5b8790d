"""Tests for liveness intervals and linear-scan allocation."""

from repro.rng import DiversityRng
from repro.toolchain.builder import IRBuilder
from repro.toolchain.callconv import ALLOCATABLE
from repro.toolchain.regalloc import allocate, compute_intervals


def linear_function(n_temps):
    ir = IRBuilder()
    f = ir.function("f", params=["x"])
    acc = f.param("x")
    temps = []
    for i in range(n_temps):
        t = f.add(acc, i)
        temps.append(t)
        acc = t
    f.ret(acc)
    ir.finish()
    return f.fn


def test_intervals_cover_first_to_last_use():
    fn = linear_function(3)
    intervals, count = compute_intervals(fn)
    by_name = {iv.vreg: iv for iv in intervals}
    for iv in intervals:
        assert 0 <= iv.start <= iv.end < count


def test_backedge_extends_liveness():
    """A value defined before a loop and used inside it must stay live
    through the loop's entire body."""
    ir = IRBuilder()
    f = ir.function("f", params=["n"])
    f.local("sum")
    f.store_local("sum", 0)
    n = f.param("n")  # defined pre-loop, used in the loop header
    ivar = f.counted_loop(n, "body", "done")
    i = f.load_local(ivar)
    f.store_local("sum", f.add(f.load_local("sum"), i))
    f.loop_backedge(ivar, "body")
    f.new_block("done")
    f.ret(f.load_local("sum"))
    ir.finish()

    intervals, _ = compute_intervals(f.fn)
    by_name = {iv.vreg: iv for iv in intervals}
    n_interval = by_name[n]
    # n's last use must be at/after the back edge branch (the loop's end).
    backedge_index = max(iv.end for iv in intervals)
    assert n_interval.end >= backedge_index - 2


def test_allocation_is_sound():
    """No two vregs with overlapping intervals share a register."""
    fn = linear_function(30)
    intervals, _ = compute_intervals(fn)
    allocation = allocate(fn)
    spans = {iv.vreg: (iv.start, iv.end) for iv in intervals}
    by_reg = {}
    for vreg, (kind, where) in allocation.locations.items():
        if kind == "reg":
            by_reg.setdefault(where, []).append(spans[vreg])
    for reg, ranges in by_reg.items():
        ranges.sort()
        for (s1, e1), (s2, e2) in zip(ranges, ranges[1:]):
            assert e1 < s2, f"register {reg} double-booked"


def test_spills_happen_when_pressure_exceeds_pool():
    ir = IRBuilder()
    f = ir.function("f", params=["x"])
    # Create many simultaneously-live values: all defined early, all used
    # at the end.
    temps = [f.add(f.param("x"), i) for i in range(len(ALLOCATABLE) + 5)]
    acc = 0
    for t in temps:
        acc = f.add(acc, t)
    f.ret(acc)
    ir.finish()
    allocation = allocate(f.fn)
    assert allocation.spill_count >= 1


def test_pool_shuffle_changes_assignment():
    fn = linear_function(10)
    base = allocate(fn)
    shuffled = allocate(fn, rng=DiversityRng(99).child("regs"))
    # Same vregs, potentially different registers.
    assert set(base.locations) == set(shuffled.locations)
    base_regs = [base.locations[v] for v in sorted(base.locations)]
    shuffled_regs = [shuffled.locations[v] for v in sorted(shuffled.locations)]
    assert base_regs != shuffled_regs


def test_used_registers_subset_of_pool():
    fn = linear_function(10)
    allocation = allocate(fn)
    assert set(allocation.used_registers) <= set(ALLOCATABLE)


def test_every_vreg_gets_a_location():
    fn = linear_function(25)
    intervals, _ = compute_intervals(fn)
    allocation = allocate(fn)
    assert {iv.vreg for iv in intervals} == set(allocation.locations)
