"""Instruction-cache simulator.

Section 7.1 of the paper attributes the gap between the push-based and the
AVX2-based BTRA setup to instruction-cache pressure: the push sequence adds
~12 wide instructions per call site, the AVX2 sequence only 7.  To let that
mechanism emerge rather than hard-coding it, the CPU charges every fetched
cache line through this set-associative LRU model.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Tuple

__all__ = ["ICache", "line_span", "block_line_plan"]


def line_span(address: int, size: int, line_size: int) -> Tuple[int, ...]:
    """Cache lines covering ``[address, address + max(size, 1))``, as a
    tuple (``(first,)`` for the common one-line fetch).

    The single source of truth for line occupancy: the cache model, the
    micro-op binder, the jit, and the profiler's shadow replay all use it,
    so a fetch touches the same lines no matter which layer computes them.
    """
    first = address // line_size
    last = (address + size - 1) // line_size if size > 1 else first
    return (first,) if last == first else tuple(range(first, last + 1))


def block_line_plan(spans, line_size: int):
    """Fold a basic block's fetch stream into a per-instruction probe plan.

    ``spans`` is the block's (address, size) sequence in execution order;
    the result is one list per instruction of ``(line, must_probe)``
    pairs.  ``must_probe=False`` marks a *guaranteed hit*: the line was
    the immediately preceding probe in the same straight-line block, so
    it is resident and already most-recently-used — the access can be
    accounted (one hit, zero misses) without touching the LRU structure.
    This folding is sound only inside a basic block executed without
    interruption, which is exactly the tier-2 compiled-code contract;
    any deopt re-enters the interpreter, which probes normally.
    """
    plan = []
    last_line = None
    for address, size in spans:
        probes = []
        for line in line_span(address, size, line_size):
            probes.append((line, line != last_line))
            last_line = line
        plan.append(probes)
    return plan


class ICache:
    """Set-associative LRU instruction cache.

    Parameters mirror a real L1i: ``size_bytes`` total capacity,
    ``line_size`` bytes per line, ``ways`` associativity.
    """

    def __init__(self, size_bytes: int = 32 * 1024, line_size: int = 64, ways: int = 8):
        if size_bytes % (line_size * ways):
            raise ValueError("cache size must be a multiple of line_size * ways")
        self.line_size = line_size
        self.ways = ways
        self.num_sets = size_bytes // (line_size * ways)
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, address: int, size: int) -> int:
        """Touch the lines covering ``[address, address+size)``; return misses."""
        misses = 0
        for line in line_span(address, size, self.line_size):
            index = line % self.num_sets
            entries = self._sets[index]
            if line in entries:
                entries.move_to_end(line)
                self.hits += 1
            else:
                self.misses += 1
                misses += 1
                entries[line] = True
                if len(entries) > self.ways:
                    entries.popitem(last=False)
        return misses

    def clone(self) -> "ICache":
        """Deep copy: same geometry, same resident lines (with LRU order),
        same hit/miss counters.  Used by ``MachineState.clone()`` so a
        snapshot's future cache behaviour matches the original's exactly."""
        twin = ICache.__new__(ICache)
        twin.line_size = self.line_size
        twin.ways = self.ways
        twin.num_sets = self.num_sets
        twin._sets = [OrderedDict(entries) for entries in self._sets]
        twin.hits = self.hits
        twin.misses = self.misses
        return twin

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0
