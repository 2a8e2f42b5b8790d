"""Fixed reference work that tells how fast the host runs right now.

The benchmark's host is shared: the same work takes up to 45% longer for
minutes at a time, and up to twice as long for seconds, while other
tenants load the machine, and process CPU time moves with wall time, so
neither clock removes it.  :class:`HostClock` times this kernel before
every op and, from an interval timer, every :data:`INTERVAL_S` while the
op runs.  An op's *host factor* is the median kernel time over the
samples taken around it, divided by :data:`NOMINAL_S`; the runner
divides the op's wall time by it.  What it reports are *reference
seconds*, the time the work would take on a host where the kernel takes
:data:`NOMINAL_S`.

The kernel is a miniature simulator loop: table dispatch to small
functions that update an object's attributes, with reads and writes
scattered over a byte array.  That is the package's own kind of
interpreter work, but it calls none of the package's code, so no change
to the package can move it.  The array is 8 MiB, four times the core's
own L2 cache, so like the workloads' data it is served from the shared
L3 cache, whose speed other tenants change too.  A kernel over 64 KiB,
which stays in the core's own caches, slowed about 1.5 times as much as
the workloads did while the host was loaded, so dividing by it
overcorrected.  Each sample first reads the whole array in order and
times only the scattered loop after it: without that read the kernel
ran 14% slower right after an op that had copied 8 MiB, so what the op
did to the caches, not the host, would have set the factor.

Imports in a fresh interpreter do not follow the kernel: their time
drifts by a third over tens of seconds, unrelated to the kernel's.  So
an import is timed together with its own reference, in the same fresh
interpreter just before it: :data:`REFERENCE_IMPORTS`, standard-library
modules the package does not use.  Its time over
:data:`NOMINAL_IMPORT_S` is the import's host factor.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator, List

#: Kernel seconds that define one reference second (about the fastest the
#: kernel ran on a 2-core x86-64 host).
NOMINAL_S = 0.0015
#: Wall seconds between the samples taken while an op runs.  A sample
#: takes about 2 ms, so sampling costs the op 2%, which the runner
#: subtracts.
INTERVAL_S = 0.1
#: An op's host factor uses the samples taken from this long before it
#: starts to this long after it ends: ops shorter than the interval get
#: no sample of their own, and the host's state lasts for seconds.
WINDOW_S = 1.0

#: Imported first by every import probe, to time the host's speed at
#: importing.  None of them is imported by the package or this benchmark,
#: so the package's import starts from the same modules whatever it uses.
REFERENCE_IMPORTS = "email.mime.text, http.client, xml.dom.minidom, sqlite3, asyncio, unittest, csv"
#: Seconds :data:`REFERENCE_IMPORTS` take on a quiet 2-core x86-64 host.
NOMINAL_IMPORT_S = 0.08

_ITERATIONS = 4000
#: Byte ``i`` holds ``i & 255``; the kernel only ever writes that value
#: back, so every run does exactly the same work.
_MEMORY = bytearray(bytes(range(256)) * ((8 << 20) // 256))
_MASK = len(_MEMORY) - 1


class _Registers:
    __slots__ = ("a", "b", "c")

    def __init__(self) -> None:
        self.a, self.b, self.c = 1, 2, 3


def _add(regs: _Registers, x: int) -> int:
    regs.a = (regs.a + x) & 0xFFFF
    return regs.a


def _xor(regs: _Registers, x: int) -> int:
    regs.b = (regs.b ^ x) & 0xFFFF
    return regs.b


def _mul(regs: _Registers, x: int) -> int:
    regs.c = (regs.c * 3 + x) & 0xFFFF
    return regs.c


def _sum(regs: _Registers, x: int) -> int:
    return (regs.a + regs.b + regs.c + x) & 0xFFFF


_HANDLERS = (_add, _xor, _mul, _sum)


def kernel() -> int:
    regs = _Registers()
    memory, handlers, mask = _MEMORY, _HANDLERS, _MASK
    address, acc = 777, 0
    for _ in range(_ITERATIONS):
        address = (address * 1103515245 + 12345) & mask
        acc = handlers[memory[address] & 3](regs, acc)
        target = (address + acc) & mask
        memory[target] = target & 255
    return acc


class HostClock:
    """Kernel samples, each ``(start, seconds)``, taken over one run."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.seconds: List[float] = []
        #: Seconds the samples taken inside :meth:`running` blocks took.
        self.stolen = 0.0
        self._sampling = False

    def sample(self) -> float:
        """Time one kernel run now, after reading its array into the
        caches; return the seconds both took."""
        self._sampling = True
        started = time.perf_counter()
        _MEMORY.count(0)
        warmed = time.perf_counter()
        kernel()
        ended = time.perf_counter()
        self._sampling = False
        self.starts.append(warmed)
        self.seconds.append(ended - warmed)
        return ended - started

    def _on_alarm(self, signum, frame) -> None:
        # A sample stalled for a whole interval is not interrupted by the
        # next one, which keeps the samples in time order.
        if not self._sampling:
            self.stolen += self.sample()

    @contextmanager
    def running(self) -> Iterator[None]:
        """Sample every :data:`INTERVAL_S` of wall time inside the block,
        interrupting it; the block's wall time less the growth of
        :attr:`stolen` is the work's own."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, end: float) -> float:
        """How much slower than nominal the host ran from ``start`` to
        ``end`` (1.0: nominal; 1.2: everything took 20% longer), from the
        samples within :data:`WINDOW_S` of that span."""
        low = bisect.bisect_left(self.starts, start - WINDOW_S)
        high = bisect.bisect_right(self.starts, end + WINDOW_S)
        return statistics.median(self.seconds[low:high]) / NOMINAL_S
