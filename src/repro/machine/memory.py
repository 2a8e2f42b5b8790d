"""Paged virtual memory with per-page permissions.

The memory model is the part of the substrate R2C's reactive features rest
on.  Three permission configurations matter:

* **execute-only** (``Perm.X`` without ``Perm.R``): the text section is
  mapped this way, so an attacker's read primitive cannot disclose code —
  the leakage-resilience baseline R2C assumes (Section 3 of the paper).
* **guard pages** (``Perm.NONE``): the R2C runtime constructor strips read
  permission from the heap pages BTDPs point into; any dereference raises
  :class:`~repro.errors.GuardPageFault`, the "immediate fault, giving
  defenders a way to respond" of Section 4.2.
* ordinary ``RW`` data / stack pages, which the attacker *can* read — the
  whole point of the paper is surviving that.

Addresses are 64-bit; words are little-endian 8-byte integers.
"""

from __future__ import annotations

import enum
import sys
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import GuardPageFault, MemoryFault

PAGE_SIZE = 4096
PAGE_MASK = PAGE_SIZE - 1
WORD_BYTES = 8

#: Largest in-page offset a whole word fits at.
_WORD_SPAN = PAGE_SIZE - WORD_BYTES
_WORD_MASK = (1 << 64) - 1


class Perm(enum.IntFlag):
    """Page permission bits (mmap/mprotect style)."""

    NONE = 0
    R = 1
    W = 2
    X = 4
    RW = R | W
    RX = R | X
    RWX = R | W | X


def page_base(address: int) -> int:
    """Return the base address of the page containing ``address``."""
    return address & ~PAGE_MASK


def page_range(address: int, size: int) -> Iterator[int]:
    """Yield the base of every page overlapped by ``[address, address+size)``."""
    if size <= 0:
        return
    first = page_base(address)
    last = page_base(address + size - 1)
    for base in range(first, last + 1, PAGE_SIZE):
        yield base


class _Page:
    """One mapped page: backing bytes plus its current permissions.

    ``bits`` mirrors ``perm`` as a plain ``int`` so the single-page access
    fast paths can test permissions with an integer AND instead of the much
    slower ``enum.IntFlag.__and__`` — on interpreter-bound runs the enum op
    alone is a measurable fraction of every memory access.

    ``data`` is demand-zero: ``None`` until the first byte access
    materializes the backing ``bytearray``.

    A descriptor whose ``data`` is ``None`` is never changed in place, so
    it can be shared: :meth:`Memory.map_region` installs one descriptor
    for every page of a region, and :meth:`Memory.clone` hands untouched
    pages to the clone as they are.  Materializing or protecting such a
    page installs a new, private descriptor for that page alone.  Mapping
    a multi-megabyte heap arena therefore allocates neither bytes nor
    per-page objects, and load and clone time scale with the pages
    actually written or protected, not the address space reserved: the
    memory keeps the set of its materialized pages, so a clone copies
    those without walking the shared descriptors.

    ``mv`` is a 64-bit view of ``data`` (``memoryview.cast("Q")``), created
    at materialization on little-endian hosts.  Aligned word accesses — the
    overwhelmingly common case: stack operations and compiler-emitted loads
    and stores are all 8-byte aligned — become a single indexed read or
    write instead of a slice plus ``int.from_bytes``/``to_bytes`` round
    trip.  The view shares the page's buffer, so byte-level writes and bit
    corruption stay coherent with it; pages are never resized, so exporting
    the buffer is safe.
    """

    __slots__ = ("data", "perm", "guard", "bits", "mv")

    def __init__(self, perm: Perm, guard: bool = False):
        self.data = None
        self.mv = None
        self.perm = perm
        self.guard = guard
        self.bits = int(perm)


#: ``memoryview.cast("Q")`` reads native byte order; guest words are
#: little-endian, so the word view only exists on little-endian hosts
#: (big-endian falls back to the byte-slice path — correct, just slower).
_LITTLE_ENDIAN = sys.byteorder == "little"


class Memory:
    """Sparse paged address space.

    :meth:`map_region` reserves pages; their bytes are allocated on first
    touch (see :class:`_Page`).  Permissions are checked on every access.
    A page flagged as *guard* raises :class:`GuardPageFault`
    instead of the generic :class:`MemoryFault` so the attack monitor can
    attribute the crash to a booby trap.
    """

    def __init__(self) -> None:
        self._pages: Dict[int, _Page] = {}
        # Bases of the pages fetch-checked since the last map/protect:
        # ``fast`` checks a page once and then only looks it up here (see
        # :meth:`FastBackend._drive <repro.machine.backends.FastBackend.
        # _drive>`), and every jit unit's prolog tests the text pages its
        # bytes cover against it (:mod:`repro.machine.jit`).  Cleared in
        # place, never replaced, so a loop's local reference and the jit
        # namespace's binding stay valid.
        self._fetched: set = set()
        # Bases of the pages with private backing bytes (see
        # :meth:`_materialize`), and of the pages fetched from without
        # materializing data (execute-only text never allocates backing
        # bytes).  Residency is their union — see :meth:`resident_bytes`.
        # Mapping a region does not make it resident (demand paging),
        # which is what lets the maxrss experiment of Section 6.2.5
        # distinguish BTDP guard pages (touched by the allocator) from
        # merely reserved space.
        self._materialized: set = set()
        self._touched: set = set()
        # Aligned-word dispatch tables for the jit backend's inlined memory
        # fast path: page base -> 64-bit word view, one table per required
        # permission.  A base is present iff the page is materialized AND
        # currently grants the permission, so a hit licenses the access
        # outright; every miss (unmapped, unmaterialized, protected, guard,
        # big-endian host) falls back to :meth:`read_word` /
        # :meth:`write_word`, which reproduce the exact fault.  Maintained
        # by materialization, :meth:`protect` and :meth:`clone`; the dict
        # objects themselves are never replaced, so bound ``.get``
        # references stay valid for the memory's lifetime.  A page's view
        # object is created once, when the page materializes, and never
        # replaced, and only :meth:`protect` changes which table lists a
        # materialized page's view.  A jit block relies on this when it
        # looks a page up once per base register and indexes the view for
        # every later access through that register: while guest code
        # runs, only runtime services call :meth:`protect` or
        # :meth:`map_region`, and a service call ends a block.
        self._rmv: Dict[int, object] = {}
        self._wmv: Dict[int, object] = {}

    def _materialize(self, base: int, page: _Page) -> _Page:
        """Give the untouched (possibly shared) ``page`` at ``base`` a
        private descriptor with demand-zero backing bytes and word views,
        and return it."""
        page = self._pages[base] = _Page(page.perm, page.guard)
        data = page.data = bytearray(PAGE_SIZE)
        if _LITTLE_ENDIAN:
            mv = page.mv = memoryview(data).cast("Q")
            bits = page.bits
            if bits & 1:
                self._rmv[base] = mv
            if bits & 2:
                self._wmv[base] = mv
        # A fetch-touched page moves from ``_touched`` to the materialized
        # set; the discard keeps the union counting it once.
        self._materialized.add(base)
        self._touched.discard(base)
        return page

    def _refresh_views(self, base: int, page: _Page) -> None:
        """Re-derive the word-map entries for one materialized page after
        a permission change."""
        mv = page.mv
        if mv is None:
            return
        bits = page.bits
        if bits & 1:
            self._rmv[base] = mv
        else:
            self._rmv.pop(base, None)
        if bits & 2:
            self._wmv[base] = mv
        else:
            self._wmv.pop(base, None)

    # -- mapping -----------------------------------------------------------

    def map_region(self, address: int, size: int, perm: Perm) -> None:
        """Map ``size`` bytes at ``address`` (page-granular) with ``perm``.

        Every page of the region gets the same untouched descriptor.
        Mapping forgets every fetch-checked page, so the next fetch from
        any page, by an interpreter or by compiled code, checks again."""
        self._fetched.clear()
        pages = self._pages
        shared = _Page(perm)
        for base in page_range(address, size):
            if base in pages:
                raise MemoryFault("write", base, "already mapped")
            pages[base] = shared

    def protect(self, address: int, size: int, perm: Perm, *, guard: bool = False) -> None:
        """Change permissions of mapped pages (mprotect analogue).

        ``guard=True`` marks the pages as booby-trap guard pages so that
        faults on them are classified as detections.  Like
        :meth:`map_region`, it forgets every fetch-checked page.
        """
        self._fetched.clear()
        for base in page_range(address, size):
            page = self._pages.get(base)
            if page is None:
                raise MemoryFault("write", base, "unmapped")
            if page.data is None:
                self._pages[base] = _Page(perm, guard)
                continue
            page.perm = perm
            page.bits = int(perm)
            page.guard = guard
            self._refresh_views(base, page)

    def clone(self) -> "Memory":
        """Copy the address space: page contents, permissions, guard
        flags, the fetch-checked pages (the clone's permissions are the
        same, so they still pass), and the resident set.

        Only materialized pages are copied, read off the materialized
        set; untouched descriptors are shared, which is safe because
        neither side changes one in place (see :class:`_Page`).  The clone
        is fully independent — writes and protection changes on either
        side never show through.  This is the substrate for replica
        processes (:meth:`repro.machine.process.Process.clone`): copying
        pages wholesale is an order of magnitude cheaper than re-running
        the loader and the runtime constructors."""
        clone = Memory.__new__(Memory)
        pages = dict(self._pages)
        rmv: Dict[int, object] = {}
        wmv: Dict[int, object] = {}
        for base in self._materialized:
            page = pages[base]
            copy = pages[base] = _Page(page.perm, page.guard)
            copy.data = data = bytearray(page.data)
            if _LITTLE_ENDIAN:
                mv = copy.mv = memoryview(data).cast("Q")
                bits = page.bits
                if bits & 1:
                    rmv[base] = mv
                if bits & 2:
                    wmv[base] = mv
        clone._pages = pages
        clone._fetched = set(self._fetched)
        clone._materialized = set(self._materialized)
        clone._touched = set(self._touched)
        clone._rmv = rmv
        clone._wmv = wmv
        return clone

    def is_mapped(self, address: int) -> bool:
        return page_base(address) in self._pages

    def perm_at(self, address: int) -> Optional[Perm]:
        page = self._pages.get(page_base(address))
        return None if page is None else page.perm

    def is_guard(self, address: int) -> bool:
        page = self._pages.get(page_base(address))
        return bool(page and page.guard)

    def mapped_pages(self) -> List[Tuple[int, Perm]]:
        """Return (base, perm) for every mapped page, sorted by address."""
        return sorted((base, page.perm) for base, page in self._pages.items())

    def resident_bytes(self) -> int:
        """Total bytes of *touched* pages — the maxrss analogue (Section 6.2.5).

        A page is resident when its backing store was materialized (any
        read or write does this) or when it was fetched from
        (execute-only text never materializes data).  Both sets are
        maintained incrementally — materialization adds to one, a fetch
        from unmaterialized text to the other — so sampling residency is
        O(1) and the per-access fast paths carry no extra bookkeeping.
        """
        return (len(self._materialized) + len(self._touched)) * PAGE_SIZE

    # -- access checks -----------------------------------------------------

    def _check(self, kind: str, need: Perm, address: int, size: int) -> None:
        for base in page_range(address, size):
            page = self._pages.get(base)
            if page is None:
                raise MemoryFault(kind, address, "unmapped")
            if not (page.perm & need):
                if page.guard:
                    raise GuardPageFault(kind, address, "guard page")
                raise MemoryFault(kind, address, "protection")

    # -- data access -------------------------------------------------------
    #
    # Every accessor has a single-page fast path: when the access lies
    # inside one mapped page that already grants the needed permission,
    # service it with one dict probe and an integer AND.  Anything else —
    # page-spanning, unmapped, insufficient permission, guard pages — falls
    # through to the original ``_check`` + copy path, so every fault is
    # raised from exactly the same place with exactly the same message.
    # Materializing the backing store marks the page resident (see
    # :meth:`resident_bytes`), so the fast paths carry no ``_touched``
    # bookkeeping.  Aligned word accesses go through the page's 64-bit
    # view — one indexed operation instead of a slice and a byte-order
    # conversion.

    def read(self, address: int, size: int) -> bytes:
        """Read ``size`` bytes; requires ``Perm.R`` on every touched page."""
        offset = address & PAGE_MASK
        if 0 < size <= PAGE_SIZE - offset:
            base = address - offset
            page = self._pages.get(base)
            if page is not None and page.bits & 1:  # Perm.R
                data = page.data
                if data is None:
                    data = self._materialize(base, page).data
                return bytes(data[offset : offset + size])
        self._check("read", Perm.R, address, size)
        return self._copy_out(address, size)

    def write(self, address: int, data: bytes) -> None:
        """Write bytes; requires ``Perm.W`` on every touched page."""
        size = len(data)
        offset = address & PAGE_MASK
        if 0 < size <= PAGE_SIZE - offset:
            base = address - offset
            page = self._pages.get(base)
            if page is not None and page.bits & 2:  # Perm.W
                backing = page.data
                if backing is None:
                    backing = self._materialize(base, page).data
                backing[offset : offset + size] = data
                return
        self._check("write", Perm.W, address, size)
        self._copy_in(address, data)

    def read_word(self, address: int) -> int:
        offset = address & PAGE_MASK
        if offset <= _WORD_SPAN:
            base = address - offset
            page = self._pages.get(base)
            if page is not None and page.bits & 1:  # Perm.R
                data = page.data
                if data is None:
                    page = self._materialize(base, page)
                    data = page.data
                if not offset & 7:
                    mv = page.mv
                    if mv is not None:
                        return mv[offset >> 3]
                return int.from_bytes(data[offset : offset + WORD_BYTES], "little")
        return int.from_bytes(self.read(address, WORD_BYTES), "little")

    def write_word(self, address: int, value: int) -> None:
        offset = address & PAGE_MASK
        if offset <= _WORD_SPAN:
            base = address - offset
            page = self._pages.get(base)
            if page is not None and page.bits & 2:  # Perm.W
                data = page.data
                if data is None:
                    page = self._materialize(base, page)
                    data = page.data
                if not offset & 7:
                    mv = page.mv
                    if mv is not None:
                        mv[offset >> 3] = value & _WORD_MASK
                        return
                data[offset : offset + WORD_BYTES] = (value & _WORD_MASK).to_bytes(
                    WORD_BYTES, "little"
                )
                return
        self.write(address, (value & _WORD_MASK).to_bytes(WORD_BYTES, "little"))

    def fetch_check(self, address: int, size: int = 1) -> None:
        """Verify that instruction fetch from ``address`` is allowed."""
        offset = address & PAGE_MASK
        if 0 < size <= PAGE_SIZE - offset:
            base = address - offset
            page = self._pages.get(base)
            if page is not None and page.bits & 4:  # Perm.X
                # Materialized pages are already in the resident tally.
                if page.data is None:
                    self._touched.add(base)
                return
        self._check("fetch", Perm.X, address, size)
        for base in page_range(address, size):
            if self._pages[base].data is None:
                self._touched.add(base)

    # -- privileged access (loader / runtime, bypasses permissions) ---------

    def store_raw(self, address: int, data: bytes) -> None:
        """Write ignoring permissions.  Used by the loader and runtime only."""
        for base in page_range(address, len(data)):
            if base not in self._pages:
                raise MemoryFault("write", base, "unmapped")
        self._copy_in(address, data)

    def load_raw(self, address: int, size: int) -> bytes:
        """Read ignoring permissions.  Used by the runtime/debugger only."""
        for base in page_range(address, size):
            if base not in self._pages:
                raise MemoryFault("read", base, "unmapped")
        return self._copy_out(address, size)

    def store_word_raw(self, address: int, value: int) -> None:
        self.store_raw(address, (value & (2**64 - 1)).to_bytes(WORD_BYTES, "little"))

    def load_word_raw(self, address: int) -> int:
        return int.from_bytes(self.load_raw(address, WORD_BYTES), "little")

    # -- fault injection -----------------------------------------------------

    def corrupt_bit(self, address: int, bit: int) -> None:
        """Flip one bit in a mapped page, ignoring permissions.

        The reliability layer's bitflip injection (:mod:`repro.reliability.
        faults`) models single-event upsets / rowhammer-style corruption:
        the flip bypasses permissions (like the hardware would) but still
        requires the page to be mapped — flipping unmapped addresses is a
        plan bug, not a simulated fault.
        """
        base = page_base(address)
        page = self._pages.get(base)
        if page is None:
            raise MemoryFault("write", address, "unmapped")
        data = page.data
        if data is None:
            data = self._materialize(base, page).data
        data[address & PAGE_MASK] ^= 1 << (bit & 7)

    # -- internals ----------------------------------------------------------

    def _copy_out(self, address: int, size: int) -> bytes:
        out = bytearray(size)
        pos = 0
        while pos < size:
            addr = address + pos
            base = page_base(addr)
            offset = addr - base
            take = min(PAGE_SIZE - offset, size - pos)
            page = self._pages[base]
            backing = page.data
            if backing is None:
                backing = self._materialize(base, page).data
            out[pos : pos + take] = backing[offset : offset + take]
            pos += take
        return bytes(out)

    def _copy_in(self, address: int, data: bytes) -> None:
        pos = 0
        size = len(data)
        while pos < size:
            addr = address + pos
            base = page_base(addr)
            offset = addr - base
            take = min(PAGE_SIZE - offset, size - pos)
            page = self._pages[base]
            backing = page.data
            if backing is None:
                backing = self._materialize(base, page).data
            backing[offset : offset + take] = data[pos : pos + take]
            pos += take
