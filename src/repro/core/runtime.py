"""The R2C runtime constructor (Section 5.2).

The real R2C registers an ELF constructor that runs at program start; our
loader runs the callable returned by :func:`make_btdp_constructor` before
transferring control to ``_start``.  The constructor:

1. allocates ``btdp_overallocate_factor * btdp_guard_pages`` page-aligned,
   page-sized chunks from the heap allocator;
2. frees all but a randomly chosen subset of ``btdp_guard_pages`` chunks —
   the survivors are scattered across the heap, and because they are never
   freed, the allocator will never hand the protected pages to another
   allocation;
3. revokes all permissions on the surviving pages (guard pages) so any
   dereference faults as a :class:`~repro.errors.GuardPageFault`;
4. fills the BTDP pointer array with pointers to random offsets inside the
   guard pages — values indistinguishable by range from benign heap
   pointers;
5. in hardened mode, places that array *on the heap* and stores only a
   pointer to it in the data section, then fills the data-section decoy
   BTDPs with fresh guard-page pointers that never appear on any stack
   (Figure 5); in naive mode, writes the array straight into the data
   section.

Ground truth (guard-page ranges, array values) is recorded on the process
as ``process.r2c_runtime`` for the attack monitor and the tests; attack
code never reads it.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.core.config import R2CConfig
from repro.core.passes.btdp import DECOY_PREFIX, HARDENED_PTR_SYMBOL, NAIVE_ARRAY_SYMBOL
from repro.machine.memory import PAGE_SIZE, Perm
from repro.machine.process import Process
from repro.rng import DiversityRng

WORD = 8


class BtdpConstructor:
    """The BTDP runtime constructor for one ``config``.

    A class (not a closure) so :class:`~repro.toolchain.binary.Binary`
    stays picklable — binaries cross process boundaries in the engine's
    worker pool.
    """

    def __init__(self, config: R2CConfig):
        self.config = config

    def __call__(self, process: Process, rng: DiversityRng) -> None:
        config = self.config
        allocator = process.allocator
        if allocator is None:
            raise RuntimeError("BTDP constructor needs a process heap allocator")

        total = max(config.btdp_guard_pages * config.btdp_overallocate_factor, 1)
        chunks = [allocator.malloc_aligned(PAGE_SIZE, PAGE_SIZE) for _ in range(total)]
        keep = rng.sample(chunks, min(config.btdp_guard_pages, total))
        keep_set = set(keep)
        for chunk in chunks:
            if chunk not in keep_set:
                allocator.free(chunk)

        if not config.unsafe_btdp_no_guard:
            for page in keep:
                process.memory.protect(page, PAGE_SIZE, Perm.NONE, guard=True)

        def draw_btdp() -> int:
            page = rng.choice(keep)
            return page + rng.randint(0, PAGE_SIZE - WORD)

        values = [draw_btdp() for _ in range(config.btdp_array_len)]

        info: Dict[str, object] = {
            "guard_pages": list(keep),
            "btdp_values": list(values),
            "hardened": config.btdp_hardened,
            "guarded": not config.unsafe_btdp_no_guard,
        }

        if config.btdp_hardened:
            array_addr = allocator.malloc(config.btdp_array_len * WORD)
            for index, value in enumerate(values):
                process.memory.store_word_raw(array_addr + index * WORD, value)
            ptr_slot = process.symbols[HARDENED_PTR_SYMBOL]
            process.memory.store_word_raw(ptr_slot, array_addr)
            info["array_addr"] = array_addr
            decoys: List[int] = []
            index = 0
            while f"{DECOY_PREFIX}{index}" in process.symbols:
                decoy_value = draw_btdp()
                process.memory.store_word_raw(
                    process.symbols[f"{DECOY_PREFIX}{index}"], decoy_value
                )
                decoys.append(decoy_value)
                index += 1
            info["decoy_values"] = decoys
        else:
            array_addr = process.symbols[NAIVE_ARRAY_SYMBOL]
            for index, value in enumerate(values):
                process.memory.store_word_raw(array_addr + index * WORD, value)
            info["array_addr"] = array_addr

        process.r2c_runtime = info
        process.note_resident()


def make_btdp_constructor(config: R2CConfig) -> Callable[[Process, DiversityRng], None]:
    """Build the BTDP runtime constructor for ``config``."""
    return BtdpConstructor(config)
