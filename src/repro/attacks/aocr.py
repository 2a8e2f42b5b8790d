"""Address-Oblivious Code Reuse (Sections 2.3, 7.2).

The attack needs no code-layout knowledge at all.  Its inference chain,
following the AOCR paper's demonstrated attacks (A)-(C):

1. **Profile the stack** (Malicious Thread Blocking): leak two pages of
   stack words and run the statistical value-range analysis to isolate
   the cluster of heap pointers (stack-slot randomization prevents
   locating a *specific* one — so pick any member of the cluster).
2. **Leak heap data**: dereference the chosen heap pointer and walk the
   object looking for a pointer into the image (data section) — the
   victim's request object holds one.  Under R2C the chosen "heap
   pointer" is a BTDP with probability B/(H+B); dereferencing it faults
   into a guard page and the attack is *detected* (Section 4.2).
3. **Corrupt the data section**: derandomize the data base from the
   leaked data pointer using the attacker's reference offsets, then (a)
   read the target function's address out of a function-pointer table,
   (b) overwrite the handler function pointer, and (c) overwrite the
   default-parameter global the handler will be called with.  Global
   shuffling + padding makes all three offsets wrong under R2C; the
   attacker's verification step (the stolen word must look like a code
   pointer) then either aborts or falls back to scanning the data
   section — where R2C's decoy BTDPs (Figure 5) and BTRA arrays mislead
   the scan.

The victim then calls ``handler_ptr(default_param)`` itself: control flow
never leaves the program's legitimate edges — the property that makes
AOCR immune to code randomization alone.
"""

from __future__ import annotations

from repro.attacks.clustering import classify_word, cluster_pointers
from repro.attacks.scenario import AttackAborted, AttackResult, VictimSession, run_attack
from repro.attacks.surface import AttackerView
from repro.workloads.victim import ATTACK_ARG

WORD = 8
#: Words of a leaked heap object the attacker inspects.
OBJECT_WINDOW = 4
#: Heap pointers the attacker is willing to chase before giving up.
MAX_CHASES = 3


def make_aocr_hook(layout=None):
    """The raw attack function, reusable outside run_attack (e.g. by an
    N-variant ``VictimSession.probe_ex``)."""
    from repro.workloads.victim import VictimLayoutInfo

    if layout is None:
        layout = VictimLayoutInfo()

    def hook(view: AttackerView) -> None:
        reference = view.reference

        # --- Stage 1: profile the stack, cluster by value range -----------
        leak = view.leak_stack()
        clusters = cluster_pointers(leak)
        heap_ptrs = [value for _, value in clusters.heap]
        if not heap_ptrs:
            raise AttackAborted("no heap-pointer cluster on the stack")

        # --- Stage 2: follow heap pointers to find a data-section pointer -
        data_ptr = None
        candidates = view.rng.shuffled(heap_ptrs)
        for heap_ptr in candidates[:MAX_CHASES]:
            # Dereference: a BTDP detonates right here.
            for index in range(OBJECT_WINDOW):
                word = view.read_word(heap_ptr + index * WORD)
                if classify_word(word) == "image":
                    data_ptr = word
                    break
            if data_ptr is not None:
                break
        if data_ptr is None:
            raise AttackAborted("no data-section pointer reachable from heap")

        # --- Stage 3: derandomize the data section and corrupt it --------
        data_base = data_ptr - reference.global_offset(layout.config_global)
        admin_addr = data_base + reference.global_offset(layout.admin_table_global)
        handler_addr = data_base + reference.global_offset(layout.handler_ptr_global)
        param_addr = data_base + reference.global_offset(layout.default_param_global)

        target = view.read_word(admin_addr)
        handler_now = view.read_word(handler_addr)
        if classify_word(target) == "image" and classify_word(handler_now) == "image":
            view.write_word(handler_addr, target)
            view.write_word(param_addr, ATTACK_ARG)
            return

        # Fallback: the reference offsets did not line up (data
        # diversification).  Scan outward from the known-good data pointer
        # for words that look like code pointers and gamble on a pair
        # (table entry -> handler slot).  Heap-band words found here are
        # candidate pointers to *follow* — under R2C these include the
        # decoy BTDPs planted in the data section (Figure 5).
        code_slots = []
        heap_slots = []
        for delta in range(-64, 96):
            addr = data_ptr + delta * WORD
            if addr < data_base:
                continue
            word = view.read_word(addr)
            kind = classify_word(word)
            if kind == "image":
                code_slots.append((addr, word))
            elif kind == "heap":
                heap_slots.append((addr, word))
        if heap_slots:
            # Chase one data-section heap pointer hoping for the handler's
            # backing object (decoy BTDPs detonate here).
            _, pointer = view.rng.choice(heap_slots)
            view.read_word(pointer)
        if len(code_slots) < 2:
            raise AttackAborted("data scan found no usable code pointers")
        (slot_a, value_a) = view.rng.choice(code_slots)
        (slot_b, _) = view.rng.choice(code_slots)
        view.write_word(slot_b, value_a)
        view.write_word(slot_b + WORD, ATTACK_ARG)

    return hook


def aocr_attack(session: VictimSession, *, attacker_seed: int = 0) -> AttackResult:
    hook = make_aocr_hook(session.layout)
    return run_attack(session, hook, "aocr", attacker_seed=attacker_seed)
