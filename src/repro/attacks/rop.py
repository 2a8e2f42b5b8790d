"""Classic ROP with monoculture layout knowledge (Section 2.1).

The attacker analyzed their own copy of the binary, so they know (a) where
the vulnerable function's return address sits relative to the leaked stack
pointer, and (b) the text offset the leaked return address corresponds to
— enough to compute the ASLR base and redirect the return into the target
function ("the gadget chain" degenerates to the whole-function payload;
locating it is the part every defense in Table 3 fights over).

Against an undiversified victim this succeeds deterministically.  Against
R2C the frame geometry, the call-site offsets, and the function layout of
the attacker's copy are all wrong for the victim, and the word the
attacker takes for the return address is, with probability R/(R+1), a
booby-trapped return address.
"""

from __future__ import annotations

from repro.attacks.clustering import classify_word
from repro.attacks.scenario import AttackAborted, AttackResult, VictimSession, run_attack
from repro.attacks.surface import AttackerView
from repro.workloads.victim import VictimLayoutInfo


def make_rop_hook(layout: VictimLayoutInfo = VictimLayoutInfo()):
    """The raw attack function, reusable outside run_attack (e.g. by an
    N-variant ``VictimSession.probe_ex``)."""

    def hook(view: AttackerView) -> None:
        reference = view.reference
        frames = reference.stack_map_from_hook(layout.hook_chain)
        inner = frames[0]
        ra_addr = view.rsp + inner.ra_slot

        leaked_ra = view.read_word(ra_addr)
        if classify_word(leaked_ra) != "image":
            raise AttackAborted("value at expected RA slot is not a code pointer")

        # Derandomize: the attacker knows which call site this return
        # address belongs to in *their* copy of the binary.
        site = reference._find_callsite(layout.hook_chain[1], layout.hook_chain[0])
        if site is None:
            raise AttackAborted("no call site record in reference")
        text_base = leaked_ra - site.ret_offset
        target = text_base + reference.function_offset(layout.target_function)
        view.write_word(ra_addr, target)

    return hook


def rop_attack(session: VictimSession, *, attacker_seed: int = 0) -> AttackResult:
    hook = make_rop_hook(session.layout)
    return run_attack(session, hook, "rop", attacker_seed=attacker_seed)
