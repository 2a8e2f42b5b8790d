"""Cross-backend differential fuzzing.

Two seeded generators — one emitting machine-level instruction streams,
one emitting IR modules compiled under random R2C configs — drive every
registered backend (``reference``, ``fast``, ``jit``) over the same
program and assert the observations are byte-identical: the full
:class:`ExecutionResult` (instructions, cycles, mem ops, i-cache
hits/misses, branch/call/ret/trap counts, tag attribution, output), the fault class, message and resting ``rip`` for
crashing runs, the final register file, and the shadow stack.  Every
machine program also runs on every backend through ``step()`` slices of
random length, which must observe exactly what the uninterrupted run
does; every IR module's exit code and output must equal the IR
interpreter's (:func:`repro.toolchain.interp.interpret_module`).

Layers:

* ``test_corpus_*`` — the committed regression corpus under
  ``tests/corpus/``: pinned seeds that once exercised an interesting
  path (each fault class, loop traces, side exits, budget exhaustion
  mid-loop).  These always run and never change meaning.
* ``test_fuzz_machine_seeded`` / ``test_fuzz_ir_seeded`` — the bulk
  seeded sweep.  ``REPRO_FUZZ_CASES`` scales the machine-level case
  count (the IR sweep runs a quarter of it); CI's fuzz leg sets it to
  500.
* ``test_fuzz_indexed_*`` — the same generators with indexed ``mov``
  loads and stores (the toolchain's variable-index slot and global
  accesses) inside generated loops.  A separate seeded stream, so the
  sweep above and every corpus entry keep generating the same programs.
* ``test_fuzz_frames_seeded`` — machine programs whose tier-2 blocks
  reach memory through one page view per base register: RSP frames
  between ``sub rsp``/``add rsp``, push/pop runs up to 10 long, bases on
  the last words of a data page or unaligned, negative displacements, a
  base overwritten between two accesses, stores into untouched pages
  followed by loads, and stores that reach execute-only text on one
  loop trip.  A separate seeded stream, as for the indexed leg.
* ``test_fuzz_lockstep_seeded`` — each IR module as a three-replica
  :class:`~repro.defenses.lockstep.LockstepGroup` on every backend, at a
  random ``sync_every``: the group must stay clean and every replica
  must match the IR interpreter.
* ``test_fuzz_rerandomized_seeded`` — each IR module's binary loaded
  under two load seeds with different text slides, in one process: on
  the jit, the second load runs the units the first compiled, relocated
  to its own text base and linked on first entry.
* ``test_fuzz_fork_server_seeded`` — each IR module's binary loaded once
  as a fork server's image, and three clones of it run back to back on
  every backend: on the jit, the later clones run on the program the
  first linked, with their own memory, fetch-checked pages and
  promotion counts.
* ``test_fuzz_count_promotion_seeded`` — the step-slicing and lockstep
  legs again, with the jit's reuse window below any distance and its
  code cache cleared first, so every head compiles on its
  ``_PROMOTE_COUNT``-th entry: the promotion path that rarely re-entered
  code takes, held to the same byte identity.
* ``test_fuzz_hypothesis_explore`` — a hypothesis-driven seed explorer
  (derandomized, no database) for shrink-assisted local exploration.

A diverging case is minimized (machine level: greedy instruction
deletion preserving the divergence) and dumped as a JSON repro under
``$REPRO_FUZZ_DUMP`` (default ``fuzz-failures/``) before the assertion
propagates — CI uploads that directory as the failure artifact.  Pin the
dumped seed as a corpus file once the divergence is fixed.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path
from typing import List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.compiler import compile_module
from repro.core.config import R2CConfig
from repro.defenses.lockstep import LockstepGroup, MveeOutcome
from repro.machine import jit as jit_module
from repro.machine.isa import Imm, Instruction, Mem, Op, Reg
from repro.machine.loader import load_binary
from repro.toolchain.builder import IRBuilder
from repro.toolchain.interp import interpret_module

from tests.test_backends import BACKENDS, DATA, STACK, assemble, run_one_backend

I = Instruction

#: Instruction budget for every fuzz run: generated loops retire at most
#: a few thousand instructions, so a clean run never trips this — but a
#: generator bug (or a divergence in branch semantics) does, and budget
#: exhaustion itself must then be backend-identical.
BUDGET = 30_000

FUZZ_CASES = int(os.environ.get("REPRO_FUZZ_CASES", "24"))
DUMP_DIR = Path(os.environ.get("REPRO_FUZZ_DUMP", "fuzz-failures"))
CORPUS = Path(__file__).parent / "corpus"

#: General-purpose registers the generators draw from.  RBP is reserved
#: as the data-section base pointer, RSP is touched directly only by the
#: frames generator (balanced ``sub``/``add rsp`` and push/pop runs), and
#: R8..R11 are reserved for loop counters so a loop body cannot clobber
#: its own induction variable.
GPRS = (Reg.RAX, Reg.RBX, Reg.RCX, Reg.RDX, Reg.RSI, Reg.RDI)
COUNTERS = (Reg.R8, Reg.R9, Reg.R10, Reg.R11)
#: The indexed generator's walking index: it only ever grows, so long
#: enough loops walk it off the data mapping.
WALK = Reg.R12

ARITH_RR = (Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.IMUL)
JCCS = (Op.JE, Op.JNE, Op.JL, Op.JLE, Op.JG, Op.JGE)


# ---------------------------------------------------------------------------
# The differential oracle.
# ---------------------------------------------------------------------------


def differential(make_process, **cpu_kwargs):
    """Run every registered backend; assert byte-identical observations
    against ``reference``.  Returns the reference observation."""
    outcomes = {
        backend: run_one_backend(make_process, backend, **cpu_kwargs)
        for backend in BACKENDS
    }
    reference = outcomes["reference"]
    for backend, outcome in outcomes.items():
        assert outcome == reference, (
            f"backend {backend!r} diverged from reference"
        )
    return reference


# ---------------------------------------------------------------------------
# Machine-level generator: seeded instruction streams.
#
# A program spec is a list of ``(op, a, b)`` entries where an operand
# may be the placeholder ``("L", index)`` — "absolute address of the
# entry at ``index``" — resolved by fix-point assembly (immediate widths
# shift addresses, which can shift widths again).
# ---------------------------------------------------------------------------

Entry = Tuple[Op, object, object]


def _gen_simple(rng: random.Random, spec: List[Entry]) -> None:
    """One straight-line instruction: arithmetic, memory via the RBP
    data base, a balanced push/pop pair, or a flag-setting compare."""
    choice = rng.random()
    reg = rng.choice(GPRS)
    if choice < 0.40:
        if rng.random() < 0.5:
            spec.append((rng.choice(ARITH_RR), reg, rng.choice(GPRS)))
        else:
            spec.append((rng.choice(ARITH_RR), reg, Imm(rng.randrange(1 << 16))))
    elif choice < 0.55:
        # Shift counts stay immediate and < 64: register-count shifts
        # would make the magnitude of intermediate values seed-dependent
        # in ways that slow Python big-int paths, not find bugs.
        spec.append((rng.choice((Op.SHL, Op.SHR)), reg, Imm(rng.randrange(64))))
    elif choice < 0.75:
        offset = 8 * rng.randrange(16)
        if rng.random() < 0.5:
            spec.append((Op.MOV, reg, Mem(Reg.RBP, offset)))
        else:
            spec.append((Op.MOV, Mem(Reg.RBP, offset), rng.choice(GPRS)))
    elif choice < 0.85:
        spec.append((Op.PUSH, reg, None))
        spec.append((Op.POP, rng.choice(GPRS), None))
    elif choice < 0.95:
        spec.append((Op.CMP, reg, Imm(rng.randrange(1 << 8))))
        spec.append((rng.choice(SETCCS), rng.choice(GPRS), None))
    else:
        spec.append((Op.NEG, reg, None))


SETCCS = (Op.SETE, Op.SETNE, Op.SETL, Op.SETG)


def _gen_indexed(rng: random.Random, spec: List[Entry]) -> None:
    """One indexed ``mov`` load or store through RBP or an absolute data
    address.  The index is a GPR masked into a 16-word window (negated
    at times: it wraps mod 2**64 back into the window), or ``WALK``,
    which grows by up to a page per use and so may leave the data
    mapping mid-loop."""
    if rng.random() < 0.6:
        index = rng.choice(GPRS)
        spec.append((Op.AND, index, Imm(15)))
        disp = 0
        if rng.random() < 0.4:
            spec.append((Op.NEG, index, None))
            disp = 8 * 15
    else:
        index = WALK
        spec.append((Op.ADD, WALK, Imm(rng.choice((1, 8, 64, 512)))))
        disp = 0
    if rng.random() < 0.5:
        mem = Mem(Reg.RBP, disp, index=index, scale=8)
    else:
        mem = Mem(None, DATA + disp, index=index, scale=8)
    if rng.random() < 0.5:
        spec.append((Op.MOV, rng.choice(GPRS), mem))
    else:
        spec.append((Op.MOV, mem, rng.choice(GPRS)))


def _gen_loop(rng: random.Random, spec: List[Entry], counter: Reg,
              indexed: bool = False) -> None:
    """A counted loop: enough iterations to cross the jit's promotion
    and trace thresholds, so compiled loop traces run under the fuzzer
    (including their side exits when the trip count ends the loop)."""
    spec.append((Op.MOV, counter, Imm(rng.randrange(3, 41))))
    head = len(spec)
    for _ in range(rng.randrange(1, 7)):
        _gen_simple(rng, spec)
    for _ in range(rng.randrange(1, 4) if indexed else 0):
        _gen_indexed(rng, spec)
    spec.append((Op.SUB, counter, Imm(1)))
    spec.append((Op.CMP, counter, Imm(0)))
    spec.append((Op.JG, ("L", head), None))


def _gen_diamond(rng: random.Random, spec: List[Entry]) -> None:
    """A forward conditional diamond; both arms join."""
    spec.append((Op.CMP, rng.choice(GPRS), Imm(rng.randrange(1 << 8))))
    jcc_at = len(spec)
    spec.append((rng.choice(JCCS), None, None))  # patched to the else arm
    for _ in range(rng.randrange(1, 4)):
        _gen_simple(rng, spec)
    jmp_at = len(spec)
    spec.append((Op.JMP, None, None))  # patched to the join
    else_at = len(spec)
    for _ in range(rng.randrange(1, 4)):
        _gen_simple(rng, spec)
    join_at = len(spec)
    spec.append((Op.NOP, None, None))
    spec[jcc_at] = (spec[jcc_at][0], ("L", else_at), None)
    spec[jmp_at] = (Op.JMP, ("L", join_at), None)


def _gen_hazard(rng: random.Random, spec: List[Entry]) -> None:
    """An instruction that may fault depending on generated state —
    fault class, message, rip and partial counters must all match."""
    choice = rng.random()
    if choice < 0.4:
        # Divide by a register that may well hold zero.
        spec.append((Op.IDIV, rng.choice(GPRS), rng.choice(GPRS)))
    elif choice < 0.7:
        # Load through a register: usually a wild dereference.
        spec.append((Op.MOV, rng.choice(GPRS), Mem(rng.choice(GPRS))))
    else:
        spec.append((Op.TRAP, None, None))


def machine_spec(seed: int, indexed: bool = False) -> List[Entry]:
    """The seeded machine-level program for ``seed``; ``indexed`` adds
    indexed ``mov``s to every loop and makes the first construct one."""
    rng = random.Random(seed)
    spec: List[Entry] = [(Op.MOV, Reg.RBP, Imm(DATA))]
    for reg in GPRS:
        spec.append((Op.MOV, reg, Imm(rng.randrange(1 << 32))))
    # Reserved slot: becomes a CALL to the trailing leaf (see below), or
    # stays a NOP.  A placeholder avoids insertion, which would shift
    # every label reference recorded after this point.
    call_slot = len(spec)
    spec.append((Op.NOP, None, None))
    for _ in range(rng.randrange(2, 5)):
        spec.append((Op.MOV, Mem(Reg.RBP, 8 * rng.randrange(16)), rng.choice(GPRS)))

    counters = list(COUNTERS)
    constructs = rng.randrange(2, 6)
    for k in range(constructs):
        choice = 0.0 if indexed and k == 0 else rng.random()
        if choice < 0.40 and counters:
            _gen_loop(rng, spec, counters.pop(), indexed)
        elif choice < 0.60:
            _gen_diamond(rng, spec)
        elif choice < 0.90:
            for _ in range(rng.randrange(1, 5)):
                _gen_simple(rng, spec)
        else:
            _gen_hazard(rng, spec)

    # An occasional monomorphic indirect jump over a nop sled: it runs
    # once, so the jit interprets it (hot indirect jumps run as tier-2
    # blocks, see tests/test_jit.py).
    if rng.random() < 0.35:
        reg = rng.choice(GPRS)
        jmp_at = len(spec)
        spec.append((Op.MOV, reg, None))  # patched: address of the join
        spec.append((Op.JMP, reg, None))
        for _ in range(rng.randrange(1, 3)):
            spec.append((Op.NOP, None, None))
        join_at = len(spec)
        spec.append((Op.NOP, None, None))
        spec[jmp_at] = (Op.MOV, reg, ("L", join_at))

    for reg in GPRS[: rng.randrange(1, len(GPRS))]:
        spec.append((Op.OUT, reg, None))
    spec.append((Op.EXIT, Imm(0), None))

    # A call target after the EXIT: a short arithmetic leaf, wired to
    # the reserved pre-body slot (calling from straight-line code, never
    # mid-loop: an unbalanced push inside a loop body would misalign
    # every later iteration, which is legal but drowns the sweep in
    # StackMisaligned cases).
    if rng.random() < 0.5:
        leaf_at = len(spec)
        for _ in range(rng.randrange(1, 4)):
            spec.append((rng.choice(ARITH_RR), rng.choice(GPRS), Imm(rng.randrange(256))))
        spec.append((Op.RET, None, None))
        spec[call_slot] = (Op.CALL, ("L", leaf_at), None)
    return spec


#: The frames generator's page walker and its offset: R13 steps a page
#: per use through the last 8 data pages, which nothing else touches,
#: and R12 = R13 + their base, so each use stores into a page no
#: earlier one materialized (until the walk wraps).
FRESH, FRESH_STEP = Reg.R12, Reg.R13

#: RSP when every frames construct starts (they all leave it balanced).
STACK_TOP = STACK + 0x10000


def _frame_accesses(rng: random.Random, spec: List[Entry], base: Reg,
                    disps: List[int], at: Optional[int] = None,
                    stored: Optional[List[int]] = None) -> None:
    """Loads and stores through ``base`` at displacements drawn from
    ``disps``; the base itself is never a destination.  When the base
    holds the constant ``at``, each store's address goes to ``stored``."""
    for _ in range(rng.randrange(1, 5)):
        disp = rng.choice(disps)
        mem = Mem(base, disp)
        reg = rng.choice([reg for reg in GPRS if reg != base])
        if rng.random() < 0.5:
            spec.append((Op.MOV, mem, reg))
            if at is not None:
                stored.append(at + disp)
        elif rng.random() < 0.7:
            spec.append((Op.MOV, reg, mem))
        else:
            spec.append((Op.ADD, reg, mem))


def _gen_frame(rng: random.Random, spec: List[Entry], counter: Optional[Reg],
               stored: List[int]) -> None:
    """One construct of the frames generator: accesses a tier-2 block
    serves through one page view per base register.  ``counter`` is the
    enclosing loop's counter, or None outside a loop; stores through a
    base of known value add their addresses to ``stored``."""
    choice = rng.random()
    base = rng.choice(GPRS)
    if choice < 0.2:
        # A stack frame: aligned [rsp + d] inside sub/add rsp.
        size = 8 * rng.randrange(1, 9)
        spec.append((Op.SUB, Reg.RSP, Imm(size)))
        _frame_accesses(
            rng, spec, Reg.RSP, list(range(0, size, 8)), STACK_TOP - size, stored
        )
        spec.append((Op.ADD, Reg.RSP, Imm(size)))
    elif choice < 0.35:
        # A balanced push/pop run of up to 10.
        count = rng.randrange(1, 11)
        for _ in range(count):
            spec.append((Op.PUSH, rng.choice(GPRS + COUNTERS), None))
        for _ in range(count):
            spec.append((Op.POP, rng.choice(GPRS), None))
    elif choice < 0.55:
        # A base on the last words of a data page (displacements run
        # into the next page, and below it), or on an unaligned address.
        page = DATA + 4096 * rng.randrange(1, 7)
        if rng.random() < 0.7:
            at = page - 8 * rng.randrange(1, 4)
        else:
            at = page - rng.randrange(1, 64)
        spec.append((Op.MOV, base, Imm(at)))
        _frame_accesses(rng, spec, base, list(range(-32, 40, 8)), at, stored)
    elif choice < 0.7:
        # A base overwritten between two accesses of one block.
        at = DATA + 8 * rng.randrange(64, 448)
        spec.append((Op.MOV, base, Imm(at)))
        _frame_accesses(rng, spec, base, list(range(-64, 72, 8)), at, stored)
        change = rng.random()
        if change < 0.4:
            step = 8 * rng.randrange(-8, 9)
            spec.append((Op.ADD, base, Imm(step)))
            at += step
        elif change < 0.7:
            at = DATA + 8 * rng.randrange(64, 448)
            spec.append((Op.LEA, base, Mem(Reg.RBP, at - DATA)))
        else:
            at = DATA + 8 * rng.randrange(64, 448)
            spec.append((Op.PUSH, Imm(at), None))
            spec.append((Op.POP, base, None))
        _frame_accesses(rng, spec, base, list(range(-64, 72, 8)), at, stored)
    elif choice < 0.85:
        # A store into an untouched data page, then a load from it.
        spec.append((Op.ADD, FRESH_STEP, Imm(4096)))
        spec.append((Op.AND, FRESH_STEP, Imm(0x7000)))
        spec.append((Op.LEA, FRESH, Mem(FRESH_STEP, DATA + 0x8000)))
        disp = 8 * rng.randrange(-4, 8)
        spec.append((Op.MOV, Mem(FRESH, disp), rng.choice(GPRS)))
        spec.append((Op.MOV, rng.choice(GPRS), Mem(FRESH, disp)))
        _frame_accesses(rng, spec, FRESH, list(range(-32, 40, 8)))
    elif counter is not None and rng.random() < 0.5:
        # A store that reaches execute-only text on one trip: the base
        # is the data page, minus the text-to-data distance once the
        # counter reaches a drawn value.
        spec.append((Op.CMP, counter, Imm(rng.randrange(1, 6))))
        spec.append((Op.SETE, base, None))
        spec.append((Op.SHL, base, Imm(20)))
        spec.append((Op.NEG, base, None))
        spec.append((Op.ADD, base, Imm(DATA + 8 * rng.randrange(8, 256))))
        value = rng.choice([reg for reg in GPRS if reg != base])
        spec.append((Op.MOV, Mem(base, 8 * rng.randrange(-2, 3)), value))
        _frame_accesses(rng, spec, base, list(range(-16, 24, 8)))
    else:
        # Negative displacements from a base in mid-data, down to a page
        # and more below it.
        at = DATA + 4096 * rng.randrange(2, 6) + 8
        spec.append((Op.LEA, base, Mem(Reg.RBP, at - DATA)))
        _frame_accesses(rng, spec, base, [-4104, -4096, -16, -8, 0, 8], at, stored)


def frames_spec(seed: int) -> List[Entry]:
    """The seeded machine-level program of the frames leg: counted loops
    and straight-line runs of :func:`_gen_frame` constructs, then every
    GPR and the words stored through bases of known value are written
    out, so a store that went astray shows in the output.  It draws from
    its own stream, so :func:`machine_spec` programs (and every corpus
    entry) stay as they were."""
    rng = random.Random(f"frames:{seed}")
    spec: List[Entry] = [(Op.MOV, Reg.RBP, Imm(DATA)), (Op.MOV, FRESH_STEP, Imm(0))]
    for reg in GPRS:
        spec.append((Op.MOV, reg, Imm(rng.randrange(1 << 32))))
    counters = list(COUNTERS)
    stored: List[int] = []
    for _ in range(rng.randrange(2, 5)):
        if counters and rng.random() < 0.6:
            counter = counters.pop()
            spec.append((Op.MOV, counter, Imm(rng.randrange(3, 12))))
            head = len(spec)
            for _ in range(rng.randrange(1, 4)):
                _gen_frame(rng, spec, counter, stored)
            spec.append((Op.SUB, counter, Imm(1)))
            spec.append((Op.CMP, counter, Imm(0)))
            spec.append((Op.JG, ("L", head), None))
        else:
            for _ in range(rng.randrange(1, 3)):
                _gen_frame(rng, spec, None, stored)
    for reg in GPRS:
        spec.append((Op.OUT, reg, None))
    for addr in sorted(set(stored)):
        spec.append((Op.MOV, Reg.RAX, Mem(None, addr)))
        spec.append((Op.OUT, Reg.RAX, None))
    spec.append((Op.EXIT, Imm(0), None))
    return spec


def _label_targets(spec: List[Entry]) -> set:
    targets = set()
    for op, a, b in spec:
        for operand in (a, b):
            if isinstance(operand, tuple) and operand[0] == "L":
                targets.add(operand[1])
    return targets


def build_spec(spec: List[Entry]):
    """Fix-point assemble a spec; returns ``(process, addresses)``."""
    addresses: List[int] = [0] * len(spec)
    process = None
    for _ in range(8):
        instrs = []
        for op, a, b in spec:
            ra = Imm(addresses[a[1]]) if isinstance(a, tuple) else a
            rb = Imm(addresses[b[1]]) if isinstance(b, tuple) else b
            if ra is None:
                instrs.append(I(op))
            elif rb is None:
                instrs.append(I(op, ra))
            else:
                instrs.append(I(op, ra, rb))
        process, new_addresses = assemble(instrs)
        if new_addresses == addresses:
            break
        addresses = new_addresses
    return process, addresses


def build_process(spec: List[Entry]):
    """Fix-point assemble a spec into a fresh process."""
    return build_spec(spec)[0]


# ---------------------------------------------------------------------------
# Divergence minimization and repro dumping.
# ---------------------------------------------------------------------------


def _slices(seed: int):
    """Endless random ``step()`` slice lengths for ``seed``: 1 to 999
    instructions, log-uniform, so single steps and long compiled runs
    both occur."""
    rng = random.Random(seed)
    while True:
        yield int(1000 ** rng.random())


def check_machine_spec(spec: List[Entry], budget: int = BUDGET, seed: int = 0) -> None:
    """Every backend observes exactly what ``reference`` does, both in
    one uninterrupted run and driven through ``step()`` slices of random
    lengths drawn from ``seed``."""
    reference = differential(lambda: build_process(spec), instruction_budget=budget)
    for backend in BACKENDS:
        stepped = run_one_backend(
            lambda: build_process(spec), backend, slices=_slices(seed),
            instruction_budget=budget,
        )
        assert stepped == reference, (
            f"backend {backend!r} diverged from reference under step() slicing"
        )


def _diverges(spec: List[Entry], budget: int, seed: int) -> bool:
    try:
        check_machine_spec(spec, budget, seed)
    except AssertionError:
        return True
    return False


def _drop(spec: List[Entry], index: int) -> List[Entry]:
    """Remove entry ``index``, shifting label references above it."""
    out: List[Entry] = []
    for position, (op, a, b) in enumerate(spec):
        if position == index:
            continue
        def shift(operand):
            if isinstance(operand, tuple) and operand[0] == "L":
                target = operand[1]
                return ("L", target - 1 if target > index else target)
            return operand
        out.append((op, shift(a), shift(b)))
    return out


def minimize_machine(spec: List[Entry], budget: int = BUDGET, seed: int = 0,
                     attempts: int = 200) -> List[Entry]:
    """Greedy delta-debugging: delete one instruction at a time while
    the cross-backend divergence (whole-run or sliced) persists."""
    tried = 0
    changed = True
    while changed and tried < attempts:
        changed = False
        targets = _label_targets(spec)
        for index in range(len(spec)):
            if index in targets or spec[index][0] is Op.EXIT:
                continue
            tried += 1
            if tried >= attempts:
                break
            trial = _drop(spec, index)
            if _diverges(trial, budget, seed):
                spec = trial
                changed = True
                break
    return spec


def _dump_repro(kind: str, seed: int, spec: Optional[List[Entry]] = None,
                indexed: bool = False) -> Path:
    DUMP_DIR.mkdir(parents=True, exist_ok=True)
    payload = {"kind": kind, "seed": seed}
    if indexed:
        payload["indexed"] = True
    if spec is not None:
        payload["minimized"] = [
            [op.name, repr(a), repr(b)] for op, a, b in spec
        ]
    path = DUMP_DIR / f"{kind}{'-indexed' if indexed else ''}-{seed}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def check_machine_seed(seed: int, budget: int = BUDGET, indexed: bool = False) -> None:
    """Differential over the machine-level program for ``seed``.

    The primary runs are *plain* (no tag attribution)
    — the only drives the jit compiles, so loop traces and their side
    exits actually execute, whole and sliced (:func:`check_machine_spec`).
    Every fourth seed also runs an observed leg (tag attribution), where
    ``jit`` delegates to ``fast``: it checks ``fast`` against
    ``reference`` for those counters."""
    spec = machine_spec(seed, indexed)
    try:
        check_machine_spec(spec, budget, seed)
        if seed % 4 == 0:
            differential(
                lambda: build_process(spec),
                instruction_budget=budget,
                attribute_tags=True,
            )
    except AssertionError:
        minimized = minimize_machine(spec, budget, seed)
        path = _dump_repro("machine", seed, minimized, indexed)
        raise AssertionError(
            f"machine seed {seed} diverged; minimized repro at {path}"
        )


def check_frames_seed(seed: int, budget: int = BUDGET) -> None:
    """Differential over the frames leg's program for ``seed``
    (:func:`frames_spec`), whole and in ``step()`` slices."""
    spec = frames_spec(seed)
    try:
        check_machine_spec(spec, budget, seed)
    except AssertionError:
        minimized = minimize_machine(spec, budget, seed)
        path = _dump_repro("frames", seed, minimized)
        raise AssertionError(f"frames seed {seed} diverged; minimized repro at {path}")


# ---------------------------------------------------------------------------
# IR-level generator: random modules under random R2C configs.
# ---------------------------------------------------------------------------


def random_config(rng: random.Random) -> R2CConfig:
    choice = rng.randrange(4)
    if choice == 0:
        return R2CConfig.baseline()
    if choice == 1:
        return R2CConfig.full(
            seed=rng.randrange(1000), btra_mode=rng.choice(("avx", "push"))
        )
    return R2CConfig(
        seed=rng.randrange(1000),
        opt_level=rng.randrange(2),
        enable_btra=rng.random() < 0.6,
        btra_mode=rng.choice(("avx", "push")),
        enable_btdp=rng.random() < 0.5,
        enable_nop_insertion=rng.random() < 0.5,
        enable_prolog_traps=rng.random() < 0.3,
        enable_stack_slot_shuffle=rng.random() < 0.5,
        enable_regalloc_shuffle=rng.random() < 0.5,
        enable_function_shuffle=rng.random() < 0.5,
        enable_global_shuffle=rng.random() < 0.5,
    )


def _ir_expr(rng: random.Random, fn, atoms: List[str], depth: int = 0) -> str:
    """A small random arithmetic expression over ``atoms``."""
    if depth >= 3 or rng.random() < 0.35:
        if atoms and rng.random() < 0.7:
            return rng.choice(atoms)
        return fn.const(rng.randrange(1 << 12))
    a = _ir_expr(rng, fn, atoms, depth + 1)
    b = _ir_expr(rng, fn, atoms, depth + 1)
    op = rng.choice(("add", "sub", "mul", "band", "bor", "bxor"))
    return getattr(fn, op)(a, b)


def ir_module(seed: int, indexed: bool = False):
    """The seeded IR module for ``seed``: leaves (direct and indirect
    call targets), globals, counted loops, diamonds, output.  With
    ``indexed``, the first construct is a loop, and every loop body
    reads and writes a 4-word global at variable (masked) indices."""
    rng = random.Random(seed)
    ir = IRBuilder(f"fuzz{seed}")
    nglobals = rng.randrange(0, 3)
    for k in range(nglobals):
        init = tuple(rng.randrange(100) for _ in range(rng.randrange(1, 4)))
        ir.global_var(f"g{k}", size_words=len(init), init=init)
    globals_ = [f"g{k}" for k in range(nglobals)]
    if indexed:
        ir.global_var("gx", size_words=4, init=tuple(rng.randrange(100) for _ in range(4)))

    leaves = []
    for k in range(rng.randrange(1, 4)):
        name = f"leaf{k}"
        fn = ir.function(name, params=["a", "b"])
        fn.ret(_ir_expr(rng, fn, [fn.param("a"), fn.param("b")]))
        leaves.append(name)

    main = ir.function("main")
    main.local("acc")
    main.store_local("acc", rng.randrange(100))
    label = 0

    def fresh() -> str:
        nonlocal label
        label += 1
        return f"b{label}"

    for k in range(rng.randrange(2, 6)):
        choice = 0.0 if indexed and k == 0 else rng.random()
        acc = main.load_local("acc")
        if choice < 0.30:
            # A counted loop whose body folds a leaf call or arithmetic
            # into the accumulator — hot enough for tier 3 to trace the
            # arithmetic ones (a call ends every trace recording).
            ivar = f"i{label}"
            main.local(ivar)
            main.store_local(ivar, 0)
            loop, body, done = fresh(), fresh(), fresh()
            trip = rng.randrange(3, 31)
            main.br(loop)
            main.new_block(loop)
            cond = main.cmp("lt", main.load_local(ivar), trip)
            main.cbr(cond, body, done)
            main.new_block(body)
            i = main.load_local(ivar)
            if rng.random() < 0.5:
                value = main.call(rng.choice(leaves), [main.load_local("acc"), i])
            else:
                value = _ir_expr(rng, main, [main.load_local("acc"), i])
            main.store_local("acc", value)
            if indexed:
                slot = main.band(main.load_local(ivar), 3)
                value = main.add(main.load_local("acc"), main.load_global("gx", slot))
                main.store_local("acc", value)
                main.store_global("gx", value, main.band(value, 3))
            main.store_local(ivar, main.add(main.load_local(ivar), 1))
            main.br(loop)
            main.new_block(done)
        elif choice < 0.50:
            then, other, join = fresh(), fresh(), fresh()
            pred = rng.choice(("lt", "le", "gt", "ge", "eq", "ne"))
            cond = main.cmp(pred, acc, rng.randrange(1 << 8))
            main.cbr(cond, then, other)
            main.new_block(then)
            main.store_local("acc", _ir_expr(rng, main, [main.load_local("acc")]))
            main.br(join)
            main.new_block(other)
            main.store_local("acc", main.bxor(main.load_local("acc"), 0x5A5A))
            main.br(join)
            main.new_block(join)
        elif choice < 0.65:
            leaf = rng.choice(leaves)
            if rng.random() < 0.5:
                value = main.call(leaf, [acc, rng.randrange(1 << 8)])
            else:
                value = main.icall(main.func_addr(leaf), [acc, rng.randrange(1 << 8)])
            main.store_local("acc", value)
        elif choice < 0.85 and globals_:
            name = rng.choice(globals_)
            main.store_local("acc", main.add(acc, main.load_global(name)))
            if rng.random() < 0.5:
                main.store_global(name, main.load_local("acc"))
        else:
            main.store_local("acc", _ir_expr(rng, main, [acc]))
    main.out(main.load_local("acc"))
    main.ret(0)
    return ir.finish()


def check_ir_seed(seed: int, indexed: bool = False) -> None:
    rng = random.Random(~seed)
    config = random_config(rng)
    module = ir_module(seed, indexed)
    binary = compile_module(module, config)
    load_seed = rng.randrange(1, 100)

    def make():
        process = load_binary(binary, seed=load_seed)
        process.register_service("attack_hook", lambda proc, cpu: 0)
        return process

    try:
        # Plain first — the drive the jit compiles (tier 3 included) —
        # then the observed leg, where jit runs on fast: tag-attribution
        # parity of fast against reference.
        outcome = differential(make, instruction_budget=BUDGET)
        assert outcome["error"] is None, outcome["error"]
        # The oracle: the IR interpreter's exit code and output.
        assert (outcome["exit_code"], outcome["result"]["output"]) == interpret_module(module)
        differential(
            make,
            instruction_budget=BUDGET,
            attribute_tags=True,
        )
    except AssertionError:
        path = _dump_repro("ir", seed, indexed=indexed)
        raise AssertionError(f"ir seed {seed} diverged; repro at {path}")


def check_lockstep_seed(seed: int) -> None:
    """The IR module for ``seed``, compiled and loaded as
    :func:`check_ir_seed` does, plus two ``Process.clone()`` replicas, as
    one lockstep group on every backend, synced every ``n`` instructions
    for an ``n`` drawn from ``_slices(seed)``.  The replicas share binary
    and layout, so the backend clones the leader's prepared program and
    the group compares registers at every sync point."""
    rng = random.Random(~seed)
    config = random_config(rng)
    module = ir_module(seed)
    binary = compile_module(module, config)
    load_seed = rng.randrange(1, 100)
    sync_every = next(_slices(seed))
    expected = interpret_module(module)
    for backend in BACKENDS:
        process = load_binary(binary, seed=load_seed)
        process.register_service("attack_hook", lambda proc, cpu: 0)
        group = LockstepGroup(
            [process, process.clone(), process.clone()],
            backend=backend,
            sync_every=sync_every,
            instruction_budget=BUDGET,
        )
        assert group.compare_state, backend
        result = group.run()
        assert result.outcome is MveeOutcome.CLEAN, (backend, sync_every, result.divergence)
        for variant in result.variants:
            observed = (variant.process.exit_code, variant.output)
            assert observed == expected, (backend, sync_every, variant.index)


def check_rerandomized_seed(seed: int) -> None:
    """The IR module for ``seed``, compiled as :func:`check_ir_seed` does,
    loaded twice in one process — under its load seed and under the next
    load seed whose text slide differs, as a re-randomizing restart
    would.  Every backend runs the first load whole and the second
    through ``step()`` slices from ``_slices(seed)``; both observations
    must equal ``reference``'s, and both outputs the IR interpreter's."""
    rng = random.Random(~seed)
    config = random_config(rng)
    module = ir_module(seed)
    binary = compile_module(module, config)
    first = rng.randrange(1, 100)

    def make(load_seed):
        process = load_binary(binary, seed=load_seed)
        process.register_service("attack_hook", lambda proc, cpu: 0)
        return process

    second = first + 1
    while make(second).text_base == make(first).text_base:
        second += 1
    try:
        observed = {
            backend: (
                run_one_backend(lambda: make(first), backend, instruction_budget=BUDGET),
                run_one_backend(
                    lambda: make(second), backend, slices=_slices(seed),
                    instruction_budget=BUDGET,
                ),
            )
            for backend in BACKENDS
        }
        for backend, outcome in observed.items():
            assert outcome == observed["reference"], (
                f"backend {backend!r} diverged from reference across layouts"
            )
        expected = interpret_module(module)
        for outcome in observed["reference"]:
            assert outcome["error"] is None, outcome["error"]
            assert (outcome["exit_code"], outcome["result"]["output"]) == expected
    except AssertionError:
        path = _dump_repro("rerandomized", seed)
        raise AssertionError(f"rerandomized seed {seed} diverged; repro at {path}")


def check_fork_server_seed(seed: int) -> None:
    """The IR module for ``seed``, compiled and loaded as
    :func:`check_ir_seed` does, as a fork server's image that never runs.
    Every backend runs three clones of that one image back to back: the
    first whole, the second through ``step()`` slices from
    ``_slices(seed)``, the third whole.  Each clone's observation,
    ``max_rss`` included, must equal ``reference``'s clone in the same
    position, and its output the IR interpreter's."""
    rng = random.Random(~seed)
    config = random_config(rng)
    module = ir_module(seed)
    binary = compile_module(module, config)
    image = load_binary(binary, seed=rng.randrange(1, 100))
    image.register_service("attack_hook", lambda proc, cpu: 0)

    def run_clone(backend, slices):
        process = image.clone()
        outcome = run_one_backend(
            lambda: process, backend, slices=slices, instruction_budget=BUDGET
        )
        process.note_resident()
        outcome["max_rss"] = process.max_rss
        return outcome

    try:
        observed = {
            backend: [
                run_clone(backend, None),
                run_clone(backend, _slices(seed)),
                run_clone(backend, None),
            ]
            for backend in BACKENDS
        }
        for backend, outcomes in observed.items():
            assert outcomes == observed["reference"], (
                f"backend {backend!r} diverged from reference across clones"
            )
        expected = interpret_module(module)
        for outcome in observed["reference"]:
            assert outcome["error"] is None, outcome["error"]
            assert (outcome["exit_code"], outcome["result"]["output"]) == expected
    except AssertionError:
        path = _dump_repro("fork-server", seed)
        raise AssertionError(f"fork-server seed {seed} diverged; repro at {path}")


def check_count_promotion_seed(seed: int) -> None:
    """The machine program for ``seed`` through ``step()`` slices (and
    whole) and the IR module's lockstep group, as
    :func:`check_machine_spec` and :func:`check_lockstep_seed` run them,
    with the jit's reuse window below any distance and no cached unit to
    link: every head the jit compiles waits for its ``_PROMOTE_COUNT``-th
    entry.  Every observation must still equal ``reference``'s, and every
    replica's output the IR interpreter's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jit_module, "_REUSE_WINDOW", -(1 << 64))
        jit_module.clear_jit_cache()
        try:
            check_machine_spec(machine_spec(seed), BUDGET, seed)
            check_lockstep_seed(seed)
        except AssertionError:
            path = _dump_repro("count-promotion", seed)
            raise AssertionError(f"count-promotion seed {seed} diverged; repro at {path}")


# ---------------------------------------------------------------------------
# The committed regression corpus: pinned seeds, always run.
# ---------------------------------------------------------------------------


def _corpus_entries():
    if not CORPUS.is_dir():
        return []
    return sorted(CORPUS.glob("*.json"), key=lambda p: p.name)


@pytest.mark.parametrize(
    "path", _corpus_entries(), ids=lambda p: p.stem
)
def test_corpus_replay(path):
    entry = json.loads(path.read_text())
    indexed = entry.get("indexed", False)
    if entry["kind"] == "machine":
        check_machine_seed(entry["seed"], entry.get("budget", BUDGET), indexed)
    elif entry["kind"] == "rerandomized":
        check_rerandomized_seed(entry["seed"])
    elif entry["kind"] == "fork-server":
        check_fork_server_seed(entry["seed"])
    elif entry["kind"] == "count-promotion":
        check_count_promotion_seed(entry["seed"])
    elif entry["kind"] == "frames":
        check_frames_seed(entry["seed"], entry.get("budget", BUDGET))
    else:
        check_ir_seed(entry["seed"], indexed)


def test_corpus_is_not_empty():
    assert len(_corpus_entries()) >= 8


# ---------------------------------------------------------------------------
# The bulk seeded sweep (REPRO_FUZZ_CASES scales it; CI runs 500).
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(FUZZ_CASES))
def test_fuzz_machine_seeded(seed):
    check_machine_seed(seed)


@pytest.mark.parametrize("seed", range(max(6, FUZZ_CASES // 4)))
def test_fuzz_ir_seeded(seed):
    check_ir_seed(seed)


@pytest.mark.parametrize("seed", range(max(6, FUZZ_CASES // 4)))
def test_fuzz_indexed_machine_seeded(seed):
    check_machine_seed(seed, indexed=True)


@pytest.mark.parametrize("seed", range(max(3, FUZZ_CASES // 16)))
def test_fuzz_indexed_ir_seeded(seed):
    check_ir_seed(seed, indexed=True)


@pytest.mark.parametrize("seed", range(max(6, FUZZ_CASES // 4)))
def test_fuzz_frames_seeded(seed):
    check_frames_seed(seed)


@pytest.mark.parametrize("seed", range(max(6, FUZZ_CASES // 4)))
def test_fuzz_lockstep_seeded(seed):
    check_lockstep_seed(seed)


@pytest.mark.parametrize("seed", range(max(6, FUZZ_CASES // 4)))
def test_fuzz_rerandomized_seeded(seed):
    check_rerandomized_seed(seed)


@pytest.mark.parametrize("seed", range(max(6, FUZZ_CASES // 4)))
def test_fuzz_fork_server_seeded(seed):
    check_fork_server_seed(seed)


@pytest.mark.parametrize("seed", range(max(6, FUZZ_CASES // 4)))
def test_fuzz_count_promotion_seeded(seed):
    check_count_promotion_seed(seed)


# ---------------------------------------------------------------------------
# Hypothesis exploration: derandomized so CI is reproducible, no local
# example database, seeds shrink toward small values on failure.
# ---------------------------------------------------------------------------


@settings(
    max_examples=int(os.environ.get("REPRO_FUZZ_HYP", "15")),
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), machine=st.booleans())
def test_fuzz_hypothesis_explore(seed, machine):
    if machine:
        check_machine_seed(seed)
    else:
        check_ir_seed(seed)
