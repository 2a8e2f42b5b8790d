"""Ablation benches for the design choices DESIGN.md section 5 calls out.

Each ablation builds the deliberately weakened variant of an R2C design
decision and demonstrates the concrete attack the real design prevents —
turning the paper's design arguments (Sections 4.1, 5.1, 5.2, 7.3) into
executable evidence.
"""

from repro.attacks import AttackOutcome, VictimSession, aocr_attack
from repro.core.config import R2CConfig
from repro.eval.engine import RunRequest, get_session_engine
from repro.eval.introspect import HookProbe, observe_call_races
from repro.rng import DiversityRng
from repro.workloads.spec import build_spec_benchmark

from benchmarks.conftest import save_artifact

PUSH_FULL = R2CConfig.full(seed=33, btra_mode="push")


# ---------------------------------------------------------------------------
# Ablation 1 — BTRA set stability (property B, Section 4.1).
# ---------------------------------------------------------------------------

def test_dynamic_btras_leak_the_ra_in_two_observations(run_once):
    """The paper: "just two observations suffice to identify the return
    address, as it is the only pointer remaining identical."  Model-level
    comparison of stable vs. per-invocation re-randomized BTRA sets."""

    def experiment():
        rng = DiversityRng(5).child("ablation-b")
        trials = 200
        r = 10
        dynamic_identified = 0
        stable_identified = 0
        for _ in range(trials):
            ra = rng.randint(1, 2**48)
            stable_decoys = {rng.randint(1, 2**48) for _ in range(r)}
            # Stable sets (R2C): two observations are identical.
            obs1 = stable_decoys | {ra}
            obs2 = set(obs1)
            if len(obs1 & obs2) == 1:
                stable_identified += 1
            # Dynamic sets (weakened): decoys redrawn per invocation.
            obs1 = {rng.randint(1, 2**48) for _ in range(r)} | {ra}
            obs2 = {rng.randint(1, 2**48) for _ in range(r)} | {ra}
            common = obs1 & obs2
            if common == {ra}:
                dynamic_identified += 1
        return stable_identified, dynamic_identified, trials

    stable, dynamic, trials = run_once(experiment)
    save_artifact(
        "ablation_dynamic_btras",
        "Two-observation intersection attack\n"
        f"  stable BTRA sets (R2C): RA isolated in {stable}/{trials} trials\n"
        f"  dynamic BTRA sets (weakened): RA isolated in {dynamic}/{trials} trials",
    )
    assert stable == 0
    assert dynamic >= trials * 0.95


# ---------------------------------------------------------------------------
# Ablation 2 — call-site vs. callee BTRA insertion (property C).
# ---------------------------------------------------------------------------

def test_callee_side_btras_fall_to_the_differencing_attack(run_once):
    """With per-callee BTRA sets, two call sites to the same callee differ
    only in their return addresses: the symmetric difference of two leaks
    is exactly the two RAs."""

    def experiment():
        weak = HookProbe(PUSH_FULL.replace(unsafe_callee_btras=True)).run()
        safe = HookProbe(PUSH_FULL).run()

        def diff(probe):
            site_a = set(probe.snapshots[0].pre) | {probe.snapshots[0].ra}
            site_b = set(probe.snapshots[3].pre) | {probe.snapshots[3].ra}
            return site_a ^ site_b, {probe.snapshots[0].ra, probe.snapshots[3].ra}

        return diff(weak), diff(safe)

    (weak_diff, weak_ras), (safe_diff, safe_ras) = run_once(experiment)
    save_artifact(
        "ablation_callee_btras",
        "Differencing attack across two call sites to one callee\n"
        f"  callee-side sets (weakened): symmetric difference has "
        f"{len(weak_diff)} entries -> exactly the two RAs: {weak_diff == weak_ras}\n"
        f"  call-site sets (R2C): symmetric difference has {len(safe_diff)} entries",
    )
    assert weak_diff == weak_ras  # the attack isolates both RAs
    assert len(safe_diff) > 2  # R2C buries them among differing BTRAs


# ---------------------------------------------------------------------------
# Ablation 3 — naive vs. hardened BTDP array placement (Figure 5).
# ---------------------------------------------------------------------------

def test_naive_btdp_array_lets_attackers_dodge_detection(run_once):
    """An AOCR attacker who can read the data section filters out every
    pointer that appears there.  Against the naive layout that removes all
    BTDPs; against the hardened layout it removes only decoys."""

    def experiment():
        naive = VictimSession(R2CConfig.full(seed=44).replace(btdp_hardened=False))
        hardened = VictimSession(R2CConfig.full(seed=44))
        out = {}
        for label, session, symbol in (
            ("naive", naive, "__btdp_array"),
            ("hardened", hardened, "__btdp_arr_ptr"),
        ):
            process, _ = session.spawn()
            info = process.r2c_runtime
            stack_btdps = set(info["btdp_values"])
            if label == "naive":
                base = process.symbols[symbol]
                visible = {
                    process.memory.read_word(base + 8 * i)
                    for i in range(session.config.btdp_array_len)
                }
            else:
                visible = set(info["decoy_values"])
            out[label] = len(stack_btdps - visible) / len(stack_btdps)
        return out

    surviving = run_once(experiment)
    save_artifact(
        "ablation_naive_btdp",
        "Fraction of stack BTDPs surviving a data-section filter\n"
        f"  naive array in .data: {surviving['naive']:.2f} (attacker dodges all traps)\n"
        f"  hardened (Figure 5):  {surviving['hardened']:.2f}",
    )
    assert surviving["naive"] == 0.0
    assert surviving["hardened"] == 1.0


# ---------------------------------------------------------------------------
# Ablation 4 — atomic vs. racy BTRA setup (Section 5.1).
# ---------------------------------------------------------------------------

def test_racy_setup_reopens_the_call_race_window(run_once):
    """Observing the stack immediately before and after the call: the
    atomic sequence shows zero changed words (the RA was pre-written);
    the racy variant exposes exactly the freshly-written RA slot."""

    def experiment():
        safe = observe_call_races(PUSH_FULL)
        racy = observe_call_races(PUSH_FULL.replace(unsafe_racy_btras=True))
        safe_changed = max((len(o["changed_slots"]) for o in safe), default=-1)
        racy_changed = [len(o["changed_slots"]) for o in racy]
        return safe_changed, racy_changed, len(safe)

    safe_changed, racy_changed, observed = run_once(experiment)
    save_artifact(
        "ablation_racy_btras",
        "Stack words changed across the call instruction "
        f"({observed} BTRA calls observed)\n"
        f"  atomic setup (R2C): max {safe_changed} changed words\n"
        f"  racy setup (weakened): {racy_changed} "
        "(the freshly-written RA slot; repeat invocations of a site show 0\n"
        "   because the stale RA from the previous call already matches)",
    )
    assert observed > 0
    assert safe_changed == 0
    # The first call through each racy site exposes exactly one changed
    # word — the return-address slot — and never more than one.
    assert racy_changed and racy_changed.count(1) >= 1
    assert all(n <= 1 for n in racy_changed)


# ---------------------------------------------------------------------------
# Ablation 5 — guard pages vs. plain pages for BTDPs (Section 4.2).
# ---------------------------------------------------------------------------

def test_unguarded_btdps_lose_reactivity(run_once):
    """Without permission revocation a BTDP dereference is silent: AOCR's
    heap walk proceeds undetected."""

    def experiment():
        tallies = {"guarded": 0, "unguarded": 0}
        trials = 8
        for trial in range(trials):
            guarded = VictimSession(R2CConfig.full(seed=800 + trial))
            if aocr_attack(guarded, attacker_seed=trial).outcome is AttackOutcome.DETECTED:
                tallies["guarded"] += 1
            unguarded = VictimSession(
                R2CConfig.full(seed=800 + trial).replace(unsafe_btdp_no_guard=True)
            )
            if aocr_attack(unguarded, attacker_seed=trial).outcome is AttackOutcome.DETECTED:
                tallies["unguarded"] += 1
        return tallies, trials

    tallies, trials = run_once(experiment)
    save_artifact(
        "ablation_btdp_guard",
        "AOCR campaigns detected by BTDPs\n"
        f"  guard pages (R2C): {tallies['guarded']}/{trials}\n"
        f"  plain pages (weakened): {tallies['unguarded']}/{trials}",
    )
    assert tallies["guarded"] >= trials // 2
    assert tallies["unguarded"] == 0


# ---------------------------------------------------------------------------
# Ablation 6 — cost of the Section 7.3 BTRA integrity check.
# ---------------------------------------------------------------------------

def test_integrity_check_cost_is_modest(run_once):
    """The proposed hardening ("checking a random subset of BTRAs for
    consistency after the return") adds a bounded extra cost on top of
    full R2C."""

    def experiment():
        module = build_spec_benchmark("omnetpp")
        configs = (
            R2CConfig.baseline(),
            PUSH_FULL,
            PUSH_FULL.replace(btra_integrity_check=True),
        )
        records = get_session_engine().submit(
            [RunRequest(module=module, config=config.replace(seed=1)) for config in configs]
        )
        return [record.cycles for record in records]

    base, full, checked = run_once(experiment)
    save_artifact(
        "ablation_integrity_check",
        "BTRA consistency check cost (omnetpp, push mode)\n"
        f"  full R2C:            {100 * (full / base - 1):.1f}% over baseline\n"
        f"  + integrity check:   {100 * (checked / base - 1):.1f}% over baseline",
    )
    assert checked >= full  # the check is not free...
    assert checked / full < 1.10  # ...but costs under 10% extra
