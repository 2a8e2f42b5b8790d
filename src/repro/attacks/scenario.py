"""Victim sessions and the attack execution harness.

A :class:`VictimSession` wraps one deployed victim: a binary compiled under
the defense configuration being evaluated, plus the attacker's *reference*
build of the same source (their own copy of the software).  A session is
a fork server, the worker-restart behaviour Blind ROP exploits ("some
servers restart crashed worker processes without reloading their binary
code images", Section 4): each variant binary has one loaded image that
never runs, and every ``spawn`` forks a worker from it with
:meth:`~repro.machine.process.Process.clone`, so every worker sees the same
layout and no probe's writes reach the next.  Only a session that
re-randomizes on restart (Section 7.3) loads afresh on every spawn.

A binary is a pure function of its (module fingerprint, config digest)
key, so a session takes each binary it needs from the session before it
when that one built it: Table 3's attacks on one deployed victim compile
it once.  An image is likewise a pure function of its binary, load seed
and ``execute_only``, and it never runs, so a session takes each image
it needs from the last session that spawned when that one loaded it
under the same key: a Table 3 trial's attacks share one load, and every
worker of theirs clones it.

:func:`run_attack` executes a single-shot attack: it arms the victim's
``attack_hook`` vulnerability with the attack function, runs the victim,
and classifies the outcome.  Multi-probe attacks (Blind ROP, PIROP) drive
:meth:`VictimSession.probe` in their own loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.attacks.monitor import DefenseMonitor
from repro.attacks.outcomes import AttackOutcome, AttackResult
from repro.attacks.surface import AttackerView, ReferenceKnowledge
from repro.core.compiler import compile_module
from repro.core.config import R2CConfig
from repro.errors import MachineError
from repro.machine.backends import DEFAULT_BACKEND, run
from repro.machine.costs import get_costs
from repro.machine.loader import load_binary
from repro.machine.process import Process
from repro.machine.state import ExecutionResult, MachineState
from repro.rng import DiversityRng
from repro.toolchain.binary import Binary
from repro.toolchain.ir import Module
from repro.workloads.victim import (
    ATTACK_ARG,
    SUCCESS_TAG,
    VictimLayoutInfo,
    build_victim,
    fire_once,
)

if TYPE_CHECKING:
    from repro.defenses.lockstep import LockstepResult

AttackFn = Callable[[AttackerView], None]


class AttackAborted(Exception):
    """Raised by attack code to give up cleanly (no leak, no consensus).

    The victim keeps running normally; the outcome becomes FAILED unless
    the corruption already performed reaches the goal anyway.
    """


def output_success(output, *, require_arg: bool = False) -> bool:
    """Did target_exec run under attacker control?"""
    for word in output:
        if word & 0xFFFF_0000 == SUCCESS_TAG:
            if not require_arg or word == (SUCCESS_TAG | ATTACK_ARG):
                return True
    return False


class _RecordingView(AttackerView):
    """AttackerView that logs every write for replay in the followers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.write_log: List[Tuple[int, bytes]] = []

    def write_word(self, address: int, value: int) -> None:
        data = (value & (2**64 - 1)).to_bytes(8, "little")
        self.write_log.append((address, data))
        super().write_word(address, value)

    def write_low_bytes(self, address: int, value: int, nbytes: int) -> None:
        data = (value & ((1 << (8 * nbytes)) - 1)).to_bytes(nbytes, "little")
        self.write_log.append((address, data))
        super().write_low_bytes(address, value, nbytes)


def arm_write_replay(
    processes: Sequence,
    reference: ReferenceKnowledge,
    hook: Optional[AttackFn],
    *,
    attacker_seed: int = 0,
) -> Callable[[object], bool]:
    """Wire N-variant input replication (Section 7.3) into the
    ``attack_hook`` services of ``processes``.

    The leader (``processes[0]``) runs ``hook``, if any, against an
    :class:`AttackerView` that records every write.  Each follower
    replays the recorded bytes at the same addresses when its own hook
    fires.  Returns the predicate "the leader's hook has fired", for
    :meth:`~repro.defenses.lockstep.LockstepGroup.run_variant_until`.
    """
    write_log: List[Tuple[int, bytes]] = []
    fired = [False]

    def leader(proc, running_cpu):
        if hook is not None:
            view = _RecordingView(
                proc,
                running_cpu,
                reference,
                rng=DiversityRng(attacker_seed).child("attacker"),
            )
            try:
                hook(view)
            except AttackAborted:
                pass
            write_log.extend(view.write_log)
        fired[0] = True

    def follower(proc, running_cpu):
        for address, data in write_log:
            try:
                proc.memory.write(address, data)
            except MachineError:
                pass  # landed in an unmapped/protected spot here

    processes[0].register_service("attack_hook", fire_once(leader))
    for process in processes[1:]:
        process.register_service("attack_hook", fire_once(follower))
    return lambda variant: fired[0]


@dataclass
class ProbeResult:
    """Everything one probe produced, for callers that need more than the
    (status, result) pair — the reactive supervisor builds crash reports
    from the exception and the post-mortem machine/process state."""

    # "success" | "clean" | "detected" | "crashed" | "diverged" |
    # "timed-out" (supervised probes under a per-probe deadline)
    status: str
    result: Optional[ExecutionResult]
    #: The fault that stopped the (leader) process, without its traceback.
    exception: Optional[MachineError]
    #: The (leader) machine state post-mortem: the only state of a
    #: single-variant probe, the leader's for an N-variant lockstep probe.
    cpu: object
    process: object
    #: True when a per-probe deadline classified this probe as a hang
    #: (:class:`~repro.reliability.supervisor.SupervisedSession` sets it;
    #: plain sessions never do).
    timed_out: bool = False
    #: The group's cross-check result for N-variant probes (None for a
    #: one-variant probe); its ``outcome`` is the verdict ``status`` is
    #: derived from.
    lockstep: Optional[LockstepResult] = None


#: The previous session's builds, keyed by (module fingerprint, config
#: digest), the engine's compile-cache key.  Each session replaces it with
#: its own builds, so it holds at most one session's binaries.
_previous_builds: Dict[Tuple[str, str], Binary] = {}


def _build(
    module: Module, configs: Sequence[R2CConfig]
) -> Tuple[List[Tuple[str, str]], List[Binary]]:
    """The build key of ``module`` under each of ``configs``, and the
    binary: the previous session's where it has one for the key, a fresh
    compile otherwise.  These builds then replace the memo."""
    global _previous_builds
    fingerprint = module.fingerprint()
    keys = [(fingerprint, config.digest()) for config in configs]
    builds: Dict[Tuple[str, str], Binary] = {}
    for key, config in zip(keys, configs):
        if key not in builds:
            binary = _previous_builds.get(key)
            builds[key] = binary if binary is not None else compile_module(module, config)
    _previous_builds = builds
    return keys, [builds[key] for key in keys]


#: The loaded images of the last session that spawned from images, keyed
#: by (build key, load seed, ``execute_only``).  Each such session
#: replaces it with its own, so it holds at most one session's images.
_previous_images: Dict[Tuple[Tuple[str, str], int, bool], Process] = {}


def _load_images(
    build_keys: Sequence[Tuple[str, str]],
    binaries: Sequence[Binary],
    seed: int,
    execute_only: bool,
) -> List[Process]:
    """Each binary loaded under ``seed``: the previous session's image
    where it has one for the key, a fresh load otherwise.  These images
    then replace the memo.  Sharing is safe because an image never runs
    and nothing changes it: every worker is a clone."""
    global _previous_images
    keys = [(key, seed, execute_only) for key in build_keys]
    images: Dict[Tuple[Tuple[str, str], int, bool], Process] = {}
    for key, binary in zip(keys, binaries):
        if key not in images:
            image = _previous_images.get(key)
            if image is None:
                image = load_binary(binary, seed=seed, execute_only=execute_only)
            images[key] = image
    _previous_images = images
    return [images[key] for key in keys]


#: The victim module of every session given none, built on first use.
#: Sharing it is safe: ``_build`` only reads a module, ``compile_module``
#: works on a deep copy, and ``Module.fingerprint()`` memoizes on the
#: instance, so later sessions skip both the build and the hash.
_default_victim: Optional[Module] = None


def _victim_module() -> Module:
    global _default_victim
    if _default_victim is None:
        _default_victim = build_victim()
    return _default_victim


class VictimSession:
    """One deployed victim + the attacker's reference knowledge."""

    def __init__(
        self,
        config: R2CConfig,
        *,
        module: Optional[Module] = None,
        build_seed: Optional[int] = None,
        load_seed: int = 0xC0FFEE,
        execute_only: bool = True,
        detection_budget: int = 3,
        layout_info: Optional[VictimLayoutInfo] = None,
        rerandomize_on_restart: bool = False,
        shadow_stack: bool = False,
        backend: str = DEFAULT_BACKEND,
        variants: int = 1,
        sync_every: int = 256,
        instruction_budget: int = 5_000_000,
    ):
        if build_seed is not None:
            config = config.replace(seed=build_seed)
        self.config = config
        self.module = module if module is not None else _victim_module()
        self.layout = layout_info if layout_info is not None else VictimLayoutInfo()
        self.load_seed = load_seed
        self.execute_only = execute_only
        # Section 7.3's proposed mitigation for the residual brute-force
        # surface: re-randomize at (re)load time, so no two probes see the
        # same layout.
        self.rerandomize_on_restart = rerandomize_on_restart
        self.shadow_stack = shadow_stack
        self.backend = backend
        if variants < 1:
            raise ValueError("a session needs at least one variant")
        #: N-variant mode (Section 7.3): every probe deploys ``variants``
        #: differently-diversified builds in batched lockstep and adds
        #: "diverged" to the probe statuses.
        self.variants = variants
        self.sync_every = sync_every
        #: Per-probe instruction ceiling — the supervised session tightens
        #: it into a virtual-clock probe deadline.
        self.instruction_budget = instruction_budget
        self._spawn_count = 0
        #: The fork server's loaded images, one per variant binary, taken
        #: or loaded on first spawn; never run, only cloned.
        self._images: List[Process] = []
        # Follower builds roll different diversification dice (seeds
        # spaced 1000 apart), leaving the leader binary — and therefore
        # every single-variant code path — bit-identical to before.
        follower_configs = [
            config.replace(seed=config.seed + 1000 * index) for index in range(1, variants)
        ]
        # The attacker's own copy: identical software, independently built.
        # Without diversification the builds are bit-identical (the
        # monoculture), so it is the victim's build; with diversification
        # the attacker's copy rolled different dice.
        reference_config = (
            config.replace(seed=config.seed + 0x5EED) if config.any_diversification else config
        )
        keys, builds = _build(self.module, [config, *follower_configs, reference_config])
        self.binary = builds[0]
        self.variant_binaries = builds[:variants]
        self._build_keys = keys[:variants]
        self.reference = ReferenceKnowledge(builds[-1])
        self.monitor = DefenseMonitor(detection_budget=detection_budget)

    # -- process management ------------------------------------------------------

    def _spawn_processes(self, count: int) -> List[Process]:
        """One worker process for each of the first ``count`` variant
        binaries, all under this spawn's layout seed."""
        spawn_index = self._spawn_count
        self._spawn_count += 1
        if self.rerandomize_on_restart:
            seed = self.load_seed + spawn_index
            return [
                load_binary(binary, seed=seed, execute_only=self.execute_only)
                for binary in self.variant_binaries[:count]
            ]
        if len(self._images) < count:
            self._images = _load_images(
                self._build_keys[:count],
                self.variant_binaries[:count],
                self.load_seed,
                self.execute_only,
            )
        return [image.clone() for image in self._images[:count]]

    def spawn(self) -> Tuple[Process, MachineState]:
        """Start a worker.

        Default: a fork of the deployment's loaded image — same code,
        same ASLR, fresh memory — like a fork server restarting a crashed
        worker "without reloading their binary code images" (Section 4).
        With ``rerandomize_on_restart`` every spawn loads the binary under
        a new layout (the Section 7.3 mitigation), which breaks
        cross-probe inference.
        """
        process = self._spawn_processes(1)[0]
        state = MachineState(
            process,
            get_costs("epyc-rome"),
            instruction_budget=self.instruction_budget,
            shadow_stack=self.shadow_stack,
        )
        return process, state

    def probe(
        self, hook: AttackFn, *, attacker_seed: int = 0
    ) -> Tuple[str, Optional[ExecutionResult]]:
        """One attack probe: spawn, arm the hook, run to completion.

        Returns (status, result): status is "success", "clean" (ran to
        exit without reaching the goal), "detected", or "crashed".
        """
        probe = self.probe_ex(hook, attacker_seed=attacker_seed)
        return probe.status, probe.result

    def probe_ex(self, hook: Optional[AttackFn], *, attacker_seed: int = 0) -> ProbeResult:
        """Like :meth:`probe`, returning the full :class:`ProbeResult`
        (exception + post-mortem state/process for crash triage).  An
        N-variant session also takes ``hook=None``: a benign run."""
        if self.variants > 1:
            return self._probe_lockstep(hook, attacker_seed=attacker_seed)
        process, state = self.spawn()

        def service(proc, running_cpu):
            view = AttackerView(
                proc,
                running_cpu,
                self.reference,
                rng=DiversityRng(attacker_seed).child("attacker"),
            )
            try:
                hook(view)
            except AttackAborted:
                pass  # the attacker gave up; the victim continues untouched

        process.register_service("attack_hook", fire_once(service))
        try:
            result = run(state, self.backend)
        except MachineError as exc:
            # Drop the traceback: its frames reach (through ``f_back``) the
            # caller's frame, which holds the returned ProbeResult, so this
            # probe's process and every page would sit in a reference
            # cycle until a gc pass.  No reader of a ProbeResult needs it.
            exc.__traceback__ = None
            status = self.monitor.classify(exc)
            # Payload-then-crash still counts: the attacker's code ran.
            if output_success(process.output):
                status = "success"
            return ProbeResult(status, None, exc, state, process)
        status = "success" if output_success(result.output) else "clean"
        return ProbeResult(status, result, None, state, process)

    def _probe_lockstep(
        self, hook: Optional[AttackFn], *, attacker_seed: int = 0
    ) -> ProbeResult:
        """N-variant probe (Section 7.3's R2C + MVEE combination): deploy
        every variant binary under one layout seed, attack the leader
        (writes recorded), replay into followers, and step the group in
        batched lockstep.

        The group's :class:`~repro.defenses.lockstep.LockstepResult` is
        the verdict, plus the one outcome only an attack-aware caller can
        tell: COMPROMISED, when every variant reached the attacker's goal
        and none trapped.  The status is read off it; "diverged" (the
        cross-check caught the variants disagreeing) is a detection the
        Table 3 tallies and the reactive supervisor can act on.
        """
        # Imported here: defenses.lockstep imports the attacks package.
        from repro.defenses.lockstep import LockstepGroup, MveeOutcome

        processes = self._spawn_processes(self.variants)
        leader_fired = arm_write_replay(
            processes, self.reference, hook, attacker_seed=attacker_seed
        )
        group = LockstepGroup(
            processes,
            backend=self.backend,
            sync_every=self.sync_every,
            instruction_budget=self.instruction_budget,
            shadow_stack=self.shadow_stack,
            monitor=self.monitor,
        )
        # The leader runs alone until its hook has fired and the
        # attacker's writes are on record (or it stops first); then every
        # variant runs in lockstep, the followers replaying those writes.
        group.run_variant_until(0, leader_fired)
        lockstep = group.run()
        if lockstep.outcome is not MveeOutcome.TRAPPED and all(
            output_success(variant.output) for variant in lockstep.variants
        ):
            lockstep.outcome = MveeOutcome.COMPROMISED
            lockstep.notes.append("every variant reached the attacker goal identically")
        leader = lockstep.variants[0]
        status = {
            MveeOutcome.TRAPPED: "detected",
            MveeOutcome.COMPROMISED: "success",
            MveeOutcome.DIVERGED: "diverged",
        }.get(lockstep.outcome, "crashed" if leader.status == "crashed" else "clean")
        return ProbeResult(
            status,
            leader.result,
            leader.error,
            leader.state,
            leader.process,
            lockstep=lockstep,
        )


def run_attack(
    session: VictimSession,
    attack_fn: AttackFn,
    name: str,
    *,
    attacker_seed: int = 0,
) -> AttackResult:
    """Run a single-shot attack and classify its outcome."""
    result = AttackResult(attack=name, outcome=AttackOutcome.FAILED, probes=1)
    status, _ = session.probe(attack_fn, attacker_seed=attacker_seed)
    result.detections = session.monitor.detections
    result.crashes = session.monitor.crashes
    if status == "success":
        result.outcome = AttackOutcome.SUCCESS
    elif status == "detected":
        result.outcome = AttackOutcome.DETECTED
    elif status == "diverged":
        result.outcome = AttackOutcome.DIVERGED
    elif status == "crashed":
        result.outcome = AttackOutcome.CRASHED
    else:
        result.outcome = AttackOutcome.FAILED
    return result
