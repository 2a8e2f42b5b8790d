"""Tests for the attacker surface: capabilities and reference knowledge."""

from repro.attacks.scenario import VictimSession, output_success
from repro.attacks.surface import ReferenceKnowledge
from repro.core.config import R2CConfig
from repro.workloads.victim import ATTACK_ARG, SUCCESS_TAG, VictimLayoutInfo

WORD = 8
CHAIN = VictimLayoutInfo().hook_chain


def capture_view_data(config, collect):
    session = VictimSession(config)
    box = {}

    def hook(view):
        box.update(collect(view))

    status, _ = session.probe(hook)
    assert status == "clean"
    return session, box


def test_reference_geometry_matches_runtime_for_own_build():
    """The attacker's static analysis of their own binary must agree with
    that binary's actual runtime stack layout — otherwise our 'reference
    knowledge' would be fantasy.  Verified for baseline and full R2C."""
    for config in (R2CConfig.baseline(), R2CConfig.full(seed=3)):
        session = VictimSession(config)
        # Defender check: use the VICTIM binary as its own reference.
        reference = ReferenceKnowledge(session.binary)
        frames = reference.stack_map_from_hook(CHAIN)
        box = {}

        def hook(view):
            ras = []
            for frame in frames:
                ras.append(view.read_word(view.rsp + frame.ra_slot))
            box["ras"] = ras

        session.probe(hook)
        text_base = None
        process, _ = session.spawn()
        text_base = process.text_base
        # Each predicted RA slot must hold a pointer that resumes inside
        # the predicted caller function.
        for frame, ra in zip(frames[:-1], box["ras"][:-1]):
            caller_index = CHAIN.index(frame.function) + 1
            caller = CHAIN[caller_index]
            fn = session.binary.function_at_offset(ra - text_base)
            assert fn == caller, (config, frame.function)


def test_leak_stack_is_bounded_by_stack_extent():
    _, box = capture_view_data(
        R2CConfig.baseline(), lambda view: {"leak": view.leak_stack(10**9)}
    )
    assert box["leak"]  # got something, and no fault despite the huge ask


def test_leak_stack_values_match_memory():
    def collect(view):
        leak = view.leak_stack(64)
        direct = [(a, view.read_word(a)) for a, _ in leak]
        return {"leak": leak, "direct": direct}

    _, box = capture_view_data(R2CConfig.baseline(), collect)
    assert box["leak"] == box["direct"]


def test_view_cannot_read_execute_only_text():
    session = VictimSession(R2CConfig.full(seed=4), execute_only=True)

    def hook(view):
        code_addr = next(
            value for _, value in view.leak_stack() if value > 0
        )
        view.read_word(view.rsp)  # stack read is fine
        # Reading text faults (classified as a crash by the session).
        from repro.attacks.clustering import cluster_pointers

        clusters = cluster_pointers(view.leak_stack())
        view.read_word(clusters.image[0][1])

    status, _ = session.probe(hook)
    assert status == "crashed"


def test_write_low_bytes_partial_overwrite():
    def collect(view):
        addr = view.rsp
        view.write_word(addr, 0x1122_3344_5566_7788)
        view.write_low_bytes(addr, 0xAABB, 2)
        return {"value": view.read_word(addr)}

    _, box = capture_view_data(R2CConfig.baseline(), collect)
    assert box["value"] == 0x1122_3344_5566_AABB


def test_reference_knowledge_offsets():
    session = VictimSession(R2CConfig.baseline())
    ref = session.reference
    assert ref.has_global("handler_ptr")
    assert not ref.has_global("nonexistent")
    assert ref.function_offset("target_exec") >= 0
    assert ref.ret_offsets() == sorted(ref.ret_offsets())


def test_reference_differs_from_victim_under_diversity():
    """The attacker's own R2C build rolled different dice."""
    session = VictimSession(R2CConfig.full(seed=9))
    victim_offsets = session.binary.symbols_text
    reference_offsets = session.reference.binary.symbols_text
    assert victim_offsets != reference_offsets


def test_reference_equals_victim_without_diversity():
    session = VictimSession(R2CConfig.baseline())
    assert session.binary.symbols_text == session.reference.binary.symbols_text
    assert bytes(session.binary.data_image) == bytes(session.reference.binary.data_image)


def test_output_success_tagging():
    assert output_success([SUCCESS_TAG | 0x1])
    assert not output_success([0x1234])
    assert output_success([SUCCESS_TAG | ATTACK_ARG], require_arg=True)
    assert not output_success([SUCCESS_TAG | 0x1], require_arg=True)


def test_attacker_rng_is_independent_of_victim_seed():
    views = []
    for victim_seed in (1, 2):
        session = VictimSession(R2CConfig.full(seed=victim_seed))

        def hook(view):
            views.append([view.rng.randint(0, 10**9) for _ in range(5)])

        session.probe(hook, attacker_seed=42)
    assert views[0] == views[1]
