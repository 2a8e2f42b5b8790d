"""Tests for the deterministic diversification RNG."""

from hypothesis import given, strategies as st

from repro.rng import DiversityRng


def test_same_seed_same_stream():
    a = DiversityRng(42)
    b = DiversityRng(42)
    assert [a.randint(0, 1000) for _ in range(20)] == [
        b.randint(0, 1000) for _ in range(20)
    ]


def test_different_seeds_differ():
    a = [DiversityRng(1).randint(0, 10**9) for _ in range(5)]
    b = [DiversityRng(2).randint(0, 10**9) for _ in range(5)]
    assert a != b


def test_child_streams_are_independent_of_consumption():
    a = DiversityRng(7)
    a.randint(0, 100)  # consume some state
    child_after = a.child("btra")
    child_fresh = DiversityRng(7).child("btra")
    assert [child_after.randint(0, 10**6) for _ in range(10)] == [
        child_fresh.randint(0, 10**6) for _ in range(10)
    ]


def test_child_labels_distinguish_streams():
    rng = DiversityRng(7)
    a = rng.child("alpha").randint(0, 10**9)
    b = rng.child("beta").randint(0, 10**9)
    assert a != b


def test_shuffled_leaves_input_untouched():
    rng = DiversityRng(3)
    original = list(range(50))
    copy = list(original)
    shuffled = rng.shuffled(original)
    assert original == copy
    assert sorted(shuffled) == original


def test_shuffle_in_place_returns_same_list():
    rng = DiversityRng(3)
    items = list(range(10))
    out = rng.shuffle(items)
    assert out is items


def test_sample_has_no_duplicates():
    rng = DiversityRng(5)
    picked = rng.sample(list(range(100)), 30)
    assert len(set(picked)) == 30


@given(st.integers(min_value=0, max_value=2**62), st.text(min_size=1, max_size=20))
def test_child_derivation_is_stable(seed, label):
    a = DiversityRng(seed).child(label)
    b = DiversityRng(seed).child(label)
    assert a.randint(0, 2**32) == b.randint(0, 2**32)


@given(st.integers(min_value=0, max_value=2**30))
def test_randint_respects_bounds(seed):
    rng = DiversityRng(seed)
    for _ in range(20):
        value = rng.randint(3, 9)
        assert 3 <= value <= 9


def test_bool_probability_extremes():
    rng = DiversityRng(1)
    assert all(rng.bool(1.0) for _ in range(20))
    assert not any(rng.bool(0.0) for _ in range(20))
