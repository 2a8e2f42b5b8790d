"""Tests for the paged virtual memory: permissions, guard pages, residency."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import GuardPageFault, MemoryFault
from repro.machine.memory import Memory, PAGE_SIZE, Perm, page_base, page_range


BASE = 0x10000


def make_memory(perm=Perm.RW, pages=4):
    memory = Memory()
    memory.map_region(BASE, pages * PAGE_SIZE, perm)
    return memory


def test_read_write_roundtrip():
    memory = make_memory()
    memory.write(BASE + 100, b"hello world")
    assert memory.read(BASE + 100, 11) == b"hello world"


def test_word_roundtrip_and_wrapping():
    memory = make_memory()
    memory.write_word(BASE, 2**64 - 1)
    assert memory.read_word(BASE) == 2**64 - 1
    memory.write_word(BASE, -1)
    assert memory.read_word(BASE) == 2**64 - 1


def test_cross_page_access():
    memory = make_memory()
    addr = BASE + PAGE_SIZE - 4
    memory.write(addr, b"12345678")
    assert memory.read(addr, 8) == b"12345678"


def test_unmapped_read_faults():
    memory = make_memory()
    with pytest.raises(MemoryFault) as info:
        memory.read(BASE - PAGE_SIZE, 8)
    assert info.value.reason == "unmapped"


def test_write_to_readonly_faults():
    memory = make_memory(Perm.R)
    assert memory.read(BASE, 8) == bytes(8)
    with pytest.raises(MemoryFault):
        memory.write(BASE, b"x")


def test_execute_only_is_unreadable_but_fetchable():
    memory = make_memory(Perm.X)
    memory.fetch_check(BASE, 4)  # must not raise
    with pytest.raises(MemoryFault):
        memory.read(BASE, 1)
    with pytest.raises(MemoryFault):
        memory.write(BASE, b"x")


def test_fetch_from_non_executable_faults():
    memory = make_memory(Perm.RW)
    with pytest.raises(MemoryFault) as info:
        memory.fetch_check(BASE)
    assert info.value.kind == "fetch"


def test_guard_page_raises_guard_fault():
    memory = make_memory()
    memory.write_word(BASE + PAGE_SIZE, 7)  # touch before protecting
    memory.protect(BASE + PAGE_SIZE, PAGE_SIZE, Perm.NONE, guard=True)
    with pytest.raises(GuardPageFault):
        memory.read(BASE + PAGE_SIZE + 8, 8)
    with pytest.raises(GuardPageFault):
        memory.write(BASE + PAGE_SIZE, b"y")
    # Neighbouring pages still work.
    memory.write_word(BASE, 1)
    assert memory.read_word(BASE) == 1


def test_guard_fault_is_a_memory_fault_subclass():
    assert issubclass(GuardPageFault, MemoryFault)


def test_protect_unmapped_fails():
    memory = make_memory()
    with pytest.raises(MemoryFault):
        memory.protect(BASE + 100 * PAGE_SIZE, PAGE_SIZE, Perm.NONE)


def test_double_map_rejected():
    memory = make_memory()
    with pytest.raises(MemoryFault):
        memory.map_region(BASE, PAGE_SIZE, Perm.RW)


def test_partial_overlap_keeps_lower_pages_and_names_first_overlap():
    memory = Memory()
    memory.map_region(BASE + 2 * PAGE_SIZE, 2 * PAGE_SIZE, Perm.RW)
    with pytest.raises(MemoryFault) as info:
        memory.map_region(BASE, 4 * PAGE_SIZE, Perm.R)
    assert info.value.reason == "already mapped"
    assert info.value.address == BASE + 2 * PAGE_SIZE
    assert [perm for _, perm in memory.mapped_pages()] == [Perm.R] * 2 + [Perm.RW] * 2
    assert memory.read(BASE + PAGE_SIZE, 8) == bytes(8)
    with pytest.raises(MemoryFault):
        memory.write(BASE, b"x")


def test_raw_access_bypasses_permissions():
    memory = make_memory(Perm.NONE)
    memory.store_word_raw(BASE, 123)
    assert memory.load_word_raw(BASE) == 123
    with pytest.raises(MemoryFault):
        memory.read_word(BASE)


def test_resident_counts_touched_pages_only():
    memory = make_memory(pages=8)
    assert memory.resident_bytes() == 0
    memory.write_word(BASE, 1)
    assert memory.resident_bytes() == PAGE_SIZE
    memory.write_word(BASE + 3 * PAGE_SIZE, 1)
    assert memory.resident_bytes() == 2 * PAGE_SIZE
    memory.read(BASE, 8)  # already touched
    assert memory.resident_bytes() == 2 * PAGE_SIZE


def test_page_spanning_fetch_marks_both_pages_resident():
    memory = make_memory(Perm.X, pages=2)
    memory.fetch_check(BASE + PAGE_SIZE - 2, 4)
    assert memory.resident_bytes() == 2 * PAGE_SIZE


def test_changing_one_page_leaves_the_rest_of_its_region_alone():
    """Untouched pages of a region share one descriptor; writing,
    protecting or corrupting one of them must not reach the others."""
    memory = make_memory(pages=8)
    memory.write(BASE + 2 * PAGE_SIZE + 16, b"two")
    memory.protect(BASE + 5 * PAGE_SIZE, PAGE_SIZE, Perm.NONE, guard=True)
    memory.corrupt_bit(BASE + 6 * PAGE_SIZE + 3, 1)
    assert memory.resident_bytes() == 2 * PAGE_SIZE
    guard = BASE + 5 * PAGE_SIZE
    for address in (guard, guard + PAGE_SIZE - 8):
        assert memory.perm_at(address) == Perm.NONE and memory.is_guard(address)
        with pytest.raises(GuardPageFault):
            memory.read_word(address)
        with pytest.raises(GuardPageFault):
            memory.write_word(address, 1)
    for index in (0, 1, 2, 3, 4, 6, 7):
        address = BASE + index * PAGE_SIZE
        assert memory.perm_at(address) == Perm.RW
        assert not memory.is_guard(address)
        expected = bytearray(PAGE_SIZE)
        if index == 2:
            expected[16:19] = b"two"
        if index == 6:
            expected[3] = 2
        assert memory.read(address, PAGE_SIZE) == bytes(expected)
        memory.write_word(address + 8, index + 1)
        assert memory.read_word(address + 8) == index + 1
    assert memory.resident_bytes() == 7 * PAGE_SIZE


def test_clone_isolates_untouched_pages_both_ways():
    original = make_memory(pages=4)
    clone = original.clone()
    clone.protect(BASE, PAGE_SIZE, Perm.NONE, guard=True)
    clone.write_word(BASE + PAGE_SIZE, 5)
    assert original.perm_at(BASE) == Perm.RW and not original.is_guard(BASE)
    assert original.read_word(BASE) == 0
    assert original.read_word(BASE + PAGE_SIZE) == 0
    assert original.resident_bytes() == 2 * PAGE_SIZE

    original.protect(BASE + 2 * PAGE_SIZE, PAGE_SIZE, Perm.NONE, guard=True)
    original.write_word(BASE + 3 * PAGE_SIZE, 7)
    assert clone.perm_at(BASE + 2 * PAGE_SIZE) == Perm.RW
    assert not clone.is_guard(BASE + 2 * PAGE_SIZE)
    clone.write_word(BASE + 2 * PAGE_SIZE, 9)
    assert clone.read_word(BASE + 3 * PAGE_SIZE) == 0
    assert clone.resident_bytes() == 3 * PAGE_SIZE
    with pytest.raises(GuardPageFault):
        clone.read_word(BASE)
    with pytest.raises(GuardPageFault):
        original.read_word(BASE + 2 * PAGE_SIZE)


def _private_bases(memory):
    return {base for base, page in memory._pages.items() if page.data is not None}


def test_clone_copies_exactly_the_materialized_pages():
    """After k pages materialize, a clone holds exactly k private
    descriptors, one copy of each, and shares every other descriptor;
    writes and protection changes on either side, and on a clone of the
    clone, never show through, and residency matches throughout."""
    original = make_memory(pages=16)
    original.protect(BASE + 9 * PAGE_SIZE, PAGE_SIZE, Perm.NONE, guard=True)
    original.write_word(BASE, 1)
    original.read(BASE + 4 * PAGE_SIZE, 8)
    original.corrupt_bit(BASE + 7 * PAGE_SIZE, 0)
    touched = {BASE, BASE + 4 * PAGE_SIZE, BASE + 7 * PAGE_SIZE}
    clone = original.clone()
    assert _private_bases(original) == _private_bases(clone) == touched
    for base, page in clone._pages.items():
        assert (page is original._pages[base]) == (base not in touched)
    assert clone.resident_bytes() == original.resident_bytes() == 3 * PAGE_SIZE

    # A materialized page changes in place: each side has its own.
    clone.protect(BASE, PAGE_SIZE, Perm.NONE, guard=True)
    original.write_word(BASE + 4 * PAGE_SIZE, 2)
    assert original.read_word(BASE) == 1
    with pytest.raises(GuardPageFault):
        clone.read_word(BASE)
    assert clone.read_word(BASE + 4 * PAGE_SIZE) == 0
    assert clone.read_word(BASE + 7 * PAGE_SIZE) == 1
    assert clone.perm_at(BASE + 9 * PAGE_SIZE) == Perm.NONE

    clone.write_word(BASE + 12 * PAGE_SIZE, 3)
    grandchild = clone.clone()
    assert _private_bases(grandchild) == touched | {BASE + 12 * PAGE_SIZE}
    assert grandchild.resident_bytes() == clone.resident_bytes() == 4 * PAGE_SIZE
    grandchild.write_word(BASE + 12 * PAGE_SIZE, 4)
    grandchild.write_word(BASE + 13 * PAGE_SIZE, 5)
    grandchild.protect(BASE + 7 * PAGE_SIZE, PAGE_SIZE, Perm.R)
    clone.protect(BASE + 4 * PAGE_SIZE, PAGE_SIZE, Perm.R)
    assert clone.read_word(BASE + 12 * PAGE_SIZE) == 3
    assert grandchild.read_word(BASE + 12 * PAGE_SIZE) == 4
    assert clone.read_word(BASE + 13 * PAGE_SIZE) == original.read_word(BASE + 13 * PAGE_SIZE) == 0
    clone.write_word(BASE + 7 * PAGE_SIZE, 6)
    with pytest.raises(MemoryFault):
        grandchild.write_word(BASE + 7 * PAGE_SIZE, 6)
    grandchild.write_word(BASE + 4 * PAGE_SIZE, 7)
    with pytest.raises(GuardPageFault):
        grandchild.read_word(BASE)
    assert original.perm_at(BASE + 4 * PAGE_SIZE) == Perm.RW
    assert original.read_word(BASE + 7 * PAGE_SIZE) == 1
    assert original.resident_bytes() == 4 * PAGE_SIZE
    assert clone.resident_bytes() == 5 * PAGE_SIZE
    assert grandchild.resident_bytes() == 5 * PAGE_SIZE


def test_fetch_checked_pages_reset_on_every_permission_change():
    """``_fetched`` is the set of pages the ``fast`` loop fetch-checked
    since the last map or protect: both clear it in place (the loop
    holds a reference), and a clone starts with its own copy."""
    memory = make_memory(Perm.X, pages=2)
    fetched = memory._fetched
    fetched.add(BASE)
    clone = memory.clone()
    assert clone._fetched == {BASE} and clone._fetched is not fetched
    memory.protect(BASE + PAGE_SIZE, PAGE_SIZE, Perm.X)
    assert memory._fetched is fetched and not fetched
    assert clone._fetched == {BASE}
    fetched.add(BASE)
    memory.map_region(BASE + 4 * PAGE_SIZE, PAGE_SIZE, Perm.RW)
    assert memory._fetched is fetched and not fetched


def test_page_range_enumeration():
    assert list(page_range(0, 1)) == [0]
    assert list(page_range(PAGE_SIZE - 1, 2)) == [0, PAGE_SIZE]
    assert list(page_range(0, 0)) == []
    assert page_base(PAGE_SIZE + 5) == PAGE_SIZE


def test_perm_and_guard_queries():
    memory = make_memory()
    assert memory.is_mapped(BASE)
    assert not memory.is_mapped(BASE - 1)
    assert memory.perm_at(BASE) == Perm.RW
    assert memory.perm_at(BASE - PAGE_SIZE) is None
    memory.protect(BASE, PAGE_SIZE, Perm.NONE, guard=True)
    assert memory.is_guard(BASE + 10)
    assert not memory.is_guard(BASE + PAGE_SIZE)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4 * PAGE_SIZE - 9),
            st.binary(min_size=1, max_size=64),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_property_last_write_wins(writes):
    """Any sequence of in-bounds writes reads back exactly."""
    memory = make_memory()
    shadow = bytearray(4 * PAGE_SIZE)
    for offset, data in writes:
        data = data[: 4 * PAGE_SIZE - offset]
        memory.write(BASE + offset, data)
        shadow[offset : offset + len(data)] = data
    assert memory.read(BASE, 4 * PAGE_SIZE) == bytes(shadow)
