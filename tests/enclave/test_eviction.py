"""Unit tests for CLOCK (second chance) eviction."""

import pytest

from repro.enclave.epc import Epc
from repro.enclave.eviction import ClockEvictor
from repro.errors import EpcError


def make(capacity: int):
    epc = Epc(capacity)
    evictor = ClockEvictor(epc)
    return epc, evictor


def insert(epc, evictor, page, *, accessed=False):
    epc.insert(page)
    evictor.note_insert(page)
    if accessed:
        epc.mark_accessed(page)


class TestRingMaintenance:
    def test_double_insert_rejected(self):
        epc, evictor = make(4)
        insert(epc, evictor, 1)
        with pytest.raises(EpcError):
            evictor.note_insert(1)

    def test_evict_untracked_rejected(self):
        _epc, evictor = make(4)
        with pytest.raises(EpcError):
            evictor.note_evict(9)

    def test_slot_reuse_after_evict(self):
        epc, evictor = make(2)
        insert(epc, evictor, 0)
        insert(epc, evictor, 1)
        epc.evict(0)
        evictor.note_evict(0)
        insert(epc, evictor, 2)  # must not overflow the ring
        assert sorted(epc.resident_pages()) == [1, 2]

    def test_replace_takes_the_victims_slot(self):
        epc, evictor = make(2)
        insert(epc, evictor, 0)
        insert(epc, evictor, 1)
        epc.replace(0, 2)
        evictor.note_replace(0, 2)
        assert evictor._ring == [2, 1]
        assert evictor._slot_of == {1: 1, 2: 0}

    def test_replace_of_untracked_victim_rejected(self):
        epc, evictor = make(2)
        insert(epc, evictor, 0)
        with pytest.raises(EpcError, match="page 9 not tracked"):
            evictor.note_replace(9, 5)
        assert evictor._slot_of == {0: 0}

    def test_replace_with_tracked_page_rejected(self):
        epc, evictor = make(2)
        insert(epc, evictor, 0)
        insert(epc, evictor, 1)
        with pytest.raises(EpcError, match="page 1 already tracked"):
            evictor.note_replace(0, 1)
        assert evictor._slot_of == {0: 0, 1: 1}


class TestVictimSelection:
    def test_empty_epc_rejected(self):
        _epc, evictor = make(4)
        with pytest.raises(EpcError):
            evictor.select_victim()

    def test_unaccessed_page_is_victim(self):
        epc, evictor = make(4)
        insert(epc, evictor, 0)
        assert evictor.select_victim() == 0

    def test_accessed_page_gets_second_chance(self):
        epc, evictor = make(4)
        insert(epc, evictor, 0, accessed=True)
        insert(epc, evictor, 1)
        assert evictor.select_victim() == 1
        assert evictor.second_chances == 1
        # The sweep cleared page 0's bit.
        assert not epc.state_of(0).accessed

    def test_all_accessed_falls_back_to_sweep_order(self):
        """When every page is accessed, the first revolution clears all
        bits and the second picks the first page swept."""
        epc, evictor = make(3)
        for page in range(3):
            insert(epc, evictor, page, accessed=True)
        victim = evictor.select_victim()
        assert victim == 0
        assert evictor.second_chances == 3

    def test_hand_advances_between_selections(self):
        """Consecutive victims differ: the hand does not reset."""
        epc, evictor = make(4)
        for page in range(4):
            insert(epc, evictor, page)
        first = evictor.select_victim()
        epc.evict(first)
        evictor.note_evict(first)
        second = evictor.select_victim()
        assert second != first

    def test_hot_page_survives_many_rounds(self):
        """A constantly re-accessed page is never chosen while cold
        pages remain."""
        epc, evictor = make(3)
        insert(epc, evictor, 0)  # hot
        insert(epc, evictor, 1)
        insert(epc, evictor, 2)
        for step in range(10, 20):
            epc.mark_accessed(0)
            victim = evictor.select_victim()
            assert victim != 0
            epc.evict(victim)
            evictor.note_evict(victim)
            insert(epc, evictor, step)
