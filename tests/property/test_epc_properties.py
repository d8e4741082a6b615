"""Property-based tests: EPC + CLOCK evictor invariants.

A random sequence of inserts/evicts/touches, driven the way the driver
drives them, must never violate the physical constraints: residency
bounded by capacity, the evictor ring consistent with the EPC, victims
always resident.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enclave.epc import Epc
from repro.enclave.eviction import ClockEvictor

CAPACITY = 8

# An operation stream: pages to touch, in driver fashion (touch loads
# the page if absent, evicting a CLOCK victim when full).
touches = st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=200)


@given(touches)
@settings(max_examples=200)
def test_residency_never_exceeds_capacity(pages):
    epc = Epc(CAPACITY)
    evictor = ClockEvictor(epc)
    for page in pages:
        if not epc.is_resident(page):
            if epc.is_full:
                victim = evictor.select_victim()
                epc.evict(victim)
                evictor.note_evict(victim)
            epc.insert(page)
            evictor.note_insert(page)
        epc.mark_accessed(page)
        assert epc.resident_count <= CAPACITY


@given(touches)
@settings(max_examples=200)
def test_clock_victim_is_always_resident(pages):
    epc = Epc(CAPACITY)
    evictor = ClockEvictor(epc)
    for page in pages:
        if not epc.is_resident(page):
            if epc.is_full:
                victim = evictor.select_victim()
                assert epc.is_resident(victim)
                epc.evict(victim)
                evictor.note_evict(victim)
            epc.insert(page)
            evictor.note_insert(page)
        epc.mark_accessed(page)


@given(touches)
@settings(max_examples=200)
def test_insert_evict_counters_balance(pages):
    epc = Epc(CAPACITY)
    evictor = ClockEvictor(epc)
    for page in pages:
        if not epc.is_resident(page):
            if epc.is_full:
                victim = evictor.select_victim()
                epc.evict(victim)
                evictor.note_evict(victim)
            epc.insert(page)
            evictor.note_insert(page)
    assert epc.total_inserts - epc.total_evictions == epc.resident_count


@given(touches)
@settings(max_examples=100)
def test_most_recent_touch_is_always_resident(pages):
    """The page just loaded for a touch can never be its own victim."""
    epc = Epc(CAPACITY)
    evictor = ClockEvictor(epc)
    for page in pages:
        if not epc.is_resident(page):
            if epc.is_full:
                victim = evictor.select_victim()
                epc.evict(victim)
                evictor.note_evict(victim)
            epc.insert(page)
            evictor.note_insert(page)
        epc.mark_accessed(page)
        assert epc.is_resident(page)


# Mixed operation streams for the fused-path equivalence: a touch of a
# page (loading it, with or without preload, when absent) or an
# explicit eviction of the CLOCK victim.
operations = st.lists(
    st.one_of(
        st.tuples(st.just("touch"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("preload"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("evict"), st.just(0)),
    ),
    min_size=1,
    max_size=200,
)


def run_stream(ops, fused):
    """Drive one EPC + evictor through ``ops``; loads into a full EPC
    use ``replace``/``note_replace`` when ``fused``, else evict +
    ``note_evict`` + insert + ``note_insert``."""
    epc = Epc(CAPACITY)
    evictor = ClockEvictor(epc)
    for op, page in ops:
        if op == "evict":
            if epc.resident_count:
                victim = evictor.select_victim()
                epc.evict(victim)
                evictor.note_evict(victim)
            continue
        if not epc.is_resident(page):
            preloaded = op == "preload"
            if not epc.is_full:
                epc.insert(page, preloaded=preloaded)
                evictor.note_insert(page)
            elif fused:
                victim = evictor.select_victim()
                epc.replace(victim, page, preloaded=preloaded)
                evictor.note_replace(victim, page)
            else:
                victim = evictor.select_victim()
                epc.evict(victim)
                evictor.note_evict(victim)
                epc.insert(page, preloaded=preloaded)
                evictor.note_insert(page)
        if op == "touch":
            epc.mark_accessed(page)
    return epc, evictor


@given(operations)
@settings(max_examples=200)
def test_fused_replace_matches_evict_then_insert(ops):
    fused_epc, fused_clock = run_stream(ops, fused=True)
    split_epc, split_clock = run_stream(ops, fused=False)
    assert fused_epc.status_table == split_epc.status_table
    assert fused_clock._ring == split_clock._ring
    assert fused_clock._hand == split_clock._hand
    assert fused_clock._free_slots == split_clock._free_slots
    assert fused_clock.second_chances == split_clock.second_chances
    assert fused_epc.total_inserts == split_epc.total_inserts
    assert fused_epc.total_evictions == split_epc.total_evictions
    assert fused_epc.resident_count == split_epc.resident_count
    assert sorted(fused_epc.resident_pages()) == sorted(fused_clock._slot_of)
