"""Unit tests for the workload abstraction."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.base import Access, SyntheticWorkload
from repro.workloads.synthetic import sequential


def make(footprint=64, phases=None, instructions=None):
    if phases is None:
        phases = [sequential(0, 0, footprint, compute=100)]
    if instructions is None:
        instructions = {0: "scan"}
    return SyntheticWorkload("t", footprint, instructions, phases)


class TestConstruction:
    def test_empty_name_rejected(self):
        with pytest.raises(WorkloadError):
            SyntheticWorkload("", 10, {0: "x"}, [sequential(0, 0, 1, compute=1)])

    def test_zero_footprint_rejected(self):
        with pytest.raises(WorkloadError):
            SyntheticWorkload("t", 0, {0: "x"}, [sequential(0, 0, 1, compute=1)])

    def test_no_phases_rejected(self):
        with pytest.raises(WorkloadError):
            SyntheticWorkload("t", 10, {0: "x"}, [])

    def test_elrange_exceeds_footprint(self):
        """The enclave reserves guard pages past the live data so DFP
        can preload beyond the last array page."""
        wl = make(footprint=100)
        assert wl.elrange_pages > wl.footprint_pages


class TestTraceValidation:
    def test_out_of_footprint_page_rejected(self):
        wl = make(footprint=10, phases=[sequential(0, 0, 20, compute=1)])
        with pytest.raises(WorkloadError):
            list(wl.trace())

    def test_undeclared_instruction_rejected(self):
        wl = make(phases=[sequential(7, 0, 4, compute=1)])
        with pytest.raises(WorkloadError):
            list(wl.trace())

    def test_error_names_first_offending_event(self):
        """Validation is per block, but the error still names the first
        event the workload may not emit."""
        wl = make(footprint=10, phases=[sequential(0, 0, 30, compute=1)])
        with pytest.raises(WorkloadError, match="touched page 10 outside"):
            list(wl.trace())
        wl = make(
            instructions={0: "a"},
            phases=[sequential(0, 0, 3, compute=1), sequential(5, 0, 3, compute=1)],
        )
        with pytest.raises(WorkloadError, match="undeclared instruction 5"):
            list(wl.trace())

    def test_plain_tuple_phase_is_accepted(self):
        """A phase factory may return any iterable of event tuples."""
        events = [(0, 3, 7), (0, 1, 9), (0, 2, 8)]
        wl = make(footprint=4, phases=[lambda seed, input_set: list(events)])
        assert list(wl.trace()) == events
        blocks = list(wl.trace_blocks())
        assert [list(column) for column in blocks[0]] == [[0, 0, 0], [3, 1, 2], [7, 9, 8]]

    def test_unknown_input_set_rejected(self):
        with pytest.raises(WorkloadError):
            list(make().trace(input_set="huge"))

    def test_phases_run_in_order(self):
        wl = make(
            footprint=20,
            instructions={0: "a", 1: "b"},
            phases=[
                sequential(0, 0, 2, compute=1),
                sequential(1, 10, 2, compute=1),
            ],
        )
        assert [i for i, _p, _c in wl.trace()] == [0, 0, 1, 1]


class TestAccessesWrapper:
    def test_yields_access_objects(self):
        wl = make(footprint=4)
        accesses = list(wl.accesses())
        assert all(isinstance(a, Access) for a in accesses)
        assert accesses[0].page == 0
        assert accesses[0].instruction == 0

    def test_matches_trace(self):
        wl = make(footprint=4)
        raw = list(wl.trace())
        objs = [(a.instruction, a.page, a.compute_cycles) for a in wl.accesses()]
        assert raw == objs


class TestRepr:
    def test_repr_mentions_name_and_footprint(self):
        text = repr(make(footprint=64))
        assert "t" in text and "64" in text
