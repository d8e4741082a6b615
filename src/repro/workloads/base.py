"""Workload abstraction.

A workload is a deterministic generator of page-touch events.  Each
event is a ``(instruction, page, compute_cycles)`` triple:

* ``instruction`` — a stable small integer naming the memory
  instruction (source-line analogue) that issued the access; the SIP
  profiler aggregates per-instruction class histograms over these ids
  and the SIP pass instruments a subset of them;
* ``page`` — the 4 KiB enclave page touched (page-granular, like the
  fault stream SGX exposes to the OS);
* ``compute_cycles`` — in-enclave computation since the previous
  event, i.e. the work available to overlap with preloading.

Traces are generated lazily and are deterministic in ``(seed,
input_set)``; the ``train`` input set is what SIP profiles, the ``ref``
input set is what performance runs use, mirroring the paper's
PGO-realistic split (Section 5.2).

A trace has two equivalent forms.  :meth:`Workload.trace` yields event
tuples one at a time; :meth:`Workload.trace_blocks` yields the same
events as :data:`Block` s — three parallel ``array('q')`` columns
(instructions, pages, compute cycles) of at most a few thousand events
each.  Consumers that look at whole traces (materialization, SIP
profiling) read blocks; the per-access simulation loop reads tuples.
"""

from __future__ import annotations

import abc
from array import array
from dataclasses import dataclass
from itertools import chain, islice, starmap
from typing import Callable, Iterable, Iterator, Mapping, Tuple

from repro.errors import WorkloadError

__all__ = [
    "Access",
    "Block",
    "BLOCK_EVENTS",
    "Phase",
    "Workload",
    "SyntheticWorkload",
    "TraceEvent",
    "events_of",
    "pack_blocks",
    "phase_blocks",
]

#: The raw event tuple flowing through the hot simulation loop.
TraceEvent = Tuple[int, int, int]

#: A run of consecutive events as parallel ``array('q')`` columns:
#: ``(instructions, pages, compute_cycles)``, all the same length.
Block = Tuple[array, array, array]

#: Events per block the generators aim for.  Bigger blocks amortize
#: more per-event interpreter work; smaller ones bound the memory a
#: lazily pulled trace holds (every fleet tenant holds one).
BLOCK_EVENTS = 1024


def pack_blocks(events: Iterable[TraceEvent]) -> Iterator[Block]:
    """Group an event stream into blocks of at most :data:`BLOCK_EVENTS`."""
    it = iter(events)
    while True:
        chunk = list(islice(it, BLOCK_EVENTS))
        if not chunk:
            return
        instrs, pages, cycles = zip(*chunk)
        yield array("q", instrs), array("q", pages), array("q", cycles)


def events_of(blocks: Iterable[Block]) -> Iterator[TraceEvent]:
    """The event tuples of a block stream, lazily, in order."""
    return chain.from_iterable(starmap(zip, blocks))


@dataclass(frozen=True)
class Access:
    """One page-touch event (friendly wrapper over the raw tuple)."""

    instruction: int
    page: int
    compute_cycles: int


class Workload(abc.ABC):
    """A deterministic page-access trace generator."""

    #: Input sets every workload supports.
    INPUT_SETS: Tuple[str, ...] = ("train", "ref")

    def __init__(self, name: str, footprint_pages: int) -> None:
        if not name:
            raise WorkloadError("workload name must be non-empty")
        if footprint_pages <= 0:
            raise WorkloadError(
                f"footprint must be at least one page, got {footprint_pages}"
            )
        self._name = name
        self._footprint_pages = footprint_pages

    # ------------------------------------------------------------------
    # Identity and geometry
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """Benchmark name (e.g. ``"lbm"``)."""
        return self._name

    @property
    def footprint_pages(self) -> int:
        """Distinct pages the workload may touch."""
        return self._footprint_pages

    @property
    def elrange_pages(self) -> int:
        """Enclave virtual span: the footprint plus a small guard.

        Real enclaves reserve ELRANGE beyond their live data; the guard
        also gives DFP room to preload past the last page of an array
        without faulting the simulator.
        """
        return self._footprint_pages + 64

    @property
    @abc.abstractmethod
    def instructions(self) -> Mapping[int, str]:
        """Stable mapping of instruction id → human-readable name."""

    # ------------------------------------------------------------------
    # Trace generation
    # ------------------------------------------------------------------

    def _check_input_set(self, input_set: str) -> None:
        if input_set not in self.INPUT_SETS:
            raise WorkloadError(
                f"unknown input set {input_set!r} for {self._name!r}; "
                f"expected one of {', '.join(self.INPUT_SETS)}"
            )

    @abc.abstractmethod
    def trace(self, *, seed: int = 0, input_set: str = "ref") -> Iterator[TraceEvent]:
        """Yield ``(instruction, page, compute_cycles)`` events.

        Lazy: events are produced as the caller pulls them, so a
        consumer that stops early (a truncated run, a departing fleet
        tenant) never pays for the rest of the trace.
        """

    def trace_blocks(self, *, seed: int = 0, input_set: str = "ref") -> Iterator[Block]:
        """The events of :meth:`trace` as column :data:`Block` s.

        The default packs :meth:`trace`'s tuples, so a workload that
        implements only :meth:`trace` still materializes and profiles
        through this one entry point; generated workloads override it
        to build their columns directly.
        """
        return pack_blocks(self.trace(seed=seed, input_set=input_set))

    def accesses(self, *, seed: int = 0, input_set: str = "ref") -> Iterator[Access]:
        """Like :meth:`trace` but yielding :class:`Access` objects."""
        for instr, page, cycles in self.trace(seed=seed, input_set=input_set):
            yield Access(instr, page, cycles)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self._name!r}, "
            f"footprint_pages={self._footprint_pages})"
        )


#: A phase factory: given the RNG-seeded context, returns an iterable
#: of trace events.  Defined in :mod:`repro.workloads.synthetic`.
PhaseFactory = Callable[[int, str], Iterable[TraceEvent]]


class Phase:
    """One run of a phase: its events as lazily generated column blocks.

    What the :mod:`~repro.workloads.synthetic` factories return.  Single
    use, like the generator it wraps: :meth:`blocks` and iteration
    consume the same underlying stream.
    """

    __slots__ = ("_blocks",)

    def __init__(self, blocks: Iterator[Block]) -> None:
        self._blocks = blocks

    def blocks(self) -> Iterator[Block]:
        """The phase's events as column blocks."""
        return self._blocks

    def __iter__(self) -> Iterator[TraceEvent]:
        return events_of(self._blocks)


def phase_blocks(events: Iterable[TraceEvent]) -> Iterator[Block]:
    """Blocks of one phase run: a :class:`Phase`'s own column blocks,
    or any other event iterable packed."""
    return events.blocks() if isinstance(events, Phase) else pack_blocks(events)


class SyntheticWorkload(Workload):
    """A workload assembled from phase generators.

    Concrete benchmark models supply a list of phase factories; each
    factory receives ``(seed, input_set)`` and returns the phase's
    events (see :mod:`repro.workloads.synthetic`).  Phases run in
    order, once per trace.
    """

    def __init__(
        self,
        name: str,
        footprint_pages: int,
        instructions: Mapping[int, str],
        phases: "list[PhaseFactory]",
    ) -> None:
        super().__init__(name, footprint_pages)
        if not phases:
            raise WorkloadError(f"workload {name!r} needs at least one phase")
        self._instructions = dict(instructions)
        self._phases = list(phases)

    @property
    def instructions(self) -> Mapping[int, str]:
        return self._instructions

    def trace(self, *, seed: int = 0, input_set: str = "ref") -> Iterator[TraceEvent]:
        return events_of(self.trace_blocks(seed=seed, input_set=input_set))

    def trace_blocks(self, *, seed: int = 0, input_set: str = "ref") -> Iterator[Block]:
        """Validated column blocks of every phase, in order.

        Each block is checked whole: its page column against the
        footprint with ``min``/``max`` and its instruction column
        against the declared ids with one set test.  A block that fails
        is rescanned event by event only to name the first offending
        event in the :class:`~repro.errors.WorkloadError`.  The check is
        per block, so the error can surface up to one block before the
        offending event would have been pulled.
        """
        self._check_input_set(input_set)
        footprint = self._footprint_pages
        known = self._instructions.keys()
        for phase in self._phases:
            for block in phase_blocks(phase(seed, input_set)):
                instrs, pages, _cycles = block
                if not pages:
                    continue
                if min(pages) < 0 or max(pages) >= footprint or not known >= set(instrs):
                    self._reject(block)
                yield block

    def _reject(self, block: Block) -> None:
        """Raise for the first event of ``block`` the workload may not emit."""
        footprint = self._footprint_pages
        for instr, page, _cycles in zip(*block):
            if page >= footprint or page < 0:
                raise WorkloadError(
                    f"workload {self._name!r} touched page {page} outside "
                    f"its declared footprint of {footprint} pages"
                )
            if instr not in self._instructions:
                raise WorkloadError(
                    f"workload {self._name!r} used undeclared instruction {instr}"
                )
