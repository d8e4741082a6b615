"""The Enclave Page Cache (EPC).

The EPC is the contiguous physical memory region SGX reserves for
enclave pages.  It is managed by the (untrusted) OS at 4 KiB page
granularity; on the paper's platform 128 MB are reserved of which
~96 MB are usable by applications.

This module models the EPC as a fixed pool of frames plus, for every
*resident* virtual page, the two bits the paper's mechanisms rely on:

* the **accessed** bit — set by the "hardware" on every touch, cleared
  periodically by the driver's CLOCK service thread; CLOCK replacement
  and the DFP preload accounting both read it;
* the **preloaded** bit — set when a page is brought in by the DFP
  preload thread rather than by a demand fault, cleared when the
  service-thread scan credits the page as a correct preload.  This is
  the per-page state behind the paper's ``PreloadedPageList``.

Storage layout: both bits live in one **status byte per page** of the
registered address space (:attr:`Epc.status_table`), as a bit field:

==============  =====  ===========================================
constant        value  meaning
==============  =====  ===========================================
PAGE_ABSENT     0      not resident (the whole byte is zero)
PAGE_RESIDENT   1      bit 0: the page occupies an EPC frame
PAGE_ACCESSED   2      bit 1: the A bit is set
PAGE_PRELOADED  4      bit 2: preloaded and not yet credited
==============  =====  ===========================================

so a clean resident page is ``1``, an accessed one ``3``, a pending
preload ``5`` and an accessed pending preload ``7``.  The bit layout
makes a page touch *idempotent* — ``code | PAGE_ACCESSED`` is correct
whether or not the page was touched before — which is what makes the
batched simulation engine fast: a whole window of trace pages is
checked for residency with one C-level
``bytes(map(table.__getitem__, window))`` sweep and a ``find``, and
the run's accessed bits are retired with one C-level
``map(table.__setitem__, window, flags.translate(...))`` scatter,
with no Python-level work per event.

:class:`EpcPageState` is a *view* over one page's status byte — reads
and writes through its ``accessed``/``preloaded`` properties go
straight to the table, so code holding a state object and code
scanning the table can never disagree.

The status byte is the **only** residency record: :class:`Epc` keeps
no per-page map beside it, just an occupancy count.  Views are built
on demand by :meth:`Epc.lookup`/:meth:`Epc.state_of`, and
:meth:`Epc.resident_pages` walks the table.  A load that needs a
victim is one residency change, booked by :meth:`Epc.replace` in one
step (clear the victim's byte, write the landing page's byte).
"""

from __future__ import annotations

from itertools import compress
from typing import Iterator, Optional

from repro.errors import EpcError

__all__ = [
    "Epc",
    "EpcPageState",
    "PAGE_ABSENT",
    "PAGE_RESIDENT",
    "PAGE_ACCESSED",
    "PAGE_PRELOADED",
]

#: Status-byte bit flags (see the module docstring's table).
PAGE_ABSENT = 0
PAGE_RESIDENT = 1
PAGE_ACCESSED = 2
PAGE_PRELOADED = 4


class EpcPageState:
    """Per-resident-page metadata.

    ``accessed`` mirrors the page-table A bit; ``preloaded`` marks pages
    brought in speculatively and not yet credited by the scan thread.

    Instances returned by :meth:`Epc.insert` / :meth:`Epc.lookup` /
    :meth:`Epc.state_of` are live views over the EPC's status table:
    mutations through the properties update the table, and table
    updates are visible through the properties.  :meth:`Epc.evict`
    returns a *detached* copy holding the page's final bits.
    """

    __slots__ = ("_table", "_index")

    def __init__(self, accessed: bool = False, preloaded: bool = False) -> None:
        code = (
            PAGE_RESIDENT
            | (PAGE_ACCESSED if accessed else 0)
            | (PAGE_PRELOADED if preloaded else 0)
        )
        self._table = bytearray((code,))
        self._index = 0

    @classmethod
    def _view(cls, table: bytearray, index: int) -> "EpcPageState":
        """A live view of ``table[index]`` (internal to :class:`Epc`)."""
        state = object.__new__(cls)
        state._table = table
        state._index = index
        return state

    @property
    def accessed(self) -> bool:
        return bool(self._table[self._index] & PAGE_ACCESSED)

    @accessed.setter
    def accessed(self, value: bool) -> None:
        code = self._table[self._index]
        if code == PAGE_ABSENT:
            raise EpcError("stale page state: the page was evicted")
        if value:
            self._table[self._index] = code | PAGE_ACCESSED
        else:
            self._table[self._index] = code & ~PAGE_ACCESSED

    @property
    def preloaded(self) -> bool:
        return bool(self._table[self._index] & PAGE_PRELOADED)

    @preloaded.setter
    def preloaded(self, value: bool) -> None:
        code = self._table[self._index]
        if code == PAGE_ABSENT:
            raise EpcError("stale page state: the page was evicted")
        if value:
            self._table[self._index] = code | PAGE_PRELOADED
        else:
            self._table[self._index] = code & ~PAGE_PRELOADED

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EpcPageState):
            return (self.accessed, self.preloaded) == (
                other.accessed,
                other.preloaded,
            )
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"EpcPageState(accessed={self.accessed}, "
            f"preloaded={self.preloaded})"
        )


class Epc:
    """A fixed pool of EPC frames with residency tracking.

    The class enforces the physical constraint the whole paper is
    about: at most :attr:`capacity` pages can be resident at once, and
    making room for a new page requires an explicit eviction (the OS's
    EWB path), which this class *checks* but does not *choose* — victim
    selection lives in :class:`repro.enclave.eviction.ClockEvictor`.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise EpcError(f"EPC capacity must be positive, got {capacity}")
        self._capacity = capacity
        # The only residency record: one status byte per page of the
        # covered address space (grown, never rebound, so bound
        # references like ``table.__getitem__`` stay valid), plus the
        # number of non-zero bytes in it.
        self._status = bytearray()
        self._count = 0
        # Lifetime counters, exposed for stats and invariant tests.
        self.total_inserts = 0
        self.total_evictions = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Number of frames in the pool."""
        return self._capacity

    @property
    def resident_count(self) -> int:
        """Number of pages currently resident."""
        return self._count

    @property
    def free_frames(self) -> int:
        """Number of frames currently unoccupied."""
        return self._capacity - self._count

    @property
    def is_full(self) -> bool:
        """True when an insert would require an eviction first."""
        return self._count >= self._capacity

    def is_resident(self, page: int) -> bool:
        """True if virtual ``page`` currently occupies an EPC frame."""
        return 0 <= page < len(self._status) and self._status[page] != PAGE_ABSENT

    def lookup(self, page: int) -> Optional[EpcPageState]:
        """A live view of ``page``'s metadata if resident, else ``None``."""
        return EpcPageState._view(self._status, page) if self.is_resident(page) else None

    def state_of(self, page: int) -> EpcPageState:
        """Return the metadata of a resident page.

        Raises :class:`EpcError` for non-resident pages: callers must
        check residency first, mirroring the driver's own flow.
        """
        state = self.lookup(page)
        if state is None:
            raise EpcError(f"page {page} is not resident")
        return state

    def resident_pages(self) -> Iterator[int]:
        """Iterate over the resident page numbers, in page order."""
        return compress(range(len(self._status)), self._status)

    @property
    def status_table(self) -> bytearray:
        """The per-page status byte table (see the module docstring).

        ``status_table[page]`` is ``PAGE_ABSENT`` for every
        non-resident page of the covered span, else one of the four
        resident codes; no other structure records residency.  The
        object is grown in place and never rebound, so hot paths may
        hold it (or a bound ``__getitem__``) across residency changes.
        Only the driver and the simulation engines may write through
        it, and only the accessed/preloaded bits: residency itself
        changes through :meth:`insert`/:meth:`evict`/:meth:`replace`,
        which keep the occupancy count in step.  Everything else
        mutates bits via :class:`EpcPageState` views or the
        ``mark``/``clear`` helpers, which edit the same bytes.

        Any code that sets an accessed bit in a platform's table must
        also widen the owning driver's dirty span
        (``_dirty_lo``/``_dirty_hi``): the service-thread scan ages and
        credits only those spans.  Views and :meth:`mark_accessed` do
        not widen it, so they are for standalone EPCs only; on a
        sanitized platform an accessed bit set through them fails the
        post-scan check.
        """
        return self._status

    def ensure_page_span(self, span: int) -> None:
        """Grow the status table to cover pages ``[0, span)``.

        Called at enclave registration with the ELRANGE limit (and by
        the batched engine with the trace's page bound) so that hot
        paths can index the table without per-access bounds checks.
        """
        if span > len(self._status):
            self._status.extend(bytes(span - len(self._status)))

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def insert(self, page: int, *, preloaded: bool = False) -> EpcPageState:
        """Load ``page`` into a free frame (the ELDU/ELDB effect).

        Raises :class:`EpcError` if the EPC is full (the driver must
        evict first) or the page is already resident (a demand load and
        a preload racing on the same page must be resolved by the
        caller — the channel model never double-loads).
        """
        if page < 0:
            raise EpcError(f"page numbers must be non-negative, got {page}")
        status = self._status
        if page < len(status) and status[page]:
            raise EpcError(f"page {page} is already resident")
        if self.is_full:
            raise EpcError("EPC is full; evict a page before inserting")
        if page >= len(status):
            self.ensure_page_span(page + 1)
        status[page] = PAGE_RESIDENT | PAGE_PRELOADED if preloaded else PAGE_RESIDENT
        self._count += 1
        self.total_inserts += 1
        return EpcPageState._view(status, page)

    def evict(self, page: int) -> EpcPageState:
        """Evict ``page`` to untrusted memory (the EWB effect).

        Returns a detached snapshot of the evicted page's final
        metadata so the caller can account for evicted-before-use
        preloads after the table slot is cleared.
        """
        status = self._status
        code = status[page] if 0 <= page < len(status) else PAGE_ABSENT
        if not code:
            raise EpcError(f"cannot evict non-resident page {page}")
        status[page] = PAGE_ABSENT
        self._count -= 1
        self.total_evictions += 1
        return EpcPageState(
            accessed=bool(code & PAGE_ACCESSED),
            preloaded=bool(code & PAGE_PRELOADED),
        )

    def replace(self, victim: int, page: int, *, preloaded: bool = False) -> int:
        """Evict ``victim`` and land ``page`` in its frame, in one step.

        The fused EWB + ELDU of a load into a full EPC: the same effect
        as :meth:`evict` then :meth:`insert`, with the occupancy count
        unchanged.  Returns the victim's final status byte for the
        eviction accounting.  Raises :class:`EpcError`, changing
        nothing, if ``victim`` is not resident or ``page`` already is.
        """
        status = self._status
        code = status[victim] if 0 <= victim < len(status) else PAGE_ABSENT
        if not code:
            raise EpcError(f"cannot evict non-resident page {victim}")
        if page < 0:
            raise EpcError(f"page numbers must be non-negative, got {page}")
        if page >= len(status):
            self.ensure_page_span(page + 1)
        elif status[page]:
            raise EpcError(f"page {page} is already resident")
        status[victim] = PAGE_ABSENT
        status[page] = PAGE_RESIDENT | PAGE_PRELOADED if preloaded else PAGE_RESIDENT
        self.total_evictions += 1
        self.total_inserts += 1
        return code

    def mark_accessed(self, page: int) -> EpcPageState:
        """Set the accessed bit of a resident page (hardware A-bit)."""
        state = self.state_of(page)
        state.accessed = True
        return state

    def clear_accessed(self, page: int) -> None:
        """Clear the accessed bit (CLOCK aging, done by the scan)."""
        self.state_of(page).accessed = False
