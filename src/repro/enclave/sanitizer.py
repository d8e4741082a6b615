"""Opt-in runtime sanitizer for the enclave simulation.

The engine already proves one invariant at run end (the per-bucket time
breakdown reconstructs the clock); everything else — EPC occupancy,
channel/residency exclusion, counter monotonicity — is enforced only
locally by each component.  Accounting drift *between* components
(exactly the failure mode that invalidates paging results; see the
fault-pattern and EDMM literature cited in DESIGN.md) would surface
only as silently wrong numbers.

:class:`SimSanitizer` closes that gap.  When a run is built with
``SimConfig(sanitize=True)`` (CLI: ``--sanitize``), the driver invokes
the sanitizer at every structural event and the sanitizer asserts:

* the EPC resident-page count never exceeds capacity;
* no page is simultaneously resident and on the load channel
  (queued or in flight);
* ``AccPreloadCounter ≤ PreloadCounter``, and both are monotone
  non-decreasing;
* the in-stream abort only ever cancels *queued* (never
  already-loaded) pages;
* at every service-thread tick — not only at run end — the per-bucket
  cycle accounting sums to the application clock;
* after every scan, no page of the enclave's range still has its
  accessed bit set (an A bit set outside the driver's dirty span —
  e.g. through an :class:`~repro.enclave.epc.EpcPageState` view or
  :meth:`~repro.enclave.epc.Epc.mark_accessed` — would escape the
  scan's aging and credit).

The sanitizer is read-only: it never changes timing or stats, so a
sanitized run produces bit-identical :class:`~repro.sim.results.RunResult`
numbers (the integration suite asserts this).  A violation raises
:class:`~repro.errors.SanitizerError` carrying the tail of the event
trace (a bounded ring buffer, recorded even when full event recording
is off) so the offending sequence is visible in the failure itself.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, Optional, TYPE_CHECKING

from repro.enclave.epc import PAGE_ACCESSED
from repro.enclave.events import EventKind
from repro.errors import SanitizerError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.enclave.epc import Epc
    from repro.enclave.loader import LoadChannel, LoadKind
    from repro.enclave.stats import RunStats

__all__ = ["SimSanitizer", "TRACE_TAIL_LENGTH"]

#: How many trailing trace entries a :class:`SanitizerError` carries.
TRACE_TAIL_LENGTH = 24

#: Status-byte translation keeping only the accessed bit.
_ACCESSED_ONLY = bytes(code & PAGE_ACCESSED for code in range(256))


class SimSanitizer:
    """Cross-component invariant checker for one driver's run."""

    def __init__(
        self,
        epc: "Epc",
        channel: "LoadChannel",
        *,
        label: str = "",
        trace_length: int = TRACE_TAIL_LENGTH,
    ) -> None:
        self._epc = epc
        self._channel = channel
        self._label = label
        self._trace: Deque[str] = deque(maxlen=trace_length)
        # High-water marks for the monotonicity checks.
        self._last_preload_counter = 0
        self._last_acc_counter = 0
        #: Number of individual assertions evaluated (overhead metric
        #: and a cheap way for tests to prove the sanitizer was live).
        self.checks = 0
        #: Number of violations raised (0 on a clean run).
        self.violations = 0

    # ------------------------------------------------------------------
    # Trace recording
    # ------------------------------------------------------------------

    @property
    def trace_tail(self) -> "tuple[str, ...]":
        """Snapshot of the recorded event tail (oldest first)."""
        return tuple(self._trace)

    def record_event(
        self, kind: EventKind, start: int, end: int, page: int = -1
    ) -> None:
        """Record one driver timeline event into the ring buffer."""
        suffix = f" page={page}" if page >= 0 else ""
        self._trace.append(f"[{start}..{end}] {kind.value}{suffix}")

    def note(self, entry: str) -> None:
        """Record a sanitizer-internal trace entry (scans, enqueues)."""
        self._trace.append(entry)

    def _fail(self, message: str) -> None:
        self.violations += 1
        if self._label:
            message = f"{self._label}: {message}"
        raise SanitizerError(message, trace=self._trace)

    def _check(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self._fail(message)

    # ------------------------------------------------------------------
    # Hooks (driven by SgxDriver / the engine)
    # ------------------------------------------------------------------

    def check_enqueue(self, pages: Iterable[int], now: int) -> None:
        """A predicted burst is about to be queued for preloading."""
        pages = tuple(pages)
        self.note(f"[{now}] enqueue burst {list(pages)}")
        for page in pages:
            self._check(
                not self._epc.is_resident(page),
                f"page {page} enqueued for preload at t={now} while already "
                "resident in the EPC (burst filtering is broken)",
            )
            self._check(
                self._channel.current_page != page,
                f"page {page} enqueued for preload at t={now} while already "
                "in flight on the load channel",
            )
            self._check(
                not self._channel.is_queued(page),
                f"page {page} enqueued for preload at t={now} while already "
                "queued on the load channel",
            )

    def check_load(self, page: int, kind: "LoadKind", finish: int) -> None:
        """One page load just landed in the EPC."""
        self._check(
            self._epc.resident_count <= self._epc.capacity,
            f"EPC over-committed after loading page {page} at t={finish}: "
            f"{self._epc.resident_count} resident pages > capacity "
            f"{self._epc.capacity}",
        )
        self._check(
            self._epc.is_resident(page),
            f"{kind.value} load of page {page} completed at t={finish} but "
            "the page is not resident",
        )
        self._check(
            not self._channel.is_queued(page),
            f"page {page} is resident and still queued on the load channel "
            f"at t={finish}",
        )

    def check_redundant_preload(self, page: int, finish: int) -> None:
        """A speculative load landed on an already-resident page."""
        self._fail(
            f"preload of page {page} completed at t={finish} for a page "
            "that is already resident — it was enqueued without filtering "
            "or a demand load raced past the in-stream abort"
        )

    def check_abort(self, pages: Iterable[int], now: int) -> None:
        """Queued preloads are about to be dropped by an abort."""
        pages = tuple(pages)
        self.note(f"[{now}] abort drops {list(pages)}")
        for page in pages:
            self._check(
                not self._epc.is_resident(page),
                f"abort at t={now} would cancel page {page}, which is "
                "already loaded into the EPC; aborts may only drop queued "
                "(not-yet-started) preloads",
            )

    def check_counters(self, preload_counter: int, acc_counter: int, now: int) -> None:
        """The service-thread scan just updated the valve counters."""
        self.note(
            f"[{now}] scan: PreloadCounter={preload_counter} "
            f"AccPreloadCounter={acc_counter}"
        )
        self._check(
            preload_counter >= self._last_preload_counter,
            f"PreloadCounter decreased at t={now}: "
            f"{self._last_preload_counter} -> {preload_counter}",
        )
        self._check(
            acc_counter >= self._last_acc_counter,
            f"AccPreloadCounter decreased at t={now}: "
            f"{self._last_acc_counter} -> {acc_counter}",
        )
        self._check(
            acc_counter <= preload_counter,
            f"AccPreloadCounter {acc_counter} exceeds PreloadCounter "
            f"{preload_counter} at t={now}: more preloads credited as "
            "accessed than were ever completed",
        )
        self._last_preload_counter = preload_counter
        self._last_acc_counter = acc_counter

    def check_aged(self, base: int, limit: int, now: int) -> None:
        """The scan just ran: pages ``[base, limit)`` must be aged.

        The scan ages only each driver's dirty span, so an accessed bit
        set without widening the span survives it (and its preload
        credit is never taken).
        """
        stale = (
            self._epc.status_table[base:limit]
            .translate(_ACCESSED_ONLY)
            .count(PAGE_ACCESSED)
        )
        self._check(
            not stale,
            f"{stale} page(s) of [{base}, {limit}) still have the accessed "
            f"bit set after the scan at t={now}: an accessed bit was set "
            "outside the driver's dirty span",
        )

    def check_tick(self, stats: "RunStats", clock: int, now: int) -> None:
        """Per-tick accounting: buckets must reconstruct the clock.

        ``clock`` is the driver's application-time high-water mark at
        the tick (scan time ``now`` may lag it; the buckets are only
        mutated at access boundaries, where they equal the clock).
        """
        total = stats.time.total
        self._check(
            total == clock,
            f"cycle accounting drifted at scan t={now}: buckets sum to "
            f"{total} but the application clock reads {clock} "
            f"(delta {total - clock:+d})",
        )

    def check_final(self, stats: "RunStats", clock: int) -> None:
        """End-of-run sweep once the driver has drained."""
        self.note(f"[{clock}] run end")
        self.check_tick(stats, clock, clock)
        self._check(
            self._epc.resident_count <= self._epc.capacity,
            f"EPC over-committed at run end: {self._epc.resident_count} "
            f"resident pages > capacity {self._epc.capacity}",
        )
        self._check(
            stats.preloads_aborted <= stats.preloads_enqueued,
            f"more preloads aborted ({stats.preloads_aborted}) than were "
            f"ever enqueued ({stats.preloads_enqueued})",
        )
