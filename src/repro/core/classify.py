"""Class 1/2/3 access classification (Section 4.4).

The SIP pass decides where to instrument by replaying the profiled
access trace through the same stream machinery DFP uses at runtime
(Algorithm 1) and classifying each access by the page it touches:

* **Class 1** — the page is "on ``stream_list``", i.e. it was touched
  recently enough that it is in the EPC with high probability.  These
  accesses need no help.
* **Class 2** — the page is not on the list but is the sequential
  successor of some stream's tail.  DFP's runtime predictor captures
  these more effectively than static instrumentation, so SIP leaves
  them alone.
* **Class 3** — neither: an irregular access, the kind that produces
  an unpredictable EPC fault.  These are SIP's targets.

"In the EPC with high probability" is operationalized with a recency
window sized like the EPC itself: the classifier keeps an LRU set of
the ``window`` most recently touched distinct pages.  Under CLOCK
replacement the EPC contents approximate exactly that set, so the
Class 1 test is the profiler's best static proxy for residency.
"""

from __future__ import annotations

import enum
from collections import Counter, OrderedDict
from typing import Dict, Iterable, List, Tuple

from repro.errors import ConfigError

__all__ = ["AccessClass", "StreamClassifier"]


class AccessClass(enum.Enum):
    """The three access classes of Section 4.4."""

    #: Recently touched page — resident with high probability.
    CLASS1 = 1
    #: Sequential continuation of a tracked stream — DFP territory.
    CLASS2 = 2
    #: Irregular access — SIP's instrumentation target.
    CLASS3 = 3


class StreamClassifier:
    """Streaming classifier over a page-access trace.

    Feed accesses one at a time with :meth:`classify`, or a whole column
    at once with :meth:`classify_pages`; the classifier maintains its
    recency window and stream list incrementally, so a full profiling
    run is one linear pass.

    The stream list is searched in MRU order for the first tail a page
    extends, as Algorithm 1 does.  Most accesses extend no stream, so
    the classifier also counts tails per bucket of ``load_length + 1``
    pages: a tail the page can extend lies in the bucket of ``page - 1``
    or the one below, and when both are empty the walk is skipped.
    """

    def __init__(
        self,
        *,
        window: int,
        stream_list_length: int = 30,
        load_length: int = 4,
    ) -> None:
        if window <= 0:
            raise ConfigError(f"recency window must be positive, got {window}")
        if stream_list_length <= 0:
            raise ConfigError(
                f"stream_list_length must be positive, got {stream_list_length}"
            )
        if load_length <= 0:
            raise ConfigError(f"load_length must be positive, got {load_length}")
        self._window = window
        self._stream_length = stream_list_length
        self._match_window = load_length + 1
        # LRU over recently touched pages (the EPC-residency proxy).
        self._recent: "OrderedDict[int, None]" = OrderedDict()
        # Stream tails, most recently used first.
        self._tails: List[int] = []
        # tail // match_window -> number of tails in that bucket.
        self._buckets: Dict[int, int] = {}

    @property
    def window(self) -> int:
        """Capacity of the recency window (pages)."""
        return self._window

    @property
    def tails(self) -> Tuple[int, ...]:
        """Snapshot of the stream tails, most recently used first."""
        return tuple(self._tails)

    def classify(self, page: int) -> AccessClass:
        """Classify one access and update the classifier state."""
        return _BY_CODE[self.classify_pages((page,))[0]]

    def classify_pages(self, pages: Iterable[int]) -> List[int]:
        """Classify a run of accesses; return their class codes (1, 2, 3)."""
        recent = self._recent
        touch = recent.move_to_end
        forget_oldest = recent.popitem
        window = self._window
        tails = self._tails
        buckets = self._buckets
        width = self._match_window
        cap = self._stream_length
        codes: List[int] = []
        append = codes.append
        for page in pages:
            if page < 0:
                raise ConfigError(f"page number must be non-negative, got {page}")
            was_recent = page in recent
            # Tails ``page`` extends lie in [page - width, page - 1].
            index = -1
            bucket = (page - 1) // width
            if bucket in buckets or bucket - 1 in buckets:
                low = page - width
                for i, tail in enumerate(tails):
                    if low <= tail < page:
                        index = i
                        break
            # State updates mirror Algorithm 1: extensions move to the
            # head; irregular accesses seed a new stream in the LRU slot.
            if index >= 0:
                old = tails[index] // width
                new = page // width
                if old != new:
                    if buckets[old] == 1:
                        del buckets[old]
                    else:
                        buckets[old] -= 1
                    buckets[new] = buckets.get(new, 0) + 1
                if index:
                    del tails[index]
                    tails.insert(0, page)
                else:
                    tails[0] = page
                append(1 if was_recent else 2)
            elif not was_recent:
                if len(tails) >= cap:
                    old = tails.pop() // width
                    if buckets[old] == 1:
                        del buckets[old]
                    else:
                        buckets[old] -= 1
                tails.insert(0, page)
                new = page // width
                buckets[new] = buckets.get(new, 0) + 1
                append(3)
            else:
                append(1)
            if was_recent:
                touch(page)
            else:
                recent[page] = None
                if len(recent) > window:
                    forget_oldest(last=False)
        return codes

    def classify_trace(self, pages: "list[int]") -> Dict[AccessClass, int]:
        """Classify a whole trace; return per-class counts."""
        tally = Counter(self.classify_pages(pages))
        return {cls: tally[cls.value] for cls in AccessClass}


#: Class code (``AccessClass.value``) -> class.
_BY_CODE = (None, AccessClass.CLASS1, AccessClass.CLASS2, AccessClass.CLASS3)
