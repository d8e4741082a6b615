"""Property-based tests: classifier invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classify import AccessClass, StreamClassifier

pages_lists = st.lists(
    st.integers(min_value=0, max_value=5_000), min_size=1, max_size=300
)


@given(pages_lists)
@settings(max_examples=150)
def test_every_access_gets_exactly_one_class(pages):
    c = StreamClassifier(window=16)
    counts = c.classify_trace(list(pages))
    assert sum(counts.values()) == len(pages)


@given(pages_lists)
@settings(max_examples=150)
def test_immediate_repeat_is_class1(pages):
    """Touching the same page twice in a row is always Class 1."""
    c = StreamClassifier(window=16)
    prev = None
    for page in pages:
        cls = c.classify(page)
        if prev is not None and page == prev:
            assert cls is AccessClass.CLASS1
        prev = page


@given(pages_lists)
@settings(max_examples=150)
def test_deterministic(pages):
    a = StreamClassifier(window=16)
    b = StreamClassifier(window=16)
    for page in pages:
        assert a.classify(page) is b.classify(page)


@given(st.integers(min_value=1, max_value=64), pages_lists)
@settings(max_examples=100)
def test_larger_window_never_decreases_class1(window, pages):
    """Monotonicity: growing the recency window can only move accesses
    *into* Class 1 (the window is the EPC-residency proxy)."""
    small = StreamClassifier(window=window)
    large = StreamClassifier(window=window * 2)
    small_counts = small.classify_trace(list(pages))
    large_counts = large.classify_trace(list(pages))
    assert large_counts[AccessClass.CLASS1] >= small_counts[AccessClass.CLASS1]


class _ListScanClassifier:
    """Reference: the classifier as a plain MRU list scan on every access."""

    def __init__(self, window, stream_list_length, load_length):
        self.window = window
        self.length = stream_list_length
        self.match_window = load_length + 1
        self.recent = []  # least recently touched first
        self.tails = []  # most recently used first

    def classify(self, page):
        was_recent = page in self.recent
        index = None
        for i, tail in enumerate(self.tails):
            if 0 < page - tail <= self.match_window:
                index = i
                break
        if was_recent:
            result = AccessClass.CLASS1
        elif index is not None:
            result = AccessClass.CLASS2
        else:
            result = AccessClass.CLASS3
        if index is not None:
            self.tails.pop(index)
            self.tails.insert(0, page)
        elif not was_recent:
            if len(self.tails) >= self.length:
                self.tails.pop()
            self.tails.insert(0, page)
        if was_recent:
            self.recent.remove(page)
        self.recent.append(page)
        if len(self.recent) > self.window:
            self.recent.pop(0)
        return result


# Pages clustered so that streams, bucket edges and window evictions
# all occur: short walks with small steps, restarted at random.
clustered_pages = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=400),
        st.lists(st.integers(min_value=-3, max_value=9), max_size=12),
    ),
    min_size=1,
    max_size=40,
).map(
    lambda walks: [
        max(0, start + sum(steps[:k]))
        for start, steps in walks
        for k in range(len(steps) + 1)
    ]
)


@given(
    st.one_of(clustered_pages, pages_lists),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=9),
    st.booleans(),
)
@settings(max_examples=300)
def test_indexed_classifier_equals_list_scan(pages, window, length, load_length, batch):
    """The bucket-indexed classifier makes the list scan's decisions:
    the same class for every access and the same final tails, whether
    pages arrive one by one or as one column."""
    fast = StreamClassifier(window=window, stream_list_length=length, load_length=load_length)
    ref = _ListScanClassifier(window, length, load_length)
    expected = [ref.classify(page) for page in pages]
    if batch:
        got = [AccessClass(code) for code in fast.classify_pages(pages)]
    else:
        got = [fast.classify(page) for page in pages]
    assert got == expected
    assert list(fast.tails) == ref.tails
