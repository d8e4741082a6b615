"""Property-based tests: the dirty-span scan equals a full-table scan.

``SharedPlatform._scan`` counts credits and ages accessed bits only
over each driver's dirty span.  The reference below is the plain
definition: a per-range count of accessed+preloaded bytes, then one
translation of the *whole* status table.  At every scan of a randomly
driven platform, the real scan must produce the same per-owner credits
and the same table, and it must finish all of that before the first
``_after_scan`` runs.
"""

from contextlib import contextmanager
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SimConfig
from repro.core.dfp import DfpConfig, DfpEngine
from repro.enclave.driver import SgxDriver
from repro.enclave.enclave import Enclave
from repro.enclave.epc import PAGE_ACCESSED, PAGE_PRELOADED, PAGE_RESIDENT
from repro.enclave.platform import SharedPlatform
from repro.sim.engine import simulate
from repro.sim.tracecache import materialize_events, trace_key

from tests.conftest import ScriptedWorkload

_CREDITED = PAGE_RESIDENT | PAGE_ACCESSED | PAGE_PRELOADED
_AGED = bytes(
    PAGE_RESIDENT if code & PAGE_ACCESSED else code for code in range(256)
)


def reference_scan(table, ranges):
    """Credits per range and the aged table, by the definition."""
    credits = [table.count(_CREDITED, lo, hi) for lo, hi in ranges]
    return credits, bytes(table).translate(_AGED)


@contextmanager
def scan_oracle():
    """Check every scan against :func:`reference_scan`; yield a list
    that collects one entry per checked scan."""
    real_scan = SharedPlatform._scan
    checked = []

    def oracle_scan(platform, now):
        status = platform.epc.status_table
        owners = list(platform._owners)
        expected_credits, expected_table = reference_scan(
            status, [(lo, hi) for lo, hi, _driver in owners]
        )
        credits = []
        tables = []

        def spy(driver):
            real_after = driver._after_scan

            def after_scan(when, credited):
                tables.append(bytes(status))
                credits.append(credited)
                real_after(when, credited)

            return after_scan

        for _lo, _hi, driver in owners:
            driver.__dict__["_after_scan"] = spy(driver)
        try:
            real_scan(platform, now)
        finally:
            for _lo, _hi, driver in owners:
                del driver.__dict__["_after_scan"]
        assert credits == expected_credits
        # All counting and aging happened before the first _after_scan.
        assert tables[0] == expected_table
        assert bytes(status) == expected_table
        checked.append(sum(credits))

    with patch.object(SharedPlatform, "_scan", oracle_scan):
        yield checked


enclave_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=24),  # gap before the range
        st.integers(min_value=4, max_value=40),  # ELRANGE pages
        st.booleans(),  # DFP preloading on?
        st.booleans(),  # safety valve on?
    ),
    min_size=1,
    max_size=4,
)

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("access"),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=39),
            st.integers(min_value=1, max_value=60_000),
        ),
        st.tuples(
            st.just("poll"),
            st.just(0),
            st.just(0),
            st.integers(min_value=1, max_value=300_000),
        ),
    ),
    min_size=1,
    max_size=120,
)


def build_platform(specs, epc_pages):
    config = SimConfig(epc_pages=epc_pages, scan_period_cycles=100_000)
    platform = SharedPlatform(config)
    drivers = []
    base = 0
    for index, (gap, pages, dfp, valve) in enumerate(specs):
        base += gap
        engine = (
            DfpEngine(
                DfpConfig(
                    stream_list_length=4,
                    load_length=4,
                    valve_enabled=valve,
                    valve_slack=4,
                )
            )
            if dfp
            else None
        )
        enclave = Enclave(f"e{index}", elrange_pages=pages, base_page=base)
        drivers.append(
            SgxDriver(config, enclave, dfp=engine, platform=platform)
        )
        base += pages
    return platform, drivers


@given(
    enclave_specs,
    operations,
    st.integers(min_value=4, max_value=24),
)
@settings(max_examples=150, deadline=None)
def test_span_scan_equals_full_table_scan(specs, ops, epc_pages):
    with scan_oracle() as checked:
        platform, drivers = build_platform(specs, epc_pages)
        now = 0
        for kind, which, offset, dt in ops:
            now += dt
            if kind == "poll":
                platform.poll(now)
                continue
            driver = drivers[which % len(drivers)]
            enclave = driver.enclave
            page = enclave.base_page + offset % enclave.elrange_pages
            now = driver.access(page, now)
        for driver in drivers:
            driver.finish(now + 400_000)
    assert len(checked) == drivers[0].stats.scans


solo_traces = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # instruction
        st.integers(min_value=0, max_value=47),  # page
        st.integers(min_value=1, max_value=40_000),  # compute cycles
    ),
    min_size=1,
    max_size=300,
)


@given(
    solo_traces,
    st.sampled_from(["baseline", "dfp", "dfp-stop"]),
    st.integers(min_value=8, max_value=40),
)
@settings(max_examples=60, deadline=None)
def test_batched_engine_runs_widen_the_span(events, scheme, epc_pages):
    """The batched engine sets accessed bits in bulk; the scans of a
    batched run still equal full-table scans."""
    workload = ScriptedWorkload(events, footprint_pages=48)
    config = SimConfig(
        epc_pages=epc_pages, scan_period_cycles=150_000, valve_slack=8
    )
    trace = materialize_events(iter(events), trace_key(workload, 0, "ref"))
    with scan_oracle() as checked:
        result = simulate(workload, config, scheme, trace=trace, engine="batched")
    assert len(checked) == result.stats.scans
