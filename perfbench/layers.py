"""Traced run: spans, per-layer timers and the per-layer metric catalogue.

The traced pass wraps the public methods and functions of each layer
*from the benchmark's side* -- the simulator itself is not modified.
Two kinds of record share one call stack, so that a record's self time
is its duration minus the time its children cover:

* **spans** -- one record per call, with name, start, end, parent id
  and attributes, for job-level calls (workload, trace or tenant,
  set-up, compare, manifest, ``simulate``);
* **aggregated timers** -- count, total and self time per name, for
  calls made once per access or more often (``SgxDriver.access``,
  ``LoadChannel`` methods, ``owner_of``, ...).

:data:`LAYER_METRICS` lists every per-layer metric with the end-to-end
metric and workload it is expected to move; ``BENCHMARK.json``'s
``per_layer`` list is this catalogue (checked by the self-tests).
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

from repro.core import instrumentation, profiler
from repro.core.dfp import DfpEngine
from repro.core.predictor import MultiStreamPredictor
from repro.enclave.driver import SgxDriver
from repro.enclave.epc import Epc
from repro.enclave.eviction import ClockEvictor
from repro.enclave.loader import LoadChannel
from repro.enclave.platform import AdaptiveQuotaFrames, FrameManager, SharedPlatform
from repro.enclave.sanitizer import SimSanitizer
from repro.obs import manifest
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.paging import PagingProfiler
from repro.obs.trace import RingBufferSink
from repro.sim import engine, fleet, sweep, tracecache


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric and the end-to-end metric it should move."""

    name: str
    unit: str
    better: str
    moves: str


_FAULT = "accesses_per_s on solo-faultbound"
_FAULT_FLEET = "accesses_per_s on solo-faultbound and fleet-churn"
_HIT = "accesses_per_s on solo-hitbound"
_SETUP_HIT = "setup_s, most on solo-hitbound"
_FLEET = "accesses_per_s on fleet-churn"
_OBS = "wall_s on solo-observed, nothing on the blind workloads"
_MANIFEST = "wall_s on solo-hitbound (shortest jobs)"
_COUNT = "output check (simulated count, repeats exactly)"
_SOLO = "accesses_per_s on both solo workloads"

LAYER_METRICS: Tuple[LayerMetric, ...] = (
    LayerMetric("workloads.trace.s", "s", "lower", _SETUP_HIT),
    LayerMetric("workloads.trace.events", "count", "lower", _SETUP_HIT),
    LayerMetric("sim.tracecache.hits", "count", "higher", _SETUP_HIT),
    LayerMetric("sim.tracecache.misses", "count", "lower", _SETUP_HIT),
    LayerMetric(
        "core.profiler.profile.s", "s", "lower",
        "setup_s on solo-hitbound, none on solo-faultbound",
    ),
    LayerMetric("core.profiler.profile.accesses", "count", "lower", "setup_s on solo-hitbound"),
    LayerMetric("core.instrumentation.plan.s", "s", "lower", "setup_s on solo-hitbound"),
    LayerMetric("core.instrumentation.points", "count", "lower", _COUNT),
    LayerMetric("sim.sweep.compare.s", "s", "lower", _SOLO),
    LayerMetric("sim.engine.simulate.calls", "count", "lower", _SOLO),
    LayerMetric("sim.engine.simulate.self_s", "s", "lower", _SOLO),
    LayerMetric("enclave.driver.access.calls", "count", "lower", _FAULT_FLEET),
    LayerMetric("enclave.driver.access.self_s", "s", "lower", _FAULT_FLEET),
    LayerMetric("enclave.driver.hit_ns", "ns", "lower", _HIT),
    LayerMetric("enclave.driver.fault_us", "us", "lower", _FAULT_FLEET),
    LayerMetric("enclave.driver.retire_run.calls", "count", "lower", _HIT),
    LayerMetric("enclave.driver.retire_run.self_s", "s", "lower", _HIT),
    LayerMetric("enclave.driver.sip_prefetch.calls", "count", "lower", _HIT),
    LayerMetric("enclave.driver.sip_prefetch.self_s", "s", "lower", _HIT),
    LayerMetric("enclave.driver.epc_hits", "count", "higher", _COUNT),
    LayerMetric("enclave.driver.faults", "count", "lower", _COUNT),
    LayerMetric("enclave.driver.sip_checks", "count", "lower", _COUNT),
    LayerMetric("enclave.driver.sip_loads", "count", "lower", _COUNT),
    LayerMetric("enclave.loader.self_s", "s", "lower", _FAULT),
    LayerMetric("enclave.loader.wait_for_current.calls", "count", "lower", _FAULT),
    LayerMetric("enclave.loader.preloads_enqueued", "count", "lower", _COUNT),
    LayerMetric("enclave.loader.preloads_completed", "count", "lower", _COUNT),
    LayerMetric("enclave.loader.preloads_aborted", "count", "lower", _COUNT),
    LayerMetric("enclave.loader.preloads_accessed", "count", "higher", _COUNT),
    LayerMetric("enclave.loader.preload_useful_ratio", "ratio", "higher", _FAULT),
    LayerMetric("enclave.epc.insert.self_s", "s", "lower", _FAULT),
    LayerMetric("enclave.epc.evict.self_s", "s", "lower", _FAULT),
    LayerMetric("enclave.eviction.select_victim.self_s", "s", "lower", _FAULT),
    LayerMetric("enclave.epc.evictions", "count", "lower", _COUNT),
    LayerMetric("core.dfp.on_fault.self_s", "s", "lower", _FAULT_FLEET),
    LayerMetric("core.predictor.on_fault.calls", "count", "lower", _FAULT_FLEET),
    LayerMetric("core.predictor.on_fault.self_s", "s", "lower", _FAULT_FLEET),
    LayerMetric("core.dfp.valve_stops", "count", "lower", _COUNT),
    LayerMetric("enclave.platform.poll.calls", "count", "lower", _FAULT_FLEET),
    LayerMetric("enclave.platform.poll.self_s", "s", "lower", _FAULT_FLEET),
    LayerMetric("enclave.platform.scans", "count", "lower", _COUNT),
    LayerMetric("enclave.platform.owner_of.calls", "count", "lower", _FAULT_FLEET),
    LayerMetric("enclave.platform.owner_of.self_s", "s", "lower", _FAULT_FLEET),
    LayerMetric("enclave.platform.frames.select_victim.self_s", "s", "lower", _FLEET),
    LayerMetric("enclave.platform.frames.rebalance.calls", "count", "lower", _FLEET),
    LayerMetric("enclave.platform.frames.rebalance.self_s", "s", "lower", _FLEET),
    LayerMetric(
        "sim.fleet.loop.self_s", "s", "lower", "accesses_per_s and peak_rss_mb on fleet-churn"
    ),
    LayerMetric("sim.fleet.tenants_admitted", "count", "higher", _COUNT),
    LayerMetric("sim.fleet.tenants_truncated", "count", "lower", _COUNT),
    LayerMetric("obs.sanitizer.self_s", "s", "lower", _OBS),
    LayerMetric("obs.paging.self_s", "s", "lower", _OBS),
    LayerMetric("obs.metrics.self_s", "s", "lower", _OBS),
    LayerMetric("obs.trace.self_s", "s", "lower", _OBS),
    LayerMetric("obs.observer_overhead_x", "x", "lower", _OBS),
    LayerMetric("obs.observed_s", "s", "lower", _OBS),
    LayerMetric("obs.blind_s", "s", "lower", _OBS),
    LayerMetric("obs.manifest.build.calls", "count", "lower", _MANIFEST),
    LayerMetric("obs.manifest.build.self_s", "s", "lower", _MANIFEST),
    LayerMetric("obs.manifest.digest.self_s", "s", "lower", _MANIFEST),
    LayerMetric("obs.manifest.git_sha.calls", "count", "lower", _MANIFEST),
    LayerMetric("obs.manifest.git_sha.self_s", "s", "lower", _MANIFEST),
    LayerMetric("bench.tracing_overhead_x", "x", "lower", "none: cost of the traced run itself"),
    LayerMetric("bench.traced_wall_s", "s", "lower", "none: base of bench.tracing_overhead_x"),
    LayerMetric("bench.untraced_wall_s", "s", "lower", "none: base of bench.tracing_overhead_x"),
)


def _public_methods(cls: type) -> List[str]:
    """Plain public functions defined on ``cls`` itself (no properties)."""
    return sorted(
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    )


#: Per-access (or finer) methods: aggregated timers, ``(class, method, key)``.
#: ``SgxDriver.access`` is timed separately to split hits from faults.
TIMED_METHODS: Tuple[Tuple[type, str, str], ...] = (
    (SgxDriver, "retire_run", "enclave.driver.retire_run"),
    (SgxDriver, "sip_prefetch", "enclave.driver.sip_prefetch"),
    *((LoadChannel, m, f"enclave.loader.{m}") for m in _public_methods(LoadChannel)),
    (Epc, "insert", "enclave.epc.insert"),
    (Epc, "evict", "enclave.epc.evict"),
    (ClockEvictor, "select_victim", "enclave.eviction.select_victim"),
    (DfpEngine, "on_fault", "core.dfp.on_fault"),
    (MultiStreamPredictor, "on_fault", "core.predictor.on_fault"),
    (SharedPlatform, "poll", "enclave.platform.poll"),
    (SharedPlatform, "owner_of", "enclave.platform.owner_of"),
    (FrameManager, "select_victim", "enclave.platform.frames.select_victim"),
    (AdaptiveQuotaFrames, "rebalance", "enclave.platform.frames.rebalance"),
    *((SimSanitizer, m, f"obs.sanitizer.{m}") for m in _public_methods(SimSanitizer)),
    *((PagingProfiler, m, f"obs.paging.{m}") for m in _public_methods(PagingProfiler)),
    (Counter, "inc", "obs.metrics.inc"),
    (Gauge, "set", "obs.metrics.set"),
    (Histogram, "observe", "obs.metrics.observe"),
    (MetricsRegistry, "as_dict", "obs.metrics.as_dict"),
    (RingBufferSink, "emit", "obs.trace.emit"),
    (fleet.FleetResult, "manifest", "obs.manifest.fleet"),
)

#: Job-level functions: one span per call, ``(module, function, key, tally)``.
#: ``tally`` maps a call's result to the work it did (summed per key in
#: :attr:`Recorder.tallies`), or is None.
SPANNED_FUNCTIONS = (
    (engine, "simulate", "sim.engine.simulate", None),
    (sweep, "compare_schemes", "sim.sweep.compare", None),
    (fleet, "simulate_fleet", "sim.fleet.simulate_fleet", None),
    (profiler, "profile_workload", "core.profiler.profile", lambda p: p.total_accesses),
    (instrumentation, "build_sip_plan", "core.instrumentation.plan",
     lambda plan: plan.instrumentation_points),
    (tracecache, "materialize", "workloads.trace", len),
    (manifest, "build_manifest", "obs.manifest.build", None),
    (manifest, "manifest_digest", "obs.manifest.digest", None),
    (manifest, "git_sha", "obs.manifest.git_sha", None),
)


class Recorder:
    """Spans and aggregated timers of one traced pass, kept in memory."""

    def __init__(self) -> None:
        #: Finished spans, in end order.
        self.spans: List[Dict[str, object]] = []
        #: key -> [calls, total_s, self_s]
        self.timers: Dict[str, List[float]] = {}
        #: ``SgxDriver.access`` split: [hit calls, hit s, fault calls, fault s].
        self.access_split = [0, 0.0, 0, 0.0]
        #: key -> summed tally of a spanned function (events materialized,
        #: accesses profiled, SIP points compiled).
        self.tallies: Dict[str, int] = {}
        # One frame per open call: time covered by its finished children.
        self._stack: List[List[float]] = []
        self._open_spans: List[int] = []
        self._next_id = 1
        self._origin = time.perf_counter()
        self._undo: List[Tuple[object, str, object]] = []

    def _totals(self, key: str) -> List[float]:
        return self.timers.setdefault(key, [0, 0.0, 0.0])

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[None]:
        """Record one span around the ``with`` body."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._open_spans[-1] if self._open_spans else None
        frame = [0.0]
        self._stack.append(frame)
        self._open_spans.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._open_spans.pop()
            elapsed = end - start
            if self._stack:
                self._stack[-1][0] += elapsed
            totals = self._totals(name)
            totals[0] += 1
            totals[1] += elapsed
            totals[2] += elapsed - frame[0]
            self.spans.append({
                "id": span_id,
                "parent": parent,
                "name": name,
                "start_s": start - self._origin,
                "end_s": end - self._origin,
                "self_s": elapsed - frame[0],
                **attrs,
            })

    def _timer(self, key: str, fn: Callable) -> Callable:
        stack = self._stack
        totals = self._totals(key)
        clock = time.perf_counter

        def timed(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return timed

    def _access_timer(self, fn: Callable) -> Callable:
        """Timer for ``SgxDriver.access`` that also splits hits from faults."""
        stack = self._stack
        totals = self._totals("enclave.driver.access")
        split = self.access_split
        clock = time.perf_counter

        def access(driver, page, now):
            faults = driver.stats.faults
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(driver, page, now)
            finally:
                elapsed = clock() - start
                stack.pop()
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if driver.stats.faults == faults:
                    split[0] += 1
                    split[1] += elapsed
                else:
                    split[2] += 1
                    split[3] += elapsed

        return access

    def _span_function(self, key: str, fn: Callable, tally) -> Callable:
        recorder = self

        def spanned(*args, **kwargs):
            with recorder.span(key):
                result = fn(*args, **kwargs)
            if tally is not None:
                recorder.tallies[key] = recorder.tallies.get(key, 0) + tally(result)
            return result

        return spanned

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every traced method and function (undo with :meth:`uninstall`)."""
        self._patch(SgxDriver, "access", self._access_timer(vars(SgxDriver)["access"]))
        for cls, name, key in TIMED_METHODS:
            self._patch(cls, name, self._timer(key, vars(cls)[name]))
        # A function is rebound in every module that imported it by
        # name, so library-internal callers (compare_schemes calling
        # simulate, TraceCache.get calling materialize) are seen too.
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and name.split(".")[0] in ("repro", "perfbench")
        ]
        for home, name, key, tally in SPANNED_FUNCTIONS:
            original = getattr(home, name)
            wrapper = self._span_function(key, original, tally)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def total(self, key: str, index: int) -> float:
        """``index`` 0 = calls, 1 = total s, 2 = self s of timer ``key``."""
        return self.timers.get(key, [0, 0.0, 0.0])[index]

    def total_prefix(self, prefix: str, index: int) -> float:
        """Sum of ``index`` over every timer whose key starts with ``prefix``."""
        return sum(v[index] for k, v in self.timers.items() if k.startswith(prefix))
