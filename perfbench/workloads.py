"""The benchmark's workloads, driven only through the simulator's public API.

Each workload is one *pass*: a fixed list of jobs run serially in this
process under the default (serial) execution policy.  A pass builds
its inputs (set-up), simulates them and digests every result's
manifest.  Inputs are a pure function of the benchmark seed: every
trace seed is derived from it by :func:`derive_seed`.

Library functions are called through their modules (``sweep.compare_
schemes``, ``manifest.build_manifest``, ...) so that the traced run's
wrappers (:mod:`perfbench.layers`) see every call.
"""

from __future__ import annotations

import hashlib
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import instrumentation, profiler
from repro.core.config import SimConfig
from repro.obs import manifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.paging import PagingProfiler
from repro.obs.trace import RingBufferSink
from repro.sim import engine, fleet, sweep
from repro.sim.tracecache import shared_trace_cache
from repro.workloads.registry import build_workload
from repro.workloads.requests import RequestProfile

#: Scale of the solo workloads' traces and EPC (``SimConfig.scaled``).
SOLO_SCALE = 8
#: Scale of the fleet tenants.
FLEET_SCALE = 16

FAULTBOUND_TRACES = ("lbm", "microbenchmark", "bwaves", "wrf", "roms")
FAULTBOUND_SCHEMES = ("baseline", "dfp", "dfp-stop")
HITBOUND_TRACES = (
    "leela", "exchange2", "cactuBSSN", "nab", "imagick", "mcf", "mcf.2006", "deepsjeng",
)
HITBOUND_SCHEMES = ("baseline", "sip", "hybrid")

#: Observed jobs: (source workload, trace, scheme).  Each is re-run
#: with every observer attached beside a blind twin that is the very
#: job the source workload runs (same derived seed, same digest).
OBSERVED_JOBS = (
    ("solo-faultbound", "lbm", "dfp-stop"),
    ("solo-hitbound", "mcf", "hybrid"),
    ("solo-hitbound", "deepsjeng", "hybrid"),
)
OBSERVED_RING_CAPACITY = 4096

#: The churning fleet's tenant mix, repeated to FLEET_TENANTS tenants:
#: fault-bound (lbm, microbenchmark, wrf), irregular (mcf, xz) and
#: hit-bound (nab, imagick, exchange2) traces, some behind open-loop
#: request profiles whose ``max_requests`` bounds their share of the run.
FLEET_MIX: Tuple[Tuple[str, str, Optional[RequestProfile]], ...] = (
    ("lbm", "dfp", None),
    ("nab", "baseline", None),
    ("mcf", "hybrid", RequestProfile("poisson", 400_000, 32, 150)),
    ("microbenchmark", "dfp-stop", RequestProfile("uniform", 2_000_000, 128, 40)),
    ("imagick", "hybrid", None),
    ("xz", "dfp-stop", RequestProfile("poisson", 300_000, 32, 200)),
    ("exchange2", "baseline", RequestProfile("uniform", 1_000_000, 128, 60)),
    ("wrf", "dfp", RequestProfile("periodic", 1_500_000, 128, 40)),
)
FLEET_TENANTS = 24
#: Tenants arrive in waves of FLEET_WAVE, FLEET_WAVE_GAP cycles apart,
#: behind an admission cap of FLEET_MAX_ADMITTED, so most of them queue
#: and every departure admits the next.
FLEET_WAVE = 6
FLEET_WAVE_GAP = 100_000_000
FLEET_MAX_ADMITTED = 8
FLEET_SPINUP_PAGES = 16
FLEET_REBALANCE_CYCLES = 20_000_000
FLEET_POLICIES = ("shared-clock", "adaptive-quota")
FLEET_NAME = "churn-24"


def derive_seed(seed: int, workload: str, item: str) -> int:
    """Trace seed of ``item`` in ``workload``, derived from the benchmark seed."""
    text = f"{seed}/{workload}/{item}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big")


@dataclass
class JobRow:
    """One job's outcome: a row of the benchmark's per-job output."""

    workload: str
    item: str
    seed: int
    scheme: str
    host_s: float = 0.0
    accesses: int = 0
    faults: int = 0
    digest: Optional[str] = None
    error: Optional[str] = None

    @property
    def key(self) -> str:
        """Identity of the job across passes and in the reference file."""
        return f"{self.workload}|{self.item}|{self.scheme}"


#: Simulated counters summed over a pass (per-layer counts, never gated).
COUNT_FIELDS = (
    "accesses", "epc_hits", "faults", "sip_checks", "sip_loads",
    "preloads_enqueued", "preloads_completed", "preloads_aborted",
    "preloads_accessed", "evictions", "valve_stops", "scans",
)


@dataclass
class PassResult:
    """Host times, simulated counts and job rows of one pass."""

    wall_s: float = 0.0
    setup_s: float = 0.0
    sim_s: float = 0.0
    jobs: List[JobRow] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNT_FIELDS, 0))
    #: Workload-specific extras: observer times, fleet tenant tallies.
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def accesses(self) -> int:
        return self.counts["accesses"]

    def add_stats(self, stats) -> None:
        for name in COUNT_FIELDS:
            self.counts[name] += getattr(stats, name)


class NullRecorder:
    """Span sink of an untraced pass: records nothing."""

    def span(self, name: str, **attrs: object) -> nullcontext:
        return nullcontext()


def _failed(row: JobRow, exc: BaseException) -> None:
    """Mark ``row`` failed and report the traceback on stderr."""
    row.error = f"{type(exc).__name__}: {exc}"
    traceback.print_exc(file=sys.stderr)


def _compile_plan(workload, config: SimConfig, seed: int):
    """The SIP plan ``compare_schemes`` would compile: train-input profile."""
    profile = profiler.profile_workload(workload, config, input_set="train", seed=seed)
    return instrumentation.build_sip_plan(profile, config.sip_threshold)


def _solo_pass(
    name: str, traces, schemes, sip: bool, seed: int, rec
) -> PassResult:
    clock = time.perf_counter
    config = SimConfig.scaled(SOLO_SCALE)
    cache = shared_trace_cache()
    # Every pass generates its traces afresh: trace generation is part
    # of what a `repro compare` user waits for, so it is set-up time.
    cache.clear()
    out = PassResult()
    start = clock()
    with rec.span(name):
        for trace_name in traces:
            tseed = derive_seed(seed, name, trace_name)
            rows = [JobRow(name, trace_name, tseed, scheme) for scheme in schemes]
            with rec.span(trace_name):
                t0 = clock()
                try:
                    with rec.span("setup"):
                        workload = build_workload(trace_name, scale=SOLO_SCALE)
                        cache.get(workload, seed=tseed, input_set="ref")
                        plan = _compile_plan(workload, config, tseed) if sip else None
                except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
                    for row in rows:
                        _failed(row, exc)
                    out.jobs.extend(rows)
                    continue
                finally:
                    out.setup_s += clock() - t0
                # One scheme per compare_schemes call, so that each job's
                # host seconds are its own; the trace materialized in
                # set-up is served from the shared cache every time.
                for row in rows:
                    try:
                        t1 = clock()
                        with rec.span("compare", scheme=row.scheme):
                            result = sweep.compare_schemes(
                                workload, config, [row.scheme], seed=tseed, sip_plan=plan
                            )[row.scheme]
                        t2 = clock()
                        with rec.span("manifest", scheme=row.scheme):
                            row.digest = manifest.manifest_digest(
                                manifest.build_manifest(result, workload=workload)
                            )
                        row.host_s = t2 - t1
                        out.sim_s += row.host_s
                        row.accesses = result.stats.accesses
                        row.faults = result.stats.faults
                        out.add_stats(result.stats)
                        _check_identity(result.stats)
                    except Exception as exc:  # noqa: BLE001
                        _failed(row, exc)
                    out.jobs.append(row)
    out.wall_s = clock() - start
    return out


def _check_identity(stats) -> None:
    """Every access is exactly one EPC hit or one fault."""
    if stats.accesses != stats.epc_hits + stats.faults:
        raise AssertionError(
            f"accesses {stats.accesses} != hits {stats.epc_hits} + faults {stats.faults}"
        )


def faultbound_pass(seed: int, rec) -> PassResult:
    return _solo_pass(
        "solo-faultbound", FAULTBOUND_TRACES, FAULTBOUND_SCHEMES, False, seed, rec
    )


def hitbound_pass(seed: int, rec) -> PassResult:
    return _solo_pass(
        "solo-hitbound", HITBOUND_TRACES, HITBOUND_SCHEMES, True, seed, rec
    )


def observed_pass(seed: int, rec) -> PassResult:
    """Blind twin, then the same job with every observer attached."""
    clock = time.perf_counter
    config = SimConfig.scaled(SOLO_SCALE)
    observed_config = config.replace(sanitize=True)
    cache = shared_trace_cache()
    cache.clear()
    out = PassResult()
    out.extra.update({"blind_s": 0.0, "observed_s": 0.0})
    start = clock()
    with rec.span("solo-observed"):
        for source, trace_name, scheme in OBSERVED_JOBS:
            tseed = derive_seed(seed, source, trace_name)
            blind_row = JobRow("solo-observed", f"{trace_name}:blind", tseed, scheme)
            seen_row = JobRow("solo-observed", f"{trace_name}:observed", tseed, scheme)
            with rec.span(trace_name):
                try:
                    t0 = clock()
                    with rec.span("setup"):
                        workload = build_workload(trace_name, scale=SOLO_SCALE)
                        trace = cache.get(workload, seed=tseed, input_set="ref")
                        plan = (
                            _compile_plan(workload, config, tseed)
                            if scheme in sweep.SIP_SCHEMES
                            else None
                        )
                    out.setup_s += clock() - t0
                    t1 = clock()
                    with rec.span("blind", scheme=scheme):
                        blind = engine.simulate(
                            workload, config, scheme, seed=tseed, sip_plan=plan, trace=trace
                        )
                    t2 = clock()
                    paging = PagingProfiler()
                    with rec.span("observed", scheme=scheme):
                        seen = engine.simulate(
                            workload, observed_config, scheme, seed=tseed, sip_plan=plan,
                            trace=trace, metrics=MetricsRegistry(enabled=True),
                            tracer=RingBufferSink(OBSERVED_RING_CAPACITY), profiler=paging,
                        )
                    t3 = clock()
                    with rec.span("manifest", scheme=scheme):
                        blind_row.digest = manifest.manifest_digest(
                            manifest.build_manifest(blind, workload=workload)
                        )
                        seen_row.digest = manifest.manifest_digest(
                            manifest.build_manifest(
                                seen, workload=workload, paging_profile=paging.profile()
                            )
                        )
                    blind_row.host_s = t2 - t1
                    seen_row.host_s = t3 - t2
                    out.extra["blind_s"] += blind_row.host_s
                    out.extra["observed_s"] += seen_row.host_s
                    out.sim_s += t3 - t1
                    for row, result in ((blind_row, blind), (seen_row, seen)):
                        row.accesses = result.stats.accesses
                        row.faults = result.stats.faults
                        out.add_stats(result.stats)
                    _check_identity(blind.stats)
                    if seen.stats != blind.stats or seen.total_cycles != blind.total_cycles:
                        raise AssertionError(
                            f"observed {trace_name} {scheme} differs from its blind twin"
                        )
                except Exception as exc:  # noqa: BLE001
                    _failed(seen_row, exc)
                    if blind_row.digest is None:
                        _failed(blind_row, exc)
            out.jobs.extend((blind_row, seen_row))
    out.wall_s = clock() - start
    return out


def build_fleet_scenarios(seed: int) -> List[fleet.FleetScenario]:
    """The churning fleet under each policy; SIP plans compiled up front."""
    config = SimConfig.scaled(FLEET_SCALE)
    tseed = derive_seed(seed, "fleet-churn", FLEET_NAME)
    plans = {}
    tenants = []
    for index in range(FLEET_TENANTS):
        trace_name, scheme, requests = FLEET_MIX[index % len(FLEET_MIX)]
        workload = build_workload(trace_name, scale=FLEET_SCALE)
        plan = None
        if scheme in sweep.SIP_SCHEMES:
            if trace_name not in plans:
                plans[trace_name] = _compile_plan(workload, config, tseed)
            plan = plans[trace_name]
        tenants.append(
            fleet.TenantSpec(
                workload=workload,
                scheme=scheme,
                arrival=(index // FLEET_WAVE) * FLEET_WAVE_GAP,
                requests=requests,
                name=f"{trace_name}#{index}",
                sip_plan=plan,
            )
        )
    return [
        fleet.FleetScenario(
            name=FLEET_NAME,
            tenants=tuple(tenants),
            policy=policy,
            seed=tseed,
            config=config,
            max_admitted=FLEET_MAX_ADMITTED,
            spinup_pages=FLEET_SPINUP_PAGES,
            rebalance_period_cycles=FLEET_REBALANCE_CYCLES,
        )
        for policy in FLEET_POLICIES
    ]


def fleet_pass(seed: int, rec) -> PassResult:
    clock = time.perf_counter
    out = PassResult()
    out.extra.update({"tenants_admitted": 0, "tenants_truncated": 0})
    start = clock()
    with rec.span("fleet-churn"):
        rows = [
            JobRow("fleet-churn", f"{FLEET_NAME}@{policy}", 0, "mixed")
            for policy in FLEET_POLICIES
        ]
        t0 = clock()
        try:
            with rec.span("setup"):
                scenarios = build_fleet_scenarios(seed)
        except Exception as exc:  # noqa: BLE001
            for row in rows:
                _failed(row, exc)
            out.jobs.extend(rows)
            out.wall_s = clock() - start
            return out
        finally:
            out.setup_s += clock() - t0
        for row, scenario in zip(rows, scenarios):
            row.seed = scenario.seed
            with rec.span(row.item):
                try:
                    t1 = clock()
                    with rec.span("simulate", policy=scenario.policy):
                        result = fleet.simulate_fleet(scenario)
                    t2 = clock()
                    with rec.span("manifest", policy=scenario.policy):
                        row.digest = manifest.manifest_digest(result.manifest())
                    row.host_s = t2 - t1
                    out.sim_s += row.host_s
                    for run in result.results:
                        out.add_stats(run.stats)
                        _check_identity(run.stats)
                    row.accesses = sum(r.stats.accesses for r in result.results)
                    row.faults = sum(r.stats.faults for r in result.results)
                    summary = result.fleet_block()["summary"]
                    out.extra["tenants_admitted"] += summary["admitted"]
                    out.extra["tenants_truncated"] += summary["truncated"]
                except Exception as exc:  # noqa: BLE001
                    _failed(row, exc)
            out.jobs.append(row)
    out.wall_s = clock() - start
    return out


#: Workload name -> pass function ``(seed, recorder) -> PassResult``.
WORKLOADS: Dict[str, Callable[[int, object], PassResult]] = {
    "solo-faultbound": faultbound_pass,
    "solo-hitbound": hitbound_pass,
    "fleet-churn": fleet_pass,
    "solo-observed": observed_pass,
}
