"""The simulation engine.

``simulate`` executes one workload trace against the enclave substrate
under one scheme, on a single virtual-cycle clock:

* compute cycles advance the clock;
* SIP-instrumented instructions run the notification stub first
  (:meth:`~repro.enclave.driver.SgxDriver.sip_prefetch`);
* every page touch goes through the driver
  (:meth:`~repro.enclave.driver.SgxDriver.access`), which services
  faults, runs the DFP machinery and the periodic service thread, and
  drains the background preload channel in correct time order.

The engine asserts the accounting invariant that the per-bucket time
breakdown reconstructs the total run time exactly — a cheap end-to-end
check that no simulated cycle is double-counted or lost.  With
``config.sanitize`` set, the driver additionally carries a
:class:`~repro.enclave.sanitizer.SimSanitizer` that re-proves this
identity at *every* service-thread tick and cross-checks the
EPC/channel/counter invariants per event, raising
:class:`~repro.errors.SanitizerError` with the offending event tail.

Two engines execute the hot loop:

* the **scalar** engine walks the trace one event at a time, exactly
  as described above;
* the **batched** engine exploits the event-horizon structure of the
  simulation: between two "interesting" times — the next load-channel
  completion and the next service-thread scan deadline
  (:meth:`~repro.enclave.platform.SharedPlatform.next_wakeup`) — a run
  of resident accesses changes nothing but the clock, the accessed
  bits and three counters.  When replaying a columnar
  :class:`~repro.sim.tracecache.MaterializedTrace` it bisects the
  trace's cumulative-cycles column to find how far the clock can
  advance before the horizon, scans that window for the first
  non-resident (or SIP-instrumented) page, and retires the whole
  resident prefix in one step — falling into the scalar per-event
  path only at faults, SIP notifications and horizon crossings.  A
  run-length governor keeps the worst case honest: bulk bookkeeping
  only pays off when runs are long enough, so the engine probes its
  own yield (events retired per iteration) and bursts through
  thrashing stretches with the plain scalar step, with exponential
  backoff while the trace stays hostile.

The two engines are byte-identical by contract (the differential grid
in ``tests/sim/test_batched_engine.py`` asserts equal manifests over
schemes × workloads × seeds × configs).  ``engine="auto"`` — the
default — picks the batched engine whenever it applies: a materialized
trace and no observers.  Observed runs (sanitizer, tracer, paging
profiler, enabled metrics, event recording) always keep the scalar
path so every per-event hook keeps firing; passivity guarantees are
untouched.

``simulate_native`` runs the same trace *outside* any enclave (first
touch of each page costs a regular ~2k-cycle fault) and exists for the
motivation experiment: the paper's observed ~46× slowdown of the
sequential microbenchmark inside SGX.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from itertools import accumulate, islice
from operator import add
from typing import Iterable, Optional

from repro.core.config import SimConfig
from repro.core.instrumentation import SipPlan, build_sip_plan
from repro.core.profiler import profile_workload
from repro.core.schemes import Scheme, make_scheme
from repro.enclave.driver import SgxDriver
from repro.enclave.enclave import Enclave
from repro.enclave.epc import PAGE_ACCESSED, PAGE_PRELOADED, PAGE_RESIDENT
from repro.errors import ConfigError, SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.paging import PagingProfiler
from repro.obs.trace import TraceSink
from repro.sim.results import RunResult
from repro.sim.tracecache import MaterializedTrace, materialize_events, trace_key
from repro.workloads.base import TraceEvent, Workload

__all__ = ["simulate", "simulate_native", "prepare_sip_plan", "ENGINE_CHOICES"]

#: Valid values of ``simulate``'s ``engine`` parameter.
ENGINE_CHOICES = ("auto", "scalar", "batched")

#: Retirement translation: set the accessed bit of every status byte.
#: A touch is idempotent under the bit encoding (``code | ACCESSED``),
#: so a whole run's bits are written with one C-level
#: ``map(table.__setitem__, run_pages, snapshot.translate(this))``
#: scatter — duplicate pages in the run write the same byte twice.
_OR_ACCESSED = bytes(code | PAGE_ACCESSED for code in range(256))

#: A resident, not-yet-accessed page with a pending preload credit —
#: the snapshot byte that marks a preload hit (first touch).
_PRELOAD_PENDING = PAGE_RESIDENT | PAGE_PRELOADED

#: Run-length governor (see ``_run_batched``).  Bulk retirement pays a
#: fixed bookkeeping cost per outer iteration (horizon bisect, window
#: snapshot, scatter); it wins only when each iteration retires enough
#: events to amortize that cost against the scalar fast path.  The
#: governor measures exactly that — events retired per iteration over
#: a probe of ``_PROBE_ITERS`` iterations — and when the yield is
#: below the breakeven threshold it bursts through the next span of
#: events with the plain scalar step (identical effects, no window
#: bookkeeping), doubling the span while probes keep failing so a
#: trace that never develops long runs converges to pure scalar
#: speed.  Instrumented traces get a lower threshold: their scalar
#: alternative pays a SIP notification call per event, so bulk pays
#: off at much shorter runs.
_PROBE_ITERS = 128
_MIN_YIELD = 16
_MIN_YIELD_SIP = 6
_SCALAR_SPAN = 8192
_SPAN_CAP = 1 << 20


def prepare_sip_plan(
    workload: Workload,
    config: SimConfig,
    *,
    threshold: Optional[float] = None,
    seed: int = 0,
) -> SipPlan:
    """Profile ``workload`` on its training input and compile a SIP plan.

    This is the full PGO pipeline of Section 3.2: profiling run on the
    *train* input set, per-instruction classification, threshold
    decision.  Performance runs then use the *ref* input set, exactly
    like the paper's methodology (Section 5.2).
    """
    profile = profile_workload(workload, config, input_set="train", seed=seed)
    return build_sip_plan(
        profile, config.sip_threshold if threshold is None else threshold
    )


def _run_batched(
    driver: SgxDriver,
    breakdown,
    instrumented,
    trace: MaterializedTrace,
    max_accesses: Optional[int],
    bitmap_check_cycles: int,
) -> int:
    """Consume a materialized trace in resident runs; return end time.

    The horizon invariant this loop rests on: strictly before
    ``driver.next_wakeup()`` no state transition can occur other than
    the ones the application's own resident touches make (accessed
    bits, preload-hit credit, a handful of counters).  So a maximal
    prefix of events whose completion times fall inside the horizon
    *and* whose pages are resident is retired in one step — the
    per-event poll, the ELRANGE check and the fault machinery provably
    cannot fire inside it.  A SIP-instrumented event on a *resident*
    page is retired inside the run too: its ``BIT_MAP_CHECK`` provably
    succeeds, so it reduces to fixed counter/time bumps.  Each check
    stretches the run's wall time by ``bitmap_check_cycles``; that
    delay is folded into a SIP-adjusted cumulative column computed
    once up front (``cum[k]`` plus one check per instrumented event so
    far), so the horizon window stays a single bisect.  The first
    event that crosses the horizon or misses residency goes through
    the scalar path, which advances the background machinery and
    re-opens the next horizon window.
    """
    pages = trace.pages
    instrs = trace.instructions
    cycles = trace.cycles
    cum = trace.cumulative_cycles
    n = len(pages)
    if max_accesses is not None and max_accesses < n:
        n = max_accesses
    epc = driver.epc
    # Cover every trace page so the status table can be indexed
    # unconditionally (pages outside the ELRANGE read PAGE_ABSENT and
    # take the scalar path, which raises the proper error).
    epc.ensure_page_span(trace.page_span[1] + 1)
    status = epc.status_table
    status_get = status.__getitem__
    status_set = status.__setitem__
    consume = deque(maxlen=0).extend
    next_wakeup = driver.platform.next_wakeup
    access = driver.access
    sip_prefetch = driver.sip_prefetch
    or_accessed = _OR_ACCESSED
    pending = _PRELOAD_PENDING
    # A retired run sets accessed bits inside the ELRANGE, so each run
    # widens the driver's dirty span to all of it (two stores; the
    # next scan ages the span and resets it).
    elrange_lo = driver._base_page
    elrange_hi = driver._limit_page
    # Run retirement is inlined below (RL011 sanctions bulk RunStats
    # mutation exactly here and in the driver): per
    # :meth:`~repro.enclave.driver.SgxDriver.retire_run`'s contract,
    # each run books ``stop`` accesses/EPC hits, its distinct preload
    # hits, and its SIP check/hit/bitmap-read counts.  The driver's
    # ``_last_now``/``_clock_hw`` stamps are deliberately *not* kept
    # per run: they only feed the monotonic-time guard (time never
    # moves backwards here) and the sanitizer's tick accounting (a
    # sanitized run is observed, hence never batched); the scalar
    # steps and ``finish()`` restamp them at every real interaction.
    stats = driver.stats
    bitmap = driver.bitmap
    if instrumented is not None:
        # One up-front C-level pass: which events are instrumented,
        # the running count of checks, and the check-adjusted prefix
        # sums the horizon bisect runs over.  ``horizon_cum[k]`` is
        # the virtual time *elapsed* once event k completes (compute
        # plus one BIT_MAP_CHECK per instrumented event ≤ k), so the
        # one bisect per window already accounts for the delay the
        # inlined checks inject.
        iflags = bytes(map(instrumented.__contains__, instrs[:n]))
        sip_counts = array("q", accumulate(iflags))
        horizon_cum = array(
            "q", map(add, cum[:n], map(bitmap_check_cycles.__mul__, sip_counts))
        )
    else:
        iflags = None
        sip_counts = None
        horizon_cum = cum
    now = 0
    i = 0
    # Scanned windows are capped to an adaptive chunk tracking recent
    # run lengths: the horizon can sit thousands of events away while
    # the run ends at the next fault, and snapshotting the full
    # horizon window every time would rescan the tail once per run
    # (quadratic in the window).  The chunk doubles while runs fill it
    # and shrinks towards twice the observed run length at blockers.
    chunk = 32
    # Run-length governor state: every _PROBE_ITERS outer iterations,
    # compare events retired against the breakeven yield; on a failing
    # probe, burst the next `span` events through the scalar step and
    # double the span (reset on a passing probe).  All transitions are
    # pure functions of the trace and counters, so governed runs stay
    # deterministic — and both paths have identical effects, so the
    # result stays byte-equal to the scalar engine either way.
    min_yield = _MIN_YIELD if instrumented is None else _MIN_YIELD_SIP
    probe_quota = _PROBE_ITERS * min_yield
    span = _SCALAR_SPAN
    iters = 0
    anchor_iters = 0
    anchor_i = 0
    while i < n:
        iters += 1
        if iters - anchor_iters >= _PROBE_ITERS:
            if i - anchor_i < probe_quota:
                end = i + span
                if end > n:
                    end = n
                if span < _SPAN_CAP:
                    span *= 2
                if iflags is None:
                    for k in range(i, end):
                        spent = cycles[k]
                        now += spent
                        breakdown.compute += spent
                        now = access(pages[k], now)
                else:
                    for k in range(i, end):
                        spent = cycles[k]
                        now += spent
                        breakdown.compute += spent
                        if iflags[k]:
                            now = sip_prefetch(pages[k], now)
                        now = access(pages[k], now)
                i = end
                if i >= n:
                    break
            else:
                span = _SCALAR_SPAN
            anchor_iters = iters
            anchor_i = i
        # Events [i, j) complete strictly before the horizon:
        # ``horizon_cum[k] - offset < next_wakeup() - now`` ⟺ event k
        # (including its bitmap check, if instrumented) finishes
        # before background state can change.
        offset = horizon_cum[i - 1] if i else 0
        hi = i + chunk
        if hi > n:
            hi = n
        j = bisect_left(horizon_cum, next_wakeup() - now + offset, i, hi)
        width = j - i
        stop = 0
        if width and status_get(pages[i]):
            # One C-level sweep snapshots the window's status bytes;
            # the snapshot stays valid for the whole window because
            # inside the horizon only this loop mutates page state.
            window = pages[i:j]
            flags = bytes(map(status_get, window))
            stop = flags.find(0)
            if stop < 0:
                stop = width
            chunk = 2 * stop
            if chunk > 16384:
                chunk = 16384
            elif chunk < 32:
                chunk = 32
            if stop:
                # Retire the run [i, i+stop): every page resident, so
                # every instrumented event's bitmap check hits.
                # Preload hits are the *distinct* pages whose snapshot
                # byte is still RESIDENT|PRELOADED (first touch of an
                # uncredited preload); the accessed bits are then
                # written back in one C-level scatter — OR-ing the
                # accessed bit is idempotent, so duplicate pages in
                # the run are naturally handled.
                if stop < width:
                    run = window[:stop]
                    rflags = flags[:stop]
                else:
                    run = window
                    rflags = flags
                hits = rflags.count(pending)
                if hits > 1:
                    seen = set()
                    pos = rflags.find(pending)
                    while pos >= 0:
                        seen.add(run[pos])
                        pos = rflags.find(pending, pos + 1)
                    hits = len(seen)
                consume(map(status_set, run, rflags.translate(or_accessed)))
                driver._dirty_lo = elrange_lo
                driver._dirty_hi = elrange_hi
                last = i + stop - 1
                delta = horizon_cum[last] - offset
                now += delta
                stats.accesses += stop
                stats.epc_hits += stop
                if hits:
                    stats.preload_hits += hits
                if sip_counts is None:
                    breakdown.compute += delta
                else:
                    spent = cum[last] - (cum[i - 1] if i else 0)
                    breakdown.compute += spent
                    sip_hits = sip_counts[last] - (sip_counts[i - 1] if i else 0)
                    if sip_hits:
                        breakdown.sip_check += delta - spent
                        stats.sip_checks += sip_hits
                        stats.sip_check_hits += sip_hits
                        bitmap.reads += sip_hits
                i += stop
            if stop == width:
                continue
        # One scalar event: the horizon crossing, fault or non-resident
        # SIP notification the run stopped at (or, with an empty
        # window, an overdue scan/completion the access's inlined poll
        # retires first).  Guarantees progress per outer iteration.
        page = pages[i]
        spent = cycles[i]
        now += spent
        breakdown.compute += spent
        if iflags is not None and iflags[i]:
            now = sip_prefetch(page, now)
        now = access(page, now)
        i += 1
    return now


def simulate(
    workload: Workload,
    config: SimConfig,
    scheme: "Scheme | str" = "baseline",
    *,
    seed: int = 0,
    input_set: str = "ref",
    sip_plan: Optional[SipPlan] = None,
    record_events: bool = False,
    max_accesses: Optional[int] = None,
    metrics: Optional["MetricsRegistry"] = None,
    tracer: Optional["TraceSink"] = None,
    event_capacity: Optional[int] = None,
    trace: Optional[Iterable[TraceEvent]] = None,
    profiler: Optional["PagingProfiler"] = None,
    engine: str = "auto",
) -> RunResult:
    """Run one workload under one scheme; return its result.

    ``scheme`` may be a prebuilt :class:`~repro.core.schemes.Scheme`
    or a scheme name; names needing SIP use ``sip_plan`` when given
    and otherwise compile one on the fly via :func:`prepare_sip_plan`.
    ``max_accesses`` truncates the trace (useful for tests).

    ``trace`` replays a pre-materialized event stream (see
    :mod:`repro.sim.tracecache`) instead of walking the workload's
    generator; it must be exactly what ``workload.trace(seed=seed,
    input_set=input_set)`` would yield, so results are identical
    either way — the scheme comparison drivers use this to walk a
    trace once and replay it for every scheme.

    ``engine`` selects the hot-loop implementation — results are
    byte-identical either way, so callers can never choose *wrong*,
    only slower:

    * ``"auto"`` (default): the batched event-horizon engine whenever
      it applies — a :class:`~repro.sim.tracecache.MaterializedTrace`
      to replay and no observers attached — else the scalar engine.
    * ``"scalar"``: always walk the trace one event at a time.
    * ``"batched"``: force the batched engine; materializes the trace
      first when handed a generator, and raises
      :class:`~repro.errors.ConfigError` when an observer is attached
      (observed runs need the per-event scalar hooks).

    The run's :class:`~repro.sim.results.RunResult` records the choice
    on its comparison-excluded ``engine`` field.

    Observability (all passive — none of these change the outcome):
    ``metrics`` is a :class:`~repro.obs.metrics.MetricsRegistry` the
    driver and DFP layers publish into (its dump lands on
    ``RunResult.metrics``); ``tracer`` is an extra
    :class:`~repro.obs.trace.TraceSink` receiving every timeline event
    as it happens; ``event_capacity`` bounds the ``record_events``
    ring buffer (most recent events win, drops are counted);
    ``profiler`` is a :class:`~repro.obs.paging.PagingProfiler` the
    driver feeds every paging decision (read its
    :meth:`~repro.obs.paging.PagingProfiler.profile` after the run).
    """
    if engine not in ENGINE_CHOICES:
        raise ConfigError(
            f"unknown engine {engine!r}; choose one of {ENGINE_CHOICES}"
        )
    observers = []
    if config.sanitize:
        observers.append("sanitizer")
    if record_events:
        observers.append("record_events")
    if tracer is not None:
        observers.append("tracer")
    if profiler is not None:
        observers.append("profiler")
    if metrics is not None and metrics.enabled:
        observers.append("metrics")
    if engine == "batched" and observers:
        raise ConfigError(
            "engine='batched' cannot run an observed simulation "
            f"({', '.join(observers)} attached): per-event hooks need "
            "the scalar path; use engine='auto' or 'scalar'"
        )
    use_batched = engine == "batched" or (
        engine == "auto" and not observers and isinstance(trace, MaterializedTrace)
    )
    if isinstance(scheme, str):
        if scheme in ("sip", "hybrid") and sip_plan is None:
            sip_plan = prepare_sip_plan(workload, config, seed=seed)
        scheme = make_scheme(scheme, config, sip_plan=sip_plan)

    dfp = scheme.build_dfp(metrics=metrics)
    sip = scheme.build_sip()
    points = scheme.sip_plan.instrumentation_points if scheme.sip_plan else 0
    enclave = Enclave(
        name=workload.name,
        elrange_pages=workload.elrange_pages,
        instrumentation_points=points,
    )
    driver = SgxDriver(
        config,
        enclave,
        dfp=dfp,
        record_events=record_events,
        metrics=metrics,
        tracer=tracer,
        event_capacity=event_capacity,
        profiler=profiler,
    )
    breakdown = driver.stats.time
    instrumented = sip.instrumented if sip is not None else None

    if use_batched and not isinstance(trace, MaterializedTrace):
        # engine="batched" on a generator (or an arbitrary event
        # stream): materialize once, truncating up front so a huge
        # trace capped by max_accesses is never fully walked.
        events = (
            trace
            if trace is not None
            else workload.trace(seed=seed, input_set=input_set)
        )
        if max_accesses is not None:
            events = islice(events, max_accesses)
        trace = materialize_events(
            events, trace_key(workload, seed, input_set)
        )
    if use_batched and trace.page_span[0] < 0:
        # Negative page numbers cannot index the status table; the
        # scalar engine raises the proper out-of-ELRANGE error at the
        # offending event.
        use_batched = False
    if use_batched:
        now = _run_batched(
            driver,
            breakdown,
            instrumented,
            trace,
            max_accesses,
            config.cost.bitmap_check_cycles,
        )
    else:
        now = 0
        sip_prefetch = driver.sip_prefetch
        access = driver.access
        events: Iterable[TraceEvent] = (
            trace
            if trace is not None
            else workload.trace(seed=seed, input_set=input_set)
        )
        if max_accesses is not None:
            events = islice(events, max_accesses)
        # Hot loop.  Two variants so the common non-SIP run pays
        # neither the membership test nor the extra branch per event;
        # both keep ``breakdown.compute`` current per event because the
        # sanitizer's per-tick accounting identity reads it mid-run.
        if instrumented is None:
            for _instr, page, cycles in events:
                now += cycles
                breakdown.compute += cycles
                now = access(page, now)
        else:
            for instr, page, cycles in events:
                now += cycles
                breakdown.compute += cycles
                if instr in instrumented:
                    now = sip_prefetch(page, now)
                now = access(page, now)
    driver.finish(now)
    if driver.sanitizer is not None:
        # End-of-run sweep: the per-tick checks ran at every scan; this
        # closes the run with the same identity at the final clock plus
        # the EPC-occupancy and abort-accounting invariants.
        driver.sanitizer.check_final(driver.stats, now)

    if breakdown.total != now:
        raise SimulationError(
            f"time accounting mismatch: buckets sum to {breakdown.total}, "
            f"clock reads {now}"
        )
    return RunResult(
        workload=workload.name,
        scheme=scheme.name,
        input_set=input_set,
        seed=seed,
        total_cycles=now,
        stats=driver.stats,
        config=config,
        sip_points=points,
        events=driver.events if record_events else None,
        metrics=(
            metrics.as_dict()
            if metrics is not None and metrics.enabled
            else None
        ),
        engine="batched" if use_batched else "scalar",
    )


def simulate_native(
    workload: Workload,
    config: SimConfig,
    *,
    seed: int = 0,
    input_set: str = "ref",
    max_accesses: Optional[int] = None,
) -> RunResult:
    """Run the workload outside SGX: regular minor faults only.

    First touch of each page costs ``regular_fault_cycles`` (~2k); all
    other touches are free beyond their compute.  Used to reproduce
    the motivation numbers of Sections 1–2.
    """
    from repro.enclave.stats import RunStats

    stats = RunStats()
    touched = set()
    fault_cost = config.cost.regular_fault_cycles
    now = 0
    count = 0
    for _instr, page, cycles in workload.trace(seed=seed, input_set=input_set):
        now += cycles
        stats.time.compute += cycles
        stats.accesses += 1
        if page not in touched:
            touched.add(page)
            stats.faults += 1
            now += fault_cost
            stats.time.fault_wait += fault_cost
        else:
            stats.epc_hits += 1
        count += 1
        if max_accesses is not None and count >= max_accesses:
            break
    return RunResult(
        workload=workload.name,
        scheme="native",
        input_set=input_set,
        seed=seed,
        total_cycles=now,
        stats=stats,
        config=config,
    )
