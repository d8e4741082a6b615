"""Measurement loop, output check, host record and result of one run.

A run repeats untraced passes of one workload until ``--seconds`` have
elapsed (at least :data:`MIN_PASSES`) and reports the medians.  With
``--trace 1`` it adds one traced pass (:mod:`perfbench.layers`) and
reports the per-layer metrics instead.

Output check: every job of every pass must digest exactly like the
same job in the run's first pass; at :data:`REFERENCE_SEED` it must
also match the digest stored in ``references.json``; observed jobs
must equal their blind twins (checked in :mod:`perfbench.workloads`).
A job that raises or fails a check counts as failed.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.sim.tracecache import shared_trace_cache

from perfbench import layers, workloads
from perfbench.workloads import NullRecorder, PassResult

#: Fewest untraced passes a run reports a median over.
MIN_PASSES = 3
#: Benchmark seed whose job digests are stored in ``references.json``.
REFERENCE_SEED = 0
REFERENCE_FILE = Path(__file__).with_name("references.json")
OUT_DIR = Path(__file__).with_name("out")

#: End-to-end metrics: name -> unit.
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "accesses_per_s": "1/s", "peak_rss_mb": "MB"}

#: Iterations of the fixed pure-Python calibration loop.
CALIBRATION_ITERS = 1_000_000


def calibrate() -> float:
    """Best-of-three host seconds of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_ITERS):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - start)
    return best


def host_record() -> Dict[str, object]:
    """What is needed to compare runs across hosts (recorded, not gated)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_s": calibrate(),
        "calibration_iters": CALIBRATION_ITERS,
    }


def load_references(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """Reference digests of ``workload`` at ``seed``, or None off the reference seed."""
    if seed != REFERENCE_SEED:
        return None
    data = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    prefix = workload + "|"
    return {k: v for k, v in data["digests"].items() if k.startswith(prefix)}


def check_pass(
    result: PassResult,
    first: Optional[PassResult],
    references: Optional[Dict[str, str]],
) -> int:
    """Mark and count the failed jobs of one pass."""
    baseline = {row.key: row.digest for row in first.jobs} if first is not None else {}
    failed = 0
    for row in result.jobs:
        if row.error is None and first is not None and baseline.get(row.key) != row.digest:
            row.error = "digest differs from the run's first pass"
        if row.error is None and references is not None and references.get(row.key) != row.digest:
            row.error = f"digest differs from the reference for seed {REFERENCE_SEED}"
        failed += row.error is not None
    return failed


def job_rows(passes: List[PassResult]) -> List[Dict[str, object]]:
    """One row per job: first pass's outcome, median host seconds over passes."""
    rows = []
    for index, row in enumerate(passes[0].jobs):
        host = [p.jobs[index].host_s for p in passes]
        errors = [p.jobs[index].error for p in passes if p.jobs[index].error]
        rows.append({
            "workload": row.workload,
            "item": row.item,
            "seed": row.seed,
            "scheme": row.scheme,
            "host_s": statistics.median(host),
            "accesses": row.accesses,
            "faults": row.faults,
            "digest": row.digest,
            "error": errors[0] if errors else None,
        })
    return rows


def peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    rec: layers.Recorder,
    traced: PassResult,
    untraced: List[PassResult],
    cache_hits: int,
    cache_misses: int,
) -> Dict[str, float]:
    """Every per-layer metric of :data:`layers.LAYER_METRICS`."""
    t = rec.total
    tp = rec.total_prefix
    c = traced.counts
    hit_calls, hit_s, fault_calls, fault_s = rec.access_split
    observed = statistics.median(p.extra.get("observed_s", 0.0) for p in untraced)
    blind = statistics.median(p.extra.get("blind_s", 0.0) for p in untraced)
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    return {
        "workloads.trace.s": t("workloads.trace", 1),
        "workloads.trace.events": rec.tallies.get("workloads.trace", 0),
        "sim.tracecache.hits": cache_hits,
        "sim.tracecache.misses": cache_misses,
        "core.profiler.profile.s": t("core.profiler.profile", 1),
        "core.profiler.profile.accesses": rec.tallies.get("core.profiler.profile", 0),
        "core.instrumentation.plan.s": t("core.instrumentation.plan", 1),
        "core.instrumentation.points": rec.tallies.get("core.instrumentation.plan", 0),
        "sim.sweep.compare.s": t("sim.sweep.compare", 1),
        "sim.engine.simulate.calls": t("sim.engine.simulate", 0),
        "sim.engine.simulate.self_s": t("sim.engine.simulate", 2),
        "enclave.driver.access.calls": t("enclave.driver.access", 0),
        "enclave.driver.access.self_s": t("enclave.driver.access", 2),
        "enclave.driver.hit_ns": _ratio(hit_s, hit_calls) * 1e9,
        "enclave.driver.fault_us": _ratio(fault_s, fault_calls) * 1e6,
        "enclave.driver.retire_run.calls": t("enclave.driver.retire_run", 0),
        "enclave.driver.retire_run.self_s": t("enclave.driver.retire_run", 2),
        "enclave.driver.sip_prefetch.calls": t("enclave.driver.sip_prefetch", 0),
        "enclave.driver.sip_prefetch.self_s": t("enclave.driver.sip_prefetch", 2),
        "enclave.driver.epc_hits": c["epc_hits"],
        "enclave.driver.faults": c["faults"],
        "enclave.driver.sip_checks": c["sip_checks"],
        "enclave.driver.sip_loads": c["sip_loads"],
        "enclave.loader.self_s": tp("enclave.loader.", 2),
        "enclave.loader.wait_for_current.calls": t("enclave.loader.wait_for_current", 0),
        "enclave.loader.preloads_enqueued": c["preloads_enqueued"],
        "enclave.loader.preloads_completed": c["preloads_completed"],
        "enclave.loader.preloads_aborted": c["preloads_aborted"],
        "enclave.loader.preloads_accessed": c["preloads_accessed"],
        "enclave.loader.preload_useful_ratio": _ratio(
            c["preloads_accessed"], c["preloads_completed"]
        ),
        "enclave.epc.insert.self_s": t("enclave.epc.insert", 2),
        "enclave.epc.evict.self_s": t("enclave.epc.evict", 2),
        "enclave.eviction.select_victim.self_s": t("enclave.eviction.select_victim", 2),
        "enclave.epc.evictions": c["evictions"],
        "core.dfp.on_fault.self_s": t("core.dfp.on_fault", 2),
        "core.predictor.on_fault.calls": t("core.predictor.on_fault", 0),
        "core.predictor.on_fault.self_s": t("core.predictor.on_fault", 2),
        "core.dfp.valve_stops": c["valve_stops"],
        "enclave.platform.poll.calls": t("enclave.platform.poll", 0),
        "enclave.platform.poll.self_s": t("enclave.platform.poll", 2),
        "enclave.platform.scans": c["scans"],
        "enclave.platform.owner_of.calls": t("enclave.platform.owner_of", 0),
        "enclave.platform.owner_of.self_s": t("enclave.platform.owner_of", 2),
        "enclave.platform.frames.select_victim.self_s": t(
            "enclave.platform.frames.select_victim", 2
        ),
        "enclave.platform.frames.rebalance.calls": t("enclave.platform.frames.rebalance", 0),
        "enclave.platform.frames.rebalance.self_s": t("enclave.platform.frames.rebalance", 2),
        "sim.fleet.loop.self_s": t("sim.fleet.simulate_fleet", 2),
        "sim.fleet.tenants_admitted": traced.extra.get("tenants_admitted", 0),
        "sim.fleet.tenants_truncated": traced.extra.get("tenants_truncated", 0),
        "obs.sanitizer.self_s": tp("obs.sanitizer.", 2),
        "obs.paging.self_s": tp("obs.paging.", 2),
        "obs.metrics.self_s": tp("obs.metrics.", 2),
        "obs.trace.self_s": tp("obs.trace.", 2),
        "obs.observer_overhead_x": _ratio(observed, blind),
        "obs.observed_s": observed,
        "obs.blind_s": blind,
        "obs.manifest.build.calls": t("obs.manifest.build", 0) + t("obs.manifest.fleet", 0),
        "obs.manifest.build.self_s": t("obs.manifest.build", 2) + t("obs.manifest.fleet", 2),
        "obs.manifest.digest.self_s": t("obs.manifest.digest", 2),
        "obs.manifest.git_sha.calls": t("obs.manifest.git_sha", 0),
        "obs.manifest.git_sha.self_s": t("obs.manifest.git_sha", 2),
        "bench.tracing_overhead_x": _ratio(traced.wall_s, untraced_wall),
        "bench.traced_wall_s": traced.wall_s,
        "bench.untraced_wall_s": untraced_wall,
    }


def traced_pass(run_pass, seed: int):
    """One pass with every layer wrapped; returns (pass, recorder, cache deltas)."""
    rec = layers.Recorder()
    cache = shared_trace_cache()
    hits, misses = cache.hits, cache.misses
    rec.install()
    try:
        result = run_pass(seed, rec)
    finally:
        rec.uninstall()
    return result, rec, cache.hits - hits, cache.misses - misses


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    references: Optional[Dict[str, str]] = None,
) -> Dict[str, object]:
    """Run ``workload`` for ``seconds``; return the full run record.

    ``references`` defaults to the stored digests (at the reference
    seed only); the self-tests pass tampered ones.
    """
    run_pass = workloads.WORKLOADS[workload]
    if references is None:
        references = load_references(workload, seed)
    host = host_record()
    passes: List[PassResult] = []
    failed = 0
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        # Free the previous pass's cyclic garbage (drivers and platforms
        # refer to each other) so each pass starts from the heap a fresh
        # process would have, and peak_rss_mb measures one pass.
        gc.collect()
        result = run_pass(seed, NullRecorder())
        failed += check_pass(result, passes[0] if passes else None, references)
        passes.append(result)
    attempted = sum(len(p.jobs) for p in passes)
    record: Dict[str, object] = {"host": host, "workload": workload, "seed": seed}
    if trace:
        gc.collect()
        result, rec, hits, misses = traced_pass(run_pass, seed)
        failed += check_pass(result, passes[0], references)
        attempted += len(result.jobs)
        values = layer_metrics(rec, result, passes, hits, misses)
        units = {m.name: m.unit for m in layers.LAYER_METRICS}
        record["spans"] = rec.spans
        record["timers"] = rec.timers
    else:
        values = {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "setup_s": statistics.median(p.setup_s for p in passes),
            "accesses_per_s": statistics.median(_ratio(p.accesses, p.sim_s) for p in passes),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = E2E_UNITS
    record["passes"] = [
        {"wall_s": p.wall_s, "setup_s": p.setup_s, "sim_s": p.sim_s, "accesses": p.accesses}
        for p in passes
    ]
    record["jobs"] = job_rows(passes)
    record["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    return record


def write_references(seed: int = REFERENCE_SEED) -> Dict[str, str]:
    """Recompute and store every workload's job digests at ``seed``."""
    digests: Dict[str, str] = {}
    for name, run_pass in workloads.WORKLOADS.items():
        result = run_pass(seed, NullRecorder())
        broken = [row for row in result.jobs if row.error is not None]
        if broken:
            raise RuntimeError(f"{name}: {broken[0].key} failed: {broken[0].error}")
        digests.update({row.key: row.digest for row in result.jobs})
    REFERENCE_FILE.write_text(
        json.dumps({"seed": seed, "digests": digests}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return digests


def write_record(record: Dict[str, object], trace: bool) -> Path:
    """Keep the run's full record (rows, passes, spans) under ``out/``."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{record['workload']}-seed{record['seed']}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return path


def print_rows(rows: List[Dict[str, object]]) -> None:
    """Per-job rows: workload, trace or tenant, seed, scheme, host s, accesses, faults, digest."""
    for row in rows:
        digest = (row["digest"] or "-").replace("sha256:", "")[:16]
        status = row["error"] or "ok"
        print(
            f"job {row['workload']:<15} {row['item']:<28} seed={row['seed']:<10} "
            f"{row['scheme']:<8} host_s={row['host_s']:.4f} accesses={row['accesses']} "
            f"faults={row['faults']} digest={digest} {status}"
        )
