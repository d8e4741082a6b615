"""Self-tests of the benchmark: its output check and its regression gate.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``
(about a minute: the slowdown test times six solo-faultbound passes).
"""

import json
import time
from pathlib import Path

from repro.enclave.driver import SgxDriver

from perfbench import bench, layers, workloads

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _bound(metric: str) -> float:
    return next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == metric)


def test_benchmark_json_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.E2E_UNITS
    assert SPEC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in layers.LAYER_METRICS
    ]


def test_tampered_reference_digest_is_a_failed_job(monkeypatch):
    monkeypatch.setattr(bench, "MIN_PASSES", 1)
    seed = bench.REFERENCE_SEED
    intact = bench.measure("solo-hitbound", seed, 0, False)["result"]
    assert intact["correct"] and intact["failed"] == 0

    references = bench.load_references("solo-hitbound", seed)
    key = sorted(references)[0]
    tampered = dict(references, **{key: "sha256:" + "0" * 64})
    result = bench.measure("solo-hitbound", seed, 0, False, references=tampered)["result"]
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_access_slowdown_moves_faultbound_wall_beyond_its_bound(monkeypatch):
    monkeypatch.setattr(bench, "MIN_PASSES", 3)
    original = SgxDriver.access

    def slowed(driver, page, now):
        start = time.perf_counter()
        result = original(driver, page, now)
        stop = start + 1.3 * (time.perf_counter() - start)
        while time.perf_counter() < stop:
            pass
        return result

    def wall_s() -> float:
        result = bench.measure("solo-faultbound", 1, 0, False)["result"]
        assert result["correct"]
        return result["metrics"]["wall_s"]["value"]

    base = wall_s()
    with monkeypatch.context() as patch:
        patch.setattr(SgxDriver, "access", slowed)
        slow = wall_s()
    assert slow / base - 1 > _bound("wall_s")


def test_traced_run_reports_every_layer_metric(monkeypatch):
    monkeypatch.setattr(bench, "MIN_PASSES", 1)
    access = SgxDriver.access
    record = bench.measure("solo-observed", bench.REFERENCE_SEED, 0, True)
    result = record["result"]
    assert result["correct"]
    assert list(result["metrics"]) == [m.name for m in layers.LAYER_METRICS]
    metrics = {name: v["value"] for name, v in result["metrics"].items()}
    for name in ("obs.sanitizer.self_s", "obs.paging.self_s", "obs.trace.self_s",
                 "enclave.driver.fault_us", "sim.engine.simulate.self_s"):
        assert metrics[name] > 0, name
    assert metrics["obs.observer_overhead_x"] > 1
    assert metrics["bench.tracing_overhead_x"] > 1
    # Spans form the chain workload -> trace -> set-up/blind/observed -> simulate.
    spans = {span["id"]: span for span in record["spans"]}
    simulate = next(s for s in spans.values() if s["name"] == "sim.engine.simulate")
    chain = []
    while simulate is not None:
        chain.append(simulate["name"])
        simulate = spans.get(simulate["parent"])
    assert chain[-1] == "solo-observed" and len(chain) == 4
    # Every wrapper is removed again after the traced pass.
    assert SgxDriver.access is access
