"""Differential suite for the batched event-horizon engine.

The batched engine's contract is byte-identity: for any trace, scheme
and config, replaying through ``engine="batched"`` must produce the
same :class:`RunResult` — stats, time breakdown, manifest digest — as
the per-event scalar walk.  The grid here sweeps workload shapes,
schemes, seeds, ``LOADLENGTH`` and EPC sizes, then pins the edge cases
the bulk path must hand back to the scalar step: faults, aborted
preloads, valve stops, SIP notifications and horizon crossings.
"""

import pytest

from repro.core.config import SimConfig
from repro.errors import ConfigError, SimulationError
from repro.obs.manifest import build_manifest, manifest_digest
from repro.sim.engine import ENGINE_CHOICES, prepare_sip_plan, simulate
from repro.sim.fleet import FleetScenario, TenantSpec, simulate_fleet
from repro.sim.results import RunResult
from repro.sim.tracecache import materialize
from repro.workloads.base import SyntheticWorkload
from repro.workloads.synthetic import (
    interleaved_streams,
    sequential,
    uniform_random,
    zipf_random,
)

from tests.conftest import ScriptedWorkload


def make_config(**overrides):
    base = dict(
        epc_pages=64,
        stream_list_length=12,
        load_length=4,
        scan_period_cycles=400_000,
        valve_slack=32,
    )
    base.update(overrides)
    return SimConfig(**base)


def seq_workload():
    return SyntheticWorkload(
        "seq", 256, {0: "scan"}, [sequential(0, 0, 256, compute=5_000, passes=3)]
    )


def rand_workload():
    return SyntheticWorkload(
        "rand",
        512,
        {0: "probe"},
        [uniform_random([0], 0, 512, 2_500, compute=5_000)],
    )


def zipf_workload():
    return SyntheticWorkload(
        "zipf",
        384,
        {0: "hot"},
        [zipf_random([0], 0, 384, 2_500, compute=4_000, alpha=1.1)],
    )


def streams_workload():
    return SyntheticWorkload(
        "streams",
        512,
        {0: "a", 1: "b", 2: "c", 3: "noise"},
        [
            interleaved_streams(
                [0, 1, 2],
                [(0, 160), (160, 320), (320, 480)],
                compute=4_000,
                jitter=500,
                noise_instr=3,
                noise_rate=0.05,
                noise_region=(480, 512),
            )
        ],
    )


WORKLOADS = {
    "seq": seq_workload,
    "rand": rand_workload,
    "zipf": zipf_workload,
    "streams": streams_workload,
}


def run_pair(workload, config, scheme, *, seed=0, sip_plan=None, max_accesses=None):
    """Run the same materialized trace through both engines."""
    trace = materialize(workload, seed=seed, input_set="ref")
    kwargs = dict(
        seed=seed, sip_plan=sip_plan, max_accesses=max_accesses, trace=trace
    )
    scalar = simulate(workload, config, scheme, engine="scalar", **kwargs)
    batched = simulate(workload, config, scheme, engine="batched", **kwargs)
    return scalar, batched


def assert_identical(scalar: RunResult, batched: RunResult):
    assert scalar.engine == "scalar"
    assert batched.engine == "batched"
    # Field-level equality (RunResult excludes `engine` from compare)...
    assert scalar == batched
    assert scalar.total_cycles == batched.total_cycles
    assert scalar.stats.as_dict() == batched.stats.as_dict()
    assert scalar.stats.time.as_dict() == batched.stats.time.as_dict()
    # ... and byte-level: the published manifests digest identically.
    assert manifest_digest(build_manifest(scalar)) == manifest_digest(
        build_manifest(batched)
    )


class TestDifferentialGrid:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    @pytest.mark.parametrize(
        "scheme", ["baseline", "dfp", "dfp-stop", "sip", "hybrid"]
    )
    def test_every_scheme_on_every_workload(self, name, scheme):
        workload = WORKLOADS[name]()
        config = make_config()
        plan = (
            prepare_sip_plan(workload, config)
            if scheme in ("sip", "hybrid")
            else None
        )
        assert_identical(*run_pair(workload, config, scheme, sip_plan=plan))

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_seeds_vary_the_trace_not_the_identity(self, seed):
        workload = rand_workload()
        assert_identical(
            *run_pair(workload, make_config(), "dfp-stop", seed=seed)
        )

    @pytest.mark.parametrize("load_length", [1, 4, 16])
    def test_loadlength_sweep(self, load_length):
        workload = seq_workload()
        config = make_config(load_length=load_length)
        assert_identical(*run_pair(workload, config, "dfp"))

    @pytest.mark.parametrize("epc_pages", [32, 64, 200])
    def test_epc_size_sweep(self, epc_pages):
        workload = streams_workload()
        config = make_config(epc_pages=epc_pages)
        assert_identical(*run_pair(workload, config, "dfp-stop"))

    def test_max_accesses_truncates_both_engines_alike(self):
        workload = seq_workload()
        scalar, batched = run_pair(
            workload, make_config(), "baseline", max_accesses=100
        )
        assert scalar.stats.accesses == 100
        assert_identical(scalar, batched)


class TestEdgeCoverage:
    """The cases where the bulk path must yield to the scalar step."""

    def test_fault_heavy_run_is_identical(self):
        # 256 pages thrashing a 64-frame EPC: a fault per touch on the
        # steady passes, so nearly every event leaves the bulk path.
        scalar, batched = run_pair(seq_workload(), make_config(), "baseline")
        assert scalar.stats.faults >= 256
        assert_identical(scalar, batched)

    def test_abort_and_eviction_paths_are_identical(self):
        # Random probing under DFP mispredicts: queued preloads get
        # aborted and unused preloads get evicted — both transitions
        # happen at horizon wakeups the batched engine must honour.
        scalar, batched = run_pair(rand_workload(), make_config(), "dfp")
        assert scalar.stats.preloads_aborted > 0
        assert scalar.stats.evictions > 0
        assert_identical(scalar, batched)

    def test_valve_stops_are_identical(self):
        config = make_config(valve_slack=4)
        scalar, batched = run_pair(rand_workload(), config, "dfp-stop")
        assert scalar.stats.valve_stops > 0
        assert_identical(scalar, batched)

    def test_sip_checks_retire_inside_runs(self):
        # Nearly every event of the hot zipf loop is instrumented, so
        # the batched engine retires resident BIT_MAP_CHECKs in bulk;
        # the check/hit counters and the sip_check time bucket must
        # still land byte-equal.
        workload = zipf_workload()
        config = make_config()
        plan = prepare_sip_plan(workload, config)
        scalar, batched = run_pair(workload, config, "sip", sip_plan=plan)
        assert scalar.stats.sip_checks > 0
        assert scalar.stats.sip_check_hits > 0
        assert_identical(scalar, batched)

    def test_tiny_scan_period_forces_many_horizon_crossings(self):
        config = make_config(scan_period_cycles=20_000)
        scalar, batched = run_pair(seq_workload(), config, "dfp-stop")
        assert scalar.stats.scans > 10
        assert_identical(scalar, batched)

    def test_single_event_trace(self):
        workload = ScriptedWorkload([(0, 0, 1_000)])
        assert_identical(*run_pair(workload, make_config(), "baseline"))

    def test_run_length_governor_transitions_stay_identical(self, monkeypatch):
        # Force the governor through both transitions on one trace: a
        # thrashing prefix (probe fails -> scalar bursts, span doubles)
        # followed by a resident loop (probe passes -> span resets).
        import repro.sim.engine as engine_mod

        monkeypatch.setattr(engine_mod, "_PROBE_ITERS", 8)
        monkeypatch.setattr(engine_mod, "_SCALAR_SPAN", 16)
        monkeypatch.setattr(engine_mod, "_SPAN_CAP", 64)
        thrash = [(0, p % 128, 800) for p in range(0, 4 * 128, 1)]
        resident = [(0, p % 24, 800) for p in range(600)]
        workload = ScriptedWorkload(thrash + resident, footprint_pages=128)
        config = make_config(epc_pages=48)
        assert_identical(*run_pair(workload, config, "baseline"))
        assert_identical(*run_pair(workload, config, "dfp"))

    def test_low_yield_trace_is_identical_under_governor(self):
        # Uniform probing over 8x the EPC: runs are a few events long,
        # so the real-constant governor spends most of the trace in
        # scalar bursts — the differential contract must hold across
        # every burst boundary.
        workload = SyntheticWorkload(
            "churn",
            512,
            {0: "probe"},
            [uniform_random([0], 0, 512, 3_000, compute=3_000)],
        )
        assert_identical(
            *run_pair(workload, make_config(epc_pages=64), "dfp-stop")
        )

    def test_duplicate_pages_in_one_run_count_preload_hits_once(self):
        # Touch the same preloaded page repeatedly inside one resident
        # run: the dedup in the bulk preload-hit count must match the
        # scalar engine's first-touch-only credit.
        events = [(0, p, 400) for p in range(8)]
        events += [(0, 3, 400), (0, 3, 400), (0, 4, 400)] * 6
        workload = ScriptedWorkload(events, footprint_pages=64)
        scalar, batched = run_pair(workload, make_config(), "dfp")
        assert_identical(scalar, batched)


class TestEngineSelection:
    def test_choices_constant(self):
        assert ENGINE_CHOICES == ("auto", "scalar", "batched")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            simulate(seq_workload(), make_config(), engine="vectorized")

    def test_auto_picks_batched_for_materialized_trace(self):
        workload = seq_workload()
        trace = materialize(workload, seed=0, input_set="ref")
        result = simulate(workload, make_config(), trace=trace)
        assert result.engine == "batched"

    def test_auto_keeps_scalar_for_generator_traces(self):
        result = simulate(seq_workload(), make_config())
        assert result.engine == "scalar"

    def test_auto_keeps_scalar_when_observed(self):
        workload = seq_workload()
        trace = materialize(workload, seed=0, input_set="ref")
        result = simulate(
            workload, make_config(), trace=trace, record_events=True
        )
        assert result.engine == "scalar"

    def test_forced_batched_rejects_observers(self):
        with pytest.raises(ConfigError, match="record_events"):
            simulate(
                seq_workload(),
                make_config(),
                record_events=True,
                engine="batched",
            )

    def test_forced_batched_materializes_generators(self):
        workload = seq_workload()
        batched = simulate(workload, make_config(), engine="batched")
        scalar = simulate(workload, make_config(), engine="scalar")
        assert batched.engine == "batched"
        assert scalar == batched

    def test_negative_pages_fall_back_to_the_scalar_error(self):
        workload = ScriptedWorkload([(0, 2, 100), (0, -5, 100)])
        with pytest.raises(SimulationError, match="outside ELRANGE") as scalar:
            simulate(workload, make_config(), engine="scalar")
        with pytest.raises(SimulationError, match="outside ELRANGE") as batched:
            simulate(workload, make_config(), engine="batched")
        assert str(scalar.value) == str(batched.value)


class TestSharedPlatform:
    """Multi-enclave runs lean on ``SharedPlatform.owner_of`` for every
    eviction attribution; the owner table must keep them exact."""

    def _workloads(self):
        return [
            SyntheticWorkload(
                "a", 96, {0: "s"}, [sequential(0, 0, 96, compute=4_000, passes=2)]
            ),
            SyntheticWorkload(
                "b",
                128,
                {0: "r"},
                [uniform_random([0], 0, 128, 600, compute=5_000)],
            ),
            SyntheticWorkload(
                "c", 64, {0: "s"}, [sequential(0, 0, 64, compute=3_000, passes=3)]
            ),
        ]

    def _run(self, config, schemes):
        scenario = FleetScenario(
            name="batched-shared",
            tenants=tuple(
                TenantSpec(workload=w, scheme=s)
                for w, s in zip(self._workloads(), schemes)
            ),
            config=config,
        )
        return simulate_fleet(scenario).results

    def test_shared_run_is_deterministic(self):
        config = make_config(epc_pages=96)
        first = self._run(config, ["dfp", "baseline", "dfp-stop"])
        second = self._run(config, ["dfp", "baseline", "dfp-stop"])
        assert [r.total_cycles for r in first] == [
            r.total_cycles for r in second
        ]
        assert [r.stats.as_dict() for r in first] == [
            r.stats.as_dict() for r in second
        ]

    def test_cross_enclave_pressure_keeps_invariants(self):
        config = make_config(epc_pages=96)
        results = self._run(config, ["dfp", "dfp", "dfp"])
        assert sum(r.stats.evictions for r in results) > 0
        for result in results:
            assert result.stats.epc_hits + result.stats.faults == (
                result.stats.accesses
            )
            assert result.stats.time.total == result.total_cycles
