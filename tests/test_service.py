"""The shared service layer: one execution path for CLI and HTTP.

The load-bearing property is determinism of ``response_text()``: it
must be a pure function of (scenario, slo spec) -- independent of cache
temperature, worker count, and wall-clock -- because the daemon hands
the same bytes to every coalesced request and promises they match what
a solo run would have returned.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.slo import SLO_EXIT_CODE, SloMonitor
from repro.runtime.buildfarm import ArtifactStore
from repro.runtime.sweep import SweepCache
from repro.scenario import EpochsSpec, Scenario, TenancySpec, WorkloadSpec
from repro.service import (
    run_build_service,
    run_fleet_service,
    run_orchestrator_service,
    run_scenario,
    run_sweep_service,
    slo_monitor_for,
)

SWEEP = Scenario(kind="sweep", apps=("sec-gateway",), devices=("device-a",),
                 workload=WorkloadSpec(packet_sizes=(64, 256),
                                       packets_per_point=50))
FLEET = Scenario(kind="fleet",
                 tenancy=TenancySpec(flow_count=2_000, device_count=16,
                                     tenant_count=4))
BUILD = Scenario(kind="build", apps=("sec-gateway",), devices=("device-a",))


class TestSloMonitorFor:
    def test_none_disables(self):
        assert slo_monitor_for("sweep", None) is None

    def test_default_resolves_per_kind(self):
        for kind in ("sweep", "fleet", "build", "serve"):
            monitor = slo_monitor_for(kind, "default")
            assert isinstance(monitor, SloMonitor)
            assert monitor.specs

    def test_serve_defaults_cover_latency_errors_shedding(self):
        names = {spec.name for spec in slo_monitor_for("serve",
                                                       "default").specs}
        assert names == {"serve-request-p99", "serve-error-ratio",
                         "serve-shed-ratio"}

    def test_unknown_kind_is_loud(self):
        with pytest.raises(ConfigurationError, match="no default SLOs"):
            slo_monitor_for("warp", "default")

    def test_other_values_load_spec_files(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps(
            [{"name": "x", "metric": "a.b", "upper": 1.0}]))
        monitor = slo_monitor_for("sweep", str(path))
        assert monitor.specs[0].name == "x"

    def test_missing_file_is_loud(self, tmp_path):
        with pytest.raises(OSError):
            slo_monitor_for("sweep", str(tmp_path / "absent.json"))


class TestSweepService:
    def test_kind_mismatch_is_loud(self):
        with pytest.raises(ConfigurationError, match="kind"):
            run_sweep_service(FLEET)

    def test_payload_strips_cache_provenance(self):
        outcome = run_sweep_service(SWEEP)
        for point in outcome.payload["points"]:
            assert "cached" not in point
            assert "cache_key" in point   # content identity survives

    def test_warm_and_cold_responses_are_byte_identical(self):
        cache = SweepCache()
        cold = run_sweep_service(SWEEP, cache=cache)
        warm = run_sweep_service(SWEEP, cache=cache)
        assert cold.cache_hits == 0
        assert warm.cache_hits == len(warm.result)
        assert cold.response_text() == warm.response_text()

    def test_response_text_is_stable_across_worker_counts(self):
        # ``workers`` sizes the build farm only; a sweep ignores it.
        solo = run_scenario(SWEEP, workers=1)
        parallel = run_scenario(SWEEP, workers=4)
        assert solo.response_text() == parallel.response_text()

    def test_exit_code_follows_slo(self, tmp_path):
        path = tmp_path / "impossible.json"
        path.write_text(json.dumps(
            [{"name": "never", "metric": "sweep.*.throughput_gbps",
              "upper": 0.0}]))
        outcome = run_sweep_service(SWEEP, slo=str(path))
        assert outcome.exit_code == SLO_EXIT_CODE
        assert outcome.response_json()["exit_code"] == SLO_EXIT_CODE
        assert run_sweep_service(SWEEP).exit_code == 0


class TestBuildService:
    def test_payload_folds_cache_temperature(self):
        store = ArtifactStore()
        cold = run_build_service(BUILD, store=store)
        warm = run_build_service(BUILD, store=store)
        assert {t["status"] for t in cold.payload["targets"]} == {"ok"}
        assert cold.response_text() == warm.response_text()
        # the tier-native report still distinguishes built from cached
        assert cold.result.built > 0
        assert warm.result.cached > 0

    def test_kind_mismatch_is_loud(self):
        with pytest.raises(ConfigurationError, match="kind"):
            run_build_service(SWEEP)


class TestFleetService:
    def test_runs_and_reports_deterministically(self):
        first = run_fleet_service(FLEET, policies=("round-robin",))
        second = run_fleet_service(FLEET, policies=("round-robin",))
        assert first.response_text() == second.response_text()

    def test_kind_mismatch_is_loud(self):
        with pytest.raises(ConfigurationError, match="kind"):
            run_fleet_service(BUILD)


class TestOrchestratorService:
    EPOCH_FLEET = FLEET.replace(epochs=EpochsSpec(epochs=4, churn=0.02,
                                                  failure_every=2,
                                                  drain_every=3))

    def test_epochs_scenario_dispatches_to_orchestrator(self):
        outcome = run_fleet_service(self.EPOCH_FLEET)
        assert outcome.meta["epochs"] == 4
        assert outcome.payload["totals"]["arrivals"] > 0
        assert len(outcome.payload["epochs"]) == 4

    def test_modes_serialise_byte_identically(self):
        responses = {
            mode: run_fleet_service(self.EPOCH_FLEET,
                                    mode=mode).response_text()
            for mode in ("incremental", "full", "verify")}
        assert len(set(responses.values())) == 1

    def test_policies_and_epochs_together_are_loud(self):
        with pytest.raises(ConfigurationError, match="epochs"):
            run_fleet_service(self.EPOCH_FLEET, policies=("round-robin",))

    def test_plain_fleet_scenario_is_rejected(self):
        with pytest.raises(ConfigurationError, match="epochs"):
            run_orchestrator_service(FLEET)

    def test_meta_reports_mode_and_totals(self):
        outcome = run_orchestrator_service(self.EPOCH_FLEET, mode="verify")
        assert outcome.meta["mode"] == "verify"
        assert outcome.meta["totals"] == outcome.payload["totals"]


class TestDispatch:
    def test_routes_by_kind(self):
        assert run_scenario(SWEEP).kind == "sweep"
        assert run_scenario(FLEET).kind == "fleet"
        assert run_scenario(BUILD).kind == "build"

    def test_threads_resident_state_through(self):
        cache = SweepCache()
        store = ArtifactStore()
        run_scenario(SWEEP, cache=cache)
        run_scenario(BUILD, store=store)
        assert len(cache) > 0
        assert len(store) > 0

    def test_response_json_has_the_wire_shape(self):
        body = run_scenario(SWEEP).response_json()
        assert set(body) == {"kind", "scenario_id", "result", "slo",
                             "exit_code"}
        assert body["scenario_id"] == SWEEP.scenario_id()
        assert body["slo"] is None
