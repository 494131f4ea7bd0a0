"""The unified declarative Scenario spec: validation, canonical
serialisation, identity, and the tier-native conversions."""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, HarmoniaError
from repro.runtime.buildfarm import DEFAULT_SOFTWARE, BuildPlan, fleet_build_plan
from repro.runtime.fleet import FleetSpec
from repro.runtime.sweep import SweepPlan, chain_signature, point_chain, sweep_cache_key
from repro.scenario import (
    DEFAULT_BUILD_SOFTWARE,
    SCENARIO_VERSION,
    BuildSpec,
    EpochsSpec,
    Scenario,
    TenancySpec,
    WorkloadSpec,
    load_scenario,
    loads_scenario,
    save_scenario,
)
from repro.scenario.spec import known_app_names, known_device_names


def sweep_scenario(**changes):
    base = Scenario(kind="sweep", apps=("sec-gateway",), devices=("device-a",))
    return base.replace(**changes) if changes else base


class TestValidation:
    def test_unknown_kind_lists_kinds(self):
        with pytest.raises(ConfigurationError, match="sweep, fleet, build"):
            Scenario(kind="orchestrate")

    def test_unknown_version_is_loud(self):
        with pytest.raises(ConfigurationError, match="version"):
            sweep_scenario(version=SCENARIO_VERSION + 1)

    def test_unknown_app_lists_known_names(self):
        scenario = sweep_scenario(apps=("nope",))
        with pytest.raises(ConfigurationError) as caught:
            scenario.validate_names()
        message = str(caught.value)
        assert "nope" in message
        for name in known_app_names():
            assert name in message

    def test_unknown_device_lists_catalog(self):
        scenario = sweep_scenario(devices=("nope",))
        with pytest.raises(ConfigurationError) as caught:
            scenario.validate_names()
        assert "device-a" in str(caught.value)

    def test_sweep_kind_needs_apps_and_devices(self):
        with pytest.raises(ConfigurationError, match="at least one app"):
            Scenario(kind="sweep")

    def test_configuration_error_is_harmonia_error(self):
        with pytest.raises(HarmoniaError):
            Scenario(kind="orchestrate")

    def test_unknown_json_key_is_rejected(self):
        data = sweep_scenario().to_json()
        data["warp_factor"] = 9
        with pytest.raises(ConfigurationError, match="warp_factor"):
            Scenario.from_json(data)

    def test_unknown_workload_key_is_rejected(self):
        data = sweep_scenario().to_json()
        data["workload"]["jitter"] = True
        with pytest.raises(ConfigurationError, match="jitter"):
            Scenario.from_json(data)

    def test_bool_is_not_an_integer(self):
        data = sweep_scenario().to_json()
        data["seed"] = True
        with pytest.raises(ConfigurationError, match="seed"):
            Scenario.from_json(data)

    def test_packet_sizes_must_be_positive(self):
        with pytest.raises(ConfigurationError, match=">= 1"):
            WorkloadSpec(packet_sizes=(0,))

    def test_tenancy_mirrors_fleet_spec_messages(self):
        with pytest.raises(ConfigurationError, match="need at least one flow"):
            TenancySpec(flow_count=0)

    def test_non_mapping_scenario_is_loud(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            Scenario.from_json(["sweep"])

    def test_missing_kind_is_loud(self):
        with pytest.raises(ConfigurationError, match="kind"):
            Scenario.from_json({"apps": ["sec-gateway"]})


class TestCanonicalSerialisation:
    def test_round_trip_is_identity(self):
        scenario = sweep_scenario(
            workload=WorkloadSpec(packet_sizes=(64, 777), trace=True))
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_canonical_bytes_ignore_key_order(self):
        scenario = sweep_scenario()
        data = scenario.to_json()
        reordered = dict(reversed(list(data.items())))
        reordered["workload"] = dict(
            reversed(list(data["workload"].items())))
        clone = Scenario.from_json(reordered)
        assert clone.canonical_json() == scenario.canonical_json()

    def test_loads_rejects_invalid_json(self):
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            loads_scenario("{not json", source="inline.json")

    def test_save_load_round_trip(self, tmp_path):
        scenario = sweep_scenario()
        path = tmp_path / "scenario.json"
        text = save_scenario(scenario, str(path))
        assert path.read_text() == text + "\n"
        assert load_scenario(str(path)) == scenario

    def test_missing_file_is_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_scenario(str(tmp_path / "absent.json"))


class TestScenarioIdentity:
    @pytest.mark.parametrize("engine",
                             ["auto", "des", "vector", "warp", None, 1])
    def test_engine_is_a_retired_constant(self, engine):
        """Only ``"auto"`` parses; it changes neither the scenario nor its id."""
        scenario = sweep_scenario()
        data = scenario.to_json()
        assert data["engine"] == "auto"
        if engine != "auto":
            with pytest.raises(ConfigurationError, match="retired"):
                Scenario.from_json(dict(data, engine=engine))
            return
        clone = Scenario.from_json(dict(data, engine=engine))
        assert clone == scenario
        assert clone.scenario_id() == scenario.scenario_id()
        del data["engine"]
        assert Scenario.from_json(data).scenario_id() == scenario.scenario_id()

    def test_workload_changes_identity(self):
        scenario = sweep_scenario()
        other = scenario.replace(workload=dataclasses.replace(
            scenario.workload, packets_per_point=7))
        assert other.scenario_id() != scenario.scenario_id()

    def test_identity_survives_key_reordering(self):
        scenario = sweep_scenario()
        reordered = dict(reversed(list(scenario.to_json().items())))
        assert Scenario.from_json(reordered).scenario_id() == scenario.scenario_id()


class TestEpochsSection:
    def _fleet(self, **changes):
        base = Scenario(kind="fleet",
                        tenancy=TenancySpec(flow_count=500, device_count=12,
                                            tenant_count=3))
        return base.replace(**changes) if changes else base

    def test_round_trips_canonically(self):
        scenario = self._fleet(epochs=EpochsSpec(epochs=6, churn=0.05,
                                                 policy="round-robin"))
        clone = loads_scenario(scenario.canonical_json())
        assert clone == scenario
        assert clone.epochs.policy == "round-robin"
        assert clone.canonical_json() == scenario.canonical_json()

    def test_absent_section_is_omitted_from_json(self):
        # Identity stability: pre-epochs fleet scenarios must keep
        # their serialised bytes (and so their ids) unchanged.
        payload = self._fleet().to_json()
        assert "epochs" not in payload

    def test_section_changes_identity(self):
        plain = self._fleet()
        stepped = self._fleet(epochs=EpochsSpec(epochs=6))
        assert plain.scenario_id() != stepped.scenario_id()
        other = self._fleet(epochs=EpochsSpec(epochs=7))
        assert other.scenario_id() != stepped.scenario_id()

    def test_only_fleet_scenarios_take_epochs(self):
        with pytest.raises(ConfigurationError, match="fleet"):
            sweep_scenario().replace(epochs=EpochsSpec())

    def test_validation_mirrors_orchestrator_spec(self):
        for kwargs in ({"epochs": 0}, {"churn": 0.9}, {"scale_step": 0},
                       {"policy": "bogus"}):
            with pytest.raises(ConfigurationError):
                EpochsSpec(**kwargs)

    def test_unknown_epoch_key_is_rejected(self):
        scenario = self._fleet(epochs=EpochsSpec())
        payload = scenario.to_json()
        payload["epochs"]["surprise"] = 1
        with pytest.raises(ConfigurationError, match="surprise"):
            Scenario.from_json(payload)

    def test_orchestrator_spec_conversion(self):
        from repro.runtime.orchestrator import OrchestratorSpec

        scenario = self._fleet(epochs=EpochsSpec(epochs=6, churn=0.05,
                                                 pr_budget=3))
        spec = scenario.orchestrator_spec()
        assert spec == OrchestratorSpec(epochs=6, churn=0.05, pr_budget=3)
        with pytest.raises(ConfigurationError, match="epochs"):
            self._fleet().orchestrator_spec()


class TestSweepCacheKeyInsensitivity:
    """Satellite: the cache key must not see field order."""

    def _keys(self, scenario):
        keys = []
        for point in scenario.expand_points():
            chain = point_chain(point)
            keys.append(sweep_cache_key(
                chain_signature(chain), point.packet_size_bytes,
                point.packet_count,
                trace_of=chain.name if point.trace else None))
        return keys

    def test_cache_keys_ignore_json_field_order(self):
        scenario = sweep_scenario(
            workload=WorkloadSpec(packet_sizes=(64, 256)))
        reordered = Scenario.from_json(
            dict(reversed(list(scenario.to_json().items()))))
        assert self._keys(reordered) == self._keys(scenario)


class TestTierConversions:
    def test_sweep_plan_round_trips_through_scenario(self):
        plan = SweepPlan(apps=("sec-gateway", "host-network"),
                         devices=("device-a",), packet_sizes=(64, 128),
                         packets_per_point=10, trace=True)
        assert SweepPlan.from_scenario(plan.to_scenario()) == plan

    def test_plan_expand_delegates_to_scenario(self):
        plan = SweepPlan(apps=("sec-gateway",), devices=("device-a",),
                         packet_sizes=(64, 128), packets_per_point=10)
        assert plan.expand() == plan.to_scenario().expand_points()

    def test_fleet_spec_from_scenario(self):
        scenario = Scenario(kind="fleet", seed=7, year=2_022,
                            tenancy=TenancySpec(flow_count=123,
                                                device_count=8,
                                                tenant_count=2,
                                                slots_per_device=3,
                                                alpha=1.2,
                                                offered_load=0.5,
                                                mean_packet_bytes=256))
        spec = FleetSpec.from_scenario(scenario)
        assert spec == FleetSpec(flow_count=123, device_count=8,
                                 tenant_count=2, slots_per_device=3,
                                 alpha=1.2, offered_load=0.5,
                                 mean_packet_bytes=256, seed=7, year=2_022)

    def test_build_plan_from_explicit_devices(self):
        scenario = Scenario(kind="build", apps=("sec-gateway",),
                            devices=("device-a", "device-b"),
                            build=BuildSpec(effort=2))
        plan = BuildPlan.from_scenario(scenario)
        assert plan == BuildPlan(devices=("device-a", "device-b"),
                                 roles=("sec-gateway",), effort=2,
                                 software=DEFAULT_SOFTWARE)

    def test_build_plan_defaults_to_fleet_year(self):
        scenario = Scenario(kind="build", year=2_022)
        assert BuildPlan.from_scenario(scenario) == fleet_build_plan(year=2_022)

    def test_kind_mismatch_is_loud(self):
        fleet = Scenario(kind="fleet")
        with pytest.raises(ConfigurationError, match="sweep"):
            SweepPlan.from_scenario(fleet)
        with pytest.raises(ConfigurationError, match="fleet"):
            FleetSpec.from_scenario(sweep_scenario())
        with pytest.raises(ConfigurationError, match="build"):
            BuildPlan.from_scenario(fleet)

    def test_default_build_software_matches_build_farm(self):
        assert DEFAULT_BUILD_SOFTWARE == DEFAULT_SOFTWARE


# ---------------------------------------------------------------------------
# Property suite: serialisation is exact over the whole valid space
# ---------------------------------------------------------------------------

app_lists = st.lists(st.sampled_from(known_app_names()),
                     min_size=1, max_size=3, unique=True).map(tuple)
device_lists = st.lists(st.sampled_from(known_device_names()),
                        min_size=1, max_size=3, unique=True).map(tuple)
workloads = st.builds(
    WorkloadSpec,
    packet_sizes=st.lists(st.integers(1, 9_000), min_size=1, max_size=4,
                          unique=True).map(lambda v: tuple(sorted(v))),
    packets_per_point=st.integers(1, 100_000),
    with_harmonia=st.booleans(),
    include_path_latency=st.booleans(),
    trace=st.booleans(),
)
tenancies = st.builds(
    TenancySpec,
    flow_count=st.integers(1, 10_000_000),
    device_count=st.integers(1, 65_536),
    tenant_count=st.integers(1, 4_096),
    slots_per_device=st.integers(1, 64),
    alpha=st.floats(0.1, 4.0, allow_nan=False, allow_infinity=False),
    offered_load=st.floats(0.01, 2.0, allow_nan=False, allow_infinity=False),
    mean_packet_bytes=st.integers(1, 9_000),
)
builds = st.builds(
    BuildSpec,
    effort=st.integers(0, 8),
    software=st.lists(st.sampled_from(("driver", "runtime-lib",
                                       "health-agent", "telemetry")),
                      min_size=0, max_size=4, unique=True).map(tuple),
)
scenarios = st.builds(
    Scenario,
    kind=st.sampled_from(("sweep", "fleet", "build")),
    apps=app_lists,
    devices=device_lists,
    seed=st.integers(0, 2 ** 31),
    year=st.integers(2_016, 2_030),
    workload=workloads,
    tenancy=tenancies,
    build=builds,
)


class TestSerialisationProperties:
    @given(scenario=scenarios)
    @settings(max_examples=60, deadline=None)
    def test_canonical_round_trip_is_byte_exact(self, scenario):
        text = scenario.canonical_json()
        clone = Scenario.from_json(json.loads(text))
        assert clone == scenario
        assert clone.canonical_json() == text

    @given(scenario=scenarios)
    @settings(max_examples=60, deadline=None)
    def test_identity_is_stable_under_key_reordering(self, scenario):
        base = scenario.scenario_id()
        reordered = dict(reversed(list(scenario.to_json().items())))
        assert Scenario.from_json(reordered).scenario_id() == base
