"""Orchestrated-day response bytes, and the seed-free fleet shape memo."""

import hashlib
import threading

import numpy as np
import pytest

from repro.platform.fleet import production_fleet
from repro.runtime.fleet import SHAPE_MEMO, FleetSimulation, FleetSpec
from repro.runtime.orchestrator import Orchestrator
from repro.scenario.spec import Scenario
from repro.service.runs import _normalise, run_scenario

#: sha256 of ``run_scenario(day(seed, policy)).response_text()``.  The
#: modes of one day are compared with each other elsewhere; these pin
#: the bytes themselves, so a change that moves every mode alike fails.
GOLDEN_DAYS = {
    (7, "flow-hash"):
        "67039d280df1adc00ce5b0aa6fd47df60fe941f9a699995e02dcb5b2f6b44e26",
    (8, "least-loaded"):
        "568c58b73bd13c354de4fd971c092eac1ca2870cfd99eb95c0d3196259634315",
}

SHAPE = FleetSpec(flow_count=20_000, device_count=40, tenant_count=24)


def day(seed: int, policy: str) -> Scenario:
    """20k flows x 40 devices x 24 tenants x 8 epochs, with failures,
    drains and migrations inside the day."""
    return Scenario.from_json({
        "kind": "fleet", "seed": seed,
        "tenancy": {"flow_count": 20_000, "device_count": 40,
                    "tenant_count": 24},
        "epochs": {"epochs": 8, "churn": 0.01, "failure_every": 3,
                   "drain_every": 4, "policy": policy},
    })


def response_sha(seed: int, policy: str) -> str:
    text = run_scenario(day(seed, policy)).response_text()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(autouse=True)
def empty_memo():
    SHAPE_MEMO.clear()
    yield
    SHAPE_MEMO.clear()


class TestDayResponseBytes:
    @pytest.mark.parametrize("seed,policy", sorted(GOLDEN_DAYS))
    def test_cold_memo_day_is_pinned(self, seed, policy):
        assert response_sha(seed, policy) == GOLDEN_DAYS[seed, policy]
        assert SHAPE_MEMO.hits == 0

    def test_second_seed_from_a_warm_memo_is_pinned(self):
        response_sha(7, "flow-hash")
        assert len(SHAPE_MEMO) == 1
        warm = response_sha(8, "least-loaded")
        assert SHAPE_MEMO.hits == 1
        SHAPE_MEMO.clear()
        assert response_sha(8, "least-loaded") == warm
        assert warm == GOLDEN_DAYS[8, "least-loaded"]


#: The only types a day payload may hold: the service layer serves
#: ``to_json()`` as is, with no JSON round trip to fold tuples into
#: lists or numpy scalars into numbers.
PLAIN_JSON_TYPES = (dict, list, str, int, float, bool, type(None))


def non_plain_values(value, path="$"):
    """Paths of every value whose exact type is not plain JSON."""
    if type(value) not in PLAIN_JSON_TYPES:
        return [f"{path}: {type(value).__name__}"]
    if type(value) is dict:
        return [bad for key, item in value.items()
                for bad in ([f"{path}: key {key!r}"]
                            if type(key) is not str else [])
                + non_plain_values(item, f"{path}.{key}")]
    if type(value) is list:
        return [bad for index, item in enumerate(value)
                for bad in non_plain_values(item, f"{path}[{index}]")]
    return []


class TestDayPayloadTypes:
    @pytest.mark.parametrize("seed,policy", sorted(GOLDEN_DAYS))
    def test_to_json_holds_plain_json_types_only(self, seed, policy):
        payload = Orchestrator.from_scenario(day(seed, policy)).run().to_json()
        assert non_plain_values(payload) == []
        assert _normalise(payload) == payload

    def test_the_type_walk_sees_tuples_and_numpy_scalars(self):
        assert non_plain_values(
            {"a": (1,), "b": [np.float64(1.0)], "c": {"d": np.int64(2)},
             "e": [True, None, "x", 1, 1.5]}
        ) == ["$.a: tuple", "$.b[0]: float64", "$.c.d: int64"]


class TestShapeMemo:
    def test_one_shape_shares_one_read_only_entry(self):
        first = FleetSimulation(SHAPE)
        second = FleetSimulation(FleetSpec(
            flow_count=20_000, device_count=40, tenant_count=24, seed=99))
        assert len(SHAPE_MEMO) == 1 and SHAPE_MEMO.hits == 1
        for name in ("flow_weights", "flow_rate_gbps", "flow_rate_units"):
            array = getattr(second, name)
            assert array is getattr(first, name)
            with pytest.raises(ValueError):
                array[0] = 0
        assert not np.array_equal(first.flow_hash, second.flow_hash)

    def test_explicit_history_bypasses_the_memo(self):
        built = FleetSimulation(SHAPE, history=production_fleet())
        assert len(SHAPE_MEMO) == 0
        memoised = FleetSimulation(SHAPE)
        assert memoised.flow_rate_units is not built.flow_rate_units
        assert np.array_equal(memoised.flow_rate_units, built.flow_rate_units)
        assert memoised.harmonic_sum == built.harmonic_sum
        FleetSimulation(SHAPE, history=production_fleet())
        assert len(SHAPE_MEMO) == 1 and SHAPE_MEMO.hits == 0

    def test_a_shape_over_the_byte_bound_is_not_stored(self, monkeypatch):
        entry_bytes = 3 * 8 * SHAPE.flow_count
        monkeypatch.setattr(SHAPE_MEMO, "max_bytes", entry_bytes - 1)
        simulation = FleetSimulation(SHAPE)
        assert simulation.flow_rate_units.shape == (SHAPE.flow_count,)
        assert len(SHAPE_MEMO) == 0 and SHAPE_MEMO.nbytes == 0

    def test_least_recently_used_shape_is_evicted(self, monkeypatch):
        monkeypatch.setattr(SHAPE_MEMO, "max_bytes", 3 * 8 * 20_000)
        FleetSimulation(SHAPE)
        FleetSimulation(FleetSpec(flow_count=10_000, device_count=40))
        assert len(SHAPE_MEMO) == 1
        assert SHAPE_MEMO.nbytes == 3 * 8 * 10_000

    @pytest.mark.parametrize("change", [
        {"alpha": 1.2}, {"offered_load": 0.5}, {"device_count": 41},
        {"year": 2_023}, {"flow_count": 20_001},
    ])
    def test_shape_fields_key_separate_entries(self, change):
        base = FleetSimulation(SHAPE)
        other = FleetSimulation(FleetSpec(
            **{"flow_count": 20_000, "device_count": 40,
               "tenant_count": 24, **change}))
        assert len(SHAPE_MEMO) == 2 and SHAPE_MEMO.hits == 0
        assert not np.array_equal(base.flow_rate_gbps, other.flow_rate_gbps)

    def test_seed_free_fields_share_an_entry(self):
        FleetSimulation(SHAPE)
        FleetSimulation(FleetSpec(flow_count=20_000, device_count=40,
                                  tenant_count=7, slots_per_device=2,
                                  mean_packet_bytes=1_500, seed=3))
        assert len(SHAPE_MEMO) == 1 and SHAPE_MEMO.hits == 1

    def test_concurrent_builds_of_one_shape_keep_one_entry(self):
        units = []

        def build():
            units.append(FleetSimulation(SHAPE).flow_rate_units)

        threads = [threading.Thread(target=build) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(SHAPE_MEMO) == 1
        assert SHAPE_MEMO.nbytes == 3 * 8 * SHAPE.flow_count
        assert all(np.array_equal(units[0], other) for other in units[1:])
