"""Epoch-stepped orchestrator: delta exactness, determinism, invariants."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multitenancy import residency_matrix
from repro.errors import ConfigurationError
from repro.runtime import SimContext
from repro.runtime.fleet import FleetSpec
from repro.runtime.orchestrator import (
    MODES,
    RATE_UNITS_PER_GBPS,
    DeltaMismatch,
    FleetState,
    Orchestrator,
    OrchestratorSpec,
    desired_residency,
    run_orchestrator,
    weighted_percentiles,
)
from repro.scenario.fuzz import _min_fleet_devices
from repro.workloads.flows import ChurnStream, churn_stream_hashes32

#: Small but churn-heavy configuration -- every epoch exercises churn,
#: failure, drain, migration, PR budgeting, and autoscaling.
SMALL_FLEET = FleetSpec(flow_count=6_000, device_count=16, tenant_count=6,
                        slots_per_device=2, seed=11)
SMALL_SPEC = OrchestratorSpec(epochs=18, churn=0.03, failure_every=5,
                              drain_every=7, pr_budget=8, scale_step=2)


@pytest.fixture(scope="module")
def small_runs():
    return {mode: run_orchestrator(SMALL_FLEET, SMALL_SPEC, mode=mode)
            for mode in MODES}


class TestSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        {"epochs": 0},
        {"epoch_seconds": 0},
        {"churn": -0.1},
        {"churn": 0.6},
        {"failure_every": -1},
        {"drain_every": -1},
        {"migrate_threshold": 0.0},
        {"spare_fraction": -0.5},
        {"scale_step": 0},
        {"pr_budget": -1},
        {"policy": "bogus"},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigurationError):
            OrchestratorSpec(**kwargs)

    def test_rejects_bad_mode(self):
        with pytest.raises(ConfigurationError):
            Orchestrator(SMALL_FLEET, SMALL_SPEC, mode="approximate")


class TestChurnStream:
    def test_channels_are_independent_and_stable(self):
        base = churn_stream_hashes32(64, seed=7, epoch=3, channel="a")
        assert np.array_equal(
            base, churn_stream_hashes32(64, seed=7, epoch=3, channel="a"))
        for seed, epoch, channel in ((8, 3, "a"), (7, 4, "a"), (7, 3, "b")):
            other = churn_stream_hashes32(
                64, seed=seed, epoch=epoch, channel=channel)
            assert not np.array_equal(base, other)

    def test_block_is_positionally_equal_to_one_draw(self):
        stream = ChurnStream(21)
        parts = stream.block(5, "churn", (10, 20, 30))
        flat = stream.draws(5, "churn", 60)
        assert np.array_equal(np.concatenate(parts), flat)
        assert [part.shape[0] for part in parts] == [10, 20, 30]

    def test_picks_delegate_to_as_picks(self):
        stream = ChurnStream(3)
        draws = stream.draws(2, "x", 100)
        picks = stream.picks(2, "x", 100, 17)
        assert np.array_equal(picks, ChurnStream.as_picks(draws, 17))
        assert picks.min() >= 0 and picks.max() < 17

    def test_harmonic_units_bounds_and_determinism(self):
        stream = ChurnStream(3)
        rates = stream.harmonic_rate_units(1, "r", 500, 10_000, 64)
        again = stream.harmonic_rate_units(1, "r", 500, 10_000, 64)
        assert np.array_equal(rates, again)
        assert rates.min() >= 1 and rates.max() <= 10_000


class TestWeightedPercentiles:
    def test_matches_expanded_nearest_rank(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            values = rng.normal(size=12).astype(np.float64)
            weights = rng.integers(0, 9, size=12)
            if weights.sum() == 0:
                continue
            expanded = np.sort(np.repeat(values, weights))
            total = int(weights.sum())
            for q in (0.5, 0.9, 0.99):
                got = weighted_percentiles(values, weights, (q,))[0]
                rank = max(int(np.ceil(q * total)), 1)
                assert got == float(expanded[rank - 1])

    def test_zero_weight_is_zero(self):
        assert weighted_percentiles(
            np.ones(4), np.zeros(4, dtype=np.int64), (0.5, 0.99)) == [0.0, 0.0]


class TestDesiredResidency:
    def test_pinned_element_equal_to_residency_matrix(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            devices = int(rng.integers(1, 40))
            tenants = int(rng.integers(1, 12))
            slots = int(rng.integers(1, 5))
            # Small value range forces heavy ties -- the hard case.
            units = rng.integers(0, 4, size=(devices, tenants)).astype(np.int64)
            fast = desired_residency(units, slots)
            reference = residency_matrix(units, slots)
            assert np.array_equal(fast, reference)


class TestFleetState:
    def _state(self):
        return FleetState(SMALL_FLEET, SMALL_SPEC)

    def _flows_oracle(self, state, device):
        return np.flatnonzero(
            state.flow_active & (state.flow_device == device))

    def test_initial_aggregates_match_oracle(self):
        state = self._state()
        load, units, flows = state.rebuild_aggregates()
        assert np.array_equal(load, state.load_units)
        assert np.array_equal(units, state.tenant_units)
        assert np.array_equal(flows, state.tenant_flows)

    def test_device_flows_matches_flatnonzero_oracle(self):
        state = self._state()
        stream = ChurnStream(99)
        for round_index in range(6):
            victims = np.unique(stream.picks(
                round_index, "kill", 200, state.capacity_slots))
            victims = victims[state.flow_active[victims]]
            state.remove_flows(victims)
            count = int(victims.shape[0])
            state.add_flows(
                stream.picks(round_index, "rate", count, 1_000) + 1,
                stream.picks(round_index, "tenant", count, state.tenant_count),
                stream.picks(round_index, "dev", count, state.total_devices))
            moved = state.device_flows(0)
            if moved.shape[0]:
                state.move_flows(moved, np.full(
                    moved.shape[0], 1, dtype=np.int64))
            for device in (0, 1, 2, state.total_devices - 1):
                assert np.array_equal(
                    state.device_flows(device),
                    self._flows_oracle(state, device))

    def _assert_index_exact(self, state):
        for device in range(state.total_devices):
            assert np.array_equal(state.device_flows(device),
                                  self._flows_oracle(state, device))

    def test_device_flows_dedupes_a_round_trip_across_segment_and_pending(self):
        # A -> B -> A inside one flush window: slot keys for A sit in
        # the initial segment *and* the pending array, so the read sees
        # every one of them twice and must return each once.
        state = self._state()
        home = state.device_flows(3)[:40]
        state.move_flows(home, np.full(home.shape[0], 5, dtype=np.int64))
        self._assert_index_exact(state)
        state.move_flows(home, np.full(home.shape[0], 3, dtype=np.int64))
        assert len(state._segments) == 1 and state._pending_count > 0
        self._assert_index_exact(state)
        assert np.isin(home, state.device_flows(3)).all()

    def test_device_flows_over_many_pending_batches(self):
        state = self._state()
        stream = ChurnStream(12)
        for batch in range(60):
            slots = np.unique(stream.picks(batch, "slot", 25,
                                           SMALL_FLEET.flow_count))
            state.move_flows(slots, stream.picks(
                batch, "dev", slots.shape[0], state.base_devices))
            if batch % 10 == 9:
                self._assert_index_exact(state)
        assert len(state._segments) == 1
        assert state._pending_count < state._flush_threshold
        self._assert_index_exact(state)

    def test_device_flows_through_segment_compaction(self):
        state = self._state()
        stream = ChurnStream(13)
        largest = compactions = 0
        for batch in range(400):
            slots = np.unique(stream.picks(batch, "slot", 3_000,
                                           SMALL_FLEET.flow_count))
            state.move_flows(slots, stream.picks(
                batch, "dev", slots.shape[0], state.base_devices))
            segments = len(state._segments)
            if segments < largest:
                compactions += 1
                self._assert_index_exact(state)
                if compactions == 2:
                    break
            largest = segments
        assert compactions == 2
        self._assert_index_exact(state)

    def test_deferred_deltas_equal_eager_deltas(self):
        eager, deferred = self._state(), self._state()
        stream = ChurnStream(4)
        for state in (eager, deferred):
            if state is deferred:
                state.defer_deltas()
            victims = np.unique(stream.picks(0, "kill", 300,
                                             state.capacity_slots))
            victims = victims[state.flow_active[victims]]
            state.remove_flows(victims)
            count = int(victims.shape[0])
            state.add_flows(
                stream.picks(0, "rate", count, 1_000) + 1,
                stream.picks(0, "tenant", count, state.tenant_count),
                stream.picks(0, "dev", count, state.total_devices))
            if state is deferred:
                state.flush_deltas()
        assert np.array_equal(eager.load_units, deferred.load_units)
        assert np.array_equal(eager.tenant_units, deferred.tenant_units)
        assert np.array_equal(eager.tenant_flows, deferred.tenant_flows)

    def test_stats_weights_incremental_equals_full(self):
        state = self._state()
        fast_res, fast_non = state.stats_weights()
        full_res, full_non = state.stats_weights_full()
        assert np.array_equal(fast_res, full_res)
        assert np.array_equal(fast_non, full_non)
        total = int(fast_res.sum() + fast_non.sum())
        assert total == state.active_flows


class TestBitExactness:
    def test_all_modes_serialise_identically(self, small_runs):
        payloads = {mode: json.dumps(run.to_json(), sort_keys=True)
                    for mode, run in small_runs.items()}
        assert payloads["incremental"] == payloads["full"]
        assert payloads["incremental"] == payloads["verify"]

    def test_digests_agree_across_modes(self, small_runs):
        digests = {run.aggregate_digest for run in small_runs.values()}
        flow_digests = {run.flow_digest for run in small_runs.values()}
        assert len(digests) == 1 and len(flow_digests) == 1

    def test_mode_excluded_from_payload(self, small_runs):
        payload = small_runs["incremental"].to_json()
        assert "mode" not in json.dumps(payload)

    def test_metrics_snapshots_identical(self):
        snapshots = []
        for mode in ("incremental", "full"):
            context = SimContext(name=f"orch-{mode}")
            run_orchestrator(SMALL_FLEET, SMALL_SPEC, mode=mode,
                             context=context)
            snapshots.append(context.metrics.snapshot())
        assert snapshots[0] == snapshots[1]

    def test_verify_mode_detects_corruption(self):
        orchestrator = Orchestrator(SMALL_FLEET, SMALL_SPEC, mode="verify")
        # Sabotage one aggregate cell: the next epoch's oracle check
        # must localise the divergence instead of drifting silently.
        orchestrator.state.tenant_units[0, 0] += 1
        orchestrator.state.load_units[0] += 1
        with pytest.raises(DeltaMismatch) as excinfo:
            orchestrator.run()
        assert excinfo.value.epoch == 0

    def test_runs_are_deterministic(self):
        first = run_orchestrator(SMALL_FLEET, SMALL_SPEC)
        second = run_orchestrator(SMALL_FLEET, SMALL_SPEC)
        assert first.to_json() == second.to_json()


class TestEpochMechanics:
    def test_epoch_schedule_fires(self, small_runs):
        run = small_runs["incremental"]
        totals = run.to_json()["totals"]
        assert len(run.epochs) == SMALL_SPEC.epochs
        assert totals["failures"] == SMALL_SPEC.epochs // SMALL_SPEC.failure_every
        assert totals["drains"] == SMALL_SPEC.epochs // SMALL_SPEC.drain_every
        assert totals["arrivals"] > 0 and totals["departures"] > 0

    def test_population_stays_at_capacity(self, small_runs):
        for stats in small_runs["incremental"].epochs:
            assert 0 < stats.flows <= SMALL_FLEET.flow_count

    def test_pr_budget_respected(self, small_runs):
        for stats in small_runs["incremental"].epochs:
            assert stats.pr_grants <= SMALL_SPEC.pr_budget

    def test_tenant_stats_cover_all_tenants(self, small_runs):
        run = small_runs["incremental"]
        assert len(run.tenants) == SMALL_FLEET.tenant_count
        assert sum(t.flows for t in run.tenants) == run.final.flows

    def test_policies_all_run(self):
        for policy in ("round-robin", "least-loaded"):
            spec = dataclasses.replace(SMALL_SPEC, epochs=4, policy=policy)
            result = run_orchestrator(SMALL_FLEET, spec, mode="verify")
            assert result.final.flows > 0

    def test_autoscale_disabled_keeps_fleet_flat(self):
        spec = dataclasses.replace(SMALL_SPEC, epochs=6, autoscale=False,
                                   failure_every=0, drain_every=0)
        result = run_orchestrator(SMALL_FLEET, spec)
        alive = {stats.alive_devices for stats in result.epochs}
        assert alive == {SMALL_FLEET.device_count}
        assert all(stats.scaled_up == stats.scaled_down == 0
                   for stats in result.epochs)

    def test_scale_down_never_drops_capacity_below_demand(self):
        # A heavily over-provisioned fleet breaches the utilization
        # lower bound every epoch; the autoscaler parks devices but the
        # floor guard must keep alive capacity >= offered units with
        # no forced (failure/drain) events in the mix.
        fleet = dataclasses.replace(SMALL_FLEET, flow_count=300,
                                    device_count=40, offered_load=0.02)
        spec = dataclasses.replace(SMALL_SPEC, epochs=10, churn=0.05,
                                   failure_every=0, drain_every=0,
                                   scale_step=3)
        orchestrator = Orchestrator(fleet, spec, mode="verify")
        result = orchestrator.run()
        assert sum(stats.scaled_down for stats in result.epochs) > 0
        state = orchestrator.state
        alive = state.alive_devices()
        assert int(state.capacity_units[alive].sum()) >= int(
            state.load_units.sum())


#: Hypothesis strategy: tiny-but-varied orchestration shapes.  Sizes
#: stay small so each example runs in milliseconds; churn, cadence and
#: budget ranges still cross every interesting boundary (0 = disabled,
#: 1 = every epoch, budget smaller/larger than demand).
_fleet_specs = st.builds(
    FleetSpec,
    flow_count=st.integers(min_value=200, max_value=1_500),
    device_count=st.integers(min_value=_min_fleet_devices(),
                             max_value=_min_fleet_devices() + 8),
    tenant_count=st.integers(min_value=1, max_value=8),
    slots_per_device=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
_orch_specs = st.builds(
    OrchestratorSpec,
    epochs=st.integers(min_value=1, max_value=6),
    churn=st.floats(min_value=0.0, max_value=0.2),
    failure_every=st.integers(min_value=0, max_value=3),
    drain_every=st.integers(min_value=0, max_value=4),
    pr_budget=st.integers(min_value=0, max_value=6),
    scale_step=st.integers(min_value=1, max_value=3),
    spare_fraction=st.floats(min_value=0.0, max_value=1.0),
)


class TestConservationInvariants:
    """Property suite: churn ops conserve flows, residency respects
    slots, autoscaling never drops capacity below active demand."""

    @settings(max_examples=30, deadline=None)
    @given(fleet=_fleet_specs, spec=_orch_specs)
    def test_epoch_invariants(self, fleet, spec):
        orchestrator = Orchestrator(fleet, spec, mode="verify")
        state = orchestrator.state
        slots = fleet.slots_per_device
        result = orchestrator.run()

        # Residency never exceeds the PR slot count on any device, and
        # parked/failed devices hold no residency.
        per_device = state.resident.sum(axis=1)
        assert int(per_device.max(initial=0)) <= slots
        assert not state.resident[state.status != 1].any()

        # Flow conservation: arrivals minus departures exactly explain
        # the population change; migration/drain/failure never create
        # or destroy flows.
        flows = fleet.flow_count
        for stats in result.epochs:
            flows += stats.arrivals - stats.departures
            assert stats.flows == flows
        assert state.active_flows == flows
        assert int(state.flow_active.sum()) == flows

        # The aggregates a whole run of churn produced still match the
        # ground-truth oracle exactly.
        load, units, counts = state.rebuild_aggregates()
        assert np.array_equal(load, state.load_units)
        assert np.array_equal(units, state.tenant_units)
        assert np.array_equal(counts, state.tenant_flows)

        # Autoscaling floor: the scale-down path refuses to drain alive
        # capacity below the offered units.  Failures and drains are
        # forced events outside the autoscaler's control, so the
        # whole-run floor is only guaranteed when none occurred.
        alive = state.alive_devices()
        assert alive.shape[0] >= 1
        forced = sum(stats.failures + stats.drains
                     for stats in result.epochs)
        if forced == 0:
            assert int(state.capacity_units[alive].sum()) >= int(
                state.load_units.sum())

    @settings(max_examples=20, deadline=None)
    @given(fleet=_fleet_specs, data=st.data())
    def test_migration_conserves_flows_and_load(self, fleet, data):
        spec = OrchestratorSpec(epochs=1, churn=0.0)
        state = FleetState(fleet, spec)
        before_flows = state.active_flows
        before_load = int(state.load_units.sum())
        source = data.draw(st.integers(0, state.total_devices - 1))
        target = data.draw(st.integers(0, state.total_devices - 1))
        slots = state.device_flows(source)
        state.move_flows(slots, np.full(slots.shape[0], target,
                                        dtype=np.int64))
        assert state.active_flows == before_flows
        assert int(state.load_units.sum()) == before_load
        load, units, counts = state.rebuild_aggregates()
        assert np.array_equal(load, state.load_units)
        assert np.array_equal(units, state.tenant_units)
        assert np.array_equal(counts, state.tenant_flows)

    @pytest.mark.parametrize("coolest", [None, 5])
    def test_migration_targets_the_first_least_utilised_device(self,
                                                               coolest):
        # Hottest = first maximum; target = first minimum, or -- when
        # every alive device ties -- the second alive device.
        orchestrator = Orchestrator(SMALL_FLEET, SMALL_SPEC)
        state = orchestrator.state
        alive = state.alive_devices()
        snapshot = np.full(state.total_devices, 2.0)
        snapshot[alive[3]] = 3.0
        if coolest is None:
            snapshot[alive[3]] = 2.0
            source, target = int(alive[0]), int(alive[1])
        else:
            snapshot[alive[coolest]] = snapshot[alive[coolest + 2]] = 1.5
            source, target = int(alive[3]), int(alive[coolest])
        tenant = int(np.argmax(state.tenant_units[source]))
        moved = state.device_flows(source)
        moved = moved[state.flow_tenant[moved] == tenant]
        assert orchestrator._maybe_migrate(0, snapshot, alive) == 1
        assert np.array_equal(state.flow_device[moved],
                              np.full(moved.shape[0], target))
        assert not (state.flow_tenant[state.device_flows(source)]
                    == tenant).any()


class TestScale:
    def test_churn_zero_is_stable(self):
        spec = OrchestratorSpec(epochs=3, churn=0.0, failure_every=0,
                                drain_every=0, autoscale=False)
        result = run_orchestrator(SMALL_FLEET, spec, mode="verify")
        flows = {stats.flows for stats in result.epochs}
        assert flows == {SMALL_FLEET.flow_count}

    def test_rate_units_round_trip(self):
        state = FleetState(SMALL_FLEET, SMALL_SPEC)
        offered = state.load_units.sum() / RATE_UNITS_PER_GBPS
        assert offered > 0
