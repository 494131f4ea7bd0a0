"""Unit and property tests for the measurement instrumentation."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.runtime.metrics import MetricsRegistry
from repro.sim.stats import Counter, LatencyStats, MonitorSnapshot, ThroughputMeter


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("packets")
        counter.increment()
        counter.increment(5)
        assert counter.value == 6
        assert int(counter) == 6

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").increment(-1)

    def test_reset(self):
        counter = Counter("c")
        counter.increment(3)
        counter.reset()
        assert counter.value == 0


class TestLatencyStats:
    def test_mean_min_max(self):
        stats = LatencyStats()
        for sample in (10, 20, 30):
            stats.add(sample)
        assert stats.mean_ps == 20
        assert stats.min_ps == 10
        assert stats.max_ps == 30
        assert stats.count == 3

    def test_unit_conversions(self):
        stats = LatencyStats()
        stats.add(2_000_000)
        assert stats.mean_ns == pytest.approx(2_000.0)
        assert stats.mean_us == pytest.approx(2.0)

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats().add(-1)

    def test_empty_stats_raise(self):
        stats = LatencyStats()
        for accessor in ("mean_ps", "min_ps", "max_ps"):
            with pytest.raises(ValueError):
                getattr(stats, accessor)

    def test_percentile_nearest_rank(self):
        stats = LatencyStats()
        for sample in range(1, 11):
            stats.add(sample)
        assert stats.percentile_ps(0.5) == 5
        assert stats.percentile_ps(0.99) == 10
        assert stats.percentile_ps(0.0) == 1

    def test_percentile_bounds_checked(self):
        stats = LatencyStats()
        stats.add(1)
        with pytest.raises(ValueError):
            stats.percentile_ps(1.5)

    def test_merge_combines_samples(self):
        left, right = LatencyStats(), LatencyStats()
        left.add(10)
        right.add(30)
        left.merge(right)
        assert left.count == 2
        assert left.mean_ps == 20

    def test_merge_updates_extremes_and_percentiles(self):
        left, right = LatencyStats(), LatencyStats()
        for sample in (50, 60):
            left.add(sample)
        for sample in (10, 90):
            right.add(sample)
        left.percentile_ps(0.5)  # prime the sorted cache
        left.merge(right)
        assert left.min_ps == 10
        assert left.max_ps == 90
        assert left.percentile_ps(0.0) == 10
        assert left.percentile_ps(1.0) == 90

    def test_merge_empty_is_noop(self):
        stats = LatencyStats()
        stats.add(7)
        stats.merge(LatencyStats())
        assert stats.count == 1
        assert stats.mean_ps == 7

    def test_percentile_cache_invalidated_by_add(self):
        stats = LatencyStats()
        stats.add(100)
        assert stats.percentile_ps(1.0) == 100
        stats.add(5)
        assert stats.percentile_ps(0.0) == 5
        assert stats.percentile_ps(1.0) == 100

    def test_reset_clears_everything(self):
        stats = LatencyStats()
        stats.add(10)
        stats.reset()
        assert stats.count == 0

    @given(st.lists(st.integers(min_value=0, max_value=10 ** 9), min_size=1, max_size=200))
    def test_mean_between_min_and_max(self, samples):
        stats = LatencyStats()
        for sample in samples:
            stats.add(sample)
        assert stats.min_ps <= stats.mean_ps <= stats.max_ps

    @given(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=100))
    def test_percentiles_monotonic(self, samples):
        stats = LatencyStats()
        for sample in samples:
            stats.add(sample)
        fractions = [0.1, 0.5, 0.9, 1.0]
        values = [stats.percentile_ps(f) for f in fractions]
        assert values == sorted(values)
        assert values[-1] == stats.max_ps


class ListStats:
    """The list-of-ints latency store :class:`LatencyStats` must match."""

    def __init__(self):
        self.samples = []

    def add(self, sample):
        self.samples.append(sample)

    def extend(self, samples):
        self.samples.extend(int(sample) for sample in samples)

    def merge(self, other):
        self.samples.extend(other.samples)

    def reset(self):
        self.samples = []

    def leaf(self):
        """What :meth:`MetricsRegistry.snapshot` prints for this histogram."""
        if not self.samples:
            return {"count": 0}
        ordered = sorted(self.samples)

        def rank(fraction):
            return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]

        return {
            "count": len(ordered),
            "mean_ps": sum(ordered) / len(ordered),
            "min_ps": ordered[0],
            "max_ps": ordered[-1],
            "p50_ps": rank(0.50),
            "p99_ps": rank(0.99),
        }


def leaf_json(stats):
    return json.dumps(MetricsRegistry._leaf(stats), sort_keys=True)


def reference_json(reference):
    return json.dumps(reference.leaf(), sort_keys=True)


class TestLatencyStatsArrays:
    """The int64-array store against the list-of-ints reference."""

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_operations_match_the_list_reference(self, seed):
        rng = random.Random(seed)
        stats, reference = LatencyStats(), ListStats()
        for _ in range(300):
            op = rng.random()
            if op < 0.45:
                sample = rng.randrange(10 ** rng.randint(1, 15))
                stats.add(sample)
                reference.add(sample)
            elif op < 0.75:
                samples = [rng.randrange(10 ** 12)
                           for _ in range(rng.randint(0, 3_000))]
                stats.extend(samples if rng.random() < 0.5
                             else np.asarray(samples, dtype=np.int64))
                reference.extend(samples)
            elif op < 0.9:
                other, other_reference = LatencyStats(), ListStats()
                for _ in range(rng.randint(0, 1_500)):
                    sample = rng.randrange(10 ** 9)
                    other.add(sample)
                    other_reference.add(sample)
                if other.count and rng.random() < 0.5:
                    # Moves other's samples into its sorted store.
                    other.percentile_ps(0.5)
                stats.merge(other)
                reference.merge(other_reference)
            elif op < 0.93:
                stats.reset()
                reference.reset()
            # Interleave reads, so the sorted cache is built, merged
            # into, and invalidated along the way.
            if rng.random() < 0.3:
                assert leaf_json(stats) == reference_json(reference)
        assert leaf_json(stats) == reference_json(reference)

    def test_negative_sample_in_an_array_changes_nothing(self):
        stats = LatencyStats()
        stats.extend([40, 10, 30])
        before = leaf_json(stats)
        with pytest.raises(ValueError):
            stats.extend(np.asarray([5, -1, 7], dtype=np.int64))
        assert leaf_json(stats) == before
        assert stats.count == 3

    def test_empty_array_is_a_noop(self):
        stats = LatencyStats()
        stats.extend(np.empty(0, dtype=np.int64))
        assert stats.count == 0
        stats.add(12)
        before = leaf_json(stats)
        stats.extend(np.empty(0, dtype=np.int64))
        assert leaf_json(stats) == before

    def test_snapshot_leaves_are_plain_numbers(self):
        stats = LatencyStats()
        stats.extend(np.arange(1, 5_000, dtype=np.int64))
        stats.add(7)
        leaf = MetricsRegistry._leaf(stats)
        assert {type(value) for value in leaf.values()} <= {int, float}
        assert type(leaf["mean_ps"]) is float
        json.dumps(leaf)

    def test_long_running_histogram_stays_int64_arrays(self):
        """A daemon's per-request histogram after 500k observations.

        ``serve.request.wall_ps`` gets one ``observe`` per request for
        the daemon's whole life; its snapshot must equal the list
        reference byte for byte while its samples stay int64 arrays.
        """
        rng = random.Random(7)
        registry, reference = MetricsRegistry(), ListStats()
        for _ in range(500_000):
            sample = rng.randrange(10 ** 8, 10 ** 10)
            registry.observe("serve.request.wall_ps", sample)
            reference.add(sample)
        expected = json.dumps(
            {"serve": {"request": {"wall_ps": reference.leaf()}}},
            sort_keys=True)
        assert json.dumps(registry.snapshot(), sort_keys=True) == expected
        histogram = registry.histogram("serve.request.wall_ps")
        assert histogram._pending == [] and histogram._chunks == []
        assert isinstance(histogram._sorted, np.ndarray)
        assert histogram._sorted.dtype == np.int64
        assert histogram._sorted.size == 500_000


class TestThroughputMeter:
    def test_gbps_over_window(self):
        meter = ThroughputMeter()
        meter.record(1_250, time_ps=0)
        meter.record(1_250, time_ps=1_000_000)  # 1 us window
        # 2500 B over 1 us = 20 Gbps.
        assert meter.gbps == pytest.approx(20.0)

    def test_items_per_second(self):
        meter = ThroughputMeter()
        for index in range(11):
            meter.record(64, time_ps=index * 100_000)
        assert meter.items_per_second == pytest.approx(11 / 1e-6, rel=0.01)

    def test_empty_meter_raises(self):
        with pytest.raises(ValueError):
            ThroughputMeter().window_ps

    def test_out_of_order_records_extend_window(self):
        meter = ThroughputMeter()
        meter.record(100, time_ps=500_000)
        meter.record(100, time_ps=100_000)
        assert meter.window_ps == 400_000

    def test_reset(self):
        meter = ThroughputMeter()
        meter.record(100, 0)
        meter.reset()
        assert meter.total_bytes == 0
        assert meter.total_items == 0


class TestMonitorSnapshot:
    def test_as_dict_merges_counters_and_gauges(self):
        snapshot = MonitorSnapshot("network", counters={"rx": 5}, gauges={"load": 0.5})
        merged = snapshot.as_dict()
        assert merged == {"rx": 5, "load": 0.5}
