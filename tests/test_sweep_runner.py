"""Tests for the sweep runner and its content-keyed cache.

The load-bearing guarantees: (1) the execution path is invisible -- a
plan run on the vector kernel and on the per-Transaction oracle loop
produces byte-identical results and stitched traces; (2) the cache only ever
returns what a fresh simulation would have produced, and traced points
never touch it; (3) ``run_packet_sweep`` agrees exactly with the pinned
reference loop.
"""

import dataclasses
import json

import pytest

import repro.runtime.sweep as sweep_module
from repro.apps import application_by_name
from repro.errors import ConfigurationError, HarmoniaError
from repro.platform.catalog import device_by_name
from repro.runtime.sweep import (
    PointResult,
    SweepCache,
    SweepPlan,
    SweepPoint,
    SweepRunner,
    chain_signature,
    run_plan,
    sweep_cache_key,
)
from repro.sim.clock import ClockDomain
from repro.sim.pipeline import (
    PipelineChain,
    PipelineStage,
    run_packet_sweep,
    run_packet_sweep_reference,
)

APP = "sec-gateway"
DEVICE = "device-a"


def small_plan(**overrides):
    defaults = dict(apps=(APP,), devices=(DEVICE,), packet_sizes=(64, 256),
                    packets_per_point=200)
    defaults.update(overrides)
    return SweepPlan(**defaults)


def app_chain(app_name=APP, device_name=DEVICE, with_harmonia=True):
    app = application_by_name(app_name)
    device = device_by_name(device_name)
    return app.datapath(app.tailored_shell(device), with_harmonia)


class TestPlan:
    def test_expand_is_app_device_size_ordered(self):
        plan = SweepPlan(apps=("a1", "a2"), devices=("d1", "d2"),
                        packet_sizes=(64, 128), packets_per_point=10)
        labels = [(p.app, p.device, p.packet_size_bytes)
                  for p in plan.expand()]
        assert labels == [
            ("a1", "d1", 64), ("a1", "d1", 128),
            ("a1", "d2", 64), ("a1", "d2", 128),
            ("a2", "d1", 64), ("a2", "d1", 128),
            ("a2", "d2", 64), ("a2", "d2", 128),
        ]
        assert len(plan) == 8

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepPlan(apps=(), devices=("d",), packet_sizes=(64,))

    def test_zero_packets_rejected(self):
        with pytest.raises(ConfigurationError):
            small_plan(packets_per_point=0)

    def test_point_label(self):
        point = SweepPoint(app="a", device="d", packet_size_bytes=64,
                           packet_count=10, with_harmonia=False)
        assert point.label() == "a@d/native/64B"

    @pytest.mark.parametrize("cls,args", [
        (SweepPoint, ("a", "d", 64, 10)),
        (PointResult, (None, 1.0, 2.0, "k", True)),
    ])
    def test_hand_written_init_sets_every_field_and_stays_frozen(
            self, cls, args):
        value = cls(*args)
        fields = dataclasses.fields(cls)
        assert list(vars(value)) == [field.name for field in fields]
        for field, arg in zip(fields, args):
            assert getattr(value, field.name) == arg
        for field in fields[len(args):]:
            assert getattr(value, field.name) == field.default
        assert dataclasses.replace(value) == value
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.cached = False


class TestCacheKey:
    def test_key_is_stable_and_content_only(self):
        chain_a = app_chain()
        chain_b = app_chain()          # fresh tailoring, same content
        sig_a, sig_b = chain_signature(chain_a), chain_signature(chain_b)
        assert sig_a == sig_b
        assert (sweep_cache_key(sig_a, 64, 100)
                == sweep_cache_key(sig_b, 64, 100))

    def test_signature_ignores_names(self):
        def chain(name):
            return PipelineChain(name, [
                PipelineStage(f"{name}-stage", ClockDomain("clk", 250.0), 512,
                              latency_cycles=4)])
        assert chain_signature(chain("x")) == chain_signature(chain("y"))

    def test_key_varies_with_every_sweep_parameter(self):
        sig = chain_signature(app_chain())
        base = sweep_cache_key(sig, 64, 100)
        assert sweep_cache_key(sig, 128, 100) != base
        assert sweep_cache_key(sig, 64, 200) != base
        assert sweep_cache_key(sig, 64, 100, offered_load_bps=1e9) != base

    def test_traced_points_fold_in_the_chain_name(self):
        # Throughput is name-blind but traces embed span names, so a
        # traced entry is only shareable under the same chain name.
        sig = chain_signature(app_chain())
        assert sweep_cache_key(sig, 64, 100, trace_of="c1") != \
            sweep_cache_key(sig, 64, 100, trace_of="c2")
        assert sweep_cache_key(sig, 64, 100, trace_of=None) == \
            sweep_cache_key(sig, 64, 100)


class TestSweepCache:
    def test_save_load_roundtrip(self, tmp_path):
        cache = SweepCache()
        cache.store("k1", {"throughput_bps": 1.0, "mean_latency_ns": 2.0})
        path = tmp_path / "sweep.cache.json"
        assert cache.save(str(path)) == 1
        fresh = SweepCache()
        assert fresh.load(str(path)) == 1
        assert fresh.lookup("k1")["throughput_bps"] == 1.0

    def test_load_rejects_non_cache_file(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ConfigurationError):
            SweepCache().load(str(path))

    @pytest.mark.parametrize("entry", [
        5,
        None,
        [1.0, 2.0],
        {"throughput_bps": "x", "mean_latency_ns": 2.0},
        {"throughput_bps": 1.0},
        {"mean_latency_ns": 2.0},
        {"throughput_bps": 1.0, "mean_latency_ns": None},
        {"throughput_bps": True, "mean_latency_ns": 2.0},
    ])
    def test_load_rejects_a_malformed_entry_naming_path_and_key(
            self, tmp_path, entry):
        path = tmp_path / "sweep.cache.json"
        path.write_text(json.dumps({"good": {"throughput_bps": 1.0,
                                             "mean_latency_ns": 2.0},
                                    "bad-key": entry}))
        cache = SweepCache()
        with pytest.raises(ConfigurationError) as excinfo:
            cache.load(str(path))
        assert str(path) in str(excinfo.value)
        assert "bad-key" in str(excinfo.value)
        assert len(cache) == 0              # nothing half-loaded

    def test_load_keeps_only_the_result_fields(self, tmp_path):
        path = tmp_path / "sweep.cache.json"
        path.write_text(json.dumps({"k": {
            "throughput_bps": 1, "mean_latency_ns": 2.5,
            "trace_jsonl": "{}\n"}}))
        cache = SweepCache()
        assert cache.load(str(path)) == 1
        assert cache.lookup("k") == {"throughput_bps": 1,
                                     "mean_latency_ns": 2.5}

    @staticmethod
    def _entry(value):
        return {"throughput_bps": float(value), "mean_latency_ns": 2.0}

    def test_lru_bound_evicts_least_recently_used(self):
        cache = SweepCache(max_entries=2)
        cache.store("a", self._entry(1))
        cache.store("b", self._entry(2))
        assert cache.lookup("a") is not None    # refresh a
        cache.store("c", self._entry(3))        # evicts b
        assert cache.lookup("b") is None
        assert cache.lookup("a") is not None
        assert cache.lookup("c") is not None
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_unbounded_cache_never_evicts(self):
        cache = SweepCache()
        for index in range(1_000):
            cache.store(f"k{index}", self._entry(index))
        assert len(cache) == 1_000
        assert cache.evictions == 0

    def test_bad_bound_is_loud(self):
        with pytest.raises(ConfigurationError):
            SweepCache(max_entries=0)

    def test_evictions_land_in_an_attached_registry(self):
        from repro.runtime.metrics import MetricsRegistry

        registry = MetricsRegistry()
        cache = SweepCache(max_entries=1)
        cache.attach_metrics(registry)
        cache.store("a", self._entry(1))
        cache.store("b", self._entry(2))
        assert registry.counter("sweep.cache.evictions").value == 1

    def test_load_respects_the_bound(self, tmp_path):
        full = SweepCache()
        for index in range(5):
            full.store(f"k{index}", self._entry(index))
        path = tmp_path / "sweep.cache.json"
        full.save(str(path))
        bounded = SweepCache(max_entries=2)
        bounded.load(str(path))
        assert len(bounded) == 2
        assert bounded.evictions == 3


class TestRunner:
    def test_second_run_is_all_cache_hits_with_identical_floats(self):
        cache = SweepCache()
        runner = SweepRunner(small_plan(), cache=cache)
        cold = runner.run()
        warm = runner.run()
        assert cold.cache_hits == 0 or cold.cache_hits < len(cold)
        assert warm.cache_hits == len(warm)
        for first, second in zip(cold.points, warm.points):
            assert first.throughput_bps == second.throughput_bps
            assert first.mean_latency_ns == second.mean_latency_ns
            assert first.cache_key == second.cache_key

    def test_use_cache_false_never_reads_or_writes(self):
        cache = SweepCache()
        result = run_plan(small_plan(), cache=cache, use_cache=False)
        assert result.cache_hits == 0
        assert len(cache) == 0

    def test_traced_sweep_leaves_the_cache_untouched(self):
        cache = SweepCache(max_entries=4)
        run_plan(small_plan(packet_sizes=(64, 128)), cache=cache)
        before = (len(cache), cache.evictions, cache.hits, cache.misses)
        traced = run_plan(small_plan(packet_sizes=(64, 128, 256, 512, 1024),
                                     packets_per_point=20, trace=True),
                          cache=cache)
        assert traced.cache_hits == 0
        assert (len(cache), cache.evictions, cache.hits,
                cache.misses) == before

    def test_traced_flood_keeps_the_untraced_working_set_resident(self):
        cache = SweepCache(max_entries=4)
        working = small_plan(packet_sizes=(64, 128, 256, 512))
        run_plan(working, cache=cache)
        for packets in range(20, 26):       # six unseen traced sweeps
            run_plan(small_plan(packet_sizes=(64, 128, 256, 512),
                                packets_per_point=packets, trace=True),
                     cache=cache)
        warm = run_plan(working, cache=cache)
        assert warm.cache_hits == len(warm)
        assert cache.evictions == 0

    def test_traced_request_ignores_traced_entries_of_an_old_cache_file(
            self, tmp_path):
        # Cache files written before traced points left the cache hold
        # traced entries under the traced points' keys.  They must still
        # load, and a traced request must still get every point's spans.
        from repro.service import run_scenario

        plan = small_plan(packet_sizes=(64, 256), packets_per_point=30,
                          trace=True)
        fresh = run_scenario(plan.to_scenario(), cache=SweepCache())
        path = tmp_path / "old.cache.json"
        path.write_text(json.dumps({
            point.cache_key: {"throughput_bps": point.throughput_bps,
                              "mean_latency_ns": point.mean_latency_ns,
                              "trace_jsonl": ""}
            for point in fresh.result.points}))
        cache = SweepCache()
        assert cache.load(str(path)) == len(plan)
        served = run_scenario(plan.to_scenario(), cache=cache)
        assert served.response_text() == fresh.response_text()
        assert served.trace_jsonl.count('"name":"sweep.') >= len(plan)

    def test_matches_direct_reference_sweep(self):
        # The runner's numbers are exactly what the seed's serial loop
        # produces point by point -- caching and batching change nothing.
        result = run_plan(small_plan(), use_cache=False)
        chain = app_chain()
        for point in result.points:
            expected = run_packet_sweep_reference(
                chain, packet_size_bytes=point.point.packet_size_bytes,
                packet_count=point.point.packet_count)
            assert point.throughput_bps == expected[0]
            assert point.mean_latency_ns == expected[1]

    def test_samples_match_app_measure(self):
        plan = small_plan(packet_sizes=(64, 256, 1024))
        samples = run_plan(plan, use_cache=False).samples()[(APP, DEVICE)]
        direct = application_by_name(APP).measure(
            device_by_name(DEVICE), packet_sizes=(64, 256, 1024),
            packets_per_point=200)
        assert [s.throughput_gbps for s in samples] == \
            [s.throughput_gbps for s in direct]
        assert [s.latency_us for s in samples] == \
            [s.latency_us for s in direct]

    def test_unknown_app_raises_harmonia_error(self):
        with pytest.raises(HarmoniaError):
            run_plan(SweepPlan(apps=("no-such-app",), devices=(DEVICE,),
                               packet_sizes=(64,), packets_per_point=10),
                     use_cache=False)


class TestDeterminism:
    def test_warm_cache_reproduces_cold_traces_byte_for_byte(self):
        plan = small_plan(packet_sizes=(64,), packets_per_point=50, trace=True)
        cache = SweepCache()
        cold = run_plan(plan, cache=cache)
        warm = run_plan(plan, cache=cache)
        assert warm.cache_hits == 0         # traced points recompute
        assert (warm.stitched_trace_jsonl(trace_id="t")
                == cold.stitched_trace_jsonl(trace_id="t"))

    def test_each_traced_point_carries_its_own_chain_spans(self):
        # Guards the trace_of key component: a traced point must never
        # serve another chain's spans even when timing content matches.
        plan = SweepPlan(apps=(APP, "host-network"), devices=(DEVICE,),
                         packet_sizes=(64,), packets_per_point=50, trace=True)
        result = run_plan(plan, use_cache=False)
        for point in result.points:
            app = application_by_name(point.point.app)
            chain = app.datapath(
                app.tailored_shell(device_by_name(point.point.device)),
                point.point.with_harmonia)
            assert any(chain.name in record["name"]
                       for record in point.spans)


class TestFastPathAgainstReference:
    @pytest.mark.parametrize("size", [64, 256, 1024])
    def test_run_packet_sweep_equals_reference(self, size):
        chain = app_chain()
        fast = run_packet_sweep(chain, packet_size_bytes=size,
                                packet_count=500)
        reference = run_packet_sweep_reference(chain, packet_size_bytes=size,
                                               packet_count=500)
        assert fast == reference


class TestAtomicCacheSave:
    def test_truncated_cache_file_raises_configuration_error(self, tmp_path):
        # ISSUE satellite: a crash-truncated cache must not surface as a
        # bare JSON traceback.
        path = tmp_path / "sweep.cache.json"
        cache = SweepCache()
        cache.store("k1", {"throughput_bps": 1.0, "mean_latency_ns": 2.0})
        cache.save(str(path))
        full = path.read_text()
        path.write_text(full[: len(full) // 2])
        with pytest.raises(ConfigurationError) as excinfo:
            SweepCache().load(str(path))
        assert str(path) in str(excinfo.value)

    def test_save_leaves_no_temp_files(self, tmp_path):
        cache = SweepCache()
        cache.store("k1", {"throughput_bps": 1.0, "mean_latency_ns": 2.0})
        path = tmp_path / "sweep.cache.json"
        cache.save(str(path))
        cache.save(str(path))               # overwrite goes through replace
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.cache.json"]

    def test_failed_save_preserves_previous_file(self, tmp_path, monkeypatch):
        cache = SweepCache()
        cache.store("k1", {"throughput_bps": 1.0, "mean_latency_ns": 2.0})
        path = tmp_path / "sweep.cache.json"
        cache.save(str(path))
        before = path.read_text()

        import json as json_module

        def boom(*_args, **_kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(json_module, "dump", boom)
        with pytest.raises(OSError):
            cache.save(str(path))
        monkeypatch.undo()
        assert path.read_text() == before   # old cache intact
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.cache.json"]


class TestExecutionPaths:
    def test_kernel_and_oracle_are_byte_identical(self, monkeypatch):
        # The vector kernel is invisible for analytic chains.
        plan = small_plan(packet_sizes=(64, 256), packets_per_point=100,
                          trace=True)
        vector = run_plan(plan, use_cache=False)
        monkeypatch.setattr(sweep_module, "chain_supports_vector",
                            lambda chain: False)
        oracle = run_plan(plan, use_cache=False)
        assert vector.to_json() == oracle.to_json()
        assert (vector.stitched_trace_jsonl(trace_id="t")
                == oracle.stitched_trace_jsonl(trace_id="t"))
        assert vector.stitched_trace_jsonl(trace_id="t")  # non-trivial
