"""The differential conformance fuzzer: determinism, shrinking, and
the pinned corpus replay."""

import glob
import os

from repro.scenario import DifferentialFuzzer, load_scenario
from repro.scenario.fuzz import feasible_pairs

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "data", "scenarios")


def corpus_paths():
    paths = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))
    assert len(paths) == 10, "the pinned corpus must hold ten scenarios"
    return paths


class TestGeneration:
    def test_generation_is_seed_deterministic(self):
        first_fuzzer = DifferentialFuzzer(seed=42)
        first = [first_fuzzer.generate() for _ in range(5)]
        second_fuzzer = DifferentialFuzzer(seed=42)
        second = [second_fuzzer.generate() for _ in range(5)]
        assert first == second

    def test_different_seeds_diverge(self):
        one = DifferentialFuzzer(seed=1)
        two = DifferentialFuzzer(seed=2)
        assert ([one.generate() for _ in range(3)]
                != [two.generate() for _ in range(3)])

    def test_generated_pairs_are_feasible(self):
        fuzzer = DifferentialFuzzer(seed=9)
        pairs = feasible_pairs()
        for _ in range(20):
            scenario = fuzzer.generate()
            for app in scenario.apps:
                for device in scenario.devices:
                    assert device in pairs[app], (app, device)

    def test_mutations_stay_valid_and_feasible(self):
        fuzzer = DifferentialFuzzer(seed=11)
        pairs = feasible_pairs()
        scenario = fuzzer.generate()
        for _ in range(25):
            scenario = fuzzer.mutate(scenario)
            scenario.validate_names()
            for app in scenario.apps:
                for device in scenario.devices:
                    assert device in pairs[app], (app, device)


class TestCampaign:
    def test_clean_campaign_reports_no_failures(self):
        report = DifferentialFuzzer(seed=3, max_packets=8).run(budget=8)
        assert report.ok
        assert report.scenarios_run == 8
        assert report.points_checked >= 8
        assert report.checks_run == 8 * 5
        assert report.coverage > 0

    def test_campaign_is_seed_deterministic(self):
        first = DifferentialFuzzer(seed=5, max_packets=8).run(budget=6)
        second = DifferentialFuzzer(seed=5, max_packets=8).run(budget=6)
        assert first.to_json() == second.to_json()

    def test_coverage_guides_the_corpus(self):
        fuzzer = DifferentialFuzzer(seed=4, max_packets=8)
        fuzzer.run(budget=6)
        assert fuzzer.corpus
        assert len(fuzzer.coverage) > 0


class TestInjectedFailuresAndShrinking:
    def test_injected_failure_is_found_and_minimised(self, tmp_path):
        fuzzer = DifferentialFuzzer(seed=13, max_packets=8,
                                    repro_dir=str(tmp_path),
                                    inject_size_threshold=1_024)
        report = fuzzer.run(budget=12)
        assert report.failures, "seed 13 must generate a >=1024B size"
        failure = report.failures[0]
        assert failure.check == "injected"
        shrunk = failure.shrunk
        # Minimal shape: one app, one device, one offending size, one packet.
        assert len(shrunk.apps) == 1
        assert len(shrunk.devices) == 1
        assert len(shrunk.workload.packet_sizes) == 1
        assert shrunk.workload.packet_sizes[0] >= 1_024
        assert shrunk.workload.packets_per_point == 1
        assert shrunk.workload.trace is False
        assert shrunk.seed == 2_025

    def test_repro_file_replays_the_shrunk_scenario(self, tmp_path):
        fuzzer = DifferentialFuzzer(seed=13, max_packets=8,
                                    repro_dir=str(tmp_path),
                                    inject_size_threshold=1_024)
        report = fuzzer.run(budget=12)
        failure = report.failures[0]
        assert failure.repro_path is not None
        assert load_scenario(failure.repro_path) == failure.shrunk
        assert failure.shrunk.scenario_id()[:16] in failure.repro_path

    def test_shrinking_is_deterministic_across_runs(self, tmp_path):
        runs = []
        for tag in ("a", "b"):
            repro_dir = tmp_path / tag
            fuzzer = DifferentialFuzzer(seed=13, max_packets=8,
                                        repro_dir=str(repro_dir),
                                        inject_size_threshold=1_024)
            report = fuzzer.run(budget=12)
            runs.append([(f.check, f.detail, f.shrunk.canonical_json())
                         for f in report.failures])
        assert runs[0] == runs[1]

    def test_report_json_counts_failures(self):
        fuzzer = DifferentialFuzzer(seed=13, max_packets=8,
                                    inject_size_threshold=1)
        report = fuzzer.run(budget=3)
        payload = report.to_json()
        assert payload["ok"] is False
        assert len(payload["failures"]) == len(report.failures)
        assert payload["failures"][0]["scenario_id"] == \
            report.failures[0].shrunk.scenario_id()


class TestVectorBatchCheck:
    def test_kernel_oracle_is_a_standing_check(self):
        fuzzer = DifferentialFuzzer(seed=1)
        names = [name for name, _ in fuzzer.checks]
        assert "kernel-oracle" in names
        assert "engine-equivalence" not in names
        assert "vector-batch" not in names

    def test_broken_batch_kernel_is_caught_and_shrunk(self, monkeypatch,
                                                      tmp_path):
        import repro.sim.vector as vector_module

        real = vector_module.run_packet_sweep_vector_batch

        def skewed(chain, sizes, count, offered_loads_bps=None):
            rows = real(chain, sizes, count,
                        offered_loads_bps=offered_loads_bps)
            # Perturb the first row by one ULP-ish nudge: the check must
            # catch even the smallest float divergence from the oracle.
            return ([(rows[0][0] * (1 + 1e-12), rows[0][1])] + rows[1:]
                    if rows else rows)

        monkeypatch.setattr(vector_module, "run_packet_sweep_vector_batch",
                            skewed)
        fuzzer = DifferentialFuzzer(seed=3, max_packets=8,
                                    repro_dir=str(tmp_path))
        report = fuzzer.run(budget=6)
        assert not report.ok
        failure = report.failures[0]
        assert failure.check == "kernel-oracle"
        assert "oracle" in failure.detail
        shrunk = failure.shrunk
        assert len(shrunk.apps) == 1
        assert len(shrunk.devices) == 1
        assert len(shrunk.workload.packet_sizes) == 1
        # One-packet trains have zero throughput, which the relative
        # skew cannot perturb, so the minimal failing train is 2 packets.
        assert shrunk.workload.packets_per_point == 2
        assert failure.repro_path is not None
        assert load_scenario(failure.repro_path) == shrunk


class TestSpanChecks:
    @staticmethod
    def _traced():
        from repro.scenario import Scenario, WorkloadSpec

        return Scenario(kind="sweep", apps=("sec-gateway",),
                        devices=("device-a",),
                        workload=WorkloadSpec(packet_sizes=(64, 256),
                                              packets_per_point=4,
                                              trace=True))

    def test_traced_scenario_passes_both_checks(self):
        fuzzer = DifferentialFuzzer(seed=1)
        assert fuzzer.check_kernel_oracle(self._traced()) is None
        assert fuzzer.check_cache_tier(self._traced()) is None

    def test_kernel_oracle_compares_spans_as_encoded_bytes(self,
                                                          monkeypatch):
        # 5 == 5.0 as dicts, but not as the bytes a response carries.
        import repro.runtime.sweep as sweep_module

        real = sweep_module._run_point

        def floated(point, chain, use_vector):
            entry = real(point, chain, use_vector)
            if use_vector:
                first = dict(entry["spans"][0])
                first["ts_ps"] = float(first["ts_ps"])
                entry["spans"] = (first,) + entry["spans"][1:]
            return entry

        monkeypatch.setattr(sweep_module, "_run_point", floated)
        detail = DifferentialFuzzer(seed=1).check_kernel_oracle(
            self._traced())
        assert detail is not None and "spans" in detail

    def test_cache_tier_catches_a_rerun_with_different_spans(self,
                                                            monkeypatch):
        import itertools

        import repro.runtime.sweep as sweep_module

        real = sweep_module.run_point
        runs = itertools.count()

        def drifting(point):
            entry = real(point)
            first = dict(entry["spans"][0], attrs={"run": next(runs)})
            entry["spans"] = (first,) + entry["spans"][1:]
            return entry

        monkeypatch.setattr(sweep_module, "run_point", drifting)
        detail = DifferentialFuzzer(seed=1).check_cache_tier(self._traced())
        assert detail == "stitched trace differs between cold and rerun"


class TestEpochDeltaCheck:
    def test_epoch_delta_is_a_standing_check(self):
        fuzzer = DifferentialFuzzer(seed=1)
        assert "epoch-delta" in [name for name, _ in fuzzer.checks]

    def test_default_stream_is_unchanged_by_epoch_support(self):
        # epoch_rate=0.0 must not consume any extra rng draws: the
        # default generation stream stays byte-identical.
        plain = DifferentialFuzzer(seed=42)
        epoch_aware = DifferentialFuzzer(seed=42, epoch_rate=0.0)
        assert ([plain.generate() for _ in range(5)]
                == [epoch_aware.generate() for _ in range(5)])

    def test_epoch_generation_is_seed_deterministic(self):
        first = DifferentialFuzzer(seed=21, epoch_rate=1.0)
        second = DifferentialFuzzer(seed=21, epoch_rate=1.0)
        assert ([first.generate_epoch() for _ in range(4)]
                == [second.generate_epoch() for _ in range(4)])

    def test_epoch_campaign_runs_clean(self):
        fuzzer = DifferentialFuzzer(seed=6, epoch_rate=1.0,
                                    max_epochs=4, max_epoch_flows=800)
        report = fuzzer.run(budget=6)
        assert report.ok, [f.detail for f in report.failures]
        assert report.scenarios_run == 6
        assert any(key[0] == "fleet-epochs" for key in fuzzer.coverage)

    def test_epoch_campaign_is_seed_deterministic(self):
        first = DifferentialFuzzer(seed=7, epoch_rate=1.0, max_epochs=3,
                                   max_epoch_flows=500).run(budget=4)
        second = DifferentialFuzzer(seed=7, epoch_rate=1.0, max_epochs=3,
                                    max_epoch_flows=500).run(budget=4)
        assert first.to_json() == second.to_json()

    def test_epoch_mutations_stay_valid(self):
        fuzzer = DifferentialFuzzer(seed=8, epoch_rate=1.0)
        scenario = fuzzer.generate_epoch()
        for _ in range(25):
            scenario = fuzzer.mutate(scenario)
            scenario.validate_names()
            assert scenario.kind == "fleet"
            assert scenario.epochs is not None

    def test_injected_epoch_failure_is_found_and_shrunk(self, tmp_path):
        shrunk_texts = []
        for tag in ("a", "b"):
            fuzzer = DifferentialFuzzer(
                seed=19, epoch_rate=1.0, max_epochs=6,
                max_epoch_flows=500, repro_dir=str(tmp_path / tag),
                inject_epoch_threshold=2)
            report = fuzzer.run(budget=6)
            assert report.failures, "an epochs>=2 scenario must appear"
            failure = report.failures[0]
            assert failure.check == "injected-epoch"
            shrunk = failure.shrunk
            # Minimal epoch shape near the threshold (the greedy halver
            # stops within one halving step of it), everything else at
            # its smallest/most-default value.
            assert 2 <= shrunk.epochs.epochs <= 3
            assert shrunk.tenancy.flow_count == 1
            assert shrunk.tenancy.tenant_count == 1
            assert shrunk.epochs.churn == 0.0
            assert shrunk.epochs.autoscale is False
            assert shrunk.epochs.policy == "flow-hash"
            assert failure.repro_path is not None
            assert load_scenario(failure.repro_path) == shrunk
            shrunk_texts.append([f.shrunk.canonical_json()
                                 for f in report.failures])
        assert shrunk_texts[0] == shrunk_texts[1]


class TestPinnedCorpus:
    """Replay of the ten pinned fuzzer scenarios, every run."""

    def test_corpus_files_are_canonical_json(self):
        for path in corpus_paths():
            scenario = load_scenario(path)
            with open(path, encoding="utf-8") as handle:
                assert handle.read() == scenario.canonical_json() + "\n"

    def test_corpus_replays_clean_through_every_check(self):
        fuzzer = DifferentialFuzzer(seed=0)
        for path in corpus_paths():
            scenario = load_scenario(path)
            failure = fuzzer.check_scenario(scenario)
            assert failure is None, (path, failure)

    def test_corpus_ids_match_their_file_names(self):
        for path in corpus_paths():
            scenario = load_scenario(path)
            assert scenario.scenario_id()[:12] in os.path.basename(path)
