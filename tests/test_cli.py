"""Tests for the operator CLI."""

import pytest

from repro.cli import main


class TestDevices:
    def test_lists_catalog(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        for name in ("device-a", "device-b", "device-c", "device-d"):
            assert name in out

    def test_shows_pcie_and_memory(self, capsys):
        main(["devices"])
        out = capsys.readouterr().out
        assert "Gen4x8" in out
        assert "hbm" in out


class TestDescribe:
    def test_describes_device(self, capsys):
        assert main(["describe", "device-a"]) == 0
        out = capsys.readouterr().out
        assert "XCVU35P" in out
        assert "pcie_generation" in out

    def test_unknown_device_errors(self, capsys):
        assert main(["describe", "nope"]) == 1
        assert "error:" in capsys.readouterr().err


class TestTailor:
    def test_tailors_app_shell(self, capsys):
        assert main(["tailor", "device-a", "--app", "sec-gateway"]) == 0
        out = capsys.readouterr().out
        assert "RBBs: host, network" in out
        assert "x simpler" in out

    def test_unknown_app_errors(self, capsys):
        assert main(["tailor", "device-a", "--app", "nope"]) == 1
        assert "known:" in capsys.readouterr().err


class TestBringup:
    def test_reports_both_interface_costs(self, capsys):
        assert main(["bringup", "device-a", "--app", "sec-gateway"]) == 0
        out = capsys.readouterr().out
        assert "register interface:" in out
        assert "command interface :" in out


class TestMigrate:
    def test_reports_reduction(self, capsys):
        assert main(["migrate", "host-network", "device-c", "device-d"]) == 0
        out = capsys.readouterr().out
        assert "reduction:" in out
        assert "register-interface modifications: 182" in out


class TestHealth:
    def test_healthy_device_exit_zero(self, capsys):
        assert main(["health", "device-b"]) == 0
        out = capsys.readouterr().out
        assert "temperature_c" in out
        assert "ok" in out


class TestTrace:
    def test_exports_jsonl_to_stdout(self, capsys):
        assert main(["trace", "device-a", "--app", "sec-gateway",
                     "--packets", "50", "--sizes", "64"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.startswith("{")]
        assert lines, "expected JSONL records on stdout"
        import json

        names = {json.loads(line)["name"] for line in lines}
        assert any("role" in name for name in names)
        assert any(".link" in name for name in names)

    def test_writes_jsonl_file(self, tmp_path, capsys):
        target = tmp_path / "trace.jsonl"
        assert main(["trace", "device-a", "--app", "sec-gateway",
                     "--packets", "50", "--sizes", "64",
                     "--out", str(target)]) == 0
        assert target.is_file()
        assert "trace records" in capsys.readouterr().out
        assert target.read_text().count("\n") > 0

    def test_unknown_app_errors(self, capsys):
        assert main(["trace", "device-a", "--app", "nope"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_export_without_app_errors(self, capsys):
        assert main(["trace", "device-a"]) == 1
        assert "--app" in capsys.readouterr().err


class TestTraceAnalytics:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        import json

        records = [
            {"type": "B", "id": 0, "name": "root", "ts_ps": 0},
            {"type": "X", "id": 1, "name": "work", "ts_ps": 0,
             "dur_ps": 80, "parent": 0},
            {"type": "E", "id": 0, "name": "root", "ts_ps": 100},
        ]
        path = tmp_path / "t.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    def test_analyze_prints_critical_path_and_flame(self, capsys,
                                                    trace_file):
        assert main(["trace", "analyze", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "Critical path" in out
        assert "root" in out and "work" in out
        assert "Flame fold" in out

    def test_analyze_writes_json(self, capsys, trace_file, tmp_path):
        import json

        target = tmp_path / "analysis.json"
        assert main(["trace", "analyze", str(trace_file),
                     "--json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert [row["name"] for row in payload["critical_path"]] == \
            ["root", "work"]

    def test_diff_ranks_deltas(self, capsys, trace_file, tmp_path):
        import json

        after = tmp_path / "after.jsonl"
        after.write_text(json.dumps(
            {"type": "X", "id": 0, "name": "work", "ts_ps": 0,
             "dur_ps": 200}) + "\n")
        assert main(["trace", "diff", str(trace_file), str(after)]) == 0
        out = capsys.readouterr().out
        assert "Trace diff" in out
        assert "work" in out

    def test_wrong_arity_errors(self, capsys):
        assert main(["trace", "analyze"]) == 1
        assert main(["trace", "diff", "only-one.jsonl"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_missing_file_errors(self, capsys):
        assert main(["trace", "analyze", "/nonexistent/t.jsonl"]) == 1
        assert "error:" in capsys.readouterr().err


class TestMetrics:
    def test_prints_snapshot_tree(self, capsys):
        assert main(["metrics", "device-a", "--app", "sec-gateway",
                     "--packets", "50", "--sizes", "64"]) == 0
        import json

        tree = json.loads(capsys.readouterr().out)
        assert tree["app"]["sec-gateway"]["harmonia"]["64B"]["throughput_gbps"] > 0

    def test_native_variant(self, capsys):
        assert main(["metrics", "device-a", "--app", "sec-gateway",
                     "--packets", "50", "--sizes", "64", "--native"]) == 0
        import json

        tree = json.loads(capsys.readouterr().out)
        assert "native" in tree["app"]["sec-gateway"]


class TestSweep:
    BASE = ["sweep", "--apps", "sec-gateway", "--devices", "device-a",
            "--sizes", "64", "256", "--packets", "100"]

    def test_prints_point_table(self, capsys):
        assert main(self.BASE) == 0
        captured = capsys.readouterr()
        assert "2 points" in captured.out
        assert "sec-gateway" in captured.out
        assert "cache hits" in captured.err

    def test_json_artifact_and_cache_file(self, capsys, tmp_path):
        import json

        artifact = tmp_path / "sweep.json"
        cache_file = tmp_path / "sweep.cache.json"
        args = self.BASE + ["--json", str(artifact),
                            "--cache-file", str(cache_file)]
        assert main(args) == 0
        points = json.loads(artifact.read_text())["points"]
        assert len(points) == 2
        assert all(point["throughput_gbps"] > 0 for point in points)
        assert not any(point["cached"] for point in points)
        # A second invocation is served entirely from the saved cache.
        assert main(args) == 0
        points = json.loads(artifact.read_text())["points"]
        assert all(point["cached"] for point in points)

    def test_trace_out_writes_merged_jsonl(self, capsys, tmp_path):
        trace = tmp_path / "sweep.trace.jsonl"
        assert main(self.BASE + ["--trace-out", str(trace)]) == 0
        assert trace.read_text().count("\n") > 0

    def test_trace_out_writes_one_stitched_tree(self, capsys, tmp_path):
        import json

        from repro.obs.tracectx import TraceContext

        trace = tmp_path / "sweep.trace.jsonl"
        analysis = tmp_path / "analysis.json"
        assert main(self.BASE + ["--trace-out", str(trace)]) == 0
        first = json.loads(trace.read_text().splitlines()[0])
        assert first["name"] == "serve.request"
        scenario_id = first["attrs"]["scenario_id"]
        assert first["attrs"]["trace_id"] == \
            TraceContext.for_scenario(scenario_id).trace_id
        capsys.readouterr()
        assert main(["trace", "analyze", str(trace),
                     "--json", str(analysis)]) == 0
        assert "1 roots" in capsys.readouterr().out
        path = json.loads(analysis.read_text())["critical_path"]
        assert [row["name"] for row in path[:2]] == ["serve.request",
                                                     "serve.execute"]

    def test_unknown_device_errors(self, capsys):
        assert main(["sweep", "--apps", "sec-gateway",
                     "--devices", "nope"]) == 1
        assert "error:" in capsys.readouterr().err


class TestBuild:
    BASE = ["build", "--devices", "device-a", "device-b-rev2",
            "--apps", "sec-gateway", "board-test"]

    def test_prints_target_table(self, capsys):
        assert main(self.BASE) == 0
        captured = capsys.readouterr()
        assert "4 targets" in captured.out
        assert "built" in captured.out
        assert "tailor-memo hits" in captured.err

    def test_variant_devices_share_builds(self, capsys):
        assert main(self.BASE) == 0
        assert "shared" in capsys.readouterr().out

    def test_cache_dir_makes_the_rerun_warm(self, capsys, tmp_path):
        import json

        args = self.BASE + ["--cache-dir", str(tmp_path / "store"),
                            "--json", str(tmp_path / "build.json")]
        assert main(args) == 0
        cold = json.loads((tmp_path / "build.json").read_text())
        assert main(args) == 0
        warm = json.loads((tmp_path / "build.json").read_text())
        statuses = [target["status"] for target in warm["targets"]]
        assert statuses == ["cached"] * 4
        for before, after in zip(cold["targets"], warm["targets"]):
            assert before["checksum"] == after["checksum"]

    def test_manifests_and_trace_artifacts(self, capsys, tmp_path):
        manifests = tmp_path / "manifests.jsonl"
        trace = tmp_path / "build.trace.jsonl"
        assert main(self.BASE + ["--manifests-out", str(manifests),
                                 "--trace-out", str(trace)]) == 0
        assert manifests.read_text().count("\n") == 4
        assert '"build.target"' in trace.read_text()

    def test_default_slos_pass(self, capsys):
        assert main(self.BASE + ["--slo", "default"]) == 0
        assert "all objectives met" in capsys.readouterr().out

    def test_unknown_device_errors(self, capsys):
        assert main(["build", "--devices", "nope"]) == 1
        assert "error:" in capsys.readouterr().err


class TestParser:
    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit):
            main([])


class TestFleet:
    def test_small_fleet_run(self, capsys):
        assert main(["fleet", "--flows", "20000", "--devices", "64",
                     "--tenants", "8", "--slots", "2"]) == 0
        out = capsys.readouterr().out
        assert "least-loaded" in out
        assert "round-robin" in out
        assert "flow-hash" in out
        assert "best policy by p99" in out

    def test_policy_subset_and_json(self, capsys, tmp_path):
        import json

        target = tmp_path / "fleet.json"
        assert main(["fleet", "--flows", "5000", "--devices", "16",
                     "--tenants", "4", "--slots", "2",
                     "--policies", "least-loaded",
                     "--json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert [p["policy"] for p in payload["policies"]] == ["least-loaded"]
        assert payload["spec"]["flow_count"] == 5000
        assert len(payload["policies"][0]["device_utilization"]) == 16

    def test_invalid_spec_errors(self, capsys):
        assert main(["fleet", "--flows", "0"]) == 1
        assert "error:" in capsys.readouterr().err


class TestFleetEpochs:
    ARGS = ["fleet", "--flows", "2000", "--devices", "16",
            "--tenants", "4", "--slots", "2", "--epochs", "4",
            "--churn", "0.02"]

    def test_epoch_run_prints_day_table_and_totals(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "Orchestrated day: 4 epochs" in out
        assert "incremental mode" in out
        assert "totals:" in out
        assert "final:" in out

    def test_epoch_mode_flag_reaches_the_report(self, capsys):
        assert main(self.ARGS + ["--epoch-mode", "verify"]) == 0
        assert "verify mode" in capsys.readouterr().out

    def test_json_artifact_round_trips(self, capsys, tmp_path):
        import json

        target = tmp_path / "epochs.json"
        assert main(self.ARGS + ["--json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["spec"]["epochs"]["epochs"] == 4
        assert len(payload["epochs"]) == 4
        assert payload["digest"]

    def test_churn_without_epochs_errors(self, capsys):
        assert main(["fleet", "--flows", "2000", "--devices", "16",
                     "--churn", "0.02"]) == 1
        assert "--epochs" in capsys.readouterr().err

    def test_policies_conflict_with_epochs(self, capsys):
        assert main(self.ARGS + ["--policies", "round-robin"]) == 1
        assert "epochs" in capsys.readouterr().err


class TestSweepEngine:
    @pytest.mark.parametrize("engine", ["auto", "vector", "des"])
    def test_retired_engine_flag_rejected(self, engine):
        with pytest.raises(SystemExit):
            main(["sweep", "--apps", "sec-gateway",
                  "--devices", "device-a", "--engine", engine])


class TestTraceChrome:
    BASE = ["trace", "device-a", "--app", "sec-gateway",
            "--packets", "50", "--sizes", "64", "--format", "chrome"]

    def test_exports_trace_event_json(self, capsys):
        import json

        assert main(self.BASE) == 0
        out = capsys.readouterr().out
        body = out[: out.rindex("\n# ") + 1] if "\n# " in out else out
        events = json.loads(body.splitlines()[0])
        assert isinstance(events, list) and events
        assert all("ph" in event and "pid" in event and "tid" in event
                   for event in events)

    def test_writes_valid_chrome_file(self, tmp_path, capsys):
        import json

        target = tmp_path / "trace.json"
        assert main(self.BASE + ["--out", str(target)]) == 0
        events = json.loads(target.read_text(encoding="utf-8"))
        begins = sum(1 for event in events if event["ph"] == "B")
        ends = sum(1 for event in events if event["ph"] == "E")
        assert begins and begins == ends

    def test_byte_identical_across_runs(self, tmp_path):
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        assert main(self.BASE + ["--out", str(first)]) == 0
        assert main(self.BASE + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestMetricsPrometheus:
    def test_exposition_format(self, capsys):
        assert main(["metrics", "device-a", "--app", "sec-gateway",
                     "--packets", "50", "--sizes", "64",
                     "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# HELP harmonia_" in out
        assert "# TYPE harmonia_" in out
        assert 'quantile="0.99"' in out


class TestProfile:
    def test_profile_prints_phase_table(self, capsys):
        assert main(["profile", "--packets", "50", "--flows", "2000",
                     "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "cumulative ms" in out
        assert "fleet.policy" in out
        assert "sweep.fused" in out


class TestSloFlags:
    def test_fleet_default_slos_violation_exit_code(self, capsys):
        # The stock scenario overdrives hot devices, so default SLOs trip.
        assert main(["fleet", "--flows", "20000", "--devices", "64",
                     "--slo", "default"]) == 4
        out = capsys.readouterr().out
        assert "SLO check:" in out and "VIOLATION" in out

    def test_fleet_passing_slo_file_exit_zero(self, capsys, tmp_path):
        import json

        spec = tmp_path / "slo.json"
        spec.write_text(json.dumps([
            {"name": "sane-util", "metric": "fleet.*.utilization_mean",
             "upper": 1e9},
        ]), encoding="utf-8")
        assert main(["fleet", "--flows", "5000", "--devices", "16",
                     "--slo", str(spec)]) == 0
        assert "all objectives met" in capsys.readouterr().out

    def test_fleet_json_embeds_slo_report(self, capsys, tmp_path):
        import json

        target = tmp_path / "fleet.json"
        assert main(["fleet", "--flows", "20000", "--devices", "64",
                     "--slo", "default", "--json", str(target)]) == 4
        payload = json.loads(target.read_text())
        assert payload["slo"]["ok"] is False
        assert payload["slo"]["violations"]

    def test_sweep_slo_flag(self, capsys, tmp_path):
        import json

        spec = tmp_path / "slo.json"
        spec.write_text(json.dumps([
            {"name": "throughput-floor", "metric": "sweep.*.throughput_gbps",
             "lower": 1e9},
        ]), encoding="utf-8")
        assert main(["sweep", "--apps", "sec-gateway",
                     "--devices", "device-a", "--sizes", "64",
                     "--packets", "100", "--no-cache",
                     "--slo", str(spec)]) == 4
        assert "VIOLATION throughput-floor" in capsys.readouterr().out

    def test_bad_slo_file_is_an_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("nope", encoding="utf-8")
        assert main(["fleet", "--flows", "5000", "--devices", "16",
                     "--slo", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestFleetTraceOut:
    def test_streams_trace_with_bounded_residency(self, capsys, tmp_path):
        import json

        target = tmp_path / "fleet_trace.jsonl"
        assert main(["fleet", "--flows", "20000", "--devices", "64",
                     "--slo", "default", "--trace-out", str(target),
                     "--trace-ring", "8"]) == 4
        err = capsys.readouterr().err
        assert "streamed" in err and "8 resident" in err
        lines = target.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        # The violation instants land inside the streamed trace.
        assert any(record["name"] == "slo.violation" for record in records)
        ids = [record["id"] for record in records]
        assert ids == sorted(ids)  # emission order survives streaming
