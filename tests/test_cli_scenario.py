"""CLI scenario routing: ``--scenario FILE`` must be byte-identical to
the equivalent flag invocation on every subcommand."""

import json

import pytest

from repro.cli import main
from repro.scenario import (
    BuildSpec,
    Scenario,
    TenancySpec,
    WorkloadSpec,
    save_scenario,
)


def write_scenario(tmp_path, scenario, name="scenario.json"):
    path = tmp_path / name
    save_scenario(scenario, str(path))
    return str(path)


class TestSweepParity:
    SCENARIO = Scenario(
        kind="sweep", apps=("sec-gateway",), devices=("device-a",),
        workload=WorkloadSpec(packet_sizes=(64, 256), packets_per_point=50))

    def test_results_and_traces_are_byte_identical(self, tmp_path, capsys):
        path = write_scenario(tmp_path, self.SCENARIO)
        from_file = tmp_path / "file.json"
        from_flags = tmp_path / "flags.json"
        trace_file = tmp_path / "file-trace.jsonl"
        trace_flags = tmp_path / "flags-trace.jsonl"
        assert main(["sweep", "--scenario", path,
                     "--json", str(from_file),
                     "--trace-out", str(trace_file)]) == 0
        assert main(["sweep", "--apps", "sec-gateway",
                     "--devices", "device-a", "--sizes", "64", "256",
                     "--packets", "50",
                     "--json", str(from_flags),
                     "--trace-out", str(trace_flags)]) == 0
        capsys.readouterr()
        assert from_file.read_bytes() == from_flags.read_bytes()
        assert trace_file.read_bytes() == trace_flags.read_bytes()
        assert trace_file.read_bytes(), "traced sweep must export spans"

    def test_shape_flags_conflict_with_scenario(self, tmp_path, capsys):
        path = write_scenario(tmp_path, self.SCENARIO)
        assert main(["sweep", "--scenario", path,
                     "--apps", "sec-gateway"]) == 1
        err = capsys.readouterr().err
        assert "--apps" in err
        assert "--scenario" in err

    def test_flags_without_apps_point_at_scenario(self, capsys):
        assert main(["sweep", "--sizes", "64"]) == 1
        assert "--scenario" in capsys.readouterr().err

    def test_wrong_kind_is_loud(self, tmp_path, capsys):
        path = write_scenario(tmp_path, Scenario(kind="fleet"))
        assert main(["sweep", "--scenario", path]) == 1
        assert '"kind": "sweep"' in capsys.readouterr().err

    def test_missing_file_is_loud(self, tmp_path, capsys):
        assert main(["sweep", "--scenario",
                     str(tmp_path / "absent.json")]) == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["des", "vector"])
    def test_invalid_engine_in_file_is_loud(self, tmp_path, capsys, engine):
        path = tmp_path / "bad.json"
        payload = self.SCENARIO.to_json()
        payload["engine"] = engine
        path.write_text(json.dumps(payload))
        assert main(["sweep", "--scenario", str(path)]) == 1
        assert "'engine' is retired" in capsys.readouterr().err


class TestBuildParity:
    SCENARIO = Scenario(
        kind="build", apps=("sec-gateway", "board-test"),
        devices=("device-a", "device-b"), build=BuildSpec(effort=0))

    def test_manifests_are_byte_identical(self, tmp_path, capsys):
        path = write_scenario(tmp_path, self.SCENARIO)
        from_file = tmp_path / "file.jsonl"
        from_flags = tmp_path / "flags.jsonl"
        assert main(["build", "--scenario", path,
                     "--manifests-out", str(from_file)]) == 0
        assert main(["build", "--devices", "device-a", "device-b",
                     "--apps", "sec-gateway", "board-test",
                     "--manifests-out", str(from_flags)]) == 0
        capsys.readouterr()
        assert from_file.read_bytes() == from_flags.read_bytes()
        assert from_file.read_bytes(), "build must emit manifests"

    def test_reports_match_minus_wall_clock(self, tmp_path, capsys):
        path = write_scenario(tmp_path, self.SCENARIO)
        from_file = tmp_path / "file.json"
        from_flags = tmp_path / "flags.json"
        assert main(["build", "--scenario", path,
                     "--json", str(from_file)]) == 0
        assert main(["build", "--devices", "device-a", "device-b",
                     "--apps", "sec-gateway", "board-test",
                     "--json", str(from_flags)]) == 0
        capsys.readouterr()
        first = json.loads(from_file.read_text())
        second = json.loads(from_flags.read_text())
        first.pop("elapsed_s")
        second.pop("elapsed_s")
        assert first == second

    def test_year_flag_conflicts_with_scenario(self, tmp_path, capsys):
        path = write_scenario(tmp_path, self.SCENARIO)
        assert main(["build", "--scenario", path, "--year", "2022"]) == 1
        assert "--year" in capsys.readouterr().err


class TestFleetParity:
    SCENARIO = Scenario(
        kind="fleet", seed=7,
        tenancy=TenancySpec(flow_count=2_000, device_count=16,
                            tenant_count=4, slots_per_device=2))

    FLAGS = ["--flows", "2000", "--devices", "16", "--tenants", "4",
             "--slots", "2", "--seed", "7"]

    def test_results_match_minus_wall_clock(self, tmp_path, capsys):
        path = write_scenario(tmp_path, self.SCENARIO)
        from_file = tmp_path / "file.json"
        from_flags = tmp_path / "flags.json"
        assert main(["fleet", "--scenario", path,
                     "--json", str(from_file)]) == 0
        assert main(["fleet", *self.FLAGS,
                     "--json", str(from_flags)]) == 0
        capsys.readouterr()
        first = json.loads(from_file.read_text())
        second = json.loads(from_flags.read_text())
        first.pop("elapsed_s")
        second.pop("elapsed_s")
        assert first == second

    def test_shape_flags_conflict_with_scenario(self, tmp_path, capsys):
        path = write_scenario(tmp_path, self.SCENARIO)
        assert main(["fleet", "--scenario", path, "--flows", "10"]) == 1
        assert "--flows" in capsys.readouterr().err

    def test_invalid_tenancy_keeps_fleet_message(self, capsys):
        assert main(["fleet", "--flows", "0"]) == 1
        assert "need at least one flow" in capsys.readouterr().err


class TestFuzzCommand:
    def test_clean_budget_exits_zero(self, tmp_path, capsys):
        assert main(["fuzz", "--budget", "4", "--seed", "3",
                     "--repro-dir", str(tmp_path / "repros")]) == 0
        out = capsys.readouterr().out
        assert "4 scenarios" in out
        assert "0 failure(s)" in out

    def test_injected_failure_exits_five_and_writes_repro(self, tmp_path,
                                                          capsys):
        repro_dir = tmp_path / "repros"
        report_path = tmp_path / "report.json"
        assert main(["fuzz", "--budget", "12", "--seed", "13",
                     "--repro-dir", str(repro_dir),
                     "--inject-failure", "1024",
                     "--json", str(report_path)]) == 5
        out = capsys.readouterr().out
        assert "FAIL injected" in out
        repros = list(repro_dir.glob("scenario-*.json"))
        assert repros, "minimized repro JSON must land on disk"
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is False
        assert payload["elapsed_s"] >= 0

    def test_epoch_rate_runs_the_epoch_differential(self, tmp_path, capsys):
        assert main(["fuzz", "--budget", "4", "--seed", "6",
                     "--epoch-rate", "1.0",
                     "--repro-dir", str(tmp_path / "repros")]) == 0
        assert "0 failure(s)" in capsys.readouterr().out

    def test_inject_epoch_exits_five_with_minimal_repro(self, tmp_path,
                                                        capsys):
        repro_dir = tmp_path / "repros"
        assert main(["fuzz", "--budget", "4", "--seed", "19",
                     "--epoch-rate", "1.0", "--inject-epoch", "2",
                     "--repro-dir", str(repro_dir)]) == 5
        assert "FAIL injected-epoch" in capsys.readouterr().out
        assert list(repro_dir.glob("scenario-*.json"))


@pytest.mark.parametrize("command", ["sweep", "build", "fleet"])
def test_every_routed_subcommand_accepts_scenario(command, tmp_path, capsys):
    """The one shared loader: every tier rejects the wrong kind loudly."""
    wrong_kind = {"sweep": "fleet", "build": "sweep", "fleet": "build"}
    scenario = {"fleet": Scenario(kind="fleet"),
                "sweep": Scenario(kind="sweep", apps=("sec-gateway",),
                                  devices=("device-a",)),
                "build": Scenario(kind="build", devices=("device-a",),
                                  apps=("sec-gateway",))}[wrong_kind[command]]
    path = write_scenario(tmp_path, scenario)
    assert main([command, "--scenario", path]) == 1
    assert f'"kind": "{command}"' in capsys.readouterr().err
