"""``repro.cli serve`` as a real subprocess: start, serve, shut down.

This is the lifecycle CI exercises: spawn the daemon, read its
announcement line, health-check it, run one scenario, then SIGTERM and
require a clean exit 0 -- the same contract an operator's service
manager relies on.
"""

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.scenario import Scenario, WorkloadSpec
from repro.serve import ServeClient

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SWEEP = Scenario(kind="sweep", apps=("sec-gateway",), devices=("device-a",),
                 workload=WorkloadSpec(packet_sizes=(64,),
                                       packets_per_point=50))


def _spawn_daemon(extra_args=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        cwd=REPO_ROOT, text=True)


def _read_port(process):
    line = process.stdout.readline().strip()
    assert line.startswith("serving on http://"), line
    return int(line.rsplit(":", 1)[1])


class TestServeSubprocess:
    def test_full_lifecycle(self):
        process = _spawn_daemon()
        try:
            port = _read_port(process)
            client = ServeClient("127.0.0.1", port, timeout=30)
            assert client.health()["status"] == "ok"

            response = client.run_scenario(SWEEP, endpoint="sweep")
            assert response.status == 200
            body = response.json()
            assert body["scenario_id"] == SWEEP.scenario_id()
            assert body["exit_code"] == 0

            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, stderr
        assert "# shutdown after" in stderr
        assert "2 request(s)" in stderr

    def test_sigint_also_exits_cleanly(self):
        process = _spawn_daemon()
        try:
            port = _read_port(process)
            ServeClient("127.0.0.1", port, timeout=30).health()
            process.send_signal(signal.SIGINT)
            _, stderr = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, stderr

    def test_bad_flags_fail_fast(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--max-queue", "0"],
            capture_output=True, env=env, cwd=REPO_ROOT, text=True,
            timeout=60)
        assert result.returncode == 1
        assert "max_queue" in result.stderr

    def test_truncated_cache_file_fails_before_serving(self, tmp_path):
        cache_file = tmp_path / "cache.json"
        cache_file.write_text('{"k": {"throughput_bps": 1.0, "mean_lat')
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--cache-file", str(cache_file)],
            capture_output=True, env=env, cwd=REPO_ROOT, text=True,
            timeout=60)
        assert result.returncode == 1
        assert result.stderr.startswith("error: ")
        assert "not a sweep cache file" in result.stderr
        assert "serving on" not in result.stdout
