"""The serving daemon's malloc policy (:mod:`repro.serve.heap`)."""

import os
import resource
import subprocess
import sys

import pytest

from repro.serve import heap

#: Minor page faults a warm 100k-flow day request may take once the
#: policy is applied; without it the same request takes ~1800.
WARM_DAY_FAULT_BUDGET = 64

_WARM_DAY_PROBE = """
import random, resource, sys
from repro.scenario.spec import Scenario
from repro.serve.heap import apply_heap_policy
from repro.service.runs import run_scenario

if not apply_heap_policy():
    print("no-mallopt")
    sys.exit(0)
rng = random.Random(11)

def day():
    run_scenario(Scenario.from_json({
        "kind": "fleet", "seed": rng.randrange(1, 2 ** 31),
        "tenancy": {"flow_count": 100_000, "device_count": 100,
                    "tenant_count": 24},
        "epochs": {"epochs": 32, "churn": 0.01}})).response_text()

for _ in range(3):
    day()
before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
day()
print(resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before)
"""


@pytest.mark.skipif(not hasattr(resource, "RUSAGE_THREAD"),
                    reason="no per-thread fault counts on this platform")
def test_a_warm_day_request_keeps_its_heap():
    # A fresh process: the policy is process-wide and must not leak
    # into the pytest process.
    source_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(heap.__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, env.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c", _WARM_DAY_PROBE], env=env,
        capture_output=True, text=True, timeout=300, check=True)
    faults = probe.stdout.strip()
    if faults == "no-mallopt":
        pytest.skip("the C library has no mallopt")
    assert int(faults) <= WARM_DAY_FAULT_BUDGET


class _NoMallopt:
    """A C library without ``mallopt`` (not glibc)."""


def test_no_mallopt_is_a_no_op(monkeypatch):
    monkeypatch.setattr(heap, "_load_libc", _NoMallopt)
    assert heap.apply_heap_policy() is False


def test_an_unloadable_c_library_is_a_no_op(monkeypatch):
    def unloadable():
        raise OSError("no C library")

    monkeypatch.setattr(heap, "_load_libc", unloadable)
    assert heap.apply_heap_policy() is False
