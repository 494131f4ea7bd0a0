"""Steadiness evidence: run every workload over several seeds, in sets.

Usage (from the repository root)::

    python3 perfbench/prove.py [--sets 2] [--seeds 1,2,...,10]
                               [--workload NAME ...]
                               [--out perfbench/STEADINESS.json]

A set runs ``BENCHMARK.json``'s command once per (workload, seed) with
``--trace 0`` and ``run_seconds``; the sets run one after another.  Per
set, workload and end-to-end metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  Across sets it reports
each metric's change of median against the first set.  A spread or a
change at or above the metric's bound is flagged and makes the exit
status 1.  Runs whose warm-up never converged are counted.  Before each
run a fixed pure-Python loop is timed (``host_probe_s``); its change of
median between sets is how much the host's own speed moved, which
tells a benchmark change from a host change.  With ``--out`` the tables
are written as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parents[1]

if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench.run import UNSTEADY  # noqa: E402


def host_probe_s() -> float:
    """Seconds a fixed pure-Python loop takes on this host right now."""
    started = time.perf_counter()
    total = 0
    for value in range(2_000_000):
        total += value * value
    return time.perf_counter() - started


def run_once(config: Dict[str, Any], workload: str, seed: int
             ) -> Dict[str, Any]:
    probe = host_probe_s()
    command = config["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", "0"]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    wall = time.perf_counter() - started
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} failed its check: "
                           f"{result['failed']} of {result['attempted']}")
    result["wall_s"] = wall
    result["host_probe_s"] = probe
    result["unsteady"] = any(line.startswith(UNSTEADY) for line in lines)
    return result


def summarise(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def run_set(config: Dict[str, Any], names: List[str], seeds: List[int],
            label: str) -> Dict[str, Any]:
    table: Dict[str, Any] = {}
    for name in names:
        runs = []
        for seed in seeds:
            runs.append(run_once(config, name, seed))
            values = " ".join(f"{key} {metric['value']:.4g}" for key, metric
                              in sorted(runs[-1]["metrics"].items()))
            print(f"{label} {name} seed {seed}: {runs[-1]['wall_s']:.1f} s "
                  f"wall, probe {runs[-1]['host_probe_s']:.4f} s, {values}"
                  f"{'  (warm-up did not converge)' if runs[-1]['unsteady'] else ''}",
                  file=sys.stderr, flush=True)
        table[name] = {
            "runs": len(runs),
            "unsteady_warmups": sum(run["unsteady"] for run in runs),
            "wall_s_max": max(run["wall_s"] for run in runs),
            "host_probe_s": summarise([run["host_probe_s"] for run in runs]),
            "metrics": {metric["name"]: summarise(
                [run["metrics"][metric["name"]]["value"] for run in runs])
                for metric in config["end_to_end"]},
        }
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in config["end_to_end"]}
    seeds = [int(seed) for seed in args.seeds.split(",")]
    names = args.workload or [w["name"] for w in config["workloads"]]

    sets = [run_set(config, names, seeds, f"set {number + 1}")
            for number in range(args.sets)]
    steady = True
    agreement: Dict[str, Any] = {}
    for name in names:
        unsteady = sum(table[name]["unsteady_warmups"] for table in sets)
        if unsteady:
            print(f"{name}: {unsteady} warm-ups did not converge")
        probes = [table[name]["host_probe_s"]["median"] for table in sets]
        agreement[name] = {"host_probe_s": {
            "medians": probes,
            "max_change": max(abs(p / probes[0] - 1.0) for p in probes)}}
        print(f"{name:18s} {'host_probe_s':16s} medians "
              f"{' '.join(f'{p:10.4f}' for p in probes)} (the host's speed)")
        for metric, bound in bounds.items():
            medians = [table[name]["metrics"][metric]["median"]
                       for table in sets]
            spreads = [table[name]["metrics"][metric]["spread"]
                       for table in sets]
            change = max(abs(m / medians[0] - 1.0) for m in medians)
            agreement[name][metric] = {"medians": medians,
                                       "max_change": change,
                                       "max_spread": max(spreads),
                                       "bound": bound}
            flag = ""
            if max(spreads) >= bound or change >= bound:
                flag, steady = "  <-- not within its bound", False
            elif max(spreads) >= bound / 3:
                flag = "  (spread above a third of its bound)"
            print(f"{name:18s} {metric:16s} medians "
                  f"{' '.join(f'{m:10.4f}' for m in medians)} "
                  f"change {change:.4f} spreads "
                  f"{' '.join(f'{s:.4f}' for s in spreads)} "
                  f"(bound {bound}){flag}")
    if args.out:
        evidence = {
            "seeds": seeds,
            "run_seconds": config["run_seconds"],
            "host": {"cpus": len(os.sched_getaffinity(0)),
                     "machine": platform.machine(),
                     "python": platform.python_version()},
            "sets": sets,
            "agreement": agreement,
        }
        Path(args.out).write_text(json.dumps(evidence, indent=1,
                                             sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
