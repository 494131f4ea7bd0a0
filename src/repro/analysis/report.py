"""Collate benchmark artifacts into one reproduction report.

``pytest benchmarks/ --benchmark-only`` leaves one text artifact per
experiment under ``benchmarks/results/``; this module stitches them into
a single report (the machine-generated companion to EXPERIMENTS.md) and
checks completeness against the expected experiment list.
"""

import json
import pathlib
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

#: Every artifact a full benchmark run must produce.
EXPECTED_EXPERIMENTS: Tuple[str, ...] = (
    "fig03a_shell_role_workload",
    "fig03b_vendor_differences",
    "fig03c_fleet_growth",
    "fig03d_init_sequences",
    "fig10a_mac_wrapper",
    "fig10b_pcie_wrapper",
    "fig10c_ddr_wrapper",
    "fig11_tailoring_resources",
    "fig12_tailoring_configs",
    "fig13_command_modifications",
    "fig14_rbb_reuse",
    "fig15_app_reuse",
    "fig16_overhead",
    "fig16_overhead_all_devices",
    "fig17a_sec_gateway",
    "fig17b_layer4_lb",
    "fig17c_host_network",
    "fig17d_retrieval",
    "fig18a_framework_resources",
    "fig18b_matmul",
    "fig18c_database",
    "fig18d_tcp",
    "table1_capabilities",
    "table2_setup",
    "table3_device_support",
    "table4_interface_simplification",
)

#: Extension artifacts: reported when present, not required.
EXTENSION_EXPERIMENTS: Tuple[str, ...] = (
    "ablation_interleaving",
    "ablation_hot_cache",
    "ablation_active_scheduling",
    "ablation_tailoring_levels",
    "ablation_cdc_matching",
    "ablation_tailoring_power",
    "ext_command_rtt",
    "ext_command_burst",
    "ext_buffer_sweep",
    "ext_drr_fairness",
)


def default_results_dir() -> pathlib.Path:
    return pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "results"


def load_results(results_dir: Optional[pathlib.Path] = None) -> Dict[str, str]:
    """Read every artifact in the results directory."""
    directory = results_dir or default_results_dir()
    if not directory.is_dir():
        raise ConfigurationError(
            f"no results at {directory}; run pytest benchmarks/ --benchmark-only first"
        )
    return {
        path.stem: path.read_text().rstrip()
        for path in sorted(directory.glob("*.txt"))
    }


def missing_experiments(results: Dict[str, str]) -> List[str]:
    """Required experiments a run failed to produce."""
    return [name for name in EXPECTED_EXPERIMENTS if name not in results]


def default_perf_baseline_path() -> pathlib.Path:
    """Where ``make bench-smoke`` leaves the runtime perf baseline."""
    return pathlib.Path(__file__).resolve().parents[3] / "BENCH_runtime.json"


def default_sweep_baseline_path() -> pathlib.Path:
    """Where ``make bench-sweep`` leaves the sweep-runner timings."""
    return pathlib.Path(__file__).resolve().parents[3] / "BENCH_sweep.json"


def load_sweep_baseline(
    path: Optional[pathlib.Path] = None,
) -> Optional[Dict[str, Any]]:
    """The sweep-runner serial/fused/cached timings, if recorded."""
    return load_perf_baseline(path or default_sweep_baseline_path())


def default_vector_baseline_path() -> pathlib.Path:
    """Where ``make bench-vector`` leaves the vector-kernel timings."""
    return pathlib.Path(__file__).resolve().parents[3] / "BENCH_vector.json"


def load_vector_baseline(
    path: Optional[pathlib.Path] = None,
) -> Optional[Dict[str, Any]]:
    """The vector-kernel vs oracle-loop timings, if recorded."""
    return load_perf_baseline(path or default_vector_baseline_path())


def default_fleet_baseline_path() -> pathlib.Path:
    """Where ``make bench-fleet`` leaves the fleet serving results."""
    return pathlib.Path(__file__).resolve().parents[3] / "BENCH_fleet.json"


def load_fleet_baseline(
    path: Optional[pathlib.Path] = None,
) -> Optional[Dict[str, Any]]:
    """The fleet-scale serving results, if a fleet run produced them."""
    return load_perf_baseline(path or default_fleet_baseline_path())


def default_obs_baseline_path() -> pathlib.Path:
    """Where ``make bench-obs`` leaves the observability overheads."""
    return pathlib.Path(__file__).resolve().parents[3] / "BENCH_obs.json"


def load_obs_baseline(
    path: Optional[pathlib.Path] = None,
) -> Optional[Dict[str, Any]]:
    """The tracing/streaming overhead numbers, if recorded."""
    return load_perf_baseline(path or default_obs_baseline_path())


def default_build_baseline_path() -> pathlib.Path:
    """Where ``make bench-build`` leaves the build-farm timings."""
    return pathlib.Path(__file__).resolve().parents[3] / "BENCH_build.json"


def load_build_baseline(
    path: Optional[pathlib.Path] = None,
) -> Optional[Dict[str, Any]]:
    """The build-farm naive/cold/warm timings, if recorded."""
    return load_perf_baseline(path or default_build_baseline_path())


def load_perf_baseline(
    path: Optional[pathlib.Path] = None,
) -> Optional[Dict[str, Any]]:
    """The machine-readable runtime baseline, if a smoke run produced one."""
    baseline = path or default_perf_baseline_path()
    if not baseline.is_file():
        return None
    try:
        return json.loads(baseline.read_text())
    except (ValueError, OSError):
        return None


def _baseline_lines(title: str, baseline: Dict[str, Any]) -> List[str]:
    lines = ["", "-" * 72, title, "-" * 72, ""]
    for key in sorted(baseline):
        lines.append(f"  {key}: {baseline[key]}")
    return lines


def _fleet_lines(fleet: Dict[str, Any]) -> List[str]:
    """A compact per-policy summary of a ``repro.cli fleet`` artifact."""
    lines = ["", "-" * 72, "FLEET SERVING BASELINE (repro.cli fleet)",
             "-" * 72, ""]
    spec = fleet.get("spec", {})
    lines.append(
        f"  {spec.get('flow_count', '?'):,} flows x "
        f"{spec.get('device_count', '?'):,} devices x "
        f"{spec.get('tenant_count', '?')} tenants, "
        f"{fleet.get('effective_offered_gbps', 0) / 1_000:.1f} of "
        f"{fleet.get('total_capacity_gbps', 0) / 1_000:.1f} Tbps offered"
    )
    for policy in fleet.get("policies", []):
        lines.append(
            f"  {policy.get('policy', '?'):13s} "
            f"p50 {policy.get('p50_ns', 0) / 1_000:8.1f} us  "
            f"p99 {policy.get('p99_ns', 0) / 1_000:9.1f} us  "
            f"util {policy.get('utilization_mean', 0):.2f}  "
            f"imbalance {policy.get('imbalance', 0):.2f}"
        )
    if "best_policy" in fleet:
        lines.append(f"  best policy by p99: {fleet['best_policy']}")
    return lines


def build_report(results_dir: Optional[pathlib.Path] = None) -> str:
    """The full text report, sectioned into paper results and extensions."""
    results = load_results(results_dir)
    missing = missing_experiments(results)
    lines: List[str] = ["=" * 72,
                        "Harmonia reproduction -- benchmark report",
                        "=" * 72, ""]
    if missing:
        lines.append("INCOMPLETE RUN -- missing experiments:")
        lines.extend(f"  - {name}" for name in missing)
        lines.append("")
    lines.append(f"paper experiments reproduced: "
                 f"{len(EXPECTED_EXPERIMENTS) - len(missing)}"
                 f"/{len(EXPECTED_EXPERIMENTS)}")
    extensions_present = [name for name in EXTENSION_EXPERIMENTS if name in results]
    lines.append(f"extension experiments present: {len(extensions_present)}"
                 f"/{len(EXTENSION_EXPERIMENTS)}")
    lines.append("")
    lines.append("-" * 72)
    lines.append("PAPER TABLES AND FIGURES")
    lines.append("-" * 72)
    for name in EXPECTED_EXPERIMENTS:
        if name in results:
            lines.append("")
            lines.append(results[name])
    if extensions_present:
        lines.append("")
        lines.append("-" * 72)
        lines.append("EXTENSIONS AND ABLATIONS")
        lines.append("-" * 72)
        for name in extensions_present:
            lines.append("")
            lines.append(results[name])
    baseline = load_perf_baseline()
    if baseline is not None:
        lines.extend(_baseline_lines(
            "RUNTIME PERF BASELINE (benchmarks/perf_smoke.py)", baseline))
    sweep = load_sweep_baseline()
    if sweep is not None:
        lines.extend(_baseline_lines(
            "SWEEP RUNNER BASELINE (benchmarks/sweep_smoke.py)", sweep))
    vector = load_vector_baseline()
    if vector is not None:
        lines.extend(_baseline_lines(
            "VECTOR KERNEL BASELINE (benchmarks/vector_smoke.py)", vector))
    fleet = load_fleet_baseline()
    if fleet is not None:
        lines.extend(_fleet_lines(fleet))
    obs = load_obs_baseline()
    if obs is not None:
        lines.extend(_baseline_lines(
            "OBSERVABILITY BASELINE (benchmarks/obs_smoke.py)", obs))
    build = load_build_baseline()
    if build is not None:
        lines.extend(_baseline_lines(
            "BUILD FARM BASELINE (benchmarks/build_smoke.py)", build))
    return "\n".join(lines) + "\n"
