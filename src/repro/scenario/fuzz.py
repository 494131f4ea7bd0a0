"""Differential conformance fuzzer across the execution paths.

The reproduction's central determinism claim is that its execution
paths -- the content-keyed :class:`repro.runtime.sweep.SweepCache`, the
closed-form numpy kernel (:mod:`repro.sim.vector`), and the
per-Transaction oracle loop -- are *exactly* interchangeable: same
throughputs, same latencies, byte-identical traces and metrics.  The
unit suite pins that equality on hand-picked chains; this module hunts
for the chains nobody hand-picked.

:class:`DifferentialFuzzer` generates random **valid**
:class:`repro.scenario.Scenario` objects from one seeded
``random.Random`` stream (a given seed always produces the same
scenarios, failures, and shrinks), guided by a coverage map over
(app, device, size-magnitude, datapath-variant, tracing,
vector-supported) keys: a scenario that lights up new coverage joins
the corpus and later scenarios mutate corpus members instead of
starting from scratch.

Each scenario passes through four conformance checks:

* **serialization** -- canonical-JSON round trip is the identity and
  the canonical text is a fixpoint;
* **kernel-oracle** -- every vector-eligible point runs twice through
  the runner's private per-point seam: once forced onto the
  per-Transaction oracle (traced head included) and once on the kernel
  (a one-row call); entries must match **exactly** -- floats, and
  every span record compared as its encoded bytes (so ``1`` vs ``1.0``
  or ``0.0`` vs ``-0.0`` counts as a mismatch) -- as must the stage
  occupancy/statistics each leaves on the chain, and the first point's
  metrics snapshot and trace export.  Untraced points then run grouped through the fused kernel
  (:func:`repro.sim.vector.run_packet_sweep_vector_batch`), whose rows
  and folded-back stage state must equal the oracle's too;
* **cache-tier** -- the plan runs cold then warm against a private
  :class:`SweepCache`; an untraced warm run must be all hits and
  numerically identical to the cold run, and a traced plan must never
  touch the cache and must stitch byte-identical span trees both times;
* **baseline-capabilities** -- every framework model keeps its Table 1
  capability row well-formed, ``deploy`` honours ``supports`` (loud
  :class:`IncompatiblePlatformError` when unsupported), Harmonia
  supports every device and always presents the command-based host
  interface.

A failing scenario is **shrunk**: a deterministic greedy pass drops
apps/devices/sizes, halves magnitudes, and resets fields to defaults
while the failing check keeps failing, then the minimal scenario is
written (canonical JSON) into ``repro_dir`` for replay with
``repro.cli sweep --scenario``.  The ``inject_size_threshold`` hook
plants an artificial failure (any packet size >= the threshold) so the
shrinker itself is testable end to end.
"""

import dataclasses
import functools
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import HarmoniaError, IncompatiblePlatformError
from repro.scenario.spec import (
    EpochsSpec,
    Scenario,
    TenancySpec,
    WorkloadSpec,
    known_app_names,
    known_device_names,
    loads_scenario,
    require_device,
    save_scenario,
)

#: A conformance check: ``None`` means pass, a string is the failure detail.
CheckFn = Callable[[Scenario], Optional[str]]

#: Table 1 column names every capability row must carry.
_CAPABILITY_COLUMNS = ("heterogeneity", "unified_shell", "portable_role",
                      "consistent_host_interface")


@functools.lru_cache(maxsize=1)
def feasible_pairs() -> Dict[str, Tuple[str, ...]]:
    """App name -> the catalog devices the app can actually tailor to.

    Tailoring is allowed to refuse a device (no network cage, no
    on-card memory, memory bandwidth below the role's floor); those are
    capacity outcomes, not conformance bugs, so the fuzzer generates
    only runnable (app, device) pairs.  A hand-written scenario naming
    an infeasible pair still fails loudly at run time.
    """
    from repro.apps import all_applications
    from repro.platform.catalog import all_devices

    pairs: Dict[str, Tuple[str, ...]] = {}
    for app in all_applications():
        feasible: List[str] = []
        for device in sorted(all_devices(), key=lambda d: d.name):
            try:
                shell = app.tailored_shell(device)
                for with_harmonia in (True, False):
                    app.datapath(shell, with_harmonia)
            except HarmoniaError:
                continue
            feasible.append(device.name)
        pairs[app.name] = tuple(feasible)
    return pairs


@functools.lru_cache(maxsize=1)
def _min_fleet_devices() -> int:
    """The smallest valid fleet: one instance per active device type."""
    from repro.platform.fleet import production_fleet

    return len(production_fleet().active_introductions(2_024))


# ---------------------------------------------------------------------------
# Failure and report records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FuzzFailure:
    """One conformance violation, with its minimized reproducer."""

    check: str                  # which check tripped
    detail: str                 # human-readable mismatch description
    scenario: Scenario          # the scenario as generated
    shrunk: Scenario            # the minimal scenario that still fails
    repro_path: Optional[str] = None   # where the shrunk JSON landed

    def to_json(self) -> Dict[str, Any]:
        return {
            "check": self.check,
            "detail": self.detail,
            "scenario_id": self.shrunk.scenario_id(),
            "scenario": self.scenario.to_json(),
            "shrunk": self.shrunk.to_json(),
            "repro_path": self.repro_path,
        }


@dataclass
class FuzzReport:
    """Outcome of one :meth:`DifferentialFuzzer.run` campaign."""

    seed: int
    budget: int
    scenarios_run: int = 0
    points_checked: int = 0
    checks_run: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    coverage: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "scenarios_run": self.scenarios_run,
            "points_checked": self.points_checked,
            "checks_run": self.checks_run,
            "coverage": self.coverage,
            "ok": self.ok,
            "failures": [failure.to_json() for failure in self.failures],
        }


# ---------------------------------------------------------------------------
# The fuzzer
# ---------------------------------------------------------------------------

class DifferentialFuzzer:
    """Coverage-guided differential fuzzer over the scenario space.

    Deterministic by construction: every random draw comes from one
    ``random.Random(seed)`` stream, so two campaigns with equal seeds
    and budgets generate identical scenarios, find identical failures,
    and shrink them to identical minimal reproducers.
    """

    def __init__(self, seed: int = 2_025, repro_dir: Optional[str] = None,
                 inject_size_threshold: Optional[int] = None,
                 max_apps: int = 2, max_devices: int = 2,
                 max_sizes: int = 3, max_packets: int = 48,
                 max_size_bytes: int = 2_048,
                 epoch_rate: float = 0.0,
                 max_epochs: int = 8, max_epoch_flows: int = 2_000,
                 inject_epoch_threshold: Optional[int] = None) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.repro_dir = repro_dir
        self.inject_size_threshold = inject_size_threshold
        self.inject_epoch_threshold = inject_epoch_threshold
        self.max_apps = max_apps
        self.max_devices = max_devices
        self.max_sizes = max_sizes
        self.max_packets = max_packets
        self.max_size_bytes = max_size_bytes
        # Epoch-churn scenarios are opt-in (epoch_rate > 0): the default
        # generation stream stays byte-identical to earlier campaigns,
        # so pinned corpora and the smoke benchmark's determinism gates
        # are unaffected.
        self.epoch_rate = epoch_rate
        self.max_epochs = max_epochs
        self.max_epoch_flows = max_epoch_flows
        self._apps: Tuple[str, ...] = known_app_names()
        self._devices: Tuple[str, ...] = known_device_names()
        self._feasible: Dict[str, Tuple[str, ...]] = feasible_pairs()
        self.coverage: Set[Tuple[Any, ...]] = set()
        self.corpus: List[Scenario] = []
        self._baseline_memo: Dict[str, Optional[str]] = {}
        self.checks: List[Tuple[str, CheckFn]] = [
            ("serialization", self.check_serialization),
            ("kernel-oracle", self.check_kernel_oracle),
            ("cache-tier", self.check_cache_tier),
            ("baseline-capabilities", self.check_baseline_capabilities),
            ("epoch-delta", self.check_epoch_delta),
        ]
        if inject_size_threshold is not None:
            self.checks.append(("injected", self.check_injected))
        if inject_epoch_threshold is not None:
            self.checks.append(("injected-epoch", self.check_injected_epoch))

    # --- generation -----------------------------------------------------

    def _shared_devices(self, apps: Tuple[str, ...]) -> List[str]:
        """Devices every app in ``apps`` can tailor to, in catalog order."""
        return [device for device in self._devices
                if all(device in self._feasible[app] for app in apps)]

    def _feasible_apps(self, devices: Tuple[str, ...]) -> List[str]:
        """Apps that can tailor to every device in ``devices``."""
        return [app for app in self._apps
                if all(device in self._feasible[app] for device in devices)]

    def generate(self) -> Scenario:
        """One random valid, runnable sweep scenario from the seeded stream."""
        rng = self.rng
        apps = tuple(sorted(rng.sample(
            self._apps, rng.randint(1, min(self.max_apps, len(self._apps))))))
        shared = self._shared_devices(apps)
        if not shared:
            apps = (rng.choice(self._apps),)
            shared = list(self._feasible[apps[0]])
        devices = tuple(sorted(rng.sample(
            shared, rng.randint(1, min(self.max_devices, len(shared))))))
        sizes = tuple(sorted({
            rng.randint(1, self.max_size_bytes)
            for _ in range(rng.randint(1, self.max_sizes))
        }))
        workload = WorkloadSpec(
            packet_sizes=sizes,
            packets_per_point=rng.randint(1, self.max_packets),
            with_harmonia=rng.random() < 0.8,
            include_path_latency=rng.random() < 0.8,
            trace=rng.random() < 0.3,
        )
        return Scenario(kind="sweep", apps=apps, devices=devices,
                        seed=rng.randrange(2 ** 31), workload=workload)

    def generate_epoch(self) -> Scenario:
        """One random valid fleet scenario with an epochs/churn section.

        Sizes stay small (<= ``max_epoch_flows`` flows, a handful of
        epochs) so the ``epoch-delta`` differential -- two standalone
        orchestrator runs plus a verify pass -- costs milliseconds per
        scenario and a campaign covers hundreds of churn shapes.
        """
        rng = self.rng
        floor = _min_fleet_devices()
        tenancy = TenancySpec(
            flow_count=rng.randint(64, self.max_epoch_flows),
            device_count=rng.randint(floor, floor + 16),
            tenant_count=rng.randint(2, 12),
            slots_per_device=rng.randint(1, 4),
            alpha=round(rng.uniform(0.8, 1.4), 3),
            offered_load=round(rng.uniform(0.3, 1.1), 3),
        )
        epochs = EpochsSpec(
            epochs=rng.randint(1, self.max_epochs),
            churn=round(rng.uniform(0.0, 0.2), 4),
            failure_every=rng.choice((0, 2, 3, 5)),
            drain_every=rng.choice((0, 3, 4, 7)),
            migrate_threshold=round(rng.uniform(0.8, 1.5), 3),
            autoscale=rng.random() < 0.7,
            spare_fraction=round(rng.uniform(0.0, 0.5), 3),
            scale_step=rng.randint(1, 4),
            pr_budget=rng.choice((0, 4, 16)),
            policy=rng.choice(("flow-hash", "round-robin", "least-loaded")),
        )
        return Scenario(kind="fleet", seed=rng.randrange(2 ** 31),
                        tenancy=tenancy, epochs=epochs)

    def mutate_epoch(self, scenario: Scenario) -> Scenario:
        """A single random mutation of one epoch-fleet corpus member."""
        rng = self.rng
        tenancy = scenario.tenancy
        section = scenario.epochs
        move = rng.randrange(6)
        if move == 0:
            section = dataclasses.replace(
                section, epochs=rng.randint(1, self.max_epochs))
        elif move == 1:
            section = dataclasses.replace(
                section, churn=round(rng.uniform(0.0, 0.2), 4))
        elif move == 2:
            section = dataclasses.replace(
                section, policy=rng.choice(
                    ("flow-hash", "round-robin", "least-loaded")))
        elif move == 3:
            section = dataclasses.replace(
                section, autoscale=not section.autoscale)
        elif move == 4:
            tenancy = dataclasses.replace(
                tenancy, flow_count=rng.randint(64, self.max_epoch_flows))
        else:
            return scenario.replace(seed=rng.randrange(2 ** 31))
        return scenario.replace(tenancy=tenancy, epochs=section)

    def mutate(self, scenario: Scenario) -> Scenario:
        """A single random mutation of one corpus member."""
        if scenario.kind == "fleet" and scenario.epochs is not None:
            return self.mutate_epoch(scenario)
        rng = self.rng
        workload = scenario.workload
        move = rng.randrange(6)
        if move == 0:
            pool = self._feasible_apps(scenario.devices)
            apps = tuple(sorted(rng.sample(
                pool, rng.randint(1, min(self.max_apps, len(pool))))))
            return scenario.replace(apps=apps)
        if move == 1:
            pool = self._shared_devices(scenario.apps)
            devices = tuple(sorted(rng.sample(
                pool, rng.randint(1, min(self.max_devices, len(pool))))))
            return scenario.replace(devices=devices)
        if move == 2:
            sizes = set(workload.packet_sizes)
            sizes.add(rng.randint(1, self.max_size_bytes))
            workload = dataclasses.replace(
                workload, packet_sizes=tuple(sorted(sizes))[:self.max_sizes])
            return scenario.replace(workload=workload)
        if move == 3:
            workload = dataclasses.replace(
                workload, packets_per_point=rng.randint(1, self.max_packets))
            return scenario.replace(workload=workload)
        if move == 4:
            workload = dataclasses.replace(
                workload, with_harmonia=not workload.with_harmonia)
            return scenario.replace(workload=workload)
        workload = dataclasses.replace(workload, trace=not workload.trace)
        return scenario.replace(workload=workload)

    def _coverage_keys(self, scenario: Scenario) -> Set[Tuple[Any, ...]]:
        """Structural coverage keys for one scenario's points."""
        if scenario.kind == "fleet" and scenario.epochs is not None:
            tenancy, section = scenario.tenancy, scenario.epochs
            return {(
                "fleet-epochs",
                tenancy.device_count.bit_length(),
                tenancy.tenant_count.bit_length(),
                tenancy.slots_per_device,
                section.policy,
                section.autoscale,
                int(section.churn * 100).bit_length(),
                section.failure_every > 0,
                section.drain_every > 0,
                section.pr_budget > 0,
            )}
        if scenario.kind != "sweep":
            return set()
        from repro.runtime.sweep import point_chain
        from repro.sim.vector import chain_supports_vector

        keys: Set[Tuple[Any, ...]] = set()
        for point in scenario.expand_points():
            supported = chain_supports_vector(point_chain(point))
            keys.add((point.app, point.device,
                      point.packet_size_bytes.bit_length(),
                      point.with_harmonia, point.trace, supported))
        return keys

    # --- checks ---------------------------------------------------------

    def check_serialization(self, scenario: Scenario) -> Optional[str]:
        """Canonical JSON round trip is the identity and a fixpoint."""
        text = scenario.canonical_json()
        clone = loads_scenario(text, source="<round-trip>")
        if clone != scenario:
            return "canonical JSON round trip changed the scenario"
        if clone.canonical_json() != text:
            return "canonical JSON is not a serialisation fixpoint"
        return None

    def check_kernel_oracle(self, scenario: Scenario) -> Optional[str]:
        """The vector kernel must match the per-Transaction oracle exactly.

        Every vector-eligible point runs twice through the runner's
        private twin of :func:`run_point`: forced onto the oracle loop,
        and on the kernel (a one-row call, behind the traced head for
        traced points).  Result entries (span records as their encoded
        bytes) and the stage
        occupancy/statistics each run leaves on the chain must agree, and
        so must the first point's metrics snapshot and trace export.  Untraced points are then grouped the
        way the fused planner groups them (same tailored chain, same
        packet count) and run through
        :func:`repro.sim.vector.run_packet_sweep_vector_batch`: every row
        must equal its oracle entry, and the state the batch folds back
        must equal what the oracle leaves after the group's last point.
        """
        if scenario.kind != "sweep":
            return None
        from repro.runtime.context import isolated_context_stack
        from repro.runtime.sweep import _run_point, point_chain
        from repro.sim.pipeline import reset_transaction_ids
        from repro.sim.vector import (chain_supports_vector,
                                      run_packet_sweep_vector_batch)

        groups: Dict[Tuple[Any, ...], List[Tuple[Any, Any, Any]]] = {}
        first_supported = True
        for point in scenario.expand_points():
            chain = point_chain(point)
            if not chain_supports_vector(chain):
                continue
            oracle = _encoded(_run_point(point, chain, use_vector=False))
            oracle_state = _stage_state(chain)
            kernel = _encoded(_run_point(point, chain, use_vector=True))
            if kernel != oracle:
                diff = sorted(key for key in set(oracle) | set(kernel)
                              if oracle.get(key) != kernel.get(key))
                return (f"kernel != oracle at {point.label()}: "
                        f"mismatched {', '.join(diff)}")
            if _stage_state(chain) != oracle_state:
                return (f"kernel stage state diverged from the oracle "
                        f"at {point.label()}")
            if first_supported:
                first_supported = False
                mismatch = self._surfaces_mismatch(point)
                if mismatch:
                    return mismatch
            if not point.trace:   # the planner never fuses traced points
                key = (point.app, point.device, point.with_harmonia,
                       point.packet_count)
                groups.setdefault(key, []).append(
                    (point, oracle, oracle_state))
        for members in groups.values():
            points = [point for point, _, _ in members]
            chain = point_chain(points[0])
            with isolated_context_stack():
                reset_transaction_ids()
                rows = run_packet_sweep_vector_batch(
                    chain, [point.packet_size_bytes for point in points],
                    points[0].packet_count)
            for (point, oracle, _), row in zip(members, rows):
                fused = {"throughput_bps": row[0], "mean_latency_ns": row[1]}
                if fused != oracle:
                    return f"fused kernel != oracle at {point.label()}"
            if _stage_state(chain) != members[-1][2]:
                return (f"fused kernel stage state diverged from the "
                        f"oracle at {points[-1].label()}")
        return None

    def _surfaces_mismatch(self, point) -> Optional[str]:
        """Metrics snapshot + trace export must match kernel vs oracle."""
        from repro.runtime.sweep import point_chain

        chain = point_chain(point)
        oracle = _observable_surface(chain, point, use_vector=False)
        kernel = _observable_surface(chain, point, use_vector=True)
        if oracle != kernel:
            what = ("trace export" if oracle[0] == kernel[0]
                    else "metrics snapshot")
            return (f"{what} differs between kernel and oracle "
                    f"at {point.label()}")
        return None

    def check_cache_tier(self, scenario: Scenario) -> Optional[str]:
        """Cold vs warm runs of the plan against one private cache.

        Untraced points must all hit on the warm run with identical
        numbers.  Traced points bypass the cache, so a traced plan must
        leave it empty, and its stitched span tree must be byte-identical
        between the cold run and the rerun.
        """
        if scenario.kind != "sweep":
            return None
        from repro.runtime.sweep import SweepCache, run_plan

        plan = scenario.sweep_plan()
        cache = SweepCache()
        cold = run_plan(plan, cache=cache)
        warm = run_plan(plan, cache=cache)
        if plan.trace:
            if len(cache) or any(r.cached for r in warm.points):
                return "a traced plan read or wrote the result cache"
            if (cold.stitched_trace_jsonl(trace_id="fuzz")
                    != warm.stitched_trace_jsonl(trace_id="fuzz")):
                return "stitched trace differs between cold and rerun"
        missed = [r.point.label() for r in warm.points
                  if not r.cached and not r.point.trace]
        if missed:
            return f"warm rerun missed the cache at {', '.join(missed)}"
        for cold_r, warm_r in zip(cold.points, warm.points):
            if ((cold_r.throughput_bps, cold_r.mean_latency_ns)
                    != (warm_r.throughput_bps, warm_r.mean_latency_ns)):
                return (f"cache tier diverged from the computed result "
                        f"at {cold_r.point.label()}")
        return None

    def check_baseline_capabilities(self, scenario: Scenario) -> Optional[str]:
        """Framework-model invariants on every device the scenario uses."""
        for name in scenario.devices:
            memo = self._baseline_memo.get(name, "")
            if memo == "":
                memo = self._baseline_device_check(name)
                self._baseline_memo[name] = memo
            if memo is not None:
                return memo
        return None

    def _baseline_device_check(self, device_name: str) -> Optional[str]:
        from repro.baselines import Capability, all_frameworks

        device = require_device(device_name)
        for framework in all_frameworks():
            row = framework.capability_row()
            if tuple(row) != _CAPABILITY_COLUMNS:
                return (f"{framework.name} capability row has columns "
                        f"{tuple(row)!r}")
            if not all(isinstance(v, Capability) for v in row.values()):
                return f"{framework.name} capability row has non-Capability values"
            if framework.name == "harmonia" and not framework.supports(device):
                return f"harmonia must support every device, not {device.name}"
            if not framework.supports(device):
                try:
                    framework.deploy(device, "tcp")
                except IncompatiblePlatformError:
                    continue
                return (f"{framework.name}.deploy succeeded on unsupported "
                        f"{device.name}")
            try:
                shell = framework.deploy(device, "tcp")
                utilisation = shell.utilisation()
            except HarmoniaError:
                # Supported-but-infeasible (no network cage, a monolithic
                # shell blowing a small device's resource budget, ...) is a
                # capacity outcome, not a conformance bug.
                continue
            if shell.host_interface not in ("register", "command"):
                return (f"{framework.name} host interface "
                        f"{shell.host_interface!r} is neither register nor "
                        f"command")
            if framework.name == "harmonia" and shell.host_interface != "command":
                return "harmonia must present the command-based host interface"
            if any(value < 0 for value in utilisation.values()):
                return f"{framework.name} shell reports negative utilisation"
        return None

    def check_epoch_delta(self, scenario: Scenario) -> Optional[str]:
        """Incremental epoch stepping vs the full-recompute oracle.

        The same churned day runs twice standalone -- once maintaining
        aggregates by O(churn) deltas, once rebuilding them from the
        per-flow arrays every epoch -- and the *entire* serialised
        outcome must be exactly equal: per-epoch stats, final tenant
        stats, aggregate/flow sha256 digests, and the metrics registry
        snapshot.  A third run in ``verify`` mode pins the per-epoch
        matrices themselves, so a divergence is reported at the first
        epoch it appears rather than as an end-of-day diff.
        """
        if scenario.kind != "fleet" or scenario.epochs is None:
            return None
        from repro.runtime.context import SimContext, isolated_context_stack
        from repro.runtime.orchestrator import DeltaMismatch, Orchestrator

        surfaces = {}
        for mode in ("incremental", "full"):
            with isolated_context_stack():
                context = SimContext()
                result = Orchestrator.from_scenario(
                    scenario, mode=mode, context=context).run()
                surfaces[mode] = (result.to_json(),
                                  context.metrics.snapshot())
        if surfaces["incremental"][0] != surfaces["full"][0]:
            incremental, full = (surfaces[m][0] for m in
                                 ("incremental", "full"))
            diff = sorted(key for key in set(incremental) | set(full)
                          if incremental.get(key) != full.get(key))
            return (f"incremental != full-recompute oracle: "
                    f"mismatched {', '.join(diff)}")
        if surfaces["incremental"][1] != surfaces["full"][1]:
            return ("metrics snapshot differs between incremental and "
                    "full-recompute runs")
        try:
            with isolated_context_stack():
                Orchestrator.from_scenario(
                    scenario, mode="verify", context=SimContext()).run()
        except DeltaMismatch as mismatch:
            return str(mismatch)
        return None

    def check_injected(self, scenario: Scenario) -> Optional[str]:
        """Artificial failure for testing the shrinker end to end."""
        threshold = self.inject_size_threshold
        assert threshold is not None
        bad = [size for size in scenario.workload.packet_sizes
               if size >= threshold]
        if bad:
            return (f"injected failure: packet size {min(bad)} >= "
                    f"{threshold}")
        return None

    def check_injected_epoch(self, scenario: Scenario) -> Optional[str]:
        """Artificial epoch failure for testing the epoch shrinker."""
        threshold = self.inject_epoch_threshold
        assert threshold is not None
        if scenario.epochs is not None and scenario.epochs.epochs >= threshold:
            return (f"injected failure: {scenario.epochs.epochs} epochs >= "
                    f"{threshold}")
        return None

    # --- shrinking ------------------------------------------------------

    def shrink(self, scenario: Scenario, check: CheckFn) -> Scenario:
        """Greedy deterministic minimisation while ``check`` still fails.

        Candidates are tried in a fixed order and the first still-failing
        one is taken, so equal inputs always shrink to equal outputs.
        """
        current = scenario
        progress = True
        while progress:
            progress = False
            for candidate in self._shrink_candidates(current):
                try:
                    failed = check(candidate) is not None
                except HarmoniaError:
                    failed = False   # shrink must preserve *this* failure
                if failed:
                    current = candidate
                    progress = True
                    break
        return current

    def _shrink_candidates(self, scenario: Scenario):
        """Strictly-smaller-or-more-default neighbours, in fixed order."""
        if scenario.kind == "fleet" and scenario.epochs is not None:
            yield from self._shrink_epoch_candidates(scenario)
            return
        workload = scenario.workload
        if len(scenario.apps) > 1:
            for index in range(len(scenario.apps)):
                yield scenario.replace(
                    apps=scenario.apps[:index] + scenario.apps[index + 1:])
        if len(scenario.devices) > 1:
            for index in range(len(scenario.devices)):
                yield scenario.replace(
                    devices=(scenario.devices[:index]
                             + scenario.devices[index + 1:]))
        if len(workload.packet_sizes) > 1:
            for index in range(len(workload.packet_sizes)):
                sizes = (workload.packet_sizes[:index]
                         + workload.packet_sizes[index + 1:])
                yield scenario.replace(workload=dataclasses.replace(
                    workload, packet_sizes=sizes))
        for target in (1, workload.packets_per_point // 2):
            if 1 <= target < workload.packets_per_point:
                yield scenario.replace(workload=dataclasses.replace(
                    workload, packets_per_point=target))
        for index, size in enumerate(workload.packet_sizes):
            for target in (1, size // 2):
                if 1 <= target < size:
                    sizes = tuple(sorted(set(
                        workload.packet_sizes[:index] + (target,)
                        + workload.packet_sizes[index + 1:])))
                    yield scenario.replace(workload=dataclasses.replace(
                        workload, packet_sizes=sizes))
        if not workload.with_harmonia:
            yield scenario.replace(workload=dataclasses.replace(
                workload, with_harmonia=True))
        if not workload.include_path_latency:
            yield scenario.replace(workload=dataclasses.replace(
                workload, include_path_latency=True))
        if workload.trace:
            yield scenario.replace(workload=dataclasses.replace(
                workload, trace=False))
        if scenario.seed != 2_025:
            yield scenario.replace(seed=2_025)

    def _shrink_epoch_candidates(self, scenario: Scenario):
        """Epoch-fleet neighbours: fewer epochs, flows, devices, churn."""
        tenancy = scenario.tenancy
        section = scenario.epochs
        for target in (1, section.epochs // 2):
            if 1 <= target < section.epochs:
                yield scenario.replace(epochs=dataclasses.replace(
                    section, epochs=target))
        for target in (64, tenancy.flow_count // 2):
            if 1 <= target < tenancy.flow_count:
                yield scenario.replace(tenancy=dataclasses.replace(
                    tenancy, flow_count=target))
        floor = _min_fleet_devices()
        for target in (floor, tenancy.device_count // 2):
            if floor <= target < tenancy.device_count:
                yield scenario.replace(tenancy=dataclasses.replace(
                    tenancy, device_count=target))
        for target in (1, tenancy.tenant_count // 2):
            if 1 <= target < tenancy.tenant_count:
                yield scenario.replace(tenancy=dataclasses.replace(
                    tenancy, tenant_count=target))
        if tenancy.slots_per_device > 1:
            yield scenario.replace(tenancy=dataclasses.replace(
                tenancy, slots_per_device=1))
        if section.churn != 0.0:
            yield scenario.replace(epochs=dataclasses.replace(
                section, churn=0.0))
        if section.failure_every != 0:
            yield scenario.replace(epochs=dataclasses.replace(
                section, failure_every=0))
        if section.drain_every != 0:
            yield scenario.replace(epochs=dataclasses.replace(
                section, drain_every=0))
        if section.autoscale:
            yield scenario.replace(epochs=dataclasses.replace(
                section, autoscale=False))
        if section.pr_budget != 0:
            yield scenario.replace(epochs=dataclasses.replace(
                section, pr_budget=0))
        if section.spare_fraction != 0.0:
            yield scenario.replace(epochs=dataclasses.replace(
                section, spare_fraction=0.0))
        if section.policy != "flow-hash":
            yield scenario.replace(epochs=dataclasses.replace(
                section, policy="flow-hash"))
        if scenario.seed != 2_025:
            yield scenario.replace(seed=2_025)

    def _write_repro(self, shrunk: Scenario) -> Optional[str]:
        if self.repro_dir is None:
            return None
        os.makedirs(self.repro_dir, exist_ok=True)
        path = os.path.join(self.repro_dir,
                            f"scenario-{shrunk.scenario_id()[:16]}.json")
        save_scenario(shrunk, path)
        return path

    # --- campaign -------------------------------------------------------

    def check_scenario(self, scenario: Scenario) -> Optional[Tuple[str, str, CheckFn]]:
        """Run every check; the first failure as (name, detail, fn)."""
        for name, check in self.checks:
            detail = check(scenario)
            if detail is not None:
                return name, detail, check
        return None

    def run(self, budget: int = 200) -> FuzzReport:
        """Fuzz ``budget`` scenarios; returns the campaign report."""
        report = FuzzReport(seed=self.seed, budget=budget)
        for _ in range(budget):
            # Short-circuit on the default epoch_rate=0.0: no extra rng
            # draw, so default campaigns stay byte-identical to earlier
            # releases.
            if self.epoch_rate and self.rng.random() < self.epoch_rate:
                scenario = self.generate_epoch()
            elif self.corpus and self.rng.random() < 0.5:
                scenario = self.mutate(self.rng.choice(self.corpus))
            else:
                scenario = self.generate()
            fresh = self._coverage_keys(scenario) - self.coverage
            if fresh:
                self.coverage |= fresh
                self.corpus.append(scenario)
            report.scenarios_run += 1
            if scenario.kind == "sweep":
                report.points_checked += len(scenario.expand_points())
            elif scenario.epochs is not None:
                report.points_checked += scenario.epochs.epochs
            report.checks_run += len(self.checks)
            failure = self.check_scenario(scenario)
            if failure is not None:
                name, detail, check = failure
                shrunk = self.shrink(scenario, check)
                report.failures.append(FuzzFailure(
                    check=name, detail=detail, scenario=scenario,
                    shrunk=shrunk, repro_path=self._write_repro(shrunk)))
        report.coverage = len(self.coverage)
        return report


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _encoded(entry: Dict[str, Any]) -> Dict[str, Any]:
    """A point entry with its span records as their encoded JSONL lines.

    Dict equality would let ``1 == 1.0`` and ``0.0 == -0.0`` through;
    the encoded bytes are what a response carries.
    """
    from repro.runtime.trace import dumps_record

    if "spans" not in entry:
        return entry
    return dict(entry, spans=[dumps_record(r) for r in entry["spans"]])


def _stage_state(chain) -> List[Tuple[int, int, int]]:
    """Each stage's occupancy and statistics, for fold-back comparisons."""
    return [(stage._next_free_ps, stage.transactions_processed,
             stage.busy_ps) for stage in chain.stages]


def _observable_surface(chain, point, use_vector: bool):
    """(metrics snapshot, trace JSONL) of one traced point on one path.

    Mirrors the isolation discipline of the sweep worker path: hidden
    context stack, transaction ids reset, one fresh context per run.
    """
    from repro.runtime.context import SimContext, isolated_context_stack
    from repro.sim.pipeline import _run_packet_sweep, reset_transaction_ids

    with isolated_context_stack():
        reset_transaction_ids()
        context = SimContext(name=point.label(), trace=True)
        _run_packet_sweep(
            chain, packet_size_bytes=point.packet_size_bytes,
            packet_count=point.packet_count, context=context,
            use_vector=use_vector,
        )
        return context.metrics.snapshot(), context.trace.export_jsonl()
