"""Epoch-stepped fleet orchestrator with delta-vectorized epochs.

One :class:`~repro.runtime.fleet.FleetSimulation` snapshot answers
"how does this placement policy behave right now?"; Harmonia's cloud
story (and ROADMAP item 1) is the *control plane* that keeps a
heterogeneous FPGA fleet reconfigured as the world churns -- the
orchestration model of Funky and the checkpoint/migrate model of
SYNERGY.  This module advances a FleetSimulation-derived state through
N epochs of:

* flow churn (tenant arrivals/departures, Zipf-shaped rates drawn from
  replayable :class:`~repro.workloads.flows.ChurnStream` channels);
* device failure and graceful drain on deterministic schedules;
* partial-reconfiguration scheduling (a stateful residency plan fed by
  :func:`~repro.core.multitenancy.residency_matrix`, with a per-epoch
  grant budget so bitstream loads are a managed resource);
* tenant checkpoint/migration off overloaded devices;
* SLO-driven autoscaling -- each epoch's ``fleet.epoch.*`` gauges are
  evaluated by the stock :class:`~repro.obs.slo.SloMonitor`
  (:func:`~repro.obs.slo.default_epoch_slos`) and violations scale
  instance groups up from a spare pool or drain capacity back.

**The perf core is delta-vectorized epoch stepping.**  Per-device load,
per-(device, tenant) load and flow-count matrices stay resident across
epochs; each epoch applies O(churn)-sized ``np.bincount`` deltas for
exactly the flows the churn set touched, instead of an O(flows)
recompute.  All flow rates are *integers* (1 unit = 1 kbps,
:data:`RATE_UNITS_PER_GBPS` per Gbps): every partial sum stays far
below 2**53, so float64 bincount accumulation is exact and
order-independent -- which is what lets the incremental path promise
**bit-exactness** against the full-recompute oracle, not just
closeness.  Three modes share one code path:

* ``incremental`` -- aggregates are maintained by deltas only (the
  production fast path);
* ``full`` -- the oracle: aggregates are rebuilt from the raw per-flow
  arrays every epoch (honest O(flows) cost);
* ``verify`` -- both, with an exact equality assertion per epoch
  (:class:`DeltaMismatch` on divergence -- the differential fuzzer's
  ``epoch-delta`` check runs this mode).

Because every control decision reads only the aggregate state, and the
aggregates are bit-equal across modes, the *entire run* -- placements,
autoscale decisions, residency grants, per-epoch stats, final tenant
stats, state digests -- is identical between ``incremental`` and
``full``.  ``benchmarks/orchestrator_smoke.py`` gates exactly that,
plus the >= 5x speedup of the incremental path at typical (<2%) churn.

Epoch latency stats come from the same factored kernels the snapshot
simulator uses (:func:`~repro.runtime.fleet.device_latency_tables`):
a flow's latency depends only on its device and residency bit, so the
fleet-wide p50/p99 is a weighted nearest-rank percentile over the
(devices x tenants) latency table with flow counts as weights --
O(devices x tenants) per epoch, independent of flow count.
"""

import dataclasses as _dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as _np

from repro.core.multitenancy import residency_matrix
from repro.errors import ConfigurationError
from repro.obs.profiler import phase as _profile_phase
from repro.obs.slo import SloMonitor, default_epoch_slos
from repro.platform.fleet import FleetHistory
from repro.runtime.context import SimContext, ensure_context
from repro.runtime.fleet import (
    POLICIES,
    RATE_UNITS_PER_GBPS,
    FleetSimulation,
    FleetSpec,
    TenantStats,
    device_latency_tables,
)
from repro.workloads.flows import ChurnStream

#: The three execution modes (see module docstring).
MODES: Tuple[str, ...] = ("incremental", "full", "verify")

# Device lifecycle states.
_PARKED, _ALIVE, _FAILED = 0, 1, 2

#: Slot-index packing: ``device << 32 | slot`` in one int64 key.  Both
#: halves are far below 2**31 (devices in the thousands, slots capped by
#: ``flow_count + churn``), so the packed key is always non-negative and
#: sorting it orders by device first, slot second.
_PACK_SHIFT = _np.int64(32)
_PACK_MASK = _np.int64(0xFFFFFFFF)


def _sorted_distinct(values):
    """``values`` sorted ascending with duplicates dropped.

    Equal to ``np.unique(values)``, which takes a hash-table path on
    integer input that a sort plus one adjacent compare beats by an
    order of magnitude at the sizes the epoch loop reads.
    """
    values = _np.sort(values)
    if values.shape[0] > 1:
        keep = _np.empty(values.shape[0], dtype=bool)
        keep[0] = True
        _np.not_equal(values[1:], values[:-1], out=keep[1:])
        values = values[keep]
    return values


class DeltaMismatch(Exception):
    """Incremental aggregates diverged from the full-recompute oracle."""

    def __init__(self, epoch: int, what: str) -> None:
        super().__init__(
            f"epoch {epoch}: incremental {what} diverged from the "
            f"full-recompute oracle")
        self.epoch = epoch
        self.what = what


@dataclass(frozen=True)
class OrchestratorSpec:
    """Knobs of one epoch-stepped orchestration run.

    ``churn`` is the per-epoch arrival *and* departure fraction of the
    initial flow population, so the population stays near its initial
    size while individual flows turn over.  ``failure_every`` /
    ``drain_every`` fire a device failure / graceful drain every N
    epochs (0 disables).  ``pr_budget`` caps partial-reconfiguration
    grants per epoch fleet-wide (0 = unlimited); deferred grants rank
    by tenant load, heaviest first.  The autoscaler holds a spare pool
    of ``spare_fraction`` x device_count parked instances and moves
    ``scale_step`` devices per decision.
    """

    epochs: int = 288
    epoch_seconds: int = 300
    churn: float = 0.01
    failure_every: int = 48
    drain_every: int = 96
    migrate_threshold: float = 1.2
    autoscale: bool = True
    spare_fraction: float = 0.25
    scale_step: int = 4
    pr_budget: int = 64
    policy: str = "flow-hash"

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigurationError("need at least one epoch")
        if self.epoch_seconds < 1:
            raise ConfigurationError("epoch length must be positive")
        if not 0.0 <= self.churn <= 0.5:
            raise ConfigurationError("churn must be within [0, 0.5]")
        if self.failure_every < 0 or self.drain_every < 0:
            raise ConfigurationError(
                "failure/drain cadence must be non-negative (0 disables)")
        if self.migrate_threshold <= 0:
            raise ConfigurationError("migrate threshold must be positive")
        if not 0.0 <= self.spare_fraction <= 4.0:
            raise ConfigurationError("spare fraction must be within [0, 4]")
        if self.scale_step < 1:
            raise ConfigurationError("scale step must be positive")
        if self.pr_budget < 0:
            raise ConfigurationError("PR budget must be non-negative")
        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"unknown policy {self.policy!r}; "
                f"choose from {', '.join(POLICIES)}")

    @classmethod
    def from_scenario(cls, scenario) -> "OrchestratorSpec":
        """Read the ``epochs`` section of a fleet scenario."""
        section = getattr(scenario, "epochs", None)
        if section is None:
            raise ConfigurationError(
                "scenario has no epochs section to orchestrate")
        return cls(
            epochs=section.epochs,
            epoch_seconds=section.epoch_seconds,
            churn=section.churn,
            failure_every=section.failure_every,
            drain_every=section.drain_every,
            migrate_threshold=section.migrate_threshold,
            autoscale=section.autoscale,
            spare_fraction=section.spare_fraction,
            scale_step=section.scale_step,
            pr_budget=section.pr_budget,
            policy=section.policy,
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "epochs": self.epochs,
            "epoch_seconds": self.epoch_seconds,
            "churn": self.churn,
            "failure_every": self.failure_every,
            "drain_every": self.drain_every,
            "migrate_threshold": self.migrate_threshold,
            "autoscale": self.autoscale,
            "spare_fraction": self.spare_fraction,
            "scale_step": self.scale_step,
            "pr_budget": self.pr_budget,
            "policy": self.policy,
        }


@dataclass(frozen=True)
class EpochStats:
    """What one epoch did and how the fleet looked afterwards."""

    epoch: int
    flows: int
    arrivals: int
    departures: int
    failures: int
    drains: int
    migrations: int
    pr_grants: int
    pr_deferred: int
    scaled_up: int
    scaled_down: int
    alive_devices: int
    offered_gbps: float
    utilization_mean: float
    utilization_max: float
    overloaded_devices: int
    non_resident_flows: int
    p50_ns: float
    p99_ns: float
    mean_ns: float
    slo_violations: int

    def to_json(self) -> Dict[str, object]:
        return {
            "epoch": self.epoch,
            "flows": self.flows,
            "arrivals": self.arrivals,
            "departures": self.departures,
            "failures": self.failures,
            "drains": self.drains,
            "migrations": self.migrations,
            "pr_grants": self.pr_grants,
            "pr_deferred": self.pr_deferred,
            "scaled_up": self.scaled_up,
            "scaled_down": self.scaled_down,
            "alive_devices": self.alive_devices,
            "offered_gbps": round(self.offered_gbps, 6),
            "utilization_mean": round(self.utilization_mean, 6),
            "utilization_max": round(self.utilization_max, 6),
            "overloaded_devices": self.overloaded_devices,
            "non_resident_flows": self.non_resident_flows,
            "p50_ns": round(self.p50_ns, 3),
            "p99_ns": round(self.p99_ns, 3),
            "mean_ns": round(self.mean_ns, 3),
            "slo_violations": self.slo_violations,
        }


@dataclass(frozen=True)
class OrchestratorResult:
    """A whole orchestrated day, replayable and mode-independent.

    ``mode`` is deliberately **excluded** from :meth:`to_json`: the
    incremental and full paths must serialise identically, and the
    fuzzer's ``epoch-delta`` check compares exactly this payload.
    """

    fleet_spec: FleetSpec
    spec: OrchestratorSpec
    mode: str
    epochs: Tuple[EpochStats, ...]
    tenants: Tuple[TenantStats, ...]
    aggregate_digest: str
    flow_digest: str
    total_slo_violations: int = 0
    wall_s: float = field(default=0.0, compare=False)

    @property
    def final(self) -> EpochStats:
        return self.epochs[-1]

    def to_json(self) -> Dict[str, object]:
        final = self.final
        return {
            "spec": {
                "fleet": {
                    "flow_count": self.fleet_spec.flow_count,
                    "device_count": self.fleet_spec.device_count,
                    "tenant_count": self.fleet_spec.tenant_count,
                    "slots_per_device": self.fleet_spec.slots_per_device,
                    "alpha": self.fleet_spec.alpha,
                    "offered_load": self.fleet_spec.offered_load,
                    "mean_packet_bytes": self.fleet_spec.mean_packet_bytes,
                    "seed": self.fleet_spec.seed,
                    "year": self.fleet_spec.year,
                },
                "epochs": self.spec.to_json(),
            },
            "totals": {
                "arrivals": sum(e.arrivals for e in self.epochs),
                "departures": sum(e.departures for e in self.epochs),
                "failures": sum(e.failures for e in self.epochs),
                "drains": sum(e.drains for e in self.epochs),
                "migrations": sum(e.migrations for e in self.epochs),
                "pr_grants": sum(e.pr_grants for e in self.epochs),
                "scaled_up": sum(e.scaled_up for e in self.epochs),
                "scaled_down": sum(e.scaled_down for e in self.epochs),
                "slo_violations": self.total_slo_violations,
            },
            "final": final.to_json(),
            "tenants": [tenant.to_json() for tenant in self.tenants],
            "epochs": [stats.to_json() for stats in self.epochs],
            "digest": {
                "aggregates": self.aggregate_digest,
                "flows": self.flow_digest,
            },
        }


def desired_residency(tenant_units, slots: int):
    """Pinned-equal fast path for :func:`residency_matrix` on int units.

    The residency plan is the ``slots`` heaviest tenants per device,
    ties toward the lower tenant index.  Folding the tie-break into a
    composite integer key (``units * tenants + reversed tenant index``)
    makes every key distinct, so the top-``slots`` *set* is unique: it
    is every key at or above the row's ``slots``-th largest, which one
    ``np.partition`` finds -- O(tenants) per device instead of a full
    stable sort.  This runs every epoch; ``tests/test_orchestrator.py``
    pins it element-equal to :func:`residency_matrix` on random
    matrices.
    """
    devices, tenants = tenant_units.shape
    if tenants <= slots:
        return _np.ones((devices, tenants), dtype=bool)
    keys = (tenant_units * _np.int64(tenants)
            + _np.arange(tenants - 1, -1, -1, dtype=_np.int64))
    cutoff = _np.partition(keys, tenants - slots, axis=1)[:, tenants - slots]
    return keys >= cutoff[:, None]


def weighted_percentiles(values, weights, fractions):
    """Weighted nearest-rank percentiles (exact for integer weights).

    ``values`` are sorted stably, integer weights accumulate exactly in
    int64, and each requested fraction maps to the smallest value whose
    cumulative weight reaches ``ceil(q * total)`` -- the classical
    nearest-rank definition, chosen over interpolation because it is
    trivially bit-exact for identical inputs regardless of how the
    inputs were accumulated.
    """
    weights = _np.asarray(weights, dtype=_np.int64)
    values = _np.asarray(values, dtype=_np.float64)
    total = int(weights.sum())
    if total <= 0:
        return [0.0 for _ in fractions]
    order = _np.argsort(values, kind="stable")
    ordered = values[order]
    cumulative = _np.cumsum(weights[order])
    out = []
    for fraction in fractions:
        target = max(int(-(-fraction * total // 1)), 1)  # ceil, >= 1
        index = int(_np.searchsorted(cumulative, target))
        out.append(float(ordered[min(index, len(ordered) - 1)]))
    return out


class FleetState:
    """Per-flow ground truth plus the resident aggregate matrices.

    Flow arrays are capacity-sized with a free-slot stack so arrivals
    reuse departed slots without reallocation; a slot is active XOR on
    the free stack.  Aggregates (``load_units``, ``tenant_units``,
    ``tenant_flows``) are maintained by exact integer deltas and can be
    independently rebuilt from the flow arrays in O(flows) --
    :meth:`rebuild_aggregates` is the oracle the ``full`` and
    ``verify`` modes use.
    """

    def __init__(self, fleet_spec: FleetSpec, spec: OrchestratorSpec,
                 history: Optional[FleetHistory] = None,
                 context: Optional[SimContext] = None) -> None:
        self.fleet_spec = fleet_spec
        self.spec = spec
        sim = FleetSimulation(fleet_spec, history=history, context=context)
        self.groups = sim.groups
        base = sim.instance_capacity_gbps
        base_count = int(base.shape[0])
        spares = int(-(-base_count * spec.spare_fraction // 1))  # ceil
        self.base_devices = base_count
        self.total_devices = base_count + spares
        # Spare instances clone the base capacity pattern so scale-ups
        # add representative hardware, not one arbitrary device type.
        self.capacity_gbps = _np.concatenate([
            base, base[_np.arange(spares, dtype=_np.int64) % base_count]])
        self.capacity_units = _np.floor(
            self.capacity_gbps * RATE_UNITS_PER_GBPS).astype(_np.int64)
        self.status = _np.full(self.total_devices, _PARKED, dtype=_np.int8)
        self.status[:base_count] = _ALIVE

        tenants = fleet_spec.tenant_count
        self.tenant_count = tenants
        flow_count = fleet_spec.flow_count
        self.churn_per_epoch = int(round(flow_count * spec.churn))
        capacity_slots = flow_count + self.churn_per_epoch
        self.capacity_slots = capacity_slots

        # Per-flow ground truth (integer rate units), in slot arrays of
        # this state's own: the simulation's rate units are a read-only
        # array shared by every day of this fleet shape.
        self.flow_rate_units = _np.zeros(capacity_slots, dtype=_np.int64)
        self.flow_tenant = _np.zeros(capacity_slots, dtype=_np.int64)
        self.flow_device = _np.zeros(capacity_slots, dtype=_np.int64)
        self.flow_active = _np.zeros(capacity_slots, dtype=bool)
        self.flow_rate_units[:flow_count] = sim.flow_rate_units
        self.flow_tenant[:flow_count] = sim.flow_tenant
        sim.assignment(spec.policy, out=self.flow_device[:flow_count])
        self.flow_active[:flow_count] = True
        self.max_rate_units = int(self.capacity_units.max())

        # Free-slot stack (LIFO): slots [flow_count, capacity) start free.
        self.free_slots = _np.zeros(capacity_slots, dtype=_np.int64)
        self.free_top = capacity_slots - flow_count
        self.free_slots[:self.free_top] = _np.arange(
            flow_count, capacity_slots, dtype=_np.int64)

        # Arrival rate scale: match the harmonic draw's mean to the mean
        # initial flow rate so churn does not systematically inflate or
        # starve the offered load (H(R) is the R-th harmonic number).
        self.max_rank = flow_count
        mean_units = float(sim.flow_rate_units.mean())
        self.arrival_scale_units = max(
            int(mean_units * flow_count / sim.harmonic_sum), 1)

        self.churn_stream = ChurnStream(fleet_spec.seed)
        self.round_robin_cursor = 0

        # Lazy slot index: immutable sorted segments of *packed*
        # ``device << 32 | slot`` int64 keys plus one flat pending array
        # of recent placements.  A write copies its keys onto the end
        # of the pending array; the pending keys are value-sorted into
        # a new segment only when they outgrow a few epochs of churn,
        # so the sort is amortised and there is no per-device Python
        # loop anywhere.  Packing device and slot into one key makes
        # the flush a single ``np.sort`` over plain values (no argsort
        # indirection) and hands reads back per-device slot runs that
        # are already in ascending slot order.  Reads
        # (:meth:`device_flows`) slice each segment with two binary
        # searches, scan the pending array once, and validate every
        # candidate against the flow arrays -- so the result is exactly
        # what an O(flows) ``flatnonzero`` scan would produce, without
        # the scan.  Purely a performance structure: every mode
        # maintains it identically and no aggregate reads it.
        initial = self.flow_device[:flow_count] << _PACK_SHIFT
        initial |= _np.arange(flow_count, dtype=_np.int64)
        initial.sort()
        self._segments: List = [initial]
        self._flush_threshold = max(8 * self.churn_per_epoch, 4_096)
        self._pending = _np.empty(self._flush_threshold, dtype=_np.int64)
        self._pending_count = 0

        # Deferred-delta batch: during the churn phase of an epoch the
        # flow mutators enqueue their (devices, tenants, rates, sign)
        # contributions here and :meth:`flush_deltas` folds the whole
        # churn set into the aggregates with ONE fused signed bincount
        # pass.  Signed integer partial sums stay < 2**53 in magnitude,
        # so the fused application is bit-equal to applying each part
        # separately -- order and batching never matter.
        self._deferring = False
        self._delta_parts: List[Tuple] = []

        # Resident aggregates: the initial population folds onto zero
        # matrices as one delta, through the same exact integer path
        # as every epoch's churn.  The oracle rebuild would also scan
        # the free slots, which hold nothing yet.
        self.load_units = _np.zeros(self.total_devices, dtype=_np.int64)
        self.tenant_units = _np.zeros((self.total_devices, tenants),
                                      dtype=_np.int64)
        self.tenant_flows = _np.zeros_like(self.tenant_units)
        self._apply_parts([(
            self.flow_device[:flow_count], self.flow_tenant[:flow_count],
            self.flow_rate_units[:flow_count], +1)])
        # Bootstrap residency: every desired grant is free at epoch -1
        # (the fleet boots with its bitstreams already loaded).
        desired = residency_matrix(self.tenant_units, fleet_spec.slots_per_device)
        desired[self.status != _ALIVE] = False
        self.resident = desired

    # --- device sets ---------------------------------------------------------

    def alive_devices(self):
        return _np.flatnonzero(self.status == _ALIVE)

    def device_flows(self, device: int):
        """Active slots homed on ``device``, ascending and distinct.

        Bit-equal to ``flatnonzero(flow_active & (flow_device ==
        device))`` by construction: the index over-approximates (stale
        departures, moved-away flows, re-added slots may linger or
        repeat), the read filters against the ground-truth arrays and
        :func:`_sorted_distinct` restores the sorted-distinct order the
        scan would produce.
        """
        low_key = _np.int64(device) << _PACK_SHIFT
        high_key = _np.int64(device + 1) << _PACK_SHIFT
        parts = []
        for segment in self._segments:
            low = int(_np.searchsorted(segment, low_key, side="left"))
            high = int(_np.searchsorted(segment, high_key, side="left"))
            if high > low:
                parts.append(segment[low:high])
        pending = self._pending[:self._pending_count]
        matches = pending[(pending >= low_key) & (pending < high_key)]
        if matches.shape[0]:
            parts.append(matches)
        if not parts:
            return _np.empty(0, dtype=_np.int64)
        slots = (parts[0] if len(parts) == 1
                 else _np.concatenate(parts)) & _PACK_MASK
        return _sorted_distinct(
            slots[self.flow_active[slots]
                  & (self.flow_device[slots] == device)])

    def _index_add(self, slots, devices) -> None:
        """Record placements; sorting into a segment is deferred until
        the pending keys outgrow :attr:`_flush_threshold`, so the sort
        is amortised over several epochs of churn."""
        count = int(slots.shape[0])
        if not count:
            return
        start = self._pending_count
        end = start + count
        if end > self._pending.shape[0]:
            grown = _np.empty(max(end, 2 * self._pending.shape[0]),
                              dtype=_np.int64)
            grown[:start] = self._pending[:start]
            self._pending = grown
        keys = self._pending[start:end]
        _np.left_shift(devices, _PACK_SHIFT, out=keys)
        keys |= slots
        self._pending_count = end
        if end >= self._flush_threshold:
            self._pending_count = 0
            self._index_flush(self._pending[:end])

    def _index_flush(self, packed) -> None:
        """Freeze packed keys into one immutable sorted segment.

        One value ``np.sort`` (no argsort indirection) orders a copy of
        the keys by device then slot, so ``packed`` may be reused.
        Stale entries (departed or re-homed flows) linger until the
        segment list grows long, then one compaction pass drops every
        entry the ground-truth arrays no longer vouch for -- so index
        size stays proportional to live flows plus a few epochs of
        churn, even on very long runs.
        """
        self._segments.append(_np.sort(packed))
        if len(self._segments) >= 48:
            packed = _np.concatenate(self._segments)
            slots = packed & _PACK_MASK
            keep = (self.flow_active[slots]
                    & (self.flow_device[slots] == packed >> _PACK_SHIFT))
            self._segments = [_np.sort(packed[keep])]

    def utilization(self, devices):
        return (self.load_units[devices].astype(_np.float64)
                / self.capacity_units[devices])

    # --- free-slot stack -----------------------------------------------------

    def _pop_free(self, count: int):
        if count > self.free_top:
            raise ConfigurationError("flow slot pool exhausted")
        self.free_top -= count
        return self.free_slots[self.free_top:self.free_top + count].copy()

    def _push_free(self, slots) -> None:
        count = int(slots.shape[0])
        self.free_slots[self.free_top:self.free_top + count] = slots
        self.free_top += count

    # --- exact integer deltas ------------------------------------------------

    def _apply_delta(self, devices, tenants, rates, sign: int) -> None:
        """Apply (or defer) one churn set's aggregate contribution.

        Inside an epoch's churn phase (:meth:`defer_deltas` ..
        :meth:`flush_deltas`) the part is only enqueued; the flush
        fuses every queued part -- departures, arrivals, displaced and
        migrated flows -- into one signed bincount pass.  ``np.bincount``
        with float64 weights over (signed) integer rates is exact
        (every partial sum magnitude < 2**53), so the int64 cast loses
        nothing and the matrices stay bit-equal to a from-scratch
        rebuild no matter how deltas interleave or batch.
        """
        if self._deferring:
            self._delta_parts.append((devices, tenants, rates, sign))
            return
        self._apply_parts([(devices, tenants, rates, sign)])

    def defer_deltas(self) -> None:
        """Start batching delta applications (one epoch's churn phase)."""
        self._deferring = True

    def flush_deltas(self) -> None:
        """Fold every deferred part into the aggregates in one pass."""
        self._deferring = False
        if self._delta_parts:
            parts, self._delta_parts = self._delta_parts, []
            self._apply_parts(parts)

    def _apply_parts(self, parts) -> None:
        tenant_count = self.tenant_count
        size = self.total_devices * tenant_count
        if len(parts) == 1:
            devices, tenants, rates, sign = parts[0]
            keys = devices * tenant_count + tenants
            unit_delta = _np.bincount(
                keys, weights=rates.astype(_np.float64), minlength=size,
            ).astype(_np.int64).reshape(self.total_devices, tenant_count)
            flow_delta = _np.bincount(keys, minlength=size).astype(
                _np.int64).reshape(self.total_devices, tenant_count)
            if sign < 0:
                unit_delta = -unit_delta
                flow_delta = -flow_delta
        else:
            keys = _np.concatenate([
                part_devices * tenant_count + part_tenants
                for part_devices, part_tenants, _, _ in parts])
            rate_weights = _np.concatenate([
                part_rates.astype(_np.float64) * part_sign
                for _, _, part_rates, part_sign in parts])
            flow_weights = _np.concatenate([
                _np.full(part_rates.shape[0], float(part_sign))
                for _, _, part_rates, part_sign in parts])
            unit_delta = _np.bincount(
                keys, weights=rate_weights, minlength=size,
            ).astype(_np.int64).reshape(self.total_devices, tenant_count)
            flow_delta = _np.bincount(
                keys, weights=flow_weights, minlength=size,
            ).astype(_np.int64).reshape(self.total_devices, tenant_count)
        # load == per-device sum of tenant units, so the row sum of the
        # int64 unit delta is the exact third bincount for free.
        self.tenant_units += unit_delta
        self.tenant_flows += flow_delta
        self.load_units += unit_delta.sum(axis=1)

    def stats_weights(self):
        """Per-device (resident, non-resident) flow-count weights.

        The incremental path's cheap derivation: O(devices x tenants)
        over the resident aggregate matrices, never touching per-flow
        state.  The full-recompute oracle rederives the same integer
        arrays from the raw flow arrays (:meth:`stats_weights_full`).
        """
        weights = self.tenant_flows
        resident_weight = _np.where(self.resident, weights, 0).sum(axis=1)
        return resident_weight, weights.sum(axis=1) - resident_weight

    def stats_weights_full(self):
        """The O(flows) oracle for :meth:`stats_weights`.

        One residency-bit gather plus two float64 bincounts over the
        per-flow arrays; 0/1 weights sum far below 2**53, so the int64
        cast is exact and must equal the aggregate-derived arrays bit
        for bit.
        """
        active = self.flow_active.astype(_np.float64)
        resident_bits = self.resident[self.flow_device, self.flow_tenant]
        total = _np.bincount(self.flow_device, weights=active,
                             minlength=self.total_devices).astype(_np.int64)
        resident_weight = _np.bincount(
            self.flow_device, weights=active * resident_bits,
            minlength=self.total_devices).astype(_np.int64)
        return resident_weight, total - resident_weight

    def rebuild_aggregates(self):
        """The O(flows) oracle: aggregates from the raw flow arrays.

        Inactive slots contribute exactly zero (their rates are masked
        before the bincount), so stale device ids in freed slots are
        harmless.
        """
        tenant_count = self.tenant_count
        size = self.total_devices * tenant_count
        active = self.flow_active.astype(_np.float64)
        rates = self.flow_rate_units.astype(_np.float64) * active
        keys = self.flow_device * tenant_count + self.flow_tenant
        tenant_units = _np.bincount(keys, weights=rates, minlength=size
                                    ).astype(_np.int64).reshape(
                                        self.total_devices, tenant_count)
        tenant_flows = _np.bincount(keys, weights=active, minlength=size
                                    ).astype(_np.int64).reshape(
                                        self.total_devices, tenant_count)
        load_units = _np.bincount(self.flow_device, weights=rates,
                                  minlength=self.total_devices
                                  ).astype(_np.int64)
        return load_units, tenant_units, tenant_flows

    # --- flow mutations (shared by every mode) -------------------------------

    def remove_flows(self, slots) -> None:
        self._apply_delta(self.flow_device[slots], self.flow_tenant[slots],
                          self.flow_rate_units[slots], sign=-1)
        self.flow_active[slots] = False
        self._push_free(slots)

    def add_flows(self, rates, tenants, devices) -> None:
        slots = self._pop_free(int(rates.shape[0]))
        self.flow_rate_units[slots] = rates
        self.flow_tenant[slots] = tenants
        self.flow_device[slots] = devices
        self.flow_active[slots] = True
        self._index_add(slots, devices)
        self._apply_delta(devices, tenants, rates, sign=+1)

    def move_flows(self, slots, devices) -> None:
        """Re-home ``slots`` (rates and tenants unchanged): conservation
        by construction -- one negative delta, one positive."""
        tenants = self.flow_tenant[slots]
        rates = self.flow_rate_units[slots]
        self._apply_delta(self.flow_device[slots], tenants, rates, sign=-1)
        self.flow_device[slots] = devices
        self._index_add(slots, devices)
        self._apply_delta(devices, tenants, rates, sign=+1)

    @property
    def active_flows(self) -> int:
        return int(self.tenant_flows.sum())


class Orchestrator:
    """Advances a :class:`FleetState` through N epochs of churn."""

    def __init__(self, fleet_spec: Optional[FleetSpec] = None,
                 spec: Optional[OrchestratorSpec] = None,
                 mode: str = "incremental",
                 history: Optional[FleetHistory] = None,
                 monitor: Optional[SloMonitor] = None,
                 context: Optional[SimContext] = None) -> None:
        if mode not in MODES:
            raise ConfigurationError(
                f"unknown orchestrator mode {mode!r}; "
                f"choose from {', '.join(MODES)}")
        self.fleet_spec = fleet_spec or FleetSpec()
        self.spec = spec or OrchestratorSpec()
        self.mode = mode
        self.context = ensure_context(context)
        self.monitor = monitor or SloMonitor(default_epoch_slos())
        self.state = FleetState(self.fleet_spec, self.spec,
                                history=history, context=self.context)
        self._digest = hashlib.sha256()

    @classmethod
    def from_scenario(cls, scenario, mode: str = "incremental",
                      monitor: Optional[SloMonitor] = None,
                      context: Optional[SimContext] = None) -> "Orchestrator":
        return cls(
            fleet_spec=FleetSpec.from_scenario(scenario),
            spec=OrchestratorSpec.from_scenario(scenario),
            mode=mode, monitor=monitor, context=context,
        )

    # --- placement -----------------------------------------------------------

    def _place(self, epoch: int, channel: str, count: int,
               snapshot_util, alive, draws=None):
        """Pick a device for each of ``count`` flows, policy-faithfully.

        Decisions read the start-of-epoch utilisation snapshot, like a
        real control loop acting on its last observation -- and, being
        a pure function of state both modes share bit-equally, they are
        identical between the incremental and full paths.  ``draws``
        supplies pre-drawn raw uint32 randomness from the epoch's fused
        block (the hot arrival path); ad-hoc callers fall back to their
        own named channel.
        """
        state = self.state
        policy = self.spec.policy
        alive_count = int(alive.shape[0])
        if alive_count == 0:
            raise ConfigurationError("no alive devices to place flows on")
        if policy == "flow-hash":
            if draws is None:
                picks = state.churn_stream.picks(
                    epoch, channel, count, alive_count)
            else:
                picks = ChurnStream.as_picks(draws[:count], alive_count)
            return alive[picks]
        if policy == "round-robin":
            index = (state.round_robin_cursor
                     + _np.arange(count, dtype=_np.int64)) % alive_count
            state.round_robin_cursor = int(
                (state.round_robin_cursor + count) % alive_count)
            return alive[index]
        # least-loaded: spread over alive devices in ascending
        # start-of-epoch utilisation (stable order).
        order = _np.argsort(snapshot_util[alive], kind="stable")
        return alive[order[_np.arange(count, dtype=_np.int64) % alive_count]]

    # --- churn steps ---------------------------------------------------------

    def _draw_departures(self, epoch: int, count: int, primary=None):
        """Pick ``count`` distinct active flow slots, deterministically.

        Uniform candidate draws over the slot space are filtered to
        active, deduplicated (sorted, so the order is defined) and
        topped up from salted retry channels until the quota fills --
        O(churn) expected work, no O(flows) scan.  ``primary`` carries
        the first round's raw draws from the epoch's fused block; the
        (rare) retry rounds draw their own channels.
        """
        state = self.state
        count = min(count, state.active_flows)
        if count == 0:
            return _np.empty(0, dtype=_np.int64)
        chosen = _np.empty(0, dtype=_np.int64)
        for salt in range(64):
            need = count - int(chosen.shape[0])
            if need == 0:
                break
            # 1.25x oversampling covers the expected loss (inactive
            # fraction ~ churn, duplicate rate ~ churn) with an order
            # of magnitude to spare; the salted retry loop mops up the
            # pathological remainder.
            if salt == 0 and primary is not None:
                candidates = ChurnStream.as_picks(
                    primary, state.capacity_slots)
            else:
                candidates = state.churn_stream.picks(
                    epoch, f"depart/{salt}", need + (need >> 2) + 8,
                    state.capacity_slots)
            candidates = _sorted_distinct(candidates)
            candidates = candidates[state.flow_active[candidates]]
            if chosen.shape[0]:
                candidates = candidates[~_np.isin(candidates, chosen)]
            chosen = _np.concatenate([chosen, candidates[:need]])
        return _np.sort(chosen)

    def _arrivals(self, epoch: int, count: int, snapshot_util, alive,
                  draws=None) -> int:
        state = self.state
        count = min(count, state.free_top)
        if count == 0:
            return 0
        if draws is not None:
            rate_draws, tenant_draws, place_draws = draws
            raw_rates = ChurnStream.as_harmonic_units(
                rate_draws[:count], state.arrival_scale_units,
                state.max_rank)
            tenants = ChurnStream.as_picks(
                tenant_draws[:count], state.tenant_count)
        else:
            place_draws = None
            raw_rates = state.churn_stream.harmonic_rate_units(
                epoch, "arrive-rate", count,
                state.arrival_scale_units, state.max_rank)
            tenants = state.churn_stream.picks(
                epoch, "arrive-tenant", count, state.tenant_count)
        rates = _np.minimum(raw_rates, state.max_rate_units)
        devices = self._place(epoch, "arrive-place", count,
                              snapshot_util, alive, draws=place_draws)
        state.add_flows(rates, tenants, devices)
        return count

    def _displace_device(self, epoch: int, device: int, channel: str,
                         snapshot_util, alive) -> int:
        """Move every flow off ``device`` (already out of ``alive``)."""
        state = self.state
        slots = state.device_flows(device)
        if slots.shape[0]:
            targets = self._place(epoch, channel, int(slots.shape[0]),
                                  snapshot_util, alive)
            state.move_flows(slots, targets)
        state.resident[device] = False
        return int(slots.shape[0])

    def _maybe_migrate(self, epoch: int, snapshot_util, alive) -> int:
        """Checkpoint/migrate the heaviest tenant off the hottest device.

        Runs inside the deferred-delta churn phase, so the tenant-load
        read observes the start-of-epoch aggregates -- the same
        last-scrape semantics as every placement decision -- while the
        flow set itself comes from the live ground-truth arrays.
        """
        state = self.state
        if alive.shape[0] < 2:
            return 0
        util = snapshot_util[alive]
        hot_position = int(_np.argmax(util))
        if float(util[hot_position]) <= self.spec.migrate_threshold:
            return 0
        source = int(alive[hot_position])
        tenant = int(_np.argmax(state.tenant_units[source]))
        # The least-utilised device, first in stable order.  It is the
        # hottest one only when every alive device ties (argmax and
        # argmin then both answer 0), and the next in order is alive[1].
        coolest = int(_np.argmin(util))
        target = int(alive[coolest if coolest != hot_position else 1])
        on_source = state.device_flows(source)
        slots = on_source[state.flow_tenant[on_source] == tenant]
        if not slots.shape[0]:
            return 0
        state.move_flows(
            slots, _np.full(int(slots.shape[0]), target, dtype=_np.int64))
        self.context.trace.instant(
            "orchestrator.migrate", ts_ps=self._ts(epoch),
            epoch=epoch, tenant=tenant, source=source, target=target,
            flows=int(slots.shape[0]))
        return 1

    # --- residency scheduling ------------------------------------------------

    def _schedule_residency(self) -> Tuple[int, int]:
        """Partial-reconfiguration scheduling under the grant budget.

        The desired plan is the slots-heaviest tenants per alive device
        (:func:`residency_matrix` semantics); evictions are free, new
        grants cost a bitstream load each and at most ``pr_budget``
        happen per epoch -- the heaviest-loaded candidates win, the
        rest stay non-resident (and pay the PR penalty) until a later
        epoch.  ``resident`` stays a subset of the desired plan, so
        per-device residency can never exceed ``slots_per_device``.
        """
        state = self.state
        desired = desired_residency(
            state.tenant_units, self.fleet_spec.slots_per_device)
        desired[state.status != _ALIVE] = False
        grants = desired & ~state.resident
        candidates = int(grants.sum())
        budget = self.spec.pr_budget
        granted = candidates
        if budget and candidates > budget:
            device_index, tenant_index = _np.nonzero(grants)
            loads = state.tenant_units[device_index, tenant_index]
            order = _np.lexsort((tenant_index, device_index, -loads))
            grants = _np.zeros_like(grants)
            grants[device_index[order[:budget]],
                   tenant_index[order[:budget]]] = True
            granted = budget
        state.resident = (state.resident & desired) | grants
        return granted, candidates - granted

    # --- autoscaling ---------------------------------------------------------

    def _autoscale(self, epoch: int, report) -> Tuple[int, int]:
        """Turn SLO violations into capacity moves.

        Upper-bound breaches (tail latency, utilisation ceiling)
        activate parked spares; a lower-bound utilisation breach drains
        the least-loaded devices back to the pool -- but never below
        the active demand (alive capacity must keep covering the total
        offered units) and never below one device.
        """
        if not self.spec.autoscale:
            return 0, 0
        state = self.state
        specs = {spec.name: spec for spec in self.monitor.specs}
        scale_up = scale_down = False
        for violation in report.violations:
            spec = specs.get(violation.slo)
            if spec is None:
                continue
            if spec.upper is not None and violation.value > spec.upper:
                scale_up = True
            elif spec.lower is not None and violation.value < spec.lower:
                scale_down = True
        if scale_up:
            parked = _np.flatnonzero(state.status == _PARKED)
            chosen = parked[:self.spec.scale_step]
            if chosen.shape[0]:
                state.status[chosen] = _ALIVE
                self.context.trace.instant(
                    "orchestrator.autoscale", ts_ps=self._ts(epoch),
                    epoch=epoch, direction="up",
                    devices=int(chosen.shape[0]))
            return int(chosen.shape[0]), 0
        if scale_down:
            alive = state.alive_devices()
            demand = int(state.load_units.sum())
            capacity = int(state.capacity_units[alive].sum())
            order = alive[_np.argsort(state.utilization(alive), kind="stable")]
            drained = 0
            snapshot = (state.load_units.astype(_np.float64)
                        / state.capacity_units)
            for device in order[:self.spec.scale_step]:
                device = int(device)
                remaining = capacity - int(state.capacity_units[device])
                if remaining < demand or alive.shape[0] - drained <= 1:
                    break
                state.status[device] = _PARKED
                self._displace_device(
                    epoch, device, f"scale-down/{drained}", snapshot,
                    state.alive_devices())
                capacity = remaining
                drained += 1
            if drained:
                self.context.trace.instant(
                    "orchestrator.autoscale", ts_ps=self._ts(epoch),
                    epoch=epoch, direction="down", devices=drained)
            return 0, drained
        return 0, 0

    # --- stats ---------------------------------------------------------------

    def _ts(self, epoch: int) -> int:
        return int(epoch) * self.spec.epoch_seconds * 10**12

    def _epoch_stats(self, epoch: int, counters: Dict[str, int],
                     violations: int) -> EpochStats:
        """Fleet-wide stats over the resident per-device arrays.

        Latency factors through per-device tables, so the flow
        population collapses to two integer weights per device
        (resident / non-resident flow counts) and percentiles are
        exact weighted nearest-rank over 2 x devices values.  The
        incremental path derives those weights O(devices x tenants)
        from the resident aggregate matrices; the full-recompute
        oracle rederives them O(flows) from the raw flow arrays, and
        ``verify`` mode pins both derivations bit-for-bit.
        """
        state = self.state
        resident_ns, non_resident_ns = device_latency_tables(
            state.load_units / RATE_UNITS_PER_GBPS,
            state.capacity_gbps, self.fleet_spec.mean_packet_bytes)
        # A flow's latency depends only on its device and whether its
        # tenant is resident there, so the devices x tenants weight
        # matrix collapses to two exact integer weights per device.
        # Weighted nearest-rank percentiles are invariant under
        # aggregating equal values, so this is bit-equal to ranking the
        # full matrix -- at 2 x devices values instead.
        if self.mode == "incremental":
            resident_weight, non_resident_weight = state.stats_weights()
        else:
            resident_weight, non_resident_weight = state.stats_weights_full()
            if self.mode == "verify":
                check_res, check_non = state.stats_weights()
                if not (_np.array_equal(check_res, resident_weight)
                        and _np.array_equal(check_non, non_resident_weight)):
                    raise DeltaMismatch(epoch, "stats weight arrays")
        flows = int(resident_weight.sum() + non_resident_weight.sum())
        values = _np.concatenate([resident_ns, non_resident_ns])
        value_weights = _np.concatenate(
            [resident_weight, non_resident_weight])
        p50, p99 = weighted_percentiles(values, value_weights, (0.50, 0.99))
        mean_ns = (float((values * value_weights).sum() / flows)
                   if flows else 0.0)
        alive = state.alive_devices()
        utilization = state.utilization(alive)
        return EpochStats(
            epoch=epoch,
            flows=flows,
            arrivals=counters.get("arrivals", 0),
            departures=counters.get("departures", 0),
            failures=counters.get("failures", 0),
            drains=counters.get("drains", 0),
            migrations=counters.get("migrations", 0),
            pr_grants=counters.get("pr_grants", 0),
            pr_deferred=counters.get("pr_deferred", 0),
            scaled_up=counters.get("scaled_up", 0),
            scaled_down=counters.get("scaled_down", 0),
            alive_devices=int(alive.shape[0]),
            offered_gbps=float(state.load_units.sum() / RATE_UNITS_PER_GBPS),
            utilization_mean=float(utilization.mean()),
            utilization_max=float(utilization.max()),
            overloaded_devices=int((utilization > 1.0).sum()),
            non_resident_flows=int(non_resident_weight.sum()),
            p50_ns=p50,
            p99_ns=p99,
            mean_ns=mean_ns,
            slo_violations=violations,
        )

    def _publish(self, stats: EpochStats) -> None:
        metrics = self.context.metrics.namespace("fleet.epoch")
        metrics.set_gauge("p50_ns", stats.p50_ns)
        metrics.set_gauge("p99_ns", stats.p99_ns)
        metrics.set_gauge("mean_ns", stats.mean_ns)
        metrics.set_gauge("utilization_mean", stats.utilization_mean)
        metrics.set_gauge("utilization_max", stats.utilization_max)
        metrics.set_gauge("overloaded_devices", stats.overloaded_devices)
        metrics.set_gauge("non_resident_flows", stats.non_resident_flows)
        metrics.set_gauge("flows", stats.flows)
        metrics.set_gauge("alive_devices", stats.alive_devices)
        metrics.set_gauge("offered_gbps", stats.offered_gbps)
        metrics.increment("arrivals", stats.arrivals)
        metrics.increment("departures", stats.departures)
        metrics.increment("failures", stats.failures)
        metrics.increment("drains", stats.drains)
        metrics.increment("migrations", stats.migrations)
        metrics.increment("pr_grants", stats.pr_grants)
        metrics.increment("scaled_up", stats.scaled_up)
        metrics.increment("scaled_down", stats.scaled_down)

    def _update_digest(self) -> None:
        """Fold this epoch's state into the running fingerprint.

        The digest is a compact cross-mode check, not the equality
        proof: ``verify`` mode compares the full aggregate matrices
        bit-for-bit every epoch, and callers compare whole
        ``to_json()`` payloads.  Hashing the per-device load vector
        plus exact per-tenant totals covers both axes of the tenant
        matrices at a fraction of the bytes, which matters because
        this runs every epoch in every mode.
        """
        state = self.state
        self._digest.update(state.load_units.tobytes())
        self._digest.update(state.tenant_units.sum(axis=0).tobytes())
        self._digest.update(state.tenant_flows.sum(axis=0).tobytes())
        self._digest.update(_np.packbits(state.resident).tobytes())
        self._digest.update(state.status.tobytes())

    def _tenant_stats(self) -> Tuple[TenantStats, ...]:
        state = self.state
        resident_ns, non_resident_ns = device_latency_tables(
            state.load_units / RATE_UNITS_PER_GBPS,
            state.capacity_gbps, self.fleet_spec.mean_packet_bytes)
        latency = _np.where(state.resident, resident_ns[:, None],
                            non_resident_ns[:, None])
        tenants: List[TenantStats] = []
        for tenant in range(state.tenant_count):
            weights = state.tenant_flows[:, tenant]
            flows = int(weights.sum())
            if flows == 0:
                tenants.append(TenantStats(tenant, 0, 0.0, 0.0, 0.0))
                continue
            p50, p99 = weighted_percentiles(
                latency[:, tenant], weights, (0.50, 0.99))
            tenants.append(TenantStats(
                tenant=tenant, flows=flows,
                offered_gbps=float(
                    state.tenant_units[:, tenant].sum() / RATE_UNITS_PER_GBPS),
                p50_ns=p50, p99_ns=p99,
            ))
        return tuple(tenants)

    # --- the epoch loop ------------------------------------------------------

    def run(self) -> OrchestratorResult:
        with _profile_phase("orchestrator.run"):
            return self._run()

    def _run(self) -> OrchestratorResult:
        import time as _time

        state = self.state
        spec = self.spec
        trace = self.context.trace
        run_span = trace.begin(
            "orchestrator.run", ts_ps=0,
            mode=self.mode, epochs=spec.epochs,
            flows=self.fleet_spec.flow_count, devices=state.total_devices)
        started = _time.perf_counter()
        epochs: List[EpochStats] = []
        total_violations = 0
        for epoch in range(spec.epochs):
            span = trace.begin("orchestrator.epoch", ts_ps=self._ts(epoch),
                               parent=run_span, epoch=epoch)
            counters: Dict[str, int] = {}
            # Start-of-epoch observation every placement decision reads.
            snapshot_util = (state.load_units.astype(_np.float64)
                             / state.capacity_units)
            alive = state.alive_devices()
            # Steps 1-4 mutate flows but defer their aggregate deltas:
            # every control decision in the churn phase reads the
            # start-of-epoch observation anyway (a real control loop
            # acts on its last scrape), so the whole churn set folds
            # into the aggregates in ONE fused signed bincount pass at
            # the flush below -- the delta-vectorized hot path.
            state.defer_deltas()

            # 1. Device failure (hard: flows re-placed, device lost).
            if (spec.failure_every
                    and epoch % spec.failure_every == spec.failure_every - 1
                    and alive.shape[0] > 1):
                victim = int(alive[int(state.churn_stream.picks(
                    epoch, "fail-pick", 1, int(alive.shape[0]))[0])])
                state.status[victim] = _FAILED
                alive = state.alive_devices()
                moved = self._displace_device(
                    epoch, victim, "fail-place", snapshot_util, alive)
                counters["failures"] = 1
                trace.instant("orchestrator.failure", ts_ps=self._ts(epoch),
                              epoch=epoch, device=victim, flows=moved)

            # 2. Graceful drain (least-loaded device parks).
            if (spec.drain_every
                    and epoch % spec.drain_every == spec.drain_every - 1
                    and alive.shape[0] > 1):
                order = alive[_np.argsort(snapshot_util[alive], kind="stable")]
                victim = int(order[0])
                state.status[victim] = _PARKED
                alive = state.alive_devices()
                moved = self._displace_device(
                    epoch, victim, "drain-place", snapshot_util, alive)
                counters["drains"] = 1
                trace.instant("orchestrator.drain", ts_ps=self._ts(epoch),
                              epoch=epoch, device=victim, flows=moved)

            # 3. Flow churn: departures free slots, arrivals reuse them.
            #    All four draw streams the common case consumes come
            #    out of ONE fused splitmix64 block per epoch.
            departure_need = min(state.churn_per_epoch, state.active_flows)
            departure_sample = (departure_need + (departure_need >> 2) + 8
                                if departure_need else 0)
            (departure_draws, rate_draws, tenant_draws,
             place_draws) = state.churn_stream.block(
                epoch, "churn", (departure_sample, state.churn_per_epoch,
                                 state.churn_per_epoch,
                                 state.churn_per_epoch))
            departures = self._draw_departures(
                epoch, state.churn_per_epoch, primary=departure_draws)
            if departures.shape[0]:
                state.remove_flows(departures)
            counters["departures"] = int(departures.shape[0])
            counters["arrivals"] = self._arrivals(
                epoch, state.churn_per_epoch, snapshot_util, alive,
                draws=(rate_draws, tenant_draws, place_draws))

            # 4. Checkpoint/migrate off the hottest device.
            counters["migrations"] = self._maybe_migrate(
                epoch, snapshot_util, alive)

            # 5. Fold the whole churn set into the aggregates at once,
            #    then (full/verify) rebuild from the flow arrays -- the
            #    oracle -- and in verify mode pin both bit-for-bit.
            state.flush_deltas()
            if self.mode != "incremental":
                load, units, flows = state.rebuild_aggregates()
                if self.mode == "verify":
                    if not _np.array_equal(load, state.load_units):
                        raise DeltaMismatch(epoch, "device load")
                    if not _np.array_equal(units, state.tenant_units):
                        raise DeltaMismatch(epoch, "tenant load matrix")
                    if not _np.array_equal(flows, state.tenant_flows):
                        raise DeltaMismatch(epoch, "tenant flow counts")
                state.load_units, state.tenant_units, state.tenant_flows = (
                    load, units, flows)

            # 6. Partial-reconfiguration scheduling under the budget.
            granted, deferred = self._schedule_residency()
            counters["pr_grants"] = granted
            counters["pr_deferred"] = deferred

            # 7. Observe, publish, evaluate SLOs, autoscale on the
            #    verdict.  The epoch's stats are the observation the
            #    autoscaler acted on; its capacity moves land in the
            #    NEXT epoch's observation (a control loop acts on its
            #    last scrape), so each epoch costs exactly one stats
            #    pass.
            stats = self._epoch_stats(epoch, counters, 0)
            self._publish(stats)
            report = self.monitor.evaluate(self.context.metrics, trace)
            total_violations += len(report.violations)
            up, down = self._autoscale(epoch, report)
            if up or down:
                metrics = self.context.metrics.namespace("fleet.epoch")
                metrics.increment("scaled_up", up)
                metrics.increment("scaled_down", down)
            stats = _dataclasses.replace(
                stats, scaled_up=up, scaled_down=down,
                slo_violations=len(report.violations))
            epochs.append(stats)
            self._update_digest()
            trace.end(span, ts_ps=self._ts(epoch + 1),
                      flows=stats.flows, p99_ns=round(stats.p99_ns, 3),
                      alive=stats.alive_devices)

        tenants = self._tenant_stats()
        flow_digest = hashlib.sha256()
        # The arrays' own buffers: the same bytes as ``tobytes()``
        # without a copy of every per-flow array.
        flow_digest.update(state.flow_active)
        flow_digest.update(state.flow_device)
        flow_digest.update(state.flow_tenant)
        flow_digest.update(state.flow_rate_units)
        wall_s = _time.perf_counter() - started
        trace.end(run_span, ts_ps=self._ts(spec.epochs),
                  wall_s=round(wall_s, 6))
        return OrchestratorResult(
            fleet_spec=self.fleet_spec,
            spec=spec,
            mode=self.mode,
            epochs=tuple(epochs),
            tenants=tenants,
            aggregate_digest=self._digest.hexdigest(),
            flow_digest=flow_digest.hexdigest(),
            total_slo_violations=total_violations,
            wall_s=wall_s,
        )


def run_orchestrator(fleet_spec: Optional[FleetSpec] = None,
                     spec: Optional[OrchestratorSpec] = None,
                     mode: str = "incremental",
                     history: Optional[FleetHistory] = None,
                     monitor: Optional[SloMonitor] = None,
                     context: Optional[SimContext] = None
                     ) -> OrchestratorResult:
    """One-call epoch orchestration: build the state and run the day."""
    return Orchestrator(fleet_spec, spec, mode=mode, history=history,
                        monitor=monitor, context=context).run()
