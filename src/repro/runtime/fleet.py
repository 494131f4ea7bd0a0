"""Fleet-scale serving simulator (millions of flows, thousands of FPGAs).

The ROADMAP north star is a system that "serves heavy traffic from
millions of users ... as fast as the hardware allows", and the paper's
Figure 3c motivates Harmonia with a fleet of tens of thousands of
heterogeneous FPGAs.  This module exercises exactly that regime: a
Zipf-skewed :class:`~repro.workloads.flows.FlowSet` of millions of
flows is sharded across device instances derived from
:func:`repro.platform.fleet.production_fleet`, under pluggable
load-balancing policies, with partial-reconfiguration slot pressure
(:func:`repro.core.multitenancy.residency_matrix`) deciding which
tenants serve from resident bitstreams and which pay a reconfiguration.

Everything is closed-form numpy over per-flow arrays -- the same
philosophy as :mod:`repro.sim.vector` one level up the stack -- so a
1M-flow x 1k-device x 3-policy run completes in seconds:

* per-flow offered rate = Zipf weight x (offered_load x fleet capacity);
* a policy maps flows to device instances (``round-robin``,
  ``flow-hash`` affinity, or greedy ``least-loaded`` normalised by
  device capacity -- flows arrive heaviest-first, so the greedy pass is
  the classic LPT heuristic);
* per-device utilisation and per-(device, tenant) load fall out of
  ``np.bincount``; the ``slots_per_device`` heaviest tenants on each
  device keep their partial bitstreams resident;
* per-flow latency = base + store-and-forward service + an M/M/1-style
  queueing term that saturates at the knee + an overload penalty past
  rho = 1 + a reconfiguration penalty for non-resident tenants.

Results flow into the ambient :class:`~repro.runtime.context.SimContext`
metrics registry under ``fleet.<policy>.*`` and a span per policy on
the trace bus; ``python -m repro.cli fleet`` is the operator entry
point and the report grows a fleet section when ``BENCH_fleet.json``
is present.
"""

import heapq
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as _np

from repro.core.multitenancy import (
    PartialReconfigManager,
    even_slot_budgets,
    residency_matrix,
)
from repro.errors import ConfigurationError
from repro.obs.profiler import phase as _profile_phase
from repro.platform.catalog import device_by_name
from repro.platform.fleet import FleetHistory, production_fleet
from repro.runtime.context import SimContext, ensure_context
from repro.workloads.flows import flow_hashes32, zipf_weights_array

#: Load-balancing policies the simulator understands.
POLICIES: Tuple[str, ...] = ("round-robin", "least-loaded", "flow-hash")

#: Fixed host-side latency every packet pays (PCIe + ToR + host stack), ns.
BASE_LATENCY_NS = 2_000.0
#: Amortised partial-reconfiguration stall for a non-resident tenant, ns.
PR_PENALTY_NS = 25_000.0
#: Extra delay per unit of over-subscription past rho = 1, ns.
OVERLOAD_PENALTY_NS = 200_000.0
#: The queueing term saturates here instead of diverging at rho -> 1.
RHO_KNEE = 0.95
#: Network speed assumed for fleet entries the catalog cannot price.
FALLBACK_GBPS = 25.0
#: Integer rate quantum: 1 unit = 1 kbps, so 1 Gbps = 1e6 units.  All
#: per-flow rates are int64 units; fleet-wide sums stay < 2**53, which
#: keeps float64 bincount accumulation exact (the bit-exactness keystone
#: of :mod:`repro.runtime.orchestrator`).
RATE_UNITS_PER_GBPS = 1_000_000
#: Byte bound of :data:`SHAPE_MEMO`.  A 100k-flow shape takes ~2.4 MB;
#: a 1M-flow shape (~24 MB) is built for its caller and never kept.
SHAPE_MEMO_MAX_BYTES = 16 * 1024 * 1024


@dataclass(frozen=True)
class FleetSpec:
    """Size and shape of one fleet serving scenario."""

    flow_count: int = 1_000_000
    device_count: int = 1_024
    tenant_count: int = 16
    slots_per_device: int = 4
    alpha: float = 1.05
    offered_load: float = 0.65
    mean_packet_bytes: int = 512
    seed: int = 2_025
    year: int = 2_024

    def __post_init__(self) -> None:
        if self.flow_count < 1:
            raise ConfigurationError("need at least one flow")
        if self.device_count < 1:
            raise ConfigurationError("need at least one device instance")
        if self.tenant_count < 1:
            raise ConfigurationError("need at least one tenant")
        if self.slots_per_device < 1:
            raise ConfigurationError("need at least one PR slot per device")
        if self.alpha <= 0:
            raise ConfigurationError("Zipf alpha must be positive")
        if not 0.0 < self.offered_load:
            raise ConfigurationError("offered load must be positive")
        if self.mean_packet_bytes < 1:
            raise ConfigurationError("mean packet size must be positive")

    @classmethod
    def from_scenario(cls, scenario) -> "FleetSpec":
        """Build the spec a fleet-kind :class:`repro.scenario.Scenario`
        describes: the tenancy section plus the shared seed and year."""
        if scenario.kind != "fleet":
            raise ConfigurationError(
                f"scenario kind {scenario.kind!r} cannot drive a fleet spec")
        tenancy = scenario.tenancy
        return cls(
            flow_count=tenancy.flow_count,
            device_count=tenancy.device_count,
            tenant_count=tenancy.tenant_count,
            slots_per_device=tenancy.slots_per_device,
            alpha=tenancy.alpha,
            offered_load=tenancy.offered_load,
            mean_packet_bytes=tenancy.mean_packet_bytes,
            seed=scenario.seed,
            year=scenario.year,
        )


@dataclass(frozen=True)
class DeviceGroup:
    """All instances of one fleet device type."""

    device_name: str
    instances: int
    capacity_gbps: float
    first_index: int

    def label(self, local_index: int) -> str:
        return f"{self.device_name}[{local_index}]"


@dataclass(frozen=True)
class TenantStats:
    """One tenant's share of the fleet under one policy."""

    tenant: int
    flows: int
    offered_gbps: float
    p50_ns: float
    p99_ns: float

    def to_json(self) -> Dict[str, float]:
        return {
            "tenant": self.tenant,
            "flows": self.flows,
            "offered_gbps": round(self.offered_gbps, 6),
            "p50_ns": round(self.p50_ns, 3),
            "p99_ns": round(self.p99_ns, 3),
        }


@dataclass(frozen=True)
class PolicyResult:
    """Fleet-wide outcome of one load-balancing policy."""

    policy: str
    p50_ns: float
    p99_ns: float
    mean_ns: float
    utilization_mean: float
    utilization_max: float
    imbalance: float
    overloaded_devices: int
    non_resident_flows: int
    tenants: Tuple[TenantStats, ...]
    device_utilization: Tuple[float, ...]
    hottest: Tuple[Tuple[str, float], ...]

    def to_json(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "p50_ns": round(self.p50_ns, 3),
            "p99_ns": round(self.p99_ns, 3),
            "mean_ns": round(self.mean_ns, 3),
            "utilization_mean": round(self.utilization_mean, 6),
            "utilization_max": round(self.utilization_max, 6),
            "imbalance": round(self.imbalance, 6),
            "overloaded_devices": self.overloaded_devices,
            "non_resident_flows": self.non_resident_flows,
            "tenants": [tenant.to_json() for tenant in self.tenants],
            "device_utilization": [round(value, 6)
                                   for value in self.device_utilization],
            "hottest": [[label, round(value, 6)] for label, value in self.hottest],
        }


@dataclass(frozen=True)
class FleetResult:
    """All policies over one :class:`FleetSpec`."""

    spec: FleetSpec
    total_capacity_gbps: float
    offered_gbps: float
    effective_offered_gbps: float
    groups: Tuple[DeviceGroup, ...]
    policies: Tuple[PolicyResult, ...]

    def policy(self, name: str) -> PolicyResult:
        for result in self.policies:
            if result.policy == name:
                return result
        raise ConfigurationError(f"no policy {name!r} in this result")

    def best_policy(self) -> PolicyResult:
        """The policy with the lowest fleet-wide p99."""
        return min(self.policies, key=lambda result: (result.p99_ns, result.policy))

    def to_json(self) -> Dict[str, object]:
        return {
            "spec": {
                "flow_count": self.spec.flow_count,
                "device_count": self.spec.device_count,
                "tenant_count": self.spec.tenant_count,
                "slots_per_device": self.spec.slots_per_device,
                "alpha": self.spec.alpha,
                "offered_load": self.spec.offered_load,
                "mean_packet_bytes": self.spec.mean_packet_bytes,
                "seed": self.spec.seed,
                "year": self.spec.year,
            },
            "total_capacity_gbps": round(self.total_capacity_gbps, 3),
            "offered_gbps": round(self.offered_gbps, 3),
            "effective_offered_gbps": round(self.effective_offered_gbps, 3),
            "groups": [
                {"device": group.device_name, "instances": group.instances,
                 "capacity_gbps": group.capacity_gbps}
                for group in self.groups
            ],
            "best_policy": self.best_policy().policy,
            "policies": [policy.to_json() for policy in self.policies],
        }


def _capacity_gbps(device_name: str) -> float:
    """Network capacity of one fleet device type.

    Catalog entries answer directly; fleet-history names the catalog
    does not carry (revisions like ``device-b-rev2``, speed-graded
    variants like ``device-a-100g``) resolve by their speed suffix or
    their base type, with a conservative fallback for edge parts.
    """
    try:
        speed = device_by_name(device_name).network_gbps
        if speed > 0:
            return float(speed)
    except KeyError:
        pass
    stem, _, suffix = device_name.rpartition("-")
    if stem and suffix.endswith("g") and suffix[:-1].isdigit():
        return float(suffix[:-1])
    if stem:
        try:
            speed = device_by_name(stem).network_gbps
            if speed > 0:
                return float(speed)
        except KeyError:
            pass
    return FALLBACK_GBPS


def _allocate_instances(units: Sequence[int], device_count: int) -> List[int]:
    """Largest-remainder split of ``device_count`` instances by unit share.

    Every type with installed units gets at least one instance.  The
    largest-remainder pass is **explicitly deterministic**: surplus
    instances hand out in ascending ``(-remainder, index)`` order, so
    two types with *equal* fractional remainders always break toward
    the earlier index -- epoch-to-epoch reruns of the same unit vector
    can never flap between allocations.  The trim pass (when the
    one-instance floor over-allocated) is equally pinned: it always
    shrinks the currently-largest allocation, later index first on
    ties.
    """
    total = sum(units)
    if total <= 0:
        raise ConfigurationError("fleet has no installed units")
    if device_count < len(units):
        raise ConfigurationError(
            f"need at least {len(units)} device instances to cover "
            f"{len(units)} active device types"
        )
    quotas = [count * device_count / total for count in units]
    allocation = [max(int(quota), 1) for quota in quotas]
    # Stable largest-remainder order: sort on (remainder, index) with
    # the remainder negated so bigger remainders come first and equal
    # remainders fall back to the original index, deterministically.
    remainders = sorted(
        range(len(units)),
        key=lambda index: (-(quotas[index] - int(quotas[index])), index),
    )
    cursor = 0
    while sum(allocation) < device_count:
        allocation[remainders[cursor % len(units)]] += 1
        cursor += 1
    while sum(allocation) > device_count:
        victim = max(range(len(allocation)), key=lambda i: (allocation[i], -i))
        if allocation[victim] <= 1:
            break
        allocation[victim] -= 1
    return allocation


# ---------------------------------------------------------------------------
# Array kernels (shared with the epoch orchestrator)
# ---------------------------------------------------------------------------

def device_latency_tables(load_gbps, capacity_gbps,
                          mean_packet_bytes: int):
    """Per-device latency of the M/M/1 + overload + PR model.

    Returns ``(resident_ns, non_resident_ns)`` arrays over devices:
    the latency any flow served by device *d* observes, depending on
    whether its tenant's partial bitstream is resident.  Flow-level
    consumers gather by their assignment array; because the per-flow
    model only ever depended on the flow's device and residency bit,
    ``resident_ns[assign] + PR_PENALTY_NS * non_resident`` is
    **bit-exact** against the historical per-flow formulation (same
    float operations, same order, same inputs).

    The terms, in evaluation order:

    * fixed host-side base latency;
    * store-and-forward service time of one mean packet;
    * an M/M/1-style queueing term ``service * rho / (1 - rho)`` that
      saturates at :data:`RHO_KNEE` instead of diverging;
    * an overload penalty proportional to over-subscription past
      ``rho = 1``.
    """
    capacity = _np.asarray(capacity_gbps, dtype=_np.float64)
    load = _np.asarray(load_gbps, dtype=_np.float64)
    service_ns = mean_packet_bytes * 8 / capacity
    rho = load / capacity
    knee = _np.minimum(rho, RHO_KNEE)
    resident_ns = (
        BASE_LATENCY_NS
        + service_ns
        + service_ns * knee / (1.0 - knee)
        + _np.maximum(rho - 1.0, 0.0) * OVERLOAD_PENALTY_NS
    )
    return resident_ns, resident_ns + PR_PENALTY_NS


def assign_flows(policy: str, flow_rate_gbps, flow_hash, capacity_gbps,
                 out=None):
    """flow -> device-instance index array for one placement policy.

    The reusable form of the simulator's policy assignment:
    ``round-robin`` cycles instances, ``flow-hash`` pins each flow by
    its stable 32-bit hash, and ``least-loaded`` runs the greedy LPT
    heuristic (flows arrive heaviest-first in Zipf rank order,
    utilisation normalised by instance capacity).  ``out`` reuses a
    caller-owned int64 buffer so batched callers skip per-policy
    allocations; the returned array is ``out`` when given.
    """
    flow_count = int(_np.asarray(flow_rate_gbps).shape[0])
    devices = int(_np.asarray(capacity_gbps).shape[0])
    if out is None:
        out = _np.empty(flow_count, dtype=_np.int64)
    if policy == "round-robin":
        _np.mod(_np.arange(flow_count, dtype=_np.int64), devices, out=out)
        return out
    if policy == "flow-hash":
        _np.mod(flow_hash, devices, out=out)
        return out
    if policy == "least-loaded":
        # Flows arrive heaviest-first (Zipf rank order), so greedy
        # least-utilised placement is the LPT heuristic, normalised
        # by each instance's capacity.
        heap = [(0.0, device) for device in range(devices)]
        inverse = (1.0 / _np.asarray(capacity_gbps, dtype=_np.float64)).tolist()
        rates = _np.asarray(flow_rate_gbps, dtype=_np.float64).tolist()
        for index, rate in enumerate(rates):
            utilisation, device = heap[0]
            out[index] = device
            heapq.heapreplace(
                heap, (utilisation + rate * inverse[device], device))
        return out
    raise ConfigurationError(
        f"unknown fleet policy {policy!r}; choose from {', '.join(POLICIES)}"
    )


@dataclass(frozen=True)
class SeedFreeArrays:
    """The part of a fleet build that depends on its shape, not its seed.

    All four follow from ``(flow_count, alpha, offered_load,
    device_count, year)`` over one fleet history: the Zipf weights, the
    per-flow rates capped at the fastest line rate, their integer
    :data:`RATE_UNITS_PER_GBPS` units, and the harmonic number
    ``H(flow_count)`` the orchestrator scales its arrival draws by.
    """

    flow_weights: _np.ndarray
    flow_rate_gbps: _np.ndarray
    flow_rate_units: _np.ndarray
    harmonic_sum: float

    @classmethod
    def build(cls, flow_count: int, alpha: float, offered_gbps: float,
              max_capacity_gbps: float) -> "SeedFreeArrays":
        weights = zipf_weights_array(flow_count, alpha)
        # A single flow is serialised through one port, so its offered
        # rate can never exceed the fastest line rate in the fleet --
        # without the cap the Zipf head would offer multi-Tbps "flows".
        rate_gbps = _np.minimum(weights * offered_gbps, max_capacity_gbps)
        rate_units = _np.maximum(
            _np.floor(rate_gbps * RATE_UNITS_PER_GBPS), 1.0,
        ).astype(_np.int64)
        harmonic = float(
            (1.0 / _np.arange(1, flow_count + 1, dtype=_np.float64)).sum())
        for array in (weights, rate_gbps, rate_units):
            array.setflags(write=False)
        return cls(weights, rate_gbps, rate_units, harmonic)

    @property
    def nbytes(self) -> int:
        return (self.flow_weights.nbytes + self.flow_rate_gbps.nbytes
                + self.flow_rate_units.nbytes)


class ShapeMemo:
    """Bounded, thread-safe LRU of :class:`SeedFreeArrays` by fleet shape.

    Requests that differ only in their seed share one read-only entry,
    so a repeat of a shape pays for its seed-dependent work (hashes,
    assignment, aggregates) and not for its shape.  Entries are evicted
    least-recently-used past ``max_bytes``; an entry larger than the
    whole bound is returned to its caller and never stored.  A miss
    builds outside the lock, so two threads missing one key at once
    both build (identical arrays) and the first stored copy is kept.
    """

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = max_bytes
        self.hits = 0
        self._entries: "OrderedDict[Hashable, SeedFreeArrays]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, key: Hashable,
            build: Callable[[], SeedFreeArrays]) -> SeedFreeArrays:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
        entry = build()
        if entry.nbytes > self.max_bytes:
            return entry
        with self._lock:
            if key in self._entries:
                return self._entries[key]
            self._entries[key] = entry
            self._bytes += entry.nbytes
            while self._bytes > self.max_bytes:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
        return entry

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self.hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        return self._bytes


#: The process-wide shape memo :class:`FleetSimulation` builds through
#: when it runs over the default :func:`production_fleet` history.
SHAPE_MEMO = ShapeMemo(SHAPE_MEMO_MAX_BYTES)


class FleetSimulation:
    """One fleet serving scenario, replayable under multiple policies.

    The seed-free arrays come from :data:`SHAPE_MEMO` unless an explicit
    ``history`` is given; those are read-only and shared between
    simulations of one shape.
    """

    def __init__(self, spec: Optional[FleetSpec] = None,
                 history: Optional[FleetHistory] = None,
                 context: Optional[SimContext] = None) -> None:
        self.spec = spec or FleetSpec()
        self.context = ensure_context(context)
        default_history = history is None
        if default_history:
            history = production_fleet()
        introductions = history.active_introductions(self.spec.year)
        if not introductions:
            raise ConfigurationError(
                f"no device types active in {self.spec.year}"
            )
        allocation = _allocate_instances(
            [item.units for item in introductions], self.spec.device_count)
        groups: List[DeviceGroup] = []
        first = 0
        for item, instances in zip(introductions, allocation):
            groups.append(DeviceGroup(
                device_name=item.device_name, instances=instances,
                capacity_gbps=_capacity_gbps(item.device_name),
                first_index=first,
            ))
            first += instances
        self.groups: Tuple[DeviceGroup, ...] = tuple(groups)
        self.instance_capacity_gbps = _np.concatenate([
            _np.full(group.instances, group.capacity_gbps, dtype=_np.float64)
            for group in self.groups
        ])
        # Check the PR-slot plan is mechanically loadable on every type
        # the catalog knows: even_slot_budgets splits the role region and
        # PartialReconfigManager would reject an impossible slot count.
        self.slot_plan: Dict[str, int] = {}
        for group in self.groups:
            try:
                device = device_by_name(group.device_name)
            except KeyError:
                continue
            manager = PartialReconfigManager(
                even_slot_budgets(device.budget, self.spec.slots_per_device))
            self.slot_plan[group.device_name] = len(manager.slots)

        spec = self.spec
        self.total_capacity_gbps = float(self.instance_capacity_gbps.sum())
        self.offered_gbps = spec.offered_load * self.total_capacity_gbps

        def build() -> SeedFreeArrays:
            return SeedFreeArrays.build(
                spec.flow_count, spec.alpha, self.offered_gbps,
                float(self.instance_capacity_gbps.max()))

        if default_history:
            seed_free = SHAPE_MEMO.get(
                (spec.flow_count, spec.alpha, spec.offered_load,
                 spec.device_count, spec.year), build)
        else:
            seed_free = build()
        self.flow_weights = seed_free.flow_weights
        self.flow_rate_gbps = seed_free.flow_rate_gbps
        self.flow_rate_units = seed_free.flow_rate_units
        self.harmonic_sum = seed_free.harmonic_sum
        self.effective_offered_gbps = float(self.flow_rate_gbps.sum())
        self.flow_hash = flow_hashes32(spec.flow_count, spec.seed).astype(_np.int64)
        self.flow_tenant = (
            flow_hashes32(spec.flow_count, spec.seed + 1)
            % _np.uint32(spec.tenant_count)
        ).astype(_np.int64)

    def __len__(self) -> int:
        return self.spec.flow_count

    @property
    def device_count(self) -> int:
        return int(self.instance_capacity_gbps.shape[0])

    def instance_label(self, index: int) -> str:
        for group in self.groups:
            if group.first_index <= index < group.first_index + group.instances:
                return group.label(index - group.first_index)
        raise ConfigurationError(f"no device instance {index}")

    # --- policies -----------------------------------------------------------

    def assignment(self, policy: str, out=None):
        """flow -> device-instance index array for one policy.

        ``out`` reuses a caller-owned buffer (see :func:`assign_flows`);
        batched evaluation passes one scratch array across policies.
        """
        return assign_flows(
            policy, self.flow_rate_gbps, self.flow_hash,
            self.instance_capacity_gbps, out=out,
        )

    # --- evaluation ---------------------------------------------------------

    def run_policy(self, policy: str, _scratch=None) -> PolicyResult:
        with _profile_phase("fleet.policy"):
            return self._run_policy(policy, _scratch)

    def _run_policy(self, policy: str, scratch=None) -> PolicyResult:
        spec = self.spec
        devices = self.device_count
        span = self.context.trace.begin(
            f"fleet.{policy}", ts_ps=0,
            flows=spec.flow_count, devices=devices, tenants=spec.tenant_count,
        )
        assign = self.assignment(policy, out=scratch)
        load_gbps = _np.bincount(
            assign, weights=self.flow_rate_gbps, minlength=devices)
        utilization = load_gbps / self.instance_capacity_gbps

        tenant_load = _np.bincount(
            assign * spec.tenant_count + self.flow_tenant,
            weights=self.flow_rate_gbps,
            minlength=devices * spec.tenant_count,
        ).reshape(devices, spec.tenant_count)
        resident = residency_matrix(tenant_load, spec.slots_per_device)
        non_resident = ~resident[assign, self.flow_tenant]

        # Latency factors through per-device tables (the flow's device
        # and residency bit are the only per-flow inputs), so one
        # O(devices) kernel plus a gather replaces the historical
        # O(flows) expression bit-for-bit.
        resident_ns, _ = device_latency_tables(
            load_gbps, self.instance_capacity_gbps, spec.mean_packet_bytes)
        latency_ns = resident_ns[assign] + PR_PENALTY_NS * non_resident

        p50, p99 = (float(v) for v in _np.percentile(latency_ns, (50, 99)))
        tenants: List[TenantStats] = []
        for tenant in range(spec.tenant_count):
            mask = self.flow_tenant == tenant
            flows = int(mask.sum())
            if flows == 0:
                tenants.append(TenantStats(tenant, 0, 0.0, 0.0, 0.0))
                continue
            t50, t99 = (float(v)
                        for v in _np.percentile(latency_ns[mask], (50, 99)))
            tenants.append(TenantStats(
                tenant=tenant, flows=flows,
                offered_gbps=float(tenant_load[:, tenant].sum()),
                p50_ns=t50, p99_ns=t99,
            ))

        order = _np.argsort(-utilization, kind="stable")[:5]
        result = PolicyResult(
            policy=policy,
            p50_ns=p50,
            p99_ns=p99,
            mean_ns=float(latency_ns.mean()),
            utilization_mean=float(utilization.mean()),
            utilization_max=float(utilization.max()),
            imbalance=float(utilization.max() / utilization.mean()),
            overloaded_devices=int((utilization > 1.0).sum()),
            non_resident_flows=int(non_resident.sum()),
            tenants=tuple(tenants),
            device_utilization=tuple(utilization.tolist()),
            hottest=tuple(
                (self.instance_label(int(index)), float(utilization[index]))
                for index in order
            ),
        )
        metrics = self.context.metrics.namespace(f"fleet.{policy}")
        metrics.set_gauge("p50_ns", result.p50_ns)
        metrics.set_gauge("p99_ns", result.p99_ns)
        metrics.set_gauge("utilization_mean", result.utilization_mean)
        metrics.set_gauge("utilization_max", result.utilization_max)
        metrics.set_gauge("imbalance", result.imbalance)
        metrics.set_gauge("overloaded_devices", result.overloaded_devices)
        metrics.set_gauge("non_resident_flows", result.non_resident_flows)
        # Per-tenant visibility (the paper's per-tenant monitoring half):
        # tail latency lands under fleet.<policy>.tenant.<id>.*, which is
        # what the stock tenant-p99 SLO spec pattern-matches against.
        for tenant in result.tenants:
            tenant_ns = metrics.namespace(f"tenant.{tenant.tenant:02d}")
            tenant_ns.set_gauge("flows", tenant.flows)
            tenant_ns.set_gauge("offered_gbps", tenant.offered_gbps)
            tenant_ns.set_gauge("p50_ns", tenant.p50_ns)
            tenant_ns.set_gauge("p99_ns", tenant.p99_ns)
        self.context.trace.end(span, ts_ps=0, p99_ns=round(p99, 3))
        return result

    def run(self, policies: Sequence[str] = POLICIES) -> FleetResult:
        if not policies:
            raise ConfigurationError("need at least one policy")
        # One flow->device scratch array shared by every policy: the
        # assignment kernels write in place, so a 3-policy 1M-flow run
        # allocates the 8 MB index buffer once instead of per policy.
        scratch = _np.empty(self.spec.flow_count, dtype=_np.int64)
        results = tuple(self.run_policy(policy, scratch) for policy in policies)
        metrics = self.context.metrics.namespace("fleet")
        metrics.set_gauge("flows", self.spec.flow_count)
        metrics.set_gauge("devices", self.device_count)
        metrics.set_gauge("capacity_gbps", self.total_capacity_gbps)
        metrics.set_gauge("offered_gbps", self.offered_gbps)
        return FleetResult(
            spec=self.spec,
            total_capacity_gbps=self.total_capacity_gbps,
            offered_gbps=self.offered_gbps,
            effective_offered_gbps=self.effective_offered_gbps,
            groups=self.groups,
            policies=results,
        )


def run_fleet(spec: Optional[FleetSpec] = None,
              policies: Sequence[str] = POLICIES,
              history: Optional[FleetHistory] = None,
              context: Optional[SimContext] = None) -> FleetResult:
    """One-call fleet scenario: build the simulation and run ``policies``."""
    return FleetSimulation(spec, history=history, context=context).run(policies)
