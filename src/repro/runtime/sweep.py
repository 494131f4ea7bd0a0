"""In-process sweep runner with content-keyed result caching.

Every headline figure of the paper (Figs 10, 16, 17, 18) is a sweep of
independent (application x device x packet-size) points through the same
deterministic pipeline models.  Independence is the whole trick -- a
static-rate pipeline has one closed-form schedule, so many points can
share one kernel pass -- and this module does the simulation-side
bookkeeping:

* a :class:`SweepPlan` expands into independent :class:`SweepPoint`\\ s;
* a :class:`SweepCache` memoises point results under a **content key**
  (the stage timing parameters of the chain, the packet size, the packet
  count, and the offered load).  The analytic models are pure functions
  of those inputs, so a repeated figure is a cache lookup, not a
  re-simulation;
* a :class:`SweepRunner` probes the cache, runs the misses in this
  process, and merges results in plan order.  Traced points skip the
  cache.

Each cold point executes on one of two implementations: the closed-form
numpy kernel (:mod:`repro.sim.vector`), which batches every untraced
analytic point of a (chain, packet count) group into one launch, or the
per-Transaction oracle loop for ``engine="des"`` and non-analytic chains.
Traced points run one at a time -- the kernel still replays their
untraced tail -- because each needs its own context and per-packet
spans.  The kernel is pinned to exact integer equality against the
oracle, so the path a point took is invisible in the results.
"""

import dataclasses
import functools
import hashlib
import json
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.profiler import phase as _profile_phase
from repro.runtime.context import SimContext, isolated_context_stack
from repro.sim.vector import ENGINES, chain_supports_vector

#: Paper sweep of Figure 17/18: the default packet-size axis.
DEFAULT_PACKET_SIZES: Tuple[int, ...] = (64, 128, 256, 512, 1024)


# ---------------------------------------------------------------------------
# Plan and points
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False)
class SweepPoint:
    """One independent unit of sweep work.

    ``engine`` picks the implementation for the point's untraced bulk
    (``auto`` / ``vector`` / ``des`` -- see :mod:`repro.sim.vector`).
    It is deliberately *not* part of the cache key and not serialised in
    results: the vector kernel is pinned to exact equality against the
    oracle loop, so the engine is invisible in the output.
    """

    app: str
    device: str
    packet_size_bytes: int
    packet_count: int
    with_harmonia: bool = True
    trace: bool = False
    engine: str = "auto"

    def __init__(self, app: str, device: str, packet_size_bytes: int,
                 packet_count: int, with_harmonia: bool = True,
                 trace: bool = False, engine: str = "auto") -> None:
        # One dict update, where the generated frozen __init__ makes an
        # object.__setattr__ call per field: every served sweep builds
        # a point per point of its plan, warm or cold.
        self.__dict__.update(
            app=app, device=device, packet_size_bytes=packet_size_bytes,
            packet_count=packet_count, with_harmonia=with_harmonia,
            trace=trace, engine=engine)

    def label(self) -> str:
        variant = "harmonia" if self.with_harmonia else "native"
        return (f"{self.app}@{self.device}/{variant}/"
                f"{self.packet_size_bytes}B")


@dataclass(frozen=True)
class SweepPlan:
    """An (apps x devices x packet-sizes) sweep specification."""

    apps: Tuple[str, ...]
    devices: Tuple[str, ...]
    packet_sizes: Tuple[int, ...] = DEFAULT_PACKET_SIZES
    packets_per_point: int = 2_000
    with_harmonia: bool = True
    include_path_latency: bool = True
    trace: bool = False

    def __post_init__(self) -> None:
        if not self.apps or not self.devices or not self.packet_sizes:
            raise ConfigurationError(
                "a sweep plan needs at least one app, device, and packet size"
            )
        if self.packets_per_point < 1:
            raise ConfigurationError("packets_per_point must be >= 1")

    def expand(self) -> List[SweepPoint]:
        """The plan's points in canonical (app, device, size) order.

        Expansion is owned by the unified scenario spec
        (:meth:`repro.scenario.Scenario.expand_points`): the plan round
        trips through its scenario form, so sweeps, scenario files, and
        the differential fuzzer all expand one way.
        """
        return self.to_scenario().expand_points()

    def __len__(self) -> int:
        return len(self.apps) * len(self.devices) * len(self.packet_sizes)

    def to_scenario(self):
        """This plan as a sweep-kind :class:`repro.scenario.Scenario`."""
        from repro.scenario import Scenario, WorkloadSpec

        return Scenario(
            kind="sweep", apps=self.apps, devices=self.devices,
            workload=WorkloadSpec(
                packet_sizes=self.packet_sizes,
                packets_per_point=self.packets_per_point,
                with_harmonia=self.with_harmonia,
                include_path_latency=self.include_path_latency,
                trace=self.trace,
            ),
        )

    @classmethod
    def from_scenario(cls, scenario) -> "SweepPlan":
        """Build the plan a sweep-kind scenario describes."""
        if scenario.kind != "sweep":
            raise ConfigurationError(
                f"scenario kind {scenario.kind!r} cannot drive a sweep plan")
        workload = scenario.workload
        return cls(
            apps=tuple(scenario.apps), devices=tuple(scenario.devices),
            packet_sizes=tuple(workload.packet_sizes),
            packets_per_point=workload.packets_per_point,
            with_harmonia=workload.with_harmonia,
            include_path_latency=workload.include_path_latency,
            trace=workload.trace,
        )


# ---------------------------------------------------------------------------
# Content-keyed cache
# ---------------------------------------------------------------------------

def chain_signature(chain) -> Tuple[Tuple[Any, ...], ...]:
    """The timing-relevant content of a chain: one tuple per stage.

    Two chains with equal signatures are observationally identical to
    :func:`repro.sim.pipeline.run_packet_sweep` -- stage and chain names
    are deliberately excluded, so e.g. two apps whose datapaths happen to
    reduce to the same stage parameters share cache entries.
    """
    return tuple(
        (
            stage.clock.freq_mhz,
            stage.data_width_bits,
            stage.latency_cycles,
            stage.initiation_interval,
            stage.per_transaction_overhead_cycles,
        )
        for stage in chain.stages
    )


#: The key payload's encoder, built once rather than per ``json.dumps``.
_KEY_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: The last signature object keyed and its payload prefix.  A runner
#: hands one signature tuple in for every point of a chain; holding the
#: object keeps its id from being reused, so identity is enough to
#: reuse the prefix.
_LAST_PREFIX: Tuple[Any, str] = ((), "[")


@functools.lru_cache(maxsize=1024)
def _payload_prefix(pickled_signature: bytes) -> str:
    """``"[stage1,stage2,"``: the key payload up to the point's values.

    Memoised by the signature's pickle, not the tuple: ``==`` equates
    ``250`` with ``250.0`` and ``0.0`` with ``-0.0``, which JSON encodes
    differently.
    """
    stages = [list(stage) for stage in pickle.loads(pickled_signature)]
    return _KEY_JSON.encode(stages)[:-1] + ("," if stages else "")


def sweep_cache_key(
    signature: Tuple[Tuple[Any, ...], ...],
    packet_size_bytes: int,
    packet_count: int,
    offered_load_bps: Optional[float] = None,
    trace_of: Optional[str] = None,
) -> str:
    """A stable content key for one analytic sweep point.

    The key is the sha256 of the compact, key-sorted JSON list of the
    signature's stages followed by the point's size, count, load and
    ``trace_of``.  ``trace_of`` is the chain name and is folded in
    **only for traced points**: they never enter the cache, but their
    keys are part of the response bodies, so those keys must not change.
    ``signature`` must not be mutated between calls (a tuple,
    as :func:`chain_signature` returns, cannot be): a repeat of the
    same object reuses its encoding.
    """
    global _LAST_PREFIX
    last, prefix = _LAST_PREFIX
    if signature is not last:
        prefix = _payload_prefix(pickle.dumps(signature, 4))
        _LAST_PREFIX = (signature, prefix)
    if (type(packet_size_bytes) is int and type(packet_count) is int
            and offered_load_bps is None and trace_of is None):
        # An untraced point at the default load: the runner's hot path.
        values = f"{packet_size_bytes},{packet_count},null,null]"
    else:
        values = _KEY_JSON.encode([packet_size_bytes, packet_count,
                                   offered_load_bps, trace_of])[1:]
    payload = prefix + values
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class SweepCache:
    """In-memory (optionally file-backed) memo of sweep-point results.

    Entries are keyed by :func:`sweep_cache_key` and carry an untraced
    point's ``throughput_bps`` and ``mean_latency_ns``.  Traced points
    are never probed or stored, so a traced flood cannot evict the
    untraced working set.

    ``max_entries`` bounds residency: the cache becomes an LRU (a hit
    refreshes an entry, a store beyond the bound evicts the least
    recently used one), so a long-lived serving daemon that keeps one
    cache resident forever cannot grow it without limit.  Evictions are
    counted on :attr:`evictions` and, when a registry is attached via
    :meth:`attach_metrics`, on the ``sweep.cache.evictions`` counter.

    All mutating operations take an internal lock, so one cache can be
    shared by concurrent daemon request threads.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ConfigurationError("max_entries must be >= 1 (or None)")
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._lock = threading.Lock()
        self._metrics = None
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def attach_metrics(self, registry) -> "SweepCache":
        """Count future evictions on ``registry`` (``sweep.cache.evictions``)."""
        self._metrics = registry
        return self

    def _evict_over_bound(self) -> None:
        # Called with the lock held.
        if self.max_entries is None:
            return
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
            if self._metrics is not None:
                self._metrics.increment("sweep.cache.evictions")

    def _lookup_locked(self, key: str) -> Optional[Dict[str, Any]]:
        # Called with the lock held.
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def _store_locked(self, key: str, entry: Dict[str, Any]) -> None:
        # Called with the lock held.
        self._entries[key] = dict(entry)
        self._entries.move_to_end(key)
        self._evict_over_bound()

    def lookup(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            return self._lookup_locked(key)

    def lookup_many(self, keys: Sequence[str]
                    ) -> List[Optional[Dict[str, Any]]]:
        """Probe a whole plan's keys under one lock acquisition.

        Semantically identical to ``[lookup(k) for k in keys]`` (hit/miss
        counters, LRU refresh), but a 45-point sweep pays one lock round
        trip instead of 45 -- the probe the fused planner issues before
        partitioning work.
        """
        with self._lock:
            return [self._lookup_locked(key) for key in keys]

    def refresh_all(self, keys: Sequence[str]) -> bool:
        """Whether every key is resident; if so, probe them all.

        When all ``keys`` are resident this is :meth:`lookup_many` on
        an all-hit plan (each refreshed and counted as a hit); when any
        is missing it refreshes and counts nothing, so a caller that
        falls back to a full probe is not counted twice.
        """
        with self._lock:
            entries = self._entries
            if not all(key in entries for key in keys):
                return False
            for key in keys:
                entries.move_to_end(key)
            self.hits += len(keys)
            return True

    def store(self, key: str, entry: Dict[str, Any]) -> None:
        with self._lock:
            self._store_locked(key, entry)

    def store_many(self, items: Iterable[Tuple[str, Dict[str, Any]]]) -> None:
        """Insert many entries under one lock acquisition.

        Same per-entry semantics as :meth:`store` (LRU bound enforced
        after every insert).
        """
        with self._lock:
            for key, entry in items:
                self._store_locked(key, entry)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    # --- persistence --------------------------------------------------------

    def save(self, path: str) -> int:
        """Write the cache as deterministic JSON; returns the entry count.

        The write is atomic: the JSON lands in a temporary file in the
        same directory and is moved into place with ``os.replace``, so a
        run interrupted mid-save leaves either the old file or the new
        one -- never a truncated half-cache.
        """
        with self._lock:
            snapshot = {key: entry for key, entry in self._entries.items()}
        directory = os.path.dirname(os.path.abspath(path))
        handle = tempfile.NamedTemporaryFile(
            "w", dir=directory, prefix=os.path.basename(path) + ".",
            suffix=".tmp", delete=False,
        )
        try:
            with handle:
                json.dump(snapshot, handle, sort_keys=True,
                          separators=(",", ":"))
                handle.write("\n")
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        return len(snapshot)

    def load(self, path: str) -> int:
        """Merge entries from ``path``; returns how many were loaded.

        A file that is not valid JSON (e.g. truncated by a crash that
        predates atomic saves), or an entry without numeric result
        fields, raises :class:`ConfigurationError` naming the path (and
        the key), not a bare traceback on a later hit.  Other fields (an
        old file's ``trace_jsonl``) are dropped.
        """
        with open(path) as handle:
            try:
                loaded = json.load(handle)
            except ValueError as error:
                raise ConfigurationError(
                    f"{path} is not a sweep cache file (corrupt or "
                    f"truncated JSON: {error})"
                ) from None
        if not isinstance(loaded, dict):
            raise ConfigurationError(f"{path} is not a sweep cache file")
        entries = {key: _checked_entry(path, key, entry)
                   for key, entry in loaded.items()}
        with self._lock:
            for key, entry in entries.items():
                self._entries.setdefault(key, entry)
            self._evict_over_bound()
        return len(loaded)


def _checked_entry(path: str, key: str, entry: Any) -> Dict[str, Any]:
    fields = ("throughput_bps", "mean_latency_ns")
    if not (isinstance(entry, dict) and all(
            type(entry.get(name)) in (int, float) for name in fields)):
        raise ConfigurationError(f"{path}: sweep cache entry {key!r} needs "
                                 f"numeric {' and '.join(fields)}")
    return {name: entry[name] for name in fields}


#: The process-wide cache every runner joins unless given a private one.
DEFAULT_CACHE = SweepCache()


# ---------------------------------------------------------------------------
# Point execution
# ---------------------------------------------------------------------------

def _build_chain(point: SweepPoint):
    """App/device names -> the tailored datapath chain for this point."""
    from repro.apps import application_by_name
    from repro.platform.catalog import device_by_name

    app = application_by_name(point.app)
    device = device_by_name(point.device)
    shell = app.tailored_shell(device)
    return app.datapath(shell, point.with_harmonia)


#: One point executes at a time per process.  A point run mutates
#: process-wide state -- the global transaction-id counter and the
#: memoised (stateful, resettable) chains -- so two daemon request
#: threads interleaving would produce nondeterministic ids and corrupt
#: FIFO state.  The lock makes the critical section atomic; it costs the
#: single-threaded CLI nothing, and Python threads never overlapped the
#: CPU-bound simulation anyway.
_POINT_LOCK = threading.RLock()


#: Process-wide chain memo: (app, device, variant) -> (chain, its
#: :func:`chain_signature`).  The combo repeats across the packet-size
#: axis and across runs, and a chain is a pure (resettable) function of
#: its combo whose timing parameters nothing changes, so the process
#: tailors and signs a given shell at most once.  Reads and writes take
#: :data:`_CHAIN_MEMO_LOCK`: concurrent daemon requests must never
#: interleave dict writes or observe a half-installed entry.
_CHAIN_MEMO: Dict[Tuple[str, str, bool], Tuple[Any, Tuple[Any, ...]]] = {}
_CHAIN_MEMO_LOCK = threading.Lock()


def _signed_chain(point: SweepPoint) -> Tuple[Any, Tuple[Any, ...]]:
    combo = (point.app, point.device, point.with_harmonia)
    with _CHAIN_MEMO_LOCK:
        signed = _CHAIN_MEMO.get(combo)
    if signed is None:
        # Tailoring is deterministic, so two threads racing to build the
        # same chain produce interchangeable objects; first store wins.
        chain = _build_chain(point)
        with _CHAIN_MEMO_LOCK:
            signed = _CHAIN_MEMO.setdefault(
                combo, (chain, chain_signature(chain)))
    return signed


def _chain_for(point: SweepPoint):
    return _signed_chain(point)[0]


def run_point(point: SweepPoint) -> Dict[str, Any]:
    """Execute one point in isolation and return its raw result entry.

    Runs with the ambient-context stack hidden, so results and traces do
    not depend on whether the caller happened to sit inside a
    ``with SimContext():`` block.  :func:`run_packet_sweep` restarts
    transaction ids at 0, so the ids a traced point embeds in its spans
    cannot depend on whatever ran earlier in this process.  A traced
    point's live span records ride under ``spans``.  The runner's
    per-point path and the differential fuzzer (which pins the engine on
    the point it passes in) both call this.
    """
    from repro.sim.pipeline import run_packet_sweep

    chain = _chain_for(point)
    with _POINT_LOCK, _profile_phase("sweep.point"), isolated_context_stack():
        context = SimContext(name=point.label(), trace=True) if point.trace else None
        throughput_bps, mean_latency_ns = run_packet_sweep(
            chain, packet_size_bytes=point.packet_size_bytes,
            packet_count=point.packet_count, context=context,
            engine=point.engine,
        )
    entry: Dict[str, Any] = {
        "throughput_bps": throughput_bps,
        "mean_latency_ns": mean_latency_ns,
    }
    if context is not None:
        entry["spans"] = tuple(context.trace.records)
    return entry


# ---------------------------------------------------------------------------
# Fused multi-point planning
# ---------------------------------------------------------------------------

#: A fusable group's identity: same tailored chain, same packet count.
FuseKey = Tuple[Tuple[str, str, bool], int]


def partition_fusable(points: Sequence[SweepPoint],
                      indices: Iterable[int]
                      ) -> Tuple["OrderedDict[FuseKey, List[int]]", List[int]]:
    """Split pending point indices into fusable groups vs per-point work.

    A point fuses when its untraced bulk would run on the vector kernel
    anyway: no trace requested (a traced point needs its own context and
    per-packet spans, so it keeps the per-point path) and an engine of
    ``auto``/``vector`` on a chain the kernel supports.  Fusable points
    group by (tailored chain, packet_count) -- one batched kernel call
    per group, bucketed by count so no padding packets exist -- with
    plan order preserved inside each group.  Everything else (traces,
    forced DES, non-analytic chains) lands in ``per_point`` for
    :func:`run_point`; ``engine='vector'`` on an unsupported chain is
    deliberately routed there too, so it raises the same
    :class:`ConfigurationError` it always did.
    """
    groups: "OrderedDict[FuseKey, List[int]]" = OrderedDict()
    per_point: List[int] = []
    for index in indices:
        point = points[index]
        if not point.trace and point.engine != "des":
            chain = _chain_for(point)
            if chain_supports_vector(chain):
                key = ((point.app, point.device, point.with_harmonia),
                       point.packet_count)
                groups.setdefault(key, []).append(index)
                continue
        per_point.append(index)
    return groups, per_point


def run_fused_group(points: Sequence[SweepPoint],
                    indices: Sequence[int]) -> List[Dict[str, Any]]:
    """Execute one fusable group through the batched kernel, in-process.

    All ``indices`` must share a tailored chain and packet count (the
    :func:`partition_fusable` contract).  Returns one result entry per
    index, bit-exact equal to what :func:`run_point` produces for the
    same untraced points -- same isolation discipline (point lock,
    hidden context stack, transaction ids reset), one kernel launch for
    the whole group.
    """
    from repro.sim.pipeline import reset_transaction_ids
    from repro.sim.vector import run_packet_sweep_vector_batch

    first = points[indices[0]]
    chain = _chain_for(first)
    packet_count = first.packet_count
    sizes = [points[index].packet_size_bytes for index in indices]
    with _POINT_LOCK, _profile_phase("sweep.fused"), isolated_context_stack():
        reset_transaction_ids()
        rows = run_packet_sweep_vector_batch(chain, sizes, packet_count)
    return [
        {"throughput_bps": throughput_bps, "mean_latency_ns": mean_latency_ns}
        for throughput_bps, mean_latency_ns in rows
    ]


def point_chain(point: SweepPoint):
    """The (memoised) tailored chain a point runs on."""
    return _chain_for(point)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False)
class PointResult:
    """One sweep point's outcome plus its cache provenance."""

    point: SweepPoint
    throughput_bps: float
    mean_latency_ns: float
    cache_key: str
    cached: bool
    #: A traced point's span records (ids from 0), in emission order.
    spans: Tuple[Dict[str, Any], ...] = ()

    def __init__(self, point: SweepPoint, throughput_bps: float,
                 mean_latency_ns: float, cache_key: str, cached: bool,
                 spans: Tuple[Dict[str, Any], ...] = ()) -> None:
        # One dict update, as in SweepPoint: a run builds one per point.
        self.__dict__.update(
            point=point, throughput_bps=throughput_bps,
            mean_latency_ns=mean_latency_ns, cache_key=cache_key,
            cached=cached, spans=spans)


class SweepResult:
    """Deterministically merged outcome of one :class:`SweepRunner` run."""

    def __init__(self, plan: SweepPlan, points: List[PointResult],
                 fused_points: int = 0, fused_groups: int = 0,
                 per_point_points: int = 0) -> None:
        self.plan = plan
        self.points = points
        #: Execution provenance (how the cold work ran), deliberately
        #: kept out of :meth:`to_json`: cache-miss points fused through
        #: the batched kernel, batched kernel launches, and points run
        #: one at a time (traced, ``des``, or non-analytic).
        self.fused_points = fused_points
        self.fused_groups = fused_groups
        self.per_point_points = per_point_points

    def __len__(self) -> int:
        return len(self.points)

    @property
    def cache_hits(self) -> int:
        return sum(1 for point in self.points if point.cached)

    def samples(self):
        """Per-(app, device) Figure-17 samples, in plan order.

        Returns ``{(app, device): [PerformanceSample, ...]}`` with the
        same path-latency fold :meth:`CloudApplication.measure` applies.
        """
        from repro.apps import application_by_name

        apps = {name: application_by_name(name) for name in self.plan.apps}
        grouped: Dict[Tuple[str, str], list] = {}
        for result in self.points:
            sample = apps[result.point.app].sample_for_point(
                result.point.packet_size_bytes,
                result.throughput_bps,
                result.mean_latency_ns,
                include_path_latency=self.plan.include_path_latency,
            )
            grouped.setdefault((result.point.app, result.point.device),
                               []).append(sample)
        return grouped

    def stitched_trace_jsonl(self, *, trace_id: str,
                             scenario_id: Optional[str] = None) -> str:
        """One *connected* span tree: request -> execute -> point spans.

        Renumbers every point's span records into a single id space and
        hangs the point roots under a synthetic ``serve.request`` ->
        ``serve.execute`` pair (see :func:`repro.obs.tracectx.stitch_spans`).
        Points are walked in plan order and traced points always
        recompute on fresh contexts, so the bytes are a pure function of
        the plan -- the property that lets the serving daemon embed the
        tree in a coalesced response.  Returns ``""`` when the plan was
        not traced.
        """
        if not any(point.spans for point in self.points):
            return ""
        from repro.obs.tracectx import stitch_spans

        root_attrs: Dict[str, Any] = {"points": len(self.points)}
        if scenario_id is not None:
            root_attrs["scenario_id"] = scenario_id
        return stitch_spans(
            [point.spans for point in self.points],
            trace_id=trace_id, root_attrs=root_attrs,
            exec_attrs={"kind": "sweep"})

    def to_json(self) -> Dict[str, Any]:
        """A deterministic JSON-serialisable summary.

        Deliberately excludes wall-clock data and execution provenance:
        the artifact is a pure function of the plan, so two runs of the
        same plan diff clean no matter how they were executed.
        """
        return {
            "plan": dataclasses.asdict(self.plan),
            "points": [
                {
                    "app": point.point.app,
                    "device": point.point.device,
                    "packet_size_bytes": point.point.packet_size_bytes,
                    "packet_count": point.point.packet_count,
                    "with_harmonia": point.point.with_harmonia,
                    "throughput_gbps": point.throughput_bps / 1e9,
                    "mean_latency_ns": point.mean_latency_ns,
                    "cached": point.cached,
                    "cache_key": point.cache_key,
                }
                for point in self.points
            ],
        }


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

class SweepRunner:
    """Executes a :class:`SweepPlan` in-process with caching.

    A traced plan skips the cache.  Cache-miss points are partitioned by
    the **fused planner** (:func:`partition_fusable`): vector-eligible
    untraced points group by (tailored chain, packet_count) and execute
    through the batched kernel
    (:func:`repro.sim.vector.run_packet_sweep_vector_batch`), one kernel
    launch per group.  The remainder (traced points, forced DES,
    non-analytic chains) runs per-point through :func:`run_point`.

    Results are merged in plan order no matter how they executed, and
    the batched kernel is pinned bit-exact to the per-point path, so
    fusing is invisible in the output -- determinism tests assert
    byte-identical results and traces.
    """

    def __init__(self, plan: SweepPlan,
                 cache: Optional[SweepCache] = None,
                 use_cache: bool = True, engine: str = "auto") -> None:
        if engine not in ENGINES:
            raise ConfigurationError(
                f"unknown sweep engine {engine!r}; choose from "
                f"{', '.join(ENGINES)}"
            )
        self.plan = plan
        self.cache = cache if cache is not None else DEFAULT_CACHE
        self.use_cache = use_cache
        self.engine = engine

    def run(self) -> SweepResult:
        with _profile_phase("sweep.plan"):
            points = self.plan.expand()
            if self.engine != "auto":
                points = [dataclasses.replace(point, engine=self.engine)
                          for point in points]
            # Chains and their signatures are resolved through the
            # process-wide memo: built once per (app, device, variant),
            # which is cheap relative to a point's simulation and exactly
            # what the content key needs.  Execution reuses them too
            # (every point resets the chain, so reuse is deterministic).
            # sweep_cache_key reuses a signature's encoding while
            # consecutive points hand it the same tuple.
            keys: List[str] = []
            for point in points:
                chain, signature = _signed_chain(point)
                keys.append(sweep_cache_key(
                    signature, point.packet_size_bytes, point.packet_count,
                    trace_of=chain.name if point.trace else None,
                ))

        entries: List[Optional[Dict[str, Any]]]
        use_cache = self.use_cache and not self.plan.trace
        if use_cache:
            # One lock acquisition for the whole plan's probe.
            with _profile_phase("sweep.cache_probe"):
                entries = self.cache.lookup_many(keys)
        else:
            entries = [None] * len(points)
        pending = [index for index, entry in enumerate(entries)
                   if entry is None]

        fused_points = fused_groups = per_point_points = 0
        if pending:
            # Intra-run dedup: two pending points with equal content keys
            # are the same pure computation (traced points fold the chain
            # name into the key, so duplicates share the right spans).
            # Only the first index per key is executed.
            executed: List[int] = []
            duplicates: Dict[str, int] = {}
            for index in pending:
                first = duplicates.setdefault(keys[index], index)
                if first == index:
                    executed.append(index)
            groups, per_point = partition_fusable(points, executed)
            for indices in groups.values():
                for index, entry in zip(indices,
                                        run_fused_group(points, indices)):
                    entries[index] = entry
                fused_points += len(indices)
                fused_groups += 1
            per_point_points = len(per_point)
            for index in per_point:
                entries[index] = run_point(points[index])
            for index in pending:
                if entries[index] is None:
                    entries[index] = entries[duplicates[keys[index]]]
            if use_cache:
                # One lock acquisition for the whole plan's insert.
                self.cache.store_many(
                    (keys[index], entries[index]) for index in executed)

        with _profile_phase("sweep.merge"):
            pending_set = set(pending)
            results = [
                PointResult(
                    point=point,
                    throughput_bps=entry["throughput_bps"],
                    mean_latency_ns=entry["mean_latency_ns"],
                    cache_key=key,
                    cached=index not in pending_set,
                    spans=entry["spans"] if point.trace else (),
                )
                for index, (point, key, entry)
                in enumerate(zip(points, keys, entries))
            ]
        return SweepResult(self.plan, results,
                           fused_points=fused_points,
                           fused_groups=fused_groups,
                           per_point_points=per_point_points)


def run_plan(plan: SweepPlan, cache: Optional[SweepCache] = None,
             use_cache: bool = True, engine: str = "auto") -> SweepResult:
    """Convenience wrapper: build a runner and run the plan once."""
    return SweepRunner(plan, cache=cache, use_cache=use_cache,
                       engine=engine).run()
