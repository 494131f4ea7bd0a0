"""The warm serving daemon: resident caches behind a small HTTP front end.

One-shot CLI invocations pay the full cold-start bill on every run:
interpreter boot, import graph, chain construction, and -- dominating
everything for repeated scenarios -- recomputing results whose inputs
did not change.  The daemon keeps the expensive state **resident**
instead:

* one process-wide :class:`~repro.runtime.sweep.SweepCache` (bounded
  LRU, optionally file-backed) so a sweep point computed for any
  request is a dictionary lookup for every later request;
* one :class:`~repro.runtime.buildfarm.ArtifactStore` so tailored-shell
  builds resolve from content-addressed artifacts;
* the process-wide memos (sweep chains, tailoring, resolve) that the
  runtime already keeps -- now thread-safe -- stay hot across requests;
* one byte-bounded :class:`~repro.serve.memo.ResponseMemo` answering a
  byte-identical repeat of a fully cached sweep with its finished
  response bytes.

The HTTP surface is deliberately tiny and stdlib-only (asyncio
``start_server`` plus a hand-rolled HTTP/1.1 parser): this is an
operator-facing control plane for a simulation framework, not a
general web server.  Connections are ``Connection: close``; request
bodies are Scenario JSON exactly as ``repro.cli`` consumes from disk.

Endpoints::

    GET  /healthz          liveness + uptime + warm-state summary
    GET  /metrics          Prometheus text exposition of the daemon registry
    GET  /stats            JSON: registry snapshot, coalescer, admission,
                           cache, memo
    GET  /slo              evaluate the serving SLOs against the registry
    GET  /telemetry        sliding-window rates, latencies, SLO burn rates
    GET  /trace            the resident serve-span ring as JSONL
    POST /v1/sweep         execute a sweep scenario (body: Scenario JSON)
    POST /v1/fleet         execute a fleet scenario
    POST /v1/build         execute a build scenario
    POST /v1/run           execute any scenario (kind from the body)
    POST /v1/shutdown      clean shutdown (only with --allow-remote-shutdown)

Execution requests accept ``?slo=default`` (the stock objectives for
the scenario's kind via :func:`repro.service.slo_monitor_for`; arbitrary
spec *files* are CLI-only -- an HTTP query must not name server paths)
and identify their tenant via the ``X-Tenant`` header.

Request flow: response memo lookup -- a byte-identical repeat of a
sweep the result cache answered in full skips parsing and execution ->
quota check (429) -> memo hit answered, or coalescer join -- followers
attach to an in-flight identical run for free -> leaders claim a
bounded queue slot (503 when full) and execute on a thread pool.
Responses for identical scenarios are byte-identical no matter how they
were served; see :mod:`repro.serve.memo`, :mod:`repro.serve.coalesce`
and ``docs/serving.md``.

Every request is observable three ways (``docs/observability.md``):

* **spans** -- a ``serve.request`` root (plus ``serve.admission`` /
  ``serve.coalesce`` instants, a ``serve.execute`` child for run
  leaders, and the request's wall-clock phases from
  :mod:`repro.obs.profiler`) lands in a resident ring
  :class:`TraceBus`, wall-clocked in picoseconds since daemon start.  Requests carry an id from the
  ``X-Trace-Id`` header (or ``req-NNNNNNNN``); coalesced followers
  record their leader's trace id, which joins them to the leader's
  execution span.  Spans are emitted atomically at request completion,
  so interleaved requests never corrupt each other's parenting.
* **windows** -- a :class:`repro.obs.window.TelemetryHub` folds every
  response into sliding-window rates, per-endpoint/per-tenant latency
  histograms, and SLO burn rates (``/telemetry``, native ``histogram``
  families on ``/metrics``).
* **access log** -- with ``--access-log FILE``, one JSONL line per
  routed request, finalised atomically on clean shutdown.
"""

import asyncio
import json
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.errors import ConfigurationError, HarmoniaError
from repro.obs.profiler import phase, recording
from repro.obs.tracectx import TraceContext
from repro.obs.window import TelemetryHub
from repro.runtime.buildfarm import ArtifactStore
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.sweep import SweepCache
from repro.runtime.trace import DETACHED, TraceBus
from repro.scenario import Scenario
from repro.serve.accesslog import AccessLog
from repro.serve.admission import AdmissionController
from repro.serve.coalesce import RequestCoalescer
from repro.serve.memo import ResponseMemo
from repro.service import run_scenario, slo_monitor_for

_MAX_REQUEST_LINE = 8_192
_MAX_HEADERS = 100
_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    """Raised by handlers to produce a non-200 JSON error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class ServeConfig:
    """Everything the daemon needs; mirrors the ``repro.cli serve`` flags."""

    host: str = "127.0.0.1"
    port: int = 0                      # 0 = let the kernel pick (tests)
    exec_workers: int = 4              # scenario-execution thread pool
    max_queue: int = 32                # bounded execution queue (503 beyond)
    quota_rps: float = 0.0             # per-tenant tokens/s; <= 0 disables
    quota_burst: Optional[float] = None
    cache_entries: Optional[int] = 4_096   # SweepCache LRU bound; None = unbounded
    cache_file: Optional[str] = None   # load at boot, save on clean shutdown
    artifact_dir: Optional[str] = None  # ArtifactStore root; None = in-memory
    max_body: int = 1 << 20            # request body ceiling (413 beyond)
    allow_remote_shutdown: bool = False
    telemetry: bool = True             # sliding-window hub + /telemetry
    telemetry_window_s: float = 60.0   # trailing window length
    telemetry_slices: int = 12         # slices per window (5 s each)
    trace_ring: int = 4_096            # resident serve-span ring; 0 disables
    access_log: Optional[str] = None   # JSONL access log path; None disables

    def validate(self) -> None:
        if self.exec_workers < 1:
            raise ConfigurationError("exec_workers must be >= 1")
        if self.max_body < 1:
            raise ConfigurationError("max_body must be >= 1")
        if self.telemetry_window_s <= 0:
            raise ConfigurationError("telemetry_window_s must be positive")
        if self.telemetry_slices < 1:
            raise ConfigurationError("telemetry_slices must be >= 1")
        if self.trace_ring < 0:
            raise ConfigurationError("trace_ring must be >= 0")
        # max_queue / quota / cache bounds validate in their own types.


class ServingDaemon:
    """The long-lived server; owns all warm state.

    Construct once, then either :meth:`run` (blocking, installs signal
    handlers when on the main thread) or drive it from a test thread via
    :func:`serve_in_thread`.
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.config.validate()
        self.metrics = MetricsRegistry()
        self.cache = SweepCache(max_entries=self.config.cache_entries)
        self.cache.attach_metrics(self.metrics)
        if self.config.cache_file:
            try:
                self.cache.load(self.config.cache_file)
            except FileNotFoundError:
                pass  # first boot: the file appears on clean shutdown
        self.store = ArtifactStore(self.config.artifact_dir)
        self.coalescer = RequestCoalescer()
        self.memo = ResponseMemo()
        self.admission = AdmissionController(
            max_queue=self.config.max_queue,
            quota_rps=self.config.quota_rps,
            quota_burst=self.config.quota_burst,
        )
        self.executor = ThreadPoolExecutor(
            max_workers=self.config.exec_workers,
            thread_name_prefix="serve-exec")
        self.started_at = time.monotonic()
        # Serve-span ring: wall-clock picoseconds since daemon start
        # (the simulators' buses run on sim-time; requests live on the
        # operator's clock).  Spans are emitted in one burst per
        # completed request with explicit parents, so concurrent
        # requests interleave safely.
        self.trace = TraceBus(
            clock_ps=self._wall_ps,
            enabled=self.config.trace_ring > 0,
            max_records=self.config.trace_ring or None)
        self.telemetry: Optional[TelemetryHub] = (
            TelemetryHub(window_s=self.config.telemetry_window_s,
                         slices=self.config.telemetry_slices)
            if self.config.telemetry else None)
        self.access_log: Optional[AccessLog] = (
            AccessLog(self.config.access_log)
            if self.config.access_log else None)
        self.port: Optional[int] = None   # bound port, set once listening
        self.ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._requests = 0
        self._trace_seq = 0
        self._requests_lock = threading.Lock()
        # Leader trace ids by coalescer key, so followers can link
        # their serve.coalesce instant to the leader's execution span.
        self._leader_traces: Dict[Any, str] = {}

    def _wall_ps(self) -> int:
        return int((time.monotonic() - self.started_at) * 1e12)

    # ------------------------------------------------------------------ #
    # lifecycle                                                          #
    # ------------------------------------------------------------------ #

    def run(self, on_ready: Optional[Callable[[str, int], None]] = None) -> int:
        """Serve until stopped; returns 0 on clean shutdown."""
        asyncio.run(self._main(on_ready))
        return 0

    def request_shutdown(self) -> None:
        """Begin a clean shutdown; safe from any thread or signal context."""
        loop, stop = self._loop, self._stop
        if loop is None or stop is None:
            return
        loop.call_soon_threadsafe(stop.set)

    async def _main(self, on_ready: Optional[Callable[[str, int], None]]) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._install_signal_handlers()
        server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        self.port = server.sockets[0].getsockname()[1]
        self.ready.set()
        if on_ready is not None:
            on_ready(self.config.host, self.port)
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            self.executor.shutdown(wait=True)
            if self.access_log is not None:
                self.access_log.close()
            if self.config.cache_file:
                self.cache.save(self.config.cache_file)

    def _install_signal_handlers(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return  # serve_in_thread: stopped via request_shutdown()
        loop = self._loop
        assert loop is not None and self._stop is not None
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self._stop.set)
            except (NotImplementedError, RuntimeError):
                signal.signal(signum, lambda *_: self.request_shutdown())

    # ------------------------------------------------------------------ #
    # HTTP plumbing                                                      #
    # ------------------------------------------------------------------ #

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        start = time.perf_counter()
        mono_start = time.monotonic()
        status, body, extra = 500, b"", {}
        info: Dict[str, Any] = {}
        counted = False
        try:
            method, target, headers, payload = await self._read_request(reader)
            self.metrics.increment("serve.requests")
            counted = True
            with self._requests_lock:
                self._requests += 1
            status, body, extra = await self._route(
                method, target, headers, payload, info)
        except _HttpError as exc:
            if not counted:   # rejected while reading the request
                self.metrics.increment("serve.requests")
            status, body = exc.status, _error_body(exc.status, exc.message)
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        except Exception as exc:  # a handler bug, not a client error
            status, body = 500, _error_body(500, f"internal error: {exc}")
        elapsed = time.perf_counter() - start
        try:
            self.metrics.increment(f"serve.responses.{status}")
            self.metrics.observe("serve.request.wall_ps",
                                 int(elapsed * 1e12))
            self.metrics.set_gauge("serve.queue.depth",
                                   self.admission.queue_depth)
            writer.write(_render_response(status, body, extra))
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            self._observe_request(info, status, elapsed, mono_start)
            writer.close()

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Tuple[str, str, Dict[str, str], bytes]:
        request_line = await reader.readline()
        if not request_line:
            raise asyncio.IncompleteReadError(b"", None)
        if len(request_line) > _MAX_REQUEST_LINE:
            raise _HttpError(400, "request line too long")
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HttpError(400, "malformed request line")
        method, target = parts[0], parts[1]
        headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADERS + 1):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if len(headers) >= _MAX_HEADERS:
                raise _HttpError(400, "too many headers")
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _HttpError(400, "malformed header line")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise _HttpError(400, f"bad Content-Length: {length_text!r}")
        if length < 0:
            raise _HttpError(400, "negative Content-Length")
        if length > self.config.max_body:
            raise _HttpError(
                413, f"body of {length} bytes exceeds the "
                f"{self.config.max_body}-byte limit")
        payload = await reader.readexactly(length) if length else b""
        return method, target, headers, payload

    async def _route(self, method: str, target: str,
                     headers: Dict[str, str], payload: bytes,
                     info: Dict[str, Any]
                     ) -> Tuple[int, bytes, Dict[str, str]]:
        url = urlsplit(target)
        path = url.path
        query = dict(parse_qsl(url.query))
        with self._requests_lock:
            self._trace_seq += 1
            seq = self._trace_seq
        info["method"] = method
        info["path"] = path
        info["tenant"] = headers.get("x-tenant", "default")
        info["trace"] = TraceContext.from_headers(
            headers, fallback=f"req-{seq:08d}")
        if path in ("/healthz", "/metrics", "/stats", "/slo",
                    "/telemetry", "/trace"):
            if method != "GET":
                raise _HttpError(405, f"{path} is GET-only")
            return getattr(self, "_get_" + path.strip("/"))()
        if path == "/v1/shutdown":
            if method != "POST":
                raise _HttpError(405, "/v1/shutdown is POST-only")
            if not self.config.allow_remote_shutdown:
                raise _HttpError(
                    404, "remote shutdown is disabled; start the daemon "
                    "with --allow-remote-shutdown or send SIGTERM")
            self.request_shutdown()
            return 200, _json_body({"status": "shutting down"}), {}
        if path.startswith("/v1/"):
            kind = path[len("/v1/"):]
            if kind not in ("sweep", "fleet", "build", "run"):
                raise _HttpError(404, f"unknown endpoint {path!r}")
            if method != "POST":
                raise _HttpError(405, f"{path} is POST-only")
            # This request's phase sink, on the ring's clock; the ring
            # switch is the phase switch.
            phases = info["phases"] = (
                TraceBus(clock_ps=self._wall_ps, enabled=True)
                if self.trace.enabled else None)
            with recording(phases):
                return await self._execute(kind, headers, payload, query,
                                           info)
        raise _HttpError(404, f"unknown endpoint {path!r}")

    # ------------------------------------------------------------------ #
    # read-only endpoints                                                #
    # ------------------------------------------------------------------ #

    def _get_healthz(self) -> Tuple[int, bytes, Dict[str, str]]:
        with self._requests_lock:
            requests = self._requests
        return 200, _json_body({
            "status": "ok",
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "requests": requests,
            "warm": {
                "sweep_cache_entries": len(self.cache),
                "artifact_store_entries": len(self.store),
            },
        }), {}

    def _get_metrics(self) -> Tuple[int, bytes, Dict[str, str]]:
        from repro.obs.prometheus import to_prometheus_text

        histograms = (self.telemetry.histogram_snapshots()
                      if self.telemetry is not None else None)
        text = to_prometheus_text(self.metrics, histograms)
        return 200, text.encode("utf-8"), {
            "Content-Type": "text/plain; version=0.0.4; charset=utf-8"}

    def _get_telemetry(self) -> Tuple[int, bytes, Dict[str, str]]:
        if self.telemetry is None:
            raise _HttpError(
                404, "windowed telemetry is disabled (--no-telemetry)")
        return 200, _json_body(self.telemetry.telemetry_json()), {}

    def _get_trace(self) -> Tuple[int, bytes, Dict[str, str]]:
        if not self.trace.enabled:
            raise _HttpError(
                404, "the serve trace ring is disabled (--trace-ring 0)")
        text = self.trace.export_jsonl()
        return 200, text.encode("utf-8"), {
            "Content-Type": "application/x-ndjson; charset=utf-8"}

    def _get_stats(self) -> Tuple[int, bytes, Dict[str, str]]:
        return 200, _json_body({
            "metrics": self.metrics.snapshot(),
            "coalescer": self.coalescer.counters(),
            "admission": {
                "queue_depth": self.admission.queue_depth,
                "max_queue": self.admission.max_queue,
                "shed": self.admission.shed,
                "quota_rejections": self.admission.quota_rejections,
                "tenants": self.admission.tenants(),
            },
            "cache": {
                "entries": len(self.cache),
                "max_entries": self.cache.max_entries,
                "evictions": self.cache.evictions,
            },
            "memo": {
                "entries": len(self.memo),
                "bytes": self.memo.bytes,
                "hits": self.metrics.counter("serve.memo.hits").value,
            },
            "orchestrator": {
                "runs": self.metrics.counter(
                    "serve.orchestrator.runs").value,
                "epochs": self.metrics.counter(
                    "serve.orchestrator.epochs").value,
                "migrations": self.metrics.counter(
                    "serve.orchestrator.migrations").value,
                "pr_grants": self.metrics.counter(
                    "serve.orchestrator.pr_grants").value,
                "scaled_up": self.metrics.counter(
                    "serve.orchestrator.scaled_up").value,
                "scaled_down": self.metrics.counter(
                    "serve.orchestrator.scaled_down").value,
                "slo_violations": self.metrics.counter(
                    "serve.orchestrator.slo_violations").value,
            },
            "telemetry": (self.telemetry.summary()
                          if self.telemetry is not None else None),
            "trace_ring": {
                "enabled": self.trace.enabled,
                "resident_records": len(self.trace),
                "total_records": self.trace.total_records,
                "max_records": self.trace.max_records,
            },
        }), {}

    def _get_slo(self) -> Tuple[int, bytes, Dict[str, str]]:
        monitor = slo_monitor_for("serve", "default")
        report = monitor.evaluate(self.metrics)
        body = dict(report.to_json())
        body["exit_code"] = report.exit_code
        return 200, _json_body(body), {}

    # ------------------------------------------------------------------ #
    # scenario execution                                                 #
    # ------------------------------------------------------------------ #

    async def _execute(self, endpoint_kind: str, headers: Dict[str, str],
                       payload: bytes, query: Dict[str, str],
                       info: Dict[str, Any]
                       ) -> Tuple[int, bytes, Dict[str, str]]:
        tenant = info.get("tenant", "default")
        trace_ctx: Optional[TraceContext] = info.get("trace")
        slo = query.get("slo")
        if slo is not None and slo != "default":
            raise _HttpError(
                400, "only ?slo=default is accepted over HTTP; file-based "
                "SLO specs are a CLI feature")
        memo_key = (endpoint_kind, slo, payload)
        memoised = self.memo.get(memo_key)
        if memoised is None:
            scenario = self._parse_scenario(payload, endpoint_kind)
            scenario_id = scenario.scenario_id()
        else:
            scenario_id = memoised.scenario_id
        info["scenario_id"] = scenario_id

        if not self.admission.check_quota(tenant):
            self.metrics.increment("serve.quota_rejected")
            info["admission"] = "quota_rejected"
            raise _HttpError(
                429, f"tenant {tenant!r} exceeded its "
                f"{self.admission.quota_rps:g} req/s quota")

        if memoised is not None:
            if self.memo.confirm(memo_key, memoised, self.cache):
                # Nothing executes: no queue slot, no shedding.
                self.metrics.increment("serve.memo.hits")
                info["coalesce"] = "memo"
                info["admission"] = "admitted"
                return 200, memoised.body, {
                    "X-Scenario-Id": scenario_id, "X-Coalesced": "memo"}
            # A point it summarised was evicted: recompute from the
            # same bytes, which parsed cleanly when they were stored.
            scenario = self._parse_scenario(payload, endpoint_kind)

        key = (scenario.kind, scenario_id, slo)
        leader, future = self.coalescer.join(key)
        if leader:
            info["coalesce"] = "leader"
            self.metrics.increment("serve.coalesce.executed")
            if not self.admission.try_enter():
                self.metrics.increment("serve.shed")
                info["admission"] = "shed"
                error = _HttpError(
                    503, f"execution queue full "
                    f"({self.admission.max_queue} in flight); retry later")
                self.coalescer.reject(key, future, error)
            else:
                info["admission"] = "admitted"
                info["exec_start"] = time.monotonic()
                if trace_ctx is not None:
                    with self._requests_lock:
                        self._leader_traces[key] = trace_ctx.trace_id

                phases = info.get("phases")

                def _work() -> None:
                    try:
                        try:
                            # The sink is closed before the future
                            # resolves, so the request reads it only once
                            # it is done.
                            with recording(phases):
                                outcome = run_scenario(
                                    scenario, cache=self.cache,
                                    store=self.store, slo=slo,
                                    trace_context=trace_ctx)
                                self._record_execution(outcome)
                                body = outcome.response_text().encode(
                                    "utf-8")
                            if (outcome.kind == "sweep"
                                    and not scenario.workload.trace
                                    and outcome.executed_points == 0):
                                # A proven repeat: the result cache
                                # answered every point, so these bytes
                                # are final.
                                self.memo.store(
                                    memo_key, body, scenario_id,
                                    [point.cache_key
                                     for point in outcome.result.points])
                        finally:
                            # Free the slot before the future settles: the
                            # client may send its next request as soon as
                            # it reads this response.  The one release
                            # point also means a ``resolve`` that raises
                            # cannot release twice.
                            self.admission.leave()
                        self.coalescer.resolve(key, future, body)
                    except BaseException as exc:
                        self.coalescer.reject(key, future, exc)
                    finally:
                        if trace_ctx is not None:
                            with self._requests_lock:
                                if (self._leader_traces.get(key)
                                        == trace_ctx.trace_id):
                                    del self._leader_traces[key]

                self.executor.submit(_work)
        else:
            info["coalesce"] = "follower"
            info["admission"] = "admitted"
            self.metrics.increment("serve.coalesce.attached")
            with self._requests_lock:
                leader_trace = self._leader_traces.get(key)
            if leader_trace is not None:
                info["leader_trace"] = leader_trace

        try:
            body = await asyncio.wrap_future(future)
        except _HttpError:
            raise
        except ConfigurationError as exc:
            raise _HttpError(400, str(exc))
        except HarmoniaError as exc:
            raise _HttpError(400, str(exc))
        except Exception as exc:
            raise _HttpError(500, f"execution failed: {exc}")
        finally:
            if "exec_start" in info:
                info["exec_end"] = time.monotonic()
        return 200, body, {
            "X-Scenario-Id": key[1],
            "X-Coalesced": "leader" if leader else "follower",
        }

    def _observe_request(self, info: Dict[str, Any], status: int,
                         elapsed_s: float, mono_start: float) -> None:
        """Fold one finished request into spans, windows, and the log.

        Runs in the connection handler's ``finally``; ``info`` is the
        per-request scratch dict ``_route``/``_execute`` populated.
        Connection-level noise that never produced a request line (no
        ``path``) is invisible here, matching the access-log contract
        of one line per *routed* request.  All spans for a request are
        emitted in one synchronous burst with explicit parents, so
        requests interleaved on the event loop cannot corrupt each
        other's span tree.
        """
        path = info.get("path")
        if path is None:
            return
        tenant = info.get("tenant", "default")
        trace_ctx: Optional[TraceContext] = info.get("trace")
        trace_id = trace_ctx.trace_id if trace_ctx is not None else ""
        coalesced = info.get("coalesce") == "follower"
        shed = info.get("admission") == "shed"
        if self.telemetry is not None:
            self.telemetry.record_request(
                endpoint=path, tenant=tenant, status=status,
                wall_ps=elapsed_s * 1e12, coalesced=coalesced, shed=shed)
        if self.trace.enabled:
            start_ps = int((mono_start - self.started_at) * 1e12)
            end_ps = start_ps + int(elapsed_s * 1e12)
            root = self.trace.complete(
                "serve.request", start_ps, end_ps, parent=DETACHED,
                trace_id=trace_id, method=info.get("method", "?"),
                path=path, status=status, tenant=tenant)
            if "admission" in info:
                self.trace.instant(
                    "serve.admission", ts_ps=start_ps, parent=root,
                    outcome=info["admission"])
            role = info.get("coalesce")
            if role is not None:
                attrs: Dict[str, Any] = {"role": role}
                if "leader_trace" in info:
                    # The join key back to the leader's serve.execute
                    # span (same scenario_id, this trace id).
                    attrs["leader_trace_id"] = info["leader_trace"]
                self.trace.instant("serve.coalesce", ts_ps=start_ps,
                                   parent=root, **attrs)
            if "exec_start" in info:
                exec_start = int(
                    (info["exec_start"] - self.started_at) * 1e12)
                exec_end = int(
                    (info.get("exec_end", time.monotonic())
                     - self.started_at) * 1e12)
                execute = self.trace.complete(
                    "serve.execute", exec_start, exec_end, parent=root,
                    scenario_id=info.get("scenario_id", ""),
                    trace_id=trace_id)
            else:
                exec_start, execute = None, None
            if info.get("phases") is not None:
                self._emit_phases(info["phases"].records, root,
                                  execute, exec_start)
        if self.access_log is not None:
            self.access_log.record(
                method=info.get("method", "?"), path=path, status=status,
                tenant=tenant, wall_ms=elapsed_s * 1e3, trace_id=trace_id,
                scenario_id=info.get("scenario_id"),
                coalesced=coalesced, shed=shed)

    def _emit_phases(self, records: List[Dict[str, Any]], root: int,
                     execute: Optional[int],
                     exec_start: Optional[int]) -> None:
        """Replay a request's phase sink into the ring as complete spans.

        A phase keeps its parent phase.  A top-level phase that began
        once execution had started hangs under ``serve.execute``; one
        before it (parsing, hashing) hangs under ``serve.request``.
        """
        ends = {record["id"]: record["ts_ps"]
                for record in records if record["type"] == "E"}
        ring_ids: Dict[int, Optional[int]] = {}
        for record in records:
            if record["type"] != "B":
                continue
            start = record["ts_ps"]
            parent = ring_ids.get(record.get("parent"))
            if parent is None:
                parent = (execute if execute is not None
                          and start >= exec_start else root)
            ring_ids[record["id"]] = self.trace.complete(
                record["name"], start, ends.get(record["id"], start),
                parent=parent)

    def _record_execution(self, outcome: Any) -> None:
        """Fold one execution's planner provenance into the registry.

        ``serve.sweep.fused_points`` / ``per_point_points`` count how
        the cold work of sweep requests actually ran: batched through
        the kernel, or one point at a time (traced, ``des``, or
        non-analytic), all inside this process.
        Epoch-orchestrated fleet requests fold their day's totals into
        ``serve.orchestrator.*`` and the telemetry hub's windows.
        """
        if outcome.kind == "fleet" and outcome.meta.get("epochs"):
            meta = outcome.meta
            self.metrics.increment("serve.orchestrator.runs")
            self.metrics.increment("serve.orchestrator.epochs",
                                   meta["epochs"])
            for key in ("arrivals", "departures", "failures", "drains",
                        "migrations", "pr_grants", "scaled_up",
                        "scaled_down", "slo_violations"):
                amount = meta.get("totals", {}).get(key, 0)
                if amount:
                    self.metrics.increment(f"serve.orchestrator.{key}",
                                           amount)
            if self.telemetry is not None:
                self.telemetry.record_orchestration(
                    epochs=meta["epochs"],
                    wall_ps=outcome.elapsed_s * 1e12)
            return
        if outcome.kind != "sweep":
            return
        meta = outcome.meta
        if meta.get("fused_points"):
            self.metrics.increment("serve.sweep.fused_points",
                                   meta["fused_points"])
            self.metrics.increment("serve.sweep.fused_groups",
                                   meta["fused_groups"])
        if meta.get("per_point_points"):
            self.metrics.increment("serve.sweep.per_point_points",
                                   meta["per_point_points"])

    def _parse_scenario(self, payload: bytes,
                        endpoint_kind: str) -> Scenario:
        if not payload:
            raise _HttpError(400, "empty body; POST a Scenario JSON object")
        with phase("serve.parse"):
            try:
                data = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise _HttpError(400, f"body is not valid JSON: {exc}")
            try:
                scenario = Scenario.from_json(data)
            except HarmoniaError as exc:
                raise _HttpError(400, str(exc))
        if endpoint_kind != "run" and scenario.kind != endpoint_kind:
            raise _HttpError(
                400, f"scenario kind {scenario.kind!r} does not match "
                f"endpoint /v1/{endpoint_kind}; use /v1/run or "
                f"/v1/{scenario.kind}")
        return scenario


# ---------------------------------------------------------------------- #
# response formatting                                                    #
# ---------------------------------------------------------------------- #

def _json_body(payload: Dict[str, Any]) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def _error_body(status: int, message: str) -> bytes:
    return _json_body({"error": message, "status": status})


def _render_response(status: int, body: bytes,
                     extra: Dict[str, str]) -> bytes:
    headers = {
        "Content-Type": "application/json",
        "Content-Length": str(len(body)),
        "Connection": "close",
    }
    headers.update(extra)
    if status == 429:
        headers.setdefault("Retry-After", "1")
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


# ---------------------------------------------------------------------- #
# in-thread harness (tests, benchmarks)                                  #
# ---------------------------------------------------------------------- #

class DaemonHandle:
    """A daemon running on a background thread; context-manager friendly."""

    def __init__(self, daemon: ServingDaemon, thread: threading.Thread) -> None:
        self.daemon = daemon
        self.thread = thread

    @property
    def host(self) -> str:
        return self.daemon.config.host

    @property
    def port(self) -> int:
        assert self.daemon.port is not None
        return self.daemon.port

    def stop(self, timeout: float = 10.0) -> None:
        self.daemon.request_shutdown()
        self.thread.join(timeout=timeout)
        if self.thread.is_alive():
            raise RuntimeError("serving daemon did not shut down in time")

    def __enter__(self) -> "DaemonHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def serve_in_thread(config: Optional[ServeConfig] = None,
                    ready_timeout: float = 10.0) -> DaemonHandle:
    """Start a daemon on a daemon thread and wait until it is listening."""
    daemon = ServingDaemon(config)
    thread = threading.Thread(target=daemon.run, name="serve-daemon",
                              daemon=True)
    thread.start()
    if not daemon.ready.wait(timeout=ready_timeout):
        raise RuntimeError("serving daemon failed to start listening")
    return DaemonHandle(daemon, thread)
