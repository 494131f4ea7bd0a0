"""Scenario execution as reusable service functions.

The CLI subcommands and the serving daemon (:mod:`repro.serve`) must
behave identically -- same execution path, same SLO evaluation, same
exit-code semantics -- so both call the functions here instead of
re-implementing run loops.  Each function takes a validated
:class:`repro.scenario.Scenario` plus execution options (worker count,
resident cache/store, SLO spec) and returns a :class:`ServiceResult`:

* ``result`` -- the tier-native outcome object
  (:class:`~repro.runtime.sweep.SweepResult`,
  :class:`~repro.runtime.fleet.FleetResult`,
  :class:`~repro.runtime.buildfarm.BuildReport`) for callers that format
  tables or write artifacts;
* ``payload`` -- a **deterministic** JSON projection of the outcome: a
  pure function of the scenario, independent of cache temperature,
  worker count, or wall-clock.  Execution provenance (per-point
  ``cached`` flags, built-vs-cached build statuses) is stripped, which
  is what lets the daemon serve byte-identical responses for identical
  scenarios no matter which request warmed the caches;
* ``slo`` -- the evaluated :class:`~repro.obs.slo.SloReport` when an SLO
  spec was given, and ``exit_code`` derived from it exactly the way the
  CLI's ``--slo`` flags always exited (0 ok, 4 on violations).

SLO specs resolve through one shared :func:`slo_monitor_for`, so
``--slo default`` and an HTTP ``?slo=default`` query pick the same
objectives per scenario kind.
"""

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence

from repro.errors import ConfigurationError
from repro.obs.profiler import phase
from repro.runtime.context import SimContext
from repro.scenario import Scenario

#: Scenario kinds the service layer can execute (== SCENARIO_KINDS).
SERVICE_KINDS = ("sweep", "fleet", "build")


def slo_monitor_for(kind: str, spec: Optional[str]):
    """Resolve an ``--slo`` argument into a monitor; one path for all.

    ``None`` disables checking; ``"default"`` picks the stock objectives
    for ``kind`` (fleet/sweep share the fleet defaults, builds get the
    build defaults, the daemon gets the serving defaults); anything else
    is a JSON spec file path.  Raises :class:`ConfigurationError` on
    unknown kinds and unreadable/invalid spec files.
    """
    from repro.obs.slo import (SloMonitor, default_build_slos,
                               default_epoch_slos, default_fleet_slos,
                               default_serve_slos)

    if spec is None:
        return None
    if spec == "default":
        defaults = {
            "sweep": default_fleet_slos,
            "fleet": default_fleet_slos,
            "epochs": default_epoch_slos,
            "build": default_build_slos,
            "serve": default_serve_slos,
        }
        factory = defaults.get(kind)
        if factory is None:
            raise ConfigurationError(
                f"no default SLOs for kind {kind!r}; known: "
                f"{', '.join(sorted(defaults))}"
            )
        return SloMonitor(factory())
    return SloMonitor.load(spec)


@dataclass
class ServiceResult:
    """One scenario execution's outcome, shared by CLI and HTTP callers."""

    kind: str
    scenario: Scenario
    result: Any
    payload: Dict[str, Any]
    slo: Any = None
    elapsed_s: float = 0.0
    context: Optional[SimContext] = None
    cache_hits: int = 0
    executed_points: int = 0
    meta: Dict[str, Any] = field(default_factory=dict)
    #: Stitched request-scoped span tree (sweeps with ``trace: true``);
    #: ``""`` otherwise.  Derived from the scenario, never the request,
    #: so including it in the response preserves purity.
    trace_jsonl: str = ""

    @property
    def exit_code(self) -> int:
        """0, or :data:`repro.obs.slo.SLO_EXIT_CODE` on SLO violations."""
        return self.slo.exit_code if self.slo is not None else 0

    def response_json(self) -> Dict[str, Any]:
        """The deterministic response body (the daemon's wire format).

        A pure function of (scenario, slo spec): wall-clock, cache
        temperature, and worker count never appear, so coalesced and
        solo executions of one scenario serialise byte-identically.
        """
        body = {
            "kind": self.kind,
            "scenario_id": self.scenario.scenario_id(),
            "result": self.payload,
            "slo": self.slo.to_json() if self.slo is not None else None,
            "exit_code": self.exit_code,
        }
        if self.trace_jsonl:
            # Only traced scenarios grow the key, so untraced responses
            # keep their original wire shape byte-for-byte.
            body["trace"] = self.trace_jsonl
        return body

    def response_text(self) -> str:
        """Canonical JSON text of :meth:`response_json`, newline-terminated."""
        from repro.scenario import canonical_dumps

        with phase("service.serialize"):
            return canonical_dumps(self.response_json()) + "\n"


def _normalise(payload: Any) -> Any:
    """Round-trip through stdlib JSON so tuples become lists etc."""
    return json.loads(json.dumps(payload))


def sweep_payload(result: Any) -> Dict[str, Any]:
    """A :class:`SweepResult` minus execution provenance.

    Per-point ``cached`` flags depend on what ran earlier in the
    process, not on the scenario, so they are stripped; the content
    ``cache_key`` stays -- it is a pure function of the point.
    """
    payload = _normalise(result.to_json())
    for point in payload["points"]:
        point.pop("cached", None)
    return payload


def build_payload(report: Any) -> Dict[str, Any]:
    """A :class:`BuildReport` minus execution provenance.

    ``built`` / ``cached`` / ``shared`` all mean "this target is served
    by this artifact" and differ only by cache temperature, so they fold
    to ``ok``; ``failed`` and ``incompatible`` are properties of the
    matrix and survive.
    """
    with phase("service.payload"):
        payload = _normalise(report.to_json())
        for target in payload["targets"]:
            if target["status"] in ("built", "cached", "shared"):
                target["status"] = "ok"
    return payload


def _require_kind(scenario: Scenario, kind: str) -> None:
    if scenario.kind != kind:
        raise ConfigurationError(
            f"scenario kind {scenario.kind!r} cannot drive the {kind!r} "
            f"service; write a scenario with \"kind\": \"{kind}\""
        )


def run_sweep_service(scenario: Scenario, *, cache: Any = None,
                      use_cache: bool = True,
                      slo: Optional[str] = None) -> ServiceResult:
    """Execute a sweep scenario (the ``repro.cli sweep`` core).

    Cache misses route through the fused multi-point planner; the
    planner's provenance (fused and per-point point counts, kernel
    launches) lands in ``meta``.
    """
    from repro.obs.slo import registry_from_sweep
    from repro.runtime.sweep import SweepPlan, SweepRunner

    _require_kind(scenario, "sweep")
    monitor = slo_monitor_for("sweep", slo)   # fail loud before the run
    plan = SweepPlan.from_scenario(scenario)
    runner = SweepRunner(plan, cache=cache, use_cache=use_cache,
                         engine=scenario.engine)
    start = time.perf_counter()
    result = runner.run()
    elapsed = time.perf_counter() - start
    report = (monitor.evaluate(registry_from_sweep(result))
              if monitor is not None else None)
    if scenario.workload.trace:
        from repro.obs.tracectx import TraceContext

        # The stitched tree's trace id derives from the scenario --
        # NOT from any per-request context -- so coalesced followers
        # and solo runs serialise byte-identical responses.
        scenario_id = scenario.scenario_id()
        trace_jsonl = result.stitched_trace_jsonl(
            trace_id=TraceContext.for_scenario(scenario_id).trace_id,
            scenario_id=scenario_id)
    else:
        trace_jsonl = ""
    return ServiceResult(
        kind="sweep", scenario=scenario, result=result,
        payload=sweep_payload(result), slo=report, elapsed_s=elapsed,
        trace_jsonl=trace_jsonl,
        cache_hits=result.cache_hits,
        executed_points=len(result) - result.cache_hits,
        meta={
            "fused_points": result.fused_points,
            "fused_groups": result.fused_groups,
            "per_point_points": result.per_point_points,
        },
    )


def run_orchestrator_service(scenario: Scenario, *,
                             mode: str = "incremental",
                             slo: Optional[str] = None,
                             trace_out: Optional[str] = None,
                             trace_ring: int = 4_096,
                             context: Optional[SimContext] = None,
                             trace_context: Any = None) -> ServiceResult:
    """Execute a fleet scenario's ``epochs`` section (the epoch day).

    The resolved SLO monitor is more than a post-run check here: the
    orchestrator evaluates it **every epoch** and its violations drive
    the autoscaler, so ``--slo FILE`` changes the control loop's
    set-points, not just the exit code.  Without ``slo`` the stock
    :func:`~repro.obs.slo.default_epoch_slos` steer autoscaling and no
    report (or non-zero exit) is produced.  The response payload is
    :meth:`~repro.runtime.orchestrator.OrchestratorResult.to_json` --
    mode-independent by construction (incremental == full bit-exactly),
    so the daemon's byte-identical-response contract holds.
    """
    from repro.runtime.orchestrator import Orchestrator

    _require_kind(scenario, "fleet")
    monitor = slo_monitor_for("epochs", slo)
    run_context = context if context is not None else SimContext(
        name="orchestrator", trace=True)
    with phase("orchestrator.build"):
        orchestrator = Orchestrator.from_scenario(
            scenario, mode=mode, monitor=monitor, context=run_context)
    start = time.perf_counter()

    def _run_and_check():
        root = (run_context.trace.begin(
                    "serve.execute", trace_id=trace_context.trace_id,
                    kind="fleet")
                if trace_context is not None else None)
        outcome = orchestrator.run()
        report = (monitor.evaluate(run_context.metrics,
                                   trace=run_context.trace)
                  if monitor is not None else None)
        run_context.trace.end(root)
        return outcome, report

    if trace_out:
        from repro.obs.recorder import FlightRecorder

        with FlightRecorder(run_context.trace, trace_out, ring=trace_ring):
            result, report = _run_and_check()
    else:
        result, report = _run_and_check()
    elapsed = time.perf_counter() - start
    with phase("service.payload"):
        payload = _normalise(result.to_json())
    return ServiceResult(
        kind="fleet", scenario=scenario, result=result, payload=payload,
        slo=report, elapsed_s=elapsed, context=run_context,
        executed_points=result.spec.epochs,
        meta={"mode": orchestrator.mode, "epochs": result.spec.epochs,
              "totals": payload["totals"]},
    )


def run_fleet_service(scenario: Scenario, *,
                      policies: Optional[Sequence[str]] = None,
                      slo: Optional[str] = None,
                      trace_out: Optional[str] = None,
                      trace_ring: int = 4_096,
                      mode: str = "incremental",
                      context: Optional[SimContext] = None,
                      trace_context: Any = None) -> ServiceResult:
    """Execute a fleet scenario (the ``repro.cli fleet`` core).

    A scenario carrying an ``epochs`` section is an orchestrated day,
    not a one-shot policy comparison, and dispatches to
    :func:`run_orchestrator_service` (``mode`` picks the aggregate
    maintenance path there; snapshot runs ignore it).  Naming
    ``policies`` alongside ``epochs`` is a loud error -- the epoch day
    runs the single policy its spec declares.

    With ``trace_out`` the run streams through the flight recorder, and
    SLOs are evaluated while the recorder is still attached so violation
    instants land inside the streamed trace -- the behaviour the CLI has
    always had, now shared with HTTP callers.  A ``trace_context``
    (:class:`repro.obs.tracectx.TraceContext`, threaded down from the
    daemon) wraps the whole run in a ``serve.execute`` root span
    carrying the request's trace id, so every simulation span in the
    context trace is reachable from one root.
    """
    from repro.runtime.fleet import POLICIES, FleetSimulation, FleetSpec

    _require_kind(scenario, "fleet")
    if scenario.epochs is not None:
        if policies:
            raise ConfigurationError(
                "an epochs scenario runs the single policy in its spec "
                f"({scenario.epochs.policy!r}); drop --policies or the "
                "scenario's epochs section")
        return run_orchestrator_service(
            scenario, mode=mode, slo=slo, trace_out=trace_out,
            trace_ring=trace_ring, context=context,
            trace_context=trace_context)
    monitor = slo_monitor_for("fleet", slo)
    spec = FleetSpec.from_scenario(scenario)
    run_policies = tuple(policies) if policies else POLICIES
    run_context = context if context is not None else SimContext(
        name="fleet", trace=True)
    simulation = FleetSimulation(spec, context=run_context)
    start = time.perf_counter()

    def _run_and_check():
        root = (run_context.trace.begin(
                    "serve.execute", trace_id=trace_context.trace_id,
                    kind="fleet")
                if trace_context is not None else None)
        outcome = simulation.run(run_policies)
        report = (monitor.evaluate(run_context.metrics,
                                   trace=run_context.trace)
                  if monitor is not None else None)
        run_context.trace.end(root)
        return outcome, report

    if trace_out:
        from repro.obs.recorder import FlightRecorder

        with FlightRecorder(run_context.trace, trace_out, ring=trace_ring):
            result, report = _run_and_check()
    else:
        result, report = _run_and_check()
    elapsed = time.perf_counter() - start
    with phase("service.payload"):
        payload = _normalise(result.to_json())
    return ServiceResult(
        kind="fleet", scenario=scenario, result=result,
        payload=payload, slo=report,
        elapsed_s=elapsed, context=run_context,
        executed_points=len(run_policies),
    )


def run_build_service(scenario: Scenario, *, workers: int = 1,
                      store: Any = None, use_cache: bool = True,
                      slo: Optional[str] = None,
                      context: Optional[SimContext] = None,
                      trace_context: Any = None) -> ServiceResult:
    """Execute a build scenario (the ``repro.cli build`` core).

    ``trace_context`` behaves as in :func:`run_fleet_service`: the
    farm's ``build.target`` Gantt spans parent under one
    ``serve.execute`` root carrying the request's trace id.
    """
    from repro.runtime.buildfarm import BuildFarm, BuildPlan

    _require_kind(scenario, "build")
    monitor = slo_monitor_for("build", slo)
    plan = BuildPlan.from_scenario(scenario)
    run_context = context if context is not None else SimContext(
        name="buildfarm", trace=True)
    farm = BuildFarm(plan, workers=workers, store=store,
                     use_cache=use_cache, context=run_context)
    start = time.perf_counter()
    root = (run_context.trace.begin(
                "serve.execute", trace_id=trace_context.trace_id,
                kind="build")
            if trace_context is not None else None)
    report = farm.run()
    elapsed = time.perf_counter() - start
    slo_report = (monitor.evaluate(run_context.metrics,
                                   trace=run_context.trace)
                  if monitor is not None else None)
    run_context.trace.end(root)
    return ServiceResult(
        kind="build", scenario=scenario, result=report,
        payload=build_payload(report), slo=slo_report, elapsed_s=elapsed,
        context=run_context, cache_hits=report.cached,
        executed_points=report.built,
    )


def run_scenario(scenario: Scenario, *, workers: int = 1, cache: Any = None,
                 store: Any = None, use_cache: bool = True,
                 slo: Optional[str] = None,
                 policies: Optional[Sequence[str]] = None,
                 trace_context: Any = None) -> ServiceResult:
    """Dispatch one scenario to its kind's service function.

    The daemon's single entry point: resident warm state (``cache`` for
    sweeps, ``store`` for builds) is threaded through; options a kind
    does not use (``workers`` only sizes the build farm) are ignored by
    construction, not error.  ``trace_context`` roots fleet/build
    context traces under the request's trace id; traced sweeps ignore
    it deliberately -- their stitched tree must stay a pure function of
    the scenario (see :meth:`ServiceResult.response_json`).
    """
    if scenario.kind == "sweep":
        return run_sweep_service(scenario, cache=cache,
                                 use_cache=use_cache, slo=slo)
    if scenario.kind == "fleet":
        return run_fleet_service(scenario, policies=policies, slo=slo,
                                 trace_context=trace_context)
    if scenario.kind == "build":
        return run_build_service(scenario, workers=workers, store=store,
                                 use_cache=use_cache, slo=slo,
                                 trace_context=trace_context)
    raise ConfigurationError(
        f"unknown scenario kind {scenario.kind!r}; known: "
        f"{', '.join(SERVICE_KINDS)}"
    )
