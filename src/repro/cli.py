"""Command-line interface: ``python -m repro.cli <command>``.

Gives operators the day-to-day views the library computes:

* ``devices`` -- the heterogeneous device catalog;
* ``describe DEVICE`` -- one device's peripherals and static config;
* ``tailor DEVICE --app APP`` -- the role-specific shell summary;
* ``bringup DEVICE --app APP`` -- command vs register bring-up cost;
* ``migrate APP FROM TO`` -- software-modification cost of a move;
* ``health DEVICE`` -- one monitoring cycle over the command plane;
* ``trace DEVICE --app APP`` -- run a Fig-17 sweep under a traced
  runtime context and export the span trace as JSONL (or, with
  ``--format chrome``, as a Chrome/Perfetto ``trace_event`` array);
* ``metrics DEVICE --app APP`` -- the same sweep's hierarchical
  metrics snapshot as JSON (or Prometheus text exposition with
  ``--format prometheus``);
* ``profile`` -- run a representative sweep + fleet workload with its
  wall-clock phases recorded as spans and print the top-N phase table
  (the :meth:`repro.obs.analyze.TraceAnalysis.flame` fold);
* ``sweep --apps ... --devices ...`` -- run an (apps x devices x
  packet-sizes) sweep through the cached
  :class:`repro.runtime.sweep.SweepRunner` (``--engine`` picks the
  vector kernel or the DES oracle loop);
* ``fleet`` -- shard millions of Zipf-skewed flows across the
  production fleet under several load-balancing policies (``--slo``
  evaluates service objectives and exits nonzero on violations);
* ``build --workers N --cache-dir DIR`` -- compile the fleet's
  device x role matrix through the parallel content-addressed
  :class:`repro.runtime.buildfarm.BuildFarm` (warm reruns are served
  from the artifact store; manifests are byte-identical at any worker
  count);
* ``fuzz`` -- differential conformance fuzzing: generate random valid
  scenarios, cross-check the cache, the vector kernel and the oracle
  loop for exact equality, and shrink any failure to a minimal JSON
  repro;
* ``report`` -- collate benchmark artifacts into one reproduction report.

``sweep``, ``fleet``, and ``build`` all accept ``--scenario FILE``: one
declarative :class:`repro.scenario.Scenario` JSON replaces the
subcommand's shape flags, and flag and scenario invocations of the same
run produce byte-identical results, traces, and manifests (see
``docs/scenarios.md``).
"""

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.analysis.tables import format_table
from repro.apps import application_by_name
from repro.core.health import HealthMonitor
from repro.core.host_software import ControlPlane
from repro.core.shell import build_unified_shell
from repro.errors import ConfigurationError, HarmoniaError
from repro.metrics.modifications import reduction_factor, trace_modifications
from repro.metrics.resources import utilisation_percent
from repro.platform.catalog import all_devices


def device_by_name(name: str):
    """Catalog lookup with the CLI's loud, consistent error contract.

    Every subcommand resolves device names through this one path, so an
    unknown name always raises :class:`ConfigurationError` listing the
    catalog -- matching :func:`repro.apps.application_by_name` and the
    scenario spec's validators.
    """
    from repro.scenario import require_device

    return require_device(name)


def _load_scenario_arg(path: str, kind: str):
    """The shared ``--scenario`` loader of sweep/fleet/build."""
    from repro.scenario import load_scenario

    scenario = load_scenario(path)
    if scenario.kind != kind:
        raise ConfigurationError(
            f"{path} is a {scenario.kind!r} scenario; this subcommand "
            f"needs \"kind\": \"{kind}\""
        )
    return scenario


def _reject_scenario_conflicts(flags) -> None:
    """``--scenario`` owns the run's shape; shape flags conflict with it."""
    given = [name for name, value in flags if value not in (None, False)]
    if given:
        raise ConfigurationError(
            "--scenario already describes the run; drop the conflicting "
            "flag(s): " + ", ".join(given)
        )


def cmd_devices(_args: argparse.Namespace) -> int:
    rows = [
        (device.name, device.chip, device.board_vendor.value,
         f"{device.network_gbps:g}G" if device.network_gbps else "-",
         "/".join(kind.value for kind in device.memory_kinds) or "-",
         f"Gen{int(device.pcie.pcie_generation)}x{device.pcie.pcie_lanes}")
        for device in all_devices()
    ]
    print(format_table(
        ["device", "chip", "board", "network", "memory", "pcie"], rows,
        title="Device catalog",
    ))
    return 0


def cmd_describe(args: argparse.Namespace) -> int:
    device = device_by_name(args.device)
    print(device.describe())
    from repro.adapters.device_adapter import DeviceAdapter

    static = DeviceAdapter(device).static_config()
    rows = sorted((key, str(value)) for key, value in static.items())
    print(format_table(["property", "value"], rows, title="Static configuration"))
    return 0


def cmd_tailor(args: argparse.Namespace) -> int:
    device = device_by_name(args.device)
    app = application_by_name(args.app)
    shell = app.tailored_shell(device)
    print(f"Tailored shell for {app.name!r} on {device.name}:")
    print(f"  RBBs: {', '.join(sorted(shell.rbbs))}")
    for name, rbb in sorted(shell.rbbs.items()):
        enabled = [fn.name for fn in rbb.enabled_ex_functions()]
        print(f"  {name}: instance={rbb.selected_instance_name} "
              f"ex-functions={enabled or '[]'}")
    utilisation = utilisation_percent(shell.resources(), device.budget)
    print("  utilisation: " + ", ".join(
        f"{kind}={value:.1f}%" for kind, value in utilisation.items()))
    print(f"  role config items: {shell.role_config_item_count()} "
          f"(native {shell.native_config_item_count()}, "
          f"{shell.config_simplification_factor():.1f}x simpler)")
    return 0


def cmd_bringup(args: argparse.Namespace) -> int:
    device = device_by_name(args.device)
    app = application_by_name(args.app)
    control = ControlPlane(app.tailored_shell(device))
    registers = control.register_full_init()
    commands = control.command_full_init()
    print(f"Bring-up of {app.name!r} on {device.name}:")
    print(f"  register interface: {registers.operation_count} operations")
    print(f"  command interface : {commands.invocation_count} commands")
    if control.kernel.commands_failed:
        print(f"  WARNING: {control.kernel.commands_failed} commands failed")
        return 1
    return 0


def cmd_migrate(args: argparse.Namespace) -> int:
    app = application_by_name(args.app)
    traces = {}
    for name in (args.source, args.target):
        control = ControlPlane(app.tailored_shell(device_by_name(name)))
        traces[name] = (
            control.register_full_init().operation_signatures(),
            control.command_full_init().invocation_signatures(),
        )
    register_mods = trace_modifications(traces[args.source][0], traces[args.target][0])
    command_mods = trace_modifications(traces[args.source][1], traces[args.target][1])
    print(f"Migrating {app.name!r} {args.source} -> {args.target}:")
    print(f"  register-interface modifications: {register_mods}")
    print(f"  command-interface modifications : {command_mods}")
    print(f"  reduction: {reduction_factor(register_mods, command_mods):.0f}x")
    return 0


def cmd_report(_args: argparse.Namespace) -> int:
    from repro.analysis.report import build_report, load_results, missing_experiments

    report = build_report()
    print(report, end="")
    return 0 if not missing_experiments(load_results()) else 3


def cmd_health(args: argparse.Namespace) -> int:
    device = device_by_name(args.device)
    monitor = HealthMonitor(ControlPlane(build_unified_shell(device)))
    report = monitor.poll_once()
    rows = [(obs.name, round(obs.value, 1), obs.severity.value)
            for obs in report.observations]
    print(format_table(["observable", "value", "severity"], rows,
                       title=f"Health of {device.name} (cycle {report.cycle})"))
    return 0 if report.healthy else 2


def _traced_sweep(args: argparse.Namespace):
    """Run one application sweep under a tracing runtime context."""
    from repro.runtime import SimContext

    device = device_by_name(args.device)
    app = application_by_name(args.app)
    context = SimContext(name=f"{app.name}@{device.name}", trace=True)
    sizes = tuple(args.sizes) if args.sizes else (64, 128, 256, 512, 1024)
    samples = app.measure(
        device, packet_sizes=sizes, packets_per_point=args.packets,
        with_harmonia=not args.native, context=context,
    )
    return context, app, device, samples


def cmd_trace(args: argparse.Namespace) -> int:
    if args.target == "analyze":
        return cmd_trace_analyze(args)
    if args.target == "diff":
        return cmd_trace_diff(args)
    if args.paths:
        raise ConfigurationError(
            "unexpected extra arguments; `trace DEVICE` exports a sweep "
            "trace, `trace analyze FILE` / `trace diff A B` run analytics")
    if not args.app:
        raise ConfigurationError("trace DEVICE needs --app")
    args.device = args.target          # the legacy export path
    context, app, device, samples = _traced_sweep(args)
    if args.format == "chrome":
        from repro.obs.chrome import export_chrome_json

        payload = export_chrome_json(context.trace)
    else:
        payload = context.trace.export_jsonl()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(payload)
        print(f"wrote {len(context.trace)} trace records to {args.out}")
    else:
        print(payload, end="")
    print(f"# {app.name} on {device.name}: {len(samples)} sweep points, "
          f"{len(context.trace)} trace records, "
          f"{len(context.trace.span_names())} distinct span names",
          file=sys.stderr)
    return 0


def _ms(ps: float) -> str:
    return f"{ps / 1e9:.3f}"


def cmd_trace_analyze(args: argparse.Namespace) -> int:
    from repro.obs.analyze import analyze_trace, load_trace

    if len(args.paths) != 1:
        raise ConfigurationError(
            "trace analyze takes exactly one trace JSONL file")
    analysis = analyze_trace(load_trace(args.paths[0]))
    if not len(analysis):
        print("trace is empty: no spans to analyze")
        return 0
    path = analysis.critical_path()
    rows = [
        ("  " * depth + node.name, _ms(node.start_ps),
         _ms(node.end_ps or 0), _ms(node.duration_ps), _ms(node.self_ps))
        for depth, node in enumerate(path)
    ]
    print(format_table(
        ["span", "start ms", "end ms", "duration ms", "self ms"], rows,
        title=f"Critical path: {len(path)} spans, "
              f"{_ms(path[0].duration_ps)} ms end-to-end",
    ))
    flame = analysis.flame(args.top)
    print(format_table(
        ["span name", "calls", "total ms", "self ms"],
        [(name, calls, _ms(total), _ms(self_ps))
         for name, calls, total, self_ps in flame],
        title=f"Flame fold: top {len(flame)} by self time "
              f"({len(analysis)} spans, {len(analysis.roots)} roots)",
    ))
    if args.json:
        with open(args.json, "w", encoding="utf-8", newline="\n") as handle:
            json.dump(analysis.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"# wrote analysis to {args.json}", file=sys.stderr)
    return 0


def cmd_trace_diff(args: argparse.Namespace) -> int:
    from repro.obs.analyze import analyze_trace, diff_traces, load_trace

    if len(args.paths) != 2:
        raise ConfigurationError(
            "trace diff takes exactly two trace JSONL files")
    before = analyze_trace(load_trace(args.paths[0]))
    after = analyze_trace(load_trace(args.paths[1]))
    rows = diff_traces(before, after, top=args.top)
    print(format_table(
        ["span name", "calls", "total ms before", "total ms after",
         "delta ms"],
        [(row["name"],
          f"{row['calls_before']} -> {row['calls_after']}",
          _ms(row["total_before_ps"]), _ms(row["total_after_ps"]),
          _ms(row["total_delta_ps"]))
         for row in rows],
        title=f"Trace diff: top {len(rows)} spans by |total delta| "
              f"({len(before)} -> {len(after)} spans)",
    ))
    if args.json:
        with open(args.json, "w", encoding="utf-8", newline="\n") as handle:
            json.dump(diff_traces(before, after), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"# wrote diff to {args.json}", file=sys.stderr)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    context, _app, _device, _samples = _traced_sweep(args)
    if args.format == "prometheus":
        from repro.obs.prometheus import to_prometheus_text

        print(to_prometheus_text(context.metrics), end="")
        return 0
    snapshot = context.metrics.snapshot()
    print(json.dumps(snapshot, indent=2, sort_keys=True))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    import time

    from repro.analysis.tables import format_table as _format
    from repro.obs.analyze import TraceAnalysis
    from repro.obs.profiler import phase, recording
    from repro.runtime import FleetSpec, SimContext, SweepPlan, run_fleet, run_plan
    from repro.runtime.trace import TraceBus

    phases = TraceBus(clock_ps=lambda: time.perf_counter_ns() * 1_000,
                      enabled=True)
    with recording(phases):
        with phase("workload.sweep"):
            run_plan(
                SweepPlan(apps=(args.app,), devices=(args.device,),
                          packets_per_point=args.packets),
                use_cache=False,
            )
        with phase("workload.fleet"):
            run_fleet(
                FleetSpec(flow_count=args.flows, device_count=256),
                context=SimContext(name="profile"),
            )
    analysis = TraceAnalysis(phases.records)
    rows = [
        (name, calls, f"{total_ps / 1e9:.2f}", f"{self_ps / 1e9:.2f}")
        for name, calls, total_ps, self_ps in analysis.flame(max(args.top, 0))
    ]
    profiled_ps = sum(root.duration_ps for root in analysis.roots)
    print(_format(
        ["phase", "calls", "cumulative ms", "self ms"], rows,
        title=f"Self-profile: top {len(rows)} phases, "
              f"{profiled_ps / 1e9:.2f} ms profiled",
    ))
    return 0


def _sweep_scenario(args):
    """The scenario a ``sweep`` invocation describes (file or flags)."""
    from repro.scenario import Scenario, WorkloadSpec

    if args.scenario:
        _reject_scenario_conflicts([
            ("--apps", args.apps), ("--devices", args.devices),
            ("--sizes", args.sizes), ("--packets", args.packets),
            ("--native", args.native), ("--engine", args.engine),
        ])
        scenario = _load_scenario_arg(args.scenario, "sweep")
        if args.trace_out and not scenario.workload.trace:
            import dataclasses

            scenario = scenario.replace(workload=dataclasses.replace(
                scenario.workload, trace=True))
        return scenario
    if not args.apps or not args.devices:
        raise ConfigurationError(
            "sweep needs --apps and --devices (or --scenario FILE)")
    scenario = Scenario(
        kind="sweep",
        apps=tuple(args.apps),
        devices=tuple(args.devices),
        engine=args.engine if args.engine is not None else "auto",
        workload=WorkloadSpec(
            packet_sizes=(tuple(args.sizes) if args.sizes
                          else (64, 128, 256, 512, 1024)),
            packets_per_point=(args.packets if args.packets is not None
                               else 2_000),
            with_harmonia=not args.native,
            trace=bool(args.trace_out),
        ),
    )
    return scenario.validate_names()   # fail fast on unknown names


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.runtime.sweep import SweepCache
    from repro.service import run_sweep_service

    scenario = _sweep_scenario(args)
    cache = SweepCache()
    if args.cache_file:
        try:
            cache.load(args.cache_file)
        except FileNotFoundError:
            pass                        # first run populates it
    outcome = run_sweep_service(scenario, cache=cache,
                                use_cache=not args.no_cache, slo=args.slo)
    result = outcome.result
    rows = [
        (point.point.app, point.point.device,
         f"{point.point.packet_size_bytes}B",
         round(point.throughput_bps / 1e9, 2),
         round(point.mean_latency_ns, 1),
         "hit" if point.cached else "miss")
        for point in result.points
    ]
    print(format_table(
        ["app", "device", "packet", "Gbps", "latency ns", "cache"], rows,
        title=f"Sweep: {len(result)} points",
    ))
    print(f"# {outcome.elapsed_s:.3f}s wall, "
          f"{result.cache_hits}/{len(result)} cache hits",
          file=sys.stderr)
    if args.cache_file:
        cache.save(args.cache_file)
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8",
                  newline="\n") as handle:
            handle.write(outcome.trace_jsonl)
        print(f"# wrote stitched trace to {args.trace_out}", file=sys.stderr)
    if args.json:
        with open(args.json, "w", encoding="utf-8", newline="\n") as handle:
            json.dump(result.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"# wrote point results to {args.json}", file=sys.stderr)
    if outcome.slo is not None:
        print(outcome.slo.format())
    return outcome.exit_code


def _build_scenario(args):
    """The scenario a ``build`` invocation describes (file or flags)."""
    from repro.scenario import Scenario, BuildSpec

    if args.scenario:
        _reject_scenario_conflicts([
            ("--devices", args.devices), ("--apps", args.apps),
            ("--year", args.year), ("--effort", args.effort),
        ])
        return _load_scenario_arg(args.scenario, "build")
    scenario = Scenario(
        kind="build",
        apps=tuple(args.apps) if args.apps else (),
        devices=tuple(args.devices) if args.devices else (),
        year=args.year if args.year is not None else 2_024,
        build=BuildSpec(effort=args.effort if args.effort is not None else 0),
    )
    return scenario.validate_names()   # fail fast on unknown names


def cmd_build(args: argparse.Namespace) -> int:
    from repro.runtime.buildfarm import ArtifactStore
    from repro.service import run_build_service

    scenario = _build_scenario(args)
    store = ArtifactStore(args.cache_dir)
    outcome = run_build_service(scenario, workers=args.workers, store=store,
                                use_cache=not args.no_cache, slo=args.slo)
    report = outcome.result
    context = outcome.context
    elapsed = outcome.elapsed_s
    rows = [
        (result.target.role, result.target.device, result.status,
         result.build_key[:12] if result.build_key else "-",
         f"{result.wall_s * 1e3:.1f}" if result.status == "built" else "-")
        for result in report.targets
    ]
    print(format_table(
        ["role", "device", "status", "key", "build ms"], rows,
        title=(f"Build farm: {len(report)} targets, {args.workers} worker(s), "
               f"{report.built} built / {report.shared} shared / "
               f"{report.cached} cached / {report.failed} failed / "
               f"{report.incompatible} incompatible"),
    ))
    print(f"# {elapsed:.3f}s wall, {store.hits} store hits, "
          f"{report.tailor_memo_hits} tailor-memo hits", file=sys.stderr)
    if args.manifests_out:
        with open(args.manifests_out, "w", encoding="utf-8",
                  newline="\n") as handle:
            handle.write(report.manifests_jsonl())
        print(f"# wrote manifests to {args.manifests_out}", file=sys.stderr)
    if args.json:
        payload = report.to_json()
        payload["elapsed_s"] = round(elapsed, 3)
        with open(args.json, "w", encoding="utf-8", newline="\n") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"# wrote build report to {args.json}", file=sys.stderr)
    if args.trace_out:
        if args.trace_format == "chrome":
            from repro.obs.chrome import export_chrome_json

            payload_text = export_chrome_json(context.trace)
        else:
            payload_text = context.trace.export_jsonl()
        with open(args.trace_out, "w", encoding="utf-8",
                  newline="\n") as handle:
            handle.write(payload_text)
        print(f"# wrote build trace to {args.trace_out}", file=sys.stderr)
    if outcome.slo is not None:
        print(outcome.slo.format())
    return outcome.exit_code


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeConfig, ServingDaemon

    config = ServeConfig(
        host=args.host, port=args.port, exec_workers=args.exec_workers,
        max_queue=args.max_queue, quota_rps=args.quota_rps,
        quota_burst=args.quota_burst,
        cache_entries=args.cache_entries if args.cache_entries > 0 else None,
        cache_file=args.cache_file, artifact_dir=args.artifact_dir,
        allow_remote_shutdown=args.allow_remote_shutdown,
        telemetry=not args.no_telemetry,
        telemetry_window_s=args.telemetry_window,
        trace_ring=args.trace_ring,
        access_log=args.access_log)
    daemon = ServingDaemon(config)

    def _announce(host: str, port: int) -> None:
        print(f"serving on http://{host}:{port}", flush=True)

    code = daemon.run(on_ready=_announce)
    served = daemon.metrics.counter("serve.requests").value
    coalesce = daemon.coalescer.counters()
    print(f"# shutdown after {served} request(s), "
          f"{coalesce['executions']} execution(s), "
          f"{coalesce['attached']} coalesced, "
          f"{len(daemon.cache)} cache entr(ies) resident", file=sys.stderr)
    return code


def _fleet_scenario(args):
    """The scenario a ``fleet`` invocation describes (file or flags)."""
    from repro.scenario import EpochsSpec, Scenario, TenancySpec

    if args.scenario:
        _reject_scenario_conflicts([
            ("--flows", args.flows), ("--devices", args.devices),
            ("--tenants", args.tenants), ("--slots", args.slots),
            ("--alpha", args.alpha), ("--load", args.load),
            ("--seed", args.seed), ("--epochs", args.epochs),
            ("--churn", args.churn),
        ])
        return _load_scenario_arg(args.scenario, "fleet")
    if args.churn is not None and args.epochs is None:
        raise ConfigurationError(
            "--churn only applies to epoch runs; add --epochs N")

    def _or(value, default):
        return value if value is not None else default

    epochs = None
    if args.epochs is not None:
        epochs = EpochsSpec(epochs=args.epochs,
                            churn=_or(args.churn, 0.01))
    return Scenario(
        kind="fleet",
        seed=_or(args.seed, 2_025),
        tenancy=TenancySpec(
            flow_count=_or(args.flows, 1_000_000),
            device_count=_or(args.devices, 1_024),
            tenant_count=_or(args.tenants, 16),
            slots_per_device=_or(args.slots, 4),
            alpha=_or(args.alpha, 1.05),
            offered_load=_or(args.load, 0.65),
        ),
        epochs=epochs,
    )


def _report_fleet_epochs(args: argparse.Namespace, outcome) -> int:
    """Format one orchestrated epoch day: sampled epochs + day totals."""
    result = outcome.result
    fleet = result.fleet_spec
    spec = result.spec
    epochs = result.epochs
    # Sample at most 12 evenly spaced epochs (always first and last) so
    # a 288-epoch day prints a digestible table.
    if len(epochs) <= 12:
        sampled = list(epochs)
    else:
        step = (len(epochs) - 1) / 11
        indexes = sorted({round(index * step) for index in range(12)})
        sampled = [epochs[index] for index in indexes]
    rows = [
        (stats.epoch, f"{stats.flows:,}", stats.arrivals, stats.departures,
         stats.failures + stats.drains, stats.migrations, stats.pr_grants,
         f"+{stats.scaled_up}/-{stats.scaled_down}", stats.alive_devices,
         f"{stats.utilization_mean:.2f}", round(stats.p99_ns / 1_000, 1),
         stats.slo_violations)
        for stats in sampled
    ]
    print(format_table(
        ["epoch", "flows", "arr", "dep", "fail+drain", "migr", "pr",
         "scale", "alive", "util", "p99 us", "slo"],
        rows,
        title=(f"Orchestrated day: {spec.epochs} epochs x "
               f"{fleet.flow_count:,} flows x {fleet.device_count:,} "
               f"devices ({outcome.meta['mode']} mode, "
               f"policy {spec.policy})"),
    ))
    totals = outcome.meta["totals"]
    print(f"  totals: {totals['arrivals']:,} arrivals, "
          f"{totals['departures']:,} departures, "
          f"{totals['failures']} failures, {totals['drains']} drains, "
          f"{totals['migrations']} migrations, "
          f"{totals['pr_grants']} PR grants, "
          f"+{totals['scaled_up']}/-{totals['scaled_down']} scaling, "
          f"{totals['slo_violations']} SLO violations")
    final = result.final
    print(f"  final: {final.flows:,} flows on {final.alive_devices} "
          f"devices, util {final.utilization_mean:.2f}, "
          f"p99 {final.p99_ns / 1_000:.1f} us")
    print(f"# {outcome.elapsed_s:.2f}s wall "
          f"({outcome.elapsed_s / spec.epochs * 1_000:.1f} ms/epoch), "
          f"digest {result.aggregate_digest[:12]}", file=sys.stderr)
    if outcome.slo is not None:
        print(outcome.slo.format())
    if args.json:
        payload = result.to_json()
        payload["elapsed_s"] = round(outcome.elapsed_s, 3)
        if outcome.slo is not None:
            payload["slo"] = outcome.slo.to_json()
        with open(args.json, "w", encoding="utf-8", newline="\n") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"# wrote orchestrator results to {args.json}",
              file=sys.stderr)
    return outcome.exit_code


def cmd_fleet(args: argparse.Namespace) -> int:
    from repro.service import run_fleet_service

    scenario = _fleet_scenario(args)
    # The service layer runs the simulation, streams the trace through
    # the flight recorder when asked, and evaluates SLOs while the
    # recorder is still attached -- identical semantics over HTTP.
    # Scenarios with an epochs section dispatch to the orchestrator.
    outcome = run_fleet_service(
        scenario, policies=args.policies, slo=args.slo,
        trace_out=args.trace_out, trace_ring=args.trace_ring,
        mode=args.epoch_mode,
    )
    if scenario.epochs is not None:
        return _report_fleet_epochs(args, outcome)
    result = outcome.result
    slo_report = outcome.slo
    context = outcome.context
    spec = result.spec
    elapsed = outcome.elapsed_s
    if args.trace_out:
        print(f"# streamed {context.trace.total_records} trace records "
              f"to {args.trace_out} "
              f"({len(context.trace)} resident)", file=sys.stderr)
    rows = [
        (policy.policy,
         round(policy.p50_ns / 1_000, 1), round(policy.p99_ns / 1_000, 1),
         f"{policy.utilization_mean:.2f}", f"{policy.utilization_max:.2f}",
         round(policy.imbalance, 2), policy.overloaded_devices,
         f"{policy.non_resident_flows / spec.flow_count:.0%}")
        for policy in result.policies
    ]
    print(format_table(
        ["policy", "p50 us", "p99 us", "util mean", "util max",
         "imbalance", "overloaded", "non-resident"],
        rows,
        title=(f"Fleet: {spec.flow_count:,} flows x {result.spec.device_count:,} "
               f"devices x {spec.tenant_count} tenants "
               f"({result.effective_offered_gbps / 1_000:.1f} of "
               f"{result.total_capacity_gbps / 1_000:.1f} Tbps offered)"),
    ))
    for policy in result.policies:
        hottest = ", ".join(f"{label}={value:.2f}"
                            for label, value in policy.hottest[:3])
        print(f"  {policy.policy}: hottest devices {hottest}")
    best = result.best_policy()
    print(f"  best policy by p99: {best.policy} "
          f"({best.p99_ns / 1_000:.1f} us)")
    print(f"# {elapsed:.2f}s wall, {len(result.policies)} policies, "
          f"{len(context.trace)} trace records", file=sys.stderr)
    if slo_report is not None:
        print(slo_report.format())
    if args.json:
        payload = result.to_json()
        payload["elapsed_s"] = round(elapsed, 3)
        if slo_report is not None:
            payload["slo"] = slo_report.to_json()
        with open(args.json, "w", encoding="utf-8", newline="\n") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"# wrote fleet results to {args.json}", file=sys.stderr)
    return outcome.exit_code


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.scenario.fuzz import DifferentialFuzzer

    fuzzer = DifferentialFuzzer(
        seed=args.seed, repro_dir=args.repro_dir,
        inject_size_threshold=args.inject_failure,
        epoch_rate=args.epoch_rate,
        inject_epoch_threshold=args.inject_epoch,
    )
    start = time.perf_counter()
    report = fuzzer.run(args.budget)
    elapsed = time.perf_counter() - start
    print(f"Fuzz: {report.scenarios_run} scenarios, "
          f"{report.points_checked} points, {report.checks_run} checks, "
          f"coverage {report.coverage} keys, "
          f"{len(report.failures)} failure(s)")
    for failure in report.failures:
        where = failure.repro_path or "(repro not written)"
        print(f"  FAIL {failure.check}: {failure.detail}")
        print(f"       minimized scenario {failure.shrunk.scenario_id()[:12]} "
              f"-> {where}")
    print(f"# {elapsed:.2f}s wall, seed {report.seed}", file=sys.stderr)
    if args.json:
        payload = report.to_json()
        payload["elapsed_s"] = round(elapsed, 3)
        with open(args.json, "w", encoding="utf-8", newline="\n") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"# wrote fuzz report to {args.json}", file=sys.stderr)
    return 5 if report.failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Harmonia reproduction -- operator tooling",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("devices", help="list the device catalog")

    describe = commands.add_parser("describe", help="show one device")
    describe.add_argument("device")

    tailor = commands.add_parser("tailor", help="tailor a shell for an app")
    tailor.add_argument("device")
    tailor.add_argument("--app", required=True)

    bringup = commands.add_parser("bringup", help="compare bring-up interfaces")
    bringup.add_argument("device")
    bringup.add_argument("--app", required=True)

    migrate = commands.add_parser("migrate", help="migration cost between devices")
    migrate.add_argument("app")
    migrate.add_argument("source")
    migrate.add_argument("target")

    health = commands.add_parser("health", help="poll one device's health")
    health.add_argument("device")

    def _sweep_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("device")
        sub.add_argument("--app", required=True)
        sub.add_argument("--packets", type=int, default=500,
                         help="packets per sweep point (default 500)")
        sub.add_argument("--sizes", type=int, nargs="+",
                         help="packet sizes in bytes (default paper sweep)")
        sub.add_argument("--native", action="store_true",
                         help="sweep the native (no-Harmonia) data path")

    trace = commands.add_parser(
        "trace", help="export a traced app sweep as JSONL or Chrome JSON, "
                      "or analyze/diff exported traces")
    trace.add_argument("target",
                       help="a device name to export a traced sweep, or "
                            "'analyze' / 'diff' to run trace analytics")
    trace.add_argument("paths", nargs="*",
                       help="trace JSONL file(s): one for analyze, "
                            "two for diff")
    trace.add_argument("--app", help="application for the sweep export")
    trace.add_argument("--packets", type=int, default=500,
                       help="packets per sweep point (default 500)")
    trace.add_argument("--sizes", type=int, nargs="+",
                       help="packet sizes in bytes (default paper sweep)")
    trace.add_argument("--native", action="store_true",
                       help="sweep the native (no-Harmonia) data path")
    trace.add_argument("--out", help="write the export here instead of stdout")
    trace.add_argument("--format", choices=("jsonl", "chrome"),
                       default="jsonl",
                       help="jsonl (native records) or chrome "
                            "(trace_event JSON for chrome://tracing/Perfetto)")
    trace.add_argument("--top", type=int, default=15,
                       help="rows in the analyze/diff tables (default 15)")
    trace.add_argument("--json",
                       help="write the analyze/diff result JSON here")

    metrics = commands.add_parser(
        "metrics", help="print a sweep's hierarchical metrics snapshot")
    _sweep_args(metrics)
    metrics.add_argument("--format", choices=("json", "prometheus"),
                         default="json",
                         help="json (nested snapshot) or prometheus "
                              "(text exposition format)")

    profile = commands.add_parser(
        "profile", help="self-profile the simulator's own hot phases")
    profile.add_argument("--app", default="sec-gateway",
                         help="application for the sweep workload")
    profile.add_argument("--device", default="device-a",
                         help="device for the sweep workload")
    profile.add_argument("--packets", type=int, default=500,
                         help="packets per sweep point (default 500)")
    profile.add_argument("--flows", type=int, default=100_000,
                         help="flows for the fleet workload (default 100,000)")
    profile.add_argument("--top", type=int, default=10,
                         help="show the top-N phases by self time")

    sweep = commands.add_parser(
        "sweep", help="run an (apps x devices x sizes) sweep")
    sweep.add_argument("--scenario",
                       help="declarative scenario JSON describing the sweep "
                            "(replaces --apps/--devices/--sizes/--packets/"
                            "--native/--engine; see docs/scenarios.md)")
    sweep.add_argument("--apps", nargs="+",
                       help="application names (see `devices`/docs)")
    sweep.add_argument("--devices", nargs="+",
                       help="device names from the catalog")
    sweep.add_argument("--sizes", type=int, nargs="+",
                       help="packet sizes in bytes (default paper sweep)")
    sweep.add_argument("--packets", type=int,
                       help="packets per sweep point (default 2000)")
    sweep.add_argument("--native", action="store_true",
                       help="sweep the native (no-Harmonia) data path")
    sweep.add_argument("--no-cache", action="store_true",
                       help="bypass the content-keyed result cache")
    sweep.add_argument("--cache-file",
                       help="load/save the result cache at this JSON path")
    sweep.add_argument("--trace-out",
                       help="trace every point; write the stitched span "
                            "tree (JSONL) here")
    sweep.add_argument("--json", help="write per-point results JSON here")
    sweep.add_argument("--engine", choices=("auto", "vector", "des"),
                       help="implementation for cache misses: auto picks the "
                            "vector kernel when the chain is analytic, des "
                            "the per-transaction oracle loop")
    sweep.add_argument("--slo",
                       help="check results against SLO specs: a JSON file "
                            "or 'default'; violations exit with code 4")

    build = commands.add_parser(
        "build", help="compile the fleet's device x role matrix in parallel")
    build.add_argument("--scenario",
                       help="declarative scenario JSON describing the build "
                            "matrix (replaces --devices/--apps/--year/"
                            "--effort; see docs/scenarios.md)")
    build.add_argument("--devices", nargs="+",
                       help="device names (default: the production fleet's "
                            "active types for --year)")
    build.add_argument("--apps", nargs="+",
                       help="application roles (default: all five)")
    build.add_argument("--year", type=int,
                       help="fleet deployment year when --devices is not "
                            "given (default 2024)")
    build.add_argument("--workers", type=int, default=1,
                       help="worker processes (1 = in-process serial)")
    build.add_argument("--effort", type=int,
                       help="modelled CAD compile effort (0 = skip the "
                            "compile model's iteration loop)")
    build.add_argument("--cache-dir",
                       help="content-addressed artifact store directory "
                            "(default: in-memory, this run only)")
    build.add_argument("--no-cache", action="store_true",
                       help="bypass the artifact store")
    build.add_argument("--manifests-out",
                       help="write the deterministic manifests JSONL here")
    build.add_argument("--json", help="write the build report JSON here")
    build.add_argument("--trace-out",
                       help="write the build Gantt trace here")
    build.add_argument("--trace-format", choices=("jsonl", "chrome"),
                       default="jsonl",
                       help="jsonl (native records) or chrome "
                            "(trace_event JSON for chrome://tracing)")
    build.add_argument("--slo",
                       help="check build metrics against SLO specs: a JSON "
                            "file or 'default'; violations exit with code 4")

    fleet = commands.add_parser(
        "fleet", help="serve Zipf-skewed flows across the production fleet")
    fleet.add_argument("--scenario",
                       help="declarative scenario JSON describing the fleet "
                            "run (replaces --flows/--devices/--tenants/"
                            "--slots/--alpha/--load/--seed; see "
                            "docs/scenarios.md)")
    fleet.add_argument("--flows", type=int,
                       help="flow population size (default 1,000,000)")
    fleet.add_argument("--devices", type=int,
                       help="device instances to shard across (default 1024)")
    fleet.add_argument("--tenants", type=int,
                       help="tenant count sharing the fleet (default 16)")
    fleet.add_argument("--slots", type=int,
                       help="PR slots per device (default 4)")
    fleet.add_argument("--alpha", type=float,
                       help="Zipf skew of flow popularity (default 1.05)")
    fleet.add_argument("--load", type=float,
                       help="offered load as a fraction of fleet capacity")
    fleet.add_argument("--seed", type=int,
                       help="deterministic scenario seed")
    fleet.add_argument("--epochs", type=int,
                       help="orchestrate N churn epochs (arrivals, "
                            "departures, failures, drains, migration, "
                            "PR scheduling, autoscaling) instead of the "
                            "one-shot policy comparison")
    fleet.add_argument("--churn", type=float,
                       help="per-epoch arrival/departure fraction of the "
                            "flow population (default 0.01; needs --epochs)")
    fleet.add_argument("--epoch-mode",
                       choices=("incremental", "full", "verify"),
                       default="incremental",
                       help="aggregate maintenance for epoch runs: "
                            "delta-incremental (default), the O(flows) "
                            "full-recompute oracle, or verify (both, "
                            "asserting bit-exact equality every epoch)")
    fleet.add_argument("--policies", nargs="+",
                       choices=("round-robin", "least-loaded", "flow-hash"),
                       help="policies to evaluate (default: all three)")
    fleet.add_argument("--json", help="write fleet results JSON here")
    fleet.add_argument("--slo",
                       help="check metrics against SLO specs: a JSON file "
                            "or 'default'; violations exit with code 4")
    fleet.add_argument("--trace-out",
                       help="stream the run's trace to this JSONL file "
                            "via the flight recorder")
    fleet.add_argument("--trace-ring", type=int, default=4_096,
                       help="resident trace ring size while streaming "
                            "(default 4096)")

    fuzz = commands.add_parser(
        "fuzz", help="differential conformance fuzzing across engine tiers")
    fuzz.add_argument("--budget", type=int, default=200,
                      help="scenarios to generate and cross-check "
                           "(default 200)")
    fuzz.add_argument("--seed", type=int, default=2_025,
                      help="deterministic generation seed (default 2025)")
    fuzz.add_argument("--repro-dir", default="fuzz-repros",
                      help="write minimized failing scenarios here "
                           "(default fuzz-repros/)")
    fuzz.add_argument("--json", help="write the fuzz report JSON here")
    fuzz.add_argument("--inject-failure", type=int, metavar="SIZE",
                      help="testing hook: treat any point with packet size "
                           ">= SIZE as failing, to exercise the shrinker")
    fuzz.add_argument("--epoch-rate", type=float, default=0.0,
                      help="fraction of generated scenarios carrying an "
                           "epochs section, cross-checked through the "
                           "epoch-delta differential (default 0.0)")
    fuzz.add_argument("--inject-epoch", type=int, metavar="EPOCHS",
                      help="testing hook: treat any scenario with >= EPOCHS "
                           "epochs as failing, to exercise the epoch "
                           "shrinker")

    serve = commands.add_parser(
        "serve", help="run the warm serving daemon (resident caches, "
                      "request coalescing, admission control)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8_787,
                       help="bind port; 0 picks a free port (default 8787)")
    serve.add_argument("--exec-workers", type=int, default=4,
                       help="scenario-execution threads (default 4)")
    serve.add_argument("--pool-workers", type=int, default=4,
                       help="accepted for compatibility and ignored: every "
                            "sweep point runs in the daemon's process")
    serve.add_argument("--max-queue", type=int, default=32,
                       help="bounded execution queue; new work beyond this "
                            "is shed with 503 (default 32)")
    serve.add_argument("--quota-rps", type=float, default=0.0,
                       help="per-tenant token-bucket rate in requests/s; "
                            "0 disables quotas (default 0)")
    serve.add_argument("--quota-burst", type=float, default=None,
                       help="per-tenant burst capacity "
                            "(default 2x --quota-rps)")
    serve.add_argument("--cache-entries", type=int, default=4_096,
                       help="sweep-cache LRU bound; 0 means unbounded "
                            "(default 4096)")
    serve.add_argument("--cache-file",
                       help="sweep-cache JSON: loaded at boot, saved on "
                            "clean shutdown")
    serve.add_argument("--artifact-dir",
                       help="build-artifact store directory "
                            "(default: in-memory)")
    serve.add_argument("--allow-remote-shutdown", action="store_true",
                       help="enable POST /v1/shutdown (default: signals only)")
    serve.add_argument("--no-telemetry", action="store_true",
                       help="disable the sliding-window telemetry hub "
                            "(/telemetry, /metrics histograms)")
    serve.add_argument("--telemetry-window", type=float, default=60.0,
                       help="sliding telemetry window in seconds "
                            "(default 60)")
    serve.add_argument("--trace-ring", type=int, default=4_096,
                       help="resident serve-span ring size for GET /trace; "
                            "0 disables request spans (default 4096)")
    serve.add_argument("--access-log",
                       help="write one JSONL line per request here "
                            "(finalised atomically on clean shutdown)")

    commands.add_parser("report", help="collate benchmark result artifacts")
    return parser


_HANDLERS = {
    "devices": cmd_devices,
    "describe": cmd_describe,
    "tailor": cmd_tailor,
    "bringup": cmd_bringup,
    "migrate": cmd_migrate,
    "health": cmd_health,
    "trace": cmd_trace,
    "metrics": cmd_metrics,
    "profile": cmd_profile,
    "sweep": cmd_sweep,
    "build": cmd_build,
    "fleet": cmd_fleet,
    "serve": cmd_serve,
    "fuzz": cmd_fuzz,
    "report": cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (HarmoniaError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
