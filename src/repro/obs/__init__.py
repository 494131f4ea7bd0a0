"""Telemetry subsystem: exporters, flight recorder, profiler, SLO monitor.

This package is the production-observability layer on top of the PR-1
runtime (:mod:`repro.runtime`) -- the simulation-side analogue of the
monitoring half the paper dedicates in every RBB's reusable logic
(§3.3.1):

* :mod:`repro.obs.chrome` -- Chrome/Perfetto ``trace_event`` JSON from
  :class:`~repro.runtime.trace.TraceBus` records;
* :mod:`repro.obs.prometheus` -- Prometheus text-format exposition of a
  :class:`~repro.runtime.metrics.MetricsRegistry`;
* :mod:`repro.obs.recorder` -- the streaming flight recorder (bounded
  ring buffer + JSONL sink, O(1) memory for fleet-scale traces);
* :mod:`repro.obs.profiler` -- wall-clock phase spans around the
  simulator's own hot regions, recorded into a per-request or
  per-thread sink (strictly separate from sim-time);
* :mod:`repro.obs.slo` -- declarative SLO specs evaluated against the
  metrics registry, with violations emitted as trace instants;
* :mod:`repro.obs.tracectx` -- request-scoped trace contexts and the
  plan-order stitcher that merges each sweep point's span records into
  one connected, deterministic tree;
* :mod:`repro.obs.window` -- sliding-window serve telemetry: rolling
  rates, exponential-bucket latency histograms, SLO burn rates;
* :mod:`repro.obs.analyze` -- trace analytics over exported JSONL:
  critical-path extraction, flame aggregation, two-trace diffing.

Submodules are loaded lazily (PEP 562): the profiler's ``phase`` hook
is imported by hot paths deep in :mod:`repro.sim`, and an eager
``__init__`` here would close an import cycle back through
:mod:`repro.runtime`.  ``from repro.obs import X`` still works for
every name below.
"""

import importlib
from typing import List

_EXPORTS = {
    # chrome
    "chrome_trace_events": "repro.obs.chrome",
    "export_chrome_json": "repro.obs.chrome",
    "write_chrome_json": "repro.obs.chrome",
    # prometheus
    "to_prometheus_text": "repro.obs.prometheus",
    "write_prometheus_text": "repro.obs.prometheus",
    # recorder
    "FlightRecorder": "repro.obs.recorder",
    # profiler
    "phase": "repro.obs.profiler",
    "recording": "repro.obs.profiler",
    # tracectx
    "TraceContext": "repro.obs.tracectx",
    "sanitise_trace_id": "repro.obs.tracectx",
    "stitch_spans": "repro.obs.tracectx",
    # window
    "ExponentialBuckets": "repro.obs.window",
    "HistogramSnapshot": "repro.obs.window",
    "TelemetryHub": "repro.obs.window",
    "WindowedCounter": "repro.obs.window",
    "WindowedHistogram": "repro.obs.window",
    # analyze
    "SpanNode": "repro.obs.analyze",
    "TraceAnalysis": "repro.obs.analyze",
    "analyze_trace": "repro.obs.analyze",
    "diff_traces": "repro.obs.analyze",
    "load_trace": "repro.obs.analyze",
    "parse_trace": "repro.obs.analyze",
    # slo
    "SloMonitor": "repro.obs.slo",
    "SloReport": "repro.obs.slo",
    "SloSpec": "repro.obs.slo",
    "SloViolation": "repro.obs.slo",
    "default_fleet_slos": "repro.obs.slo",
    "load_slo_specs": "repro.obs.slo",
    "registry_from_sweep": "repro.obs.slo",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module_name), name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_EXPORTS))
