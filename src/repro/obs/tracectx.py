"""Request-scoped trace context and per-point span stitching.

The serving daemon handles every request on one asyncio loop and runs
each scenario on an execution thread.  A traced sweep records each
point on its own fresh context, so every point's span ids start at 0
and nothing yet connects a point's spans to the request that ran it.

This module closes that gap:

* :class:`TraceContext` -- the propagation token.  A request's trace id
  travels from the HTTP header (``X-Trace-Id``) or the daemon's own
  sequence, through ``service.run_scenario``, into the execution root
  span of fleet and build runs.  Sweep responses deliberately do *not*
  embed the per-request id (see below).
* :func:`stitch_spans` -- the plan-order merge.  Each point's span
  records are renumbered into one id space and re-parented under a
  synthetic ``serve.request`` -> ``serve.execute`` root, producing a
  single connected span tree, and each record is encoded once.

Both halves preserve the determinism contract.  Each point's spans
come from a fresh per-point context (ids from 0, sim-time timestamps;
traced points never come from the result cache), and the merge walks
points in plan order with a running id offset -- so the stitched tree
is **byte-identical at any cache temperature**.
And because a sweep response must stay a pure function of its scenario
(request coalescing serves one leader's bytes to every follower), the
stitched artifact's trace id is derived from the scenario id, never
from the request: :meth:`TraceContext.for_scenario`.
"""

import re
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.runtime.trace import dumps_record

#: Trace ids are operator-facing and land in logs, headers, and span
#: attributes; keep them short and shell/header-safe.
_MAX_TRACE_ID = 64
_TRACE_ID_BAD = re.compile(r"[^A-Za-z0-9._:-]")

#: Header carrying a caller-chosen trace id into the daemon.
TRACE_HEADER = "x-trace-id"


def sanitise_trace_id(raw: str) -> str:
    """Clamp a caller-supplied id to the safe alphabet (never empty)."""
    cleaned = _TRACE_ID_BAD.sub("-", raw.strip())[:_MAX_TRACE_ID]
    return cleaned or "trace"


@dataclass(frozen=True)
class TraceContext:
    """The propagation token: one trace id, one optional parent span."""

    trace_id: str
    parent_span: Optional[int] = None

    @classmethod
    def for_scenario(cls, scenario_id: str) -> "TraceContext":
        """The *scenario-derived* context used for stitched artifacts.

        Response bodies are a pure function of (scenario, slo) -- the
        coalescer and the response cache depend on it -- so anything
        embedded in a response must derive from the scenario, not the
        request.  The first 16 hex digits of the scenario id are unique
        enough to join against and stable across requests and cache
        temperature.
        """
        return cls(trace_id=sanitise_trace_id(scenario_id[:16]))

    @classmethod
    def from_headers(cls, headers: Mapping[str, str],
                     fallback: str) -> "TraceContext":
        """The *request-scoped* context: header-supplied id or fallback."""
        raw = headers.get(TRACE_HEADER, "")
        return cls(trace_id=sanitise_trace_id(raw or fallback))

    def child(self, parent_span: int) -> "TraceContext":
        return TraceContext(trace_id=self.trace_id, parent_span=parent_span)


def stitch_spans(segments: Sequence[Sequence[Mapping[str, Any]]], *,
                 trace_id: str,
                 root_name: str = "serve.request",
                 root_attrs: Optional[Dict[str, Any]] = None,
                 exec_name: str = "serve.execute",
                 exec_attrs: Optional[Dict[str, Any]] = None) -> str:
    """Merge per-point span records into one connected span tree.

    ``segments`` are each point's trace records (possibly empty),
    **in plan order**.  Records are copied before renumbering, never
    mutated: deduplicated points share one record sequence.  The output
    is one JSONL document::

        B id=0  <root_name>   (attrs: trace_id + root_attrs)
        B id=1  <exec_name>   parent=0
        ... every fragment, ids offset into one space, fragment roots
            re-parented under span 1 ...
        E id=1, E id=0        at the latest timestamp seen

    Fragment ids are assumed to start at 0 per fragment (what a fresh
    per-point :class:`~repro.runtime.context.SimContext` produces); the
    running offset renumbers them without collisions.  Output bytes are
    a pure function of the records and names.
    """
    root: Dict[str, Any] = {"type": "B", "id": 0, "name": root_name,
                            "ts_ps": 0, "attrs": {"trace_id": trace_id}}
    if root_attrs:
        root["attrs"].update(root_attrs)
    execute: Dict[str, Any] = {"type": "B", "id": 1, "name": exec_name,
                               "ts_ps": 0, "parent": 0}
    if exec_attrs:
        execute["attrs"] = dict(exec_attrs)
    lines: List[str] = [dumps_record(root), dumps_record(execute)]

    next_id = 2
    latest_ts = 0
    for segment in segments:
        offset = next_id
        max_id = -1
        for record in segment:
            record = dict(record)
            old_id = record["id"]
            if old_id > max_id:
                max_id = old_id
            record["id"] = old_id + offset
            if record["type"] != "E":
                parent = record.get("parent")
                # A fragment's rootless records hang off the execution
                # span; everything else keeps its in-fragment parent.
                record["parent"] = (1 if parent is None
                                    else parent + offset)
            end_ts = record["ts_ps"] + record.get("dur_ps", 0)
            if end_ts > latest_ts:
                latest_ts = end_ts
            lines.append(dumps_record(record))
        next_id = offset + max_id + 1
    lines.append(dumps_record({"type": "E", "id": 1, "name": exec_name,
                               "ts_ps": latest_ts}))
    lines.append(dumps_record({"type": "E", "id": 0, "name": root_name,
                               "ts_ps": latest_ts}))
    return "\n".join(lines) + "\n"
