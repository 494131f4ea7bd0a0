"""Trace analytics over exported JSONL: critical path, flame, diff.

A stitched request trace (:mod:`repro.obs.tracectx`) or any CLI trace
export is a span tree; this module answers the three questions an
operator actually asks of one:

* **where did the time go?** -- :func:`TraceAnalysis.critical_path`
  walks from each root to the child whose *end* is latest, yielding
  the chain of spans that bounds the request's wall time.  Shortening
  anything off this path cannot shorten the request.
* **what dominates in aggregate?** -- :func:`TraceAnalysis.flame`
  folds all spans by name into (calls, total, self) rows, where self
  time is a span's duration minus its children's -- the flame-graph
  ordering without the SVG.
* **what changed?** -- :func:`diff_traces` joins two analyses by span
  name and ranks by absolute total-time delta, the first tool to reach
  for when a perf PR moves a benchmark.

Input is tolerant by design: ``B`` spans missing their ``E`` (an
interrupted run) close at the trace's final timestamp, unknown parents
make a span a root, and blank lines are skipped.  All outputs are
deterministically ordered, so analytics over byte-identical traces are
byte-identical too.
"""

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError


@dataclass
class SpanNode:
    """One reconstructed span (or instant) in the trace tree."""

    span_id: int
    name: str
    start_ps: int
    end_ps: Optional[int]
    kind: str                      # "span" (B/E), "complete" (X), "instant"
    parent_id: Optional[int]
    attrs: Dict[str, Any] = field(default_factory=dict)
    children: List["SpanNode"] = field(default_factory=list)
    closed: bool = True

    @property
    def duration_ps(self) -> int:
        if self.end_ps is None:
            return 0
        return max(0, self.end_ps - self.start_ps)

    @property
    def self_ps(self) -> int:
        child_total = sum(child.duration_ps for child in self.children)
        return max(0, self.duration_ps - child_total)


def parse_trace(text: str) -> List[Dict[str, Any]]:
    """JSONL text -> record dicts (blank lines skipped, loud on junk)."""
    records = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"trace line {number} is not valid JSON: {exc}")
        if not isinstance(record, dict) or "type" not in record:
            raise ConfigurationError(
                f"trace line {number} is not a trace record")
        records.append(record)
    return records


def load_trace(path: str) -> List[Dict[str, Any]]:
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_trace(handle.read())
    except OSError as exc:
        raise ConfigurationError(f"cannot read trace {path!r}: {exc}")


class TraceAnalysis:
    """The span forest plus the derived views."""

    def __init__(self, records: Iterable[Dict[str, Any]]) -> None:
        nodes: Dict[int, SpanNode] = {}
        order: List[int] = []
        final_ts = 0
        for record in records:
            rtype = record["type"]
            ts = int(record.get("ts_ps", 0))
            if rtype == "E":
                node = nodes.get(record["id"])
                if node is not None:
                    node.end_ps = ts
                    node.closed = True
                final_ts = max(final_ts, ts)
                continue
            if rtype == "B":
                node = SpanNode(
                    span_id=record["id"], name=record["name"],
                    start_ps=ts, end_ps=None, kind="span",
                    parent_id=record.get("parent"),
                    attrs=record.get("attrs", {}), closed=False)
            elif rtype == "X":
                end = ts + int(record.get("dur_ps", 0))
                node = SpanNode(
                    span_id=record["id"], name=record["name"],
                    start_ps=ts, end_ps=end, kind="complete",
                    parent_id=record.get("parent"),
                    attrs=record.get("attrs", {}))
                final_ts = max(final_ts, end)
            elif rtype == "I":
                node = SpanNode(
                    span_id=record["id"], name=record["name"],
                    start_ps=ts, end_ps=ts, kind="instant",
                    parent_id=record.get("parent"),
                    attrs=record.get("attrs", {}))
            else:
                continue
            final_ts = max(final_ts, ts)
            nodes[node.span_id] = node
            order.append(node.span_id)

        self.roots: List[SpanNode] = []
        for span_id in order:
            node = nodes[span_id]
            if not node.closed and node.end_ps is None:
                # Interrupted span: close at the trace's final instant,
                # the same convention as the Chrome exporter.
                node.end_ps = final_ts
            parent = (nodes.get(node.parent_id)
                      if node.parent_id is not None else None)
            if parent is None or parent is node:
                self.roots.append(node)
            else:
                parent.children.append(node)
        self.nodes = nodes
        self.final_ts = final_ts

    def __len__(self) -> int:
        return len(self.nodes)

    def critical_path(self) -> List[SpanNode]:
        """Root-to-leaf chain through the latest-ending children.

        With multiple roots (a forest, e.g. ``sweep --trace-out``'s
        per-point concatenation) the walk starts from the root that
        ends last -- the one bounding the whole artifact.
        """
        candidates = [node for node in self.roots if node.kind != "instant"]
        if not candidates:
            return []
        node = max(candidates,
                   key=lambda n: (n.end_ps or 0, -n.start_ps, -n.span_id))
        path = [node]
        while True:
            spans = [child for child in node.children
                     if child.kind != "instant"]
            if not spans:
                return path
            node = max(spans,
                       key=lambda n: (n.end_ps or 0, -n.start_ps,
                                      -n.span_id))
            path.append(node)

    def flame(self, top: Optional[int] = None
              ) -> List[Tuple[str, int, int, int]]:
        """(name, calls, total_ps, self_ps) rows, self-time descending.

        A span nested inside a span of the same name adds its call and
        self time but not its duration: only the outermost activation
        counts towards ``total_ps``, so no name exceeds wall time.
        """
        folded: Dict[str, List[int]] = {}
        # Depth-first with the names open on the current root path.
        stack = [(root, False) for root in reversed(self.roots)]
        open_names: Dict[str, int] = {}
        while stack:
            node, leaving = stack.pop()
            if leaving:
                open_names[node.name] -= 1
                continue
            if node.kind != "instant":
                row = folded.setdefault(node.name, [0, 0, 0])
                row[0] += 1
                if not open_names.get(node.name):
                    row[1] += node.duration_ps
                row[2] += node.self_ps
            open_names[node.name] = open_names.get(node.name, 0) + 1
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node.children))
        rows = sorted(
            ((name, calls, total, self_ps)
             for name, (calls, total, self_ps) in folded.items()),
            key=lambda row: (-row[3], -row[2], row[0]))
        return rows[:top] if top else rows

    def to_json(self) -> Dict[str, Any]:
        return {
            "spans": len(self.nodes),
            "roots": len(self.roots),
            "final_ts_ps": self.final_ts,
            "critical_path": [
                {"name": node.name, "start_ps": node.start_ps,
                 "end_ps": node.end_ps, "duration_ps": node.duration_ps,
                 "self_ps": node.self_ps}
                for node in self.critical_path()
            ],
            "flame": [
                {"name": name, "calls": calls, "total_ps": total,
                 "self_ps": self_ps}
                for name, calls, total, self_ps in self.flame()
            ],
        }


def analyze_trace(records: Iterable[Dict[str, Any]]) -> TraceAnalysis:
    return TraceAnalysis(records)


def diff_traces(before: TraceAnalysis, after: TraceAnalysis,
                top: Optional[int] = None
                ) -> List[Dict[str, Any]]:
    """Join two flame folds by name, ranked by |total delta| descending."""
    fold_a = {name: (calls, total, self_ps)
              for name, calls, total, self_ps in before.flame()}
    fold_b = {name: (calls, total, self_ps)
              for name, calls, total, self_ps in after.flame()}
    rows = []
    for name in sorted(set(fold_a) | set(fold_b)):
        calls_a, total_a, self_a = fold_a.get(name, (0, 0, 0))
        calls_b, total_b, self_b = fold_b.get(name, (0, 0, 0))
        rows.append({
            "name": name,
            "calls_before": calls_a, "calls_after": calls_b,
            "total_before_ps": total_a, "total_after_ps": total_b,
            "total_delta_ps": total_b - total_a,
            "self_delta_ps": self_b - self_a,
        })
    rows.sort(key=lambda row: (-abs(row["total_delta_ps"]), row["name"]))
    return rows[:top] if top else rows
