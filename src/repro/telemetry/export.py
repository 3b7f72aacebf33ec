"""Exporters: Chrome trace-event JSON, OpenMetrics text, percentiles.

Three standard windows onto the run's observability data:

- :func:`chrome_trace` turns drained span trees into the Chrome
  trace-event format (``chrome://tracing`` / Perfetto's legacy JSON
  importer): one ``"X"`` complete event per span, timestamps in
  microseconds.  Spans with simulation-time bounds are laid out on the
  sim-time axis (that is the causally meaningful one); pure wall-clock
  spans are rebased to the earliest wall start.  Fleet flow spans get
  their flow index as the thread id, so Perfetto renders one track per
  flow and an evicted TCB is a visible gap.
- :func:`openmetrics` renders a :class:`MetricsRegistry` snapshot as
  OpenMetrics/Prometheus text exposition (counters ``_total``, gauges,
  histograms as cumulative ``_bucket{le=...}`` rows).
- :func:`histogram_quantile` / :func:`latency_summary` compute
  p50/p90/p99 from the registry's fixed-bucket histograms with linear
  interpolation inside the bucket — the same estimate Prometheus'
  ``histogram_quantile()`` makes.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, Iterable, List, Optional, Sequence

__all__ = [
    "chrome_trace",
    "histogram_quantile",
    "latency_summary",
    "openmetrics",
    "write_chrome_trace",
]


# -- Chrome trace-event JSON --------------------------------------------

def chrome_trace(trees: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Span trees -> a ``{"traceEvents": [...]}`` trace-event document."""
    wall_starts = [w for w in _walk_walls(trees) if w > 0.0]
    wall_base = min(wall_starts) if wall_starts else 0.0
    events: List[Dict[str, Any]] = []
    for index, tree in enumerate(trees):
        _emit(tree, events, tid=index, wall_base=wall_base)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _walk_walls(trees: Iterable[Dict[str, Any]]) -> Iterable[float]:
    for node in trees:
        yield node.get("wall_start", 0.0)
        yield from _walk_walls(node.get("children", ()))


def _emit(
    node: Dict[str, Any],
    events: List[Dict[str, Any]],
    *,
    tid: int,
    wall_base: float,
) -> None:
    sim_start = node.get("sim_start", 0.0)
    sim_end = node.get("sim_end", 0.0)
    attrs = node.get("attrs", {})
    # A per-flow track when the span knows its flow index.
    flow = attrs.get("flow")
    if isinstance(flow, int):
        tid = flow
    if sim_end > sim_start or sim_start > 0.0:
        ts, dur = sim_start * 1e6, max(0.0, sim_end - sim_start) * 1e6
    else:
        wall_start = node.get("wall_start", 0.0)
        wall_end = node.get("wall_end", wall_start)
        ts = max(0.0, wall_start - wall_base) * 1e6
        dur = max(0.0, wall_end - wall_start) * 1e6
    events.append(
        {
            "name": node.get("name", "?"),
            "cat": node.get("kind", "span"),
            "ph": "X",
            "ts": ts,
            "dur": dur,
            "pid": 0,
            "tid": tid,
            "args": {
                **attrs,
                "sim_start": sim_start,
                "sim_end": sim_end,
                "wall_start": node.get("wall_start", 0.0),
                "wall_end": node.get("wall_end", 0.0),
            },
        }
    )
    for child in node.get("children", ()):
        _emit(child, events, tid=tid, wall_base=wall_base)


def write_chrome_trace(trees: Sequence[Dict[str, Any]], path: str) -> int:
    """Write :func:`chrome_trace` JSON to ``path``; returns event count."""
    doc = chrome_trace(trees)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, default=repr)
        handle.write("\n")
    return len(doc["traceEvents"])


# -- OpenMetrics text exposition ----------------------------------------

_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(name: str) -> str:
    return "repro_" + _SANITIZE.sub("_", name)


def openmetrics(snapshot: Dict[str, Any]) -> str:
    """A registry snapshot as OpenMetrics text (Prometheus-scrapable),
    every metric named ``repro_<instrument>``."""
    lines: List[str] = []
    for name in sorted(snapshot.get("counters", {})):
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}_total {snapshot['counters'][name]}")
    for name in sorted(snapshot.get("gauges", {})):
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {snapshot['gauges'][name]}")
    for name in sorted(snapshot.get("histograms", {})):
        data = snapshot["histograms"][name]
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(data["buckets"], data["counts"]):
            cumulative += count
            lines.append(f'{metric}_bucket{{le="{bound:g}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {data["count"]}')
        lines.append(f"{metric}_sum {data['sum']}")
        lines.append(f"{metric}_count {data['count']}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# -- percentile estimation ----------------------------------------------

def histogram_quantile(data: Dict[str, Any], q: float) -> float:
    """Estimate the q-quantile of a fixed-bucket histogram snapshot.

    ``data`` is the registry's per-histogram snapshot shape:
    ``{"buckets": [bounds...], "counts": [len(bounds)+1 counts],
    "sum": ..., "count": ...}`` where ``counts[i]`` is the
    *non-cumulative* count of observations <= ``buckets[i]`` (last
    entry: the overflow bucket).  Linear interpolation inside the
    target bucket, like Prometheus' ``histogram_quantile()``.
    """
    total = data.get("count", 0)
    if total <= 0:
        return 0.0
    target = q * total
    buckets = data["buckets"]
    counts = data["counts"]
    cumulative = 0
    for i, bound in enumerate(buckets):
        prev = cumulative
        cumulative += counts[i]
        if cumulative >= target:
            lower = buckets[i - 1] if i > 0 else 0.0
            in_bucket = counts[i]
            fraction = (target - prev) / in_bucket if in_bucket else 0.0
            return lower + (bound - lower) * fraction
    # Target lands in the overflow bucket: the honest answer from
    # bucketed data is the largest finite bound.
    return float(buckets[-1]) if buckets else 0.0


def latency_summary(
    snapshot: Dict[str, Any], names: Optional[Iterable[str]] = None
) -> Dict[str, Dict[str, float]]:
    """p50/p90/p99 (plus count and mean) for selected histograms."""
    histograms = snapshot.get("histograms", {})
    if names is None:
        selected = sorted(histograms)
    else:
        selected = [n for n in names if n in histograms]
    out: Dict[str, Dict[str, float]] = {}
    for name in selected:
        data = histograms[name]
        count = data.get("count", 0)
        out[name] = {
            "count": count,
            "mean": (data.get("sum", 0.0) / count) if count else 0.0,
            "p50": histogram_quantile(data, 0.50),
            "p90": histogram_quantile(data, 0.90),
            "p99": histogram_quantile(data, 0.99),
        }
    return out
