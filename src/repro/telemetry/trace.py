"""Span trees: building them and comparing them across execution shapes.

A *span* is one timed unit of work — a conformance cell, a process
shard, a fleet wave, one trial or fleet flow, or a phase inside a
trial — carrying both wall-clock bounds (``wall_start`` / ``wall_end``,
``time.perf_counter`` seconds) and simulation-time bounds
(``sim_start`` / ``sim_end``, :class:`~repro.netsim.sim.SimClock`
seconds).  Spans nest: a sweep span contains shard spans, a shard span
contains trial spans, a trial span contains phase spans.  The process
recorder (:class:`repro.telemetry.recorder.Recorder`) opens, closes and
collects them; this module holds the plain-dict shape and the
comparison.

Span trees are plain nested dicts — picklable and JSON-representable —
so they cross the ``run_sharded`` process boundary inside the worker's
telemetry delta.  Merging is order-independent up to sibling order, and
:func:`trial_semantic` reduces any tree to its execution-strategy-free
content so serial and sharded runs can be compared for identity (the
acceptance contract pinned in ``tests/test_obs.py``).
"""

from __future__ import annotations

import json
from types import SimpleNamespace
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "SEMANTIC_KINDS",
    "get_tracer",
    "make_span",
    "trial_semantic",
]

#: Span kinds whose content is a function of the workload alone —
#: independent of worker count, shard layout, or batch windowing.
#: Everything else (``sweep`` dispatch wrappers aside, see
#: :func:`trial_semantic`) describes *how* the run was executed.
SEMANTIC_KINDS = frozenset({"cell", "trial", "flow", "phase", "wave"})


def make_span(
    name: str,
    kind: str,
    *,
    sim_start: float = 0.0,
    sim_end: float = 0.0,
    wall_start: float = 0.0,
    wall_end: float = 0.0,
    attrs: Optional[Dict[str, Any]] = None,
    children: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Build a finished span dict (for :meth:`Recorder.add`)."""
    return {
        "name": name,
        "kind": kind,
        "sim_start": sim_start,
        "sim_end": sim_end,
        "wall_start": wall_start,
        "wall_end": wall_end,
        "attrs": dict(attrs or {}),
        "children": list(children or []),
    }


def trial_semantic(trees: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Reduce span trees to their execution-strategy-free content.

    Strips wall-clock fields (worker-dependent), hoists the children of
    non-semantic kinds (shard/batch wrappers differ between serial and
    sharded runs), and sorts every sibling list into a canonical order
    (shards finish in arbitrary order).  Two runs of the same workload
    must reduce to equal lists whatever the execution strategy — the
    span analogue of the registry's serial-vs-sharded byte identity.
    """
    out: List[Dict[str, Any]] = []
    for tree in trees:
        out.extend(_semantic_node(tree))
    out.sort(key=_canonical_key)
    return out


def _semantic_node(node: Dict[str, Any]) -> List[Dict[str, Any]]:
    children: List[Dict[str, Any]] = []
    for child in node.get("children", ()):
        children.extend(_semantic_node(child))
    children.sort(key=_canonical_key)
    if node.get("kind") not in SEMANTIC_KINDS:
        # Execution wrapper: hoist its semantic descendants.
        return children
    return [
        {
            "name": node["name"],
            "kind": node["kind"],
            "sim_start": node.get("sim_start", 0.0),
            "sim_end": node.get("sim_end", 0.0),
            "attrs": dict(node.get("attrs", {})),
            "children": children,
        }
    ]


def _canonical_key(node: Dict[str, Any]) -> str:
    # json over the whole stripped node: a total order, so equal
    # multisets of siblings sort identically even when two spans differ
    # only deep in their subtrees.
    return json.dumps(node, sort_keys=True, default=repr)


def get_tracer() -> SimpleNamespace:
    """Stand-in for the frozen ``perfbench/run.py``, which reads only
    ``.enabled``: whether the recorder collects spans."""
    from repro.telemetry.recorder import SPANS, get_recorder

    return SimpleNamespace(enabled=get_recorder().level >= SPANS)
