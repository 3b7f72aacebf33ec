"""Parallel trial-execution engine: process-pool fan-out over trials.

Every table in the paper is a vantage × site × repeats sweep (Table 1
alone is 15 rows × 2 keyword modes × 11 vantages × 77 sites × 50 trials)
and every trial is seeded and independent — a fresh topology per trial
means no shared state, which makes the sweep embarrassingly parallel.
This module supplies the deterministic fan-out:

- :func:`map_trials` — the one fan-out: an order-preserving map over
  picklable argument tuples, executed inline when ``workers == 1``
  (byte-identical to the historical serial loops) or, otherwise, as
  contiguous chunks on a shared :class:`ProcessPoolExecutor` — one pool
  payload, one registry delta and one drained-records payload per
  chunk.  Results come back in task order, so any merge downstream
  (rate counting, per-vantage grouping) is independent of scheduling.
- ``REPRO_WORKERS`` — the one parallelism knob: every cell runner and
  bench reads it through :func:`configured_workers`; ``0`` (or any
  non-positive value) means "all cores".

The engine keeps no trial counter of its own: trial functions count
into the metrics registry (``trials.run``, ``fleet.flows``), whose
worker deltas merge back into the parent.

Determinism contract: trial seeds are computed *before* fan-out (see
:func:`repro.experiments.runner.trial_seed`), each work unit derives all
its randomness from its own seed, and the merge is positional — so for
fixed seeds the results are identical for any worker count.
"""

from __future__ import annotations

import atexit
import os
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional, Tuple

from repro.core.env import env_int
from repro.telemetry.metrics import get_registry
from repro.telemetry.recorder import get_recorder

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "configured_workers",
    "map_trials",
    "shutdown_pool",
]

#: Contiguous chunks per worker: a map splits into at most
#: ``workers × DEFAULT_CHUNKS_PER_WORKER`` chunks.  More than one per
#: worker smooths out uneven per-trial cost (a Tor trial simulates
#: ~12 s, a plain HTTP trial ~5 s) at the price of a few more payloads.
DEFAULT_CHUNKS_PER_WORKER = 4

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0


def configured_workers(workers: Optional[int] = None) -> int:
    """Resolve the effective worker count.

    An explicit ``workers`` argument wins; otherwise ``REPRO_WORKERS`` is
    consulted (default 1 — the serial path).  Non-positive values mean
    "one worker per CPU core".
    """
    if workers is None:
        workers = env_int("REPRO_WORKERS", default=1)
    if workers <= 0:
        workers = os.cpu_count() or 1
    return max(1, int(workers))


def shutdown_pool() -> None:
    """Tear down the shared process pool (tests, interpreter exit)."""
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown(wait=True, cancel_futures=True)
        _pool = None
        _pool_workers = 0


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared executor of ``workers`` processes; they live for the
    whole sweep.

    Keyed on the *requested* worker count, not the task-clamped one: a
    small map mid-sweep (3 tasks after a 10,000-task cell) reuses the
    pool instead of cycling every worker process, while a map asking
    for a different count gets a pool of exactly that size.  Reuse
    amortizes process start-up across the many cells of a sweep.
    Imported here: a serial process never loads the pool machinery.
    """
    global _pool, _pool_workers
    from concurrent.futures import ProcessPoolExecutor

    if _pool is None or _pool_workers != workers:
        shutdown_pool()
        _pool = ProcessPoolExecutor(max_workers=workers)
        _pool_workers = workers
    return _pool


atexit.register(shutdown_pool)


# -- execution-shape accounting (printed by perfbench/run.py) --------------
_exec_stats = {"workers": 0, "chunks": 0}


def execution_stats() -> dict:
    """High-water effective worker and chunk counts in this process.

    ``configured_workers()`` reports what the environment *asked for*;
    these are what the engine used: a map clamps the worker count to the
    task count and runs inline (0 chunks) with one worker.
    """
    return dict(_exec_stats)


def _note_execution(workers: int, chunks: int) -> None:
    _exec_stats["workers"] = max(_exec_stats["workers"], workers)
    _exec_stats["chunks"] = max(_exec_stats["chunks"], chunks)


def _run_chunk(
    payload: Tuple[Callable, Tuple, int],
) -> Tuple[List[Any], dict]:
    """Worker side: run one chunk serially under one ``chunk`` span;
    return its results and the telemetry delta it produced.

    The delta, not the full snapshot: a reused worker's registry
    accumulates, so the parent must see only what this chunk added.
    The payload carries the parent's recorder level, because a level
    raised (``observing()``) after the pool started would never reach
    the workers otherwise.  Drained records (span trees, anomaly dumps)
    ride in the delta under ``"records"``, a key
    :meth:`MetricsRegistry.merge` ignores.
    """
    func, chunk, level = payload
    registry = get_registry()
    recorder = get_recorder()
    recorder.level = level
    # Start from nothing: a forked worker inherits the parent's open
    # spans (the sweep span a pool created mid-sweep forks under), its
    # ring and its records.  Spans closed onto an inherited parent would
    # never reach the roots this chunk drains.
    recorder.clear()
    before = registry.snapshot()
    span = recorder.begin(f"chunk[{len(chunk)}]", "chunk", tasks=len(chunk))
    try:
        results = [func(*task) for task in chunk]
    finally:
        recorder.end(span)
    delta = registry.diff(before)
    delta["records"] = recorder.drain()
    return results, delta


def map_trials(
    func: Callable[..., Any],
    tasks: Iterable[Tuple],
    workers: Optional[int] = None,
) -> List[Any]:
    """Order-preserving ``[func(*task) for task in tasks]``; the one
    fan-out.

    Each task tuple is ``func``'s positional arguments, so a sweep maps
    its trial function itself.  ``func`` must be a module-level callable
    and every task tuple must be picklable.  With one worker the map
    runs inline, byte-identical to a plain loop.  Otherwise the tasks are
    cut into ``min(len(tasks), workers × DEFAULT_CHUNKS_PER_WORKER)``
    contiguous near-even chunks on the shared pool of ``workers``
    processes, and the chunks' results are put back in task order.  Their registry deltas merge
    order-independently (counters and histogram buckets add), so the
    merged registry equals a serial run's for any worker count.
    """
    tasks = list(tasks)
    requested = configured_workers(workers)
    effective = min(requested, len(tasks))
    if effective <= 1:
        _note_execution(1, 0)
        return [func(*task) for task in tasks]
    count = min(len(tasks), effective * DEFAULT_CHUNKS_PER_WORKER)
    _note_execution(effective, count)
    base, extra = divmod(len(tasks), count)
    bounds = [i * base + min(i, extra) for i in range(count + 1)]
    registry, recorder = get_registry(), get_recorder()
    payloads = [
        (func, tuple(tasks[bounds[i] : bounds[i + 1]]), recorder.level)
        for i in range(count)
    ]
    results: List[Any] = []
    for chunk_results, delta in _get_pool(requested).map(_run_chunk, payloads):
        registry.merge(delta)
        recorder.merge(delta.get("records"))
        results.extend(chunk_results)
    return results

