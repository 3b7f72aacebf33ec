"""Parallel trial-execution engine: process-pool fan-out over trials.

Every table in the paper is a vantage × site × repeats sweep (Table 1
alone is 15 rows × 2 keyword modes × 11 vantages × 77 sites × 50 trials)
and every trial is seeded and independent — a fresh topology per trial
means no shared state, which makes the sweep embarrassingly parallel.
This module supplies the deterministic fan-out:

- :func:`map_trials` — an order-preserving map over picklable work-unit
  tuples, executed inline when ``workers == 1`` (byte-identical to the
  historical serial loops) or on a shared :class:`ProcessPoolExecutor`
  otherwise.  Results come back in task order, so any merge downstream
  (rate counting, per-vantage grouping) is independent of scheduling.
- :func:`run_sharded` — the same map over contiguous shards, one pool
  payload and one telemetry delta per shard.
- ``REPRO_WORKERS`` — the environment knob every cell runner and bench
  reads through :func:`configured_workers`; ``0`` (or any non-positive
  value) means "all cores".

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
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.core.env import env_int
from repro.telemetry.metrics import get_registry
from repro.telemetry.recorder import get_recorder

__all__ = [
    "configured_workers",
    "map_trials",
    "run_sharded",
    "shutdown_pool",
]

#: Target number of chunks handed to each worker; >1 smooths out uneven
#: per-trial cost (a Tor trial simulates ~12 s, a plain HTTP trial ~5 s).
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
    """The shared executor; workers live for the whole sweep.

    Grow-only: the pool is recreated when more workers are needed, never
    torn down for fewer — a small map mid-sweep (3 tasks after a
    10,000-task cell) must not cycle every worker process.  A call that
    needs fewer workers than the pool holds simply submits fewer chunks,
    so surplus processes sleep.  Reuse amortizes process start-up across
    the many cells of a sweep.
    """
    global _pool, _pool_workers
    if _pool is None or _pool_workers < workers:
        shutdown_pool()
        _pool = ProcessPoolExecutor(max_workers=workers)
        _pool_workers = workers
    return _pool


atexit.register(shutdown_pool)


# -- execution-shape accounting (printed by perfbench/run.py) --------------
_exec_stats = {"workers": 0, "shards": 0}


def execution_stats() -> dict:
    """High-water effective worker and shard counts in this process.

    ``configured_workers()`` reports what the environment *asked for*;
    these are what the engine actually used — maps clamp the worker count
    to the task count and sharded runs may collapse to the serial path,
    so a measured throughput is only interpretable against the effective
    values.
    """
    return dict(_exec_stats)


def _note_execution(workers: int, shards: int = 0) -> None:
    _exec_stats["workers"] = max(_exec_stats["workers"], workers)
    _exec_stats["shards"] = max(_exec_stats["shards"], shards)


def _run_task_with_snapshot(
    payload: Tuple[Callable, Tuple, int]
) -> Tuple[Any, dict]:
    """Worker-side wrapper: run one task, return its result plus the
    telemetry delta it produced.

    The delta (not the full snapshot) is what merges cleanly: a worker
    process is reused for many tasks, so its registry accumulates — the
    parent must see only what *this* task added or counts double.

    The payload carries the parent's recorder level: pool workers
    persist across calls, so a level raised after pool start
    (``observing()`` in the CLI and tests) would never reach them
    otherwise.  The recorder's drained records (span trees, anomaly
    dumps) ride back inside the delta dict under ``"records"`` —
    :meth:`MetricsRegistry.merge` ignores unknown top-level keys, so the
    channel is free.
    """
    func, task, level = payload
    registry = get_registry()
    recorder = get_recorder()
    recorder.level = level
    # Start from nothing: a forked worker inherits the parent's open
    # spans (the sweep span a pool created mid-sweep forks under), its
    # ring and its records.  Spans closed onto an inherited parent would
    # never reach the roots this task drains.
    recorder.clear()
    before = registry.snapshot()
    result = func(task)
    delta = registry.diff(before)
    delta["records"] = recorder.drain()
    return result, delta


def _merge_worker_delta(registry, delta: dict) -> None:
    """Fold one worker delta into the parent: metrics, then records."""
    registry.merge(delta)
    get_recorder().merge(delta.get("records"))


def map_trials(
    func: Callable[[Tuple], Any],
    tasks: Iterable[Tuple],
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
) -> List[Any]:
    """Order-preserving (possibly parallel) map over trial work units.

    ``func`` must be a module-level callable and every task tuple must be
    picklable.  With one worker the map runs inline in this process, which
    is byte-identical to the pre-engine serial loops; with more, tasks are
    chunked onto the shared process pool and results are collected back in
    task order, so the caller's merge never depends on scheduling.

    The effective worker count is clamped to the task count: a 3-task map
    never engages more than 3 workers, so the chunk layout cannot
    degenerate into idle workers plus one overloaded straggler.

    Each worker task also returns the metrics-registry delta it produced
    (see :mod:`repro.telemetry.metrics`); the parent merges those deltas
    into its own registry.  The merge is order-independent — counters and
    histogram buckets add — so the merged registry equals the one a
    serial run would have built, for any worker count or schedule.
    """
    tasks = list(tasks)
    effective = min(configured_workers(workers), len(tasks))
    _note_execution(max(1, effective))
    if effective <= 1 or len(tasks) <= 1:
        # Inline path: the trial functions write the parent registry
        # directly.
        return [func(task) for task in tasks]
    if chunksize is None:
        chunksize = max(1, len(tasks) // (effective * DEFAULT_CHUNKS_PER_WORKER))
    pool = _get_pool(effective)
    level = get_recorder().level
    payloads = [(func, task, level) for task in tasks]
    registry = get_registry()
    results: List[Any] = []
    for result, delta in pool.map(
        _run_task_with_snapshot, payloads, chunksize=chunksize
    ):
        _merge_worker_delta(registry, delta)
        results.append(result)
    return results


def _shard_worker(payload: Tuple[Callable, Tuple]) -> List[Any]:
    """Worker-side shard loop: run every task of one shard in order.

    Lives at module level so the payload pickles.
    """
    func, shard = payload
    recorder = get_recorder()
    span = recorder.begin(f"shard[{len(shard)}]", "shard", tasks=len(shard))
    try:
        return [func(task) for task in shard]
    finally:
        recorder.end(span)


def run_sharded(
    func: Callable[[Tuple], Any],
    tasks: Iterable[Tuple],
    shards: Optional[int] = None,
    workers: Optional[int] = None,
) -> List[Any]:
    """Partition ``tasks`` into contiguous shards, one worker unit each.

    Where :func:`map_trials` ships every task through the pool
    individually (one pickled payload and one registry delta per task),
    sharding ships ``shards`` payloads total: each worker receives a
    contiguous slice of the task list, runs it serially, and returns one
    result list plus one merged telemetry delta.

    Results come back in task order (shards are reassembled in slice
    order) and the registry merge is order-independent, so the output is
    identical to :func:`map_trials` for any shard or worker count.
    ``shards`` defaults to the worker count.
    """
    tasks = list(tasks)
    requested = configured_workers(workers)
    if shards is None:
        shards = requested
    shards = max(1, min(shards, len(tasks)))
    if requested <= 1 or shards <= 1 or len(tasks) <= 1:
        _note_execution(1, shards=1)
        return [func(task) for task in tasks]
    _note_execution(min(requested, shards), shards=shards)
    base, extra = divmod(len(tasks), shards)
    slices: List[tuple] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        slices.append(tuple(tasks[start : start + size]))
        start += size
    pool = _get_pool(min(requested, shards))
    level = get_recorder().level
    payloads = [(_shard_worker, (func, shard), level) for shard in slices]
    registry = get_registry()
    results: List[Any] = []
    for shard_results, delta in pool.map(
        _run_task_with_snapshot, payloads, chunksize=1
    ):
        _merge_worker_delta(registry, delta)
        results.extend(shard_results)
    return results
