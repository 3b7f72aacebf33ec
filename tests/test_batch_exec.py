"""Tier-1 pins for the execution engine.

Independent trials give the same cell rates whichever way they are
fanned out (serially or in contiguous chunks over a worker pool).
The fleet's shared event heap (:class:`BatchSim`) keeps every flow's
events in the order a private clock would fire them; its per-trial
ordering invariant is property-tested directly.
"""

import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import (
    CHINA_VANTAGE_POINTS,
    map_trials,
    outside_china_catalog,
    run_strategy_cell,
)
from repro.experiments import parallel
from repro.experiments.parallel import DEFAULT_CHUNKS_PER_WORKER
from repro.netsim.batch import TRIAL_SHIFT, BatchSim
from repro.netsim.simclock import SimClock

VANTAGES = CHINA_VANTAGE_POINTS[:2]
SITES = outside_china_catalog(count=2)


def _square(task):
    """Module-level for picklability across pool workers."""
    return task * task


def _power(base, exponent):
    return base ** exponent


def _worker_pid(task):
    """Which process ran the task; the nap spreads chunks over workers."""
    time.sleep(0.01)
    return os.getpid()


class TestExecutionParity:
    """Serial and worker-pool execution give identical rates."""

    def test_cell_rates_identical_across_execution_modes(self):
        def cell(**kwargs):
            triple = run_strategy_cell(
                "tcb-teardown-rst/ttl", VANTAGES, SITES, repeats=2, **kwargs
            )
            return (*triple.rates(), triple.trials)

        serial = cell(workers=1)
        assert cell(workers=2) == serial
        assert cell(workers=3) == serial


class TestBatchSimOrdering:
    """The shared heap's trial-id tagging and horizon invariants."""

    def test_adopt_requires_fresh_clock(self):
        batch = BatchSim()
        dirty = SimClock()
        dirty.schedule(1.0, lambda: None)
        with pytest.raises(RuntimeError):
            batch.adopt(dirty)
        clean = SimClock()
        assert batch.adopt(clean) == 0
        with pytest.raises(RuntimeError, match="clock already adopted"):
            batch.adopt(clean)
        assert batch.adopt(SimClock(), flow_id=7) == 1
        with pytest.raises(RuntimeError, match="flow id 7 already adopted"):
            batch.adopt(SimClock(), flow_id=7)
        batch.release()
        # Release forgets every adopted clock and flow id.
        assert batch.adopt(clean, flow_id=7) == 0

    def test_seq_ranges_are_disjoint_per_trial(self):
        batch = BatchSim()
        clocks = [SimClock() for _ in range(3)]
        for tid, clock in enumerate(clocks):
            assert batch.adopt(clock) == tid
            assert clock._seq == tid << TRIAL_SHIFT
        batch.release()

    def test_per_trial_horizons(self):
        batch = BatchSim()
        fired = []
        clocks = [SimClock(), SimClock()]
        for tid, clock in enumerate(clocks):
            batch.adopt(clock)
            clock.schedule(1.0, fired.append, (tid, 1.0))
            clock.schedule(5.0, fired.append, (tid, 5.0))
        batch.run([2.0, 10.0])
        batch.release()
        # Trial 0's t=5 event is past its own horizon: dropped, exactly
        # as the serial loop would have left it queued and never fired.
        assert fired == [(0, 1.0), (1, 1.0), (1, 5.0)]
        assert clocks[0].now == 2.0 and clocks[1].now == 10.0

    def test_lowered_horizon_stops_only_that_trial(self):
        """An event lowering its own clock's ``_run_until`` stops that
        trial at the same event and the same ``now`` as the serial loop;
        the other adopted trials run to their horizons as before."""

        def schedule(clock, fired, stopper):
            def stop():
                fired.append("stop")
                clock._run_until = clock.now

            clock.schedule(0.5, fired.append, "early")
            if stopper:
                clock.schedule(1.0, stop)
            clock.schedule(1.0, fired.append, "same-instant")
            clock.schedule(2.0, fired.append, "late")

        serial_fired = []
        serial = SimClock()
        schedule(serial, serial_fired, stopper=True)
        serial.run(until=10.0)

        batch = BatchSim()
        clocks = [SimClock() for _ in range(3)]
        fired = [[] for _ in clocks]
        for tid, clock in enumerate(clocks):
            batch.adopt(clock)
            schedule(clock, fired[tid], stopper=(tid == 1))
        batch.run(10.0)
        batch.release()
        assert fired[1] == serial_fired == ["early", "stop", "same-instant"]
        assert clocks[1].now == serial.now == 1.0
        for tid in (0, 2):
            assert fired[tid] == ["early", "same-instant", "late"]
            assert clocks[tid].now == 10.0

    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=400), min_size=1, max_size=12),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_interleaved_trials_never_reorder_within_a_trial(self, trial_times):
        """Property: per-trial firing order == serial firing order.

        Events from different trials interleave freely in the shared
        heap (including exact time ties across trials), but within one
        trial the order must be nondecreasing time with scheduling-order
        tie-breaks — byte-identical to a private clock.
        """
        batch = BatchSim()
        fired = {tid: [] for tid in range(len(trial_times))}
        for tid, times in enumerate(trial_times):
            clock = SimClock()
            batch.adopt(clock)
            for index, tenths in enumerate(times):
                clock.schedule(tenths / 10.0, fired[tid].append, index)
        executed = batch.run(until=100.0)
        batch.release()
        assert executed == sum(len(times) for times in trial_times)
        for tid, times in enumerate(trial_times):
            expected = [
                index
                for index, _ in sorted(enumerate(times), key=lambda p: (p[1], p[0]))
            ]
            assert fired[tid] == expected


class TestMapTrialsEdgeCases:
    """Chunk arithmetic at the degenerate ends of the task range."""

    def test_zero_tasks(self):
        assert map_trials(_square, [], workers=4) == []

    def test_single_task(self):
        assert map_trials(_square, [(7,)], workers=4) == [49]

    def test_fewer_tasks_than_workers(self):
        # workers clamp to the task count; order is still preserved.
        assert map_trials(_square, [(0,), (1,), (2,)], workers=4) == [0, 1, 4]

    def test_chunked_map_matches_serial_map(self):
        # 11 tasks on 2 workers: 8 uneven contiguous chunks; 3 workers:
        # 11 one-task chunks.
        tasks = [(task,) for task in range(11)]
        expected = [task * task for task in range(11)]
        assert map_trials(_square, tasks, workers=1) == expected
        assert map_trials(_square, tasks, workers=2) == expected
        assert map_trials(_square, tasks, workers=3) == expected

    def test_pool_follows_the_requested_worker_count(self):
        naps = [(task,) for task in range(24)]
        assert len(set(map_trials(_worker_pid, naps, workers=3))) <= 3
        # A map with fewer tasks than workers still reuses the pool.
        pool = parallel._pool
        assert map_trials(_square, [(1,), (2,)], workers=3) == [1, 4]
        assert parallel._pool is pool
        # A 2-worker map after a 3-worker one runs on 2 processes, not on
        # the 3 the earlier map started.
        assert len(set(map_trials(_worker_pid, naps, workers=2))) <= 2
        parallel.shutdown_pool()

    def test_fewer_tasks_than_chunks(self):
        # Chunks clamp to the task count: one task per chunk.
        count = DEFAULT_CHUNKS_PER_WORKER * 2 - 1
        tasks = [(task,) for task in range(count)]
        assert map_trials(_square, tasks, workers=2) == [
            t * t for t in range(count)
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_task_is_the_functions_arguments(self, workers):
        tasks = [(base, exponent) for base in range(3) for exponent in range(4)]
        assert map_trials(_power, tasks, workers=workers) == [
            base ** exponent for base, exponent in tasks
        ]
