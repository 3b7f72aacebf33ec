"""One event heap for a fleet wave: many client flows, one shared censor.

The fleet engine (:mod:`repro.experiments.fleet`) runs a wave of client
flows whose GFW devices deliberately share one flow table, blacklist and
cluster, so the censor's stateful machinery is exercised under
concurrent load (LRU churn, resync pressure, blacklist collateral).
:class:`BatchSim` gives the wave one event heap: the clocks of its flows
are *adopted* into a shared binary heap and a single run loop drains
them all, so the flows race for the shared tables in one deterministic
order.  Independent trials never come here; each runs on its own clock.

Correctness rests on three invariants:

1. **Trial-id tagging via sequence striding.**  Heap entries stay the
   ``(time, seq, event)`` 3-tuples the whole engine pushes (including the
   inlined pushes in ``network``'s ``_Transit``); adoption simply sets the adopted
   clock's ``_seq`` to ``tid << TRIAL_SHIFT``.  Every scheduling path
   only ever increments ``_seq``, so each flow's entries occupy a
   disjoint, per-flow monotonic seq range: tie-breaking *within* a flow
   is the same as on a private clock, cross-flow keys never collide, and
   the run loop recovers the owning flow with ``seq >> TRIAL_SHIFT``.

2. **Per-flow virtual clocks.**  Adopted clocks share only the queue;
   each keeps its own ``_now`` (set from the popped entry's time before
   the event fires) and its own ``_run_until`` horizon, so timestamps
   observed by TCP stacks, GFW devices, and trace ladders are exactly
   what a private clock would have shown.  An event popped past its own
   flow's horizon is discarded, as a private run loop would leave it
   queued and never fire it.  The horizon is read live, as
   :meth:`SimClock.run` reads it, so an event that lowers its own
   clock's ``_run_until`` stops that flow alone.

3. **Stable flow ids.**  Each adoption carries an explicit flow id
   (:meth:`adopt`'s ``flow_id``), a workload-level identity that shared
   devices use to namespace their flow-table keys.  Trial ids restart
   at 0 for every ``BatchSim``; flow ids are global across the waves of
   a fleet run, so shared state keyed by them never aliases across
   waves.

Cross-flow interleaving is *observable* (flows race for the shared
tables in heap order), but the order itself is deterministic —
``(time, seq)`` keys are pure functions of the adopted flows — so a
wave is reproducible.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Sequence, Set, Union

from repro.netsim.simclock import SimClock
from repro.telemetry.recorder import get_recorder

#: Bits reserved for the per-trial sequence counter.  2**32 scheduling
#: operations per trial is ~three orders of magnitude above the run
#: loop's runaway guard, so a trial can never overflow into the next
#: trial's seq range.
TRIAL_SHIFT = 32
#: Runaway guard: a wave's event budget per adopted trial.
MAX_EVENTS_PER_TRIAL = 1_000_000


class BatchSim:
    """Multiplexes one fleet wave's flows through one event heap.

    Lifecycle::

        batch = BatchSim()
        for each flow:
            scenario = acquire_scenario(...)   # fresh clock -> empty queue
            batch.adopt(scenario.clock, flow_id=...)
            ... per-flow setup (posts events on the adopted clock) ...
        batch.run(horizons)                    # runs every flow to its horizon
        batch.release()                        # detach clocks
        ... per-flow finalization ...

    ``adopt`` must see a fresh clock (empty queue); resetting a clock
    *while* adopted would clear the shared heap and is a contract
    violation.
    """

    __slots__ = ("_queue", "_clocks", "_clock_ids", "_flow_ids")

    def __init__(self) -> None:
        self._queue: list = []
        self._clocks: List[SimClock] = []
        #: ``id()`` of every adopted clock (alive in ``_clocks``) and
        #: every adopted flow id, for the duplicate checks in :meth:`adopt`.
        self._clock_ids: Set[int] = set()
        self._flow_ids: Set[int] = set()

    @property
    def trials(self) -> int:
        return len(self._clocks)

    def adopt(self, clock: SimClock, flow_id: Optional[int] = None) -> int:
        """Point ``clock`` at the shared heap; returns its trial id.

        ``flow_id`` is the workload-level flow identity for this trial;
        it defaults to the trial id.  Flow ids must be unique within one
        batch — duplicate ids would alias shared per-flow state between
        two live trials.
        """
        if clock._queue:
            raise RuntimeError("adopt requires a fresh clock (empty queue)")
        if id(clock) in self._clock_ids:
            raise RuntimeError("clock already adopted")
        tid = len(self._clocks)
        if flow_id is None:
            flow_id = tid
        elif flow_id in self._flow_ids:
            raise RuntimeError(f"flow id {flow_id} already adopted in this batch")
        self._clocks.append(clock)
        self._clock_ids.add(id(clock))
        self._flow_ids.add(flow_id)
        clock._queue = self._queue
        clock._seq = tid << TRIAL_SHIFT
        return tid

    def run(self, until: Union[float, Sequence[float]]) -> int:
        """Drain the shared heap, firing each event on its own clock.

        ``until`` is either one horizon shared by every trial or a
        per-trial sequence aligned with adoption order.  Returns the
        number of events executed across all trials, at most
        :data:`MAX_EVENTS_PER_TRIAL` per adopted trial.
        """
        clocks = self._clocks
        if isinstance(until, (int, float)):
            untils = [float(until)] * len(clocks)
        else:
            untils = [float(bound) for bound in until]
            if len(untils) != len(clocks):
                raise ValueError(
                    f"{len(untils)} horizons for {len(clocks)} adopted trials"
                )
        for clock, bound in zip(clocks, untils):
            clock._run_until = bound
        queue = self._queue
        pop = heapq.heappop
        executed = 0
        budget = MAX_EVENTS_PER_TRIAL * max(1, len(clocks))
        recorder = get_recorder()
        span = recorder.begin(
            f"batch.run[{len(clocks)}]", "batch-run", trials=len(clocks)
        )
        try:
            while queue and executed < budget:
                time, seq, event = pop(queue)
                clock = clocks[seq >> TRIAL_SHIFT]
                if time > clock._run_until:
                    # This flow's horizon has passed; a private run loop
                    # would have left the event queued and never fired it.
                    continue
                if time > clock._now:
                    clock._now = time
                if event.cancelled:
                    continue
                event.fire()
                executed += 1
        finally:
            for clock in clocks:
                if clock._now < clock._run_until:
                    clock._now = clock._run_until
                clock._run_until = math.inf
            recorder.end(span, executed=executed)
        return executed

    def release(self) -> None:
        """Detach every adopted clock, giving each a fresh private queue.

        Leftover entries (post-horizon events, cancelled timers) are
        dropped with the shared heap, as ``SimClock.reset`` drops a
        private queue's.
        """
        for clock in self._clocks:
            clock._queue = []
            clock._run_until = math.inf
            clock._tail = None
        self._clocks.clear()
        self._clock_ids.clear()
        self._flow_ids.clear()
        self._queue = []
