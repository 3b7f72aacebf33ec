"""Batch-stepped execution: many independent trials, one event heap.

A paper-scale sweep runs thousands of *independent* trials whose event
loops are individually tiny (a few hundred events each).  Paying a fresh
heap, run-loop entry, and per-trial drain for each one is pure scheduler
overhead.  :class:`BatchSim` amortizes it: the clocks of many trials are
*adopted* into one shared binary heap and a single run loop drains all of
them together.

Correctness rests on two invariants:

1. **Trial-id tagging via sequence striding.**  Heap entries stay the
   ``(time, seq, event)`` 3-tuples the whole engine pushes (including the
   inlined push in ``network._post``); adoption simply sets the adopted
   clock's ``_seq`` to ``tid << TRIAL_SHIFT``.  Every scheduling path
   only ever increments ``_seq``, so each trial's entries occupy a
   disjoint, per-trial monotonic seq range: tie-breaking *within* a trial
   is byte-identical to serial execution, cross-trial keys never collide,
   and the run loop recovers the owning trial with ``seq >> TRIAL_SHIFT``.

2. **Per-trial virtual clocks.**  Adopted clocks share only the queue;
   each keeps its own ``_now`` (set from the popped entry's time before
   the event fires) and its own ``_run_until`` horizon, so timestamps
   observed by TCP stacks, GFW devices, and trace ladders are exactly
   what a private clock would have shown.  Trials never share RNGs or
   mutable state — independence is the caller's contract, enforced by the
   scenario layer which builds disjoint object graphs per trial.

An event popped past its own trial's horizon is discarded, which is
observably identical to the serial run loop leaving it queued (the
scenario is reset before any later run could fire it).  The horizon is
read live, as :meth:`SimClock.run` reads it: a trial whose event lowers
its own clock's ``_run_until`` (an HTTP trial whose record is final)
stops there, and its remaining entries are discarded as they surface,
while every other adopted trial runs on to its own horizon.

**Shared-device batch mode** (``BatchSim(shared=True)``) inverts the
independence contract on purpose: the fleet engine multiplexes many
*client flows* whose GFW devices deliberately share one flow table,
blacklist, and cluster, so the censor's stateful machinery is exercised
under concurrent load (LRU churn, resync pressure, blacklist collateral).
Two things change:

- each adoption carries an explicit **flow id** (:meth:`adopt`'s
  ``flow_id``), a stable workload-level identity that shared devices use
  to namespace their flow-table keys.  Trial ids restart at 0 for every
  ``BatchSim``; flow ids are global across the waves of a fleet run, so
  shared state keyed by them never aliases across waves;
- cross-trial event interleaving is now *observable* (trials race for
  the shared tables in heap order).  The heap order itself is still
  deterministic — ``(time, seq)`` keys are pure functions of the
  adopted trials — so a fleet wave remains reproducible; it is just no
  longer equivalent to running its trials one at a time, which is the
  entire point.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Union

from repro.netsim.simclock import SimClock, _INF
from repro.telemetry.trace import get_tracer

#: Bits reserved for the per-trial sequence counter.  2**32 scheduling
#: operations per trial is ~three orders of magnitude above the run
#: loop's runaway guard, so a trial can never overflow into the next
#: trial's seq range.
TRIAL_SHIFT = 32


class BatchSim:
    """Multiplexes many independent trials' events through one heap.

    Lifecycle::

        batch = BatchSim()
        for each trial:
            scenario = acquire_scenario(...)   # clock reset -> empty queue
            batch.adopt(scenario.clock)
            ... per-trial setup (posts events on the adopted clock) ...
        batch.run(duration)                    # runs every trial to its horizon
        ... per-trial finalization ...
        batch.release()                        # detach clocks

    ``adopt`` must see a freshly reset clock (empty queue); resetting a
    clock *while* adopted would clear the shared heap and is a contract
    violation.

    ``shared=True`` declares shared-device mode: the caller's trials
    intentionally share mutable device state (the fleet workload), and
    each adoption may carry an explicit ``flow_id`` — the stable
    workload-level identity shared devices key their per-flow state by.
    """

    __slots__ = ("_queue", "_clocks", "_flow_ids", "shared")

    def __init__(self, shared: bool = False) -> None:
        self._queue: list = []
        self._clocks: List[SimClock] = []
        self._flow_ids: List[int] = []
        self.shared = shared

    @property
    def trials(self) -> int:
        return len(self._clocks)

    def adopt(self, clock: SimClock, flow_id: Optional[int] = None) -> int:
        """Point ``clock`` at the shared heap; returns its trial id.

        ``flow_id`` (shared-device mode) is the workload-level flow
        identity for this trial; it defaults to the trial id.  Flow ids
        must be unique within one batch — duplicate ids would alias
        shared per-flow state between two live trials.
        """
        if clock._queue:
            raise RuntimeError("adopt requires a freshly reset clock")
        if any(adopted is clock for adopted in self._clocks):
            raise RuntimeError("clock already adopted")
        tid = len(self._clocks)
        if flow_id is None:
            flow_id = tid
        elif flow_id in self._flow_ids:
            raise RuntimeError(f"flow id {flow_id} already adopted in this batch")
        self._clocks.append(clock)
        self._flow_ids.append(flow_id)
        clock._queue = self._queue
        clock._seq = tid << TRIAL_SHIFT
        return tid

    def flow_id_for(self, tid: int) -> int:
        """The workload flow id adopted under trial id ``tid``."""
        return self._flow_ids[tid]

    def run(
        self,
        until: Union[float, Sequence[float]],
        max_events_per_trial: int = 1_000_000,
    ) -> int:
        """Drain the shared heap, firing each event on its own clock.

        ``until`` is either one horizon shared by every trial or a
        per-trial sequence aligned with adoption order.  Returns the
        number of events executed across all trials.
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
        budget = max_events_per_trial * max(1, len(clocks))
        tracer = get_tracer()
        span = tracer.begin(
            f"batch.run[{len(clocks)}]", "batch-run",
            trials=len(clocks), shared=self.shared,
        )
        try:
            while queue and executed < budget:
                time, seq, event = pop(queue)
                clock = clocks[seq >> TRIAL_SHIFT]
                if time > clock._run_until:
                    # This trial's horizon has passed; the serial loop
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
                clock._run_until = _INF
            tracer.end(span, executed=executed)
        return executed

    def release(self) -> None:
        """Detach every adopted clock, giving each a fresh private queue.

        Leftover entries (post-horizon events, cancelled timers) are
        dropped with the shared heap — exactly what ``SimClock.reset``
        does to a private queue between trials.
        """
        for clock in self._clocks:
            clock._queue = []
            clock._run_until = _INF
        self._clocks.clear()
        self._flow_ids.clear()
        self._queue = []
