"""Per-layer self time, measured from outside the program.

The benchmark never turns on the program's own ``SpanTracer``,
``EventBus`` or ``FlightRecorder``: the runner stands the replay tier
down under them (``_replay_tier_active``), so a run observed through
them is not the run that was measured.  Instead :class:`LayerTracer`
replaces the public functions at each layer boundary with thin timing
wrappers and keeps the arithmetic here:

- every wrapped call is a frame; its *self time* is its duration minus
  the time covered by wrapped calls made beneath it, so the self times of
  all frames partition the time covered by top-level frames exactly;
- per-packet boundaries are only aggregated (self nanoseconds per layer,
  call count per boundary);
- cell and wave boundaries also become spans (id, parent span, unit id,
  start, duration, self time), kept in memory and written when the run
  ends.

Module-level functions are patched in every ``repro`` module that holds
them under any name (``runner.acquire_scenario`` is the same object as
``scenarios.acquire_scenario``), so a call that goes through an imported
alias is timed too.  Wrappers must be installed before the first scenario
is built: objects built earlier may have captured the original bound
methods.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

perf_ns = time.perf_counter_ns

#: (layer, "module:Qualified.name", role).  Layer names are module
#: names; ``gfw.dpi`` is split out of ``gfw`` so DPI cost is its own
#: figure.  Roles: ``""`` aggregate only, ``"events"`` also sums the
#: call's integer return value (simulator events executed), ``"cell"``
#: and ``"wave"`` also record a span, and ``"count"`` only counts calls
#: (object constructors: too cheap and too many to time without
#: distorting the layers that call them).
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("replay", "repro.experiments.replay:lookup", ""),
    ("replay", "repro.experiments.replay:record", ""),
    ("replay", "repro.experiments.replay:fold", ""),
    ("replay", "repro.experiments.replay:task_key", ""),
    ("replay", "repro.rngledger:begin_ledger", ""),
    ("replay", "repro.rngledger:end_ledger", ""),
    ("result_cache", "repro.experiments.result_cache:lookup", ""),
    ("result_cache", "repro.experiments.result_cache:record_trial", ""),
    ("result_cache", "repro.experiments.result_cache:record_outcome", ""),
    ("result_cache", "repro.experiments.result_cache:trial_key", ""),
    ("scenarios", "repro.experiments.scenarios:acquire_scenario", ""),
    ("scenarios", "repro.experiments.scenarios:release_scenario", ""),
    ("scenarios", "repro.experiments.scenarios:build_scenario", ""),
    ("scenarios", "repro.experiments.scenarios:Scenario.reset", ""),
    ("scenarios", "repro.experiments.scenarios:Scenario.apply_route_drift", ""),
    ("netsim", "repro.netsim.simclock:SimClock.run", "events"),
    ("netsim", "repro.netsim.batch:BatchSim.run", "wave"),
    ("netsim", "repro.netsim.batch:BatchSim.adopt", ""),
    ("netsim", "repro.netsim.batch:BatchSim.release", ""),
    ("netsim", "repro.netsim.network:Network.send", ""),
    ("netsim", "repro.netsim.network:Network.launch", ""),
    ("middlebox", "repro.middlebox.boxes:FragmentHandlingBox.process", ""),
    ("middlebox", "repro.middlebox.boxes:FieldSanitizerBox.process", ""),
    ("middlebox", "repro.middlebox.boxes:StatefulFirewallBox.process", ""),
    ("gfw", "repro.gfw.device:GFWDevice.observe", ""),
    ("gfw", "repro.gfw.blacklist:Blacklist.contains", ""),
    ("gfw", "repro.gfw.blacklist:Blacklist.add", ""),
    ("gfw.dpi", "repro.gfw.dpi:StreamInspector.feed", ""),
    ("tcp", "repro.tcp.stack:TCPConnection.segment_arrived", ""),
    ("tcp", "repro.tcp.stack:TCPConnection.send", ""),
    ("tcp", "repro.tcp.stack:TCPConnection.close", ""),
    ("tcp", "repro.tcp.stack:TCPHost.connect", ""),
    ("tcp", "repro.tcp.reassembly:ReceiveBuffer.add", ""),
    ("netstack", "repro.netstack.packet:tcp_packet", ""),
    ("netstack", "repro.netstack.packet:IPPacket.__init__", "count"),
    ("netstack", "repro.netstack.packet:IPPacket.copy", ""),
    ("netstack", "repro.netstack.packet:packet_shell", "count"),
    ("netstack", "repro.netstack.packet:TCPSegment.__init__", "count"),
    ("netstack", "repro.netstack.packet:TCPSegment.copy", "count"),
    ("netstack", "repro.netstack.packet:segment_shell", "count"),
    ("netstack", "repro.netstack.fragment:fragment_packet", ""),
    ("netstack", "repro.netstack.wire:serialize_tcp", ""),
    ("netstack", "repro.netstack.checksum:internet_checksum", ""),
    ("core", "repro.core.intang:INTANG.__init__", ""),
    ("core", "repro.core.framework:InterceptionFramework._egress", ""),
    ("core", "repro.core.framework:InterceptionFramework._ingress", ""),
    ("apps", "repro.apps.http:HTTPClient.get", ""),
    ("runner", "repro.experiments.runner:run_strategy_cell", "cell"),
    ("runner", "repro.experiments.runner:classify", ""),
    ("runner", "repro.experiments.runner:diagnose_failure", ""),
    ("conformance", "repro.conformance.matrix:run_cell", "cell"),
    ("fleet", "repro.experiments.fleet:run_fleet", "cell"),
    ("fleet", "repro.experiments.fleet:run_fleet_group", "cell"),
    ("fleet", "repro.experiments.fleet:SharedGFWState.graft", ""),
    ("fleet", "repro.experiments.fleet:SharedGFWState.end_wave", ""),
)


def resolve(target: str) -> Tuple[object, str, Callable]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute, function)."""
    module_name, _, qualname = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for name in path:
        owner = getattr(owner, name)
    function = vars(owner)[attr]
    if not callable(function):
        raise TypeError(f"{target} is not a plain function")
    return owner, attr, function


class LayerTracer:
    """Self-time and call-count accounting over wrapped boundaries."""

    def __init__(self) -> None:
        #: boundary -> [calls, self ns, summed return values].
        self.stats: Dict[str, List[int]] = {}
        #: boundary -> layer.
        self.layers: Dict[str, str] = {}
        #: Finished spans, in end order.
        self.spans: List[dict] = []
        #: Unit id stamped on every span (set by the workload loop).
        self.unit: object = None
        self._frames: List[int] = []
        self._span_ids: List[int] = []
        self._next_span = 0
        self._origin = perf_ns()
        self._patched: List[Tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------
    def wrap(self, layer: str, boundary: str, function: Callable, role: str = "") -> Callable:
        """A timing wrapper around ``function``.

        ``self._frames`` holds, per open wrapped call, the time its wrapped
        children have covered so far.  Self time is charged in
        ``finally``, so a call that raises still hands its duration to the
        enclosing frame and its self time to its layer.
        """
        self.layers[boundary] = layer
        stat = self.stats.setdefault(boundary, [0, 0, 0])
        if role in ("cell", "wave"):
            return self._wrap_span(layer, boundary, function, role, stat)
        frames = self._frames
        clock = perf_ns

        if role == "count":
            def counted(*args, **kwargs):
                stat[0] += 1
                return function(*args, **kwargs)

            return counted

        if role == "events":
            def summed(*args, **kwargs):
                frames.append(0)
                start = clock()
                try:
                    result = function(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stat[1] += elapsed - frames.pop()
                    if frames:
                        frames[-1] += elapsed
                    stat[0] += 1
                stat[2] += result
                return result

            return summed

        def timed(*args, **kwargs):
            frames.append(0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[1] += elapsed - frames.pop()
                if frames:
                    frames[-1] += elapsed
                stat[0] += 1

        return timed

    def _wrap_span(self, layer: str, boundary: str, function: Callable, role: str, stat: List[int]) -> Callable:
        frames = self._frames
        span_ids = self._span_ids
        spans = self.spans
        clock = perf_ns
        tracer = self

        def spanned(*args, **kwargs):
            span_id = tracer._next_span
            tracer._next_span += 1
            parent = span_ids[-1] if span_ids else None
            span_ids.append(span_id)
            frames.append(0)
            start = clock()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                own = elapsed - frames.pop()
                span_ids.pop()
                stat[1] += own
                if frames:
                    frames[-1] += elapsed
                stat[0] += 1
                if role == "wave" and isinstance(result, int):
                    stat[2] += result
                spans.append({
                    "id": span_id,
                    "parent": parent,
                    "unit": tracer.unit,
                    "kind": role,
                    "name": boundary,
                    "layer": layer,
                    "start_ns": start - tracer._origin,
                    "dur_ns": elapsed,
                    "self_ns": own,
                })

        return spanned

    # -- installation -----------------------------------------------------
    def install(self, boundaries=BOUNDARIES) -> None:
        """Wrap every boundary, patching aliases in all loaded repro modules."""
        for layer, target, role in boundaries:
            owner, attr, function = resolve(target)
            wrapper = self.wrap(layer, target, function, role)
            self._patch(owner, attr, function, wrapper)
            if isinstance(owner, type):
                continue
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "") or ""
                if module is owner or not name.startswith("repro"):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is function:
                        self._patch(module, alias, function, wrapper)

    def _patch(self, owner: object, attr: str, original: object, wrapper: object) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------
    @property
    def self_ns(self) -> Dict[str, int]:
        """Self nanoseconds per layer (layers that ran at least once)."""
        totals: Dict[str, int] = {}
        for boundary, (calls, own, _returned) in self.stats.items():
            if calls:
                layer = self.layers[boundary]
                totals[layer] = totals.get(layer, 0) + own
        return totals

    @property
    def calls(self) -> Dict[str, int]:
        return {boundary: stat[0] for boundary, stat in sorted(self.stats.items()) if stat[0]}

    def layer_seconds(self) -> Dict[str, float]:
        return {layer: ns / 1e9 for layer, ns in sorted(self.self_ns.items())}

    def covered_ns(self) -> int:
        """Time covered by top-level frames (the sum of all self times)."""
        return sum(stat[1] for stat in self.stats.values())

    def calls_of(self, *boundaries: str) -> int:
        return sum(self.stats[b][0] for b in boundaries if b in self.stats)

    def returned_of(self, *boundaries: str) -> int:
        return sum(self.stats[b][2] for b in boundaries if b in self.stats)


def wave_clock(on_wave: Callable[[], None]) -> Callable[[], None]:
    """Call ``on_wave`` after every ``SharedGFWState.end_wave``.

    The fleet's per-wave host latency needs one timestamp per wave even
    in the untraced run; this is the only hook installed there.  Returns
    the function that removes it.
    """
    from repro.experiments.fleet import SharedGFWState

    original = vars(SharedGFWState)["end_wave"]

    def end_wave(self):
        try:
            return original(self)
        finally:
            on_wave()

    SharedGFWState.end_wave = end_wave

    def remove() -> None:
        SharedGFWState.end_wave = original

    return remove
