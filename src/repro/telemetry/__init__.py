"""Unified telemetry: metrics, one observability recorder, exporters.

Five layers, one import surface:

- :mod:`repro.telemetry.metrics` — the process-local
  :class:`~repro.telemetry.metrics.MetricsRegistry` of counters, gauges,
  and fixed-bucket histograms, with picklable snapshots the parallel
  trial engine merges across worker processes (order-independently);
- :mod:`repro.telemetry.recorder` — the process-local
  :class:`~repro.telemetry.recorder.Recorder`, one ordered stream behind
  one level (``REPRO_OBS=off|spans|events``): the span forest (sweep →
  shard → wave → trial/flow → phase, wall + sim time), the bounded,
  sequenced ring of :class:`~repro.telemetry.events.TelemetryEvent`
  records that the trace recorder, the GFW device, strategies, and
  INTANG publish, and anomaly dumps cut from that ring.  Its drained
  records merge across shards like registry deltas.  The event schema
  lives in :mod:`repro.telemetry.events`, the span shape and the
  serial-vs-sharded comparison in :mod:`repro.telemetry.trace`, and the
  dump snapshot helpers in :mod:`repro.telemetry.flight`;
- :mod:`repro.telemetry.export` — Chrome/Perfetto trace-event JSON,
  OpenMetrics text exposition, and p50/p90/p99 summaries;
- :mod:`repro.telemetry.diagnose` — ``diagnose_trial()`` /
  ``diagnose_fleet_flow()``, which re-run one cell or fleet flow with
  the event ring on and render the merged packet+state timeline.

The diagnosis and export layers pull in heavier dependencies, so
they are exposed lazily — ``from repro.telemetry import
diagnose_trial`` works without making ``import repro.telemetry`` heavy.
"""

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    filter_snapshot,
    get_registry,
    reset_registry,
)
from repro.telemetry.events import TelemetryEvent
from repro.telemetry.trace import SEMANTIC_KINDS, make_span, trial_semantic
from repro.telemetry.recorder import (
    EVENTS,
    OFF,
    SPANS,
    Recorder,
    get_recorder,
    observing,
    reset_recorder,
)

#: Lazily exposed name -> providing submodule.
_LAZY = {
    "TrialDiagnosis": "diagnose",
    "diagnose_trial": "diagnose",
    "FleetFlowDiagnosis": "diagnose",
    "diagnose_fleet_flow": "diagnose",
    "chrome_trace": "export",
    "histogram_quantile": "export",
    "latency_summary": "export",
    "openmetrics": "export",
    "write_chrome_trace": "export",
}

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "filter_snapshot",
    "get_registry",
    "reset_registry",
    "EVENTS",
    "OFF",
    "SPANS",
    "Recorder",
    "TelemetryEvent",
    "get_recorder",
    "observing",
    "reset_recorder",
    "SEMANTIC_KINDS",
    "make_span",
    "trial_semantic",
] + sorted(_LAZY)


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is not None:
        import importlib

        module = importlib.import_module(f"repro.telemetry.{module_name}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
