"""Unified telemetry: metrics, one observability recorder, exporters.

Five layers, one import surface:

- :mod:`repro.telemetry.metrics` — the process-local
  :class:`~repro.telemetry.metrics.MetricsRegistry` of counters, gauges,
  and fixed-bucket histograms, with picklable snapshots the parallel
  trial engine merges across worker processes (order-independently);
- :mod:`repro.telemetry.recorder` — the process-local
  :class:`~repro.telemetry.recorder.Recorder`, one ordered stream behind
  one level (off unless :func:`~repro.telemetry.recorder.observing`
  raises it to spans or events): the span forest (sweep →
  chunk → wave → trial/flow → phase, wall + sim time), the bounded,
  sequenced ring of :class:`~repro.telemetry.events.TelemetryEvent`
  records that the trace recorder, the GFW device, strategies, and
  INTANG publish, and anomaly dumps cut from that ring.  Its drained
  records merge across worker chunks like registry deltas.  The event schema
  lives in :mod:`repro.telemetry.events`, the span shape and the
  serial-vs-parallel comparison in :mod:`repro.telemetry.trace`, and the
  dump snapshot helpers in :mod:`repro.telemetry.flight`;
- :mod:`repro.telemetry.export` — Chrome/Perfetto trace-event JSON,
  OpenMetrics text exposition, and p50/p90/p99 summaries;
- :mod:`repro.telemetry.diagnose` — ``diagnose_trial()``, which re-runs
  one cell with the event ring on and renders the merged packet+state
  timeline.

Every name is exported lazily (:mod:`repro.exports`): ``from
repro.telemetry import diagnose_trial`` loads the diagnosis layer, and
``import repro.telemetry`` alone loads no layer.
"""

from repro.exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".metrics": (
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "filter_snapshot",
        "get_registry", "reset_registry",
    ),
    ".events": ("TelemetryEvent",),
    ".trace": ("SEMANTIC_KINDS", "make_span", "trial_semantic"),
    ".recorder": (
        "EVENTS", "OFF", "SPANS", "Recorder", "get_recorder", "observing",
        "reset_recorder",
    ),
    ".diagnose": ("TrialDiagnosis", "diagnose_trial"),
    ".export": (
        "chrome_trace", "histogram_quantile", "latency_summary", "openmetrics",
        "write_chrome_trace",
    ),
})
