"""The process-local metrics registry and its mergeable snapshots.

One :class:`MetricsRegistry` per process holds every instrument the
simulator, the GFW models, the strategies, and the experiment harness
register: monotonic :class:`Counter`\\ s, last-value :class:`Gauge`\\ s,
and fixed-bucket :class:`Histogram`\\ s.  The design constraint is the
parallel trial engine (:mod:`repro.experiments.parallel`): worker
processes return a :meth:`MetricsRegistry.snapshot` *delta* alongside
their trial results, and the parent merges those deltas back — so every
instrument must be

- **picklable as plain data** — snapshots are dicts of ints/floats/lists,
  never instrument objects;
- **order-independently mergeable** — counters and histogram buckets add,
  gauges take the maximum, so ``merge(a); merge(b)`` equals
  ``merge(b); merge(a)`` and a fanned-out sweep's merged registry equals
  the serial run's.

Instruments are created on first request and live for the process;
:meth:`MetricsRegistry.reset` zeroes them **in place**, so references
cached by hot paths (the GFW device binds its counters to module names)
stay valid across experiment sessions and test isolation resets.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "filter_snapshot",
    "get_registry",
    "reset_registry",
]

#: Default histogram bucket upper bounds (bytes-ish scale); callers pass
#: their own when the quantity has a different shape.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0,
)


class Counter:
    """A monotonically increasing count (merge: addition)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A last-written value (merge: maximum, the only order-free choice)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def reset(self) -> None:
        self.value = 0.0


class Histogram:
    """Fixed-bucket histogram (merge: bucket-wise addition).

    ``buckets`` are inclusive upper bounds; one implicit overflow bucket
    catches everything above the last bound.  Buckets are fixed at
    registration so per-worker snapshots merge bucket-for-bucket.
    """

    __slots__ = ("name", "buckets", "counts", "sum", "count")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name} needs ascending buckets")
        self.name = name
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                break
        else:
            self.counts[-1] += 1
        self.sum += value
        self.count += 1

    def snapshot(self) -> Dict:
        """This histogram as a registry snapshot stores it."""
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    def reset(self) -> None:
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0


class MetricsRegistry:
    """A named collection of instruments with mergeable snapshots."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- registration ----------------------------------------------------
    # A registered name returns its instrument at once; only a new name
    # is type-checked against the other families and created.
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            self._check_free(name, self._counters)
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            self._check_free(name, self._gauges)
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        existing = self._histograms.get(name)
        if existing is not None:
            if existing.buckets != tuple(float(b) for b in buckets):
                raise ValueError(
                    f"histogram {name} already registered with buckets "
                    f"{existing.buckets}"
                )
            return existing
        self._check_free(name, self._histograms)
        histogram = Histogram(name, buckets)
        self._histograms[name] = histogram
        return histogram

    def _check_free(self, name: str, own: Dict) -> None:
        for family in (self._counters, self._gauges, self._histograms):
            if family is not own and name in family:
                raise ValueError(
                    f"instrument {name!r} already registered with a "
                    f"different type"
                )

    # -- reads -----------------------------------------------------------
    def counter_value(self, name: str) -> int:
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    def names(self) -> List[str]:
        return sorted(
            list(self._counters) + list(self._gauges) + list(self._histograms)
        )

    # -- snapshots -------------------------------------------------------
    def snapshot(self) -> Dict:
        """A JSON-representable, picklable image of every instrument."""
        return {
            "counters": {
                name: counter.value for name, counter in self._counters.items()
            },
            "gauges": {name: gauge.value for name, gauge in self._gauges.items()},
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in self._histograms.items()
            },
        }

    def diff(self, before: Dict) -> Dict:
        """The additive delta from ``before`` (an earlier snapshot) to now.

        This is what a pool worker returns per task: counters and
        histograms subtract, gauges report their current value (the
        parent merges gauges by maximum).
        """
        now = self.snapshot()
        before_counters = before.get("counters", {})
        before_histograms = before.get("histograms", {})
        # Zero-valued entries are kept on purpose: merging a delta then
        # registers every instrument the worker knew about, so the
        # parent's post-merge snapshot is *identical* to a serial run's
        # (same names, same zeros), not merely equal on nonzero values.
        delta_counters = {}
        for name, value in now["counters"].items():
            delta_counters[name] = value - before_counters.get(name, 0)
        delta_histograms = {}
        for name, data in now["histograms"].items():
            prior = before_histograms.get(name)
            if prior is None:
                delta_histograms[name] = data
                continue
            delta_histograms[name] = {
                "buckets": data["buckets"],
                "counts": [
                    a - b for a, b in zip(data["counts"], prior["counts"])
                ],
                "sum": data["sum"] - prior["sum"],
                "count": data["count"] - prior["count"],
            }
        return {
            "counters": delta_counters,
            "gauges": dict(now["gauges"]),
            "histograms": delta_histograms,
        }

    def merge(self, snapshot: Dict) -> None:
        """Fold a snapshot (or delta) into this registry, order-free."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).value += value
        for name, value in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name)
            gauge.value = max(gauge.value, value)
        for name, data in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name, data["buckets"])
            histogram.counts = [
                a + b for a, b in zip(histogram.counts, data["counts"])
            ]
            histogram.sum += data["sum"]
            histogram.count += data["count"]

    # -- lifecycle -------------------------------------------------------
    def reset(self) -> None:
        """Zero every instrument in place (references stay valid)."""
        for counter in self._counters.values():
            counter.reset()
        for gauge in self._gauges.values():
            gauge.reset()
        for histogram in self._histograms.values():
            histogram.reset()

    # -- rendering -------------------------------------------------------
    def format_table(self, prefix: Optional[str] = None) -> str:
        """A human-readable table of every (optionally filtered) instrument."""
        rows: List[Tuple[str, str, str]] = []
        for name in sorted(self._counters):
            rows.append((name, "counter", str(self._counters[name].value)))
        for name in sorted(self._gauges):
            rows.append((name, "gauge", f"{self._gauges[name].value:g}"))
        for name in sorted(self._histograms):
            histogram = self._histograms[name]
            mean = histogram.sum / histogram.count if histogram.count else 0.0
            rows.append(
                (name, "histogram",
                 f"count={histogram.count} mean={mean:.1f} "
                 f"buckets={histogram.counts}")
            )
        if prefix is not None:
            rows = [row for row in rows if row[0].startswith(prefix)]
        if not rows:
            return "(no instruments)"
        width_name = max(len(row[0]) for row in rows)
        width_type = max(len(row[1]) for row in rows)
        lines = [
            f"{name:<{width_name}}  {kind:<{width_type}}  {value}"
            for name, kind, value in rows
        ]
        return "\n".join(lines)


def filter_snapshot(snapshot: Dict, prefix: Optional[str]) -> Dict:
    """A snapshot restricted to instrument names starting with ``prefix``.

    The JSON twin of :meth:`MetricsRegistry.format_table`'s prefix
    filter — fleet runs dump thousands of counters, and the consumers
    (``repro telemetry metrics --prefix``, the OpenMetrics exporter)
    usually want one dotted family.  A falsy prefix returns the
    snapshot unchanged.
    """
    if not prefix:
        return snapshot
    return {
        family: {
            name: value
            for name, value in snapshot.get(family, {}).items()
            if name.startswith(prefix)
        }
        for family in ("counters", "gauges", "histograms")
    }


# ---------------------------------------------------------------------------
# The process-wide registry.  Worker processes each build their own on
# first use; the parallel engine merges their snapshot deltas back here.
# ---------------------------------------------------------------------------
_registry: Optional[MetricsRegistry] = None


def get_registry() -> MetricsRegistry:
    """The process-local registry (created on first use)."""
    global _registry
    if _registry is None:
        _registry = MetricsRegistry()
    return _registry


def reset_registry() -> None:
    """Zero the process registry in place (test isolation)."""
    if _registry is not None:
        _registry.reset()
