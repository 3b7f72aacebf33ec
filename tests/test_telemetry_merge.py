"""The worker-merge protocol: per-worker registry deltas folded back into
the parent must reproduce the serial run's registry exactly, whatever
order the workers finish in."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import (
    CHINA_VANTAGE_POINTS,
    DEFAULT_CALIBRATION,
    outside_china_catalog,
    run_http_trial,
)
from repro.experiments.parallel import map_trials, shutdown_pool
from repro.telemetry import MetricsRegistry, get_registry

from helpers import ENGINE_PREFIXES


def _mergeable(snapshot):
    """The order-independently mergeable part of a snapshot: counters and
    histogram buckets (gauges merge by max and are compared separately).

    Engine-owned instruments are stripped: how much scenario/netsim work
    each process performed depends on its execution shape, not on the
    trials — only trial-owned accounting must merge identically."""
    return {
        "counters": {
            name: value
            for name, value in snapshot["counters"].items()
            if not name.startswith(ENGINE_PREFIXES)
        },
        "histograms": snapshot["histograms"],
    }


# ---------------------------------------------------------------------------
# Property: merging per-worker deltas in ANY order equals the serial run.
#
# One small Table-1 sweep runs once (module-level memo); each cell's
# registry delta stands in for one worker's returned snapshot.  The
# serial reference is the whole-sweep delta.
# ---------------------------------------------------------------------------
_SWEEP = {}


def _sweep_deltas():
    if _SWEEP:
        return _SWEEP["chunks"], _SWEEP["serial"]
    registry = get_registry()
    sweep_before = registry.snapshot()
    chunks = []
    sites = outside_china_catalog(count=2)
    for vantage in CHINA_VANTAGE_POINTS[:3]:
        for website in sites:
            before = registry.snapshot()
            run_http_trial(
                vantage, website, "none", DEFAULT_CALIBRATION, seed=1
            )
            chunks.append(registry.diff(before))
    _SWEEP["chunks"] = chunks
    _SWEEP["serial"] = registry.diff(sweep_before)
    return _SWEEP["chunks"], _SWEEP["serial"]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_merge_is_permutation_invariant(data):
    chunks, serial = _sweep_deltas()
    order = data.draw(st.permutations(range(len(chunks))))
    merged = MetricsRegistry()
    for index in order:
        merged.merge(chunks[index])
    snapshot = merged.snapshot()
    assert _mergeable(snapshot) == _mergeable(serial)
    # Gauges merge by maximum; the serial diff reports current values,
    # which for a monotone sweep is the same maximum.
    assert snapshot["gauges"] == serial["gauges"]


def test_chunk_deltas_register_every_instrument():
    """Zero-valued entries survive diff() so a merged registry lists the
    same instruments as the serial one — not just the nonzero ones."""
    chunks, serial = _sweep_deltas()
    merged = MetricsRegistry()
    merged.merge(chunks[0])
    assert set(merged.snapshot()["counters"]) == set(serial["counters"])


# ---------------------------------------------------------------------------
# The real thing: a forked pool with REPRO_WORKERS=2 must hand back
# deltas that merge into exactly the serial registry.
# ---------------------------------------------------------------------------
def _one_trial(vantage, website):
    """Module-level so the process pool can pickle it."""
    record = run_http_trial(
        vantage, website, "none", DEFAULT_CALIBRATION, seed=2
    )
    return record.outcome.value


def test_parallel_sweep_matches_serial_registry(monkeypatch):
    registry = get_registry()
    sites = outside_china_catalog(count=2)
    cells = [
        (vantage, website)
        for vantage in CHINA_VANTAGE_POINTS[:2]
        for website in sites
    ]

    before = registry.snapshot()
    serial_outcomes = map_trials(_one_trial, cells, workers=1)
    serial_delta = registry.diff(before)

    # Fork fresh workers under the patched environment.
    shutdown_pool()
    monkeypatch.setenv("REPRO_WORKERS", "2")
    try:
        before = registry.snapshot()
        parallel_outcomes = map_trials(_one_trial, cells)
        parallel_delta = registry.diff(before)
    finally:
        shutdown_pool()  # do not leak env-poisoned workers to other tests

    assert parallel_outcomes == serial_outcomes
    assert _mergeable(parallel_delta) == _mergeable(serial_delta)
