"""Fleet engine capacity and strategy effectiveness under censor load.

Two legs, both against **one shared GFW installation** (the fleet
engine's whole point — the paper probed the censor one flow at a time):

1. capacity: a benign-dominated population whose TCBs all survive (the
   evolved model never tears down on FIN), so the shared flow table
   must hold every fleet flow concurrently while the batch heap drains
   waves of them, and evict none;
2. effectiveness-vs-load: the Table-1 strategy pool swept across fleet
   sizes below and above the shared table's ``max_flows`` capacity, the
   measurement the paper could never take on the live GFW.  Blacklist
   contention (another client blacklists your host pair first) and LRU
   eviction (the censor forgets mid-stream flows) both move the rates.

Neither leg is timed; ``perfbench``'s ``fleet_contended`` workload
measures the fleet's speed.  Sizes are environment-tunable:

- ``REPRO_FLEET_FLOWS`` — capacity-leg fleet size (default 10000; CI
  smoke uses 2000);
- ``REPRO_FLEET_CURVE`` — comma-separated effectiveness sweep sizes
  (default ``256,1024,4096`` around the scaled 512-flow capacity).
"""

import os

from conftest import report

from repro.core.env import env_int
from repro.experiments.fleet import FleetSpec, run_fleet

#: Shared-table capacity for the effectiveness sweep.  This is the
#: ``GFWConfig.max_flows`` knob, scaled down from the default 4096 so
#: the sweep spans the capacity in CI time; the fleet sizes below and
#: above it are what matter, not its absolute value.
CURVE_MAX_FLOWS = 512


def fleet_flows(default: int = 10_000) -> int:
    return env_int("REPRO_FLEET_FLOWS", default, minimum=1)


def curve_sizes(default: str = "256,1024,4096"):
    raw = os.environ.get("REPRO_FLEET_CURVE", default)
    return [int(part) for part in raw.split(",") if part.strip()]


def test_fleet_tracks_every_flow():
    """With 10k concurrent flows the shared censor tracks all, evicts none."""
    flows = fleet_flows()
    result = run_fleet(FleetSpec(
        flows=flows,
        groups=1,                 # one shared censor
        window=256,               # concurrent flows per batch heap
        sensitive_fraction=0.0,   # no blacklistings -> every TCB persists
        max_flows=max(16_384, flows + 1),  # capacity above the fleet
    ))
    assert result.peak_flows_tracked == flows
    assert result.flows_evicted == 0


def test_fleet_effectiveness_vs_load():
    """Table-1 strategy success as the fleet sweeps past ``max_flows``.

    The whole Table-1 pool rides along (no silent strategy caps); the
    window is sized at the table capacity so flows genuinely race for
    slots once the fleet outgrows the table.
    """
    sizes = curve_sizes()
    lines = [
        "Strategy effectiveness vs. GFW load (shared flow table, "
        f"capacity {CURVE_MAX_FLOWS})",
        "  extension measurement: eviction/blacklist coupling is not a "
        "paper result",
    ]
    labels = None
    for size in sizes:
        spec = FleetSpec(
            flows=size,
            groups=1,
            window=CURVE_MAX_FLOWS,
            max_flows=CURVE_MAX_FLOWS,
        )
        result = run_fleet(spec)
        rates = result.strategy_rates()
        if labels is None:
            labels = sorted(rates)
        lines.append(
            f"  {size:>6} flows: "
            f"evict(active/fin)={result.flows_evicted_active}/"
            f"{result.flows_evicted_after_fin} "
            f"evictFN={result.eviction_false_negatives} "
            f"blacklistFP={result.blacklist_false_positives} "
            f"benign={result.success_rate('benign'):.0%}"
        )
        for label in labels:
            if label in rates:
                lines.append(f"      {label:<36} {rates[label]:7.1%}")
        if size > CURVE_MAX_FLOWS:
            # Past capacity the shared table must be churning.
            assert result.flows_evicted > 0
        if size <= CURVE_MAX_FLOWS // 2 + 1:
            # Comfortably under capacity nothing is forgotten.
            assert result.flows_evicted_active == 0
    report("fleet_effectiveness", "\n".join(lines))
