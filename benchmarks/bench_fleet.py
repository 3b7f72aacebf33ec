"""Fleet engine capacity and strategy effectiveness under censor load,
both against **one shared GFW installation**.

1. capacity: a benign population whose TCBs all survive, so the shared
   flow table must hold every flow at once and evict none
   (``REPRO_FLEET_FLOWS`` flows, default 10000; CI smoke uses 2000);
2. the registry's ``fleet_effectiveness`` curve across the table's
   capacity (``repro fleet run --curve`` sweeps other sizes).

Neither leg is timed; perfbench's ``fleet_contended`` measures speed.
"""

from conftest import report_artifact

from repro.core.env import env_int
from repro.experiments.ablations import CURVE_MAX_FLOWS
from repro.experiments.fleet import FleetSpec, run_fleet


def test_fleet_tracks_every_flow():
    """With 10k concurrent flows the shared censor tracks all, evicts none."""
    flows = env_int("REPRO_FLEET_FLOWS", 10_000, minimum=1)
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
    """Past capacity the shared table churns; well under it nothing
    mid-stream is forgotten."""
    _, points = report_artifact("fleet_effectiveness")
    assert any(size > CURVE_MAX_FLOWS for size, _ in points)
    for size, result in points:
        if size > CURVE_MAX_FLOWS:
            assert result.flows_evicted > 0
        if size <= CURVE_MAX_FLOWS // 2 + 1:
            assert result.flows_evicted_active == 0
