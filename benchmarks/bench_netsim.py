"""Simulator-core throughput: raw packet traversal and trial rates.

Two views of the heap-scheduled engine:

1. packets/second through a 6-hop path, bare and with the full element
   chain (middlebox + stateful firewall + two GFW-placed taps) — the
   per-event cost of the discrete-event core with nothing else attached;
2. trials/second over a Table-1-shaped slice (strategy x vantage x site
   x seed), with scenario reuse off and on — the end-to-end number the
   PR's speedup acceptance is read from, recorded into BENCH_perf.json.

The CI perf-smoke step runs this file and fails if the reuse-on trial
rate falls more than 30 % below the committed floor.
"""

import os
import time

from conftest import record_metric, report

from repro.netsim.network import Network, Path
from repro.netsim.node import Host
from repro.netsim.path import Direction, InlineBox, Tap
from repro.netsim.simclock import SimClock
from repro.netstack.packet import ACK, IPPacket, TCPSegment

#: Committed trials/second floor for the reuse-on Table-1 slice on the
#: CI container class; the smoke gate fails only below floor * 0.7.
#: Raised from 600 after the batch-stepped execution PR (inline
#: fast-forward, packet pool, memoized automaton lookup) landed the
#: serial reuse-on slice above 900 trials/s on the reference container.
TRIALS_PER_SECOND_FLOOR = 800.0

PACKETS = 20_000
TRIAL_SEEDS = 8


def _packet(src: str, dst: str) -> IPPacket:
    segment = TCPSegment(
        src_port=40000, dst_port=80, seq=1, ack=1, flags=ACK,
        payload=b"x" * 64,
    )
    return IPPacket(src=src, dst=dst, payload=segment, ttl=64)


def _six_hop_world(with_elements: bool):
    clock = SimClock()
    network = Network(clock=clock)
    client = network.add_host(Host("10.0.0.1", "client"))
    network.add_host(Host("10.0.0.2", "server"))
    path = Path(
        client_ip="10.0.0.1", server_ip="10.0.0.2",
        hop_count=6, base_delay=0.006,
    )
    network.add_path(path)
    if with_elements:
        path.add_element(InlineBox("box", 2))
        path.add_element(InlineBox("firewall", 3))
        path.add_element(Tap("tap-a", 4))
        path.add_element(Tap("tap-b", 4))
    return clock, network, client


def _packets_per_second(with_elements: bool) -> float:
    clock, network, client = _six_hop_world(with_elements)
    start = time.perf_counter()
    for index in range(PACKETS):
        client.send(_packet("10.0.0.1", "10.0.0.2"))
        if index % 64 == 63:  # drain in batches, as real traffic does
            clock.run()
    clock.run()
    elapsed = time.perf_counter() - start
    return PACKETS / elapsed


def test_packet_traversal_throughput():
    bare = _packets_per_second(with_elements=False)
    loaded = _packets_per_second(with_elements=True)
    record_metric("packets_per_second_bare", round(bare, 1))
    record_metric("packets_per_second_elements", round(loaded, 1))
    lines = [
        "Simulator core: packets/second through a 6-hop path",
        f"  bare path                     {bare:>12.0f}",
        f"  + middlebox/firewall/2 taps   {loaded:>12.0f}",
    ]
    report("netsim_throughput", "\n".join(lines))
    assert bare > 0 and loaded > 0


def _table1_slice(reuse: bool) -> float:
    """Trials/second over a Table-1-shaped slice, serially."""
    from repro.experiments import scenarios
    from repro.experiments.runner import _simulate_http_trial
    from repro.experiments.vantage import CHINA_VANTAGE_POINTS
    from repro.experiments.websites import outside_china_catalog

    os.environ["REPRO_SCENARIO_REUSE"] = "1" if reuse else "0"
    scenarios.clear_scenario_pool()
    vantages = CHINA_VANTAGE_POINTS[:4]
    sites = outside_china_catalog(count=4)
    strategies = ["none", "tcb-teardown-rst/ttl", "inorder-overlap/ttl"]
    trials = 0
    start = time.perf_counter()
    for strategy in strategies:
        for vantage in vantages:
            for site in sites:
                for seed in range(TRIAL_SEEDS):
                    _record, scenario = _simulate_http_trial(
                        vantage, site, strategy, seed=seed
                    )
                    scenarios.release_scenario(scenario)
                    trials += 1
    elapsed = time.perf_counter() - start
    scenarios.clear_scenario_pool()
    os.environ.pop("REPRO_SCENARIO_REUSE", None)
    return trials / elapsed


def _table1_slice_batched() -> float:
    """Trials/second over the same slice through the shared event heap."""
    from repro.experiments import scenarios
    from repro.experiments.runner import _run_http_batch_records, batch_window
    from repro.experiments.vantage import CHINA_VANTAGE_POINTS
    from repro.experiments.websites import outside_china_catalog

    os.environ["REPRO_SCENARIO_REUSE"] = "1"
    scenarios.clear_scenario_pool()
    from repro.experiments.calibration import DEFAULT_CALIBRATION

    vantages = CHINA_VANTAGE_POINTS[:4]
    sites = outside_china_catalog(count=4)
    strategies = ["none", "tcb-teardown-rst/ttl", "inorder-overlap/ttl"]
    tasks = [
        (vantage, site, strategy, DEFAULT_CALIBRATION, seed, True)
        for strategy in strategies
        for vantage in vantages
        for site in sites
        for seed in range(TRIAL_SEEDS)
    ]
    window = batch_window()
    start = time.perf_counter()
    for begin in range(0, len(tasks), window):
        _run_http_batch_records(tasks[begin : begin + window])
    elapsed = time.perf_counter() - start
    scenarios.clear_scenario_pool()
    os.environ.pop("REPRO_SCENARIO_REUSE", None)
    return len(tasks) / elapsed


def test_table1_slice_trial_rate():
    cold = _table1_slice(reuse=False)
    warm = _table1_slice(reuse=True)
    batched = _table1_slice_batched()
    record_metric("trials_per_second_reuse_off", round(cold, 1))
    record_metric("trials_per_second_reuse_on", round(warm, 1))
    record_metric("trials_per_second_batched", round(batched, 1))
    lines = [
        "Simulator core: Table-1 slice trials/second (serial)",
        f"  scenario reuse off   {cold:>10.1f}",
        f"  scenario reuse on    {warm:>10.1f}",
        f"  batch-stepped heap   {batched:>10.1f}",
    ]
    report("netsim_trial_rate", "\n".join(lines))
    floor = TRIALS_PER_SECOND_FLOOR
    assert warm >= floor * 0.7, (
        f"trial rate regressed: {warm:.1f} trials/s < 70% of the "
        f"{floor:.0f} trials/s floor"
    )
    assert batched >= floor * 0.7, (
        f"batched trial rate regressed: {batched:.1f} trials/s < 70% of "
        f"the {floor:.0f} trials/s floor"
    )
