"""Tier-1 pins for the one fan-out path, :func:`map_trials`.

For a Table-1 cell (which is also a fixed-strategy Table-4 row), the
adaptive Table-4 row, a matrix subset, the inconsistency sweep and a
4-group fleet, a 2-worker run (contiguous chunks) matches
the serial run: results byte for byte, the merged registry apart from
execution instruments, and the trial-semantic span forest, with every
task span under exactly one chunk span.
"""

import dataclasses
import json

import pytest

from helpers import ENGINE_PREFIXES
from repro.analysis.inconsistency import run_inconsistency
from repro.cli import build_parser, main
from repro.conformance import default_cells, run_matrix
from repro.experiments import (
    CHINA_VANTAGE_POINTS,
    outside_china_catalog,
    run_per_vantage_clusters,
    run_strategy_cell,
)
from repro.experiments.fleet import FleetSpec, run_fleet
from repro.experiments.parallel import DEFAULT_CHUNKS_PER_WORKER
from repro.experiments.artifacts import ARTIFACTS, records_json
from repro.experiments.runner import run_table6_rows
from repro.experiments.tables import pct
from repro.telemetry import SPANS, get_registry, observing
from repro.telemetry.trace import trial_semantic

V, S = CHINA_VANTAGE_POINTS[:3], outside_china_catalog(count=2)
CELLS = default_cells(
    strategies=["tcb-teardown-rst/ttl", "none"], variants=["evolved", "old"],
    profiles=["neutral"], faults=["clean"],
)
FLEET = FleetSpec(flows=48, groups=4, window=8, max_flows=16, sites=8, seed=3)

#: name -> (task count, run(workers) -> canonical result text)
SHAPES = {
    "table1_cell": (12, lambda w: repr(run_strategy_cell(
        "tcb-teardown-rst/ttl", V, S, repeats=2, workers=w))),
    "table4_row": (3, lambda w: repr(run_per_vantage_clusters(
        V, S, repeats=2, workers=w))),
    "matrix_subset": (4, lambda w: json.dumps({
        k: r.as_payload()
        for k, r in run_matrix(CELLS, repeats=2, seed=11, workers=w).items()
    })),
    "inconsistency": (12, lambda w: run_inconsistency(
        vantages=3, hours=(0.0, 12.0), strategies=("none", "tcb-reversal"),
        repeats=2, seed=41, workers=w).to_json()),
    "fleet_4_groups": (4, lambda w: json.dumps(
        dataclasses.asdict(run_fleet(FLEET, workers=w)))),
}


def _observed(run, workers):
    """Result, registry delta without execution instruments, spans."""
    registry = get_registry()
    with observing(SPANS) as recorder:
        recorder.clear()
        before = registry.snapshot()
        result = run(workers)
        delta = registry.diff(before)
        trees = recorder.drain()["spans"]
    for section in ("counters", "gauges", "histograms"):
        delta[section] = {
            name: value for name, value in delta[section].items()
            # Wall times are observed only while spans are on.
            if not name.startswith(ENGINE_PREFIXES)
            and name != "trial.wall_seconds"
        }
    return result, delta, trees


def _chunk_depths(trees, depth=0):
    """(kind, chunk spans above it) for every span in the forest."""
    for node in trees:
        yield node["kind"], depth
        yield from _chunk_depths(
            node["children"], depth + (node["kind"] == "chunk")
        )


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_two_workers_match_serial(name):
    tasks, run = SHAPES[name]
    serial, serial_registry, serial_trees = _observed(run, 1)
    chunked, chunked_registry, chunked_trees = _observed(run, 2)
    assert chunked == serial
    assert chunked_registry == serial_registry
    assert trial_semantic(chunked_trees) == trial_semantic(serial_trees)

    spans = list(_chunk_depths(chunked_trees))
    assert ("chunk", 0) not in _chunk_depths(serial_trees)
    assert spans.count(("chunk", 0)) == min(
        tasks, 2 * DEFAULT_CHUNKS_PER_WORKER
    )
    # Task spans: cells, trials, fleet waves and flows.
    depths = [d for k, d in spans if k in ("cell", "trial", "wave", "flow")]
    assert depths and set(depths) == {1}


@pytest.mark.parametrize("command", [
    "table1", "table4", "conformance run", "inconsistency run", "fleet run",
])
def test_cli_has_no_shards_flag(command, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([*command.split(), "--shards", "2"])
    assert "unrecognized arguments: --shards" in capsys.readouterr().err


def test_table6_rows_match_serial_and_the_cli(capsys, monkeypatch):
    """``repro table6`` prints the registry's Table 6, whose records are
    the per-(resolver, vantage) counts ``run_table6_rows`` returns, and
    each cell fans out like every other sweep."""
    table6 = ARTIFACTS["table6"]
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    rows = run_table6_rows(2)
    records = table6.produce(queries=2)
    monkeypatch.setenv("REPRO_WORKERS", "2")
    assert records_json(table6.produce(queries=2)) == records_json(records)
    monkeypatch.delenv("REPRO_WORKERS")
    assert main(["table6", "--queries", "2"]) == 0
    out = capsys.readouterr().out
    assert out == table6.formatter(records) + "\n"
    assert "OpenDNS 208.67.222.222 without INTANG" in out
    assert "Paper: Dyn1 98.6%/92.7%, Dyn2 99.6%/93.1%" in out
    # The printed rates are the clusters' sums.
    assert [(r["name"], r["ip"], r["successes"]) for r in records["resolvers"]] == [
        (name, ip, successes) for name, ip, successes in rows
    ]
    rates = []
    for name, ip, successes in rows:
        assert list(successes) == [v.name for v in CHINA_VANTAGE_POINTS]
        except_tj = [n for v, n in successes.items() if v != "unicom-tianjin"]
        rates.append([name, ip, pct(sum(except_tj) / 2 / len(except_tj) * 100),
                      pct(sum(successes.values()) / 2 / len(successes) * 100)])
    table_rows = out.splitlines()[3:3 + len(rates)]
    assert [[cell.strip() for cell in row.split("|")] for row in table_rows] == rates
