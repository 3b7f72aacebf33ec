"""The artifact registry: one producer per results file.

``repro tableN`` prints what the registry formats, the clustered
records are the same for any worker count, and the text is the sum of
the clusters the records keep.  Table 6's pins live in
``test_fanout.py::test_table6_rows_match_serial_and_the_cli``.
"""

import json
import os

import pytest

from repro.cli import main
from repro.experiments import CHINA_VANTAGE_POINTS, VerdictDistribution
from repro.experiments.artifacts import ARTIFACTS, records_json

RESULTS = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "results")


def _records_at(monkeypatch, artifact, workers, **options):
    monkeypatch.setenv("REPRO_WORKERS", str(workers))
    records = artifact.produce(**options)
    monkeypatch.delenv("REPRO_WORKERS")
    return records


def _tally(tallies):
    return sum((VerdictDistribution(*counts) for counts in tallies),
               VerdictDistribution())


@pytest.mark.parametrize("artifact_id", ["table1", "table4"])
def test_cli_prints_the_registry_and_records_match_across_workers(
    artifact_id, capsys, monkeypatch
):
    artifact = ARTIFACTS[artifact_id]
    serial = _records_at(monkeypatch, artifact, 1, sites=1)
    chunked = _records_at(monkeypatch, artifact, 2, sites=1)
    assert records_json(chunked) == records_json(serial)

    assert main([artifact_id, "--sites", "1"]) == 0
    out = capsys.readouterr().out
    assert out == artifact.formatter(serial) + "\n"
    # The records survive their JSON form unchanged.
    assert artifact.formatter(json.loads(records_json(serial))) == out[:-1]
    if artifact_id == "table4":
        assert "Table 4 (inside China)" in out
        assert "Table 4 (outside China)" in out
        assert "Paper averages (S/F1/F2) outside: " in out
        assert "Paper INTANG row: 93.7/100.0/98.3 success." in out


def test_table1_text_is_the_sum_of_its_clusters():
    records = ARTIFACTS["table1"].produce(sites=2)
    text = ARTIFACTS["table1"].formatter(records)
    comparison = text.split("with keyword):\n")[1].splitlines()
    assert len(comparison) == len(records["rows"]) == 15
    for row, line in zip(records["rows"], comparison):
        for key in ("keyword", "benign"):
            assert list(row[key]) == [v.name for v in CHINA_VANTAGE_POINTS]
            assert all(len(sites) == 2 for sites in row[key].values())
        kw = _tally(c for sites in row["keyword"].values() for c in sites)
        assert kw.trials == 11 * 2
        s, f1, f2 = kw.as_percentages()
        assert f"ours {s:5.1f}/{f1:5.1f}/{f2:5.1f}" in line


def test_table4_text_is_the_sum_of_its_clusters():
    records = ARTIFACTS["table4"].produce(sites=1)
    text = ARTIFACTS["table4"].formatter(records)
    for half, vantages in (("inside", 11), ("outside", 4)):
        sites = len(records[half]["site_names"])
        for row in records[half]["rows"]:
            per_vantage = [_tally(c) for c in row["clusters"].values()]
            assert len(per_vantage) == vantages
            assert {v.trials for v in per_vantage} == {sites * row["repeats"]}
            success = [v.rates()[0] * 100 for v in per_vantage]
            line = next(
                line for line in text.split(f"({half} China)")[1].splitlines()
                if line.startswith(row["label"] + " ")
            )
            assert [cell.strip() for cell in line.split("|")[1:4]] == [
                f"{min(success):.1f}%", f"{max(success):.1f}%",
                f"{sum(success) / len(success):.1f}%",
            ]


def test_paper_values_and_sample_sizes():
    assert ARTIFACTS["table1"].paper["tcb-teardown-rst/ttl"] == (73.2, 3.2, 23.6)
    assert ARTIFACTS["table1"].paper_n == {
        "vantages": 11, "sites": 77, "repeats": 50,
    }
    assert ARTIFACTS["table4"].paper_n is None
    assert ARTIFACTS["table6"].paper_n == {"vantages": 11, "queries": 100}
    assert list(ARTIFACTS) == [f"table{n}" for n in range(1, 7)] + [
        "fig1", "fig2", "fig3", "fig4", "resets", "tor", "vpn",
        "ablation_delta", "ablation_redundancy", "ablation_gfw_mix",
        "ablation_resync", "ablation_countermeasures",
        "baseline_west_chamber", "provider_breakdown", "fleet_effectiveness",
    ]
    # Every results text file but bench_dpi's (untracked) timing table
    # has its producer, and only the paper tables and the site-sized
    # ablations take size options.
    committed = sorted(
        name[:-4] for name in os.listdir(RESULTS)
        if name.endswith(".txt") and name != "dpi_throughput.txt"
    )
    assert committed == sorted(ARTIFACTS)
    assert {a.id: dict(a.options) for a in ARTIFACTS.values() if a.options} == {
        "table1": {"sites": 15, "repeats": 1, "seed": 7},
        "table4": {"sites": 15, "repeats": 1, "seed": 3}, "table6": {"queries": 25},
        "ablation_delta": {"sites": 10}, "ablation_gfw_mix": {"sites": 8},
        "baseline_west_chamber": {"sites": 10}, "provider_breakdown": {"sites": 12},
    }
    assert all(
        a.paper_n is None and not a.clustered
        for a in ARTIFACTS.values() if not a.id.startswith("table")
    )


def test_list_is_the_registry(capsys):
    assert main(["list"]) == 0
    listed = capsys.readouterr().out.split("\n\nStrategies:")[0].splitlines()[1:]
    assert [line.split()[0] for line in listed] == list(ARTIFACTS)


#: Artifacts that take seconds at their default size.
SLOW = ("table1", "fleet_effectiveness")


@pytest.mark.parametrize("artifact_id", [
    pytest.param(a, marks=pytest.mark.slow) if a in SLOW else a
    for a in sorted(ARTIFACTS)
])
def test_flagless_command_prints_the_committed_table(artifact_id, capsys):
    assert main([artifact_id]) == 0
    with open(os.path.join(RESULTS, f"{artifact_id}.txt")) as committed:
        assert capsys.readouterr().out == committed.read()
