"""Ablation — GFW generation mixture (§7.1's case for combining).

Sweeps the old-model/evolved-model composition of paths and measures a
generation-specific strategy against the Fig. 4 combination.  Expected
shape: TCB Reversal alone collapses as old-model devices appear;
TCB creation alone collapses as evolved devices appear; the combination
is flat near 100 % across the whole mixture — the §7.1 argument in one
table."""

import zlib

from conftest import bench_sites, report

from repro.experiments import (
    CHINA_VANTAGE_POINTS,
    DEFAULT_CALIBRATION,
    outside_china_catalog,
)
from repro.experiments.outcomes import VerdictDistribution
from repro.experiments.runner import run_http_outcomes
from repro.experiments.tables import render_table

SWEEPS = (
    ("all evolved", dict(old_model_only_fraction=0.0, both_models_fraction=0.0)),
    ("70/30 evolved/both", dict(old_model_only_fraction=0.0, both_models_fraction=0.3)),
    ("mixed (default-ish)", dict(old_model_only_fraction=0.1, both_models_fraction=0.3)),
    ("mostly old", dict(old_model_only_fraction=0.7, both_models_fraction=0.3)),
    ("all old", dict(old_model_only_fraction=1.0, both_models_fraction=0.0)),
)
STRATEGIES = ("tcb-reversal", "tcb-creation-syn/ttl", "tcb-teardown+tcb-reversal")


def mixture_sweep(sites_count: int) -> str:
    sites = outside_china_catalog(count=sites_count)
    vantages = CHINA_VANTAGE_POINTS[:5]
    rows = []
    for label, tweaks in SWEEPS:
        calibration = DEFAULT_CALIBRATION.variant(
            gfw_miss_probability=0.0, **tweaks
        )
        cells = [label]
        for strategy in STRATEGIES:
            # Stable cell seed (hash() is salted per interpreter run).
            tasks = [
                (vantage, website, strategy, calibration,
                 zlib.crc32(f"{label}|{strategy}|{v_index}|{w_index}".encode())
                 & 0xFFFF,
                 True)
                for v_index, vantage in enumerate(vantages)
                for w_index, website in enumerate(sites)
            ]
            triple = VerdictDistribution.from_outcomes(run_http_outcomes(tasks))
            cells.append(f"{triple.as_percentages()[0]:.0f}%")
        rows.append(cells)
    return render_table(
        ["GFW population"] + list(STRATEGIES), rows,
        title="Success rate vs GFW generation mixture",
    )


def test_ablation_gfw_mix():
    text = mixture_sweep(bench_sites(8, 25))
    report("ablation_gfw_mix", text)
    lines = [line for line in text.splitlines() if "%" in line]

    def cell(line_index, column):
        return int(lines[line_index].split("|")[column].strip().rstrip("%"))

    # Reversal collapses on all-old paths; the combination holds.
    assert cell(0, 1) > 80       # all evolved: reversal works
    assert cell(-1, 1) < 30      # all old: reversal dies
    assert cell(0, 3) > 80       # combination: works on all-evolved…
    assert cell(-1, 3) > 80      # …and on all-old
