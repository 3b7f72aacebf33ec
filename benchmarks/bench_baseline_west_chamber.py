"""Baseline — the West Chamber Project against today's GFW (§1, §2.2).

"The West Chamber Project provides a practical tool … but has ceased
development since 2011; unfortunately none of the strategies were found
to be effective during our measurement study."

Measures the 2010 tool's RST+FIN teardown recipe under the default
(evolved-dominated) environment beside one modern combination, and
against a pure-2010 GFW population as a sanity check that the tool
*used to* work."""

from conftest import bench_sites, report

from repro.experiments import (
    CHINA_VANTAGE_POINTS,
    DEFAULT_CALIBRATION,
    outside_china_catalog,
    run_strategy_cell,
)
from repro.experiments.tables import format_rate_line


def west_chamber_baseline(sites_count: int) -> str:
    sites = outside_china_catalog(count=sites_count)
    vantages = CHINA_VANTAGE_POINTS
    lines = ["West Chamber Project vs today's GFW (default environment):"]
    for strategy in ("west-chamber", "tcb-teardown+tcb-reversal"):
        triple = run_strategy_cell(
            strategy, vantages, sites, DEFAULT_CALIBRATION, seed=9,
        )
        lines.append("  " + format_rate_line(strategy, triple))
    ancient = DEFAULT_CALIBRATION.variant(
        old_model_only_fraction=1.0, both_models_fraction=0.0,
    )
    triple_2010 = run_strategy_cell(
        "west-chamber", vantages, sites, ancient, seed=9,
    )
    lines.append("\nAgainst a 2010-era (all old-model) GFW population:")
    lines.append("  " + format_rate_line("west-chamber", triple_2010))
    lines.append(
        "\nThe tool's recipe still beats the censor it was written for; "
        "the censor moved (§4)."
    )
    return "\n".join(lines)


def test_west_chamber_baseline():
    text = west_chamber_baseline(bench_sites(10, 30))
    report("baseline_west_chamber", text)
    lines = [line for line in text.splitlines() if "success=" in line]
    modern_env_wc = float(lines[0].split("success=")[1].split("%")[0])
    modern_env_fig4 = float(lines[1].split("success=")[1].split("%")[0])
    ancient_env_wc = float(lines[2].split("success=")[1].split("%")[0])
    assert modern_env_wc < 30.0       # dead today…
    assert ancient_env_wc > 60.0      # …but worked against its own era
    assert modern_env_fig4 > 85.0     # the paper's replacement works now
