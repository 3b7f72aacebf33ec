"""Ablation — NB3: resync-on-RST probability (§4).

Sweeps the probability that an evolved device answers a teardown RST by
entering the resynchronization state instead of deleting its TCB, and
measures plain RST teardown against the desync-hardened improved
variant.  Expected shape: plain teardown degrades linearly toward 0 %
as the coin biases to resync (the paper's observed ~80 % / ~20 % split
puts it near 80 % success); the improved variant stays flat because the
desynchronization packet poisons the re-anchoring (§7.1)."""

from conftest import report

from repro.experiments import (
    CHINA_VANTAGE_POINTS,
    DEFAULT_CALIBRATION,
    outside_china_catalog,
)
from repro.experiments.outcomes import VerdictDistribution
from repro.experiments.runner import run_http_outcomes
from repro.experiments.tables import render_table

PROBABILITIES = (0.0, 0.2, 0.5, 0.8, 1.0)
STRATEGIES = ("tcb-teardown-rst/ttl", "improved-tcb-teardown")


def resync_sweep(sites_count: int = 10) -> str:
    sites = outside_china_catalog(count=sites_count)
    vantages = CHINA_VANTAGE_POINTS[:5]
    rows = []
    for probability in PROBABILITIES:
        calibration = DEFAULT_CALIBRATION.variant(
            resync_on_rst_probability=probability,
            gfw_miss_probability=0.0,
            old_model_only_fraction=0.0,
            both_models_fraction=0.0,
        )
        cells = [f"P(resync)={probability:.1f}"]
        for strategy in STRATEGIES:
            tasks = [
                (vantage, website, strategy, calibration,
                 (v_index * 7919 + w_index * 31
                  + int(probability * 10) * 3) & 0xFFFF,
                 True)
                for v_index, vantage in enumerate(vantages)
                for w_index, website in enumerate(sites)
            ]
            triple = VerdictDistribution.from_outcomes(run_http_outcomes(tasks))
            cells.append(f"{triple.as_percentages()[0]:.0f}%")
        rows.append(cells)
    text = render_table(
        ["NB3 coin"] + list(STRATEGIES), rows,
        title="RST teardown vs the resynchronization state",
    )
    text += (
        "\n\n§4 measured ~80% teardown success, i.e. P(resync) ≈ 0.2; the "
        "desync packet\nmakes the improved strategy insensitive to the coin."
    )
    return text


def test_ablation_resync():
    text = resync_sweep()
    report("ablation_resync", text)
    lines = [line for line in text.splitlines() if line.startswith("P(resync)")]

    def cell(line, column):
        return int(line.split("|")[column].strip().rstrip("%"))

    plain_at_0 = cell(lines[0], 1)
    plain_at_1 = cell(lines[-1], 1)
    improved_at_1 = cell(lines[-1], 2)
    assert plain_at_0 > 85
    assert plain_at_1 < 30
    assert improved_at_1 > 85
