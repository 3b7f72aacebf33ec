"""Ablation — §8's GFW countermeasures, enacted.

"It is possible that GFW may undergo additional improvements to defeat
our evasion strategies … the censor may perform additional checks on
the RST packets (e.g., checksum and MD5 option fields) as a defense.
But that may open up a new evasion attack on the GFW (e.g., when the
server does not check MD5 option fields)."

The GFWConfig already models the validations the real GFW skips; this
bench turns them on one by one and measures which strategies break and
what survives — the arms race, one hardening step at a time."""

import random

from conftest import report

from repro.core.intang import INTANG
from repro.experiments.parallel import map_trials
from repro.gfw import evolved_config
from repro.experiments.tables import render_table

import sys, os
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from helpers import fetch, mini_topology  # noqa: E402

HARDENINGS = (
    ("baseline (no validation)", {}),
    ("+ checksum validation", {"validates_checksum": True}),
    ("+ MD5-option rejection", {"validates_checksum": True,
                                 "drops_unsolicited_md5": True}),
    ("+ ACK-number validation", {"validates_checksum": True,
                                  "drops_unsolicited_md5": True,
                                  "validates_ack_number": True}),
)
STRATEGIES = (
    "inorder-overlap/bad-checksum",
    "improved-tcb-teardown",
    "inorder-overlap/bad-ack",
    "tcb-creation+resync-desync",
)
TRIALS = 12


def _countermeasure_trial(task):
    """Process-pool work unit: one hardened-GFW fetch, True when evaded."""
    tweaks, strategy, seed = task
    config = evolved_config()
    for name, value in tweaks.items():
        setattr(config, name, value)
    world = mini_topology(gfw_config=config, seed=seed)
    INTANG(
        host=world.client, tcp_host=world.client_tcp,
        clock=world.clock, network=world.network,
        fixed_strategy=strategy, rng=random.Random(seed + 3),
    )
    exchange = fetch(world)
    return exchange.got_response and not world.gfw.detections


def countermeasure_sweep() -> str:
    rows = []
    for label, tweaks in HARDENINGS:
        cells = [label]
        for strategy in STRATEGIES:
            tasks = [(dict(tweaks), strategy, seed) for seed in range(TRIALS)]
            evaded = sum(map_trials(_countermeasure_trial, tasks))
            cells.append(f"{evaded * 100 // TRIALS}%")
        rows.append(cells)
    text = render_table(
        ["GFW hardening"] + list(STRATEGIES), rows,
        title="§8 countermeasures: evasion success as the GFW hardens",
    )
    text += (
        "\n\nThe TTL-based combination (tcb-creation+resync-desync) is "
        "untouched by header\nvalidation — §8's point that each defence "
        "closes one vehicle while others remain,\nand new checks (e.g. "
        "validating MD5 fields the server ignores) cut both ways."
    )
    return text


def test_ablation_countermeasures():
    text = countermeasure_sweep()
    report("ablation_countermeasures", text)
    lines = [line for line in text.splitlines() if "%" in line and "|" in line]

    def cell(line_index, column):
        return int(lines[line_index].split("|")[column].strip().rstrip("%"))

    assert cell(0, 1) == 100          # bad-checksum prefill works on baseline
    assert cell(1, 1) == 0            # checksum validation kills it
    assert cell(1, 2) == 100          # …but MD5 teardown is unaffected
    assert cell(2, 2) == 0            # MD5 rejection kills that in turn
    assert cell(3, 4) > 80            # the TTL combination outlives all three
