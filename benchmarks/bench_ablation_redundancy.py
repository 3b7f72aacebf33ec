"""Ablation — insertion-packet redundancy vs loss (§3.4).

"We cope with such dynamics by repeating the sending of the insertion
packets thrice."  Sweeps the copy count for the improved TCB teardown
under elevated loss: a single copy loses the teardown RST to the network
often enough to matter; three copies all but eliminate that failure."""

import random

from conftest import report

from repro.core.framework import InterceptionFramework
from repro.experiments.parallel import map_trials
from repro.strategies.improved import ImprovedTCBTeardown
from repro.strategies.insertion import Discrepancy
from repro.experiments.tables import render_table

import sys, os
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from helpers import fetch, mini_topology  # noqa: E402

LOSS_RATE = 0.30
TRIALS = 40


def _redundancy_trial(task):
    """Process-pool work unit: one lossy-path fetch, True when evaded."""
    copies, seed = task
    world = mini_topology(seed=seed, loss_rate=LOSS_RATE)

    def factory(ctx):
        return ImprovedTCBTeardown(
            ctx, discrepancies=(Discrepancy.MD5_OPTION,), copies=copies
        )

    InterceptionFramework(
        host=world.client, clock=world.clock,
        rng=random.Random(seed), strategy_factory=factory,
    )
    exchange = fetch(world, duration=18.0)
    return exchange.got_response and not world.gfw_resets_at_client


def redundancy_sweep() -> str:
    rows = []
    for copies in (1, 2, 3, 5):
        tasks = [(copies, seed) for seed in range(TRIALS)]
        evaded = sum(map_trials(_redundancy_trial, tasks))
        rows.append([str(copies), f"{evaded / TRIALS * 100:.0f}%"])
    text = render_table(
        ["insertion copies", "evasion success"],
        rows,
        title=f"Redundancy sweep at {LOSS_RATE:.0%} per-traversal loss "
              f"({TRIALS} trials each)",
    )
    text += "\n\nPaper practice: thrice, 20 ms apart (§3.4)."
    return text


def test_ablation_redundancy():
    text = redundancy_sweep()
    report("ablation_redundancy", text)
    lines = [line for line in text.splitlines() if "%" in line and "|" in line]
    single = int(lines[0].split("|")[1].strip().rstrip("%"))
    triple = int(lines[2].split("|")[1].strip().rstrip("%"))
    assert triple >= single
