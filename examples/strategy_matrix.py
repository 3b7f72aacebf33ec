#!/usr/bin/env python3
"""The strategy × GFW-generation matrix, live.

Runs 14 of the 22 registered evasion strategies (``repro matrix`` runs
all of them) against clean-room instances of both GFW models (the
Khattak-era "old" model and the §4 "evolved" one) and prints who wins
— the qualitative heart of the paper in one table: old strategies die
against the evolved model, the new §5 strategies die against the old
model, and only the §7.1 combinations beat both.

Run:  python examples/strategy_matrix.py
"""

from repro.experiments.lab import strategy_matrix
from repro.experiments.tables import render_table

MATRIX_STRATEGIES = [
    "none",
    "west-chamber",
    "tcb-creation-syn/ttl",
    "ooo-ip-fragments",
    "ooo-tcp-segments",
    "inorder-overlap/ttl",
    "tcb-teardown-rst/ttl",
    "tcb-teardown-fin/ttl",
    "resync-desync",
    "tcb-reversal",
    "improved-tcb-teardown",
    "improved-inorder-overlap",
    "tcb-creation+resync-desync",
    "tcb-teardown+tcb-reversal",
]


def main() -> None:
    print(
        render_table(
            ["Strategy", "old GFW model", "evolved GFW model"],
            strategy_matrix(MATRIX_STRATEGIES),
            title="Strategy x GFW-generation matrix (clean-room paths)",
        )
    )
    print(
        "\nReading guide: §3's strategies beat only the old model; §5's "
        "new strategies beat only the evolved one;\nthe §7.1 combinations "
        "(Fig. 3/Fig. 4) and improved variants beat both — which is why "
        "INTANG ships them."
    )


if __name__ == "__main__":
    main()
