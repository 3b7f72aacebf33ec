#!/usr/bin/env python3
"""Figs. 3 and 4 as live packet ladders.

Reproduces the paper's combined-strategy sequence diagrams by tracing a
real run of each: every send, middlebox/tap observation, TTL death, and
delivery is shown with timestamps, so you can watch the insertion
packets reach the GFW's hop and die before the server.

Run:  python examples/packet_ladders.py
"""

from repro.experiments.lab import lab_trial


def ladder(strategy_id: str, title: str) -> None:
    world, exchange = lab_trial(strategy_id, seed=8, rng_seed=4, trace=True)
    print(f"=== {title} ===")
    print(f"strategy: {strategy_id}")
    print(f"result:   {'evaded - response received' if exchange.got_response else 'failed'}"
          f", GFW detections: {len(world.gfw.detections)}\n")
    interesting = [
        event for event in world.trace.events
        if event.action in ("send", "observe", "deliver", "drop")
        and ("gfw" in event.location or event.action != "observe")
    ]
    for event in interesting[:60]:
        print(event.format())
    print()


def main() -> None:
    ladder(
        "tcb-creation+resync-desync",
        "Fig. 3 — TCB Creation + Resync/Desync",
    )
    ladder(
        "tcb-teardown+tcb-reversal",
        "Fig. 4 — TCB Teardown + TCB Reversal",
    )


if __name__ == "__main__":
    main()
