"""Fig. 4 — the TCB Teardown + TCB Reversal packet sequence.

Traces one run of the combined strategy and checks the ladder against
the figure: fake SYN/ACK (TTL-limited, reverses the evolved GFW's TCB)
→ real 3-way handshake → RST insertion (kills the old model's TCB) →
HTTP request."""

import random

from conftest import report

from repro.core.intang import INTANG

import sys, os
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from helpers import SERVER_IP, fetch, mini_topology  # noqa: E402


def fig4_trace() -> str:
    world = mini_topology(seed=9, trace=True)
    INTANG(
        host=world.client, tcp_host=world.client_tcp, clock=world.clock,
        network=world.network, fixed_strategy="tcb-teardown+tcb-reversal",
        rng=random.Random(4),
    )
    exchange = fetch(world)
    sends = [e.summary for e in world.trace.filter(action="send", location="client")]
    order = []
    for summary in sends:
        if "[SA]" in summary:
            order.append("fake SYN/ACK (insertion)")
        elif "[S]" in summary:
            order.append("real SYN")
        elif "[R]" in summary or "[RA]" in summary:
            order.append("RST insertion")
        elif "len=0" in summary:
            order.append("ACK")
        else:
            order.append("HTTP request data")
    flow = world.gfw.flows and next(iter(world.gfw.flows.values()))
    lines = ["Fig. 4 ladder (client sends, in order):"]
    lines.extend(f"  {item}" for item in order[:10])
    lines.append(f"result: response={exchange.got_response} "
                 f"detections={len(world.gfw.detections)}")
    if flow:
        lines.append(
            f"GFW flow believes the client is {flow.believed_client[0]} "
            f"(the real server: {flow.believed_client[0] == SERVER_IP})"
        )
    return "\n".join(lines)


def test_fig4():
    text = fig4_trace()
    report("fig4", text)
    assert "detections=0" in text
    assert text.index("fake SYN/ACK") < text.index("real SYN")
    assert "the real server: True" in text
