"""Fig. 3 — the TCB Creation + Resync/Desync packet sequence.

Traces one run of the combined strategy and checks the ladder against
the figure: fake SYN (TTL-limited) → real 3-way handshake → second fake
SYN → desynchronization packet → HTTP request; the GFW ends the exchange
desynchronized and the server answers."""

import random

from conftest import report

from repro.core.intang import INTANG
from repro.gfw.flow import GFWFlowState

import sys, os
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from helpers import fetch, mini_topology  # noqa: E402


def fig3_trace() -> str:
    world = mini_topology(seed=8, trace=True)
    INTANG(
        host=world.client, tcp_host=world.client_tcp, clock=world.clock,
        network=world.network, fixed_strategy="tcb-creation+resync-desync",
        rng=random.Random(4),
    )
    exchange = fetch(world)
    sends = [e.summary for e in world.trace.filter(action="send", location="client")]
    kinds = []
    for summary in sends:
        if "[S]" in summary:
            kinds.append("SYN(low-ttl)" if "ttl=1" in summary.split(" ")[2] else "SYN")
        elif "[SA]" in summary:
            kinds.append("SYNACK")
        elif "len=1" in summary:
            kinds.append("DESYNC")
        elif "len=0" in summary and "[A]" in summary:
            kinds.append("ACK")
        elif "[A]" in summary or "[PA]" in summary:
            kinds.append("DATA")
    flow = world.gfw.flows and next(iter(world.gfw.flows.values()))
    lines = ["Fig. 3 ladder (client sends, in order):"]
    lines.extend(f"  {kind}" for kind in kinds[:12])
    lines.append(f"result: response={exchange.got_response} "
                 f"detections={len(world.gfw.detections)}")
    if flow:
        lines.append(
            f"GFW flow state: {flow.state.value}, anchored client seq "
            f"{flow.client_next_seq} (desynchronized from the real stream)"
        )
    return "\n".join(lines)


def test_fig3():
    text = fig3_trace()
    report("fig3", text)
    assert "detections=0" in text
    assert "response=True" in text
