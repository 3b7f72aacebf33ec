"""§2.1 — forged-reset signatures and the blocking regime (ablation).

Direct probes of the reset injectors: type-1's single random-TTL/window
RST vs type-2's three RST/ACKs at X, X+1460, X+4380 with cyclic
TTL/window, plus the 90-second blacklist with forged SYN/ACKs that only
type-2 devices enforce."""

import random
import statistics

from conftest import report

from repro.gfw import evolved_config
from repro.gfw.resets import ResetInjector

import sys, os
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from helpers import CLIENT_IP, SERVER_IP, fetch, mini_topology  # noqa: E402


def reset_signatures() -> str:
    lines = ["Reset signatures (§2.1):"]
    for reset_type in (1, 2):
        injector = ResetInjector(reset_type, random.Random(1), "probe")
        ttls, windows, seq_offsets, flags = [], [], set(), set()
        for _ in range(40):
            packets = injector.forged_resets(
                spoof_src=(SERVER_IP, 80), toward=(CLIENT_IP, 4000),
                seq_base=1000,
            )
            for packet in packets:
                ttls.append(packet.ttl)
                windows.append(packet.tcp.window)
                seq_offsets.add((packet.tcp.seq - 1000) & 0xFFFFFFFF)
                flags.add(packet.tcp.flags)
        monotone_runs = sum(
            1 for a, b in zip(ttls, ttls[1:]) if b == a + 1
        )
        lines.append(
            f"  type-{reset_type}: {len(packets)} reset(s)/volley, "
            f"seq offsets {sorted(seq_offsets)}, "
            f"ttl spread {max(ttls) - min(ttls)}, "
            f"ttl {'cyclic' if monotone_runs > len(ttls) * 0.8 else 'random'}, "
            f"window stdev {statistics.pstdev(windows):.0f}"
        )

    # Blocking regime: type-2 forges SYN/ACKs during the 90 s window.
    world = mini_topology(gfw_config=evolved_config(reset_type=2), seed=5)
    fetch(world)
    world.client_tcp.purge_closed()
    world.client_tcp.connect(SERVER_IP, 80)
    world.run(2.0)
    lines.append(
        f"  type-2 blacklist: forged SYN/ACKs for SYNs during 90 s window: "
        f"{world.gfw.forged_synacks_injected}"
    )
    world1 = mini_topology(gfw_config=evolved_config(reset_type=1), seed=5)
    fetch(world1)
    lines.append(
        f"  type-1 device: blacklist entries after detection: "
        f"{len(world1.gfw.blacklist)} (type-1 has no blocking period)"
    )
    return "\n".join(lines)


def test_reset_signatures():
    text = reset_signatures()
    report("resets", text)
    assert "[0, 1460, 4380]" in text
    assert "ttl cyclic" in text
    assert "ttl random" in text
    assert "(type-1 has no blocking period)" in text
