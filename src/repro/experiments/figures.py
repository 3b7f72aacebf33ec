"""Figs. 1–4 and the §2.1/§7.3 observations: producers (what a run
measured, as plain records) and formatters (records -> the text
``benchmarks/results/<id>.txt`` holds), registered in
:mod:`repro.experiments.artifacts`."""

from __future__ import annotations

import random
import statistics
from typing import Dict

from repro.apps.dns import DNSTcpResolver, DNSUdpClient, DNSUdpResolver
from repro.apps.http import HTTPClient
from repro.apps.udp import UDPHost
from repro.apps.vpn import OpenVPNClient
from repro.core.intang import INTANG
from repro.experiments.calibration import CLEAN_ROOM
from repro.experiments.lab import (
    CLIENT_IP, SERVER_IP, fetch, lab_trial, mini_topology,
)
from repro.experiments.parallel import map_trials
from repro.experiments.runner import SENSITIVE_PATH, run_tor_trial, run_vpn_trial
from repro.experiments.scenarios import build_scenario, release_scenario
from repro.experiments.tables import render_table
from repro.experiments.vantage import CHINA_VANTAGE_POINTS, vantage_by_name
from repro.experiments.websites import outside_china_catalog
from repro.gfw import evolved_config
from repro.gfw.dns_poisoner import DNSPoisoner
from repro.gfw.resets import ResetInjector


def threat_model() -> Dict:
    """Client ─ client-side middleboxes ─ GFW ─ server-side path ─ server,
    and one censored exchange through it: the on-path GFW reads and
    injects but cannot drop, in-path middleboxes drop."""
    scenario = build_scenario(
        vantage=vantage_by_name("unicom-tianjin"),
        website=outside_china_catalog()[0],
        calibration=CLEAN_ROOM,
        seed=4,
        trace=True,
    )
    client = HTTPClient(scenario.client_tcp)
    _, exchange = client.get(
        scenario.website.ip, host=scenario.website.name, path=SENSITIVE_PATH
    )
    scenario.run()
    drops = scenario.trace.filter(action="drop")
    result = {
        "hops": scenario.path.hop_count,
        "gfw_hop": scenario.gfw_devices[0].hop,
        "elements": [f"{e.name}@{e.hop}" for e in scenario.path.elements],
        "observed": len(scenario.trace.filter(action="observe")),
        "injected": sum(device.resets_injected for device in scenario.gfw_devices),
        "dropped": len(drops),
        "delivered": exchange.got_response,
        "detections": scenario.gfw_detections(),
        "gfw_drops": sum(1 for event in drops if "gfw" in event.location),
    }
    release_scenario(scenario)
    return result


def format_threat_model(r: Dict) -> str:
    return "\n".join([
        "Fig. 1 threat model, instantiated:",
        f"  path: {r['hops']} hops, GFW tap at hop {r['gfw_hop']}",
        f"  elements: {', '.join(r['elements'])}",
        f"  GFW observed {r['observed']} packets (read capability)",
        f"  GFW injected {r['injected']} forged packets (inject capability)",
        f"  packets dropped anywhere: {r['dropped']} (none by the GFW — on-path!)",
        f"  outcome: {'delivered' if r['delivered'] else 'reset'}"
        f" — detections: {r['detections']}",
        f"  drops attributed to the GFW element: {r['gfw_drops']}",
    ])


def intang_architecture() -> Dict:
    """Every box of INTANG's architecture, one pass each: the interception
    loop and strategy callbacks (one HTTP exchange), the result store and
    LRU caches, and the DNS forwarder (one censored resolution)."""
    world = mini_topology(seed=6)
    client_udp = UDPHost(world.client)
    server_udp = UDPHost(world.server)
    zone = {"www.dropbox.com": "104.16.100.29"}
    DNSUdpResolver(server_udp, zone)
    DNSTcpResolver(world.server_tcp, zone)
    world.gfw.dns_poisoner = DNSPoisoner()
    intang = INTANG(
        host=world.client, tcp_host=world.client_tcp, clock=world.clock,
        network=world.network, rng=random.Random(2),
        dns_resolver_ip=SERVER_IP,
    )
    # Main thread: HTTP through the strategy chosen by the selector.
    _, exchange = HTTPClient(world.client_tcp).get(
        SERVER_IP, host="x", path="/?q=ultrasurf"
    )
    world.run(8.0)
    intang.report_result(SERVER_IP, exchange.got_response)
    # DNS thread: a censored resolution through the forwarder.
    dns_client = DNSUdpClient(client_udp, SERVER_IP, world.clock)
    answers = []
    dns_client.resolve("www.dropbox.com", lambda m: answers.extend(m.answers))
    world.run(8.0)
    record = intang.selector.record_for(SERVER_IP)
    return {
        "contexts": len(intang.framework.contexts),
        "insertions": intang.insertions_sent(),
        "strategy": intang.last_strategy_for(SERVER_IP),
        "records": len(intang.store),
        "pinned": record.pinned,
        "hits": intang.selector.front_cache.hits,
        "misses": intang.selector.front_cache.misses,
        "forwarded": intang.dns_forwarder.queries_forwarded,
        "returned": intang.dns_forwarder.responses_returned,
        "evaded": exchange.got_response,
        "answers": answers,
    }


def format_intang_architecture(r: Dict) -> str:
    return "\n".join([
        "Fig. 2 components, one pass each:",
        f"  interception: {r['contexts']} connection context(s), "
        f"{r['insertions']} insertion packets",
        f"  strategy used: {r['strategy']}",
        f"  result cache (Redis substitute): {r['records']} record(s), "
        f"pinned={r['pinned']}",
        f"  LRU front cache: hits={r['hits']} misses={r['misses']}",
        f"  DNS forwarder: forwarded={r['forwarded']} returned={r['returned']}",
        f"  HTTP evaded: {r['evaded']}; DNS answer: {r['answers']}",
    ])


def _client_sends(world) -> list:
    return [e.summary for e in world.trace.filter(action="send", location="client")]


def _first_flow(world):
    return next(iter(world.gfw.flows.values()), None)


def fig3_ladder() -> Dict:
    """One traced run of TCB Creation + Resync/Desync: fake SYN
    (TTL-limited) → real handshake → second fake SYN → desynchronization
    packet → request, leaving the GFW desynchronized."""
    world, exchange = lab_trial(
        "tcb-creation+resync-desync", seed=8, rng_seed=4, trace=True
    )
    kinds = []
    for summary in _client_sends(world):
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
    flow = _first_flow(world)
    return {
        "sends": kinds[:12],
        "response": exchange.got_response,
        "detections": len(world.gfw.detections),
        "flow": flow and {"state": flow.state.value, "seq": flow.client_next_seq},
    }


def format_fig3(r: Dict) -> str:
    lines = ["Fig. 3 ladder (client sends, in order):"]
    lines.extend(f"  {kind}" for kind in r["sends"])
    lines.append(f"result: response={r['response']} detections={r['detections']}")
    if r["flow"]:
        lines.append(
            f"GFW flow state: {r['flow']['state']}, anchored client seq "
            f"{r['flow']['seq']} (desynchronized from the real stream)"
        )
    return "\n".join(lines)


def fig4_ladder() -> Dict:
    """One traced run of TCB Teardown + TCB Reversal: fake SYN/ACK
    (TTL-limited, reverses the evolved GFW's TCB) → real handshake → RST
    insertion (kills the old model's TCB) → request."""
    world, exchange = lab_trial(
        "tcb-teardown+tcb-reversal", seed=9, rng_seed=4, trace=True
    )
    order = []
    for summary in _client_sends(world):
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
    flow = _first_flow(world)
    return {
        "sends": order[:10],
        "response": exchange.got_response,
        "detections": len(world.gfw.detections),
        "believed_client": flow and flow.believed_client[0],
    }


def format_fig4(r: Dict) -> str:
    lines = ["Fig. 4 ladder (client sends, in order):"]
    lines.extend(f"  {item}" for item in r["sends"])
    lines.append(f"result: response={r['response']} detections={r['detections']}")
    if r["believed_client"]:
        lines.append(
            f"GFW flow believes the client is {r['believed_client']} "
            f"(the real server: {r['believed_client'] == SERVER_IP})"
        )
    return "\n".join(lines)


def reset_signatures() -> Dict:
    """Direct probes of the reset injectors: type-1's single random
    TTL/window RST vs type-2's three RST/ACKs at X, X+1460, X+4380 with
    cyclic TTL/window, plus the 90-second blacklist with forged SYN/ACKs
    that only type-2 devices enforce."""
    types = []
    for reset_type in (1, 2):
        injector = ResetInjector(reset_type, random.Random(1))
        ttls, windows, seq_offsets = [], [], set()
        for _ in range(40):
            packets = injector.forged_resets(
                spoof_src=(SERVER_IP, 80), toward=(CLIENT_IP, 4000),
                seq_base=1000,
            )
            for packet in packets:
                ttls.append(packet.ttl)
                windows.append(packet.tcp.window)
                seq_offsets.add((packet.tcp.seq - 1000) & 0xFFFFFFFF)
        monotone_runs = sum(1 for a, b in zip(ttls, ttls[1:]) if b == a + 1)
        types.append({
            "type": reset_type,
            "volley": len(packets),
            "seq_offsets": sorted(seq_offsets),
            "ttl_spread": max(ttls) - min(ttls),
            "ttl_cyclic": monotone_runs > len(ttls) * 0.8,
            "window_stdev": statistics.pstdev(windows),
        })
    # Blocking regime: type-2 forges SYN/ACKs during the 90 s window.
    world = mini_topology(gfw_config=evolved_config(reset_type=2), seed=5)
    fetch(world)
    world.client_tcp.purge_closed()
    world.client_tcp.connect(SERVER_IP, 80)
    world.run(2.0)
    world1 = mini_topology(gfw_config=evolved_config(reset_type=1), seed=5)
    fetch(world1)
    return {
        "types": types,
        "forged_synacks": world.gfw.forged_synacks_injected,
        "type1_blacklist": len(world1.gfw.blacklist),
    }


def format_reset_signatures(r: Dict) -> str:
    lines = ["Reset signatures (§2.1):"]
    for t in r["types"]:
        lines.append(
            f"  type-{t['type']}: {t['volley']} reset(s)/volley, "
            f"seq offsets {t['seq_offsets']}, "
            f"ttl spread {t['ttl_spread']}, "
            f"ttl {'cyclic' if t['ttl_cyclic'] else 'random'}, "
            f"window stdev {t['window_stdev']:.0f}"
        )
    lines.append(
        f"  type-2 blacklist: forged SYN/ACKs for SYNs during 90 s window: "
        f"{r['forged_synacks']}"
    )
    lines.append(
        f"  type-1 device: blacklist entries after detection: "
        f"{r['type1_blacklist']} (type-1 has no blocking period)"
    )
    return "\n".join(lines)


def tor_campaign() -> Dict:
    """Bare Tor and Tor behind INTANG (improved TCB teardown) from all 11
    vantages: 4 northern vantages run bare Tor unfiltered, elsewhere the
    handshake draws an active probe and a whole-IP block, and INTANG
    succeeds everywhere."""
    bridge = outside_china_catalog()[0]
    bare, helped = (
        map_trials(run_tor_trial, [
            (vantage, bridge, strategy_id, CLEAN_ROOM, 2)
            for vantage in CHINA_VANTAGE_POINTS
        ])
        for strategy_id in (None, "improved-tcb-teardown")
    )
    return {"vantages": [
        {
            "name": vantage.name, "city": vantage.city,
            "filtered": vantage.tor_filtered,
            "bare_blocked": b.ip_blocked, "bare_ok": b.reconnect_ok,
            "helped_blocked": h.ip_blocked, "helped_ok": h.reconnect_ok,
        }
        for vantage, b, h in zip(CHINA_VANTAGE_POINTS, bare, helped)
    ]}


def format_tor_campaign(r: Dict) -> str:
    vantages = r["vantages"]
    rows = [
        [
            v["name"], v["city"], "yes" if v["filtered"] else "no",
            "BLOCKED(IP)" if v["bare_blocked"] else (
                "survives" if v["bare_ok"] else "down"),
            "survives" if v["helped_ok"] else "down",
        ]
        for v in vantages
    ]
    unfiltered = sum(1 for v in vantages if v["bare_ok"] and not v["bare_blocked"])
    blocked = sum(1 for v in vantages if v["bare_blocked"])
    rescued = sum(1 for v in vantages if v["helped_ok"] and not v["helped_blocked"])
    text = render_table(
        ["Vantage", "City", "Tor-filtered path", "Bare Tor", "Tor + INTANG"],
        rows,
        title="§7.3 Tor bridge reachability",
    )
    return text + (
        f"\n\nbare Tor: {unfiltered} unfiltered vantage points (paper: 4, "
        f"northern China), {blocked} whole-IP blocks"
        f"\nINTANG success: {rescued}/11 (paper: 100%)"
    )


def vpn_campaign() -> Dict:
    """OpenVPN-over-TCP from six vantages, bare and behind INTANG: DPI
    resets the bare handshake (November 2016), the protected tunnel
    survives; with the ``detect_vpn`` rule off (the authors' later,
    unexplained re-measurement) a bare session survives too."""
    site = outside_china_catalog()[1]
    vantages = CHINA_VANTAGE_POINTS[:6]
    bare, helped = (
        map_trials(run_vpn_trial, [
            (vantage, site, strategy_id, CLEAN_ROOM, 2) for vantage in vantages
        ])
        for strategy_id in (None, "improved-tcb-teardown")
    )
    scenario = build_scenario(
        vantage=CHINA_VANTAGE_POINTS[0], website=site,
        calibration=CLEAN_ROOM, seed=3, workload="vpn",
    )
    for device in scenario.gfw_devices:
        device.config.rules.detect_vpn = False
    session = OpenVPNClient(scenario.client_tcp).open_session(site.ip)
    scenario.run(8.0)
    undetected_alive = (
        session.established and session.payload_frames > 0 and not session.reset
    )
    release_scenario(scenario)
    return {
        "vantages": [
            {"name": v.name, "bare_reset": b.reset,
             "tunnel_up": h.frames_ok and not h.reset}
            for v, b, h in zip(vantages, bare, helped)
        ],
        "undetected_alive": undetected_alive,
    }


def format_vpn_campaign(r: Dict) -> str:
    rows = [
        [v["name"], "RESET during handshake" if v["bare_reset"] else "up",
         "tunnel up" if v["tunnel_up"] else "down"]
        for v in r["vantages"]
    ]
    text = render_table(
        ["Vantage", "Bare openvpn-over-TCP", "openvpn + INTANG"],
        rows,
        title="§7.3 VPN (November-2016 GFW behaviour)",
    )
    return text + (
        "\n\nWith VPN fingerprinting later disabled (the paper's 2017 "
        "re-measurement): bare session "
        f"{'survives' if r['undetected_alive'] else 'down'}"
    )
