"""Fig. 1 — the threat model as a live topology.

Builds client ─ client-side middleboxes ─ GFW ─ server-side path ─ server
and demonstrates each capability the figure assigns: the on-path GFW
reads and injects but cannot drop; in-path middleboxes drop; the client
initiates the connection.  The bench runs topology construction + one
full censored exchange (the simulator's unit of work)."""

from conftest import report

from repro.experiments import CLEAN_ROOM, build_scenario, vantage_by_name
from repro.experiments.websites import outside_china_catalog
from repro.apps.http import HTTPClient
from repro.experiments.runner import SENSITIVE_PATH


def threat_model_demo() -> str:
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
    lines = ["Fig. 1 threat model, instantiated:"]
    lines.append(
        f"  path: {scenario.path.hop_count} hops, GFW tap at hop "
        f"{scenario.gfw_devices[0].hop}"
    )
    elements = ", ".join(
        f"{element.name}@{element.hop}" for element in scenario.path.elements
    )
    lines.append(f"  elements: {elements}")
    observed = len(scenario.trace.filter(action="observe"))
    injected = sum(device.resets_injected for device in scenario.gfw_devices)
    dropped = len(scenario.trace.filter(action="drop"))
    lines.append(f"  GFW observed {observed} packets (read capability)")
    lines.append(f"  GFW injected {injected} forged packets (inject capability)")
    lines.append(f"  packets dropped anywhere: {dropped} (none by the GFW — on-path!)")
    lines.append(
        f"  outcome: {'reset' if not exchange.got_response else 'delivered'}"
        f" — detections: {scenario.gfw_detections()}"
    )
    gfw_drops = [
        event for event in scenario.trace.filter(action="drop")
        if "gfw" in event.location
    ]
    lines.append(f"  drops attributed to the GFW element: {len(gfw_drops)}")
    return "\n".join(lines)


def test_fig1():
    text = threat_model_demo()
    report("fig1", text)
    assert "inject capability" in text
    assert "drops attributed to the GFW element: 0" in text
