"""Trial runner (§3.3 / §3.4 notation).

One call to :func:`run_http_trial` is one row-cell repetition: a fresh
topology is built (equivalent to the paper's inter-test intervals that
let the 90-second blacklist lapse), INTANG measures the hop count, the
route possibly drifts out from under that measurement, the client
requests a page whose URL carries (or not) the sensitive keyword, and
the outcome is classified (:mod:`repro.experiments.outcomes`) from the
client's viewpoint only — exactly what a real measurement client can
see.  Every cell runner reduces its outcomes to one
:class:`~repro.experiments.outcomes.VerdictDistribution`.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from itertools import islice
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.cache import KeyValueStore
from repro.core.intang import INTANG
from repro.core.selection import StrategySelector
from repro.apps.http import HTTPClient
from repro.experiments.calibration import Calibration, DEFAULT_CALIBRATION
from repro.experiments.outcomes import Outcome, VerdictDistribution, classify
from repro.experiments.parallel import map_trials
from repro.experiments.scenarios import (
    HONEST_DNS_ANSWER,
    Scenario,
    acquire_scenario,
    release_scenario,
)
from repro.experiments.vantage import CHINA_VANTAGE_POINTS, VantagePoint
from repro.experiments.websites import DYN_RESOLVERS, Resolver, Website
from repro.lazyrandom import LazyRandom
from repro.telemetry.metrics import get_registry
from repro.telemetry.recorder import get_recorder
from repro.telemetry.trace import make_span

#: The keyword the paper probes with (§3.3).
SENSITIVE_PATH = "/?search=ultrasurf"
BENIGN_PATH = "/index.html"

#: §7.2: Tianjin's resolver paths cross equipment that adopts forged
#: RSTs often enough to push success down to the observed 24-38 %
#: (two redundant RSTs must both fail to poison it: (1-p)^2 ≈ 0.30).
TIANJIN_DNS_FIREWALL_TEARDOWN = 0.45


def strategy_salt(strategy_id: str) -> int:
    """A 16-bit seed salt that is stable across interpreter runs.

    ``hash(strategy_id)`` is randomized per process (PYTHONHASHSEED), so
    two runs of the same cell would draw different trial seeds — and two
    strategy ids could silently collide within a run.  CRC-32 is stable
    and spreads the registry's ids without collisions.
    """
    return zlib.crc32(strategy_id.encode("utf-8")) & 0xFFFF


def trial_seed(
    seed: int, v_index: int, w_index: int, repeat: int, strategy_id: str
) -> int:
    """The per-trial seed shared by the serial and parallel paths."""
    return (
        seed * 1_000_003 + v_index * 10_007 + w_index * 101 + repeat
    ) ^ strategy_salt(strategy_id)


@dataclass
class TrialRecord:
    outcome: Outcome
    strategy_id: str
    vantage: str
    target: str
    keyword: bool
    drift: Optional[str] = None
    detections: int = 0
    #: Best-effort failure attribution (the §3.4 "microscopic study" of
    #: failure cases, automated): None on success.
    diagnosis: Optional[str] = None


def diagnose_failure(scenario: Scenario, outcome: Outcome) -> Optional[str]:
    """Attribute a failed trial to its most likely §3.4 cause.

    Heuristics mirror the paper's failure taxonomy: Failure 2 is a
    detection (or an insertion that never reached the censor); Failure 1
    is middlebox state poisoning, an insertion hitting the server, a
    server that swallowed the junk, or plain loss.
    """
    from repro.middlebox.boxes import StatefulFirewallBox
    from repro.tcp.stack import CloseReason

    if outcome is Outcome.SUCCESS:
        return None
    if outcome is Outcome.FAILURE2:
        kinds = sorted(scenario.reset_kinds)
        return f"keyword-detected ({'+'.join(kinds)} resets)"
    for element in scenario.path.elements:
        if isinstance(element, StatefulFirewallBox) and element.packets_blocked:
            return "client-side-firewall-blackhole"
    for connection in scenario.server_tcp.connections.values():
        if connection.close_reason is CloseReason.RESET:
            return "insertion-packet-reset-server"
    if scenario.http_server is not None:
        served = scenario.http_server.requests_served
        got_data = any(
            connection.application_data
            for connection in scenario.server_tcp.connections.values()
        )
        if served == 0 and got_data:
            return "server-consumed-junk-data"
    if scenario.path.loss_rate > 0.2:
        return "loss-burst"
    return "silent (loss or unreached server)"


def make_persistent_selector(priority: Optional[Sequence[str]] = None) -> StrategySelector:
    """A selector whose memory survives across (fresh-clock) trials."""
    from repro.strategies.registry import DEFAULT_PRIORITY

    counter = [0.0]

    def time_source() -> float:
        counter[0] += 1.0
        return counter[0]

    store = KeyValueStore(time_source=time_source)
    return StrategySelector(store, priority=list(priority or DEFAULT_PRIORITY))


def attach_intang(
    scenario: Scenario, strategy_id: Optional[str], rng: random.Random, **extra
) -> INTANG:
    """Run INTANG on ``scenario``'s client: ``strategy_id`` pinned (or
    ``None`` for its selector's choice), insertion TTLs the scenario
    calibration's ``hop_delta`` short of the measured hop count.  Each
    trial kind passes its own ``rng`` and its ``extra`` INTANG arguments
    (a persistent ``selector``, the DNS forwarder's ``dns_resolver_ip``)."""
    return INTANG(
        host=scenario.client,
        tcp_host=scenario.client_tcp,
        clock=scenario.clock,
        network=scenario.network,
        rng=rng,
        fixed_strategy=strategy_id,
        hop_delta=scenario.calibration.hop_delta,
        **extra,
    )


# ---------------------------------------------------------------------------
# HTTP (Tables 1 and 4)
# ---------------------------------------------------------------------------
_REGISTRY = get_registry()
_TRIALS_RUN = _REGISTRY.counter("trials.run")
#: HTTP trials whose run the stop rule ended at their final record.
_TRIALS_STOPPED = _REGISTRY.counter("trials.stopped_at_verdict")
_OUTCOME_COUNTERS = {
    Outcome.SUCCESS: _REGISTRY.counter("trials.success"),
    Outcome.FAILURE1: _REGISTRY.counter("trials.failure1"),
    Outcome.FAILURE2: _REGISTRY.counter("trials.failure2"),
}
_BYTES_INSPECTED = _REGISTRY.histogram("trial.bytes_inspected")
#: Wall-clock trial latency.  Registered unconditionally (so serial and
#: chunked instrument sets match) but *observed* only while spans are
#: on — wall times are nondeterministic and would break the
#: serial-vs-parallel telemetry identity the parity tests pin.
_TRIAL_WALL_SECONDS = _REGISTRY.histogram(
    "trial.wall_seconds",
    buckets=(0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5),
)


def _simulate_http_trial(
    vantage: VantagePoint,
    website: Website,
    strategy_id: Optional[str],
    calibration: Calibration = DEFAULT_CALIBRATION,
    seed: int = 0,
    keyword: bool = True,
    selector: Optional[StrategySelector] = None,
    trace: bool = False,
    gfw_variant: Optional[str] = None,
    stop_at_verdict: bool = True,
) -> Tuple[TrialRecord, Scenario]:
    """Simulate one HTTP trial from scratch, returning the record *and*
    the finished scenario.  The caller owns the scenario: hand it back
    with ``release_scenario`` once done with it.  ``trace=True`` turns on
    the packet trace recorder, whose events also land in the
    observability recorder's event ring when that is kept.
    ``gfw_variant`` forces a named installation variant (conformance
    cells).  The run ends once the record is final
    (:meth:`Scenario.record_final`) unless ``stop_at_verdict=False`` asks
    for the full horizon, which a caller reading the scenario beyond the
    record (ladders, device counters, event timelines) needs."""
    wall_start = perf_counter() if get_recorder().spans_on else 0.0
    scenario = acquire_scenario(
        vantage=vantage, website=website, calibration=calibration,
        seed=seed, workload="http", trace=trace, gfw_variant=gfw_variant,
    )
    scenario.stop_at_verdict = stop_at_verdict
    intang = attach_intang(
        scenario, strategy_id, LazyRandom(seed ^ 0x5EED), selector=selector
    )
    if intang.hop_estimator is not None:
        intang.hop_estimator.measure(website.ip)
        if (
            not vantage.inside_china
            and scenario.rng.random() < calibration.outside_ttl_error_probability
        ):
            # §7.1: on outside-China routes the hop measurement is hard
            # to get right; an overshoot sends TTL-limited insertions
            # all the way to the (nearly co-located) server.
            intang.hop_estimator.adjust(website.ip, +2)
    drift = scenario.apply_route_drift()
    client = HTTPClient(scenario.client_tcp)
    _conn, exchange = client.get(
        website.ip,
        host=website.name,
        path=SENSITIVE_PATH if keyword else BENIGN_PATH,
        on_done=scenario.response_done if stop_at_verdict else None,
    )
    scenario.run()

    outcome = classify(exchange.got_response, scenario.gfw_resets_received())
    used = intang.last_strategy_for(website.ip) or (strategy_id or "none")
    if selector is not None:
        intang.report_result(website.ip, outcome is Outcome.SUCCESS)
    record = TrialRecord(
        outcome=outcome,
        strategy_id=used,
        vantage=vantage.name,
        target=website.name,
        keyword=keyword,
        drift=drift,
        detections=scenario.gfw_detections(),
        diagnosis=diagnose_failure(scenario, outcome),
    )
    # Outcome accounting lives here, inside the simulation, so the
    # parallel engine's merged registry equals the serial run's.
    _OUTCOME_COUNTERS[outcome].inc()
    if scenario.stopped_at_verdict:
        _TRIALS_STOPPED.inc()
    _BYTES_INSPECTED.observe(
        sum(device.bytes_inspected for device in scenario.gfw_devices)
    )
    recorder = get_recorder()
    if recorder.spans_on:
        wall_end = perf_counter()
        _TRIAL_WALL_SECONDS.observe(max(0.0, wall_end - wall_start))
        sim_end = scenario.clock.now
        recorder.add(
            make_span(
                f"trial:{used}",
                "trial",
                sim_start=0.0,
                sim_end=sim_end,
                wall_start=wall_start,
                wall_end=wall_end,
                attrs={
                    "strategy": used,
                    "vantage": vantage.name,
                    "target": website.name,
                    "keyword": keyword,
                    "outcome": outcome.value,
                    "seed": seed,
                },
                children=[
                    make_span("setup", "phase", sim_start=0.0, sim_end=0.0),
                    make_span("run", "phase", sim_start=0.0, sim_end=sim_end),
                ],
            )
        )
    return record, scenario


def batch_window() -> int:
    """Always ``1``; kept only because ``perfbench/`` names it.

    Every independent trial runs on its own clock; only fleet waves
    share an event heap.
    """
    return 1


def run_http_trial(
    vantage: VantagePoint,
    website: Website,
    strategy_id: Optional[str],
    calibration: Calibration = DEFAULT_CALIBRATION,
    seed: int = 0,
    keyword: bool = True,
    selector: Optional[StrategySelector] = None,
) -> TrialRecord:
    """One request; ``strategy_id=None`` lets INTANG's selector choose.

    Only the record is kept, so the run stops once it is final; an
    adaptive selector's trial runs to the horizon.
    """
    _TRIALS_RUN.inc()
    record, scenario = _simulate_http_trial(
        vantage, website, strategy_id, calibration,
        seed=seed, keyword=keyword, selector=selector,
        stop_at_verdict=selector is None,
    )
    release_scenario(scenario)
    return record


def _http_outcome(*trial_args) -> Outcome:
    """One :func:`run_http_trial`, reduced to its outcome (the record's
    other fields would only cross the process boundary to be dropped)."""
    return run_http_trial(*trial_args).outcome


def run_http_outcomes(
    tasks: Sequence[Tuple],
    workers: Optional[int] = None,
) -> List[Outcome]:
    """Run independent HTTP trials (serial or fanned out) in task order.

    Each task is a ``(vantage, website, strategy_id, calibration, seed,
    keyword)`` tuple; this is the engine entry point for benches that
    build their own seed formulas (the ablation sweeps).
    """
    return map_trials(_http_outcome, tasks, workers=workers)


def _cell_tasks(
    strategy_id: str,
    vantages: Sequence[VantagePoint],
    websites: Sequence[Website],
    calibration: Calibration,
    repeats: int,
    seed: int,
    keyword: bool,
) -> List[Tuple]:
    return [
        (
            vantage, website, strategy_id, calibration,
            trial_seed(seed, v_index, w_index, repeat, strategy_id), keyword,
        )
        for v_index, vantage in enumerate(vantages)
        for w_index, website in enumerate(websites)
        for repeat in range(repeats)
    ]


def run_strategy_clusters(
    strategy_id: str,
    vantages: Sequence[VantagePoint],
    websites: Sequence[Website],
    calibration: Calibration = DEFAULT_CALIBRATION,
    repeats: int = 1,
    seed: int = 0,
    keyword: bool = True,
    workers: Optional[int] = None,
) -> List[List[VerdictDistribution]]:
    """One Table 1 cell kept as its clusters: ``clusters[v][w]`` tallies
    the ``repeats`` trials of ``vantages[v]`` against ``websites[w]``.

    A (vantage, site) pair is one route, and routes disagree (Ensafi et
    al., PAPERS.md), so these tallies, not the cell's pooled total, are
    the units a resampling of the cell draws.  Trials fan out over
    ``workers`` processes (default: the ``REPRO_WORKERS`` environment
    knob); the seeds are fixed before fan-out, so every tally is
    identical for any worker count.
    """
    tasks = _cell_tasks(
        strategy_id, vantages, websites, calibration, repeats, seed, keyword
    )
    with get_recorder().span(
        f"cell:{strategy_id}", "sweep",
        strategy=strategy_id, trials=len(tasks), keyword=keyword,
    ):
        outcomes = run_http_outcomes(tasks, workers=workers)
    # Tasks run vantage by vantage, site by site, ``repeats`` at a time.
    trials = iter(outcomes)
    return [
        [VerdictDistribution.from_outcomes(islice(trials, repeats)) for _ in websites]
        for _ in vantages
    ]


def run_strategy_cell(
    strategy_id: str,
    vantages: Sequence[VantagePoint],
    websites: Sequence[Website],
    calibration: Calibration = DEFAULT_CALIBRATION,
    repeats: int = 1,
    seed: int = 0,
    keyword: bool = True,
    workers: Optional[int] = None,
) -> VerdictDistribution:
    """One Table 1 cell: a strategy across vantage × site × repeats, the
    sum of its :func:`run_strategy_clusters`."""
    clusters = run_strategy_clusters(
        strategy_id, vantages, websites, calibration,
        repeats=repeats, seed=seed, keyword=keyword, workers=workers,
    )
    return sum((tally for row in clusters for tally in row), VerdictDistribution())


@dataclass
class PerVantageRates:
    """Per-vantage tallies, summarized as Table 4's min/max/avg rates."""

    rates: Dict[str, VerdictDistribution] = field(default_factory=dict)

    def _extremes(self, index: int) -> Tuple[float, float, float]:
        values = [tally.rates()[index] for tally in self.rates.values()]
        if not values:
            return (0.0, 0.0, 0.0)
        return (min(values) * 100, max(values) * 100, sum(values) / len(values) * 100)

    def success_min_max_avg(self) -> Tuple[float, float, float]:
        return self._extremes(0)

    def failure1_min_max_avg(self) -> Tuple[float, float, float]:
        return self._extremes(1)

    def failure2_min_max_avg(self) -> Tuple[float, float, float]:
        return self._extremes(2)


def run_cell_by_provider(
    strategy_id: str,
    vantages: Sequence[VantagePoint],
    websites: Sequence[Website],
    calibration: Calibration = DEFAULT_CALIBRATION,
    repeats: int = 1,
    seed: int = 0,
    keyword: bool = True,
    workers: Optional[int] = None,
) -> Dict[str, VerdictDistribution]:
    """One strategy's rates broken down by provider profile: its
    :func:`run_strategy_clusters` summed per provider, in order of first
    appearance.

    §7.1 observes that "both the Failures 1 and Failures 2 always happen
    with regards to a few specific websites/IPs" and vantage points; the
    per-provider view makes middlebox-driven asymmetries (e.g. Tianjin's
    sanitizers, Aliyun's fragment policy) directly visible.
    """
    clusters = run_strategy_clusters(
        strategy_id, vantages, websites, calibration,
        repeats=repeats, seed=seed, keyword=keyword, workers=workers,
    )
    by_provider: Dict[str, VerdictDistribution] = {}
    for vantage, row in zip(vantages, clusters):
        provider = vantage.provider_profile
        by_provider[provider] = sum(
            row, by_provider.get(provider, VerdictDistribution())
        )
    return by_provider


def _vantage_row_worker(
    vantage: VantagePoint,
    v_index: int,
    websites: Sequence[Website],
    calibration: Calibration,
    repeats: int,
    seed: int,
) -> List[VerdictDistribution]:
    """Process-pool work unit: one vantage's adaptive trial sequence,
    tallied per site.

    A whole vantage is one unit (not one trial) because the persistent
    selector threads its measurement history through the vantage's
    trials — that sequence is inherently serial, but vantages never
    share state and so fan out cleanly.
    """
    selector = make_persistent_selector()
    return [
        VerdictDistribution.from_outcomes(
            run_http_trial(
                vantage, website, None, calibration,
                seed=trial_seed(seed, v_index, w_index, repeat, "intang"),
                keyword=True,
                selector=selector,
            ).outcome
            for repeat in range(repeats)
        )
        for w_index, website in enumerate(websites)
    ]


def run_per_vantage_clusters(
    vantages: Sequence[VantagePoint],
    websites: Sequence[Website],
    calibration: Calibration = DEFAULT_CALIBRATION,
    repeats: int = 1,
    seed: int = 0,
    workers: Optional[int] = None,
) -> List[List[VerdictDistribution]]:
    """Table 4's "INTANG Performance" row kept as its clusters:
    ``clusters[v][w]`` tallies the keyword trials of ``vantages[v]``
    against ``websites[w]`` with INTANG's selector choosing the strategy
    and carrying its history across one vantage's sites and repeats,
    fanned out a vantage at a time.  Table 4's fixed-strategy rows are
    :func:`run_strategy_clusters` cells."""
    websites = tuple(websites)
    tasks = [
        (vantage, v_index, websites, calibration, repeats, seed)
        for v_index, vantage in enumerate(vantages)
    ]
    return map_trials(_vantage_row_worker, tasks, workers=workers)


# ---------------------------------------------------------------------------
# DNS over TCP (Table 6)
# ---------------------------------------------------------------------------
@dataclass
class DNSTrialResult:
    answered: bool
    answer: Optional[str]
    poisoned: bool

    @property
    def success(self) -> bool:
        return self.answered and not self.poisoned and self.answer == HONEST_DNS_ANSWER


def run_dns_trial(
    vantage: VantagePoint,
    resolver: Resolver,
    strategy_id: Optional[str] = "improved-tcb-teardown",
    calibration: Calibration = DEFAULT_CALIBRATION,
    seed: int = 0,
    domain: str = "www.dropbox.com",
    use_intang: bool = True,
) -> DNSTrialResult:
    """Resolve a censored domain once, through INTANG's DNS forwarder.

    Success is the paper's: the honest answer arrives (no poisoning, no
    TCP reset).  Without INTANG the UDP query is poisoned in flight.
    """
    from repro.apps.dns import DNSUdpClient

    _TRIALS_RUN.inc()
    # §7.2 measured two *specific* resolver routes: interference was
    # seen only from Tianjin, so the firewall is forced there and
    # forced absent elsewhere rather than drawn from the population.
    force_firewall: Optional[bool] = False
    firewall_teardown = 1.0
    if vantage.name == "unicom-tianjin":
        force_firewall = True
        firewall_teardown = TIANJIN_DNS_FIREWALL_TEARDOWN
    scenario = acquire_scenario(
        vantage=vantage, resolver=resolver, calibration=calibration,
        seed=seed, workload="dns",
        force_firewall=force_firewall,
        firewall_teardown_probability=firewall_teardown,
    )
    if use_intang:
        attach_intang(
            scenario, strategy_id, random.Random(seed ^ 0xD5),
            dns_resolver_ip=resolver.ip,
        )
    assert scenario.udp_client is not None
    client = DNSUdpClient(scenario.udp_client, resolver.ip, scenario.clock)
    answers: List[str] = []
    client.resolve(domain, lambda message: answers.extend(message.answers))
    scenario.run()
    release_scenario(scenario)
    answered = bool(answers)
    answer = answers[0] if answers else None
    return DNSTrialResult(
        answered=answered,
        answer=answer,
        poisoned=answered and answer != HONEST_DNS_ANSWER,
    )


def run_table6_rows(queries: int) -> List[Tuple[str, str, Dict[str, int]]]:
    """Table 6's Dyn rows kept as their clusters: ``(name, ip, successes
    per vantage)``, each count how many of ``queries`` resolutions
    through INTANG (improved TCB teardown) succeed.  Query ``q`` uses
    seed ``salt + q``, the salt stable per resolver (crc32 of its IP,
    mod 977); seeds are fixed before fan-out, so every count is
    identical for any worker count."""
    tasks = [
        (vantage, resolver, "improved-tcb-teardown", DEFAULT_CALIBRATION,
         zlib.crc32(resolver.ip.encode("utf-8")) % 977 + q)
        for resolver in DYN_RESOLVERS
        for vantage in CHINA_VANTAGE_POINTS
        for q in range(queries)
    ]
    # Tasks run resolver by resolver, vantage by vantage.
    results = iter(map_trials(run_dns_trial, tasks))
    return [
        (
            resolver.name,
            resolver.ip,
            {
                vantage.name: sum(r.success for r in islice(results, queries))
                for vantage in CHINA_VANTAGE_POINTS
            },
        )
        for resolver in DYN_RESOLVERS
    ]


# ---------------------------------------------------------------------------
# Tor and VPN (§7.3)
# ---------------------------------------------------------------------------
@dataclass
class TorTrialResult:
    first_circuit_ok: bool
    probe_launched: bool
    ip_blocked: bool
    reconnect_ok: bool


def run_tor_trial(
    vantage: VantagePoint,
    bridge_site: Website,
    strategy_id: Optional[str] = None,
    calibration: Calibration = DEFAULT_CALIBRATION,
    seed: int = 0,
) -> TorTrialResult:
    """Open a circuit, wait out the probe window, try to reconnect.

    ``strategy_id=None`` means bare Tor; with a strategy INTANG hides the
    handshake fingerprint from the GFW so no probe ever fires.
    """
    from repro.apps.tor import TorClient

    _TRIALS_RUN.inc()
    scenario = acquire_scenario(
        vantage=vantage, website=bridge_site, calibration=calibration,
        seed=seed, workload="tor",
    )
    if strategy_id is not None:
        attach_intang(scenario, strategy_id, random.Random(seed ^ 0x70))
    client = TorClient(scenario.client_tcp)
    first = client.open_circuit(bridge_site.ip)
    scenario.run(6.0)  # roomy window for detection + active probe
    probes = [
        probe
        for device in scenario.gfw_devices
        if device.active_prober is not None
        for probe in device.active_prober.probes
    ]
    blocked = any(
        bridge_site.ip in device.blocked_ips for device in scenario.gfw_devices
    )
    second = client.open_circuit(bridge_site.ip)
    scenario.run(6.0)
    release_scenario(scenario)
    return TorTrialResult(
        first_circuit_ok=first.established and first.cells_relayed > 0,
        probe_launched=bool(probes),
        ip_blocked=blocked,
        reconnect_ok=second.established and second.cells_relayed > 0,
    )


@dataclass
class VPNTrialResult:
    established: bool
    frames_ok: bool
    reset: bool


def run_vpn_trial(
    vantage: VantagePoint,
    vpn_site: Website,
    strategy_id: Optional[str] = None,
    calibration: Calibration = DEFAULT_CALIBRATION,
    seed: int = 0,
) -> VPNTrialResult:
    from repro.apps.vpn import OpenVPNClient

    _TRIALS_RUN.inc()
    scenario = acquire_scenario(
        vantage=vantage, website=vpn_site, calibration=calibration,
        seed=seed, workload="vpn",
    )
    if strategy_id is not None:
        attach_intang(scenario, strategy_id, random.Random(seed ^ 0x4A))
    client = OpenVPNClient(scenario.client_tcp)
    session = client.open_session(vpn_site.ip)
    scenario.run(8.0)
    resets = scenario.gfw_resets_received()
    release_scenario(scenario)
    return VPNTrialResult(
        established=session.established,
        frames_ok=session.payload_frames > 0,
        reset=session.reset or resets > 0,
    )
