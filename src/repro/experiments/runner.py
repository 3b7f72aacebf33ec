"""Trial runner and outcome classification (§3.3 / §3.4 notation).

"Success means that we receive the HTTP response from the server and
receive no reset packets from the GFW.  Failure 1 means that we receive
no HTTP response from the server nor do we receive any resets from the
GFW.  Failure 2 means that we receive reset packets from the GFW."

One call to :func:`run_http_trial` is one row-cell repetition: a fresh
topology is built (equivalent to the paper's inter-test intervals that
let the 90-second blacklist lapse), INTANG measures the hop count, the
route possibly drifts out from under that measurement, the client
requests a page whose URL carries (or not) the sensitive keyword, and
the outcome is classified from the client's viewpoint only — exactly
what a real measurement client can see.
"""

from __future__ import annotations

import enum
import random
import zlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.cache import KeyValueStore
from repro.core.env import env_int
from repro.core.intang import INTANG
from repro.core.selection import StrategySelector
from repro.apps.dns import DNSUdpClient
from repro.apps.http import HTTPClient
from repro.apps.tor import TorClient
from repro.apps.vpn import OpenVPNClient
from repro.experiments import result_cache
from repro.experiments.calibration import Calibration, DEFAULT_CALIBRATION
from repro.experiments.parallel import map_trials, note_trials, run_sharded
from repro.experiments.scenarios import (
    HONEST_DNS_ANSWER,
    Scenario,
    acquire_scenario,
    build_scenario,
    release_scenario,
)
from repro.netsim.batch import BatchSim
from repro.netstack.packet import recycle_packets
from repro.experiments.vantage import VantagePoint
from repro.experiments.websites import Resolver, Website
from repro.telemetry.metrics import get_registry
from repro.telemetry.trace import get_tracer, make_span

#: The keyword the paper probes with (§3.3).
SENSITIVE_PATH = "/?search=ultrasurf"
BENIGN_PATH = "/index.html"

#: §7.2: Tianjin's resolver paths cross equipment that adopts forged
#: RSTs often enough to push success down to the observed 24-38 %
#: (two redundant RSTs must both fail to poison it: (1-p)^2 ≈ 0.30).
TIANJIN_DNS_FIREWALL_TEARDOWN = 0.45


class Outcome(enum.Enum):
    SUCCESS = "success"
    FAILURE1 = "failure1"  # silence: no response, no GFW resets
    FAILURE2 = "failure2"  # GFW resets observed


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
        kinds = sorted(
            {
                str(p.meta.get("origin", "gfw")).replace("gfw-", "")
                for p in scenario.gfw_packets_at_client
            }
        )
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


def classify(got_response: bool, gfw_resets: int) -> Outcome:
    if gfw_resets > 0:
        return Outcome.FAILURE2
    if got_response:
        return Outcome.SUCCESS
    return Outcome.FAILURE1


def make_persistent_selector(priority: Optional[Sequence[str]] = None) -> StrategySelector:
    """A selector whose memory survives across (fresh-clock) trials."""
    from repro.strategies.registry import DEFAULT_PRIORITY

    counter = [0.0]

    def time_source() -> float:
        counter[0] += 1.0
        return counter[0]

    store = KeyValueStore(time_source=time_source)
    return StrategySelector(store, priority=list(priority or DEFAULT_PRIORITY))


# ---------------------------------------------------------------------------
# HTTP (Tables 1 and 4)
# ---------------------------------------------------------------------------
def _http_record_payload(record: TrialRecord) -> Dict:
    """A JSON-representable image of a trial record (for the
    historical-result cache)."""
    return {
        "outcome": record.outcome.value,
        "strategy_id": record.strategy_id,
        "vantage": record.vantage,
        "target": record.target,
        "keyword": record.keyword,
        "drift": record.drift,
        "detections": record.detections,
        "diagnosis": record.diagnosis,
    }


def _http_record_from_payload(payload: Dict) -> TrialRecord:
    return TrialRecord(
        outcome=Outcome(payload["outcome"]),
        strategy_id=payload["strategy_id"],
        vantage=payload["vantage"],
        target=payload["target"],
        keyword=payload["keyword"],
        drift=payload.get("drift"),
        detections=payload.get("detections", 0),
        diagnosis=payload.get("diagnosis"),
    )


_REGISTRY = get_registry()
_TRIALS_RUN = _REGISTRY.counter("trials.run")
_OUTCOME_COUNTERS = {
    Outcome.SUCCESS: _REGISTRY.counter("trials.success"),
    Outcome.FAILURE1: _REGISTRY.counter("trials.failure1"),
    Outcome.FAILURE2: _REGISTRY.counter("trials.failure2"),
}
_BYTES_INSPECTED = _REGISTRY.histogram("trial.bytes_inspected")
#: Wall-clock trial latency.  Registered unconditionally (so serial and
#: sharded instrument sets match) but *observed* only while tracing is
#: on — wall times are nondeterministic and would break the
#: serial-vs-sharded telemetry identity the parity tests pin.
_TRIAL_WALL_SECONDS = _REGISTRY.histogram(
    "trial.wall_seconds",
    buckets=(0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5),
)


@dataclass
class _HttpTrialContext:
    """The live state of one HTTP trial between setup and finalization.

    Batched execution interleaves many trials through one shared event
    heap; each trial's pre-run state (the INTANG instance, the in-flight
    HTTP exchange, the drift that was applied) parks here until the batch
    run drains and the trial can be classified.
    """

    vantage: VantagePoint
    website: Website
    strategy_id: Optional[str]
    keyword: bool
    selector: Optional[StrategySelector]
    scenario: Scenario
    intang: INTANG
    exchange: object
    drift: Optional[str]
    seed: int = 0
    wall_start: float = 0.0


def _http_trial_setup(
    vantage: VantagePoint,
    website: Website,
    strategy_id: Optional[str],
    calibration: Calibration,
    seed: int,
    keyword: bool,
    selector: Optional[StrategySelector] = None,
    trace: bool = False,
    gfw_variant: Optional[str] = None,
    batch: Optional[BatchSim] = None,
) -> _HttpTrialContext:
    """Build the trial topology and queue its workload, without running.

    The setup phase only *schedules* (INTANG's interception hooks, the
    client's request segments); no event fires until the clock runs, so a
    batch runner can interleave many set-up trials through one heap.
    When ``batch`` is given the scenario is leased from the pool (the
    caller hands it back via ``release_scenario``) and its clock is
    adopted into the shared heap before anything is scheduled on it.
    """
    wall_start = perf_counter() if get_tracer().enabled else 0.0
    scenario = acquire_scenario(
        vantage=vantage, website=website, calibration=calibration,
        seed=seed, workload="http", trace=trace, gfw_variant=gfw_variant,
        lease=batch is not None,
    )
    if batch is not None:
        batch.adopt(scenario.clock)
    intang = INTANG(
        host=scenario.client,
        tcp_host=scenario.client_tcp,
        clock=scenario.clock,
        network=scenario.network,
        rng=random.Random(seed ^ 0x5EED),
        fixed_strategy=strategy_id,
        hop_delta=calibration.hop_delta,
        selector=selector,
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
    )
    return _HttpTrialContext(
        vantage=vantage,
        website=website,
        strategy_id=strategy_id,
        keyword=keyword,
        selector=selector,
        scenario=scenario,
        intang=intang,
        exchange=exchange,
        drift=drift,
        seed=seed,
        wall_start=wall_start,
    )


def _http_trial_finalize(ctx: _HttpTrialContext) -> TrialRecord:
    """Classify a finished trial and count it; the run phase is over."""
    scenario = ctx.scenario
    outcome = classify(ctx.exchange.got_response, scenario.gfw_resets_received())
    used = ctx.intang.last_strategy_for(ctx.website.ip) or (ctx.strategy_id or "none")
    if ctx.selector is not None:
        ctx.intang.report_result(ctx.website.ip, outcome is Outcome.SUCCESS)
    record = TrialRecord(
        outcome=outcome,
        strategy_id=used,
        vantage=ctx.vantage.name,
        target=ctx.website.name,
        keyword=ctx.keyword,
        drift=ctx.drift,
        detections=scenario.gfw_detections(),
        diagnosis=diagnose_failure(scenario, outcome),
    )
    # Outcome accounting lives here — inside the fresh simulation — so a
    # cache-replayed trial never re-counts and the parallel engine's
    # merged registry equals the serial run's.
    _OUTCOME_COUNTERS[outcome].inc()
    _BYTES_INSPECTED.observe(
        sum(device.bytes_inspected for device in scenario.gfw_devices)
    )
    tracer = get_tracer()
    if tracer.enabled:
        # The trial span is built whole here — batched trials finish out
        # of order, so begin/end stack discipline can't describe them.
        wall_end = perf_counter()
        _TRIAL_WALL_SECONDS.observe(max(0.0, wall_end - ctx.wall_start))
        sim_end = scenario.clock.now
        tracer.add(
            make_span(
                f"trial:{used}",
                "trial",
                sim_start=0.0,
                sim_end=sim_end,
                wall_start=ctx.wall_start,
                wall_end=wall_end,
                attrs={
                    "strategy": used,
                    "vantage": ctx.vantage.name,
                    "target": ctx.website.name,
                    "keyword": ctx.keyword,
                    "outcome": outcome.value,
                    "seed": ctx.seed,
                },
                children=[
                    make_span("setup", "phase", sim_start=0.0, sim_end=0.0),
                    make_span("run", "phase", sim_start=0.0, sim_end=sim_end),
                ],
            )
        )
    return record


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
) -> Tuple[TrialRecord, Scenario]:
    """Simulate one HTTP trial from scratch, returning the record *and*
    the finished scenario (for diagnosis; the cache layer above discards
    it).  ``trace=True`` turns on the packet trace recorder, whose events
    also land on the telemetry bus when that is enabled.  ``gfw_variant``
    forces a named installation variant (conformance cells)."""
    ctx = _http_trial_setup(
        vantage, website, strategy_id, calibration, seed, keyword,
        selector=selector, trace=trace, gfw_variant=gfw_variant,
    )
    ctx.scenario.run()
    record = _http_trial_finalize(ctx)
    return record, ctx.scenario


def batch_window() -> int:
    """Trials multiplexed per shared event heap (``REPRO_BATCH_TRIALS``).

    1 disables batching (the per-trial run loop); the default window of
    16 amortizes scheduler entry across a cell's seed sweep without
    leasing more than 16 live scenario object graphs per cell.
    """
    return env_int("REPRO_BATCH_TRIALS", 16, minimum=1)


def _run_http_batch_records(
    tasks: Sequence[Tuple],
    gfw_variant: Optional[str] = None,
) -> List[TrialRecord]:
    """Run a window of independent HTTP trials through one shared heap.

    Each task is the usual ``(vantage, website, strategy_id, calibration,
    seed, keyword)`` tuple.  Setup happens in task order (every RNG draw
    a trial makes flows from its own seeded generators, so interleaving
    the *run* phases cannot perturb any trial's draw sequence), then one
    batch run drains every trial to its own horizon, then finalization
    again walks task order.  Byte-identical to running the tasks one at a
    time — pinned by the batch-parity tier-1 tests.
    """
    tracer = get_tracer()
    batch_span = tracer.begin(
        f"http-batch[{len(tasks)}]", "batch", window=len(tasks)
    )
    try:
        batch = BatchSim()
        contexts: List[_HttpTrialContext] = []
        try:
            for task in tasks:
                vantage, website, strategy_id, calibration, seed, keyword = task
                contexts.append(
                    _http_trial_setup(
                        vantage, website, strategy_id, calibration, seed,
                        keyword, gfw_variant=gfw_variant, batch=batch,
                    )
                )
            batch.run(
                [ctx.scenario.calibration.trial_duration for ctx in contexts]
            )
        finally:
            batch.release()
        records = []
        for ctx in contexts:
            records.append(_http_trial_finalize(ctx))
            scenario = ctx.scenario
            # The record is final and the scenario goes straight back to
            # the pool, so the sniffer's forged-reset packets are dead —
            # harvest them into the packet free lists (unless a trace
            # retains them).
            trace = scenario.trace
            if scenario.gfw_packets_at_client and (
                trace is None or not trace.enabled
            ):
                recycle_packets(scenario.gfw_packets_at_client)
                scenario.gfw_packets_at_client.clear()
            release_scenario(scenario)
        return records
    finally:
        tracer.end(batch_span)


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

    When no adaptive selector is threaded through (the trial is then a
    pure function of its arguments), the historical-result cache may
    replay a previously recorded outcome instead of re-simulating —
    INTANG's own trick (§6), applied to the harness.  Disable with
    ``REPRO_RESULT_CACHE=0``.
    """
    note_trials()
    get_registry().counter("trials.run").inc()
    cache_key: Optional[str] = None
    if selector is None and result_cache.enabled():
        cache_key = result_cache.trial_key(
            "http", vantage, website, strategy_id, calibration, seed, keyword
        )
        hit = result_cache.lookup(cache_key)
        if hit is not None and hit.get("record") is not None:
            return _http_record_from_payload(hit["record"])
    record, _scenario = _simulate_http_trial(
        vantage, website, strategy_id, calibration,
        seed=seed, keyword=keyword, selector=selector,
    )
    if cache_key is not None:
        result_cache.record_trial(
            cache_key, record.outcome.value, _http_record_payload(record)
        )
    return record


@dataclass
class RateTriple:
    """Aggregated Success / Failure-1 / Failure-2 rates.

    Carries the raw outcome *counts* beside the historical rate floats,
    so every table row can be read as a distribution-valued verdict
    (``distribution``/``wilson``) instead of a bare point estimate.  The
    count fields default to zero and sit after the originals, keeping
    positional construction in older call sites valid.
    """

    success: float = 0.0
    failure1: float = 0.0
    failure2: float = 0.0
    trials: int = 0
    successes: int = 0
    failure1s: int = 0
    failure2s: int = 0

    @classmethod
    def from_outcomes(cls, outcomes: Iterable[Outcome]) -> "RateTriple":
        counts = {Outcome.SUCCESS: 0, Outcome.FAILURE1: 0, Outcome.FAILURE2: 0}
        total = 0
        for outcome in outcomes:
            counts[outcome] += 1
            total += 1
        if total == 0:
            return cls()
        return cls(
            success=counts[Outcome.SUCCESS] / total,
            failure1=counts[Outcome.FAILURE1] / total,
            failure2=counts[Outcome.FAILURE2] / total,
            trials=total,
            successes=counts[Outcome.SUCCESS],
            failure1s=counts[Outcome.FAILURE1],
            failure2s=counts[Outcome.FAILURE2],
        )

    def as_percentages(self) -> Tuple[float, float, float]:
        return (self.success * 100, self.failure1 * 100, self.failure2 * 100)

    @property
    def distribution(self):
        """The counts as a :class:`~repro.analysis.inconsistency.
        VerdictDistribution` (lazy import: the analysis layer must stay
        optional for pickled pool workers)."""
        from repro.analysis.inconsistency import VerdictDistribution

        return VerdictDistribution(
            self.successes, self.failure1s, self.failure2s
        )

    def wilson(self, z: float = 1.96) -> Tuple[float, float]:
        """Wilson confidence bounds on the success rate."""
        return self.distribution.wilson(z=z)


def _http_outcome_worker(task: Tuple) -> Outcome:
    """Process-pool work unit: one HTTP trial, reduced to its outcome."""
    vantage, website, strategy_id, calibration, seed, keyword = task
    record = run_http_trial(
        vantage, website, strategy_id, calibration, seed=seed, keyword=keyword,
    )
    return record.outcome


def _http_task_key(task: Tuple) -> str:
    vantage, website, strategy_id, calibration, seed, keyword = task
    return result_cache.trial_key(
        "http", vantage, website, strategy_id, calibration, seed, keyword
    )


def _http_outcome_batch_worker(window: Tuple[Tuple, ...]) -> List[Outcome]:
    """Process-pool work unit: a window of HTTP trials on one shared heap.

    Mirrors :func:`run_http_trial`'s bookkeeping per trial (trial count,
    ``trials.run``, historical-result recording) — the parent has already
    filtered cache hits out of the window.
    """
    tasks = list(window)
    cache_on = result_cache.enabled()
    note_trials(len(tasks))
    _TRIALS_RUN.inc(len(tasks))
    records = _run_http_batch_records(tasks)
    outcomes: List[Outcome] = []
    for task, record in zip(tasks, records):
        if cache_on:
            result_cache.record_trial(
                _http_task_key(task), record.outcome.value,
                _http_record_payload(record),
            )
        outcomes.append(record.outcome)
    return outcomes


def _dispatch_http_tasks(
    tasks: List[Tuple], workers: Optional[int], shards: Optional[int] = None
) -> List[Outcome]:
    """Fan trial tasks out — batch-stepped windows unless disabled.

    ``shards`` switches from per-window pool dispatch to the persistent
    shard runner (one contiguous slice of windows per worker, one
    telemetry delta per shard).  Outcomes are identical either way.
    """
    window = batch_window()
    sharded = shards is not None and shards > 1
    if window <= 1 or len(tasks) <= 1:
        if sharded:
            return run_sharded(
                _http_outcome_worker, tasks, shards=shards, workers=workers
            )
        return map_trials(_http_outcome_worker, tasks, workers=workers)
    windows = [
        tuple(tasks[start : start + window])
        for start in range(0, len(tasks), window)
    ]
    trials = [len(w) for w in windows]
    if sharded:
        chunks = run_sharded(
            _http_outcome_batch_worker, windows, shards=shards,
            workers=workers, trials_per_task=trials,
        )
    else:
        chunks = map_trials(
            _http_outcome_batch_worker, windows, workers=workers,
            trials_per_task=trials,
        )
    return [outcome for chunk in chunks for outcome in chunk]


def run_http_outcomes(
    tasks: Sequence[Tuple],
    workers: Optional[int] = None,
    shards: Optional[int] = None,
) -> List[Outcome]:
    """Run independent HTTP trials (serial or fanned out) in task order.

    Each task is a ``(vantage, website, strategy_id, calibration, seed,
    keyword)`` tuple; this is the engine entry point for benches that
    build their own seed formulas (the ablation sweeps).

    Historical results are consulted here, *before* the process-pool
    fan-out, so a fully-cached cell costs a few dict lookups and never
    spawns a worker; outcomes computed by workers are recorded in this
    (parent) process so the next sweep over the same cell is warm.

    Uncached trials run in batch-stepped windows (``REPRO_BATCH_TRIALS``
    trials per shared event heap); set the knob to 1 for the per-trial
    run loop.  The two paths are byte-identical.
    """
    tasks = [tuple(t) for t in tasks]
    if not result_cache.enabled():
        return _dispatch_http_tasks(tasks, workers, shards)
    keys = [_http_task_key(task) for task in tasks]
    outcomes: List[Optional[Outcome]] = []
    for key in keys:
        hit = result_cache.lookup(key)
        outcomes.append(Outcome(hit["outcome"]) if hit is not None else None)
    pending = [index for index, outcome in enumerate(outcomes) if outcome is None]
    if len(pending) < len(tasks):
        note_trials(len(tasks) - len(pending))  # cache hits, but still trials
    if pending:
        fresh = _dispatch_http_tasks(
            [tasks[index] for index in pending], workers, shards
        )
        for index, outcome in zip(pending, fresh):
            outcomes[index] = outcome
            result_cache.record_outcome(keys[index], outcome.value)
    return outcomes  # type: ignore[return-value]


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


def run_strategy_cell(
    strategy_id: str,
    vantages: Sequence[VantagePoint],
    websites: Sequence[Website],
    calibration: Calibration = DEFAULT_CALIBRATION,
    repeats: int = 1,
    seed: int = 0,
    keyword: bool = True,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
) -> RateTriple:
    """One Table 1 cell: a strategy across vantage × site × repeats.

    Trials fan out over ``workers`` processes (default: the
    ``REPRO_WORKERS`` environment knob); the seeds are fixed before
    fan-out, so the resulting :class:`RateTriple` is identical for any
    worker count.  ``shards`` (> 1) routes the fan-out through the
    persistent shard runner instead of per-window dispatch.
    """
    tasks = _cell_tasks(
        strategy_id, vantages, websites, calibration, repeats, seed, keyword
    )
    with get_tracer().span(
        f"cell:{strategy_id}", "sweep",
        strategy=strategy_id, trials=len(tasks), keyword=keyword,
    ):
        outcomes = run_http_outcomes(tasks, workers=workers, shards=shards)
    return RateTriple.from_outcomes(outcomes)


@dataclass
class PerVantageRates:
    """Per-vantage success rates, summarized as Table 4's min/max/avg."""

    rates: Dict[str, RateTriple] = field(default_factory=dict)

    def _extremes(self, attribute: str) -> Tuple[float, float, float]:
        values = [getattr(rate, attribute) for rate in self.rates.values()]
        if not values:
            return (0.0, 0.0, 0.0)
        return (min(values) * 100, max(values) * 100, sum(values) / len(values) * 100)

    def success_min_max_avg(self) -> Tuple[float, float, float]:
        return self._extremes("success")

    def failure1_min_max_avg(self) -> Tuple[float, float, float]:
        return self._extremes("failure1")

    def failure2_min_max_avg(self) -> Tuple[float, float, float]:
        return self._extremes("failure2")


def run_cell_by_provider(
    strategy_id: str,
    vantages: Sequence[VantagePoint],
    websites: Sequence[Website],
    calibration: Calibration = DEFAULT_CALIBRATION,
    repeats: int = 1,
    seed: int = 0,
    keyword: bool = True,
    workers: Optional[int] = None,
) -> Dict[str, RateTriple]:
    """One strategy's rates broken down by provider profile.

    §7.1 observes that "both the Failures 1 and Failures 2 always happen
    with regards to a few specific websites/IPs" and vantage points; the
    per-provider view makes middlebox-driven asymmetries (e.g. Tianjin's
    sanitizers, Aliyun's fragment policy) directly visible.
    """
    tasks = _cell_tasks(
        strategy_id, vantages, websites, calibration, repeats, seed, keyword
    )
    outcomes = run_http_outcomes(tasks, workers=workers)
    outcomes_by_provider: Dict[str, List[Outcome]] = {}
    for task, outcome in zip(tasks, outcomes):
        vantage = task[0]
        outcomes_by_provider.setdefault(vantage.provider_profile, []).append(outcome)
    return {
        provider: RateTriple.from_outcomes(bucket)
        for provider, bucket in outcomes_by_provider.items()
    }


def _vantage_row_worker(task: Tuple) -> RateTriple:
    """Process-pool work unit: one vantage's full trial sequence.

    A whole vantage is one unit (not one trial) because the adaptive
    INTANG row threads a persistent selector through its vantage's
    trials — that sequence is inherently serial, but vantages never share
    state and so fan out cleanly.
    """
    (
        vantage, v_index, websites, strategy_id,
        calibration, repeats, seed, adaptive,
    ) = task
    selector = make_persistent_selector() if adaptive else None
    outcomes: List[Outcome] = []
    for w_index, website in enumerate(websites):
        for repeat in range(repeats):
            record = run_http_trial(
                vantage, website,
                None if adaptive else strategy_id,
                calibration,
                seed=trial_seed(seed, v_index, w_index, repeat,
                                strategy_id or "intang"),
                keyword=True,
                selector=selector,
            )
            outcomes.append(record.outcome)
    return RateTriple.from_outcomes(outcomes)


def run_per_vantage(
    strategy_id: Optional[str],
    vantages: Sequence[VantagePoint],
    websites: Sequence[Website],
    calibration: Calibration = DEFAULT_CALIBRATION,
    repeats: int = 1,
    seed: int = 0,
    adaptive: bool = False,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
) -> PerVantageRates:
    """Per-vantage rates for one strategy, fanned out a vantage at a time."""
    websites = tuple(websites)
    tasks = [
        (vantage, v_index, websites, strategy_id,
         calibration, repeats, seed, adaptive)
        for v_index, vantage in enumerate(vantages)
    ]
    if shards is not None and shards > 1:
        triples = run_sharded(
            _vantage_row_worker, tasks, shards=shards, workers=workers,
            trials_per_task=len(websites) * repeats,
        )
    else:
        triples = map_trials(
            _vantage_row_worker, tasks, workers=workers,
            trials_per_task=len(websites) * repeats,
        )
    result = PerVantageRates()
    for vantage, triple in zip(vantages, triples):
        result.rates[vantage.name] = triple
    return result


def run_table4_row(
    strategy_id: Optional[str],
    vantages: Sequence[VantagePoint],
    websites: Sequence[Website],
    calibration: Calibration = DEFAULT_CALIBRATION,
    repeats: int = 1,
    seed: int = 0,
    adaptive: bool = False,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
) -> PerVantageRates:
    """One Table 4 row; ``adaptive=True`` is the "INTANG Performance" row
    (the selector carries measurement history across repeats)."""
    return run_per_vantage(
        strategy_id, vantages, websites, calibration,
        repeats=repeats, seed=seed, adaptive=adaptive, workers=workers,
        shards=shards,
    )


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


def _dns_task_key(
    vantage: VantagePoint,
    resolver: Resolver,
    strategy_id: Optional[str],
    calibration: Calibration,
    seed: int,
    domain: str,
    use_intang: bool,
) -> str:
    return result_cache.trial_key(
        "dns", vantage, resolver, strategy_id, calibration, seed,
        extra=f"{domain}:{'intang' if use_intang else 'bare'}",
    )


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
    note_trials()
    get_registry().counter("trials.run").inc()
    cache_key: Optional[str] = None
    if result_cache.enabled():
        cache_key = _dns_task_key(
            vantage, resolver, strategy_id, calibration, seed, domain, use_intang
        )
        hit = result_cache.lookup(cache_key)
        if hit is not None and hit.get("record") is not None:
            payload = hit["record"]
            return DNSTrialResult(
                answered=payload["answered"],
                answer=payload["answer"],
                poisoned=payload["poisoned"],
            )
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
        INTANG(
            host=scenario.client,
            tcp_host=scenario.client_tcp,
            clock=scenario.clock,
            network=scenario.network,
            rng=random.Random(seed ^ 0xD5),
            fixed_strategy=strategy_id,
            hop_delta=calibration.hop_delta,
            dns_resolver_ip=resolver.ip,
        )
    assert scenario.udp_client is not None
    client = DNSUdpClient(scenario.udp_client, resolver.ip, scenario.clock)
    answers: List[str] = []
    client.resolve(domain, lambda message: answers.extend(message.answers))
    scenario.run()
    answered = bool(answers)
    answer = answers[0] if answers else None
    result = DNSTrialResult(
        answered=answered,
        answer=answer,
        poisoned=answered and answer != HONEST_DNS_ANSWER,
    )
    if cache_key is not None:
        result_cache.record_trial(
            cache_key,
            "success" if result.success else "failure",
            {
                "answered": result.answered,
                "answer": result.answer,
                "poisoned": result.poisoned,
            },
        )
    return result


def _dns_trial_worker(task: Tuple) -> DNSTrialResult:
    vantage, resolver, strategy_id, calibration, seed, domain, use_intang = task
    return run_dns_trial(
        vantage, resolver, strategy_id, calibration,
        seed=seed, domain=domain, use_intang=use_intang,
    )


def run_dns_cell(
    vantage: VantagePoint,
    resolver: Resolver,
    queries: int,
    strategy_id: Optional[str] = "improved-tcb-teardown",
    calibration: Calibration = DEFAULT_CALIBRATION,
    seed: int = 0,
    domain: str = "www.dropbox.com",
    use_intang: bool = True,
    workers: Optional[int] = None,
) -> float:
    """One Table 6 cell: the success rate of ``queries`` resolutions.

    Query ``q`` uses seed ``seed + q``, fixed before fan-out, so the rate
    is identical for any worker count.
    """
    if queries <= 0:
        return 0.0
    tasks = [
        (vantage, resolver, strategy_id, calibration, seed + q, domain, use_intang)
        for q in range(queries)
    ]
    if not result_cache.enabled():
        results = map_trials(_dns_trial_worker, tasks, workers=workers)
        return sum(1 for r in results if r.success) / queries
    # Replay recorded resolutions before fanning out (see
    # run_http_outcomes for the rationale).
    successes = 0
    pending: List[Tuple] = []
    for task in tasks:
        hit = result_cache.lookup(_dns_task_key(*task))
        if hit is not None:
            note_trials()
            successes += 1 if hit["outcome"] == "success" else 0
        else:
            pending.append(task)
    if pending:
        fresh = map_trials(_dns_trial_worker, pending, workers=workers)
        for task, result in zip(pending, fresh):
            result_cache.record_trial(
                _dns_task_key(*task),
                "success" if result.success else "failure",
                {
                    "answered": result.answered,
                    "answer": result.answer,
                    "poisoned": result.poisoned,
                },
            )
            successes += 1 if result.success else 0
    return successes / queries


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
    note_trials()
    get_registry().counter("trials.run").inc()
    scenario = acquire_scenario(
        vantage=vantage, website=bridge_site, calibration=calibration,
        seed=seed, workload="tor",
    )
    if strategy_id is not None:
        INTANG(
            host=scenario.client,
            tcp_host=scenario.client_tcp,
            clock=scenario.clock,
            network=scenario.network,
            rng=random.Random(seed ^ 0x70),
            fixed_strategy=strategy_id,
            hop_delta=calibration.hop_delta,
        )
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
    return TorTrialResult(
        first_circuit_ok=first.established and first.cells_relayed > 0,
        probe_launched=bool(probes),
        ip_blocked=blocked,
        reconnect_ok=second.established and second.cells_relayed > 0,
    )


def _tor_trial_worker(task: Tuple) -> TorTrialResult:
    vantage, bridge_site, strategy_id, calibration, seed = task
    return run_tor_trial(vantage, bridge_site, strategy_id, calibration, seed=seed)


def run_tor_cell(
    vantages: Sequence[VantagePoint],
    bridge_site: Website,
    strategy_id: Optional[str] = None,
    calibration: Calibration = DEFAULT_CALIBRATION,
    seed: int = 0,
    workers: Optional[int] = None,
) -> List[TorTrialResult]:
    """One Tor trial per vantage, in vantage order (§7.3's campaign)."""
    tasks = [
        (vantage, bridge_site, strategy_id, calibration, seed)
        for vantage in vantages
    ]
    return map_trials(_tor_trial_worker, tasks, workers=workers)


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
    note_trials()
    get_registry().counter("trials.run").inc()
    scenario = acquire_scenario(
        vantage=vantage, website=vpn_site, calibration=calibration,
        seed=seed, workload="vpn",
    )
    if strategy_id is not None:
        INTANG(
            host=scenario.client,
            tcp_host=scenario.client_tcp,
            clock=scenario.clock,
            network=scenario.network,
            rng=random.Random(seed ^ 0x4A),
            fixed_strategy=strategy_id,
            hop_delta=calibration.hop_delta,
        )
    client = OpenVPNClient(scenario.client_tcp)
    session = client.open_session(vpn_site.ip)
    scenario.run(8.0)
    return VPNTrialResult(
        established=session.established,
        frames_ok=session.payload_frames > 0,
        reset=session.reset or scenario.gfw_resets_received() > 0,
    )


def _vpn_trial_worker(task: Tuple) -> VPNTrialResult:
    vantage, vpn_site, strategy_id, calibration, seed = task
    return run_vpn_trial(vantage, vpn_site, strategy_id, calibration, seed=seed)


def run_vpn_cell(
    vantages: Sequence[VantagePoint],
    vpn_site: Website,
    strategy_id: Optional[str] = None,
    calibration: Calibration = DEFAULT_CALIBRATION,
    seed: int = 0,
    workers: Optional[int] = None,
) -> List[VPNTrialResult]:
    """One VPN trial per vantage, in vantage order (§7.3's campaign)."""
    tasks = [
        (vantage, vpn_site, strategy_id, calibration, seed)
        for vantage in vantages
    ]
    return map_trials(_vpn_trial_worker, tasks, workers=workers)
