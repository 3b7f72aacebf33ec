"""Command-line interface: regenerate any paper artifact from a shell.

::

    python -m repro list                    # what can be regenerated
    python -m repro table1 --sites 20       # Table 1 at chosen scale
    python -m repro table2 .. table6
    python -m repro matrix                  # strategy × GFW-generation
    python -m repro probe [--model old]     # GFW responsiveness probe
    python -m repro trial --strategy tcb-teardown+tcb-reversal
    python -m repro ladder --figure 3       # Fig. 3/4 packet ladders
    python -m repro perf profile --strategy tcb-teardown-rst/ttl \
        --out profile.pstats                # cProfile one cell
    python -m repro telemetry diagnose --strategy resync-desync
    python -m repro telemetry metrics --json # registry snapshot of a sweep
    python -m repro obs trace --workers 2   # Chrome/Perfetto span trace
    python -m repro obs export --latency    # OpenMetrics + p50/p90/p99
    python -m repro obs flight --out dumps/ # anomaly flight-recorder dumps
    python -m repro conformance run         # full differential matrix
    python -m repro conformance diff        # show drift vs tests/golden/
    python -m repro conformance bless       # accept new golden artifacts
    python -m repro inconsistency run       # Ensafi-style vantage x hour sweep
    python -m repro fleet run --trace-out fleet.json  # fleet + its spans

Everything prints to stdout; sizes are small by default so each command
finishes in seconds.  ``REPRO_WORKERS`` (or ``--workers`` where a
command offers it) is the one parallelism knob: every fan-out runs as
contiguous chunks on a process pool, with output identical for any
worker count.  Speed is measured outside the CLI, by
``perfbench/run.py`` (gated in CI by ``benchmarks/perf_gate.py``);
``perf profile`` is for finding where a slow cell spends its time.
"""

from __future__ import annotations

import argparse
import random
import sys
from time import perf_counter
from typing import List, Optional


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.strategies.registry import STRATEGY_REGISTRY

    print("Artifacts: table1 table2 table3 table4 table5 table6 matrix "
          "probe trial ladder conformance")
    print("\nStrategies:")
    for strategy_id in sorted(STRATEGY_REGISTRY):
        print(f"  {strategy_id}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments import (
        CHINA_VANTAGE_POINTS,
        DEFAULT_CALIBRATION,
        outside_china_catalog,
        run_strategy_cell,
    )
    from repro.experiments.tables import format_table1
    from repro.strategies.registry import TABLE1_ROWS

    sites = outside_china_catalog(count=args.sites)
    results = []
    for label, strategy_id, discrepancy in TABLE1_ROWS:
        with_kw = run_strategy_cell(
            strategy_id, CHINA_VANTAGE_POINTS, sites, DEFAULT_CALIBRATION,
            repeats=args.repeats, seed=args.seed, keyword=True,
        )
        without_kw = run_strategy_cell(
            strategy_id, CHINA_VANTAGE_POINTS, sites, DEFAULT_CALIBRATION,
            repeats=args.repeats, seed=args.seed + 1, keyword=False,
        )
        results.append((label, discrepancy, with_kw, without_kw))
        print(".", end="", flush=True, file=sys.stderr)
    print(file=sys.stderr)
    print(format_table1(results))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.experiments.middlebox_probe import probe_all
    from repro.experiments.tables import format_table2
    from repro.experiments.vantage import CHINA_VANTAGE_POINTS

    print(format_table2(probe_all(CHINA_VANTAGE_POINTS)))
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from repro.analysis import generate_table3
    from repro.experiments.tables import format_table3

    rows = generate_table3()
    print(format_table3([row.as_tuple() for row in rows]))
    return 0


def _cmd_table4(args: argparse.Namespace) -> int:
    from repro.experiments import (
        CHINA_VANTAGE_POINTS,
        DEFAULT_CALIBRATION,
        outside_china_catalog,
        run_per_vantage,
    )
    from repro.experiments.tables import format_table4
    from repro.strategies.registry import TABLE4_STRATEGIES

    sites = outside_china_catalog(count=args.sites)
    rows = []
    for label, strategy_id in TABLE4_STRATEGIES:
        rows.append((
            label,
            run_per_vantage(strategy_id, CHINA_VANTAGE_POINTS, sites,
                            DEFAULT_CALIBRATION, repeats=args.repeats,
                            seed=args.seed),
        ))
        print(".", end="", flush=True, file=sys.stderr)
    rows.append((
        "INTANG Performance",
        run_per_vantage(None, CHINA_VANTAGE_POINTS, sites, DEFAULT_CALIBRATION,
                        repeats=max(4, args.repeats), seed=args.seed,
                        adaptive=True),
    ))
    print(file=sys.stderr)
    print(format_table4(rows, title="Table 4 (inside China)"))
    return 0


def _cmd_table5(args: argparse.Namespace) -> int:
    from repro.analysis import derive_table5
    from repro.experiments.tables import format_table5

    print(format_table5(derive_table5()))
    return 0


def _cmd_table6(args: argparse.Namespace) -> int:
    from repro.experiments import (
        CHINA_VANTAGE_POINTS,
        DEFAULT_CALIBRATION,
        DYN_RESOLVERS,
        run_dns_trial,
    )
    from repro.experiments.tables import format_table6

    rows = []
    for resolver in DYN_RESOLVERS:
        per_vantage = {}
        for vantage in CHINA_VANTAGE_POINTS:
            successes = sum(
                run_dns_trial(vantage, resolver,
                              calibration=DEFAULT_CALIBRATION, seed=s).success
                for s in range(args.queries)
            )
            per_vantage[vantage.name] = successes / args.queries
        except_tj = [r for n, r in per_vantage.items() if n != "unicom-tianjin"]
        rows.append((resolver.name, resolver.ip,
                     sum(except_tj) / len(except_tj),
                     sum(per_vantage.values()) / len(per_vantage)))
    print(format_table6(rows))
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    import os

    sys.path.insert(
        0, os.path.join(os.path.dirname(__file__), "..", "..", "tests")
    )
    from repro.core.intang import INTANG
    from repro.experiments.tables import render_table
    from repro.gfw import evolved_config, old_config
    from repro.strategies.registry import STRATEGY_REGISTRY

    try:
        from helpers import fetch, mini_topology
    except ImportError:
        print("matrix requires the repository checkout (tests/helpers.py)",
              file=sys.stderr)
        return 2

    rows = []
    for strategy_id in sorted(STRATEGY_REGISTRY):
        cells = [strategy_id]
        for model_config in (old_config, evolved_config):
            world = mini_topology(gfw_config=model_config(), seed=args.seed)
            INTANG(host=world.client, tcp_host=world.client_tcp,
                   clock=world.clock, network=world.network,
                   fixed_strategy=strategy_id,
                   rng=random.Random(args.seed + 7))
            exchange = fetch(world)
            if world.gfw.detections:
                cells.append("caught")
            elif exchange.got_response:
                cells.append("EVADES")
            else:
                cells.append("broken")
        rows.append(cells)
    print(render_table(["Strategy", "old GFW", "evolved GFW"], rows))
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    import os

    sys.path.insert(
        0, os.path.join(os.path.dirname(__file__), "..", "..", "tests")
    )
    from repro.core.responsiveness import ResponsivenessProbe
    from repro.gfw import evolved_config, old_config

    try:
        from helpers import SERVER_IP, mini_topology
    except ImportError:
        print("probe requires the repository checkout (tests/helpers.py)",
              file=sys.stderr)
        return 2

    config = old_config(reset_type=2) if args.model == "old" else evolved_config()
    world = mini_topology(gfw_config=config, with_gfw=not args.clean,
                          seed=args.seed)
    probe = ResponsivenessProbe(world.client, world.client_tcp, world.clock,
                                rng=random.Random(args.seed))
    print(probe.probe(SERVER_IP).summary())
    return 0


def _cmd_trial(args: argparse.Namespace) -> int:
    from repro.experiments import (
        DEFAULT_CALIBRATION,
        outside_china_catalog,
        run_http_trial,
        vantage_by_name,
    )

    vantage = vantage_by_name(args.vantage)
    website = outside_china_catalog()[args.site]
    record = run_http_trial(vantage, website, args.strategy,
                            DEFAULT_CALIBRATION, seed=args.seed)
    print(f"vantage={record.vantage} target={record.target} "
          f"strategy={record.strategy_id}")
    print(f"outcome={record.outcome.value} detections={record.detections} "
          f"drift={record.drift}")
    return 0 if record.outcome.value == "success" else 1


def _cmd_ladder(args: argparse.Namespace) -> int:
    import os

    sys.path.insert(
        0, os.path.join(os.path.dirname(__file__), "..", "..", "tests")
    )
    from repro.core.intang import INTANG

    try:
        from helpers import fetch, mini_topology
    except ImportError:
        print("ladder requires the repository checkout (tests/helpers.py)",
              file=sys.stderr)
        return 2

    strategy = ("tcb-creation+resync-desync" if args.figure == 3
                else "tcb-teardown+tcb-reversal")
    world = mini_topology(seed=args.seed, trace=True)
    INTANG(host=world.client, tcp_host=world.client_tcp, clock=world.clock,
           network=world.network, fixed_strategy=strategy,
           rng=random.Random(args.seed))
    exchange = fetch(world)
    print(f"Fig. {args.figure}: {strategy} — "
          f"{'evaded' if exchange.got_response else 'failed'}\n")
    print(world.trace.format_ladder())
    return 0


class _CollectorTimer:
    """A ``gc.callbacks`` hook timing the cyclic garbage collector, whose
    pauses cProfile attributes to no function."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.seconds = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = perf_counter()
        else:
            self.seconds += perf_counter() - self._start
            self.collections[info["generation"]] += 1

    def summary(self, wall_seconds: float) -> str:
        gen0, gen1, gen2 = self.collections
        share = self.seconds / wall_seconds if wall_seconds > 0 else 0.0
        return (
            f"gc: collections gen0={gen0} gen1={gen1} gen2={gen2}, "
            f"{self.seconds:.3f} s in the collector "
            f"({share:.1%} of {wall_seconds:.3f} s wall time)"
        )


def _perf_profile(args: argparse.Namespace) -> int:
    """cProfile one experiment cell and print the hottest functions.

    The cell selectors mirror ``telemetry diagnose`` so a slow trial can
    be profiled with the same flags that diagnosed it.  A summary line
    reports the time spent in the cyclic garbage collector, which no
    profiled function is charged, and another how many trials the stop
    rule ended at their final record, split by outcome, which explains a
    drop in per-layer call counts.
    """
    import cProfile
    import gc
    import pstats
    from collections import Counter

    from repro.experiments import (
        DEFAULT_CALIBRATION,
        outside_china_catalog,
        vantage_by_name,
    )
    from repro.experiments.runner import _simulate_http_trial
    from repro.experiments.scenarios import release_scenario

    vantage = vantage_by_name(args.vantage)
    website = outside_china_catalog()[args.site]
    stopped = Counter()
    used = Counter()
    collector = _CollectorTimer()
    gc.callbacks.append(collector)
    profiler = cProfile.Profile()
    wall_start = perf_counter()
    profiler.enable()
    for repeat in range(args.repeats):
        record, scenario = _simulate_http_trial(
            vantage, website, args.strategy, DEFAULT_CALIBRATION,
            seed=args.seed + repeat, keyword=not args.benign,
        )
        if scenario.stopped_at_verdict:
            stopped[record.outcome.value] += 1
        used[record.strategy_id] += 1
        release_scenario(scenario)
    profiler.disable()
    wall_seconds = perf_counter() - wall_start
    gc.callbacks.remove(collector)
    stats = pstats.Stats(profiler)
    if args.out:
        stats.dump_stats(args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    # The ids the trials ran, with counts: without --strategy INTANG's
    # selector picks one per trial (what ``telemetry diagnose`` shows
    # as the record's ``strategy=``).
    used_ids = ",".join(f"{sid}:{n}" for sid, n in sorted(used.items()))
    print(
        f"cell: vantage={vantage.name} site={website.name} "
        f"strategy={args.strategy or 'adaptive'} used={used_ids} "
        f"{'benign' if args.benign else 'keyword'} "
        f"seeds={args.seed}..{args.seed + args.repeats - 1}"
    )
    print(collector.summary(wall_seconds))
    print(
        f"stopped: {sum(stopped.values())} of {args.repeats} "
        f"(success {stopped['success']}, failure2 {stopped['failure2']}) "
        "trials ended at their final record"
    )
    stats.sort_stats("cumulative").print_stats(args.top)
    return 0


def _cmd_conformance(args: argparse.Namespace) -> int:
    if args.mode == "run":
        return _conformance_run(args)
    if args.mode == "diff":
        return _conformance_diff(args)
    return _conformance_bless(args)


def _conformance_cells(args: argparse.Namespace):
    from repro.conformance import default_cells

    split = lambda value: value.split(",") if value else None  # noqa: E731
    return default_cells(
        strategies=split(args.strategies),
        variants=split(args.variants),
        profiles=split(args.profiles),
        faults=split(args.faults),
    )


def _conformance_matrix(args: argparse.Namespace):
    from repro.conformance import run_matrix

    cells = _conformance_cells(args)
    print(f"conformance: running {len(cells)} cells "
          f"x {args.repeats} repeats (seed {args.seed})", file=sys.stderr)
    return run_matrix(
        cells, repeats=args.repeats, seed=args.seed, workers=args.workers,
    )


def _conformance_golden_dir(args: argparse.Namespace):
    from pathlib import Path

    from repro.conformance import golden_dir

    return Path(args.golden_dir) if args.golden_dir else golden_dir()


def _conformance_diagnose_drift(drifts, results, limit: int, seed: int) -> None:
    """Explain drifted cells through the telemetry diagnosis layer."""
    from repro.conformance.matrix import (
        cell_calibration,
        conformance_site,
        profile_vantage,
    )
    from repro.telemetry import diagnose_trial, get_recorder

    recorder = get_recorder()
    for drift in drifts[:limit]:
        cell = results[drift.cell_id].cell
        since = recorder.next_seq
        diagnosis = diagnose_trial(
            profile_vantage(cell.profile),
            conformance_site(),
            cell.strategy_id,
            cell_calibration(cell.fault),
            seed=(seed * 1_000_003) ^ cell.seed_salt(),
            gfw_variant=cell.gfw_variant,
        )
        # Drift is exactly the anomaly dumps exist for: keep the
        # diagnosing re-run's slice of the event ring.
        recorder.dump(
            "oracle_drift",
            since=since,
            context={
                "cell": drift.cell_id,
                "observed": drift.observed,
                "detail": drift.format(),
            },
        )
        print(f"\n== diagnosis: {drift.cell_id} " + "=" * 30)
        print(diagnosis.render())
    if len(drifts) > limit:
        print(f"\n({len(drifts) - limit} more drifted cells not diagnosed; "
              f"raise --max-diagnose)", file=sys.stderr)


def _conformance_report(results, args: argparse.Namespace) -> int:
    import json as json_module

    from repro.conformance import check_verdicts, compare_golden
    from repro.conformance.oracles import KNOWN_DIVERGENCE

    drifts, uncovered = check_verdicts(results)
    diff = compare_golden(results, _conformance_golden_dir(args),
                          seed=args.seed)

    if args.json:
        document = {cid: r.as_payload() for cid, r in sorted(results.items())}
        print(json_module.dumps(document, indent=2))
    else:
        counts: dict = {}
        for result in results.values():
            counts[result.verdict] = counts.get(result.verdict, 0) + 1
        summary = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"conformance: {len(results)} cells  {summary}")
        noted = [
            entry for entry in KNOWN_DIVERGENCE
            if any(entry.matches(r.cell) for r in results.values())
        ]
        for entry in noted:
            print(
                f"known divergence: {entry.strategy}|{entry.variant}"
                f"|{entry.profile}|{entry.fault}: paper "
                f"{entry.paper_expected!r} -> repro {entry.repro_verdict!r} "
                f"({entry.reason})"
            )

    failed = False
    if uncovered:
        failed = True
        print(f"\noracle coverage FAILED: {len(uncovered)} cells matched "
              "no rule:")
        for cell_id in uncovered[:20]:
            print(f"  {cell_id}")
    if drifts:
        failed = True
        print(f"\nverdict drift vs oracle: {len(drifts)} cells:")
        for drift in drifts:
            print("  " + drift.format())
        _conformance_diagnose_drift(drifts, results, args.max_diagnose,
                                    args.seed)
    if not diff.clean:
        failed = True
        print("\n" + diff.format())
        print("\n(after reviewing, `repro conformance bless` accepts the "
              "new behaviour)", file=sys.stderr)
    if not failed:
        print("conformance: PASS (oracle + golden snapshot + ladders)")
    return 1 if failed else 0


def _conformance_run(args: argparse.Namespace) -> int:
    return _conformance_report(_conformance_matrix(args), args)


def _conformance_diff(args: argparse.Namespace) -> int:
    from repro.conformance import compare_golden

    results = _conformance_matrix(args)
    diff = compare_golden(results, _conformance_golden_dir(args),
                          seed=args.seed)
    print(diff.format(max_ladder_lines=args.max_ladder_lines))
    return 0 if diff.clean else 1


def _conformance_bless(args: argparse.Namespace) -> int:
    from repro.conformance import bless

    results = _conformance_matrix(args)
    written = bless(results, _conformance_golden_dir(args),
                    seed=args.seed, repeats=args.repeats)
    for path in written:
        print(f"blessed {path}")
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    if args.mode == "diagnose":
        return _telemetry_diagnose(args)
    return _telemetry_metrics(args)


def _telemetry_diagnose(args: argparse.Namespace) -> int:
    from repro.experiments import (
        DEFAULT_CALIBRATION,
        outside_china_catalog,
        vantage_by_name,
    )
    from repro.telemetry import diagnose_trial

    vantage = vantage_by_name(args.vantage)
    website = outside_china_catalog()[args.site]
    diagnosis = diagnose_trial(
        vantage, website, args.strategy, DEFAULT_CALIBRATION,
        seed=args.seed, keyword=not args.benign,
    )
    print(diagnosis.render())
    return 0


def _telemetry_metrics(args: argparse.Namespace) -> int:
    """Run a small baseline-able sweep and dump the merged registry."""
    import json

    from repro.experiments import (
        CHINA_VANTAGE_POINTS,
        DEFAULT_CALIBRATION,
        outside_china_catalog,
        run_strategy_cell,
    )
    from repro.telemetry import filter_snapshot, get_registry

    sites = outside_china_catalog(count=args.sites)
    run_strategy_cell(
        args.strategy or "none", CHINA_VANTAGE_POINTS, sites,
        DEFAULT_CALIBRATION,
        repeats=args.repeats, seed=args.seed, keyword=True,
    )
    registry = get_registry()
    # --prefix narrows every output format identically: the JSON and
    # the table views of one invocation always show the same names.
    snapshot = filter_snapshot(registry.snapshot(), args.prefix)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as sink:
            json.dump(snapshot, sink, indent=2, sort_keys=True)
        print(f"wrote {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(registry.format_table(args.prefix or None))
    if args.check_baseline:
        rst = registry.counter_value("gfw.rst_sent")
        match = registry.counter_value("dpi.match")
        if rst <= 0 or match <= 0:
            print(
                f"telemetry baseline check FAILED: gfw.rst_sent={rst} "
                f"dpi.match={match} (both must be > 0 for a no-strategy "
                "keyword sweep)",
                file=sys.stderr,
            )
            return 1
        print(
            f"telemetry baseline check ok: gfw.rst_sent={rst} "
            f"dpi.match={match}",
            file=sys.stderr,
        )
    return 0


def _cmd_inconsistency(args: argparse.Namespace) -> int:
    """Ensafi-style inconsistency characterization (`inconsistency run`)."""
    import json as json_module

    from repro.analysis.inconsistency import (
        DEFAULT_STRATEGIES,
        run_inconsistency,
    )
    from repro.experiments.tables import (
        format_churn_timeline,
        format_diurnal_curve,
        format_disagreement_matrix,
    )
    from repro.gfw.heterogeneity import RouteEnsemble, use_ensemble

    hours = [float(h) for h in args.hours.split(",") if h]
    strategies = (
        args.strategies.split(",") if args.strategies else DEFAULT_STRATEGIES
    )
    ensemble = (
        RouteEnsemble(seed=args.ensemble_seed)
        if args.ensemble_seed is not None
        else None
    )
    print(
        f"inconsistency: {args.vantages} vantages x {len(hours)} hours x "
        f"{len(strategies)} strategies x {args.repeats} repeats "
        f"(seed {args.seed})",
        file=sys.stderr,
    )
    with use_ensemble(ensemble) if ensemble is not None else _nullcontext():
        report = run_inconsistency(
            vantages=args.vantages,
            hours=hours,
            strategies=strategies,
            repeats=args.repeats,
            seed=args.seed,
            workers=args.workers,
        )
    payload_json = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload_json + "\n")
        print(f"inconsistency: report written to {args.out}", file=sys.stderr)
    if args.json:
        print(payload_json)
        return 0
    print(
        format_disagreement_matrix(
            report.disagreement_matrix(), report.vantage_names
        )
    )
    print()
    print(format_diurnal_curve(report.diurnal_curve()))
    print()
    print(format_churn_timeline(report.churn_timeline()))
    print()
    disagreeing = report.disagreeing_strategies()
    routes = json_module.dumps(
        {name: info["member_variant"] for name, info in report.routes.items()},
        sort_keys=True,
    )
    print(f"route members: {routes}")
    print(
        f"{len(disagreeing)}/{len(report.strategies)} strategies see "
        f"route disagreement: {', '.join(disagreeing) or '(none)'}"
    )
    return 0


def _nullcontext():
    import contextlib

    return contextlib.nullcontext()


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Run a fleet workload: many client flows, one shared GFW.

    Prints flow-events/s plus per-strategy effectiveness; ``--curve``
    additionally sweeps fleet sizes past the flow-table capacity to
    show strategy effectiveness degrading (or improving — eviction
    thrash helps the client) under censor load.  The cyclic collector's
    passes and seconds during the run are reported too; with more than
    one worker only this process's passes are counted.  ``--trace-out``
    runs the fleet with spans on and writes them (group, wave, flow) as
    Chrome/Perfetto trace-event JSON.
    """
    import gc
    import json as json_module
    import time as time_module

    from repro.experiments.fleet import (
        DEFAULT_FLEET_STRATEGIES,
        FleetSpec,
        effectiveness_curve,
        run_fleet,
    )
    from repro.telemetry import OFF, SPANS, observing, write_chrome_trace

    strategies = DEFAULT_FLEET_STRATEGIES
    if args.strategies:
        strategies = tuple(
            item.strip() for item in args.strategies.split(",") if item.strip()
        )
    spec = FleetSpec(
        flows=args.flows,
        seed=args.seed,
        sites=args.sites,
        zipf_alpha=args.zipf_alpha,
        sensitive_fraction=args.sensitive,
        strategies=strategies,
        groups=args.groups,
        window=args.window,
        gfw_variant=args.variant,
        max_flows=args.max_flows,
    )
    collector = _CollectorTimer()
    gc.callbacks.append(collector)
    start = time_module.perf_counter()
    try:
        with observing(SPANS if args.trace_out else OFF) as recorder:
            recorder.clear()
            result = run_fleet(spec, workers=args.workers)
            trees = recorder.drain()["spans"]
    finally:
        elapsed = time_module.perf_counter() - start
        gc.callbacks.remove(collector)
    if args.trace_out:
        events = write_chrome_trace(trees, args.trace_out)
        print(f"wrote {args.trace_out} ({len(trees)} root spans, {events} "
              f"trace events; open in ui.perfetto.dev)", file=sys.stderr)
    payload = result.to_dict()
    payload["wall_seconds"] = round(elapsed, 3)
    payload["collector"] = {
        "collections": list(collector.collections),
        "seconds": round(collector.seconds, 3),
    }
    if elapsed > 0:
        payload["flow_events_per_second"] = round(result.flow_events / elapsed, 1)
        payload["flows_per_second"] = round(result.flows / elapsed, 1)
    if args.curve:
        sizes = [int(item) for item in args.curve.split(",") if item.strip()]
        payload["curve"] = [
            {
                "flows": size,
                "strategy_success": point.strategy_rates(),
                "benign_success": point.success_rate("benign"),
                "flows_evicted_active": point.flows_evicted_active,
                "eviction_false_negatives": point.eviction_false_negatives,
                "blacklist_false_positives": point.blacklist_false_positives,
            }
            for size, point in effectiveness_curve(
                spec, sizes, workers=args.workers
            )
        ]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as sink:
            json_module.dump(payload, sink, indent=2, sort_keys=True)
            sink.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.json:
        print(json_module.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"fleet: {result.flows} flows, {result.flow_events} flow events in "
        f"{elapsed:.2f}s"
        + (
            f" ({result.flow_events / elapsed:,.0f} events/s, "
            f"{result.flows / elapsed:,.0f} flows/s)"
            if elapsed > 0
            else ""
        )
    )
    print(
        f"  shared censor: peak {result.peak_flows_tracked} tracked flows, "
        f"{result.flows_evicted} evictions "
        f"({result.flows_evicted_active} mid-stream / "
        f"{result.flows_evicted_after_fin} after FIN, "
        f"{result.evictions_in_resync} in RESYNC), "
        f"{result.blacklistings} blacklistings"
    )
    print(
        f"  load-induced errors: {result.eviction_false_negatives} eviction "
        f"false negatives, {result.blacklist_false_positives} blacklist "
        f"false positives (extension, not a paper result)"
    )
    print(f"  {collector.summary(elapsed)}")
    latency = payload.get("flow_sim_latency") or {}
    if latency.get("count"):
        print(
            f"  first-byte-to-verdict sim-latency: "
            f"p50={latency['p50']:.3f}s p90={latency['p90']:.3f}s "
            f"p99={latency['p99']:.3f}s "
            f"(mean {latency['mean']:.3f}s over {latency['count']} flows)"
        )
    for label, tally in result.outcomes.items():
        total = tally.trials
        rate = tally.success / total if total else 0.0
        print(
            f"  {label:<36} {rate:7.1%} success  "
            f"({tally.success}/{tally.failure1}/{tally.failure2} s/f1/f2 "
            f"of {total})"
        )
    for point in payload.get("curve", []):
        print(
            f"  curve @{point['flows']:>7} flows: "
            + ", ".join(
                f"{label}={rate:.0%}"
                for label, rate in sorted(point["strategy_success"].items())
            )
        )
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.mode == "trace":
        return _obs_trace(args)
    if args.mode == "export":
        return _obs_export(args)
    return _obs_flight(args)


def _obs_trace(args: argparse.Namespace) -> int:
    """Span-trace a conformance subset and export Chrome trace-event JSON.

    The recorder collects spans for the run (the parallel engine
    forwards its level into workers, whose drained span trees merge back
    under the sweep span), then the whole forest is flattened to the
    ``chrome://tracing`` / Perfetto trace-event format.
    """
    import json as json_module

    from repro.conformance import run_matrix
    from repro.telemetry import SPANS, chrome_trace, observing

    cells = _conformance_cells(args)
    with observing(SPANS) as recorder:
        recorder.clear()
        results = run_matrix(
            cells, repeats=args.repeats, seed=args.seed,
            workers=args.workers,
        )
        trees = recorder.drain()["spans"]
    document = chrome_trace(trees)
    print(
        f"obs trace: {len(results)} cells -> {len(trees)} root spans, "
        f"{len(document['traceEvents'])} trace events",
        file=sys.stderr,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as sink:
            json_module.dump(document, sink, indent=1, default=repr)
            sink.write("\n")
        print(f"wrote {args.out} (open in ui.perfetto.dev or "
              f"chrome://tracing)", file=sys.stderr)
    else:
        print(json_module.dumps(document, indent=1, default=repr))
    return 0


def _obs_export(args: argparse.Namespace) -> int:
    """Export a metrics snapshot as OpenMetrics text (plus latency table).

    Reads a snapshot JSON written earlier (``--snapshot``, e.g. by
    ``repro telemetry metrics --out``) or runs the same small sweep as
    ``repro telemetry metrics`` to produce one.
    """
    import json as json_module

    from repro.telemetry import filter_snapshot, latency_summary, openmetrics

    if args.snapshot:
        with open(args.snapshot, "r", encoding="utf-8") as handle:
            snapshot = json_module.load(handle)
    else:
        from repro.experiments import (
            CHINA_VANTAGE_POINTS,
            DEFAULT_CALIBRATION,
            outside_china_catalog,
            run_strategy_cell,
        )
        from repro.telemetry import get_registry

        run_strategy_cell(
            args.strategy or "none", CHINA_VANTAGE_POINTS,
            outside_china_catalog(count=args.sites), DEFAULT_CALIBRATION,
            repeats=args.repeats, seed=args.seed, keyword=True,
        )
        snapshot = get_registry().snapshot()
    snapshot = filter_snapshot(snapshot, args.prefix)
    text = openmetrics(snapshot)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as sink:
            sink.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    if args.latency:
        summaries = latency_summary(snapshot)
        if summaries:
            print("\n# latency summaries (seconds)", file=sys.stderr)
            for name, stats in sorted(summaries.items()):
                print(
                    f"#   {name}: n={stats['count']} "
                    f"mean={stats['mean']:.4f} p50={stats['p50']:.4f} "
                    f"p90={stats['p90']:.4f} p99={stats['p99']:.4f}",
                    file=sys.stderr,
                )
    return 0


def _obs_flight(args: argparse.Namespace) -> int:
    """Run a fleet workload with the event ring on; dump anomalies.

    Each anomaly (eviction false negative, blacklist false positive)
    produces one JSON dump: the per-flow event ring, the shared flow
    table's TCB snapshots, and the packets still queued at the client.
    """
    import json as json_module
    import os

    from repro.experiments.fleet import FleetSpec, run_fleet
    from repro.telemetry import EVENTS, observing

    spec = FleetSpec(
        flows=args.flows,
        seed=args.seed,
        sites=args.fleet_sites,
        groups=args.groups,
        window=args.window,
        gfw_variant=args.variant,
        max_flows=args.max_flows,
    )
    with observing(EVENTS) as recorder:
        recorder.clear()
        result = run_fleet(spec)
        dumps = recorder.drain()["dumps"]
    print(
        f"obs flight: {result.flows} flows -> "
        f"{result.eviction_false_negatives} eviction FNs, "
        f"{result.blacklist_false_positives} blacklist FPs, "
        f"{len(dumps)} flight dumps",
        file=sys.stderr,
    )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for index, dump in enumerate(dumps):
            path = os.path.join(
                args.out, f"flight_{index:03d}_{dump['anomaly']}.json"
            )
            with open(path, "w", encoding="utf-8") as sink:
                json_module.dump(dump, sink, indent=1, default=repr)
                sink.write("\n")
            print(f"wrote {path}", file=sys.stderr)
        if not dumps:
            # CI uploads this directory; an empty marker beats a
            # missing-artifact failure when the run is clean.
            marker = os.path.join(args.out, "NO_ANOMALIES")
            with open(marker, "w", encoding="utf-8") as sink:
                sink.write("flight recorder armed; no anomalies fired\n")
    else:
        print(json_module.dumps(dumps, indent=1, default=repr))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artifacts from 'Your State is Not Mine' (IMC '17).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list artifacts and strategies")

    for name in ("table1", "table4"):
        p = sub.add_parser(name, help=f"regenerate {name}")
        p.add_argument("--sites", type=int, default=12)
        p.add_argument("--repeats", type=int, default=1)
        p.add_argument("--seed", type=int, default=7)

    sub.add_parser("table2", help="regenerate table 2")
    sub.add_parser("table3", help="regenerate table 3")
    sub.add_parser("table5", help="regenerate table 5")
    p = sub.add_parser("table6", help="regenerate table 6")
    p.add_argument("--queries", type=int, default=15)

    p = sub.add_parser("matrix", help="strategy × GFW-generation matrix")
    p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("probe", help="GFW responsiveness probe")
    p.add_argument("--model", choices=("old", "evolved"), default="evolved")
    p.add_argument("--clean", action="store_true",
                   help="probe an uncensored path")
    p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("trial", help="one HTTP trial")
    p.add_argument("--strategy", default="tcb-teardown+tcb-reversal")
    p.add_argument("--vantage", default="aliyun-beijing")
    p.add_argument("--site", type=int, default=0)
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("ladder", help="Fig. 3/4 packet ladder")
    p.add_argument("--figure", type=int, choices=(3, 4), default=3)
    p.add_argument("--seed", type=int, default=8)

    p = sub.add_parser(
        "perf",
        help="profile one experiment cell (cProfile) for hot-path work",
    )
    p.add_argument("mode", choices=("profile",))
    p.add_argument("--strategy", default=None,
                   help="strategy id (default: INTANG's adaptive "
                        "selector; 'none' is the no-strategy baseline)")
    p.add_argument("--vantage", default="aliyun-beijing",
                   help="vantage point name")
    p.add_argument("--site", type=int, default=0,
                   help="catalog index of the target site")
    p.add_argument("--benign", action="store_true",
                   help="request the keyword-free URL")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--repeats", type=int, default=50,
                   help="trials to profile (consecutive seeds)")
    p.add_argument("--top", type=int, default=25,
                   help="rows of the cumulative-time table to print")
    p.add_argument("--out", default=None,
                   help="also dump raw pstats here (e.g. profile.pstats)")

    p = sub.add_parser(
        "conformance",
        help="differential conformance matrix: run, diff, or bless",
    )
    p.add_argument("mode", choices=("run", "diff", "bless"))
    p.add_argument("--strategies", default=None,
                   help="comma-separated strategy ids (default: all)")
    p.add_argument("--variants", default=None,
                   help="comma-separated GFW model variants (default: all)")
    p.add_argument("--profiles", default=None,
                   help="comma-separated middlebox profiles "
                        "(default: neutral,aliyun,unicom-tj)")
    p.add_argument("--faults", default=None,
                   help="comma-separated fault-grid points "
                        "(default: clean,lossy)")
    p.add_argument("--repeats", type=int, default=6,
                   help="trials per cell (verdict majority base)")
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool size (default: REPRO_WORKERS)")
    p.add_argument("--golden-dir", default=None,
                   help="override the tests/golden/ directory")
    p.add_argument("--json", action="store_true",
                   help="[run] print the verdict map as JSON")
    p.add_argument("--max-diagnose", type=int, default=3,
                   help="[run] drifted cells to explain via telemetry "
                        "diagnosis")
    p.add_argument("--max-ladder-lines", type=int, default=40,
                   help="[diff] ladder-diff lines to show per cell")

    p = sub.add_parser(
        "inconsistency",
        help="Ensafi-style sweep: vantage × hour grid vs the "
             "heterogeneous GFW, reduced to disagreement/diurnal/churn",
    )
    p.add_argument("mode", choices=("run",))
    p.add_argument("--vantages", type=int, default=8,
                   help="synthetic lab vantage points (routes)")
    p.add_argument("--hours", default="0,6,12,18",
                   help="comma-separated simulated hours-of-day")
    p.add_argument("--strategies", default=None,
                   help="comma-separated strategy ids (default: the "
                        "generation-discriminating subset)")
    p.add_argument("--repeats", type=int, default=6,
                   help="trials per (vantage, hour, strategy) cell")
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument("--ensemble-seed", type=int, default=None,
                   dest="ensemble_seed",
                   help="route-assignment seed (default: the built-in "
                        "ensemble's)")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool size (default: REPRO_WORKERS)")
    p.add_argument("--json", action="store_true",
                   help="print the full report as canonical JSON")
    p.add_argument("--out", default=None,
                   help="also write the JSON report here")

    p = sub.add_parser(
        "fleet",
        help="fleet workload: thousands of client flows, one shared GFW",
    )
    p.add_argument("mode", choices=("run",))
    p.add_argument("--flows", type=int, default=2000,
                   help="total client flows across all groups")
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument("--sites", type=int, default=32,
                   help="catalog size for Zipf-like site popularity")
    p.add_argument("--zipf-alpha", type=float, default=1.1,
                   dest="zipf_alpha", help="popularity tail exponent")
    p.add_argument("--sensitive", type=float, default=0.5,
                   help="fraction of flows requesting the keyword URL")
    p.add_argument("--strategies", default=None,
                   help="comma-separated strategy pool for sensitive "
                        "flows (default: the Table-1 rows incl. none)")
    p.add_argument("--groups", type=int, default=4,
                   help="client groups == independent shared censors")
    p.add_argument("--window", type=int, default=64,
                   help="concurrent flows per shared batch heap")
    p.add_argument("--variant", default="evolved",
                   help="GFW model variant (see gfw/models.py)")
    p.add_argument("--max-flows", type=int, default=None, dest="max_flows",
                   help="shared flow-table capacity override")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool size; whole client groups per "
                        "chunk (default: REPRO_WORKERS)")
    p.add_argument("--curve", default=None,
                   help="comma-separated fleet sizes for the "
                        "effectiveness-vs-load sweep")
    p.add_argument("--json", action="store_true",
                   help="print the full report as JSON")
    p.add_argument("--out", default=None,
                   help="also write the JSON report here")
    p.add_argument("--trace-out", default=None, dest="trace_out",
                   help="record spans and write them here as "
                        "Chrome/Perfetto trace-event JSON")

    p = sub.add_parser(
        "telemetry",
        help="diagnose one trial or dump a sweep's metrics registry",
    )
    p.add_argument("mode", choices=("diagnose", "metrics"))
    p.add_argument("--strategy", default=None,
                   help="strategy id (default: [diagnose] INTANG's "
                        "adaptive selector, [metrics] none, the "
                        "no-strategy baseline)")
    p.add_argument("--vantage", default="aliyun-beijing",
                   help="[diagnose] vantage point name")
    p.add_argument("--site", type=int, default=0,
                   help="[diagnose] catalog index of the target site")
    p.add_argument("--benign", action="store_true",
                   help="[diagnose] request the keyword-free URL")
    p.add_argument("--sites", type=int, default=4,
                   help="[metrics] catalog size for the sweep")
    p.add_argument("--repeats", type=int, default=1,
                   help="[metrics] repeats per vantage x site")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--json", action="store_true",
                   help="[metrics] print the snapshot as JSON")
    p.add_argument("--prefix", default=None,
                   help="[metrics] restrict output (table and JSON alike) "
                        "to instrument names with this prefix")
    p.add_argument("--out", default=None,
                   help="[metrics] also write the JSON snapshot here")
    p.add_argument("--check-baseline", action="store_true",
                   help="[metrics] exit nonzero unless the sweep saw "
                        "dpi.match and gfw.rst_sent")

    p = sub.add_parser(
        "obs",
        help="run observability: span traces, exporters, flight dumps",
    )
    p.add_argument("mode", choices=("trace", "export", "flight"))
    p.add_argument("--strategies", default="tcb-teardown-rst/ttl",
                   help="[trace] comma-separated strategy ids for the "
                        "traced conformance subset")
    p.add_argument("--variants", default="evolved",
                   help="[trace] comma-separated GFW model variants")
    p.add_argument("--profiles", default="neutral",
                   help="[trace] comma-separated middlebox profiles")
    p.add_argument("--faults", default="clean",
                   help="[trace] comma-separated fault-grid points")
    p.add_argument("--repeats", type=int, default=4,
                   help="[trace/export] repeats per cell / sweep")
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument("--workers", type=int, default=None,
                   help="[trace] process-pool size (default: REPRO_WORKERS)")
    p.add_argument("--snapshot", default=None,
                   help="[export] read this snapshot JSON instead of "
                        "running a sweep")
    p.add_argument("--strategy", default=None,
                   help="[export] strategy id for the fallback sweep")
    p.add_argument("--sites", type=int, default=4,
                   help="[export] catalog size for the fallback sweep")
    p.add_argument("--prefix", default=None,
                   help="[export] restrict to instrument names with this "
                        "prefix")
    p.add_argument("--latency", action="store_true",
                   help="[export] also print p50/p90/p99 latency summaries")
    p.add_argument("--flows", type=int, default=120,
                   help="[flight] total fleet flows")
    p.add_argument("--groups", type=int, default=3,
                   help="[flight] client groups")
    p.add_argument("--window", type=int, default=16,
                   help="[flight] concurrent flows per shared batch heap")
    p.add_argument("--max-flows", type=int, default=24, dest="max_flows",
                   help="[flight] shared flow-table capacity")
    p.add_argument("--fleet-sites", type=int, default=12, dest="fleet_sites",
                   help="[flight] catalog size for the fleet workload")
    p.add_argument("--variant", default="evolved",
                   help="[flight] GFW model variant")
    p.add_argument("--out", default=None,
                   help="[trace/export] output file; [flight] dump directory")
    return parser


_COMMANDS = {
    "list": _cmd_list,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "table4": _cmd_table4,
    "table5": _cmd_table5,
    "table6": _cmd_table6,
    "matrix": _cmd_matrix,
    "probe": _cmd_probe,
    "trial": _cmd_trial,
    "ladder": _cmd_ladder,
    "perf": _perf_profile,
    "conformance": _cmd_conformance,
    "inconsistency": _cmd_inconsistency,
    "telemetry": _cmd_telemetry,
    "fleet": _cmd_fleet,
    "obs": _cmd_obs,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
