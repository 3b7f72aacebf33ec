"""Ensafi-style inconsistency characterization across simulated routes.

**Extension, not paper.**  Ensafi et al. (PAPERS.md) characterized the
GFW by probing it from many vantage points over many days and reporting
*inconsistencies*: routes that disagree about the same stimulus, diurnal
reset-rate variation, and blacklist windows that drift.  This module
reproduces that study shape against the simulated heterogeneous censor
(:mod:`repro.gfw.heterogeneity`): a seeded sweep over lab vantage points
× simulated hours-of-day × strategies, reduced to

- a per-route **disagreement matrix** (strategy × vantage verdicts),
- a **diurnal curve** of reset suppression vs hour, and
- a **blacklist-churn timeline** (adds and TTL expirations per hour),

with every cell carried as a
:class:`~repro.experiments.outcomes.VerdictDistribution` — n-trial
outcome counts plus a Wilson score interval — rather than a bare label.

Execution notes: per-cell seeds are fixed before fan-out (the same crc32
salt scheme as the conformance matrix), each trial is simulated directly,
and device observables are harvested from the finished scenario before
it is released — so the report is byte-identical for any worker count,
which ``tests/test_heterogeneity.py`` pins.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.conformance.matrix import conformance_site
from repro.experiments.calibration import CLEAN_ROOM
from repro.experiments.outcomes import VerdictDistribution
from repro.experiments.parallel import map_trials
from repro.experiments.runner import observe_http_trial
from repro.experiments.vantage import VantagePoint
from repro.experiments.websites import Website
from repro.gfw import heterogeneity

__all__ = [
    "DEFAULT_HOURS",
    "DEFAULT_STRATEGIES",
    "InconsistencyCell",
    "InconsistencyReport",
    "lab_vantages",
    "run_inconsistency",
]

#: Default sweep axes: the four quarter-day hours and the strategies
#: whose verdicts *differ between model generations* (old vs evolved vs
#: mixed), so a heterogeneous route assignment is guaranteed to surface
#: as disagreement — plus the no-strategy baseline, whose diurnal
#: success wobble is the purest Ensafi failure-to-inject signal.
DEFAULT_HOURS: Tuple[float, ...] = (0.0, 6.0, 12.0, 18.0)
DEFAULT_STRATEGIES: Tuple[str, ...] = (
    "none",
    "tcb-teardown-rst/ttl",
    "resync-desync",
    "tcb-reversal",
    "improved-tcb-teardown",
)
def lab_vantages(count: int) -> List:
    """``count`` synthetic in-China vantage points on a private range.

    Middlebox-transparent and Tor-clean on purpose: the sweep isolates
    *route* heterogeneity, so Table 2 client-side equipment must not
    contaminate the disagreement matrix.  Names and IPs are stable, so
    the crc32 route assignment is too.
    """
    return [
        VantagePoint(
            name=f"route-vp-{index:02d}",
            city="Lab",
            isp="Lab",
            provider_profile="transparent",
            ip=f"10.77.0.{index + 1}",
            inside_china=True,
            tor_filtered=False,
        )
        for index in range(count)
    ]


@dataclass
class InconsistencyCell:
    """One (vantage, hour, strategy) cell of the sweep."""

    vantage: str
    hour: float
    strategy_id: str
    member_variant: str
    distribution: VerdictDistribution = field(default_factory=VerdictDistribution)
    detections: int = 0
    resets_injected: int = 0
    resets_suppressed: int = 0
    blacklist_adds: int = 0
    blacklist_expirations: int = 0

    def as_payload(self) -> Dict:
        payload = self.distribution.as_payload()
        payload.update(
            trials=self.distribution.trials,
            vantage=self.vantage,
            hour=self.hour,
            strategy=self.strategy_id,
            member_variant=self.member_variant,
            detections=self.detections,
            resets_injected=self.resets_injected,
            resets_suppressed=self.resets_suppressed,
            blacklist_adds=self.blacklist_adds,
            blacklist_expirations=self.blacklist_expirations,
        )
        return payload


def _cell_salt(vantage: str, hour: float, strategy_id: str) -> int:
    token = f"{vantage}|{hour:g}|{strategy_id}"
    return zlib.crc32(token.encode("utf-8")) & 0xFFFFFF


def _inconsistency_cell_worker(
    vantage: VantagePoint,
    website: Website,
    hour: float,
    strategy_id: str,
    repeats: int,
    seed: int,
) -> InconsistencyCell:
    """Process-pool work unit: one cell's repeats, observables included.

    Observables are read from each finished scenario before it is
    released; devices are built per trial, so the counters are per-trial
    by construction.
    """
    ensemble = heterogeneity.ROUTE_ENSEMBLE
    cell = InconsistencyCell(
        vantage=vantage.name,
        hour=hour,
        strategy_id=strategy_id,
        member_variant=ensemble.member_for(vantage.name, website.name),
    )
    calibration = CLEAN_ROOM.variant(sim_hour=float(hour))
    salt = _cell_salt(vantage.name, hour, strategy_id)
    outcomes = []
    for repeat in range(repeats):
        # The reset and blacklist counters below keep counting after the
        # record is final, so the trial runs to its horizon.
        with observe_http_trial(
            vantage,
            website,
            strategy_id,
            calibration,
            seed=(seed * 1_000_003 + repeat) ^ salt,
            keyword=True,
            gfw_variant=heterogeneity.HETEROGENEOUS_VARIANT,
        ) as (record, scenario):
            outcomes.append(record.outcome)
            for device in scenario.gfw_devices:
                # Materialize lazy TTL expiries at the trial's end time —
                # pairs whose connection died never re-read the blacklist.
                device.blacklist.sweep(scenario.clock.now)
                cell.detections += len(device.detections)
                cell.resets_injected += device.resets_injected
                cell.resets_suppressed += getattr(device, "resets_suppressed", 0)
                cell.blacklist_adds += device.blacklist.total_blacklistings
                cell.blacklist_expirations += device.blacklist.total_expirations
    cell.distribution = VerdictDistribution.from_outcomes(outcomes)
    return cell


@dataclass
class InconsistencyReport:
    """The reduced sweep: cells plus the three Ensafi views."""

    vantage_names: List[str]
    hours: List[float]
    strategies: List[str]
    repeats: int
    seed: int
    target: str
    cells: List[InconsistencyCell]
    routes: Dict[str, Dict]

    def _merged(self) -> Dict[Tuple[str, str], VerdictDistribution]:
        """(strategy, vantage) distributions merged across hours."""
        merged: Dict[Tuple[str, str], VerdictDistribution] = {}
        for cell in self.cells:
            key = (cell.strategy_id, cell.vantage)
            merged[key] = merged.get(key, VerdictDistribution()) + cell.distribution
        return merged

    def disagreement_matrix(self) -> Dict[str, Dict[str, str]]:
        """strategy → vantage → point verdict (hours pooled)."""
        merged = self._merged()
        return {
            strategy: {
                vantage: merged[(strategy, vantage)].verdict
                for vantage in self.vantage_names
            }
            for strategy in self.strategies
        }

    def disagreeing_strategies(self) -> List[str]:
        """Strategies on which at least two routes disagree."""
        matrix = self.disagreement_matrix()
        return [
            strategy
            for strategy in self.strategies
            if len(set(matrix[strategy].values())) > 1
        ]

    def diurnal_curve(self) -> List[Dict]:
        """Per-hour reset enforcement vs suppression, all cells pooled."""
        curve = []
        for hour in self.hours:
            slice_cells = [c for c in self.cells if c.hour == hour]
            detections = sum(c.detections for c in slice_cells)
            suppressed = sum(c.resets_suppressed for c in slice_cells)
            curve.append(
                {
                    "hour": hour,
                    "detections": detections,
                    "resets_injected": sum(
                        c.resets_injected for c in slice_cells
                    ),
                    "resets_suppressed": suppressed,
                    "suppression_rate": round(
                        suppressed / detections, 6
                    )
                    if detections
                    else 0.0,
                }
            )
        return curve

    def churn_timeline(self) -> List[Dict]:
        """Per-hour blacklist adds and TTL expirations."""
        timeline = []
        for hour in self.hours:
            slice_cells = [c for c in self.cells if c.hour == hour]
            timeline.append(
                {
                    "hour": hour,
                    "blacklist_adds": sum(
                        c.blacklist_adds for c in slice_cells
                    ),
                    "ttl_expirations": sum(
                        c.blacklist_expirations for c in slice_cells
                    ),
                }
            )
        return timeline

    def as_payload(self) -> Dict:
        return {
            "grid": {
                "vantages": self.vantage_names,
                "hours": self.hours,
                "strategies": self.strategies,
                "repeats": self.repeats,
                "seed": self.seed,
                "target": self.target,
                "gfw_variant": heterogeneity.HETEROGENEOUS_VARIANT,
            },
            "routes": self.routes,
            "cells": [cell.as_payload() for cell in self.cells],
            "disagreement_matrix": self.disagreement_matrix(),
            "disagreeing_strategies": self.disagreeing_strategies(),
            "diurnal_curve": self.diurnal_curve(),
            "blacklist_churn": self.churn_timeline(),
        }

    def to_json(self) -> str:
        """Canonical serialization — byte-identical for any worker count."""
        return json.dumps(self.as_payload(), indent=2, sort_keys=True)


def run_inconsistency(
    vantages: int = 8,
    hours: Sequence[float] = DEFAULT_HOURS,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    repeats: int = 6,
    seed: int = 2017,
    workers: Optional[int] = None,
) -> InconsistencyReport:
    """Run the vantage × hour × strategy sweep against the heterogeneous
    censor and reduce it to an :class:`InconsistencyReport`."""
    points = lab_vantages(vantages)
    website = conformance_site()
    hour_list = [float(h) for h in hours]
    strategy_list = list(strategies)
    tasks = [
        (vantage, website, hour, strategy_id, repeats, seed)
        for vantage in points
        for hour in hour_list
        for strategy_id in strategy_list
    ]
    cells = map_trials(_inconsistency_cell_worker, tasks, workers=workers)
    ensemble = heterogeneity.ROUTE_ENSEMBLE
    routes: Dict[str, Dict] = {}
    for vantage in points:
        member, profile = ensemble.resolve(vantage.name, website.name)
        routes[vantage.name] = {
            "member_variant": member,
            "temporal": None
            if profile is None
            else {
                "peak_hour": round(profile.peak_hour, 4),
                "base_suppression": round(profile.base_suppression, 6),
                "amplitude": round(profile.amplitude, 6),
                "ttl_factor": round(profile.ttl_factor, 6),
            },
        }
    return InconsistencyReport(
        vantage_names=[v.name for v in points],
        hours=hour_list,
        strategies=strategy_list,
        repeats=repeats,
        seed=seed,
        target=website.name,
        cells=cells,
        routes=routes,
    )
