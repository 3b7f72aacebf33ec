"""Shared state for co-located GFW devices.

§2.1/§8: type-1 and type-2 devices "usually exist together" at the same
tap point.  Operational effects that belong to the installation rather
than a single box live here:

- the **overload miss** draw: when the cluster is overloaded it fails to
  act on a flow — all devices at the tap miss together, which is why the
  paper's no-strategy success rate is ~2.8 % rather than the product of
  independent per-device misses;
- the per-flow cache of those draws, which :meth:`GFWCluster.new_trial`
  empties (a fleet does so after each wave to bound it).

A fleet group (:mod:`repro.experiments.fleet`) goes further: the devices
of every flow's path are built on one :class:`SharedInstallation`, so
flow tables, blacklists and blocked-IP sets are shared across paths too.
"""

from __future__ import annotations

import random
from typing import Dict, NamedTuple, Tuple

from repro.gfw.blacklist import Blacklist
from repro.gfw.flow import ConnKey, FlowTable


class GFWCluster:
    """One censoring installation shared by the devices on a path."""

    def __init__(self, rng: random.Random, miss_probability: float = 0.028) -> None:
        self.rng = rng
        self.miss_probability = miss_probability
        self._missed_flows: Dict[ConnKey, bool] = {}

    def flow_missed(self, key: ConnKey) -> bool:
        """Whether the whole cluster overlooks this flow (drawn once)."""
        if key not in self._missed_flows:
            self._missed_flows[key] = self.rng.random() < self.miss_probability
        return self._missed_flows[key]

    def new_trial(self) -> None:
        """Drop the per-flow draws (a fleet calls it after each wave)."""
        self._missed_flows.clear()


class SharedInstallation(NamedTuple):
    """One censoring installation that the devices of many paths are
    built on (``build_scenario``'s ``shared_censor``): a cluster with its
    NB3 coins already drawn, and per device position the flow table,
    blacklist and blocked-IP set every path's device at that position
    uses."""

    cluster: GFWCluster
    positions: Tuple[Tuple[FlowTable, Blacklist, set], ...]
