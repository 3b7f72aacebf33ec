"""Shared state for co-located GFW devices.

§2.1/§8: type-1 and type-2 devices "usually exist together" at the same
tap point.  Operational effects that belong to the installation rather
than a single box live here:

- the **overload miss** draw: when the cluster is overloaded it fails to
  act on a flow — all devices at the tap miss together, which is why the
  paper's no-strategy success rate is ~2.8 % rather than the product of
  independent per-device misses;
- a trial nonce experiments can bump so per-flow draws refresh between
  repetitions of the same four-tuple.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from repro.gfw.flow import ConnKey


class GFWCluster:
    """One censoring installation shared by the devices on a path."""

    def __init__(self, rng: random.Random, miss_probability: float = 0.028) -> None:
        self.rng = rng
        self.miss_probability = miss_probability
        self._missed_flows: Dict[Tuple[ConnKey, int], bool] = {}
        self.trial_nonce = 0

    def flow_missed(self, key: ConnKey) -> bool:
        """Whether the whole cluster overlooks this flow (drawn once)."""
        cache_key = (key, self.trial_nonce)
        if cache_key not in self._missed_flows:
            self._missed_flows[cache_key] = self.rng.random() < self.miss_probability
        return self._missed_flows[cache_key]

    def new_trial(self) -> None:
        """Refresh per-flow draws (call between experiment repetitions)."""
        self.trial_nonce += 1
        self._missed_flows.clear()
