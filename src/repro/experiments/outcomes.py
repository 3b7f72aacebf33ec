"""The §3.3 outcome decision and its one tally.

"Success means that we receive the HTTP response from the server and
receive no reset packets from the GFW.  Failure 1 means that we receive
no HTTP response from the server nor do we receive any resets from the
GFW.  Failure 2 means that we receive reset packets from the GFW."

Every result the paper reports is a count of those three outcomes, so
every producer — a Table-1 cell, a Table-4 vantage, a conformance cell,
an inconsistency cell, a fleet label — reduces its trials to one
:class:`VerdictDistribution`, and every merge is ``+``.  Ensafi et al.
(PAPERS.md) show why a cell is kept as a distribution, not a label: the
scalar verdict (:func:`classify_counts`) is only its point-estimate
view, beside a Wilson interval on the success proportion.

A leaf module: the runner, the conformance matrix, the inconsistency
sweep and the fleet all import it, and it imports none of them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Tuple

__all__ = [
    "DEFAULT_Z",
    "Outcome",
    "VerdictDistribution",
    "classify",
    "classify_counts",
    "wilson_interval",
]

DEFAULT_Z = 1.96  # two-sided 95 %


class Outcome(enum.Enum):
    SUCCESS = "success"
    FAILURE1 = "failure1"  # silence: no response, no GFW resets
    FAILURE2 = "failure2"  # GFW resets observed


def classify(got_response: bool, gfw_resets: int) -> Outcome:
    if gfw_resets > 0:
        return Outcome.FAILURE2
    if got_response:
        return Outcome.SUCCESS
    return Outcome.FAILURE1


def classify_counts(success: int, failure1: int, failure2: int) -> str:
    """Reduce outcome counts to a verdict (ties resolve toward evasion
    first, then blocking — a 50 % evader still evades in expectation)."""
    trials = success + failure1 + failure2
    if trials == 0:
        return "mixed"
    if 2 * success >= trials:
        return "evades"
    if 2 * failure2 > trials:
        return "blocked"
    if 2 * failure1 > trials:
        return "broken"
    return "mixed"


def wilson_interval(
    successes: int, trials: int, z: float = DEFAULT_Z
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation because conformance cells
    run single-digit repeats, where Wald intervals collapse to zero
    width at 0/n and n/n.  ``n=0`` returns the vacuous ``(0, 1)``.
    """
    if trials <= 0:
        return (0.0, 1.0)
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = (
        z
        * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
        / denom
    )
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class VerdictDistribution:
    """Success / Failure-1 / Failure-2 counts of n trials.

    Built once per cell or group with :meth:`from_outcomes`; merging is
    integer addition (``+``), hence associative and commutative —
    chunk-order-proof.  Iterating yields the three counts in that order.
    """

    success: int = 0
    failure1: int = 0
    failure2: int = 0

    @classmethod
    def from_outcomes(cls, outcomes: Iterable[Outcome]) -> "VerdictDistribution":
        counts = {Outcome.SUCCESS: 0, Outcome.FAILURE1: 0, Outcome.FAILURE2: 0}
        for outcome in outcomes:
            counts[outcome] += 1
        return cls(
            counts[Outcome.SUCCESS],
            counts[Outcome.FAILURE1],
            counts[Outcome.FAILURE2],
        )

    def __add__(self, other: "VerdictDistribution") -> "VerdictDistribution":
        return VerdictDistribution(
            self.success + other.success,
            self.failure1 + other.failure1,
            self.failure2 + other.failure2,
        )

    def __iter__(self) -> Iterator[int]:
        yield self.success
        yield self.failure1
        yield self.failure2

    @property
    def trials(self) -> int:
        return self.success + self.failure1 + self.failure2

    @property
    def verdict(self) -> str:
        return classify_counts(self.success, self.failure1, self.failure2)

    def wilson(self, z: float = DEFAULT_Z) -> Tuple[float, float]:
        """Confidence bounds on the *success* proportion."""
        return wilson_interval(self.success, self.trials, z=z)

    def rates(self) -> Tuple[float, float, float]:
        """The three proportions (all zero for an empty tally)."""
        total = self.trials
        if total == 0:
            return (0.0, 0.0, 0.0)
        return (
            self.success / total,
            self.failure1 / total,
            self.failure2 / total,
        )

    def as_percentages(self) -> Tuple[float, float, float]:
        s, f1, f2 = self.rates()
        return (s * 100, f1 * 100, f2 * 100)

    def as_payload(self) -> Dict:
        """A JSON-representable image, in the golden verdict rows' key
        order; the Wilson bounds are additive (golden comparison keys on
        the ``verdict`` string)."""
        low, high = self.wilson()
        return {
            "verdict": self.verdict,
            "success": self.success,
            "failure1": self.failure1,
            "failure2": self.failure2,
            "wilson_low": round(low, 6),
            "wilson_high": round(high, 6),
        }

    # Read-only stand-ins: the frozen ``perfbench/`` reads a Table-1
    # cell's counts under these names (DESIGN.md §14).
    @property
    def successes(self) -> int:
        return self.success

    @property
    def failure1s(self) -> int:
        return self.failure1

    @property
    def failure2s(self) -> int:
        return self.failure2
