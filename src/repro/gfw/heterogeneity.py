"""Spatiotemporal GFW heterogeneity: per-route variants and diurnal load.

**Extension, not paper.**  The source paper models one GFW installation
per path; Ensafi et al. ("Large-scale Spatiotemporal Characterization of
Inconsistencies in the World's Largest Firewall", PAPERS.md) measured the
real system as a *heterogeneous fleet*: different routes see devices with
different rule generations, RST injection fails more often at peak load
hours, and the blacklist window drifts instead of holding a fixed 90 s.

This module supplies the deterministic fabric for that model:

- :class:`RouteEnsemble` — assigns every ``(vantage, target)`` route one
  registered model variant plus a per-route :class:`TemporalProfile`.
  Assignment is a **pure function** of ``(seed, vantage name, target
  name)`` via crc32 (never ``hash()``): permutation-stable,
  interpreter-stable, and — critically — free of RNG draws, so scenario
  builds keep their exact historical draw order.
- :class:`TemporalProfile` — a sinusoidal diurnal load curve mapped to a
  reset-*suppression* probability plus a blacklist-TTL drift factor.
  The suppression coin itself is drawn at detection time on the
  device's own stream (one ``rng.random()`` per detected flow).

The ``heterogeneous`` pseudo-variant rides the existing ``gfw_variant``
axis everywhere (scenario builds, the fleet's shared state, the
conformance matrix); :func:`resolve_route` is the single choke point
that maps it to a concrete member variant per route.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.gfw.models import MODEL_VARIANT_FACTORIES, model_variant_configs
from repro.telemetry.metrics import get_registry

__all__ = [
    "HETEROGENEOUS_VARIANT",
    "ROUTE_ENSEMBLE",
    "RouteEnsemble",
    "TemporalProfile",
    "is_heterogeneous",
    "resolve_route",
    "validate_variant",
]

#: The pseudo-variant name accepted wherever a model variant is: it is
#: not itself a member of ``MODEL_VARIANT_FACTORIES`` — it *selects* a
#: member per route through :data:`ROUTE_ENSEMBLE`.
HETEROGENEOUS_VARIANT = "heterogeneous"

_REGISTRY = get_registry()
#: Routes resolved through the heterogeneous axis (identity resolutions
#: of concrete variants do not count — existing telemetry-parity pins
#: for homogeneous runs must not see a new counter).
_METRIC_ROUTES_ASSIGNED = _REGISTRY.counter("hetero.routes_assigned")

#: Ceiling on generated suppression levels.  Ensafi-style failure to
#: inject is a *load* effect, never a full outage: even at peak hours
#: the majority of detections on a loaded route still draw resets.
_MAX_GENERATED_SUPPRESSION = 0.45


def _unit(seed: int, *parts: str) -> float:
    """Uniform in [0, 1) from crc32 — the repo's hash-free seeding idiom
    (same shape as the fleet's ``_unit``; ``hash()`` is banned because
    PYTHONHASHSEED would leak into verdicts)."""
    token = f"{seed}|" + "|".join(parts)
    return (zlib.crc32(token.encode("utf-8")) & 0xFFFFFFFF) / 2**32


@dataclass(frozen=True)
class TemporalProfile:
    """One route's diurnal censor-load curve and blacklist drift.

    ``reset_suppression(hour)`` is the probability that a *detected*
    flow draws no enforcement (no reset volley, no blacklist entry)
    because the injecting device is overloaded — Ensafi et al.'s
    "failure to inject" observation, strongest at the route's peak
    hour.  The curve is a raised cosine: maximum at ``peak_hour``,
    minimum 12 simulated hours away.

    ``ttl_factor`` scales the 90 s blacklist window (drifting TTLs);
    re-add on re-match is emergent — an expired pair that triggers the
    DPI again is simply blacklisted again by the device.
    """

    #: Hour-of-day (0–24) of maximum load / maximum suppression.
    peak_hour: float = 12.0
    #: Suppression floor at the trough (off-peak residual load).
    base_suppression: float = 0.05
    #: Peak-minus-trough swing of the suppression level.
    amplitude: float = 0.30
    #: Multiplier on the configured blacklist duration (TTL drift).
    ttl_factor: float = 1.0

    def reset_suppression(self, hour: float) -> float:
        """Suppression probability at a simulated hour-of-day."""
        phase = math.cos((hour - self.peak_hour) * math.pi / 12.0)
        level = self.base_suppression + self.amplitude * 0.5 * (1.0 + phase)
        return min(1.0, max(0.0, level))


@dataclass(frozen=True)
class RouteEnsemble:
    """Deterministic (vantage, target) → (member variant, profile) map.

    ``members`` are concrete registered variants (``heterogeneous``
    itself is rejected — no recursion).  ``temporal=False`` disables the
    diurnal layer entirely: a single-member ensemble with temporal off
    reduces byte-for-byte to that member variant, which the conformance
    tier pins.  ``profile`` forces one fixed :class:`TemporalProfile`
    for every route (tests use it to pin suppression deterministically);
    ``None`` generates a per-route profile from ``seed``.
    """

    members: Tuple[str, ...] = ("evolved", "mixed", "old")
    seed: int = 2017
    temporal: bool = True
    #: Generated ``ttl_factor`` range: the low end (~1.8 s of a 90 s
    #: window) makes expiry-and-re-add observable inside one 10 s trial.
    ttl_drift: Tuple[float, float] = (0.02, 1.0)
    profile: Optional[TemporalProfile] = None

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("RouteEnsemble needs at least one member")
        for member in self.members:
            if member == HETEROGENEOUS_VARIANT:
                raise ValueError(
                    "heterogeneous cannot be a member of itself"
                )
            if member not in MODEL_VARIANT_FACTORIES:
                raise KeyError(
                    f"unknown ensemble member {member!r} "
                    f"(known: {sorted(MODEL_VARIANT_FACTORIES)})"
                )

    # -- per-route resolution -------------------------------------------
    def member_for(self, vantage_name: str, target_name: str) -> str:
        """The model variant serving one route (order-independent)."""
        draw = _unit(self.seed, "member", vantage_name, target_name)
        return self.members[int(draw * len(self.members))]

    def profile_for(
        self, vantage_name: str, target_name: str
    ) -> Optional[TemporalProfile]:
        """The route's temporal profile (``None`` with temporal off)."""
        if not self.temporal:
            return None
        if self.profile is not None:
            return self.profile
        low, high = self.ttl_drift
        base = 0.02 + 0.08 * _unit(self.seed, "base", vantage_name, target_name)
        amplitude = min(
            _MAX_GENERATED_SUPPRESSION - base,
            0.20 + 0.23 * _unit(self.seed, "amp", vantage_name, target_name),
        )
        return TemporalProfile(
            peak_hour=24.0 * _unit(self.seed, "peak", vantage_name, target_name),
            base_suppression=base,
            amplitude=amplitude,
            ttl_factor=(
                low
                + (high - low)
                * _unit(self.seed, "ttl", vantage_name, target_name)
            ),
        )

    def resolve(
        self, vantage_name: str, target_name: str
    ) -> Tuple[str, Optional[TemporalProfile]]:
        return (
            self.member_for(vantage_name, target_name),
            self.profile_for(vantage_name, target_name),
        )


#: The route ensemble ``resolve_route``, the fleet's shared state and the
#: inconsistency sweep read.  A module constant, not a scenario field, so
#: the resolution is reachable without widening every task tuple; every
#: process builds the same one, so serial and parallel runs agree.
#: Tests that need another ensemble monkeypatch this name.
ROUTE_ENSEMBLE = RouteEnsemble()


def is_heterogeneous(variant: Optional[str]) -> bool:
    return variant == HETEROGENEOUS_VARIANT


def validate_variant(variant: str) -> None:
    """Accept any registered variant or ``heterogeneous`` (KeyError
    otherwise, listing the full axis)."""
    if is_heterogeneous(variant):
        return
    try:
        model_variant_configs(variant)
    except KeyError:
        known = sorted(MODEL_VARIANT_FACTORIES) + [HETEROGENEOUS_VARIANT]
        raise KeyError(
            f"unknown GFW variant {variant!r} (known: {known})"
        ) from None


def resolve_route(
    variant: Optional[str], vantage_name: str, target_name: str
) -> Tuple[Optional[str], Optional[TemporalProfile]]:
    """Map the variant axis to one route's concrete installation.

    Identity for ``None`` and every concrete variant (zero overhead and
    zero new telemetry on historical paths); for ``heterogeneous``,
    consults :data:`ROUTE_ENSEMBLE` and counts the assignment.
    """
    if not is_heterogeneous(variant):
        return variant, None
    member, profile = ROUTE_ENSEMBLE.resolve(vantage_name, target_name)
    _METRIC_ROUTES_ASSIGNED.inc()
    return member, profile
