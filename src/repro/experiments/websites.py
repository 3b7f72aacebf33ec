"""Synthetic website catalogs standing in for the Alexa measurements.

§3.3 filtered Alexa's top sites down to 77 HTTP websites (ranks 41-2091,
one IP per AS) reachable outside China and reset-censored on the keyword
``ultrasurf``; §7 adds 33 Chinese websites for the inbound direction.

The catalog's role in the measurement is *diversity*: per-site network
paths (hop counts, GFW placement), per-site server stacks (kernel
versions, reassembly preferences), and per-site AS identity.  All of it
is generated deterministically from a seed so every experiment run sees
the same "Internet".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

from repro.experiments.calibration import Calibration, DEFAULT_CALIBRATION


@dataclass(frozen=True)
class Website:
    """One measurement target."""

    name: str
    ip: str
    alexa_rank: int
    asn: int
    #: Kernel behaviour profile name (see repro.tcp.profiles).
    server_profile: str
    #: Server prefers later data on out-of-order overlaps (§3.4's
    #: "a server might accept the junk data (just like the GFW)").
    server_ooo_lastwins: bool
    #: Hop count from an in-China client (outside-China paths get their
    #: own geometry from the calibration).
    hop_count: int
    #: GFW tap position (client-based hop index) for in-China clients.
    gfw_hop: int
    inside_china: bool = False


_MODERN_KERNELS = ("linux-4.4", "linux-4.0", "linux-3.14")


def _profile_quota(count: int, calibration: Calibration, rng: random.Random) -> List[str]:
    """Deterministic kernel-profile quotas (shuffled assignment).

    Exact quotas instead of per-site coin flips keep small catalogs
    representative: ``old_server_fraction`` of the sites run legacy
    kernels, of which a quarter (at least one) are pre-RFC2385 2.4.37.
    """
    old_total = round(count * calibration.old_server_fraction)
    n_2437 = max(1, old_total // 4) if old_total else 0
    n_2634 = old_total - n_2437
    profiles = ["linux-2.4.37"] * n_2437 + ["linux-2.6.34"] * n_2634
    modern_total = count - old_total
    for index in range(modern_total):
        profiles.append(_MODERN_KERNELS[index % len(_MODERN_KERNELS)])
    rng.shuffle(profiles)
    return profiles


def _ooo_quota(count: int, calibration: Calibration, rng: random.Random) -> List[bool]:
    lastwins_total = round(count * calibration.server_ooo_lastwins_fraction)
    flags = [True] * lastwins_total + [False] * (count - lastwins_total)
    rng.shuffle(flags)
    return flags


def _make_site(
    index: int,
    rng: random.Random,
    calibration: Calibration,
    inside_china: bool,
    server_profile: str,
    server_ooo_lastwins: bool,
) -> Website:
    if inside_china:
        name = f"site{index:02d}.example.cn"
        ip = f"122.{100 + index // 200}.{(index * 7) % 250 + 1}.{(index * 13) % 250 + 1}"
        rank = rng.randint(100, 9999)
    else:
        name = f"site{index:02d}.example.org"
        ip = f"203.{index // 200}.{(index * 7) % 250 + 1}.{(index * 13) % 250 + 1}"
        rank = 41 + index * 26  # spans the paper's 41..2091 rank range
    hop_count = rng.randint(12, 20)
    low, high = calibration.gfw_position_range
    gfw_hop = max(2, min(hop_count - 2, round(hop_count * rng.uniform(low, high))))
    return Website(
        name=name,
        ip=ip,
        alexa_rank=rank,
        asn=10000 + index,
        server_profile=server_profile,
        server_ooo_lastwins=server_ooo_lastwins,
        hop_count=hop_count,
        gfw_hop=gfw_hop,
        inside_china=inside_china,
    )


@lru_cache(maxsize=64)
def _catalog_cached(
    count: int, seed: int, calibration: Calibration, inside_china: bool
) -> Tuple[Website, ...]:
    """Memoized catalog generation.

    Catalogs are pure functions of ``(count, seed, calibration)`` and are
    requested once per cell by every bench and runner; :class:`Website`
    entries are frozen, so one generation can be shared safely.  Stored as
    a tuple; the public functions hand out fresh lists.
    """
    rng = random.Random(seed)
    profiles = _profile_quota(count, calibration, rng)
    ooo_flags = _ooo_quota(count, calibration, rng)
    return tuple(
        _make_site(i, rng, calibration, inside_china, profiles[i], ooo_flags[i])
        for i in range(count)
    )


def _catalog(
    count: int, seed: int, calibration: Calibration, inside_china: bool
) -> List[Website]:
    return list(_catalog_cached(count, seed, calibration, inside_china))


def outside_china_catalog(
    count: int = 77,
    seed: int = 2017,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> List[Website]:
    """The 77-site dataset measured from inside China (§3.3)."""
    return _catalog(count, seed, calibration, inside_china=False)


def inside_china_catalog(count: int = 33) -> List[Website]:
    """The 33 Chinese sites measured from outside China (§7)."""
    return _catalog(count, 7102, DEFAULT_CALIBRATION, inside_china=True)


@dataclass(frozen=True)
class Resolver:
    """A public DNS resolver target (§7.2)."""

    name: str
    ip: str
    hop_count: int
    gfw_hop: int
    #: Paths to OpenDNS's resolvers were observed to bypass DNS
    #: censorship entirely (§7.2's accidental discovery).
    censored_path: bool = True


DYN_RESOLVERS = [
    Resolver("Dyn 1", "216.146.35.35", hop_count=16, gfw_hop=9),
    Resolver("Dyn 2", "216.146.36.36", hop_count=17, gfw_hop=10),
]

OPENDNS_RESOLVERS = [
    Resolver("OpenDNS 1", "208.67.222.222", hop_count=16, gfw_hop=9,
             censored_path=False),
    Resolver("OpenDNS 2", "208.67.220.220", hop_count=16, gfw_hop=9,
             censored_path=False),
]
