"""Detection rules: sensitive keywords, poisoned domains, fingerprints.

The paper's measurement uses the keyword ``ultrasurf`` in an HTTP request
(§3.3) and ``www.dropbox.com`` as a censored domain for DNS tests (§7.2);
both are the defaults here.  Tor and OpenVPN are identified by traffic
fingerprints (§7.3), which in the simulator are the protocol preambles
defined in :mod:`repro.apps.tor` and :mod:`repro.apps.vpn`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

#: The probe keyword the paper uses throughout its HTTP measurements.
DEFAULT_KEYWORDS: Tuple[bytes, ...] = (b"ultrasurf", b"falun", b"freedom_tunnel")

#: Domains the GFW's DNS censorship targets (a tiny stand-in for the
#: Alexa-1M-derived list §6 mentions).
DEFAULT_POISONED_DOMAINS: Tuple[str, ...] = (
    "www.dropbox.com",
    "www.facebook.com",
    "twitter.com",
    "www.youtube.com",
)


@dataclass(frozen=True)
class Detection:
    """A DPI hit: what was found and why it is censorable."""

    kind: str  # "http-keyword" | "dns-domain" | "tor" | "vpn"
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}:{self.detail}"


@dataclass(frozen=True)
class RuleSet:
    """The rule base a GFW device applies to reassembled streams."""

    #: A tuple, so ``automaton.compile_keywords`` finds its automaton
    #: by a straight memo lookup.
    keywords: Sequence[bytes] = DEFAULT_KEYWORDS
    #: Whether HTTP *responses* are inspected.  Park et al. found response
    #: filtering discontinued (§2.1 / §5.2); default False.
    censor_http_responses: bool = False
    #: Tor fingerprinting enabled on this device (§7.3: not all paths
    #: traverse Tor-filtering devices).
    detect_tor: bool = True
    #: OpenVPN-over-TCP fingerprinting (§7.3 VPN experiment).
    detect_vpn: bool = True

    def match_keyword(self, payload: bytes) -> Optional[bytes]:
        """Return the first sensitive keyword found in ``payload``."""
        lowered = payload.lower()
        for keyword in self.keywords:
            if keyword in lowered:
                return keyword
        return None

    def domain_is_poisoned(self, domain: str) -> bool:
        domain = domain.lower().rstrip(".")
        for poisoned in DEFAULT_POISONED_DOMAINS:
            if domain == poisoned or domain.endswith("." + poisoned):
                return True
        return False
