"""Per-kernel-version TCP behaviour profiles.

§5.3 cross-validates the Linux 4.4 ignore paths against 4.0, 3.14,
2.6.34, and 2.4.37 and reports three divergences, all encoded here:

1. Linux 3.14 *ignores* a SYN arriving in ESTABLISHED, while 4.x sends a
   challenge ACK and pre-3.x may reset the connection (RFC 793 rules);
2. Linux 2.6.34 and 2.4.37 accept data segments that carry *no ACK flag*
   (so the "no TCP flag" insertion packet fails against them — the
   "variations in server implementations" failure of §3.4);
3. Linux 2.4.37 predates RFC 2385 support, so unsolicited MD5-signature
   options are not a reason to drop.

Profiles also set the RST-validation policy (RFC 5961 challenge ACKs
landed in Linux 3.6).  Every profile applies the PAWS timestamp check
whenever timestamps were negotiated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.netstack.fragment import OverlapPolicy


class SynInEstablishedPolicy(enum.Enum):
    """What an established connection does with an incoming SYN."""

    #: RFC 5961 §4: never accept, reply with a rate-limited challenge ACK.
    CHALLENGE_ACK = "challenge-ack"
    #: Silently ignore (observed on Linux 3.14, §5.3).
    IGNORE = "ignore"
    #: RFC 793: a SYN in the receive window resets the connection.
    RESET = "reset"


class RstPolicy(enum.Enum):
    """How strictly incoming RSTs are validated."""

    #: RFC 5961 §3: accept only seq == rcv_nxt; in-window -> challenge ACK.
    EXACT_SEQ = "exact-seq"
    #: RFC 793: accept any in-window sequence number.
    IN_WINDOW = "in-window"


@dataclass(frozen=True)
class StackProfile:
    """The complete knob set for one endpoint TCP implementation."""

    name: str
    #: Drop segments whose transport checksum is wrong (all real stacks).
    validates_checksum: bool = True
    #: Drop segments with an unsolicited RFC 2385 MD5 signature option.
    drops_unsolicited_md5: bool = True
    #: Drop data segments that do not carry the ACK flag.
    requires_ack_flag: bool = True
    #: Ignore ACK-bearing segments whose ack number is unacceptable
    #: (outside [snd_una - max_window, snd_nxt]); RFC 5961 §5 behaviour.
    validates_ack_number: bool = True
    rst_policy: RstPolicy = RstPolicy.EXACT_SEQ
    syn_in_established: SynInEstablishedPolicy = SynInEstablishedPolicy.CHALLENGE_ACK
    #: Overlap preference for queued out-of-order segments.
    ooo_overlap: OverlapPolicy = OverlapPolicy.FIRST_WINS
    #: Whether the stack negotiates and echoes TCP timestamps.
    use_timestamps: bool = True
    #: Whether a stray SYN/ACK to a closed/listening port elicits a RST.
    rst_on_stray_packets: bool = True

    def describe(self) -> str:
        return (
            f"{self.name}: md5drop={self.drops_unsolicited_md5} "
            f"ackflag={self.requires_ack_flag} "
            f"rst={self.rst_policy.value} syn_est={self.syn_in_established.value}"
        )


#: The reference stack of the paper's ignore-path analysis (§5.3, Table 3).
LINUX_4_4 = StackProfile(name="linux-4.4")

#: Behaves like 4.4 for everything the paper measures.
LINUX_4_0 = StackProfile(name="linux-4.0")

#: Ignores SYN in ESTABLISHED instead of sending a challenge ACK.
LINUX_3_14 = StackProfile(
    name="linux-3.14",
    syn_in_established=SynInEstablishedPolicy.IGNORE,
)

#: Pre-RFC 5961; accepts no-ACK-flag data segments.
LINUX_2_6_34 = StackProfile(
    name="linux-2.6.34",
    requires_ack_flag=False,
    validates_ack_number=False,
    rst_policy=RstPolicy.IN_WINDOW,
    syn_in_established=SynInEstablishedPolicy.RESET,
)

#: Also predates the MD5 signature option entirely.
LINUX_2_4_37 = StackProfile(
    name="linux-2.4.37",
    drops_unsolicited_md5=False,
    requires_ack_flag=False,
    validates_ack_number=False,
    rst_policy=RstPolicy.IN_WINDOW,
    syn_in_established=SynInEstablishedPolicy.RESET,
    use_timestamps=False,
)

ALL_PROFILES = (LINUX_4_4, LINUX_4_0, LINUX_3_14, LINUX_2_6_34, LINUX_2_4_37)


def profile_by_name(name: str) -> StackProfile:
    """Look up a profile by its kernel-version name.

    >>> profile_by_name("linux-3.14").syn_in_established.value
    'ignore'
    """
    for profile in ALL_PROFILES:
        if profile.name == name:
            return profile
    raise KeyError(f"unknown stack profile {name!r}")
