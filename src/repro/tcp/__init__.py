"""TCP endpoint stacks with per-Linux-version behaviour profiles.

The paper's §5.3 "ignore path" analysis is an analysis of *real* endpoint
TCP implementations: which incoming packets does a server silently ignore
while the GFW still processes them?  To reproduce that analysis — and to
make the evasion strategies succeed or fail for mechanistic reasons — we
implement a compact but faithful TCP state machine with the behaviours
that matter parameterized per kernel version:

- transport checksum validation;
- RFC 2385 MD5-signature option rejection (Linux ≥ 2.6, Table 3 row 6);
- RFC 5961 challenge ACKs for RST and for SYN-in-ESTABLISHED (Linux ≥ 4.0);
- PAWS timestamp checking (Table 3 last row);
- ACK-flag requirement on data segments (absent before Linux 3.x);
- out-of-order segment reassembly with a configurable overlap preference.
"""

from repro.exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".tcb": ("TCB", "TCPState"),
    ".reassembly": ("ReceiveBuffer",),
    ".profiles": (
        "LINUX_2_4_37", "LINUX_2_6_34", "LINUX_3_14", "LINUX_4_0", "LINUX_4_4",
        "ALL_PROFILES", "RstPolicy", "StackProfile", "SynInEstablishedPolicy",
    ),
    ".stack": ("TCPConnection", "TCPHost"),
})
