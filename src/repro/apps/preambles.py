"""The fingerprintable handshake preambles of §7.3's tunnels.

The Tor client hello and the OpenVPN-over-TCP hard reset are the bytes
the GFW's DPI fingerprints (:mod:`repro.gfw.dpi`).  They live apart
from the protocol implementations (:mod:`repro.apps.tor`,
:mod:`repro.apps.vpn`), so the censor classifies every stream without
loading the tunnel apps that only the Tor and VPN workloads run.
"""

#: The client-hello bytes the GFW's DPI fingerprints.  Modelled on the
#: distinctive cipher-suite ordering of Tor's TLS handshake.
TOR_HANDSHAKE_PREAMBLE = b"\x16\x03\x01TOR-CLIENT-HELLO:cipherlist=FFCC"

#: Length-prefixed P_CONTROL_HARD_RESET_CLIENT_V2 lookalike.
OPENVPN_TCP_PREAMBLE = b"\x00\x2a\x38OPENVPN-HARD-RESET-CLIENT-V2" + bytes(13)
