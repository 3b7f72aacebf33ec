"""Application protocols used as censorship workloads.

These are the protocols the paper evaluates INTANG with (§7): HTTP
(§7.1), DNS over UDP and TCP (§7.2), Tor (§7.3), and OpenVPN-over-TCP
(§7.3).  Each implementation is intentionally minimal but produces real
bytes the GFW's DPI engine can parse — requests cross the wire, get
reassembled, and match (or evade) the rule set for mechanistic reasons.
"""
