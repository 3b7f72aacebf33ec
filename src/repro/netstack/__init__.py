"""Packet model and wire formats.

This package provides the low-level substrate every other layer builds on:

- :mod:`repro.netstack.packet` — dataclasses for IPv4 packets, TCP segments
  and UDP datagrams, including the *corruptible* fields (checksum, TTL,
  data offset, total length) that censorship-evasion insertion packets
  deliberately mangle.
- :mod:`repro.netstack.options` — TCP options, including the RFC 2385 MD5
  signature option and RFC 7323 timestamps that the paper's Table 3 uses
  as insertion-packet discrepancies.
- :mod:`repro.netstack.checksum` — the RFC 1071 Internet checksum plus the
  TCP/UDP pseudo-header variants.
- :mod:`repro.netstack.wire` — byte-level serialization and parsing, so a
  "wrong checksum" is a real wrong 16-bit value on a real wire image.
- :mod:`repro.netstack.fragment` — IPv4 fragmentation and the overlap
  reassembly *policies* (first-wins vs last-wins) that §3.2 exploits.
"""
