"""Discrete-event network simulator.

The simulator reproduces the paper's threat model (Fig. 1): a client and a
server joined by a multi-hop path, with *in-path* middleboxes that may
drop or rewrite packets and *on-path* taps (the GFW) that see copies of
packets and may inject — but never discard — traffic.

Key physical effects modelled, because the evasion strategies depend on
them:

- per-hop TTL decrement (low-TTL insertion packets die between the GFW's
  hop and the server's);
- per-path packet loss at a specific hop (an insertion packet lost before
  the GFW voids the strategy);
- route drift between trials (the measured hop count used to compute
  insertion TTLs goes stale);
- propagation delay, so handshakes and injected resets race realistically.
"""

from repro.exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".simclock": ("SimClock",),
    ".path": ("Direction", "InlineBox", "PathElement", "Tap", "Verdict"),
    ".network": ("Network", "Path"),
    ".node": ("Endpoint", "Host"),
    ".trace": ("TraceEvent", "TraceRecorder"),
})
