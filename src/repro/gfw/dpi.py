"""The GFW's deep-packet-inspection engine over reassembled streams.

One :class:`StreamInspector` instance watches the *monitored* direction of
one flow (what the device believes is client→server).  It receives bytes
in stream order from the device's reassembly buffer — so splitting a
keyword across segments does not evade it (§4, hypothesis (2) ruled out:
the GFW reassembles before matching).

Protocol dispatch is heuristic, as on the real GFW:

- a stream starting with an HTTP method is matched against the keyword
  list (request line and headers alike);
- a stream that parses as DNS-over-TCP (2-byte length prefix) has its
  query name checked against the poisoned-domain list;
- Tor and OpenVPN sessions are recognized by their handshake preambles.

The engine is *streaming*: protocol classification reads only the first
few stream bytes (once — the prefix never changes), and keyword matching
advances a shared Aho–Corasick automaton (:mod:`repro.gfw.automaton`)
incrementally per ``feed``.  A flow therefore costs O(total bytes) to
inspect regardless of segmentation, where the historical engine
re-scanned its whole buffered stream on every in-order segment
(O(bytes²) on 1-byte segmentations).  The matcher cursor is carried
across the inspect-window trim, so a keyword straddling the window
boundary is still caught; the retired engine is preserved below as
:class:`RescanInspector` and serves as the parity oracle for the
property tests and the ``bench_dpi`` throughput comparison.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.apps.preambles import OPENVPN_TCP_PREAMBLE, TOR_HANDSHAKE_PREAMBLE
from repro.gfw.automaton import KeywordAutomaton, SMALL_SEGMENT, compile_keywords
from repro.gfw.rules import Detection, RuleSet

_HTTP_METHODS = (b"GET ", b"POST ", b"HEAD ", b"PUT ", b"DELETE ", b"OPTIONS ")
_HTTP_PREFIXES = _HTTP_METHODS + (b"HTTP/",)
#: Maximum bytes of a stream retained for inspection; the real GFW also
#: bounds its reassembly effort (§2.1: "costly to track ... and match").
_INSPECT_WINDOW = 8192

# Stream classes, latched from the (immutable) stream prefix.
_CLASS_UNDECIDED = 0  # too few prefix bytes to rule everything out
_CLASS_HTTP_REQUEST = 1
_CLASS_HTTP_RESPONSE = 2
_CLASS_OTHER = 3  # DNS-over-TCP candidate, preamble candidate, or noise

# DNS-over-TCP parse progress (monotone; parsing never restarts).
_DNS_COLLECTING = 0  # still waiting for the 2-byte frame + message
_DNS_DONE = 1  # parsed, unparseable, or framing ruled the stream out


#: Stream bytes protocol classification needs.
_CLASSIFICATION_PREFIX_LEN = max(
    len(TOR_HANDSHAKE_PREAMBLE),
    len(OPENVPN_TCP_PREAMBLE),
    max(len(m) for m in _HTTP_PREFIXES),
)


class StreamInspector:
    """Accumulates one direction of a flow and applies the rule set.

    Per-flow state is a handful of small cursors — the first ~44 stream
    bytes for protocol classification, the automaton's integer state
    plus the set of keyword indices matched so far, and (only while the
    stream might be DNS-over-TCP) the framed message bytes.  Nothing is
    ever re-scanned, and nothing here grows with the stream.
    """

    def __init__(self, rules: RuleSet) -> None:
        self.rules = rules
        self.automaton: KeywordAutomaton = compile_keywords(rules.keywords)
        self.detection: Optional[Detection] = None
        self.bytes_inspected = 0
        self._prefix = bytearray()
        self._prefix_needed = _CLASSIFICATION_PREFIX_LEN
        self._class = _CLASS_UNDECIDED
        #: Latched once the class says keyword hits are (ir)relevant.
        self._scan_on = True
        self._report_keywords = False
        #: The matcher cursor is one of two interchangeable forms: an
        #: automaton state (``_match_state``, used while stepping small
        #: segments per byte) or the raw last ``max_keyword_len - 1``
        #: stream bytes (``_tail``, used by the vectorized window scan —
        #: enough to cover any keyword straddling a segment boundary).
        #: Conversions happen only when the segment-size regime changes.
        self._match_state = 0
        self._tail: Optional[bytes] = None
        #: Indices (into ``rules.keywords``) matched anywhere in the
        #: stream so far.  Empty keywords match everywhere, exactly as
        #: they did under substring rescan.
        self._found: Set[int] = set(self.automaton.matches_empty)
        self._dns_phase = _DNS_COLLECTING
        self._dns_detection: Optional[Detection] = None
        #: DNS-over-TCP candidate bytes (bounded by the inspect window).
        self._buffer = bytearray()

    # -- resource accounting (GFWDevice.stats) --------------------------
    @property
    def state_bytes(self) -> int:
        """Approximate per-flow matcher footprint (excludes the shared
        automaton, which is compiled once per rule set per process)."""
        return (
            len(self._prefix)
            + len(self._buffer)
            + len(self._tail or b"")
            + 8 * len(self._found)
            + 64
        )

    def feed(self, data: bytes) -> Optional[Detection]:
        """Append in-order stream bytes; return a Detection on first hit.

        After a detection the inspector latches (continues returning the
        same detection) — the device's blacklist takes over from there.
        """
        if self.detection is not None:
            return self.detection
        if not data:
            return None
        self.bytes_inspected += len(data)
        if len(self._prefix) < self._prefix_needed:
            detection = self._ingest_prefix(data)
            if detection is not None:
                self.detection = detection
                return detection
        if self._scan_on:
            automaton = self.automaton
            if automaton.max_keyword_len:
                lowered = data.lower()
                if len(lowered) <= SMALL_SEGMENT:
                    if self._tail is not None:
                        # Fold the carried window tail back into an
                        # automaton state (re-found matches dedupe away).
                        self._match_state = automaton.advance(
                            0, self._tail, self._found
                        )
                        self._tail = None
                    self._match_state = automaton.advance(
                        self._match_state, lowered, self._found
                    )
                else:
                    tail = self._tail
                    if tail is None:
                        tail = automaton.state_string(self._match_state)
                    window = tail + lowered
                    automaton.scan_window(window, self._found)
                    keep = automaton.max_keyword_len - 1
                    self._tail = window[len(window) - keep :] if keep else b""
            if self._found and self._report_keywords:
                self.detection = self._keyword_detection()
                return self.detection
        if self._dns_phase == _DNS_COLLECTING:
            self._collect_dns(data)
            if self._dns_detection is not None:
                self.detection = self._dns_detection
        return self.detection

    # ------------------------------------------------------------------
    # Prefix ingestion: classification and preamble fingerprints.  The
    # stream prefix is immutable once written, so every outcome latches.
    # ------------------------------------------------------------------
    def _ingest_prefix(self, data: bytes) -> Optional[Detection]:
        self._prefix.extend(data[: self._prefix_needed - len(self._prefix)])
        prefix = bytes(self._prefix)
        rules = self.rules
        if rules.detect_tor and prefix.startswith(TOR_HANDSHAKE_PREAMBLE):
            return Detection("tor", "handshake-fingerprint")
        if rules.detect_vpn and prefix.startswith(OPENVPN_TCP_PREAMBLE):
            return Detection("vpn", "openvpn-tcp-fingerprint")
        if self._class == _CLASS_UNDECIDED:
            self._classify(prefix)
        return None

    def _classify(self, prefix: bytes) -> None:
        if prefix.startswith(_HTTP_METHODS):
            self._class = _CLASS_HTTP_REQUEST
            self._report_keywords = True
            self._drop_dns()
        elif prefix.startswith(b"HTTP/"):
            # Response streams keep falling through to the DNS parse
            # attempt when response censorship is off, exactly like the
            # rescan engine (whose huge bogus frame "length" made that
            # attempt a no-op there too).
            self._class = _CLASS_HTTP_RESPONSE
            if self.rules.censor_http_responses:
                self._report_keywords = True
                self._drop_dns()
            else:
                self._scan_on = False
        elif not any(p.startswith(prefix) for p in _HTTP_PREFIXES):
            # No further bytes can turn this stream into HTTP.
            self._class = _CLASS_OTHER
            self._scan_on = False

    def _drop_dns(self) -> None:
        self._dns_phase = _DNS_DONE
        del self._buffer[:]

    # ------------------------------------------------------------------
    # DNS-over-TCP: buffer the framed message once, parse it once.
    # ------------------------------------------------------------------
    def _collect_dns(self, data: bytes) -> None:
        self._buffer.extend(data)
        if len(self._buffer) < 2:
            return
        length = int.from_bytes(self._buffer[:2], "big")
        if length == 0 or 2 + length > _INSPECT_WINDOW:
            # A zero length never parses, and an over-window message
            # could never sit fully framed inside the historical inspect
            # buffer either.  Stop buffering this stream.
            self._drop_dns()
            return
        if len(self._buffer) < 2 + length:
            return
        from repro.apps.dns import extract_query_name

        try:
            domain = extract_query_name(bytes(self._buffer[2 : 2 + length]))
        except ValueError:
            domain = None
        if domain is not None and self.rules.domain_is_poisoned(domain):
            self._dns_detection = Detection("dns-domain", domain)
        self._drop_dns()

    # ------------------------------------------------------------------
    def _keyword_detection(self) -> Detection:
        """Build the detection for the lowest-index matched keyword —
        the rescan engine's priority (it walked the keyword list in
        order over the whole buffer)."""
        keyword = self.rules.keywords[min(self._found)]
        detail = keyword.decode("ascii", "replace")
        if self._class == _CLASS_HTTP_RESPONSE:
            return Detection("http-response-keyword", detail)
        return Detection("http-keyword", detail)


class RescanInspector:
    """The retired full-rescan engine, kept as the parity oracle.

    This is the pre-streaming implementation verbatim: buffer the stream
    (trimmed to the inspect window) and re-run every protocol test and
    substring search over the whole buffer on each ``feed``.  Tests
    assert the streaming engine's detections are byte-identical on
    segmentations that fit the window, and ``benchmarks/bench_dpi.py``
    measures the throughput gap.  Its one known defect — a keyword
    straddling the window trim is silently lost — is intentionally
    preserved here (and fixed in :class:`StreamInspector`, whose matcher
    cursor survives the trim).
    """

    def __init__(self, rules: RuleSet) -> None:
        self.rules = rules
        self._buffer = bytearray()
        self.detection: Optional[Detection] = None
        self.bytes_inspected = 0

    def feed(self, data: bytes) -> Optional[Detection]:
        if self.detection is not None:
            return self.detection
        if not data:
            return None
        self._buffer.extend(data)
        self.bytes_inspected += len(data)
        if len(self._buffer) > _INSPECT_WINDOW:
            del self._buffer[: len(self._buffer) - _INSPECT_WINDOW]
        self.detection = self._inspect(bytes(self._buffer))
        return self.detection

    # ------------------------------------------------------------------
    def _inspect(self, stream: bytes) -> Optional[Detection]:
        detection = self._inspect_tor_vpn(stream)
        if detection is not None:
            return detection
        if stream.startswith(_HTTP_METHODS):
            keyword = self.rules.match_keyword(stream)
            if keyword is not None:
                return Detection("http-keyword", keyword.decode("ascii", "replace"))
            return None
        if stream.startswith(b"HTTP/") and self.rules.censor_http_responses:
            keyword = self.rules.match_keyword(stream)
            if keyword is not None:
                return Detection(
                    "http-response-keyword", keyword.decode("ascii", "replace")
                )
            return None
        domain = self._dns_tcp_query_name(stream)
        if domain is not None and self.rules.domain_is_poisoned(domain):
            return Detection("dns-domain", domain)
        return None

    def _inspect_tor_vpn(self, stream: bytes) -> Optional[Detection]:
        if self.rules.detect_tor and stream.startswith(TOR_HANDSHAKE_PREAMBLE):
            return Detection("tor", "handshake-fingerprint")
        if self.rules.detect_vpn and stream.startswith(OPENVPN_TCP_PREAMBLE):
            return Detection("vpn", "openvpn-tcp-fingerprint")
        return None

    def _dns_tcp_query_name(self, stream: bytes) -> Optional[str]:
        from repro.apps.dns import extract_query_name

        if len(stream) < 2:
            return None
        length = int.from_bytes(stream[:2], "big")
        if length == 0 or len(stream) < 2 + length:
            return None
        try:
            return extract_query_name(stream[2 : 2 + length])
        except ValueError:
            return None
