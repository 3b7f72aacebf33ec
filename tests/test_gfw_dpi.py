"""DPI engine tests: keyword matching, protocol dispatch, latching."""

from repro.gfw.dpi import StreamInspector
from repro.gfw.rules import DEFAULT_KEYWORDS, Detection, RuleSet
from repro.apps.dns import encode_query
from repro.apps.tor import TOR_HANDSHAKE_PREAMBLE
from repro.apps.vpn import OPENVPN_TCP_PREAMBLE


def _inspector(**rule_kw):
    return StreamInspector(RuleSet(**rule_kw))


class TestKeywordMatching:
    def test_keyword_in_request_line(self):
        detection = _inspector().feed(b"GET /?q=ultrasurf HTTP/1.1\r\nHost: x\r\n\r\n")
        assert detection is not None
        assert detection.kind == "http-keyword"
        assert detection.detail == "ultrasurf"

    def test_keyword_case_insensitive(self):
        detection = _inspector().feed(b"GET /UltraSurf HTTP/1.1\r\n\r\n")
        assert detection is not None

    def test_benign_request_clean(self):
        assert _inspector().feed(b"GET /news HTTP/1.1\r\nHost: x\r\n\r\n") is None

    def test_keyword_split_across_feeds(self):
        inspector = _inspector()
        assert inspector.feed(b"GET /?q=ultra") is None
        detection = inspector.feed(b"surf HTTP/1.1\r\n\r\n")
        assert detection is not None

    def test_detection_latches(self):
        inspector = _inspector()
        first = inspector.feed(b"GET /ultrasurf HTTP/1.1\r\n\r\n")
        second = inspector.feed(b"more bytes")
        assert first is second

    def test_keyword_in_header_detected(self):
        detection = _inspector().feed(
            b"GET / HTTP/1.1\r\nHost: www.ultrasurf.example\r\n\r\n"
        )
        assert detection is not None

    def test_non_http_stream_with_keyword_not_matched(self):
        """The rule engine keys keyword matching to HTTP requests."""
        assert _inspector().feed(b"\x00\x01ultrasurf binary protocol") is None

    def test_custom_keywords(self):
        inspector = _inspector(keywords=[b"forbidden-word"])
        assert inspector.feed(b"GET /?q=ultrasurf HTTP/1.1\r\n\r\n") is None
        assert inspector.feed(b"GET /forbidden-word HTTP/1.1\r\n\r\n") is not None

    def test_inspection_window_bounds_memory(self):
        inspector = _inspector()
        inspector.feed(b"GET /" + b"a" * 100_000)
        assert len(inspector._buffer) <= 8192


class TestHTTPResponses:
    def test_responses_not_censored_by_default(self):
        """Park et al.: response filtering discontinued (§2.1)."""
        body = b"HTTP/1.1 301 Moved\r\nLocation: /ultrasurf\r\n\r\n"
        assert _inspector().feed(body) is None

    def test_response_censorship_can_be_enabled(self):
        """§3.3: GFW devices on *some* paths detect response keywords."""
        inspector = _inspector(censor_http_responses=True)
        body = b"HTTP/1.1 301 Moved\r\nLocation: /ultrasurf\r\n\r\n"
        detection = inspector.feed(body)
        assert detection is not None
        assert detection.kind == "http-response-keyword"


class TestDNSOverTCP:
    def _tcp_dns(self, qname):
        query = encode_query(qid=7, qname=qname)
        return len(query).to_bytes(2, "big") + query

    def test_poisoned_domain_detected(self):
        detection = _inspector().feed(self._tcp_dns("www.dropbox.com"))
        assert detection is not None
        assert detection.kind == "dns-domain"
        assert detection.detail == "www.dropbox.com"

    def test_subdomain_of_poisoned_domain_detected(self):
        detection = _inspector().feed(self._tcp_dns("cdn.www.dropbox.com"))
        assert detection is not None

    def test_clean_domain_passes(self):
        assert _inspector().feed(self._tcp_dns("example.org")) is None

    def test_partial_message_waits_for_more_bytes(self):
        inspector = _inspector()
        framed = self._tcp_dns("www.dropbox.com")
        assert inspector.feed(framed[:5]) is None
        assert inspector.feed(framed[5:]) is not None


class TestFingerprints:
    def test_tor_preamble_detected(self):
        detection = _inspector().feed(TOR_HANDSHAKE_PREAMBLE + b"...")
        assert detection is not None
        assert detection.kind == "tor"

    def test_tor_detection_disabled_on_unfiltered_paths(self):
        inspector = _inspector(detect_tor=False)
        assert inspector.feed(TOR_HANDSHAKE_PREAMBLE) is None

    def test_vpn_preamble_detected(self):
        detection = _inspector().feed(OPENVPN_TCP_PREAMBLE)
        assert detection is not None
        assert detection.kind == "vpn"

    def test_vpn_detection_can_be_disabled(self):
        inspector = _inspector(detect_vpn=False)
        assert inspector.feed(OPENVPN_TCP_PREAMBLE) is None


class TestRuleSet:
    def test_default_keywords_include_ultrasurf(self):
        assert b"ultrasurf" in DEFAULT_KEYWORDS

    def test_domain_matching_normalizes(self):
        rules = RuleSet()
        assert rules.domain_is_poisoned("WWW.DROPBOX.COM.")
        assert not rules.domain_is_poisoned("dropbox.com.evil.example")

    def test_detection_str(self):
        assert str(Detection("tor", "x")) == "tor:x"

    def test_empty_feed_returns_none(self):
        assert _inspector().feed(b"") is None


# ---------------------------------------------------------------------------
# Streaming engine vs. the retired rescan engine (the parity oracle)
# ---------------------------------------------------------------------------
class TestStreamingParity:
    """Property-style checks: for any stream that fits the inspect
    window, the streaming engine and the full-rescan engine must agree
    byte-for-byte on the Detection (kind and detail) under arbitrary
    segmentation."""

    PREFIXES = [
        b"",
        b"GET /q=",
        b"POST /submit?d=",
        b"HTTP/1.1 200 OK\r\nbody: ",
        b"HEAD",          # incomplete method prefix
        b"XYZZY ",        # non-HTTP
        b"\x00\x10",      # plausible DNS frame length
        b"\x00\x00",      # zero-length DNS frame (never parses)
    ]
    ALPHABET = b"abcdefg /:.-ulersatrfnFALUNXW\r\n"

    @staticmethod
    def _segment(rng, stream):
        chunks = []
        index = 0
        while index < len(stream):
            step = rng.randint(1, 97)
            chunks.append(stream[index : index + step])
            index += step
        return chunks

    @staticmethod
    def _run_both(rules, chunks):
        from repro.gfw.dpi import RescanInspector

        streaming, rescan = StreamInspector(rules), RescanInspector(rules)
        for chunk in chunks:
            streaming.feed(chunk)
            rescan.feed(chunk)
        return streaming.detection, rescan.detection

    def test_randomized_segmentations_match_rescan(self):
        import random

        rng = random.Random(20170901)
        rules = RuleSet()
        for trial in range(400):
            body = bytes(rng.choices(self.ALPHABET, k=rng.randint(0, 2500)))
            stream = rng.choice(self.PREFIXES) + body
            got, expected = self._run_both(rules, self._segment(rng, stream))
            assert (got is None) == (expected is None), (trial, got, expected)
            if got is not None:
                assert (got.kind, got.detail) == (expected.kind, expected.detail)

    def test_planted_keywords_every_boundary_split(self):
        """A keyword split at *every* possible segment boundary — the
        exhaustive version of the boundary-straddle property."""
        rules = RuleSet()
        stream = b"GET /?q=ultrasurf HTTP/1.1\r\n\r\n"
        for cut in range(1, len(stream)):
            got, expected = self._run_both(
                rules, [stream[:cut], stream[cut:]]
            )
            assert got is not None and expected is not None, cut
            assert (got.kind, got.detail) == (expected.kind, expected.detail)

    def test_response_censorship_parity(self):
        import random

        rng = random.Random(42)
        rules = RuleSet(censor_http_responses=True)
        stream = b"HTTP/1.1 200 OK\r\n\r\n<html>falun content</html>"
        for _ in range(50):
            got, expected = self._run_both(rules, self._segment(rng, stream))
            assert got is not None and expected is not None
            assert (got.kind, got.detail) == (expected.kind, expected.detail)
            assert got.kind == "http-response-keyword"

    def test_dns_over_tcp_parity(self):
        import random

        rng = random.Random(9)
        rules = RuleSet()
        message = encode_query(0x1234, "www.dropbox.com")
        stream = len(message).to_bytes(2, "big") + message
        for _ in range(50):
            got, expected = self._run_both(rules, self._segment(rng, stream))
            assert got is not None and expected is not None
            assert (got.kind, got.detail) == (expected.kind, expected.detail)
            assert got.kind == "dns-domain"

    def test_reassembled_overlap_stream_parity(self):
        """Feed both engines the ReceiveBuffer's delivered output for
        randomly overlapping, out-of-order segment arrivals — the exact
        byte source the device uses."""
        import random

        from repro.netstack.fragment import OverlapPolicy
        from repro.tcp.reassembly import ReceiveBuffer

        rng = random.Random(77)
        rules = RuleSet()
        stream = b"GET /?q=ultrasurf HTTP/1.1\r\nHost: parity.example\r\n\r\n"
        for policy in (OverlapPolicy.FIRST_WINS, OverlapPolicy.LAST_WINS):
            for _ in range(60):
                pieces = []
                index = 0
                while index < len(stream):
                    step = rng.randint(1, 11)
                    overlap = rng.randint(0, min(3, index))
                    pieces.append(
                        (index - overlap, stream[index - overlap : index + step])
                    )
                    index += step
                rng.shuffle(pieces)
                buffer = ReceiveBuffer(0, policy=policy)
                delivered_chunks = []
                for seq, payload in pieces:
                    delivered = buffer.add(seq, payload)
                    if delivered:
                        delivered_chunks.append(delivered)
                got, expected = self._run_both(rules, delivered_chunks)
                assert (got is None) == (expected is None)
                if got is not None:
                    assert (got.kind, got.detail) == (expected.kind, expected.detail)


class TestInspectWindowTrim:
    def test_keyword_straddling_trim_point_detected(self):
        """Satellite regression: a keyword split exactly at the
        8192-byte trim point must still be caught.  The retired rescan
        engine drops it (its buffer trim also destroys the stream
        prefix that classified the flow as HTTP); the streaming
        engine's cursors survive the trim by construction."""
        from repro.gfw.dpi import RescanInspector, _INSPECT_WINDOW

        rules = RuleSet()
        head = b"GET /?q="
        filler = b"a" * (_INSPECT_WINDOW - len(head) - len(b"ultra"))
        stream = head + filler + b"ultrasurf HTTP/1.1\r\n\r\n"
        # Split exactly at the window boundary: "ultra" ends byte 8192.
        first, second = stream[:_INSPECT_WINDOW], stream[_INSPECT_WINDOW:]
        assert first.endswith(b"ultra") and second.startswith(b"surf")

        streaming = StreamInspector(rules)
        assert streaming.feed(first) is None
        detection = streaming.feed(second)
        assert detection is not None and detection.detail == "ultrasurf"

        rescan = RescanInspector(rules)
        rescan.feed(first)
        assert rescan.feed(second) is None  # the documented defect

    def test_keyword_beyond_window_detected_by_streaming(self):
        """Streams longer than the window are still fully inspected by
        the streaming engine (the rescan engine went blind once its
        buffer trim chopped off the HTTP request line)."""
        inspector = _inspector()
        inspector.feed(b"GET /?q=" + b"b" * 20000)
        detection = inspector.feed(b"...ultrasurf...")
        assert detection is not None and detection.detail == "ultrasurf"

    def test_streaming_state_stays_bounded(self):
        inspector = _inspector()
        for _ in range(64):
            inspector.feed(b"c" * 1460)
        assert inspector.state_bytes < 512


# ---------------------------------------------------------------------------
# The compiled automaton
# ---------------------------------------------------------------------------
class TestKeywordAutomaton:
    def test_compile_is_memoized_per_keyword_tuple(self):
        from repro.gfw.automaton import compile_keywords

        first = compile_keywords(DEFAULT_KEYWORDS)
        second = compile_keywords(tuple(DEFAULT_KEYWORDS))
        assert first is second
        assert compile_keywords((b"other",)) is not first

    def test_inspectors_share_one_automaton(self):
        a, b = _inspector(), _inspector()
        assert a.automaton is b.automaton

    def test_default_rules_hand_in_the_keyword_tuple(self):
        """The memo lookup on the caller's own tuple is the common case
        only if default rule sets hold the tuple, not a list copy."""
        assert RuleSet().keywords is DEFAULT_KEYWORDS

    def test_pickle_roundtrip_preserves_matching(self):
        import pickle

        from repro.gfw.automaton import compile_keywords

        automaton = compile_keywords(DEFAULT_KEYWORDS)
        clone = pickle.loads(pickle.dumps(automaton))
        assert clone == automaton
        found = set(clone.matches_empty)
        state = clone.advance(0, b"say ultrasurf now", found)
        assert any(
            DEFAULT_KEYWORDS[i] == b"ultrasurf" for i in found
        )
        assert isinstance(state, int)

    def test_small_and_large_segment_paths_agree(self):
        """The per-byte path and the vectorized window path must find
        the same keywords across a size-regime flip-flop."""
        from repro.gfw.automaton import SMALL_SEGMENT

        chunks = [
            b"x" * (SMALL_SEGMENT + 40) + b"fal",      # large: carries tail
            b"un",                                     # small: folds tail back
            b"y" * (SMALL_SEGMENT + 9) + b"freedom_",  # large again
            b"tunnel",                                 # small finish
        ]
        inspector = StreamInspector(
            RuleSet(keywords=(b"falun", b"freedom_tunnel"))
        )
        inspector.feed(b"GET /?q=")  # classify as HTTP so reporting is live
        for chunk in chunks[:-1]:
            inspector.feed(chunk)
        detection = inspector.feed(chunks[-1])
        assert detection is not None
        assert detection.detail == "falun"  # list-order priority

    def test_state_accounting_nonzero(self):
        from repro.gfw.automaton import compile_keywords

        automaton = compile_keywords(DEFAULT_KEYWORDS)
        assert automaton.state_count() > 1
        assert automaton.state_bytes() > 256 * 8
