"""Hypothesis property tests for the netstack wire primitives.

The evasion strategies stand on two low-level behaviours: IP-fragment
reassembly under an explicit overlap policy (the §3.2 discrepancy lever)
and TCP-option (de)serialization (the §5.3 insertion vehicles).  These
properties pin them for arbitrary inputs, not just the happy paths the
strategies happen to exercise:

- fragment/reassemble round-trips for any payload and any legal
  fragment size, in any delivery order;
- overlapping fragments resolve exactly per FIRST_WINS/LAST_WINS, at
  byte granularity, for arbitrary overlap geometries;
- option lists survive serialize -> parse for every modelled option and
  for unknown (Raw) kinds, under NOP padding;
- the checksum check, which works the correct checksum out from the
  fields, agrees with serializing a pristine copy and reading it back.
"""

from hypothesis import given, settings, strategies as st

from repro.netstack.fragment import (
    FragmentReassembler,
    OverlapPolicy,
    fragment_packet,
    make_fragment,
)
from repro.netstack.options import (
    KIND_MD5SIG,
    MD5SignatureOption,
    MSSOption,
    RawOption,
    SACKPermittedOption,
    TimestampOption,
    WindowScaleOption,
    find_option,
    parse_options,
    serialize_options,
)
from repro.netstack.packet import ACK, PSH, TCPSegment, tcp_packet
from repro.netstack.wire import serialize_tcp, tcp_checksum_valid, transport_bytes


def _keyword_packet(payload: bytes):
    return tcp_packet(
        src="10.0.0.1", dst="10.0.0.2", src_port=32768, dst_port=80,
        flags=PSH | ACK, seq=1000, ack=2000, payload=payload,
    )


# ---------------------------------------------------------------------------
# fragmentation round-trips
# ---------------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(
    payload=st.binary(min_size=0, max_size=160),
    fragment_units=st.integers(1, 8),
    shuffle_seed=st.randoms(use_true_random=False),
)
def test_fragment_reassemble_round_trip_any_order(
    payload, fragment_units, shuffle_seed
):
    packet = _keyword_packet(payload)
    fragment_size = fragment_units * 8
    body = transport_bytes(packet)
    if fragment_size >= len(body):
        return  # fragment_packet rejects degenerate splits (tested below)
    fragments = fragment_packet(packet, fragment_size)

    # Geometry: 8-byte aligned offsets, last fragment closes the body.
    assert [f.frag_offset * 8 for f in fragments] == list(
        range(0, len(body), fragment_size)
    )
    assert all(f.more_fragments for f in fragments[:-1])
    assert not fragments[-1].more_fragments
    assert b"".join(bytes(f.payload) for f in fragments) == body

    shuffled = list(fragments)
    shuffle_seed.shuffle(shuffled)
    reassembler = FragmentReassembler(OverlapPolicy.LAST_WINS)
    results = [reassembler.add(fragment) for fragment in shuffled]
    completed = [packet for packet in results if packet is not None]
    assert results[:-1] == [None] * (len(shuffled) - 1)
    assert len(completed) == 1
    segment = completed[0].payload
    assert segment.payload == payload
    assert (segment.src_port, segment.dst_port) == (32768, 80)
    assert reassembler.pending_count() == 0


@settings(max_examples=60, deadline=None)
@given(
    payload=st.binary(min_size=0, max_size=40),
    fragment_units=st.integers(1, 8),
)
def test_fragment_packet_rejects_degenerate_sizes(payload, fragment_units):
    import pytest

    packet = _keyword_packet(payload)
    body = transport_bytes(packet)
    with pytest.raises(ValueError):
        fragment_packet(packet, fragment_units * 8 + 1)  # unaligned
    with pytest.raises(ValueError):
        fragment_packet(packet, (len(body) // 8 + 1) * 8)  # >= payload


# ---------------------------------------------------------------------------
# overlap policies, byte-granular
# ---------------------------------------------------------------------------
def _wire_normalized(body: bytes) -> bytes:
    """serialize_tcp re-emits the data-offset byte with the reserved
    nibble zeroed and masks flags to the six classic bits; apply the
    same normalization to a raw reference body so it can be compared
    against a parse -> serialize round-trip."""
    normalized = bytearray(body)
    normalized[12] &= 0xF0
    normalized[13] &= 0x3F
    return bytes(normalized)


@settings(max_examples=120, deadline=None)
@given(
    # >= 3 units so the reassembled body holds a full TCP header
    # (parse_tcp rejects anything shorter than 20 bytes).
    total_units=st.integers(3, 6),
    overlap_start_units=st.integers(0, 5),
    overlap_units=st.integers(1, 6),
    first_wins=st.booleans(),
)
def test_overlap_resolution_matches_policy_reference(
    total_units, overlap_start_units, overlap_units, first_wins
):
    """A garbage fragment overlapping the real body resolves exactly as
    a byte-wise first-wins/last-wins reference predicts."""
    total = total_units * 8
    start = min(overlap_start_units, total_units - 1) * 8
    length = min(overlap_units * 8, total - start)

    real = bytes(range(32, 32 + total))
    garbage = bytes([0xEE]) * length
    packet = _keyword_packet(b"")
    base = make_fragment(packet, real, 0, more_fragments=True)
    tail = make_fragment(packet, b"", total, more_fragments=False)
    overlap = make_fragment(packet, garbage, start, more_fragments=True)

    policy = OverlapPolicy.FIRST_WINS if first_wins else OverlapPolicy.LAST_WINS
    reassembler = FragmentReassembler(policy)
    assert reassembler.add(base) is None
    assert reassembler.add(overlap) is None
    completed = reassembler.add(tail)
    assert completed is not None

    expected = bytearray(real)
    if not first_wins:
        expected[start : start + length] = garbage
    observed = transport_bytes(completed)
    assert observed == _wire_normalized(bytes(expected))


def test_same_offset_same_length_discrepancy():
    """The paper's §3.2 lever verbatim: two fragments at the same offset
    and length — the GFW (first-wins) keeps the former, a last-wins
    stack keeps the latter."""
    packet = _keyword_packet(b"")
    former = bytes([0xAA]) * 24
    latter = bytes([0xBB]) * 24
    kept = {}
    for policy in (OverlapPolicy.FIRST_WINS, OverlapPolicy.LAST_WINS):
        reassembler = FragmentReassembler(policy)
        assert reassembler.add(
            make_fragment(packet, former, 0, more_fragments=True)
        ) is None
        assert reassembler.add(
            make_fragment(packet, latter, 0, more_fragments=True)
        ) is None
        completed = reassembler.add(
            make_fragment(packet, b"", 24, more_fragments=False)
        )
        assert completed is not None
        kept[policy] = transport_bytes(completed)
    assert kept[OverlapPolicy.FIRST_WINS] == _wire_normalized(former)
    assert kept[OverlapPolicy.LAST_WINS] == _wire_normalized(latter)


# ---------------------------------------------------------------------------
# TCP options round-trips
# ---------------------------------------------------------------------------
_option = st.one_of(
    st.builds(MSSOption, mss=st.integers(0, 0xFFFF)),
    st.builds(WindowScaleOption, shift=st.integers(0, 14)),
    st.builds(SACKPermittedOption),
    st.builds(
        TimestampOption,
        tsval=st.integers(0, 0xFFFFFFFF),
        tsecr=st.integers(0, 0xFFFFFFFF),
    ),
    st.builds(MD5SignatureOption, digest=st.binary(min_size=16, max_size=16)),
    st.builds(
        RawOption,
        # Steer clear of kinds the parser maps back to typed options and
        # of EOL/NOP, which are padding, not options.
        raw_kind=st.integers(40, 252),
        data=st.binary(min_size=0, max_size=12),
    ),
)


@settings(max_examples=150, deadline=None)
@given(options=st.lists(_option, min_size=0, max_size=6))
def test_options_round_trip_through_serialize_parse(options):
    blob = serialize_options(options)
    assert len(blob) % 4 == 0  # NOP-padded to a header-legal length
    parsed = parse_options(blob)
    assert parsed == options


@settings(max_examples=150, deadline=None)
@given(blob=st.binary(min_size=0, max_size=60))
def test_parse_options_is_total_on_arbitrary_bytes(blob):
    """Lenient parsing never raises, and whatever it accepts must
    re-serialize back to parseable bytes (parse is a retraction)."""
    parsed = parse_options(blob)
    again = parse_options(serialize_options(parsed))
    assert again == parsed


@settings(max_examples=60, deadline=None)
@given(digest=st.binary(min_size=16, max_size=16))
def test_md5sig_survives_round_trip_and_is_findable(digest):
    options = [TimestampOption(tsval=1, tsecr=2), MD5SignatureOption(digest)]
    parsed = parse_options(serialize_options(options))
    found = find_option(parsed, KIND_MD5SIG)
    assert isinstance(found, MD5SignatureOption)
    assert found.digest == digest
    assert find_option(parsed, 77) is None


def test_md5sig_rejects_bad_digest_length():
    import pytest

    with pytest.raises(ValueError):
        MD5SignatureOption(digest=b"\x00" * 15)


# ---------------------------------------------------------------------------
# checksum validation without serializing
# ---------------------------------------------------------------------------
_address = st.tuples(*[st.integers(0, 255)] * 4).map(
    lambda quad: ".".join(map(str, quad))
)


@settings(max_examples=200, deadline=None)
@given(
    options=st.lists(_option, min_size=0, max_size=4),
    payload=st.binary(min_size=0, max_size=80),
    checksum_override=st.one_of(st.none(), st.integers(0, 0x1FFFF)),
    data_offset_override=st.one_of(st.none(), st.integers(0, 15)),
    seq=st.integers(0, 2**32 - 1),
    ack=st.integers(0, 2**32 - 1),
    flags=st.integers(0, 0xFF),
    window=st.integers(0, 0xFFFF),
    urgent=st.integers(0, 0xFFFF),
    src=_address,
    dst=_address,
    near_miss=st.booleans(),
)
def test_checksum_check_agrees_with_serialize_then_compare(
    options, payload, checksum_override, data_offset_override, seq, ack,
    flags, window, urgent, src, dst, near_miss,
):
    segment = TCPSegment(
        src_port=40000, dst_port=80, seq=seq, ack=ack, flags=flags,
        window=window, payload=payload, options=options, urgent=urgent,
        checksum_override=checksum_override,
        data_offset_override=data_offset_override,
    )
    pristine = serialize_tcp(segment.copy(checksum_override=None), src, dst)
    correct = int.from_bytes(pristine[16:18], "big")
    if near_miss and checksum_override is not None:
        # Random overrides are almost never right: also try the right
        # value and its neighbour, with junk above bit 15.
        segment.checksum_override = (checksum_override & ~0xFFFF) | correct
        if checksum_override & 1:
            segment.checksum_override ^= 1
    expected = (
        segment.checksum_override is None
        or correct == segment.checksum_override & 0xFFFF
    )
    assert tcp_checksum_valid(segment, src, dst) is expected
