"""Unit tests for the RFC 1071 checksum implementation."""

import struct

from hypothesis import given, strategies as st

from repro.netstack.checksum import (
    internet_checksum,
    pseudo_header,
    pseudo_header_checksum,
    verify_checksum,
)
from repro.netstack.packet import ip_to_int


def test_empty_data_checksums_to_all_ones():
    assert internet_checksum(b"") == 0xFFFF


def test_single_zero_byte():
    assert internet_checksum(b"\x00") == 0xFFFF


def test_known_vector():
    # Classic RFC 1071 example bytes.
    assert internet_checksum(b"\x00\x01\xf2\x03\xf4\xf5\xf6\xf7") == 0x220D


def test_odd_length_padding():
    # Trailing byte is padded with zero on the right.
    assert internet_checksum(b"\xab") == internet_checksum(b"\xab\x00")


def test_carry_folding():
    # All-ones words force repeated carry folds: the folded sum is
    # 0xFFFF again, whose complement is zero.
    assert internet_checksum(b"\xff\xff" * 5) == 0


def test_checksum_of_data_plus_its_checksum_is_zero():
    data = b"the quick brown fox!"
    checksum = internet_checksum(data)
    combined = data + struct.pack("!H", checksum)
    assert internet_checksum(combined) == 0


@given(st.binary(min_size=0, max_size=256))
def test_checksum_verifies_itself(data):
    """Property: appending the checksum always yields a zero checksum."""
    if len(data) % 2:
        data += b"\x00"
    checksum = internet_checksum(data)
    assert internet_checksum(data + struct.pack("!H", checksum)) == 0


@given(st.binary(min_size=2, max_size=128), st.integers(0, 15))
def test_corruption_detected(data, bit):
    """Property: flipping one bit changes the checksum (ones-complement
    sums detect all single-bit errors)."""
    if len(data) % 2:
        data += b"\x00"
    checksum = internet_checksum(data)
    corrupted = bytearray(data)
    corrupted[0] ^= 1 << (bit % 8)
    assert internet_checksum(bytes(corrupted)) != checksum


def test_pseudo_header_layout():
    header = pseudo_header(ip_to_int("1.2.3.4"), ip_to_int("5.6.7.8"), 6, 20)
    assert len(header) == 12
    assert header[:4] == bytes([1, 2, 3, 4])
    assert header[4:8] == bytes([5, 6, 7, 8])
    assert header[8] == 0
    assert header[9] == 6
    assert header[10:12] == struct.pack("!H", 20)


def test_pseudo_header_checksum_and_verify_roundtrip():
    src = ip_to_int("10.0.0.1")
    dst = ip_to_int("10.0.0.2")
    segment = bytearray(b"\x00" * 20 + b"payload!")
    checksum = pseudo_header_checksum(src, dst, 6, bytes(segment))
    segment[16:18] = struct.pack("!H", checksum)
    assert verify_checksum(src, dst, 6, bytes(segment))


def test_verify_rejects_wrong_checksum():
    src = ip_to_int("10.0.0.1")
    dst = ip_to_int("10.0.0.2")
    segment = bytearray(b"\x00" * 20 + b"payload!")
    segment[16:18] = b"\xde\xad"
    assert not verify_checksum(src, dst, 6, bytes(segment))


def test_checksum_is_order_sensitive_across_words():
    a = internet_checksum(b"\x12\x34\x56\x78")
    b = internet_checksum(b"\x56\x78\x12\x34")
    # Ones-complement addition is commutative over 16-bit words, so
    # word-swaps do NOT change the sum — a real protocol property.
    assert a == b


def test_byte_swap_within_word_changes_checksum():
    assert internet_checksum(b"\x12\x34") != internet_checksum(b"\x34\x12")
