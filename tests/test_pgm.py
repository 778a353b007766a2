from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import decode_pgm_header_scan

from pestego import Carrier
from pestego.pgm import decode_pgm, encode_pgm, read_carrier, write_carrier


@given(st.data())
def test_encode_decode_roundtrip(data):
    w = data.draw(st.integers(1, 32))
    h = data.draw(st.integers(1, 32))
    pixels = data.draw(st.binary(min_size=w * h, max_size=w * h))
    carrier = Carrier(w, h, pixels)
    assert decode_pgm(encode_pgm(carrier)) == carrier


def test_canonical_header():
    assert encode_pgm(Carrier(2, 3, bytes(6))).startswith(b"P5\n2 3\n255\n")


def test_comments_and_whitespace_accepted():
    data = b"P5 # magic\n# a comment line\n  4\n# again\n2 255\n" + bytes(8)
    carrier = decode_pgm(data)
    assert (carrier.width, carrier.height) == (4, 2)


def test_rejects_wrong_magic():
    with pytest.raises(ValueError):
        decode_pgm(b"P6\n2 2\n255\n" + bytes(12))


def test_rejects_16bit_maxval():
    with pytest.raises(ValueError):
        decode_pgm(b"P5\n2 2\n65535\n" + bytes(8))


def test_rejects_short_raster():
    with pytest.raises(ValueError):
        decode_pgm(b"P5\n4 4\n255\n" + bytes(15))


def test_rejects_trailing_bytes():
    with pytest.raises(ValueError):
        decode_pgm(b"P5\n2 2\n255\n" + bytes(5))


@pytest.mark.parametrize(
    "data",
    [b"P5\n2 3_0\n255\n" + bytes(60), b"P5\n-2 3\n255\n" + bytes(6), b"P5\n+3 2\n255\n" + bytes(6)],
    ids=["underscore", "minus", "plus"],
)
def test_header_numbers_are_ascii_decimal(data):
    with pytest.raises(ValueError, match="bad PGM header token"):
        decode_pgm(data)


def outcome(decode, data: bytes):
    """The Carrier a decoder builds from data, or the text of the ValueError it raises."""
    try:
        return Carrier(*decode(data))
    except ValueError as exc:
        return f"ValueError: {exc}"


HEADER_PIECES = st.one_of(
    st.sampled_from([bytes([b]) for b in b" \t\n\r\x0b\x0c#+-_\xd9"] + [b"0", b"1", b"2", b"3", b"255"]),
    st.binary(min_size=1, max_size=2),
)


@settings(max_examples=300)
@given(st.lists(HEADER_PIECES, max_size=16), st.binary(max_size=10))
@example([b" 2 3 255\n"], bytes(6))
@example([b"\t2#c\n3\x0b255 "], b"\n" * 6)
@example([b" 0 3 255\n"], b"")
@example([b" 2 # unterminated"], b"")
@example([b" 2 3 255"], b"")
@example([b" 2 +3 255\n"], bytes(6))
@example([b" ", b"1" * 4301, b" 1 255\n"], b"")  # more digits than int() converts by default
def test_header_matches_the_byte_scanner(pieces, raster):
    data = b"P5" + b"".join(pieces) + raster
    assert outcome(decode_pgm, data) == outcome(decode_pgm_header_scan, data)


def test_file_roundtrip(tmp_path):
    carrier = Carrier(5, 4, bytes(range(20)))
    path = str(tmp_path / "c.pgm")
    write_carrier(path, carrier, False)
    assert read_carrier(path) == carrier


def test_raw_roundtrip(tmp_path):
    carrier = Carrier(6, 3, bytes(range(18)))
    path = str(tmp_path / "c.raw")
    write_carrier(path, carrier, True)
    assert read_carrier(path, (6, 3)) == carrier
    with pytest.raises(ValueError):
        read_carrier(path, (6, 4))
