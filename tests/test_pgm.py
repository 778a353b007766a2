from __future__ import annotations

import sys

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
@example([b"16 16 255\n"], bytes(256))  # a digit straight after the magic
@example([b"#c\n2 3 255\n"], bytes(6))  # a comment straight after the magic
@example([b" 2 3 255\r"], bytes(6))  # '\r' separates the header from the raster
@example([b" 2 3 #c"], b"")  # a comment with no newline at the end of the data
@example([b" 2 3 255"], bytes(40))  # a token longer than the 32 bytes its refusal quotes
@example([b" ", b"9" * 20, b" ", b"9" * 20, b" 255\n"], b"")  # more pixels than a bytes object holds
def test_header_matches_the_byte_scanner(pieces, raster):
    data = b"P5" + b"".join(pieces) + raster
    assert outcome(decode_pgm, data) == outcome(decode_pgm_header_scan, data)


@pytest.mark.parametrize(
    ("data", "quoted"),
    [
        # the separator after 255 is missing, so the last token runs on through the raster
        (b"P5\n2048 2048\n255" + bytes(2048 * 2048), f"{b'255' + bytes(29)!r} (first 32 of 4194307 bytes)"),
        (b"P5 " + b"1" * 4301 + b" 1 255\n", f"{b'1' * 32!r} (first 32 of 4301 bytes)"),  # past int()'s digit limit
    ],
    ids=["separator-missing", "digit-limit"],
)
def test_long_token_is_quoted_by_its_first_32_bytes(data, quoted):
    with pytest.raises(ValueError) as refusal:
        decode_pgm(data)
    assert str(refusal.value) == f"bad PGM header token {quoted}"


TOO_MANY_PIXELS = f"carrier dimensions multiply to more than {sys.maxsize} pixels"


@pytest.mark.parametrize("digits", [20, 4300], ids=["20-digits", "digit-limit"])
def test_header_shape_past_any_bytes_is_refused(digits):
    nines = b"9" * digits
    with pytest.raises(ValueError) as refusal:
        decode_pgm(b"P5 " + nines + b" " + nines + b" 255\n")
    assert str(refusal.value) == TOO_MANY_PIXELS


def test_carrier_shape_past_any_bytes_is_refused():
    with pytest.raises(ValueError) as refusal:
        Carrier(sys.maxsize, 1, b"")
    assert str(refusal.value) == f"carrier of {sys.maxsize}x1 needs {sys.maxsize} pixels, got 0"
    for width, height in [(sys.maxsize, 2), (10**2200, 10**2200)]:
        with pytest.raises(ValueError) as refusal:
            Carrier(width, height, b"")
        assert str(refusal.value) == TOO_MANY_PIXELS


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
