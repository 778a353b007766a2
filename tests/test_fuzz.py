"""Mutation fuzz: malformed inputs end in a domain error or a documented exit code.

Each example starts from a well-formed PE file, SPE1 record or PGM and
applies a few byte flips, truncations and extensions.  Library calls may
raise only ``PeStegoError`` or ``ValueError``; ``main()`` must return one of
the exit codes its command documents.  Anything else fails the test with
the traceback that escaped.  The value types and the functions that take a
count or an address get any mix of numbers, numpy integers and non-numbers.
"""

from __future__ import annotations

import operator
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pe_builder import SectionPlan, build_pe
from test_cli import quiet_main

from pestego import (
    Carrier,
    KeyPattern,
    MessageLayout,
    PayloadRecord,
    PeStegoError,
    Region,
    StatParams,
    capacity,
    compare,
    derive_pattern,
    detect_blocks,
    embed_message,
    header_slack,
    hide,
    parse_pe,
    retract,
    rva_to_va,
    serialize,
)
from pestego.pgm import decode_pgm, encode_pgm

COVER = build_pe(header_slack=0x88, sections=[SectionPlan(raw_size=512), SectionPlan(raw_size=512, virtual_size=300)])
STEGO = serialize(hide(parse_pe(COVER.data), "p.bin", bytes(range(40))))
RECORDS = [PayloadRecord("p.bin", bytes(range(40))).encode(), PayloadRecord("ä.txt", b"").encode()]
PGMS = [
    encode_pgm(Carrier(16, 16, bytes(range(256)))),
    b"P5\n# comment\n16 16\n255\n" + bytes(256),
]


@st.composite
def mutated(draw, seeds: list[bytes], hot: int, fields: tuple[int, ...] = ()) -> bytes:
    """One of ``seeds`` after 1-4 edits; flips favour the first ``hot`` bytes, where the headers are,
    and aim a third of the time at the offsets in ``fields``."""
    data = bytearray(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(("flip", "truncate", "extend")))
        if edit == "truncate":
            del data[draw(st.integers(0, len(data))) :]
        elif edit == "extend" or not data:  # an empty buffer can only grow
            data += draw(st.binary(min_size=1, max_size=64))
        else:
            spots = st.integers(0, min(hot, len(data)) - 1) | st.integers(0, len(data) - 1)
            reachable = [at for at in fields if at < len(data)]
            at = draw(spots | st.sampled_from(reachable) if reachable else spots)
            data[at] ^= draw(st.integers(1, 255))
    return bytes(data)


# e_lfanew itself, the 'PE\0\0' signature it points at and the optional-header magic: the fields whose
# flips give NotPeError and Not32BitError, which random flips over the headers almost never reach
PE_FIELDS = (*range(0x3C, 0x40), *range(COVER.e_lfanew, COVER.e_lfanew + 4), COVER.e_lfanew + 24, COVER.e_lfanew + 25)
pe_files = mutated([COVER.data, STEGO], hot=COVER.size_of_headers, fields=PE_FIELDS)


def domain_errors_only(call, *args, **kwargs):
    """``call``'s result, or None when it raised a domain error; any other exception propagates."""
    try:
        return call(*args, **kwargs)
    except (PeStegoError, ValueError):
        return None


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150)
@given(data=pe_files)
def test_pe_library(data):
    domain_errors_only(compare, COVER.data, data)
    image = domain_errors_only(parse_pe, data)
    if image is None:
        return
    assert serialize(image) == data
    assert Region(0, len(data)).contains(header_slack(image))  # so slicing data by the slack never runs past it
    assert Region(0, len(data)).contains(image.section_table)  # nor compare's slices by the table
    assert header_slack(image).offset == image.section_table.end
    for sec in image.sections:
        sec.slack()
    capacity(image, "p.bin")
    domain_errors_only(retract, image)
    domain_errors_only(hide, image, "q.bin", b"fuzz", force=True)


@settings(max_examples=60)
@given(data=pe_files)
def test_pe_commands(folder, data):
    path = folder / "input.exe"
    path.write_bytes(data)
    assert quiet_main("inspect", "--in", path) in (0, 2)
    assert quiet_main("extract", "--in", path, "--out", folder / "out") in (0, 1, 2, 5, 6)


@settings(max_examples=150)
@given(data=mutated(RECORDS, hot=64))
def test_record_decode(data):
    record = domain_errors_only(PayloadRecord.decode, data)
    if record is not None:
        assert data.startswith(record.encode())


@settings(max_examples=100)
@given(data=mutated(PGMS, hot=32))
def test_pgm(folder, data):
    carrier = domain_errors_only(decode_pgm, data)
    if carrier is not None:
        assert carrier.width * carrier.height == len(carrier.pixels)
    path = folder / "input.pgm"
    path.write_bytes(data)
    assert quiet_main("stat-extract", "--in", path, "--key", "k", "--bits", 4) in (0, 2, 7)


# ints around the ranges that count, past 32 and 64 bits and past int()'s digit limit, the same as numpy.int64
# where they fit, and values that are not integers
NUMBERS = st.one_of(
    st.integers(-3, 40),
    st.sampled_from([2**32, 2**63, 10**5000]),
    st.integers(-3, 40).map(np.int64),
    st.just(np.int64(2**32)),
    st.floats(),
    st.floats(0, 1).map(np.float64),
    st.booleans(),
    st.fractions(-2, 2, max_denominator=10**6),
    st.decimals(),
    st.text(max_size=4),
    st.binary(max_size=4),
)
FITS = object()  # pixels: as many bytes as width x height, when that is a small count
CARRIER = Carrier(64, 64, bytes(range(256)) * 16)
SMALL_BLOCKS = StatParams(2, 2)
CALLS = {
    "StatParams": StatParams,
    "Carrier": Carrier,
    "MessageLayout": MessageLayout,
    "KeyPattern": KeyPattern,
    "derive_pattern": derive_pattern,
    "rva_to_va": rva_to_va,
    "detect_blocks": lambda key, bit_count, first: detect_blocks(CARRIER, key, bit_count, SMALL_BLOCKS, first),
}
INTEGER_FIELDS = {StatParams: ("block_rows", "block_cols", "k"), Carrier: ("width", "height")}


def counts(value) -> bool:
    """The integer rule: a type with __index__ (numpy's ints have it) that is not bool."""
    return not isinstance(value, bool) and hasattr(type(value), "__index__")


@st.composite
def calls(draw):
    name = draw(st.sampled_from(sorted(CALLS)))
    arity = {"StatParams": 4, "Carrier": 3, "rva_to_va": 2, "derive_pattern": 2, "detect_blocks": 3}.get(name, 1)
    args = [draw(NUMBERS) for _ in range(arity)]
    if name == "Carrier" and draw(st.booleans()):
        args[2] = FITS
    return name, tuple(args)


def use(value) -> None:
    """Embed into and detect from a small carrier with a value that built."""
    carrier, params, message = CARRIER, SMALL_BLOCKS, MessageLayout((1, 0))
    if isinstance(value, StatParams):
        params, message = value, MessageLayout((1,))
    elif isinstance(value, Carrier):
        carrier = value
    elif isinstance(value, MessageLayout):
        message = value
    marked = domain_errors_only(embed_message, carrier, b"k", message, params)
    domain_errors_only(detect_blocks, marked or carrier, b"k", len(message.message_bits), params)


@settings(max_examples=500)
@given(call=calls())
@example(call=("StatParams", (2, 4, 10**5000, Fraction(1, 3))))
@example(call=("MessageLayout", (b"\x01\x00\x01",)))
@example(call=("KeyPattern", (b"\x00\x01",)))
@example(call=("derive_pattern", (b"k", np.int64(40))))
@example(call=("Carrier", (np.int64(2**32), np.int64(2**32), b"")))
@example(call=("StatParams", (np.int64(2**32), np.int64(2**32), 10, 0.05)))
@example(call=("Carrier", (np.int64(8), np.int64(8), FITS)))
@example(call=("StatParams", (np.int64(8), np.int64(8), np.int64(10), 0.05)))
@example(call=("StatParams", (8, 8, 10, "0.05")))
@example(call=("StatParams", (8, 8, 10, Decimal("0.05"))))
@example(call=("StatParams", (8, 8, 10, Fraction(1, 20))))
@example(call=("derive_pattern", (b"k", 8.0)))
@example(call=("detect_blocks", (b"k", 1.0, 0)))
@example(call=("detect_blocks", (b"k", 0, 0.5)))
@example(call=("rva_to_va", (0x400000, 0.5)))
@example(call=("rva_to_va", (0x400000, True)))
@example(call=("rva_to_va", (0, 10**5000)))
@example(call=("rva_to_va", (np.int64(2**62), np.int64(2**62))))
def test_numbers_and_counts(call):
    """Any argument ends in a value or a short domain refusal, never a TypeError, an AttributeError, a MemoryError
    or a numpy warning; a value stores its integer fields as int, and a count or address that is not one, or a key
    that is not bytes, is refused."""
    name, args = call
    if args[-1] is FITS:
        try:
            pixels = bytes(operator.index(args[0]) * operator.index(args[1]) % 2**12)
        except TypeError:
            pixels = b""
        args = (*args[:2], pixels)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = CALLS[name](*args)
        except (PeStegoError, ValueError, OverflowError) as refusal:
            assert type(refusal) is not OverflowError or name == "rva_to_va"
            assert len(str(refusal)) < 512  # one short line, as the command line's refusals are
            return
        for field in INTEGER_FIELDS.get(type(value), ()):
            assert type(getattr(value, field)) is int
        if name in ("derive_pattern", "detect_blocks"):  # a key, then counts
            assert isinstance(args[0], (bytes, bytearray)) and all(map(counts, args[1:]))
        if name == "rva_to_va":
            assert all(map(counts, args))
            assert type(value) is int and value == operator.index(args[0]) + operator.index(args[1])
        use(value)
