"""Mutation fuzz: malformed inputs end in a domain error or a documented exit code.

Each example starts from a well-formed PE file, SPE1 record or PGM and
applies a few byte flips, truncations and extensions.  Library calls may
raise only ``PeStegoError`` or ``ValueError``; ``main()`` must return one of
the exit codes its command documents.  Anything else fails the test with
the traceback that escaped.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pe_builder import SectionPlan, build_pe
from test_cli import quiet_main

from pestego import (
    Carrier,
    PayloadRecord,
    PeStegoError,
    capacity,
    compare,
    header_slack,
    hide,
    parse_pe,
    retract,
    section_slack,
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
    header_slack(image)
    for index in range(len(image.sections)):
        section_slack(image, index)
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
