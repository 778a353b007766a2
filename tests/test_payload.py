from __future__ import annotations

import struct
import tracemalloc
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pe_builder import SectionPlan, build_pe
from oracles import byte_diff_offsets, crc32_bitwise

from pestego import (
    CorruptPayloadError,
    InsufficientSlackError,
    NameTooLongError,
    NoPayloadError,
    PayloadRecord,
    SlackOccupiedError,
    UnsafeNameError,
    capacity,
    header_slack,
    hide,
    parse_pe,
    retract,
    serialize,
    write_extracted_file,
)

# Plain file names only: path separators, NUL, "." and ".." are refused on both sides.
names = st.text(min_size=1, max_size=40).filter(
    lambda name: not any(c in name for c in "/\\\x00") and name not in (".", "..")
)
payloads = st.binary(max_size=90)
UNSAFE_NAMES = ["../x", "a/b", "a\\b", "..", ".", "", "/etc/passwd", "a\x00b"]


class TestCrc:
    def test_check_value(self):
        assert crc32_bitwise(b"123456789") == 0xCBF43926
        assert zlib.crc32(b"123456789") == 0xCBF43926

    @given(st.binary(max_size=200))
    def test_zlib_matches_bitwise_oracle(self, data):
        assert zlib.crc32(data) & 0xFFFFFFFF == crc32_bitwise(data)


class TestRecord:
    def test_wire_layout(self):
        rec = PayloadRecord("k.txt", b"hello").encode()
        assert rec[:4] == b"SPE1"
        assert struct.unpack_from("<H", rec, 4)[0] == 5
        assert rec[6:11] == b"k.txt"
        assert struct.unpack_from("<I", rec, 11)[0] == 5
        assert rec[15:20] == b"hello"
        assert struct.unpack_from("<I", rec, 20)[0] == crc32_bitwise(b"k.txthello")
        assert len(rec) == 14 + 5 + 5

    @given(name=names, data=payloads)
    def test_roundtrip(self, name, data):
        rec = PayloadRecord(name, data)
        assert PayloadRecord.decode(rec.encode()) == rec

    def test_trailing_zeros_ignored(self):
        buf = PayloadRecord("a", b"bc").encode() + bytes(32)
        assert PayloadRecord.decode(buf) == PayloadRecord("a", b"bc")

    def test_flipped_data_byte_fails_crc(self):
        rec = bytearray(PayloadRecord("p.bin", bytes(range(50))).encode())
        rec[20] ^= 0x01  # inside the data span
        # the reference CRC of the tampered content really does mismatch the stored one
        stored = struct.unpack_from("<I", rec, len(rec) - 4)[0]
        assert crc32_bitwise(b"p.bin" + bytes(rec[15 : len(rec) - 4])) != stored
        with pytest.raises(CorruptPayloadError):
            PayloadRecord.decode(bytes(rec))

    def test_no_magic(self):
        with pytest.raises(NoPayloadError):
            PayloadRecord.decode(bytes(64))

    def test_length_exceeds_buffer(self):
        rec = bytearray(PayloadRecord("a", b"xy").encode())
        struct.pack_into("<I", rec, 7, 10_000)  # data_len field for a 1-byte name
        with pytest.raises(CorruptPayloadError):
            PayloadRecord.decode(bytes(rec))

    def test_name_too_long(self):
        with pytest.raises(NameTooLongError):
            PayloadRecord("x" * 300, b"").encode()
        with pytest.raises(NameTooLongError):
            PayloadRecord("", b"").encode()


class TestCapacity:
    def test_spec_numbers(self, spec_pe):
        image = parse_pe(spec_pe.data)
        report = capacity(image, "k.txt")
        assert report.region.length == 0x88
        assert report.overhead == 19
        assert report.usable == 0x88 - 19 == 117

    def test_zero_slack(self):
        image = parse_pe(build_pe(header_slack=0).data)
        assert capacity(image, "k.txt").usable == 0

    def test_name_too_long(self, spec_pe):
        with pytest.raises(NameTooLongError):
            capacity(parse_pe(spec_pe.data), "x" * 300)


class TestHideRetract:
    def test_roundtrip(self, spec_pe):
        image = parse_pe(spec_pe.data)
        data = bytes(range(50))
        stego = hide(image, "p.bin", data)
        assert retract(stego) == ("p.bin", data)

    def test_diff_confined_to_record_span(self, spec_pe):
        image = parse_pe(spec_pe.data)
        data = bytes(range(50))
        out = serialize(hide(image, "p.bin", data))
        record_len = 14 + 5 + 50
        lo = spec_pe.header_slack_offset
        offsets = byte_diff_offsets(spec_pe.data, out)
        assert offsets, "stego file must differ from cover"
        assert all(lo <= off < lo + record_len for off in offsets)
        assert len(out) == len(spec_pe.data)

    def test_input_image_unchanged(self, spec_pe):
        image = parse_pe(spec_pe.data)
        hide(image, "p.bin", b"data")
        assert serialize(image) == spec_pe.data

    @pytest.mark.parametrize("force", [False, True], ids=["plain", "force"])
    @pytest.mark.parametrize("edited", [False, True], ids=["fresh", "edited"])
    def test_input_serialization_unchanged(self, spec_pe, force, edited):
        data = bytearray(spec_pe.data)
        if edited:  # the last byte lies in section data, outside the slack
            data[-1] ^= 0x5A
        image = parse_pe(data)  # a bytearray input: the image holds its own copy
        before = serialize(image)
        stego = hide(image, "p.bin", b"data", force=force)
        assert serialize(image) == before
        assert serialize(stego) != before

    @given(name=names, data=payloads)
    def test_roundtrip_random(self, name, data):
        built = build_pe(header_slack=512, content_seed=3)
        image = parse_pe(built.data)
        if capacity(image, name).usable < len(data):
            return
        assert retract(hide(image, name, data)) == (name, data)

    @pytest.mark.parametrize("name", UNSAFE_NAMES)
    def test_unsafe_names_refused(self, spec_pe, name):
        image = parse_pe(spec_pe.data)
        error = NameTooLongError if name == "" else UnsafeNameError
        with pytest.raises(error):
            PayloadRecord(name, b"data").encode()
        with pytest.raises(error):
            capacity(image, name)
        with pytest.raises(error):
            hide(image, name, b"data")

    def test_capacity_boundary(self, spec_pe):
        image = parse_pe(spec_pe.data)
        usable = capacity(image, "p.bin").usable
        stego = hide(image, "p.bin", bytes(usable))
        assert retract(stego) == ("p.bin", bytes(usable))
        with pytest.raises(InsufficientSlackError):
            hide(image, "p.bin", bytes(usable + 1))

    def test_hide_twice_requires_force(self, spec_pe):
        image = parse_pe(spec_pe.data)
        stego = hide(image, "a.bin", b"first")
        with pytest.raises(SlackOccupiedError):
            hide(stego, "b.bin", b"second")
        again = hide(stego, "b.bin", b"second", force=True)
        assert retract(again) == ("b.bin", b"second")

    def test_force_clears_stale_record_bytes(self, spec_pe):
        image = parse_pe(spec_pe.data)
        long = hide(image, "long-name.bin", bytes(80))
        short = hide(long, "s", b"x", force=True)
        region = header_slack(short)
        record_len = 14 + 1 + 1
        tail = serialize(short)[region.offset + record_len : region.end]
        assert tail == bytes(len(tail))

    def test_junk_slack_blocked_without_force(self):
        built = build_pe(header_slack=0x88, slack_fill=b"\x07\x00\x13")
        image = parse_pe(built.data)
        with pytest.raises(SlackOccupiedError):
            hide(image, "p.bin", b"data")
        stego = hide(image, "p.bin", b"data", force=True)
        assert retract(stego) == ("p.bin", b"data")

    def test_retract_clean_cover(self, spec_pe):
        with pytest.raises(NoPayloadError):
            retract(parse_pe(spec_pe.data))

    def test_retract_tampered(self, spec_pe):
        image = parse_pe(spec_pe.data)
        stego = serialize(hide(image, "p.bin", bytes(range(50))))
        at = header_slack(image).offset + 20
        tampered = parse_pe(stego[:at] + bytes([stego[at] ^ 1]) + stego[at + 1 :])
        with pytest.raises(CorruptPayloadError):
            retract(tampered)

    def test_stego_built_in_one_copy(self):
        built = build_pe(header_slack=0x88, sections=[SectionPlan(raw_size=4 << 20)])
        image = parse_pe(built.data)
        tracemalloc.start()
        try:
            out = serialize(hide(image, "p.bin", bytes(range(50))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == len(built.data) >= 4 << 20
        assert peak <= 1.25 * len(built.data)

    def test_header_fields_unchanged(self, spec_pe):
        image = parse_pe(spec_pe.data)
        stego = hide(image, "p.bin", b"data")
        assert stego.nt_headers == image.nt_headers
        assert stego.sections == image.sections
        out = serialize(stego)
        assert out[: spec_pe.header_end_offset] == spec_pe.data[: spec_pe.header_end_offset]


class TestWriteExtractedFile:
    def test_writes_bytes(self, tmp_path):
        path = write_extracted_file("p.bin", bytes(50), str(tmp_path / "out"))
        assert path == str(tmp_path / "out" / "p.bin")
        with open(path, "rb") as fh:
            assert fh.read() == bytes(50)

    @pytest.mark.parametrize("name", UNSAFE_NAMES)
    def test_unsafe_names(self, name, tmp_path):
        with pytest.raises(UnsafeNameError):
            write_extracted_file(name, b"", str(tmp_path))

    def test_unwritable_target(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"")
        with pytest.raises(OSError):
            write_extracted_file("p.bin", b"", str(blocker))
