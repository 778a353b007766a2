from __future__ import annotations

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import diff_runs
from pe_builder import build_pe

from pestego import (
    PeFormatError,
    Region,
    capacity,
    compare,
    hide,
    parse_pe,
    serialize,
)
from pestego.integrity import _diff_regions


def stego_bytes(built, name="p.bin", data=bytes(range(40))):
    return serialize(hide(parse_pe(built.data), name, data))


class TestCompare:
    def test_identity(self, spec_pe):
        report = compare(spec_pe.data, spec_pe.data)
        assert report.diff_regions == ()
        assert report.diff_confined_to_slack
        assert report.identical_headers and report.identical_section_table

    def test_hidden_payload_is_confined(self, spec_pe):
        report = compare(spec_pe.data, stego_bytes(spec_pe))
        assert report.diff_confined_to_slack
        assert report.identical_headers and report.identical_section_table
        slack = Region(spec_pe.header_slack_offset, spec_pe.header_slack_length)
        assert report.diff_regions
        for region in report.diff_regions:
            assert slack.contains(region)

    def test_entry_point_flip_not_confined(self, spec_pe):
        image = parse_pe(spec_pe.data)
        entry_field = spec_pe.e_lfanew + 24 + 16
        tampered = bytearray(spec_pe.data)
        tampered[entry_field] ^= 0xFF
        report = compare(spec_pe.data, bytes(tampered))
        assert not report.diff_confined_to_slack
        assert not report.identical_headers
        assert report.identical_section_table  # only the optional header changed

    def test_section_byte_flip_not_confined(self, spec_pe):
        sec = spec_pe.sections[0]
        tampered = bytearray(spec_pe.data)
        tampered[sec.pointer_to_raw_data + 5] ^= 0x01
        report = compare(spec_pe.data, bytes(tampered))
        assert not report.diff_confined_to_slack
        assert report.identical_headers

    def test_length_mismatch_not_confined(self, spec_pe):
        grown = spec_pe.data + b"overlay"
        report = compare(spec_pe.data, grown)
        assert not report.diff_confined_to_slack
        assert any("length changed" in n for n in report.notes)
        assert report.diff_regions[-1] == Region(len(spec_pe.data), 7)

    def test_diff_regions_symmetric(self, spec_pe):
        after = stego_bytes(spec_pe)
        assert compare(spec_pe.data, after).diff_regions == compare(after, spec_pe.data).diff_regions
        grown = spec_pe.data + b"xx"
        assert compare(spec_pe.data, grown).diff_regions == compare(grown, spec_pe.data).diff_regions

    def test_diff_regions_are_maximal_runs(self, spec_pe):
        tampered = bytearray(stego_bytes(spec_pe))
        report = compare(spec_pe.data, bytes(tampered))
        for a, b in zip(report.diff_regions, report.diff_regions[1:]):
            assert b.offset > a.end  # separated by at least one equal byte

    def test_report_is_hashable_and_immutable(self, spec_pe):
        """No field can be edited in place, so a report is hashable and equal reports hash alike."""
        after = stego_bytes(spec_pe)
        report = compare(spec_pe.data, after)
        assert hash(report) == hash(compare(spec_pe.data, bytes(after)))
        for field in (report.diff_regions, report.notes):
            with pytest.raises(AttributeError):
                field.append(None)

    def test_checksum_note(self):
        built = build_pe(header_slack=0x88, checksum=0xDEAD)
        report = compare(built.data, stego_bytes(built))
        assert any("CheckSum" in n for n in report.notes)
        assert report.diff_confined_to_slack

    def test_parse_failure(self, spec_pe):
        with pytest.raises(PeFormatError):
            compare(b"XX" + spec_pe.data[2:], spec_pe.data)
        with pytest.raises(PeFormatError):
            compare(spec_pe.data, b"not a pe")

    def test_confined_across_corpus(self, corpus):
        for built in corpus:
            image = parse_pe(built.data)
            usable = capacity(image, "f").usable
            if usable == 0:
                continue
            report = compare(built.data, serialize(hide(image, "f", bytes(min(usable, 32)))))
            assert report.diff_confined_to_slack, built.header_slack_length


CHUNK = 1 << 16
EDGES = (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1)


@st.composite
def byte_pairs(draw):
    """Random bytes and a copy with XOR edits, often at 64 KiB chunk edges, and maybe resized."""
    size = draw(st.one_of(st.sampled_from(EDGES), st.integers(0, 64), st.integers(0, 2 * CHUNK + 64)))
    before = random.Random(draw(st.integers(0, 2**32))).randbytes(size)
    after = bytearray(before)
    near_edge = st.tuples(st.sampled_from(EDGES), st.integers(-3, 3)).map(sum)
    for _ in range(draw(st.integers(0, 6))):
        start = draw(st.one_of(near_edge, st.integers(0, max(size - 1, 0))))
        length = draw(st.one_of(st.integers(1, 4), st.integers(1, 300)))
        flip = draw(st.integers(1, 255))
        for i in range(max(start, 0), min(start + length, size)):
            after[i] ^= flip
    resize = draw(st.integers(-70, 70))
    after = bytes(after[: size + resize]) if resize < 0 else bytes(after) + bytes(range(resize))
    return (after, before) if draw(st.booleans()) else (before, after)


class TestDiffRegions:
    @given(byte_pairs())
    @example((b"", b""))
    @example((b"", b"xyz"))
    @example((b"abc", b""))
    @example((bytes(2 * CHUNK + 5), bytes(2 * CHUNK + 5)))
    @example((bytes(2 * CHUNK + 5), b"\xff" * (2 * CHUNK + 5)))
    @example((bytes(2 * CHUNK), bytes(CHUNK - 2) + b"\x01\x01" + bytes(CHUNK)))
    @example((bytes(2 * CHUNK), bytes(CHUNK) + b"\x01\x01" + bytes(CHUNK - 2)))
    @example((bytes(2 * CHUNK), bytes(CHUNK - 1) + b"\x01" * (CHUNK + 2) + bytes(CHUNK - 1)))
    @example((bytes(CHUNK + 1), bytes(CHUNK - 1) + b"\x01"))
    @example((bytes(CHUNK + 1), bytes(CHUNK) + b"\x01"))
    def test_matches_byte_loop(self, pair):
        before, after = pair
        assert [(r.offset, r.length) for r in _diff_regions(before, after)] == diff_runs(before, after)


class TestReportFormats:
    def test_kv_stable(self, spec_pe):
        report = compare(spec_pe.data, stego_bytes(spec_pe))
        kv = report.to_kv()
        assert kv == report.to_kv()
        lines = kv.strip().splitlines()
        assert lines[0] == "identical_headers=true"
        assert lines[1] == "identical_section_table=true"
        assert lines[2] == "diff_confined_to_slack=true"
        assert lines[3] == f"diff_region_count={len(report.diff_regions)}"
        assert lines[4].startswith("diff_region_0=0x")

    def test_summary_lines(self, spec_pe):
        report = compare(spec_pe.data, stego_bytes(spec_pe))
        text = "\n".join(report.summary_lines())
        assert "diff confined to slack:   yes" in text
