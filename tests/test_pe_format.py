from __future__ import annotations

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pe_builder import SectionPlan, build_pe

from pestego import (
    Not32BitError,
    NotMzError,
    NotPeError,
    Region,
    StrictParseError,
    TruncatedError,
    header_slack,
    parse_pe,
    rva_to_va,
    section_slack,
    serialize,
)


class TestParse:
    def test_minimal_fixture(self, spec_pe):
        image = parse_pe(spec_pe.data)
        assert image.nt_headers.number_of_sections == 1
        assert image.nt_offset == spec_pe.e_lfanew
        assert image.header_end_offset == spec_pe.header_end_offset
        assert image.nt_headers.file_alignment == spec_pe.file_alignment
        assert image.nt_headers.size_of_headers == spec_pe.size_of_headers
        assert image.nt_headers.image_base == spec_pe.image_base

    def test_sections_match_builder(self, corpus):
        for built in corpus:
            image = parse_pe(built.data)
            assert len(image.sections) == len(built.sections)
            for parsed, placed in zip(image.sections, built.sections):
                assert parsed.name == placed.name
                assert parsed.virtual_size == placed.virtual_size
                assert parsed.virtual_address == placed.virtual_address
                assert parsed.size_of_raw_data == placed.size_of_raw_data
                assert parsed.pointer_to_raw_data == placed.pointer_to_raw_data

    def test_header_end_arithmetic(self, corpus):
        for built in corpus:
            image = parse_pe(built.data)
            expected = (
                built.e_lfanew + 24 + image.nt_headers.size_of_optional_header
                + 40 * image.nt_headers.number_of_sections
            )
            assert image.header_end_offset == expected == built.header_end_offset

    def test_not_mz(self, spec_pe):
        bad = b"XX" + spec_pe.data[2:]
        with pytest.raises(NotMzError):
            parse_pe(bad)

    def test_empty_input(self):
        with pytest.raises(NotMzError):
            parse_pe(b"")

    def test_e_lfanew_beyond_eof(self, spec_pe):
        bad = bytearray(spec_pe.data)
        struct.pack_into("<I", bad, 0x3C, len(bad) + 100)
        with pytest.raises(TruncatedError):
            parse_pe(bytes(bad))

    def test_bad_pe_signature(self, spec_pe):
        bad = bytearray(spec_pe.data)
        bad[spec_pe.e_lfanew : spec_pe.e_lfanew + 4] = b"PF\x00\x00"
        with pytest.raises(NotPeError):
            parse_pe(bytes(bad))

    def test_pe32_plus_rejected(self, spec_pe):
        bad = bytearray(spec_pe.data)
        struct.pack_into("<H", bad, spec_pe.e_lfanew + 24, 0x20B)
        with pytest.raises(Not32BitError):
            parse_pe(bytes(bad))

    def test_truncated_section_table(self, spec_pe):
        with pytest.raises(TruncatedError):
            parse_pe(spec_pe.data[: spec_pe.header_end_offset - 10])

    def test_determinism(self, spec_pe):
        a = parse_pe(spec_pe.data)
        b = parse_pe(spec_pe.data)
        assert a == b
        assert a.nt_headers == b.nt_headers
        assert a.sections == b.sections


class TestRoundTrip:
    def test_corpus_lossless(self, corpus):
        for built in corpus:
            assert serialize(parse_pe(built.data)) == built.data

    @given(
        n=st.integers(1, 8),
        alignment=st.sampled_from([512, 1024, 4096]),
        slack=st.integers(0, 2048),
        seed=st.integers(0, 2**16),
    )
    def test_generated_lossless(self, n, alignment, slack, seed):
        built = build_pe(num_sections=n, file_alignment=alignment, header_slack=slack, content_seed=seed)
        assert serialize(parse_pe(built.data)) == built.data


class TestWarnings:
    def test_clean_fixture_has_none(self, spec_pe):
        assert parse_pe(spec_pe.data).warnings == ()

    def test_misaligned_section(self):
        built = build_pe(sections=[SectionPlan(raw_size=500)])
        image = parse_pe(built.data)
        assert any("SizeOfRawData" in w for w in image.warnings)

    def test_overlapping_sections(self):
        built = build_pe(num_sections=2, overlap_sections=True)
        image = parse_pe(built.data)
        assert any("overlap" in w for w in image.warnings)

    def test_strict_promotes_to_error(self):
        built = build_pe(sections=[SectionPlan(raw_size=500)])
        with pytest.raises(StrictParseError) as info:
            parse_pe(built.data, strict=True)
        assert info.value.warnings == parse_pe(built.data).warnings  # the same tuple of warnings

    def test_empty_section_table(self):
        built = build_pe(num_sections=0)
        image = parse_pe(built.data)
        assert any("empty" in w for w in image.warnings)

    def test_truncated_section_data(self, spec_pe):
        image = parse_pe(spec_pe.data[:-16])
        assert any("past end of file" in w for w in image.warnings)


class TestAddresses:
    def test_rva_to_va_example(self):
        assert rva_to_va(0x00400000, 0x1000) == 0x00401000

    def test_rva_to_va_zero(self):
        assert rva_to_va(0x00400000, 0x0) == 0x00400000

    def test_rva_to_va_overflow(self):
        with pytest.raises(OverflowError):
            rva_to_va(0xFFFFFFFF, 0x2)


class TestSlack:
    def test_spec_fixture_slack(self, spec_pe):
        image = parse_pe(spec_pe.data)
        region = header_slack(image)
        assert region == Region(0x178, 0x88)
        assert region == Region(spec_pe.header_slack_offset, spec_pe.header_slack_length)

    def test_zero_slack(self):
        built = build_pe(header_slack=0)
        region = header_slack(parse_pe(built.data))
        assert region.length == 0
        assert region.offset == built.header_end_offset

    def test_large_size_of_headers(self):
        # SizeOfHeaders well past the table end: the whole gap is slack
        built = build_pe(header_slack=0x400 - 0x178 + 0x88)  # arbitrary larger-than-natural gap
        image = parse_pe(built.data)
        region = header_slack(image)
        assert region.offset == built.header_end_offset
        assert region.length == built.size_of_headers - built.header_end_offset

    def test_section_slack(self):
        built = build_pe(header_slack=0x88, sections=[SectionPlan(raw_size=0x200, virtual_size=0x123)])
        image = parse_pe(built.data)
        ptr = built.sections[0].pointer_to_raw_data
        assert section_slack(image, 0) == Region(ptr + 0x123, 0xDD)

    def test_section_slack_zero(self, spec_pe):
        image = parse_pe(spec_pe.data)
        assert section_slack(image, 0).length == 0

    def test_section_index_out_of_range(self, spec_pe):
        image = parse_pe(spec_pe.data)
        with pytest.raises(IndexError):
            section_slack(image, 1)

    def test_slack_regions_disjoint(self, corpus):
        for built in corpus:
            image = parse_pe(built.data)
            regions = [header_slack(image)]
            regions += [section_slack(image, i) for i in range(len(image.sections))]
            used = [Region(0, image.header_end_offset)]
            used += [
                Region(s.pointer_to_raw_data, min(s.virtual_size, s.size_of_raw_data))
                for s in image.sections
            ]
            occupied = [r for r in regions + used if r.length > 0]
            for i, a in enumerate(occupied):
                for b in occupied[i + 1 :]:
                    assert not a.overlaps(b), (a, b)


class TestEdits:
    def test_no_edits_identity(self, spec_pe):
        image = parse_pe(spec_pe.data)
        assert serialize(image) == spec_pe.data

    def test_read_bounds_checked(self, spec_pe):
        image = parse_pe(spec_pe.data)
        size = len(spec_pe.data)
        assert image.read(size - 2, 2) == spec_pe.data[-2:]
        assert image.read(size, 0) == b""
        for offset, length in ((size - 2, 3), (-1, 1), (0, -1)):
            with pytest.raises(ValueError):
                image.read(offset, length)


class TestBufferOwnership:
    def test_bytes_input_is_not_copied(self, spec_pe):
        data = spec_pe.data
        assert serialize(parse_pe(data)) is data

    def test_image_is_immutable(self, spec_pe):
        data = spec_pe.data
        image = parse_pe(data)
        for field in ("data", "nt_headers", "sections", "nt_offset", "warnings"):
            with pytest.raises(AttributeError):
                setattr(image, field, None)
        assert serialize(image) is data
        assert repr(image) == "PeImage(1024 bytes, 1 sections, image_base=0x00400000)"

    def test_fields_are_tuples(self, spec_pe):
        """No field can be edited in place, so an image is hashable and equal images hash alike."""
        image = parse_pe(spec_pe.data)
        assert hash(image) == hash(parse_pe(bytes(spec_pe.data)))
        for field in (image.sections, image.warnings):
            with pytest.raises(AttributeError):
                field.append(None)

    @pytest.mark.parametrize("wrap", [bytearray, lambda b: memoryview(bytearray(b))], ids=["bytearray", "memoryview"])
    def test_mutable_input_is_copied(self, spec_pe, wrap):
        buf = wrap(spec_pe.data)
        image = parse_pe(buf)
        buf[: len(buf)] = bytes(len(buf))
        assert serialize(image) == spec_pe.data
        assert type(serialize(image)) is bytes
