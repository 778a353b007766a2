from __future__ import annotations

import pickle
import re
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import pe_headers_by_offsets
from pe_builder import SectionPlan, build_pe
from test_fuzz import COVER, STEGO, pe_files

from pestego import (
    CapacityReport,
    EquivalenceReport,
    Not32BitError,
    NotMzError,
    NotPeError,
    NtHeaders,
    PayloadRecord,
    PeImage,
    PeStegoError,
    Region,
    SectionHeader,
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


SECTION_NAMES = [".text", ".data", ".rdata", ".rsrc", ".reloc", ".idata", ".edata", ".bss"]  # build_pe's, in order


def overlap_pairs(spans: list[tuple[int, int]]) -> list[tuple[str, str]]:
    """The section pairs that parse_pe warns overlap, for sections whose raw data sits at (offset, length) spans."""
    built = build_pe(num_sections=len(spans))
    data = bytearray(built.data)
    table = built.header_end_offset - 40 * len(spans)
    for i, (offset, length) in enumerate(spans):
        struct.pack_into("<II", data, table + 40 * i + 16, length, offset)  # SizeOfRawData, PointerToRawData
    found = [re.fullmatch(r"sections (\S+) and (\S+) overlap in file space", w) for w in parse_pe(bytes(data)).warnings]
    return [match.groups() for match in found if match]


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

    def test_overlap_with_a_non_adjacent_section_is_named(self):
        spans = [(0x200, 0x600), (0x400, 0x200), (0x600, 0x200)]
        assert overlap_pairs(spans) == [(".text", ".data"), (".text", ".rdata")]

    def test_neighbour_overlaps_stay_named(self):
        spans = [(0x200, 0x600), (0x400, 0x200), (0x500, 0x200)]
        assert overlap_pairs(spans) == [(".text", ".data"), (".data", ".rdata"), (".text", ".rdata")]

    def test_sections_at_one_offset_name_each_neighbour(self):
        image = parse_pe(build_pe(num_sections=3, overlap_sections=True).data)
        assert [w for w in image.warnings if "overlap" in w] == [
            "sections .text and .data overlap in file space",
            "sections .data and .rdata overlap in file space",
        ]

    @given(st.lists(st.tuples(st.integers(0, 16), st.integers(0, 8)), min_size=1, max_size=8))
    def test_overlap_warnings_against_every_pair(self, units):
        spans = [(0x100 * offset, 0x100 * length) for offset, length in units]
        got = overlap_pairs(spans)
        order = sorted((i for i, (_, length) in enumerate(spans) if length), key=lambda i: spans[i][0])

        def named(pairs):
            return {(SECTION_NAMES[i], SECTION_NAMES[j]) for i, j in pairs if Region(*spans[i]).overlaps(Region(*spans[j]))}

        every_pair = named((i, j) for k, j in enumerate(order) for i in order[:k])
        assert set(got) <= every_pair
        assert named(zip(order, order[1:])) <= set(got)  # each overlapping neighbour pair, as before
        assert {later for _, later in got} == {later for _, later in every_pair}  # each section that overlaps an earlier one
        assert {name for pair in got for name in pair} == {name for pair in every_pair for name in pair}
        assert len(got) == len(set(got)) <= 2 * len(order)

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


OPTIONAL_MAGIC = COVER.e_lfanew + 24
PE32_PLUS = COVER.data[:OPTIONAL_MAGIC] + b"\x0b\x02" + COVER.data[OPTIONAL_MAGIC + 2 :]


def decoded(data: bytes):
    """parse_pe's headers as the oracle returns them, or its refusal as 'ErrorClassName: message'."""
    try:
        image = parse_pe(data)
    except PeStegoError as exc:
        return f"{type(exc).__name__}: {exc}"
    return image.nt_headers, image.sections, image.nt_offset, image.warnings


@settings(max_examples=300)
@given(data=pe_files)
@example(data=COVER.data)
@example(data=STEGO)
@example(data=PE32_PLUS)
def test_headers_match_the_offset_reader(data):
    """Every decoded field, warning and refusal text of a mutated file, against a field-at-a-time reader."""
    assert decoded(data) == pe_headers_by_offsets(data)


def test_each_header_cut_and_flip_matches_the_offset_reader():
    """The cover cut at each length up to SizeOfHeaders, with each header byte inverted, and with SizeOfOptionalHeader
    either side of the decoded prefix, against that reader."""
    data, end, size_field = COVER.data, COVER.size_of_headers, COVER.e_lfanew + 20
    variants = [data[:cut] for cut in range(end + 1)]
    variants += [data[:at] + bytes([~data[at] & 0xFF]) + data[at + 1 :] for at in range(end)]
    variants += [data[:size_field] + struct.pack("<H", n) + data[size_field + 2 :] for n in (67, 68)]
    assert [decoded(v) for v in variants] == [pe_headers_by_offsets(v) for v in variants]


NT = NtHeaders(0x14C, 1, 0xE0, 0x1000, 0x400000, 0x200, 0x400, 0)
TEXT = SectionHeader(b".text\x00\x00\x00", 0x10, 0x1000, 0x200, 0x400)
# (value, its fields in order, its exact repr)
VALUE_TYPES = [
    (Region(0x178, 0x88), "offset length", "Region(offset=376, length=136)"),
    (
        NT,
        "machine number_of_sections size_of_optional_header address_of_entry_point image_base file_alignment"
        " size_of_headers checksum",
        "NtHeaders(machine=332, number_of_sections=1, size_of_optional_header=224, address_of_entry_point=4096,"
        " image_base=4194304, file_alignment=512, size_of_headers=1024, checksum=0)",
    ),
    (
        TEXT,
        "name virtual_size virtual_address size_of_raw_data pointer_to_raw_data",
        "SectionHeader(name=b'.text\\x00\\x00\\x00', virtual_size=16, virtual_address=4096, size_of_raw_data=512,"
        " pointer_to_raw_data=1024)",
    ),
    (
        PeImage(b"MZ", NT, (TEXT,), 0x80, ("a warning",)),
        "data nt_headers sections nt_offset warnings",
        "PeImage(2 bytes, 1 sections, image_base=0x00400000)",
    ),
    (PayloadRecord("a.txt", b"hi"), "name data", "PayloadRecord(name='a.txt', data=b'hi')"),
    (
        CapacityReport(Region(0x178, 0x88), 16, 120),
        "region overhead usable",
        "CapacityReport(region=Region(offset=376, length=136), overhead=16, usable=120)",
    ),
    (  # notes left out, so the repr shows its default, ()
        EquivalenceReport(True, False, (Region(0x178, 2),), True),
        "identical_headers identical_section_table diff_regions diff_confined_to_slack notes",
        "EquivalenceReport(identical_headers=True, identical_section_table=False,"
        " diff_regions=(Region(offset=376, length=2),), diff_confined_to_slack=True, notes=())",
    ),
]


@pytest.mark.parametrize(("value", "fields", "text"), VALUE_TYPES, ids=[type(v).__name__ for v, _, _ in VALUE_TYPES])
def test_value_type_contract(value, fields, text):
    """Each PE value type is a tuple of its fields: equal to the plain tuple, rebuilt as its own class, pickled whole."""
    cls, plain = type(value), tuple(value)
    assert value == plain and hash(value) == hash(plain)
    assert cls._fields == tuple(fields.split())
    for rebuilt in (cls._make(plain), value._replace(**{cls._fields[0]: value[0]})):
        assert type(rebuilt) is cls and rebuilt == value
    assert repr(value) == text
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(value, protocol))
        assert type(copy) is cls and copy == value
