"""32-bit PE parsing with lossless re-serialization and slack arithmetic.

The parser keeps the complete original byte sequence alongside the decoded
headers, so ``serialize(parse_pe(b)) == b`` for every accepted input.  A
``bytes`` input is kept as it is, without a copy, and images are immutable.
Only PE32 (optional-header magic 0x10B) is accepted; PE32+ is rejected.
All multi-byte integers are little-endian per the on-disk format.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from .errors import (
    Not32BitError,
    NotMzError,
    NotPeError,
    StrictParseError,
    TruncatedError,
)

DOS_MAGIC = b"MZ"
PE_SIGNATURE = b"PE\x00\x00"
PE32_MAGIC = 0x10B

DOS_HEADER_SIZE = 0x40
E_LFANEW_OFFSET = 0x3C
COFF_HEADER_SIZE = 20
SECTION_HEADER_SIZE = 40
ADDRESS_LIMIT_32 = 0x1_0000_0000

# Offsets of decoded fields relative to the optional-header start.
_OPT_ENTRY_POINT = 16
_OPT_IMAGE_BASE = 28
_OPT_FILE_ALIGNMENT = 36
_OPT_SIZE_OF_HEADERS = 60
_OPT_CHECKSUM = 64
# Fields past CheckSum are carried as opaque bytes; decoding stops here.
_MIN_OPTIONAL_SIZE = 68


class Region(NamedTuple):
    """Half-open byte span [offset, offset + length) within a file."""

    offset: int
    length: int

    @property
    def end(self) -> int:
        return self.offset + self.length

    def contains(self, other: "Region") -> bool:
        return self.offset <= other.offset and other.end <= self.end

    def overlaps(self, other: "Region") -> bool:
        return self.offset < other.end and other.offset < self.end


class NtHeaders(NamedTuple):
    machine: int
    number_of_sections: int
    size_of_optional_header: int
    address_of_entry_point: int
    image_base: int
    file_alignment: int
    size_of_headers: int
    checksum: int


class SectionHeader(NamedTuple):
    name: bytes  # 8 raw bytes, kept verbatim
    virtual_size: int
    virtual_address: int
    size_of_raw_data: int
    pointer_to_raw_data: int

    def display_name(self) -> str:
        return self.name.rstrip(b"\x00").decode("ascii", errors="replace")

    def raw_region(self) -> Region:
        return Region(self.pointer_to_raw_data, self.size_of_raw_data)


class PeImage(NamedTuple):
    """Parsed model of a 32-bit PE file plus its full raw bytes.

    Instances come from :func:`parse_pe` and are immutable, so the decoded
    headers always describe ``data``.  An edited file is new bytes, parsed
    again, as :func:`pestego.payload.hide` does.
    """

    data: bytes
    nt_headers: NtHeaders
    sections: tuple[SectionHeader, ...]
    nt_offset: int
    warnings: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.data)

    @property
    def header_end_offset(self) -> int:
        """File offset of the first byte after the section header table."""
        return (
            self.nt_offset
            + len(PE_SIGNATURE)
            + COFF_HEADER_SIZE
            + self.nt_headers.size_of_optional_header
            + SECTION_HEADER_SIZE * self.nt_headers.number_of_sections
        )

    def read(self, offset: int, length: int) -> bytes:
        if offset < 0 or length < 0 or offset + length > len(self.data):
            raise ValueError(f"read [{offset}, {offset + length}) outside file of {len(self.data)} bytes")
        return self.data[offset : offset + length]

    def __repr__(self) -> str:
        return (
            f"PeImage({len(self.data)} bytes, {self.nt_headers.number_of_sections} sections, "
            f"image_base=0x{self.nt_headers.image_base:08X})"
        )


def _u16(data, offset: int) -> int:
    return struct.unpack_from("<H", data, offset)[0]


def _u32(data, offset: int) -> int:
    return struct.unpack_from("<I", data, offset)[0]


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _layout_warnings(nt: NtHeaders, sections: tuple[SectionHeader, ...], file_size: int) -> tuple[str, ...]:
    warnings: list[str] = []
    if not _is_power_of_two(nt.file_alignment) or nt.file_alignment < 512:
        warnings.append(f"FileAlignment 0x{nt.file_alignment:X} is not a power of two >= 512")
    if nt.number_of_sections < 1:
        warnings.append("section table is empty")
    for i, sec in enumerate(sections):
        label = sec.display_name() or f"#{i}"
        if nt.file_alignment > 0:
            if sec.pointer_to_raw_data % nt.file_alignment:
                warnings.append(f"section {label}: PointerToRawData 0x{sec.pointer_to_raw_data:X} not aligned to FileAlignment")
            if sec.size_of_raw_data % nt.file_alignment:
                warnings.append(f"section {label}: SizeOfRawData 0x{sec.size_of_raw_data:X} not aligned to FileAlignment")
        if sec.size_of_raw_data and sec.pointer_to_raw_data + sec.size_of_raw_data > file_size:
            warnings.append(f"section {label}: raw data extends past end of file")
    occupied = [(s.raw_region(), i) for i, s in enumerate(sections) if s.size_of_raw_data]
    occupied.sort(key=lambda item: item[0].offset)
    for (a, ia), (b, ib) in zip(occupied, occupied[1:]):
        if a.overlaps(b):
            na = sections[ia].display_name() or f"#{ia}"
            nb = sections[ib].display_name() or f"#{ib}"
            warnings.append(f"sections {na} and {nb} overlap in file space")
    return tuple(warnings)


def parse_pe(data: bytes, *, strict: bool = False) -> PeImage:
    """Parse ``data`` as a 32-bit PE file.

    Raises NotMzError / NotPeError / TruncatedError / Not32BitError on
    malformed input.  Layout oddities (alignment, overlap, truncated section
    data) are collected as warnings on the returned image; ``strict=True``
    promotes them to StrictParseError.  A ``bytes`` input is kept without a
    copy; any other buffer is copied once, so the image never aliases it.
    """
    if type(data) is not bytes:
        data = memoryview(data).tobytes()
    if len(data) < 2 or data[:2] != DOS_MAGIC:
        raise NotMzError("missing 'MZ' magic at offset 0")
    if len(data) < DOS_HEADER_SIZE:
        raise TruncatedError(f"file of {len(data)} bytes is smaller than the {DOS_HEADER_SIZE}-byte DOS header")

    e_lfanew = _u32(data, E_LFANEW_OFFSET)
    if e_lfanew + 4 > len(data):
        raise TruncatedError(f"e_lfanew 0x{e_lfanew:X} points past end of file")
    if data[e_lfanew : e_lfanew + 4] != PE_SIGNATURE:
        raise NotPeError(f"no 'PE\\0\\0' signature at e_lfanew 0x{e_lfanew:X}")

    coff_offset = e_lfanew + len(PE_SIGNATURE)
    if coff_offset + COFF_HEADER_SIZE > len(data):
        raise TruncatedError("COFF file header extends past end of file")
    machine = _u16(data, coff_offset)
    number_of_sections = _u16(data, coff_offset + 2)
    size_of_optional_header = _u16(data, coff_offset + 16)

    opt_offset = coff_offset + COFF_HEADER_SIZE
    if size_of_optional_header < _MIN_OPTIONAL_SIZE:
        raise TruncatedError(f"optional header of {size_of_optional_header} bytes is too small to decode")
    if opt_offset + size_of_optional_header > len(data):
        raise TruncatedError("optional header extends past end of file")
    opt_magic = _u16(data, opt_offset)
    if opt_magic != PE32_MAGIC:
        raise Not32BitError(f"optional-header magic 0x{opt_magic:X} is not PE32 (0x10B)")

    nt = NtHeaders(
        machine=machine,
        number_of_sections=number_of_sections,
        size_of_optional_header=size_of_optional_header,
        address_of_entry_point=_u32(data, opt_offset + _OPT_ENTRY_POINT),
        image_base=_u32(data, opt_offset + _OPT_IMAGE_BASE),
        file_alignment=_u32(data, opt_offset + _OPT_FILE_ALIGNMENT),
        size_of_headers=_u32(data, opt_offset + _OPT_SIZE_OF_HEADERS),
        checksum=_u32(data, opt_offset + _OPT_CHECKSUM),
    )

    table_offset = opt_offset + size_of_optional_header
    table_end = table_offset + SECTION_HEADER_SIZE * number_of_sections
    if table_end > len(data):
        raise TruncatedError("section table extends past end of file")

    sections = tuple(
        SectionHeader(
            name=data[off : off + 8],
            virtual_size=_u32(data, off + 8),
            virtual_address=_u32(data, off + 12),
            size_of_raw_data=_u32(data, off + 16),
            pointer_to_raw_data=_u32(data, off + 20),
        )
        for off in range(table_offset, table_end, SECTION_HEADER_SIZE)
    )

    warnings = _layout_warnings(nt, sections, len(data))
    if strict and warnings:
        raise StrictParseError(warnings)

    return PeImage(
        data=data,
        nt_headers=nt,
        sections=sections,
        nt_offset=e_lfanew,
        warnings=warnings,
    )


def serialize(image: PeImage) -> bytes:
    """The file's bytes: the very ``bytes`` object the image was parsed from, or its one copy."""
    return image.data


def rva_to_va(image_base: int, rva: int) -> int:
    """Absolute virtual address of an RVA under the given load base."""
    va = image_base + rva
    if va >= ADDRESS_LIMIT_32:
        raise OverflowError(f"0x{image_base:X} + 0x{rva:X} exceeds the 32-bit address space")
    return va


def header_slack(image: PeImage) -> Region:
    """Unused span between the section header table and the first raw data.

    The region ends at min(SizeOfHeaders, lowest PointerToRawData over
    sections with raw data), clamped to the file; its length may be zero.
    The loader never reads these bytes, which is what makes them a carrier.
    """
    end = image.nt_headers.size_of_headers
    for sec in image.sections:
        if sec.size_of_raw_data:
            end = min(end, sec.pointer_to_raw_data)
    end = min(end, image.size)
    start = image.header_end_offset
    return Region(start, max(0, end - start))


def section_slack(image: PeImage, index: int) -> Region:
    """Unused tail of a section's raw data (SizeOfRawData past VirtualSize)."""
    if not 0 <= index < len(image.sections):
        raise IndexError(f"section index {index} out of range (have {len(image.sections)})")
    sec = image.sections[index]
    if sec.size_of_raw_data > sec.virtual_size:
        return Region(sec.pointer_to_raw_data + sec.virtual_size, sec.size_of_raw_data - sec.virtual_size)
    return Region(sec.pointer_to_raw_data + sec.size_of_raw_data, 0)
