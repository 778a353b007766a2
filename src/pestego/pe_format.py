"""32-bit PE parsing with lossless re-serialization and slack arithmetic.

The parser keeps the complete original byte sequence alongside the decoded
headers, so ``serialize(parse_pe(b)) == b`` for every accepted input.  A
``bytes`` input is kept as it is, without a copy, and images are immutable.
Only PE32 (optional-header magic 0x10B) is accepted; PE32+ is rejected.
All multi-byte integers are little-endian per the on-disk format.
"""

from __future__ import annotations

import struct
from collections import namedtuple

from .errors import (
    Not32BitError,
    NotMzError,
    NotPeError,
    StrictParseError,
    TruncatedError,
    _integer,
    _shown,
)

DOS_MAGIC = b"MZ"
PE_SIGNATURE = b"PE\x00\x00"
PE32_MAGIC = 0x10B

ADDRESS_LIMIT_32 = 0x1_0000_0000

# Each header as it lies on disk: its fields in NtHeaders / SectionHeader order, pad bytes skipped, and
# .size the header's size.
_DOS = struct.Struct("<2s58xI")  # e_magic, e_lfanew
_COFF = struct.Struct("<HH12xH2x")  # Machine, NumberOfSections, SizeOfOptionalHeader
# Magic, AddressOfEntryPoint, ImageBase, FileAlignment, SizeOfHeaders, CheckSum.  Decoding stops there; the
# fields past CheckSum are carried as opaque bytes, and a shorter optional header is refused.
_OPTIONAL = struct.Struct("<H14xI8xI4xI20xII")
_SECTION = struct.Struct("<8s4I16x")  # Name, VirtualSize, VirtualAddress, SizeOfRawData, PointerToRawData


class Region(namedtuple("Region", "offset length")):
    """Half-open byte span [offset, offset + length) within a file."""

    __slots__ = ()

    @property
    def end(self) -> int:
        return self.offset + self.length

    def contains(self, other: "Region") -> bool:
        return self.offset <= other.offset and other.end <= self.end

    def overlaps(self, other: "Region") -> bool:
        return self.offset < other.end and other.offset < self.end


class NtHeaders(namedtuple("NtHeaders", "machine number_of_sections size_of_optional_header address_of_entry_point"
                           " image_base file_alignment size_of_headers checksum")):
    """The COFF and optional-header fields that parse_pe decodes, as integers."""

    __slots__ = ()


class SectionHeader(namedtuple("SectionHeader", "name virtual_size virtual_address size_of_raw_data pointer_to_raw_data")):
    """One section table entry; name is its 8 raw bytes, kept verbatim."""

    __slots__ = ()

    def display_name(self) -> str:
        return self.name.rstrip(b"\x00").decode("ascii", errors="replace")

    def slack(self) -> Region:
        """Unused tail of the raw data (SizeOfRawData past VirtualSize); empty, at the raw data's end, if none."""
        used = min(self.virtual_size, self.size_of_raw_data)
        return Region(self.pointer_to_raw_data + used, self.size_of_raw_data - used)


class PeImage(namedtuple("PeImage", "data nt_headers sections section_table warnings")):
    """Parsed model of a 32-bit PE file plus its full raw bytes.

    Instances come from :func:`parse_pe` and are immutable, so the decoded
    headers always describe ``data``.  An edited file is new bytes, parsed
    again, as :func:`pestego.payload.hide` does.  ``sections`` is a tuple of
    SectionHeader, ``section_table`` the Region of the section header table
    (its ``end`` is where the header slack starts) and ``warnings`` a tuple of str.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return (
            f"PeImage({len(self.data)} bytes, {self.nt_headers.number_of_sections} sections, "
            f"image_base=0x{self.nt_headers.image_base:08X})"
        )


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _layout_warnings(nt: NtHeaders, sections: tuple[SectionHeader, ...], file_size: int) -> tuple[str, ...]:
    warnings: list[str] = []
    if not _is_power_of_two(nt.file_alignment) or nt.file_alignment < 512:
        warnings.append(f"FileAlignment 0x{nt.file_alignment:X} is not a power of two >= 512")
    if nt.number_of_sections < 1:
        warnings.append("section table is empty")
    labels = [sec.display_name() or f"#{i}" for i, sec in enumerate(sections)]
    for sec, label in zip(sections, labels):
        if nt.file_alignment > 0:
            if sec.pointer_to_raw_data % nt.file_alignment:
                warnings.append(f"section {label}: PointerToRawData 0x{sec.pointer_to_raw_data:X} not aligned to FileAlignment")
            if sec.size_of_raw_data % nt.file_alignment:
                warnings.append(f"section {label}: SizeOfRawData 0x{sec.size_of_raw_data:X} not aligned to FileAlignment")
        if sec.size_of_raw_data and sec.pointer_to_raw_data + sec.size_of_raw_data > file_size:
            warnings.append(f"section {label}: raw data extends past end of file")
    occupied = [(Region(s.pointer_to_raw_data, s.size_of_raw_data), label)
                for s, label in zip(sections, labels) if s.size_of_raw_data]
    occupied.sort(key=lambda item: item[0].offset)
    # Each section meets its neighbour in file order and the earlier section that reaches furthest (the
    # later one on a tie), which every section that overlaps some earlier one also overlaps.
    furthest = None
    for before, (region, label) in zip([None, *occupied], occupied):
        for other in dict.fromkeys((before, furthest)):
            if other is not None and other[0].overlaps(region):
                warnings.append(f"sections {other[1]} and {label} overlap in file space")
        if furthest is None or region.end >= furthest[0].end:
            furthest = (region, label)
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
    if data[:2] != DOS_MAGIC:
        raise NotMzError("missing 'MZ' magic at offset 0")
    if len(data) < _DOS.size:
        raise TruncatedError(f"file of {len(data)} bytes is smaller than the {_DOS.size}-byte DOS header")

    _, e_lfanew = _DOS.unpack_from(data)
    if e_lfanew + len(PE_SIGNATURE) > len(data):
        raise TruncatedError(f"e_lfanew 0x{e_lfanew:X} points past end of file")
    if data[e_lfanew : e_lfanew + len(PE_SIGNATURE)] != PE_SIGNATURE:
        raise NotPeError(f"no 'PE\\0\\0' signature at e_lfanew 0x{e_lfanew:X}")

    coff_offset = e_lfanew + len(PE_SIGNATURE)
    if coff_offset + _COFF.size > len(data):
        raise TruncatedError("COFF file header extends past end of file")
    coff = _COFF.unpack_from(data, coff_offset)
    size_of_optional_header = coff[-1]

    opt_offset = coff_offset + _COFF.size
    if size_of_optional_header < _OPTIONAL.size:
        raise TruncatedError(f"optional header of {size_of_optional_header} bytes is too small to decode")
    if opt_offset + size_of_optional_header > len(data):
        raise TruncatedError("optional header extends past end of file")
    opt_magic, *optional = _OPTIONAL.unpack_from(data, opt_offset)
    if opt_magic != PE32_MAGIC:
        raise Not32BitError(f"optional-header magic 0x{opt_magic:X} is not PE32 (0x10B)")
    nt = NtHeaders(*coff, *optional)

    table = Region(opt_offset + size_of_optional_header, _SECTION.size * nt.number_of_sections)
    if table.end > len(data):
        raise TruncatedError("section table extends past end of file")
    sections = tuple(map(SectionHeader._make, _SECTION.iter_unpack(data[table.offset : table.end])))

    warnings = _layout_warnings(nt, sections, len(data))
    if strict and warnings:
        raise StrictParseError(warnings)

    return PeImage(data=data, nt_headers=nt, sections=sections, section_table=table, warnings=warnings)


def serialize(image: PeImage) -> bytes:
    """The file's bytes: the very ``bytes`` object the image was parsed from, or its one copy."""
    return image.data


def rva_to_va(image_base: int, rva: int) -> int:
    """Absolute virtual address of an RVA under the given load base."""
    image_base, rva = _integer("image_base", image_base), _integer("rva", rva)
    if image_base < 0 or rva < 0:
        raise ValueError(f"image base {_shown(image_base)} and RVA {_shown(rva)} must be non-negative")
    va = image_base + rva
    if va >= ADDRESS_LIMIT_32:
        raise OverflowError(f"image base {_shown(image_base)} + RVA {_shown(rva)} exceeds the 32-bit address space")
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
    end = min(end, len(image.data))
    start = image.section_table.end
    return Region(start, max(0, end - start))

