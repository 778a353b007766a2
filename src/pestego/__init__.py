"""pestego: hide files in 32-bit PE header slack; statistical bit embedding for raster carriers."""

from .errors import (
    BlockTooSmallError,
    CarrierTooSmallError,
    CorruptPayloadError,
    InsufficientSlackError,
    NameTooLongError,
    NoPayloadError,
    Not32BitError,
    NotMzError,
    NotPeError,
    OddBlockLengthError,
    PeFormatError,
    PeStegoError,
    SlackOccupiedError,
    StrictParseError,
    TruncatedError,
    UnmappedRvaError,
    UnsafeNameError,
)
from .integrity import EquivalenceReport, compare, validate_pe
from .payload import CapacityReport, PayloadRecord, capacity, hide, retract, write_extracted_file
from .pe_format import (
    NtHeaders,
    PeImage,
    Region,
    SectionHeader,
    file_offset_to_rva,
    header_slack,
    parse_pe,
    rva_to_file_offset,
    rva_to_va,
    section_slack,
    serialize,
)

# ``statstego`` is imported on first use of one of its names (PEP 562):
# compiling it on every import would cost the PE side about 9 ms.
_STATSTEGO_NAMES = frozenset(
    {
        "Carrier",
        "KeyPattern",
        "MessageLayout",
        "StatParams",
        "block_capacity",
        "derive_pattern",
        "detect_blocks",
        "embed_message",
        "normal_quantile",
    }
)


def __getattr__(name: str):
    if name in _STATSTEGO_NAMES:
        from . import statstego

        return getattr(statstego, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "BlockTooSmallError",
    "CapacityReport",
    "CarrierTooSmallError",
    "CorruptPayloadError",
    "EquivalenceReport",
    "InsufficientSlackError",
    "NameTooLongError",
    "NoPayloadError",
    "Not32BitError",
    "NotMzError",
    "NotPeError",
    "NtHeaders",
    "OddBlockLengthError",
    "PayloadRecord",
    "PeFormatError",
    "PeImage",
    "PeStegoError",
    "Region",
    "SectionHeader",
    "SlackOccupiedError",
    "StrictParseError",
    "TruncatedError",
    "UnmappedRvaError",
    "UnsafeNameError",
    "capacity",
    "compare",
    "file_offset_to_rva",
    "header_slack",
    "hide",
    "parse_pe",
    "retract",
    "rva_to_file_offset",
    "rva_to_va",
    "section_slack",
    "serialize",
    "validate_pe",
    "write_extracted_file",
    *sorted(_STATSTEGO_NAMES),
]
