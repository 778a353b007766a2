"""pestego: hide files in 32-bit PE header slack; statistical bit embedding for raster carriers."""

import sys

__version__ = "0.1.0"

# Every public name, under the module that defines it. A name's module is
# imported on its first use (PEP 562): ``import pestego`` compiles only this file, and
# the PE names never load statstego, which would cost about 5 ms (-X importtime, python -B).
_EXPORTS = {
    "errors": (
        "BlockTooSmallError",
        "CarrierTooSmallError",
        "CorruptPayloadError",
        "InsufficientSlackError",
        "NameTooLongError",
        "NoPayloadError",
        "Not32BitError",
        "NotMzError",
        "NotPeError",
        "OddBlockLengthError",
        "PeFormatError",
        "PeStegoError",
        "SlackOccupiedError",
        "StrictParseError",
        "TruncatedError",
        "UnsafeNameError",
    ),
    "integrity": ("EquivalenceReport", "compare"),
    "payload": ("CapacityReport", "PayloadRecord", "capacity", "hide", "retract", "write_extracted_file"),
    "pe_format": (
        "NtHeaders",
        "PeImage",
        "Region",
        "SectionHeader",
        "header_slack",
        "parse_pe",
        "rva_to_va",
        "section_slack",
        "serialize",
    ),
    "statstego": (
        "Carrier",
        "KeyPattern",
        "MessageLayout",
        "StatParams",
        "block_capacity",
        "derive_pattern",
        "detect_blocks",
        "embed_message",
        "normal_quantile",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    # looked up on every use, never stored here, so it is always the module's current attribute;
    # __import__, unlike importlib.import_module, passes through the -X importtime log
    if name in _MODULE_OF:
        module = f"{__name__}.{_MODULE_OF[name]}"
        __import__(module)
        return getattr(sys.modules[module], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
