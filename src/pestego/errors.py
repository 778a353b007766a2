# Exception hierarchy shared by all pestego modules.
#
# Plain Python builtins are used where they are the natural contract:
# OverflowError (32-bit address overflow), IndexError (bad section index),
# OSError (file I/O failures).


class PeStegoError(Exception):
    """Base class for all pestego-specific errors."""


# --- PE parsing -----------------------------------------------------------

class PeFormatError(PeStegoError):
    """Input bytes cannot be parsed as a supported PE file."""


class NotMzError(PeFormatError):
    """File does not start with the 'MZ' DOS magic."""


class NotPeError(PeFormatError):
    """No 'PE\\0\\0' signature at the offset named by e_lfanew."""


class TruncatedError(PeFormatError):
    """A header or the section table extends past the end of the file."""


class Not32BitError(PeFormatError):
    """Optional-header magic is not the 32-bit value 0x10B."""


class StrictParseError(PeFormatError):
    """Layout warnings promoted to an error by strict mode."""

    def __init__(self, warnings: tuple[str, ...]):
        super().__init__("; ".join(warnings))
        self.warnings = warnings


class UnmappedRvaError(PeStegoError):
    """RVA falls outside the headers and every section."""


# --- payload hiding -------------------------------------------------------

class NameTooLongError(PeStegoError):
    """Payload name does not encode to 1..255 UTF-8 bytes."""


class InsufficientSlackError(PeStegoError):
    """Encoded payload record is larger than the header slack."""


class SlackOccupiedError(PeStegoError):
    """Header slack holds non-zero bytes and force was not set."""


class NoPayloadError(PeStegoError):
    """Header slack does not start with a payload record magic."""


class CorruptPayloadError(PeStegoError):
    """Payload record is malformed or fails its CRC check."""


class UnsafeNameError(PeStegoError):
    """Recovered file name is not a plain file name."""


# --- statistical embedding ------------------------------------------------

class OddBlockLengthError(PeStegoError):
    """Key patterns exist only for even block lengths."""


class BlockTooSmallError(PeStegoError):
    """Block too small to estimate the detection statistic."""


class CarrierTooSmallError(PeStegoError):
    """Carrier has fewer full blocks than message bits."""
