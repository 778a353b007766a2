# Exception hierarchy shared by all pestego modules, how a refusal shows an input value, and the integer rule.
#
# Plain Python builtins are used where they are the natural contract:
# OverflowError (32-bit address overflow), OSError (file I/O failures).

import operator


def _shown(value) -> str:
    """A refusal's view of an input value: text and bytes by repr, any other value by str(); a value of more than
    32 characters or bytes shows only its first 32, and its length."""
    if isinstance(value, (str, bytes)):
        unit = "characters" if isinstance(value, str) else "bytes"
        return repr(value) if len(value) <= 32 else f"{value[:32]!r} (first 32 of {len(value)} {unit})"
    # an int keeps 40 or more leading digits before str() sees it, within int()'s digit limit (log10(2) ~ 0.30103)
    cut = max(0, (value.bit_length() - 1) * 30103 // 100000 - 40) if isinstance(value, int) else 0
    text = "-" * (value < 0) + str(abs(value) // 10**cut) if cut else str(value)
    return text if len(text) <= 32 else f"{text[:32]} (first 32 of {len(text) + cut} characters)"


def _wrong_type(name: str, wanted: str, value) -> ValueError:
    return ValueError(f"{name} must be {wanted}, got {type(value).__name__}")


def _integer(name: str, value) -> int:
    """value as a plain int, so arithmetic on it never wraps; refused unless its type has __index__ (numpy's ints
    have it) and is not bool, which counts nothing."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise _wrong_type(name, "an integer", value)
    return operator.index(value)


class PeStegoError(Exception):
    """Base class for all pestego-specific errors; ``exit_code`` is the command line's exit status for one."""

    exit_code = 2


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
    """Layout warnings promoted to an error by strict mode; its text is the first one and how many more follow."""

    def __init__(self, warnings: tuple[str, ...]):
        super().__init__(warnings[0] + (f"; and {len(warnings) - 1} more" if len(warnings) > 1 else ""))
        self.warnings = warnings


# --- payload hiding -------------------------------------------------------

class NameTooLongError(PeStegoError):
    """Payload name does not encode to 1..255 UTF-8 bytes."""


class InsufficientSlackError(PeStegoError):
    """Encoded payload record is larger than the header slack."""

    exit_code = 3


class SlackOccupiedError(PeStegoError):
    """Header slack holds non-zero bytes and force was not set."""

    exit_code = 4


class NoPayloadError(PeStegoError):
    """Header slack does not start with a payload record magic."""

    exit_code = 5


class CorruptPayloadError(PeStegoError):
    """Payload record is malformed or fails its CRC check."""

    exit_code = 6


class UnsafeNameError(PeStegoError):
    """Payload file name is not a plain file name."""

    exit_code = 1


# --- statistical embedding ------------------------------------------------

class OddBlockLengthError(PeStegoError):
    """Key patterns exist only for even block lengths."""


class BlockTooSmallError(PeStegoError):
    """Block too small to estimate the detection statistic."""


class CarrierTooSmallError(PeStegoError):
    """Carrier has fewer full blocks than message bits."""

    exit_code = 7
