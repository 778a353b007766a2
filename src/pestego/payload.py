"""Hide a named payload in PE header slack and recover it later.

Wire format of a record, all integers little-endian:

    bytes 0..3   magic "SPE1"
    bytes 4..5   name_len (u16)
    ...          name (UTF-8, 1..255 bytes)
    4 bytes      data_len (u32)
    ...          data
    4 bytes      CRC32 (IEEE polynomial) of name ++ data

Only the header slack region is ever written; every other byte of the
cover file, including its length, is left untouched.
"""

from __future__ import annotations

import os
import struct
import zlib
from collections import namedtuple

from .errors import (
    CorruptPayloadError,
    InsufficientSlackError,
    NameTooLongError,
    NoPayloadError,
    SlackOccupiedError,
    UnsafeNameError,
    _shown,
)
from .fileio import write_atomic
from .pe_format import PeImage, header_slack, parse_pe

MAGIC = b"SPE1"
MAX_NAME_BYTES = 255
_HEAD = struct.Struct("<4sH")  # magic, name_len
_U32 = struct.Struct("<I")  # data_len, then the CRC
FIXED_OVERHEAD = _HEAD.size + 2 * _U32.size


def safe_file_name(name: str, action: str = "write") -> str:
    """Validate that a payload name is a plain file name, not a path; action names what the refusal stops."""
    if (
        not name
        or name in (".", "..")
        or "\x00" in name
        or "/" in name
        or "\\" in name
        or name != os.path.basename(name)
    ):
        raise UnsafeNameError(f"refusing to {action} unsafe file name {_shown(name)}")
    return name


def _encode_name(name: str) -> bytes:
    """UTF-8 bytes of a name that ``extract`` will be able to write back."""
    try:
        encoded = name.encode("utf-8")
    except UnicodeEncodeError:
        raise NameTooLongError(f"name {_shown(name)} does not encode to UTF-8") from None
    if not encoded:
        raise NameTooLongError("name must encode to at least 1 byte")
    if len(encoded) > MAX_NAME_BYTES:
        raise NameTooLongError(f"name encodes to {len(encoded)} bytes, limit is {MAX_NAME_BYTES}")
    safe_file_name(name, "store")
    return encoded


class PayloadRecord(namedtuple("PayloadRecord", "name data")):
    """A named payload plus the framing needed to find it again."""

    __slots__ = ()

    def encode(self) -> bytes:
        name_bytes = _encode_name(self.name)
        crc = zlib.crc32(name_bytes + self.data)
        return b"".join(
            (_HEAD.pack(MAGIC, len(name_bytes)), name_bytes, _U32.pack(len(self.data)), self.data, _U32.pack(crc))
        )

    @classmethod
    def decode(cls, buf: bytes) -> "PayloadRecord":
        """Decode a record from the start of ``buf`` (trailing bytes ignored)."""
        if buf[: len(MAGIC)] != MAGIC:
            raise NoPayloadError("no payload record magic found")
        if len(buf) < _HEAD.size:
            raise CorruptPayloadError("record truncated before name length")
        _, name_len = _HEAD.unpack_from(buf)
        if not 1 <= name_len <= MAX_NAME_BYTES:
            raise CorruptPayloadError(f"name length {name_len} outside 1..{MAX_NAME_BYTES}")
        pos = _HEAD.size + name_len
        if pos + _U32.size > len(buf):
            raise CorruptPayloadError("record name and data length exceed available bytes")
        name_bytes = buf[_HEAD.size : pos]
        (data_len,) = _U32.unpack_from(buf, pos)
        pos += _U32.size
        if pos + data_len + _U32.size > len(buf):
            raise CorruptPayloadError("record data and checksum exceed available bytes")
        data = buf[pos : pos + data_len]
        (stored_crc,) = _U32.unpack_from(buf, pos + data_len)
        actual_crc = zlib.crc32(name_bytes + data)
        if stored_crc != actual_crc:
            raise CorruptPayloadError(f"CRC mismatch: stored 0x{stored_crc:08X}, computed 0x{actual_crc:08X}")
        try:
            name = name_bytes.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptPayloadError("record name is not valid UTF-8") from exc
        return cls(name=name, data=bytes(data))


class CapacityReport(namedtuple("CapacityReport", "region overhead usable")):
    """How much payload data fits in a file's header slack (region, a Region) for one name."""

    __slots__ = ()


def capacity(image: PeImage, name: str) -> CapacityReport:
    """Report the maximum data length that fits for the given file name."""
    overhead = FIXED_OVERHEAD + len(_encode_name(name))
    region = header_slack(image)
    return CapacityReport(region=region, overhead=overhead, usable=max(0, region.length - overhead))


def hide(image: PeImage, name: str, data: bytes, *, force: bool = False) -> PeImage:
    """Return a new image of the file with (name, data) framed into header slack.

    The slack must be all zero bytes unless ``force`` is set; the record is
    followed by zeros to the end of the slack, so with ``force`` no stale
    record bytes survive.
    """
    record = PayloadRecord(name, data).encode()
    region = header_slack(image)
    if len(record) > region.length:
        raise InsufficientSlackError(
            f"record of {len(record)} bytes does not fit header slack of {region.length} bytes"
        )
    existing = image.read(region.offset, region.length)
    if not force and any(existing):
        kind = "an existing payload record" if existing[:4] == MAGIC else "non-zero bytes"
        raise SlackOccupiedError(f"header slack holds {kind}; pass force to overwrite")

    cover = memoryview(image.data)
    fill = bytes(region.length - len(record))
    return parse_pe(b"".join((cover[: region.offset], record, fill, cover[region.end :])))


def retract(image: PeImage) -> tuple[str, bytes]:
    """Recover (name, data) hidden by :func:`hide`; verifies the CRC."""
    region = header_slack(image)
    record = PayloadRecord.decode(image.read(region.offset, region.length))
    return record.name, record.data


def write_extracted_file(name: str, data: bytes, out_dir: str) -> str:
    """Write recovered payload data to ``out_dir/name`` and return the path.

    An existing file of that name is replaced, whole or not at all.
    """
    path = os.path.join(out_dir, safe_file_name(name))
    os.makedirs(out_dir, exist_ok=True)
    write_atomic(path, data)
    return path
