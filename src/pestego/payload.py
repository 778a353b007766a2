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
from typing import NamedTuple

from .errors import (
    CorruptPayloadError,
    InsufficientSlackError,
    NameTooLongError,
    NoPayloadError,
    SlackOccupiedError,
    UnsafeNameError,
)
from .fileio import write_atomic
from .pe_format import PeImage, Region, header_slack, parse_pe

MAGIC = b"SPE1"
MAX_NAME_BYTES = 255
FIXED_OVERHEAD = 14  # magic + name_len + data_len + crc


def safe_file_name(name: str) -> str:
    """Validate that a payload name is a plain file name, not a path."""
    if (
        not name
        or name in (".", "..")
        or "\x00" in name
        or "/" in name
        or "\\" in name
        or name != os.path.basename(name)
    ):
        raise UnsafeNameError(f"refusing to write unsafe file name {name!r}")
    return name


def _encode_name(name: str) -> bytes:
    """UTF-8 bytes of a name that ``extract`` will be able to write back."""
    encoded = name.encode("utf-8")
    if not encoded:
        raise NameTooLongError("name must encode to at least 1 byte")
    if len(encoded) > MAX_NAME_BYTES:
        raise NameTooLongError(f"name encodes to {len(encoded)} bytes, limit is {MAX_NAME_BYTES}")
    safe_file_name(name)
    return encoded


class PayloadRecord(NamedTuple):
    """A named payload plus the framing needed to find it again."""

    name: str
    data: bytes

    def encode(self) -> bytes:
        name_bytes = _encode_name(self.name)
        crc = zlib.crc32(name_bytes + self.data) & 0xFFFFFFFF
        return b"".join(
            (
                MAGIC,
                struct.pack("<H", len(name_bytes)),
                name_bytes,
                struct.pack("<I", len(self.data)),
                self.data,
                struct.pack("<I", crc),
            )
        )

    @classmethod
    def decode(cls, buf: bytes) -> "PayloadRecord":
        """Decode a record from the start of ``buf`` (trailing bytes ignored)."""
        if len(buf) < 4 or buf[:4] != MAGIC:
            raise NoPayloadError("no payload record magic found")
        if len(buf) < 6:
            raise CorruptPayloadError("record truncated before name length")
        (name_len,) = struct.unpack_from("<H", buf, 4)
        if not 1 <= name_len <= MAX_NAME_BYTES:
            raise CorruptPayloadError(f"name length {name_len} outside 1..{MAX_NAME_BYTES}")
        pos = 6
        if pos + name_len + 4 > len(buf):
            raise CorruptPayloadError("record name and data length exceed available bytes")
        name_bytes = buf[pos : pos + name_len]
        pos += name_len
        (data_len,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        if pos + data_len + 4 > len(buf):
            raise CorruptPayloadError("record data and checksum exceed available bytes")
        data = buf[pos : pos + data_len]
        pos += data_len
        (stored_crc,) = struct.unpack_from("<I", buf, pos)
        actual_crc = zlib.crc32(name_bytes + data) & 0xFFFFFFFF
        if stored_crc != actual_crc:
            raise CorruptPayloadError(f"CRC mismatch: stored 0x{stored_crc:08X}, computed 0x{actual_crc:08X}")
        try:
            name = name_bytes.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptPayloadError("record name is not valid UTF-8") from exc
        return cls(name=name, data=bytes(data))


class CapacityReport(NamedTuple):
    """How much payload data fits in a file's header slack for one name."""

    region: Region
    overhead: int
    usable: int

    def lines(self) -> list[str]:
        return [
            f"slack region:   0x{self.region.offset:X} .. 0x{self.region.end:X} ({self.region.length} bytes)",
            f"framing:        {self.overhead} bytes",
            f"usable payload: {self.usable} bytes",
        ]


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
