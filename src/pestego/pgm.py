"""Carrier file I/O: binary PGM (P5, maxval 255) and raw headerless grids."""

from __future__ import annotations

import re

from .fileio import write_atomic
from .statstego import Carrier


# whitespace and '#' comments, then one header token: empty only at the end of the data
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\n]*\n?)*(\S*)")


def decode_pgm(data: bytes) -> Carrier:
    if data[:2] != b"P5":
        raise ValueError("not a binary PGM (missing P5 magic)")
    pos = 2
    fields = []
    for _ in range(3):
        match = _HEADER_TOKEN.match(data, pos)
        token, pos = match[1], match.end()
        if not token:
            raise ValueError("unexpected end of PGM header")
        try:
            number = int(token)  # refuses more digits than sys.get_int_max_str_digits()
        except ValueError:
            number = None
        if number is None or not token.isdigit():  # ASCII decimal only: int() also takes a sign and '_' separators
            raise ValueError(f"bad PGM header token {token!r}")
        fields.append(number)
    width, height, maxval = fields
    if maxval != 255:
        raise ValueError(f"only maxval 255 is supported, got {maxval}")
    pos += 1  # exactly one whitespace byte separates the header from the raster
    raster = data[pos:]
    if len(raster) < width * height:
        raise ValueError(f"PGM raster holds {len(raster)} bytes, header promises {width * height}")
    if len(raster) > width * height:
        raise ValueError(f"{len(raster) - width * height} trailing bytes after PGM raster")
    return Carrier(width=width, height=height, pixels=bytes(raster))


def encode_pgm(carrier: Carrier) -> bytes:
    header = f"P5\n{carrier.width} {carrier.height}\n255\n".encode("ascii")
    return header + carrier.pixels


def read_carrier(path: str, shape: tuple[int, int] | None = None) -> Carrier:
    """A PGM file, or with shape = (width, height) a headerless byte grid of that shape."""
    with open(path, "rb") as fh:
        data = fh.read()
    return decode_pgm(data) if shape is None else Carrier(*shape, data)


def write_carrier(path: str, carrier: Carrier, raw: bool) -> None:
    """The carrier's bare pixels if raw is set, or else the carrier as a PGM."""
    write_atomic(path, carrier.pixels if raw else encode_pgm(carrier))
