"""Carrier file I/O: binary PGM (P5, maxval 255) and raw headerless grids."""

from __future__ import annotations

from .fileio import write_atomic
from .statstego import Carrier


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comments between header tokens
    while pos < len(data):
        if data[pos : pos + 1].isspace():
            pos += 1
        elif data[pos : pos + 1] == b"#":
            end = data.find(b"\n", pos)
            pos = len(data) if end < 0 else end + 1
        else:
            break
    start = pos
    while pos < len(data) and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ValueError("unexpected end of PGM header")
    return data[start:pos], pos


def decode_pgm(data: bytes) -> Carrier:
    if data[:2] != b"P5":
        raise ValueError("not a binary PGM (missing P5 magic)")
    pos = 2
    fields = []
    for _ in range(3):
        token, pos = _next_token(data, pos)
        try:
            if not token.isdigit():  # ASCII decimal only: int() would also take a sign and '_' separators
                raise ValueError
            fields.append(int(token))
        except ValueError:
            raise ValueError(f"bad PGM header token {token!r}") from None
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


def read_pgm(path: str) -> Carrier:
    with open(path, "rb") as fh:
        return decode_pgm(fh.read())


def write_pgm(path: str, carrier: Carrier) -> None:
    write_atomic(path, encode_pgm(carrier))


def read_raw(path: str, width: int, height: int) -> Carrier:
    """Headerless byte grid; dimensions must be given explicitly."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) != width * height:
        raise ValueError(f"raw grid of {len(data)} bytes does not match {width}x{height}")
    return Carrier(width=width, height=height, pixels=data)


def write_raw(path: str, carrier: Carrier) -> None:
    write_atomic(path, carrier.pixels)
