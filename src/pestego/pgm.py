"""Carrier file I/O: binary PGM (P5, maxval 255) and raw headerless grids."""

from __future__ import annotations

import re

from .errors import _shown
from .fileio import write_atomic
from .statstego import Carrier


# the magic, then three tokens, each after whitespace and '#' comments: a token is empty only at the end of the data
_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n?)*(\S*)" * 3)


def decode_pgm(data: bytes) -> Carrier:
    match = _HEADER.match(data)
    if match is None:
        raise ValueError("not a binary PGM (missing P5 magic)")
    fields = []
    for token in match.groups():
        if not token:
            raise ValueError("unexpected end of PGM header")
        try:
            if not token.isdigit():  # ASCII decimal only: int() also takes a sign and '_' separators
                raise ValueError
            fields.append(int(token))  # refuses more digits than sys.get_int_max_str_digits()
        except ValueError:
            raise ValueError(f"bad PGM header token {_shown(token)}") from None
    width, height, maxval = fields
    if maxval != 255:
        raise ValueError(f"only maxval 255 is supported, got {_shown(maxval)}")
    # exactly one whitespace byte separates the header from the raster, whose size Carrier checks
    return Carrier(width=width, height=height, pixels=bytes(data[match.end() + 1 :]))


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
