"""Independent brute-force oracles, kept free of the library under test.

Everything here is computed the long way: explicit loops, textbook
formulas, no numpy and no pestego imports.
"""

from __future__ import annotations

import math


def crc32_bitwise(data: bytes) -> int:
    """Reflected CRC-32, polynomial 0xEDB88320, bit by bit."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0xEDB88320 if crc & 1 else crc >> 1
    return crc ^ 0xFFFFFFFF


def mean(values) -> float:
    return sum(values) / len(values)


def sample_variance(values) -> float:
    """Unbiased estimator, divisor n-1."""
    m = mean(values)
    return sum((v - m) ** 2 for v in values) / (len(values) - 1)


def split_by_pattern(values, pattern_bits):
    c = [v for v, s in zip(values, pattern_bits) if s == 1]
    d = [v for v, s in zip(values, pattern_bits) if s == 0]
    return c, d


def q_statistic(values, pattern_bits) -> float:
    """Standardized difference of C/D means, straight from the definition."""
    c, d = split_by_pattern(values, pattern_bits)
    sigma = math.sqrt((sample_variance(c) + sample_variance(d)) / (len(values) // 2))
    if sigma == 0.0:
        delta = mean(c) - mean(d)
        return 0.0 if delta == 0.0 else math.copysign(math.inf, delta)
    return (mean(c) - mean(d)) / sigma


def embed_by_hand(values, pattern_bits, k, bit):
    """Per-element saturating add on the pattern-1 positions."""
    if bit == 0:
        return list(values)
    return [min(v + k, 255) if s == 1 else v for v, s in zip(values, pattern_bits)]


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def byte_diff_offsets(a: bytes, b: bytes) -> list[int]:
    """Offsets where two equal-length byte strings differ."""
    assert len(a) == len(b)
    return [i for i, (x, y) in enumerate(zip(a, b)) if x != y]


def diff_runs(a: bytes, b: bytes) -> list[tuple[int, int]]:
    """(offset, length) of each maximal run of differing bytes, one byte at a time.

    A length mismatch adds the tail of the longer input as one more run.
    """
    runs: list[tuple[int, int]] = []
    start = None
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y and start is None:
            start = i
        elif x == y and start is not None:
            runs.append((start, i - start))
            start = None
    n = min(len(a), len(b))
    if start is not None:
        runs.append((start, n - start))
    if len(a) != len(b):
        runs.append((n, max(len(a), len(b)) - n))
    return runs


def decode_pgm_header_scan(data: bytes) -> tuple[int, int, bytes]:
    """(width, height, pixels) of a binary PGM, read by the byte-at-a-time header scanner
    that pestego's decode_pgm used before it matched one pattern; ValueError texts are the decoder's."""

    def next_token(pos: int) -> tuple[bytes, int]:
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

    if data[:2] != b"P5":
        raise ValueError("not a binary PGM (missing P5 magic)")
    pos = 2
    fields = []
    for _ in range(3):
        token, pos = next_token(pos)
        try:
            if not token.isdigit():
                raise ValueError
            fields.append(int(token))
        except ValueError:
            raise ValueError(f"bad PGM header token {token!r}") from None
    width, height, maxval = fields
    if maxval != 255:
        raise ValueError(f"only maxval 255 is supported, got {maxval}")
    raster = data[pos + 1 :]
    if len(raster) < width * height:
        raise ValueError(f"PGM raster holds {len(raster)} bytes, header promises {width * height}")
    if len(raster) > width * height:
        raise ValueError(f"{len(raster) - width * height} trailing bytes after PGM raster")
    return width, height, bytes(raster)
