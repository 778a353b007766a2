"""Independent brute-force oracles, kept free of the library under test.

Everything here is computed the long way: explicit loops, textbook
formulas, no numpy and no pestego imports.
"""

from __future__ import annotations

import math
import struct
import sys


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
            # a long token is quoted by its first 32 bytes and its length
            shown = repr(token) if len(token) <= 32 else f"{token[:32]!r} (first 32 of {len(token)} bytes)"
            raise ValueError(f"bad PGM header token {shown}") from None
    width, height, maxval = fields
    if maxval != 255:
        raise ValueError(f"only maxval 255 is supported, got {maxval}")
    if width * height > sys.maxsize:  # no bytes object holds that raster
        raise ValueError(f"carrier dimensions multiply to more than {sys.maxsize} pixels")
    raster = data[pos + 1 :]
    if len(raster) < width * height:
        raise ValueError(f"PGM raster holds {len(raster)} bytes, header promises {width * height}")
    if len(raster) > width * height:
        raise ValueError(f"{len(raster) - width * height} trailing bytes after PGM raster")
    return width, height, bytes(raster)


def pe_headers_by_offsets(data: bytes):
    """(NtHeaders fields, each section's fields, nt_offset, warnings) of a PE32 file, read one field at a time at
    hand-added offsets as pestego's parse_pe did before each header became one struct; a refusal is
    'ErrorClassName: message' with the parser's text."""

    def u16(offset: int) -> int:
        return struct.unpack_from("<H", data, offset)[0]

    def u32(offset: int) -> int:
        return struct.unpack_from("<I", data, offset)[0]

    if len(data) < 2 or data[:2] != b"MZ":
        return "NotMzError: missing 'MZ' magic at offset 0"
    if len(data) < 0x40:
        return f"TruncatedError: file of {len(data)} bytes is smaller than the 64-byte DOS header"
    e_lfanew = u32(0x3C)
    if e_lfanew + 4 > len(data):
        return f"TruncatedError: e_lfanew 0x{e_lfanew:X} points past end of file"
    if data[e_lfanew : e_lfanew + 4] != b"PE\x00\x00":
        return f"NotPeError: no 'PE\\0\\0' signature at e_lfanew 0x{e_lfanew:X}"
    coff = e_lfanew + 4
    if coff + 20 > len(data):
        return "TruncatedError: COFF file header extends past end of file"
    machine, number_of_sections, size_of_optional_header = u16(coff), u16(coff + 2), u16(coff + 16)
    opt = coff + 20
    if size_of_optional_header < 68:
        return f"TruncatedError: optional header of {size_of_optional_header} bytes is too small to decode"
    if opt + size_of_optional_header > len(data):
        return "TruncatedError: optional header extends past end of file"
    if u16(opt) != 0x10B:
        return f"Not32BitError: optional-header magic 0x{u16(opt):X} is not PE32 (0x10B)"
    file_alignment = u32(opt + 36)
    nt = (machine, number_of_sections, size_of_optional_header, u32(opt + 16), u32(opt + 28), file_alignment,
          u32(opt + 60), u32(opt + 64))
    table = opt + size_of_optional_header
    if table + 40 * number_of_sections > len(data):
        return "TruncatedError: section table extends past end of file"
    sections = tuple(
        (data[off : off + 8], u32(off + 8), u32(off + 12), u32(off + 16), u32(off + 20))
        for off in range(table, table + 40 * number_of_sections, 40)
    )

    warnings = []
    if file_alignment < 512 or file_alignment & (file_alignment - 1):
        warnings.append(f"FileAlignment 0x{file_alignment:X} is not a power of two >= 512")
    if number_of_sections < 1:
        warnings.append("section table is empty")
    labels = [s[0].rstrip(b"\x00").decode("ascii", errors="replace") or f"#{i}" for i, s in enumerate(sections)]
    for (_, _, _, raw_size, raw_ptr), label in zip(sections, labels):
        if file_alignment > 0:
            if raw_ptr % file_alignment:
                warnings.append(f"section {label}: PointerToRawData 0x{raw_ptr:X} not aligned to FileAlignment")
            if raw_size % file_alignment:
                warnings.append(f"section {label}: SizeOfRawData 0x{raw_size:X} not aligned to FileAlignment")
        if raw_size and raw_ptr + raw_size > len(data):
            warnings.append(f"section {label}: raw data extends past end of file")
    # (start, end, label) in file order; each meets its neighbour and the earlier span reaching furthest
    occupied = sorted(((s[4], s[4] + s[3], label) for s, label in zip(sections, labels) if s[3]), key=lambda o: o[0])
    furthest = None
    for before, span in zip([None, *occupied], occupied):
        for other in dict.fromkeys((before, furthest)):
            if other is not None and other[0] < span[1] and span[0] < other[1]:
                warnings.append(f"sections {other[2]} and {span[2]} overlap in file space")
        if furthest is None or span[1] >= furthest[1]:
            furthest = span
    return nt, sections, e_lfanew, tuple(warnings)


def record_by_offsets(buf: bytes):
    """(name, data) of an SPE1 record at the start of buf, read one field at a time as pestego's
    PayloadRecord.decode did before its framing became structs; a refusal is 'ErrorClassName: message'."""
    if len(buf) < 4 or buf[:4] != b"SPE1":
        return "NoPayloadError: no payload record magic found"
    if len(buf) < 6:
        return "CorruptPayloadError: record truncated before name length"
    (name_len,) = struct.unpack_from("<H", buf, 4)
    if not 1 <= name_len <= 255:
        return f"CorruptPayloadError: name length {name_len} outside 1..255"
    pos = 6
    if pos + name_len + 4 > len(buf):
        return "CorruptPayloadError: record name and data length exceed available bytes"
    name_bytes = buf[pos : pos + name_len]
    pos += name_len
    (data_len,) = struct.unpack_from("<I", buf, pos)
    pos += 4
    if pos + data_len + 4 > len(buf):
        return "CorruptPayloadError: record data and checksum exceed available bytes"
    data = buf[pos : pos + data_len]
    pos += data_len
    (stored_crc,) = struct.unpack_from("<I", buf, pos)
    actual_crc = crc32_bitwise(name_bytes + data)
    if stored_crc != actual_crc:
        return f"CorruptPayloadError: CRC mismatch: stored 0x{stored_crc:08X}, computed 0x{actual_crc:08X}"
    try:
        return name_bytes.decode("utf-8"), bytes(data)
    except UnicodeDecodeError:
        return "CorruptPayloadError: record name is not valid UTF-8"


def pattern_by_recipe(key: bytes, block_len: int) -> bytes:
    """The balanced 0/1 mask for (key, block_len), built by the recipe pestego pins, as its derive_pattern did
    with a seed function and a two-method generator class: FNV-1a-64 of the key seeds splitmix64, whose
    rejection-sampled bounded draws drive a Fisher-Yates shuffle of block_len/2 ones followed by as many zeros."""
    mask = 0xFFFFFFFFFFFFFFFF

    def key_seed() -> int:
        h = 0xCBF29CE484222325
        for b in key:
            h = ((h ^ b) * 0x100000001B3) & mask
        return h

    class SplitMix64:
        def __init__(self, seed: int):
            self.state = seed & mask

        def next_u64(self) -> int:
            self.state = (self.state + 0x9E3779B97F4A7C15) & mask
            z = self.state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return z ^ (z >> 31)

        def below(self, bound: int) -> int:
            limit = (1 << 64) - ((1 << 64) % bound)
            while True:
                value = self.next_u64()
                if value < limit:
                    return value % bound

    bits = bytearray([1] * (block_len // 2) + [0] * (block_len // 2))
    rng = SplitMix64(key_seed())
    for i in range(block_len - 1, 0, -1):
        j = rng.below(i + 1)
        bits[i], bits[j] = bits[j], bits[i]
    return bytes(bits)
