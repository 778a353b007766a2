"""Reference computations the benchmark checks the program's outputs against.

Everything here is written from README.md's specification (the pattern
recipe, the embedding rule, the detection statistic, the PGM layout and the
payload wire format) and imports nothing from pestego, so a defect in the
program cannot hide in its own oracle.
"""

from __future__ import annotations

import re
import struct
import zlib
from statistics import NormalDist

import numpy as np

MASK64 = (1 << 64) - 1
# q may differ from this reference in the last few ulps; the library's own
# oracle tests allow 1e-9, and so does the benchmark.
Q_TOLERANCE = 1e-9
# Acklam's z_alpha differs from the stdlib quantile by far less than this;
# a q this close to the threshold may legitimately read either way.
Z_AMBIGUITY = 1e-6


class OracleError(Exception):
    """An output of the program disagrees with its reference."""


def key_mask(key: bytes, length: int) -> np.ndarray:
    """Balanced C/D mask: FNV-1a-64 seed, splitmix64 stream, Fisher-Yates."""
    state = 0xCBF29CE484222325
    for byte in key:
        state = ((state ^ byte) * 0x100000001B3) & MASK64

    def draw(bound: int) -> int:
        nonlocal state
        limit = (1 << 64) - (1 << 64) % bound
        while True:
            state = (state + 0x9E3779B97F4A7C15) & MASK64
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
            z ^= z >> 31
            if z < limit:
                return z % bound

    bits = [1] * (length // 2) + [0] * (length // 2)
    for i in range(length - 1, 0, -1):
        j = draw(i + 1)
        bits[i], bits[j] = bits[j], bits[i]
    return np.array(bits, dtype=bool)


def _tiles(grid: np.ndarray, block_h: int, block_w: int) -> np.ndarray:
    rows, cols = grid.shape[0] // block_h, grid.shape[1] // block_w
    return grid[: rows * block_h, : cols * block_w].reshape(rows, block_h, cols, block_w)


def blocks(grid: np.ndarray, block_h: int, block_w: int, count: int) -> np.ndarray:
    """The first ``count`` blocks in row-major block order, one row of values each."""
    tiles = _tiles(grid, block_h, block_w)
    rows, _, cols, _ = tiles.shape
    return tiles.swapaxes(1, 2).reshape(rows * cols, block_h * block_w)[:count]


def embed(grid: np.ndarray, mask: np.ndarray, block_h: int, block_w: int, bits: np.ndarray, k: int) -> np.ndarray:
    """Saturating add of k on the mask's C pixels of every block carrying a 1 bit."""
    tiles = _tiles(grid, block_h, block_w)
    rows, _, cols, _ = tiles.shape
    marked = np.zeros(rows * cols, dtype=bool)
    marked[: len(bits)] = bits.astype(bool)
    select = marked.reshape(rows, 1, cols, 1) & mask.reshape(1, block_h, 1, block_w)
    raised = np.minimum(tiles.astype(np.int16) + k, 255).astype(np.uint8)
    out = grid.copy()
    out[: rows * block_h, : cols * block_w] = np.where(select, raised, tiles).reshape(rows * block_h, cols * block_w)
    return out


def q_values(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """q per block from exact integer sums of x and x^2 over each half."""
    x = values.astype(np.int64)
    c, d = x[:, mask], x[:, ~mask]
    half = c.shape[1]
    sum_c, sum_d = c.sum(axis=1), d.sum(axis=1)
    # half * (half - 1) * (var_c + var_d), exactly
    spread = half * (c * c).sum(axis=1) - sum_c * sum_c + half * (d * d).sum(axis=1) - sum_d * sum_d
    diff = (sum_c - sum_d) / half
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma = np.sqrt(spread / (half * (half - 1)) / half)
        return np.where(spread > 0, diff / sigma, np.where(diff == 0, 0.0, np.copysign(np.inf, diff)))


def z_alpha(alpha: float) -> float:
    return NormalDist().inv_cdf(1.0 - alpha)


def check_csv(stdout: bytes, q_ref: np.ndarray, alpha: float) -> np.ndarray:
    """Validate ``stat-extract --csv`` output against reference q; return its bits."""
    lines = stdout.decode("ascii").split("\n")
    if lines[0] != "block,q,bit" or lines[-1] != "":
        raise OracleError("CSV lacks its header line or final newline")
    rows = [line.split(",") for line in lines[1:-1]]
    if len(rows) != len(q_ref) or any(len(row) != 3 for row in rows):
        raise OracleError(f"CSV has {len(rows)} rows, expected {len(q_ref)} of 3 fields")
    try:
        index = np.array([int(row[0]) for row in rows])
        q = np.array([float(row[1]) for row in rows])
        bits = np.array([int(row[2]) for row in rows])
    except ValueError as exc:
        raise OracleError(f"CSV field does not parse: {exc}") from None
    if not np.array_equal(index, np.arange(len(q_ref))):
        raise OracleError("CSV block indices are not 0..n-1 in order")
    with np.errstate(invalid="ignore"):
        close = (q == q_ref) | (np.abs(q - q_ref) <= Q_TOLERANCE * np.maximum(1.0, np.abs(q_ref)))
    if not close.all():
        i = int(np.flatnonzero(~close)[0])
        raise OracleError(f"block {i}: q={float(q[i])!r}, reference {float(q_ref[i])!r}")
    z = z_alpha(alpha)
    wrong = (bits != (q_ref > z)) & (np.abs(q_ref - z) > Z_AMBIGUITY)
    if wrong.any():
        i = int(np.flatnonzero(wrong)[0])
        raise OracleError(f"block {i}: bit {bits[i]} disagrees with q={float(q_ref[i])!r} against z_alpha={z!r}")
    return bits


def encode_pgm(grid: np.ndarray) -> bytes:
    height, width = grid.shape
    return b"P5\n%d %d\n255\n" % (width, height) + grid.tobytes()


def decode_pgm(data: bytes) -> np.ndarray:
    header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+255\s", data)
    if header is None:
        raise OracleError("output is not a P5 PGM with maxval 255")
    width, height = int(header[1]), int(header[2])
    raster = data[header.end() :]
    if len(raster) != width * height:
        raise OracleError(f"PGM raster holds {len(raster)} bytes, expected {width * height}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width)


def check_pixels(data: bytes, expected: np.ndarray) -> None:
    grid = decode_pgm(data)
    if grid.shape != expected.shape:
        raise OracleError(f"carrier shape {grid.shape}, expected {expected.shape}")
    wrong = np.argwhere(grid != expected)
    if len(wrong):
        r, c = wrong[0]
        raise OracleError(f"{len(wrong)} pixels differ, first at row {r} col {c}: {grid[r, c]} != {expected[r, c]}")


def payload_record(name: str, data: bytes) -> bytes:
    """The SPE1 record hidden at the start of the header slack."""
    name_bytes = name.encode("utf-8")
    crc = zlib.crc32(name_bytes + data)
    return b"SPE1" + struct.pack("<H", len(name_bytes)) + name_bytes + struct.pack("<I", len(data)) + data + struct.pack("<I", crc)


def diff_regions(before: bytes, after: bytes) -> list[tuple[int, int]]:
    """(offset, length) of each maximal run of differing bytes of two equal-length files."""
    changed = np.flatnonzero(np.frombuffer(before, np.uint8) != np.frombuffer(after, np.uint8))
    if not changed.size:
        return []
    breaks = np.flatnonzero(np.diff(changed) > 1)
    starts = np.concatenate(([changed[0]], changed[breaks + 1]))
    ends = np.concatenate((changed[breaks], [changed[-1]]))
    return [(int(s), int(e - s + 1)) for s, e in zip(starts, ends)]
