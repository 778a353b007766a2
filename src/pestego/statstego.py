"""Statistical block steganography over 8-bit raster carriers.

One message bit goes into one block: for a 1 bit, a key-selected half of
the block's pixels (the C set) is raised by a strength k while the other
half (D) stays untouched; for a 0 bit the block is left alone.  The
receiver recomputes the split from the shared key and standardizes the
difference of the C and D sample means; on clean blocks that statistic is
asymptotically standard normal, so a one-sided test against the upper
normal quantile recovers the bit without the original carrier.

``embed_message`` and ``detect_blocks`` are the two operations.  Both work
on a whole carrier; a single block is a carrier of one block.

Pattern derivation is fixed so independent implementations agree byte for
byte: FNV-1a (64-bit) hashes the key to a seed, splitmix64 expands the
seed into a stream, and a Fisher-Yates shuffle with rejection-sampled
bounded draws permutes a balanced 0/1 vector.
"""

from __future__ import annotations

import functools
import math
import struct
import sys
from array import array
from collections import namedtuple

from .errors import (
    BlockTooSmallError,
    CarrierTooSmallError,
    OddBlockLengthError,
    _shown,
)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _key_stream(key: bytes):
    """Unsigned 64-bit splitmix64 draws, without end, seeded with the FNV-1a-64 hash of the key bytes;
    chosen over random.Random so the pattern stream is pinned by this module, not by interpreter internals."""
    state = _FNV_OFFSET
    for b in key:
        state = ((state ^ b) * _FNV_PRIME) & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


class _Checked:
    """Validated namedtuple base: every way to build one runs the subclass's _check.

    The call, copy and pickle reach __new__; _make, and with it _replace, calls the class.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class KeyPattern(_Checked, namedtuple("KeyPattern", "bits")):
    """Balanced binary mask selecting the C half of a block; bits holds one byte per position, each 0 or 1."""

    __slots__ = ()

    def _check(self):
        if self.bits.translate(None, b"\x00\x01"):
            raise ValueError("pattern bits must be 0 or 1")
        if 2 * self.bits.count(1) != len(self.bits):
            raise ValueError("pattern must hold exactly as many ones as zeros")

    def __len__(self) -> int:
        return len(self.bits)


def derive_pattern(key: bytes, block_len: int) -> KeyPattern:
    """Deterministically derive the balanced mask for (key, block_len)."""
    if block_len % 2:
        raise OddBlockLengthError(f"block length {_shown(block_len)} is odd; patterns need an even length")
    if block_len < 2:
        raise ValueError(f"block length must be >= 2, got {_shown(block_len)}")
    bits = bytearray([1] * (block_len // 2) + [0] * (block_len // 2))
    draws = _key_stream(key)
    for i in range(block_len - 1, 0, -1):
        limit = (1 << 64) - (1 << 64) % (i + 1)  # rejection keeps the bounded draw exactly uniform
        for j in draws:
            if j < limit:
                break
        j %= i + 1
        bits[i], bits[j] = bits[j], bits[i]
    return KeyPattern(bytes(bits))


def _shape(width, height) -> str:
    """'WxH' for a refusal, each number shown as errors._shown shows it."""
    return f"{_shown(width)}x{_shown(height)}"


class Carrier(_Checked, namedtuple("Carrier", "width height pixels")):
    """Rectangular 8-bit carrier, pixels row-major."""

    __slots__ = ()

    def _check(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"carrier dimensions must be positive, got {_shape(self.width, self.height)}")
        if self.width * self.height > sys.maxsize:  # no bytes object holds them; refused before any text formats them
            raise ValueError(f"carrier dimensions multiply to more than {sys.maxsize} pixels")
        if len(self.pixels) != self.width * self.height:
            shape = _shape(self.width, self.height)
            raise ValueError(f"carrier of {shape} needs {self.width * self.height} pixels, got {len(self.pixels)}")


class StatParams(_Checked, namedtuple("StatParams", "block_rows block_cols k alpha", defaults=(8, 8, 10, 0.05))):
    """Embedding strength and detection threshold settings."""

    __slots__ = ()

    def _check(self):
        """Refuse every setting that embedding or detection could not use, so both refuse alike."""
        shape = _shape(self.block_cols, self.block_rows)
        if self.block_rows < 1 or self.block_cols < 1:
            raise ValueError(f"block dimensions must be positive, got {shape}")
        if self.block_len % 2:
            raise OddBlockLengthError(f"block of {shape} has odd length")
        if self.block_len < 4:
            raise BlockTooSmallError(f"block of {shape} is too small: need at least 2 values per set")
        if self.block_len > _MAX_BLOCK_LEN:
            raise ValueError(
                f"block of {shape} exceeds {_MAX_BLOCK_LEN} pixels,"
                " past which an int64 implementation of the detection sums would overflow"
            )
        if self.k < 1:
            raise ValueError(f"strength k must be a positive integer, got {_shown(self.k)}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {_shown(self.alpha)}")
        if 1.0 - self.alpha == 1.0:
            raise ValueError(f"alpha {_shown(self.alpha)} is too small: 1 - alpha rounds to 1, so z_alpha is not finite")

    @property
    def block_len(self) -> int:
        return self.block_rows * self.block_cols

    @property
    def z_alpha(self) -> float:
        """One-sided decision threshold, the upper normal quantile."""
        return normal_quantile(1.0 - self.alpha)


class MessageLayout(_Checked, namedtuple("MessageLayout", "message_bits")):
    """The bit sequence to embed (a tuple of ints), one bit per carrier block."""

    __slots__ = ()

    def _check(self):
        if self.message_bits.count(0) + self.message_bits.count(1) != len(self.message_bits):
            raise ValueError("message bits must be 0 or 1")

    @property
    def block_count(self) -> int:
        return len(self.message_bits)

    @classmethod
    def from_text(cls, text: str) -> "MessageLayout":
        """Parse '0'/'1' characters, ignoring whitespace."""
        stripped = "".join(text.split())
        if not set(stripped) <= {"0", "1"}:
            raise ValueError("message text may only contain 0, 1 and whitespace")
        return cls(tuple(stripped.encode("ascii").translate(bytes.maketrans(b"01", b"\x00\x01"))))


# The block kernel, in the standard library alone.  Blocks are numbered
# row-major; pattern position p = r * block_cols + c is in-block row r,
# column c.  Joining pixel row r of each block row gives a row in which
# ``[c::block_cols]`` is pixel (r, c) of every block, so the kernel loops
# over block positions, not blocks.

# Largest block StatParams accepts.  With h = block_len / 2 the spread N
# below is at most 2 * h**2 * 255**2, which stays under 2**63, so an
# implementation with int64 moments computes the same q.
_MAX_BLOCK_LEN = 1 << 24
_TO_FF = bytes.maketrans(b"\x01", b"\xff")  # message bits 0/1 -> block masks 0x00/0xFF
_SQUARE_LO = bytes(x * x & 0xFF for x in range(256))
_SQUARE_HI = bytes(x * x >> 8 for x in range(256))


def _row_starts(width: int, shape: tuple[int, int], first: int, end: int, r: int) -> range:
    """Offsets of pixel row r of each block row that holds one of blocks first..end-1."""
    bh, bw = shape
    per_row = width // bw
    return range((first // per_row * bh + r) * width, -(-end // per_row) * bh * width, bh * width)


def _raise_blocks(grid: bytearray, width: int, shape: tuple[int, int], pattern: bytes, k: int, message: bytes) -> None:
    """Raise the C pixels of each block whose message byte is 1 by k, saturating at 255, in place."""
    if 1 not in message:  # also covers a carrier narrower than one block, which takes no message
        return
    bh, bw = shape
    span, n = width // bw * bw, len(message)
    raised = bytes(min(x + k, 255) for x in range(256))
    mask = int.from_bytes(message.translate(_TO_FF), "little")
    for r in range(bh):
        starts = _row_starts(width, shape, 0, n, r)
        rows = bytearray().join([grid[at : at + span] for at in starts])
        for c in range(bw):
            if pattern[r * bw + c]:
                at = slice(c, c + n * bw, bw)
                old = rows[at]
                before = int.from_bytes(old, "little")
                after = int.from_bytes(old.translate(raised), "little")
                rows[at] = (((after ^ before) & mask) ^ before).to_bytes(n, "little")
        for i, at in enumerate(starts):
            grid[at : at + span] = rows[i * span : (i + 1) * span]


def _byte_width(value: int) -> int:
    return (value.bit_length() + 7) // 8


def _field(total: int, lane: int, offset: int, width: int, count: int) -> tuple[int, ...]:
    """Bytes offset..offset+width of each of count lanes of total, as unsigned integers."""
    data = total.to_bytes(count * lane, "little")
    wide = bytearray(8 * count)
    for j in range(width):
        wide[j::8] = data[offset + j :: lane]
    return struct.unpack(f"<{count}Q", wide)


def _block_q(pixels: bytes, width: int, shape: tuple[int, int], pattern: bytes, first: int, count: int) -> array:
    """q of each of the count blocks from block first on: exact integer moments, then _q's float steps.

    The moments are summed in the lanes of two big integers, one for the C
    positions and one for D (SIMD within a register).  A lane holds one
    block's pixel sum in its low bytes and its sum of squares above them,
    each field wide enough for a whole block, so C and D lanes add safely.
    """
    if count == 0:  # also covers a carrier narrower than one block, which holds no block
        return array("d")
    bh, bw = shape
    span, skip = width // bw * bw, first % (width // bw) * bw
    low = _byte_width(bh * bw * 255)
    lane = low + _byte_width(bh * bw * 255 * 255)
    buf = bytearray(count * lane)
    sums = [0, 0]  # the D lanes, the C lanes
    for r in range(bh):
        rows = b"".join([pixels[at : at + span] for at in _row_starts(width, shape, first, first + count, r)])
        for c in range(bw):
            values = rows[skip + c : skip + c + count * bw : bw]
            buf[0::lane] = values
            buf[low::lane] = values.translate(_SQUARE_LO)
            buf[low + 1 :: lane] = values.translate(_SQUARE_HI)
            sums[pattern[r * bw + c]] += int.from_bytes(buf, "little")
    sum_d, sum_c = sums
    half = bh * bw // 2
    moments = (
        _field(sum_c, lane, 0, low, count),
        _field(sum_d, lane, 0, low, count),
        _field(sum_c + sum_d, lane, low, lane - low, count),
    )
    return array("d", map(functools.partial(_q, half, math.sqrt(half - 1)), *moments))


def _q(half: int, root: float, sum_c: int, sum_d: int, sum_sq: int) -> float:
    """q = (S1c - S1d) * sqrt(h - 1) / sqrt(N), N = h*(S2c + S2d) - S1c**2 - S1d**2; 0 or signed infinity if N = 0."""
    diff = sum_c - sum_d
    spread = half * sum_sq - sum_c * sum_c - sum_d * sum_d
    if spread:
        return diff * root / math.sqrt(spread)
    return 0.0 if diff == 0 else math.copysign(math.inf, diff)


def block_capacity(carrier: Carrier, params: StatParams) -> int:
    """Number of full blocks in row-major block order; edge remainders are skipped."""
    return (carrier.height // params.block_rows) * (carrier.width // params.block_cols)


def _require_capacity(carrier: Carrier, params: StatParams, needed: int) -> None:
    have = block_capacity(carrier, params)
    if needed > have:
        raise CarrierTooSmallError(
            f"message needs {_shown(needed)} blocks of {_shape(params.block_cols, params.block_rows)}, carrier has {have}"
        )


def embed_message(carrier: Carrier, key: bytes, bits: MessageLayout, params: StatParams) -> Carrier:
    """Embed one bit per block; blocks past the message and edge remainders stay bit-identical."""
    _require_capacity(carrier, params, bits.block_count)
    grid = bytearray(carrier.pixels)
    shape, pattern = (params.block_rows, params.block_cols), derive_pattern(key, params.block_len).bits
    _raise_blocks(grid, carrier.width, shape, pattern, params.k, bytes(bits.message_bits))
    return Carrier(width=carrier.width, height=carrier.height, pixels=bytes(grid))


def detect_blocks(carrier: Carrier, key: bytes, bit_count: int, params: StatParams, first: int = 0) -> tuple[array, array]:
    """q (``array('d')``) and the detected bit (``array('B')``) of each of the bit_count blocks from block first on.

    q standardizes the C-minus-D mean difference by unbiased sample variances; a block with
    no spread gives 0, or a signed infinity if the means differ.  A bit is 1 iff q > z_alpha.
    """
    if bit_count < 0:
        raise ValueError(f"bit count must be non-negative, got {_shown(bit_count)}")
    if first < 0:
        raise ValueError(f"first block must be non-negative, got {_shown(first)}")
    _require_capacity(carrier, params, first + bit_count)
    shape = (params.block_rows, params.block_cols)
    q = _block_q(carrier.pixels, carrier.width, shape, derive_pattern(key, params.block_len).bits, first, bit_count)
    return q, array("B", map(params.z_alpha.__lt__, q))


def normal_quantile(p: float) -> float:
    """Standard normal quantile z with Phi(z) = p, for p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {_shown(p)}")
    from statistics import NormalDist  # about 4 ms to import (-X importtime, python -B); only detection needs it

    return NormalDist().inv_cdf(p)
