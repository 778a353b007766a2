"""Statistical block steganography over 8-bit raster carriers.

One message bit goes into one block: for a 1 bit, a key-selected half of
the block's pixels (the C set) is raised by a strength k while the other
half (D) stays untouched; for a 0 bit the block is left alone.  The
receiver recomputes the split from the shared key and standardizes the
difference of the C and D sample means; on clean blocks that statistic is
asymptotically standard normal, so a one-sided test against the upper
normal quantile recovers the bit without the original carrier.

Pattern derivation is fixed so independent implementations agree byte for
byte: FNV-1a (64-bit) hashes the key to a seed, splitmix64 expands the
seed into a stream, and a Fisher-Yates shuffle with rejection-sampled
bounded draws permutes a balanced 0/1 vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BlockTooSmallError,
    CarrierTooSmallError,
    LengthMismatchError,
    OddBlockLengthError,
)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def key_seed(key: bytes) -> int:
    """64-bit FNV-1a of the key bytes; the documented key-to-seed mix."""
    h = _FNV_OFFSET
    for b in key:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


class _SplitMix64:
    """Tiny keyed generator; chosen over random.Random so the pattern
    stream is pinned by this module, not by interpreter internals."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        # rejection keeps the bounded draw exactly uniform
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            value = self.next_u64()
            if value < limit:
                return value % bound


@dataclass(frozen=True)
class KeyPattern:
    """Balanced binary mask selecting the C half of a block."""

    bits: bytes  # one byte per position, each 0 or 1

    def __post_init__(self):
        if self.bits.translate(None, b"\x00\x01"):
            raise ValueError("pattern bits must be 0 or 1")
        if 2 * self.bits.count(1) != len(self.bits):
            raise ValueError("pattern must hold exactly as many ones as zeros")

    def __len__(self) -> int:
        return len(self.bits)


def derive_pattern(key: bytes, block_len: int) -> KeyPattern:
    """Deterministically derive the balanced mask for (key, block_len)."""
    if block_len % 2:
        raise OddBlockLengthError(f"block length {block_len} is odd; patterns need an even length")
    if block_len < 2:
        raise ValueError(f"block length must be >= 2, got {block_len}")
    bits = bytearray([1] * (block_len // 2) + [0] * (block_len // 2))
    rng = _SplitMix64(key_seed(key))
    for i in range(block_len - 1, 0, -1):
        j = rng.below(i + 1)
        bits[i], bits[j] = bits[j], bits[i]
    return KeyPattern(bytes(bits))


@dataclass(frozen=True)
class Carrier:
    """Rectangular 8-bit carrier, pixels row-major."""

    width: int
    height: int
    pixels: bytes

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"carrier dimensions must be positive, got {self.width}x{self.height}")
        if len(self.pixels) != self.width * self.height:
            raise ValueError(
                f"carrier of {self.width}x{self.height} needs {self.width * self.height} pixels, got {len(self.pixels)}"
            )

    def as_array(self) -> np.ndarray:
        return np.frombuffer(self.pixels, dtype=np.uint8).reshape(self.height, self.width)


@dataclass(frozen=True)
class CarrierBlock:
    """One block cut from a carrier; values row-major within the block."""

    index: int
    values: bytes
    shape: tuple[int, int]  # (rows, cols)

    def __post_init__(self):
        rows, cols = self.shape
        if rows * cols != len(self.values):
            raise ValueError(f"shape {self.shape} does not match {len(self.values)} values")
        if len(self.values) % 2:
            raise OddBlockLengthError(f"block length {len(self.values)} is odd")


@dataclass(frozen=True)
class StatParams:
    """Embedding strength and detection threshold settings."""

    block_rows: int = 8
    block_cols: int = 8
    k: int = 10
    alpha: float = 0.05

    def __post_init__(self):
        """Refuse every setting that embedding or detection could not use, so both refuse alike."""
        if self.block_rows < 1 or self.block_cols < 1:
            raise ValueError("block dimensions must be positive")
        if self.block_len % 2:
            raise OddBlockLengthError(f"block of {self.block_rows}x{self.block_cols} has odd length")
        if self.block_len < 4:
            raise BlockTooSmallError(
                f"block of {self.block_rows}x{self.block_cols} is too small: need at least 2 values per set"
            )
        if self.block_len > _MAX_BLOCK_LEN:
            raise ValueError(
                f"block of {self.block_rows}x{self.block_cols} exceeds {_MAX_BLOCK_LEN} pixels,"
                " past which the detection sums overflow 64 bits"
            )
        if self.k < 1:
            raise ValueError(f"strength k must be a positive integer, got {self.k}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if 1.0 - self.alpha == 1.0:
            raise ValueError(f"alpha {self.alpha!r} is too small: 1 - alpha rounds to 1, so z_alpha is not finite")

    @property
    def block_len(self) -> int:
        return self.block_rows * self.block_cols

    @property
    def z_alpha(self) -> float:
        """One-sided decision threshold, the upper normal quantile."""
        return normal_quantile(1.0 - self.alpha)


@dataclass(frozen=True)
class MessageLayout:
    """The bit sequence to embed, one bit per carrier block."""

    message_bits: tuple[int, ...]

    def __post_init__(self):
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


@dataclass(frozen=True)
class DetectionStatistic:
    """Standardized C-minus-D mean difference for one block."""

    q: float


def _check_lengths(block: CarrierBlock, pattern: KeyPattern) -> None:
    if len(pattern) != len(block.values):
        raise LengthMismatchError(f"pattern length {len(pattern)} != block length {len(block.values)}")


# The block kernel.  Embedding and detection work on an (n_blocks, block_len)
# uint8 array holding one block per row, in row-major block order.  Detection
# lays each row out C half first, so both halves are slices rather than
# copies.  The per-block API is a one-row call into the same functions, so
# batched and scalar results cannot differ.

_SQUARES = np.arange(256, dtype=np.uint16) ** 2  # 255**2 fits 16 bits
# Largest block whose int64 moments cannot overflow: with h = block_len / 2,
# the spread N below is at most 2 * h**2 * 255**2, which stays under 2**63.
_MAX_BLOCK_LEN = 1 << 24


def _mask(pattern: KeyPattern) -> np.ndarray:
    return np.frombuffer(pattern.bits, dtype=np.uint8).astype(bool)


def _c_first(pattern: KeyPattern) -> np.ndarray:
    """Block positions of the C half, then of the D half."""
    return np.argsort(~_mask(pattern), kind="stable")


def _raise_rows(rows: np.ndarray, mask: np.ndarray, k: int) -> np.ndarray:
    """Every row with its C positions raised by k, saturating at 255."""
    step = min(k, 255)  # min(x + k, 255) == min(x, 255 - step) + step for uint8 x, without widening
    return np.where(mask, np.minimum(rows, 255 - step) + step, rows)


def _moments(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact int64 (S1c, S1d, N) of C-first rows: the C and D sums, and h*(h-1)*(var_c + var_d)."""
    half = rows.shape[1] // 2
    c, d = rows[:, :half], rows[:, half:]
    sum_c = c.sum(axis=1, dtype=np.int64)
    sum_d = d.sum(axis=1, dtype=np.int64)
    spread_c = half * _SQUARES[c].sum(axis=1, dtype=np.int64) - sum_c * sum_c
    spread_d = half * _SQUARES[d].sum(axis=1, dtype=np.int64) - sum_d * sum_d
    return sum_c, sum_d, spread_c + spread_d


def _q(sum_c: np.ndarray, sum_d: np.ndarray, spread: np.ndarray, half: int) -> np.ndarray:
    """q = (S1c - S1d) * sqrt(h - 1) / sqrt(N); 0 or a signed infinity when N = 0."""
    diff = sum_c - sum_d
    with np.errstate(divide="ignore", invalid="ignore"):
        q = diff * math.sqrt(half - 1) / np.sqrt(spread)
    return np.where(spread > 0, q, np.where(diff == 0, 0.0, np.copysign(np.inf, diff)))


def _block_grid(grid: np.ndarray, params: StatParams) -> np.ndarray:
    """View of the full blocks as (block row, block col, rows, cols); edge remainders left out."""
    bh, bw = params.block_rows, params.block_cols
    rows, cols = grid.shape[0] // bh, grid.shape[1] // bw
    return grid[: rows * bh, : cols * bw].reshape(rows, bh, cols, bw).transpose(0, 2, 1, 3)


def embed_bit(block: CarrierBlock, pattern: KeyPattern, k: int, bit: int) -> CarrierBlock:
    """Raise the C half by k (saturating at 255) for a 1 bit; no-op for 0."""
    _check_lengths(block, pattern)
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    if k < 1:
        raise ValueError(f"strength k must be a positive integer, got {k}")
    if bit == 0:
        return block
    values = np.frombuffer(block.values, dtype=np.uint8)
    marked = _raise_rows(values[None, :], _mask(pattern), k)
    return CarrierBlock(index=block.index, values=marked.tobytes(), shape=block.shape)


def statistic(block: CarrierBlock, pattern: KeyPattern) -> DetectionStatistic:
    """Standardize the C/D mean difference for one block.

    Uses unbiased sample variances (divisor n-1).  A constant block has no
    spread to standardize against: q is 0 when the set means agree and a
    signed infinity when they do not.
    """
    _check_lengths(block, pattern)
    half = len(block.values) // 2
    if half < 2:
        raise BlockTooSmallError(f"need at least 2 values per set, block has {half}")
    values = np.frombuffer(block.values, dtype=np.uint8)
    return DetectionStatistic(q=_q(*_moments(values[_c_first(pattern)][None, :]), half).item())


def detect_bit(stat: DetectionStatistic, params: StatParams) -> int:
    """One-sided test: declare a mark only when q strictly exceeds z_alpha."""
    return 1 if stat.q > params.z_alpha else 0


def block_capacity(carrier: Carrier, params: StatParams) -> int:
    """Number of full blocks in row-major block order; edge remainders are skipped."""
    return (carrier.height // params.block_rows) * (carrier.width // params.block_cols)


def _require_capacity(carrier: Carrier, params: StatParams, needed: int) -> None:
    have = block_capacity(carrier, params)
    if needed > have:
        raise CarrierTooSmallError(
            f"message needs {needed} blocks of {params.block_rows}x{params.block_cols}, carrier has {have}"
        )


def embed_message(carrier: Carrier, key: bytes, bits: MessageLayout, params: StatParams) -> Carrier:
    """Embed one bit per block; blocks past the message and edge remainders stay bit-identical."""
    _require_capacity(carrier, params, bits.block_count)
    mask = _mask(derive_pattern(key, params.block_len))
    grid = carrier.as_array().copy()
    blocks = _block_grid(grid, params)  # a view: writing to it writes the grid
    marked = np.flatnonzero(np.frombuffer(bytes(bits.message_bits), dtype=np.uint8))
    at = np.divmod(marked, blocks.shape[1])
    rows = blocks[at].reshape(len(marked), params.block_len)
    blocks[at] = _raise_rows(rows, mask, params.k).reshape(-1, params.block_rows, params.block_cols)
    return Carrier(width=carrier.width, height=carrier.height, pixels=grid.tobytes())


def _detection_rows(carrier: Carrier, key: bytes, bit_count: int, params: StatParams) -> np.ndarray:
    """The first bit_count blocks, one C-first row each; only the block rows holding them are gathered."""
    if bit_count < 0:
        raise ValueError(f"bit count must be non-negative, got {bit_count}")
    _require_capacity(carrier, params, bit_count)
    r, c = np.divmod(_c_first(derive_pattern(key, params.block_len)), params.block_cols)
    blocks = _block_grid(carrier.as_array(), params)
    # a carrier narrower than one block has no block columns, and then bit_count is 0
    block_rows = -(-bit_count // max(blocks.shape[1], 1))
    return blocks[:block_rows, :, r, c].reshape(-1, params.block_len)[:bit_count]


def detect_blocks(carrier: Carrier, key: bytes, bit_count: int, params: StatParams) -> tuple[np.ndarray, np.ndarray]:
    """q (float64) and the detected bit (uint8) of each of the first bit_count blocks.

    The batched form of statistic and detect_bit, with z_alpha computed once.
    """
    q = _q(*_moments(_detection_rows(carrier, key, bit_count, params)), params.block_len // 2)
    return q, (q > params.z_alpha).astype(np.uint8)


def extract_message(carrier: Carrier, key: bytes, bit_count: int, params: StatParams) -> list[int]:
    """Recover bit_count bits by testing each block's statistic."""
    return detect_blocks(carrier, key, bit_count, params)[1].tolist()


def normal_quantile(p: float) -> float:
    """Standard normal quantile z with Phi(z) = p, for p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
    from statistics import NormalDist  # about 5 ms to import; only detection needs it

    return NormalDist().inv_cdf(p)
