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
