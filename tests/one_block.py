"""One-block carriers: a single block run through the carrier-level statistical API.

A block of shape (rows, cols) is the carrier of width cols and height rows
that holds exactly one block, so ``embed_message`` and ``detect_blocks``
apply to it with the pattern they derive from the key.
"""

from __future__ import annotations

from pestego import Carrier, MessageLayout, StatParams, detect_blocks, embed_message


def embed_block(values: bytes, shape: tuple[int, int], key: bytes, k: int, bit: int) -> bytes:
    """The block's pixels after embedding one bit with strength k."""
    rows, cols = shape
    carrier = Carrier(cols, rows, bytes(values))
    return embed_message(carrier, key, MessageLayout((bit,)), StatParams(rows, cols, k=k)).pixels


def detect_block(values: bytes, shape: tuple[int, int], key: bytes, alpha: float = 0.05) -> tuple[float, int]:
    """(q, detected bit) of the block at level alpha."""
    rows, cols = shape
    q, bits = detect_blocks(Carrier(cols, rows, bytes(values)), key, 1, StatParams(rows, cols, alpha=alpha))
    return q[0], bits[0]
