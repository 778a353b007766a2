"""Write the known-answer vectors under tests/vectors/.

    PYTHONPATH=src python tests/make_vectors.py

The vectors pin five contracts that independent implementations must
reproduce: pattern derivation, the q statistic and its one-sided test,
the stego carrier bytes, the SPE1 record bytes, and the ``verify --out``
report.  They were generated once and are read by tests/test_vectors.py.
Do not regenerate them to make a failing test pass: a vector changes only
when its contract changes on purpose, and the diff then shows what moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from pe_builder import build_pe

from pestego import PayloadRecord, cli, hide, parse_pe, serialize
from pestego.statstego import Carrier, MessageLayout, StatParams, derive_pattern, detect_blocks, embed_message

VECTORS = Path(__file__).parent / "vectors"
ALPHAS = ("0.05", "0.001")

PATTERN_KEYS = ("", "secret", "ключ", "0x00ff7a", "0xDEADBEEF")
PATTERN_LENGTHS = (4, 24, 64, 256)

# (block "WxH", carrier width, height, key text, k, seed); every carrier has edge remainders
STAT_CASES = (
    ("8x8", 36, 33, "secret", 10, 1),
    ("4x6", 26, 25, "0x00ff7a", 25, 2),
    ("16x16", 66, 49, "ключ", 3, 3),
)

RECORDS = (
    ("a", b""),
    ("secret.bin", bytes(range(50))),
    ("é" * 127 + "z", b"\x00\xffpestego\n"),  # 255 bytes of UTF-8, the name limit
)


def _write(name: str, doc: dict) -> None:
    (VECTORS / name).write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


def pattern_vectors() -> dict:
    cases = []
    for key_text in PATTERN_KEYS:
        key = cli._parse_key(key_text)
        for block_len in PATTERN_LENGTHS:
            bits = derive_pattern(key, block_len).bits
            cases.append({"key_text": key_text, "key_hex": key.hex(), "block_len": block_len,
                          "bits": "".join(map(str, bits))})
    return {
        "contract": "derive_pattern: FNV-1a 64 key seed, splitmix64 stream, Fisher-Yates shuffle of a balanced"
        " 0/1 vector; bits[i] = 1 puts block position i in the C half",
        "cases": cases,
    }


def _cover(block: str, width: int, height: int, key: bytes, seed: int) -> tuple[bytearray, list[int]]:
    """Seeded pixels and message bits, with special blocks at the first five block indices.

    Block 0 is constant with bit 0 (q = 0), block 1 constant with bit 1
    (q = +inf once marked), block 2 has constant but unequal halves (q = -inf),
    block 3 is near 255 with bit 1 (the mark saturates), block 4 is all 255
    with bit 1 (fully saturated, q = 0).  The rest are random.
    """
    bw, bh = map(int, block.split("x"))
    rng = random.Random(seed)
    pixels = bytearray(rng.randrange(90, 170) for _ in range(width * height))
    cols = width // bw
    count = cols * (height // bh)
    bits = [0, 1, 0, 1, 1] + [rng.randrange(2) for _ in range(count - 5)]
    mask = derive_pattern(key, bw * bh).bits
    for index, fill in enumerate(
        (
            lambda pos: 77,
            lambda pos: 120,
            lambda pos: 10 if mask[pos] else 90,
            lambda pos: rng.randrange(235, 256),
            lambda pos: 255,
        )
    ):
        top, left = (index // cols) * bh, (index % cols) * bw
        for r in range(bh):
            for c in range(bw):
                pixels[(top + r) * width + left + c] = fill(r * bw + c)
    return pixels, bits


def statistic_vectors() -> dict:
    cases = []
    for block, width, height, key_text, k, seed in STAT_CASES:
        key = cli._parse_key(key_text)
        bw, bh = map(int, block.split("x"))
        pixels, bits = _cover(block, width, height, key, seed)
        message = "".join(map(str, bits))
        cover = Carrier(width, height, bytes(pixels))
        params = StatParams(block_rows=bh, block_cols=bw, k=k)
        stego = embed_message(cover, key, MessageLayout.from_text(message), params)
        q, _ = detect_blocks(stego, key, len(bits), params)
        detected = {}
        for alpha in ALPHAS:
            alpha_params = StatParams(block_rows=bh, block_cols=bw, k=k, alpha=float(alpha))
            detected[alpha] = "".join(map(str, detect_blocks(stego, key, len(bits), alpha_params)[1].tolist()))
        cases.append({
            "block": block, "width": width, "height": height, "key_text": key_text, "k": k,
            "cover_hex": cover.pixels.hex(), "message": message,
            "stego_sha256": hashlib.sha256(stego.pixels).hexdigest(),
            "q_hex": [x.hex() for x in q.tolist()],
            "bits": detected,
        })
    return {
        "contract": "stat-embed and stat-extract: stego_sha256 is the SHA-256 of the stego pixels after"
        " embedding message with strength k; q_hex is float.hex of q for every block of the stego carrier"
        " in row-major block order; bits[alpha] is 1 where q > the upper normal quantile of 1 - alpha",
        "cases": cases,
    }


def record_vectors() -> dict:
    return {
        "contract": "SPE1 wire format: magic, u16 name_len, UTF-8 name, u32 data_len, data, CRC-32 of name ++ data",
        "cases": [
            {"name": name, "data_hex": data.hex(), "record_hex": PayloadRecord(name, data).encode().hex()}
            for name, data in RECORDS
        ],
    }


def _verify_text(before: bytes, after: bytes) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "before.exe", Path(tmp) / "after.exe", Path(tmp) / "report.txt"]
        paths[0].write_bytes(before)
        paths[1].write_bytes(after)
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["verify", str(paths[0]), str(paths[1]), "--out", str(paths[2])])
        if status != 0:
            sys.exit("verify refused a slack-confined pair")
        return paths[2].read_text(encoding="utf-8")


def pe_vectors() -> dict:
    cover = build_pe(header_slack=0x88).data
    stego = serialize(hide(parse_pe(cover), "secret.bin", bytes(range(50))))
    # hiding again over the occupied slack needs force, which clears the stale record bytes
    restego = serialize(hide(parse_pe(stego), "s", b"x", force=True))
    return {
        "contract": "embed and verify --out: stego_sha256 is the SHA-256 of the file hide writes; verify_out is"
        " the text verify --out writes for the (before, after) pair",
        "cover_hex": cover.hex(),
        "cases": [
            {"before": "cover", "name": "secret.bin", "data_hex": bytes(range(50)).hex(), "force": False,
             "stego_sha256": hashlib.sha256(stego).hexdigest(), "verify_out": _verify_text(cover, stego)},
            {"before": "previous stego", "name": "s", "data_hex": b"x".hex(), "force": True,
             "stego_sha256": hashlib.sha256(restego).hexdigest(), "verify_out": _verify_text(stego, restego)},
        ],
    }


def main() -> None:
    VECTORS.mkdir(exist_ok=True)
    _write("patterns.json", pattern_vectors())
    _write("statistic.json", statistic_vectors())
    _write("records.json", record_vectors())
    _write("pe.json", pe_vectors())


if __name__ == "__main__":
    main()
