"""Known-answer vectors: the pinned contracts, checked against tests/vectors/.

The JSON files were written once by tests/make_vectors.py; each states the
contract it pins.  A failure here means a contract changed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from pestego import PayloadRecord, cli, hide, parse_pe, serialize
from pestego.statstego import Carrier, MessageLayout, StatParams, derive_pattern, detect_blocks, embed_message

VECTORS = Path(__file__).parent / "vectors"


def _cases(name: str) -> list[dict]:
    return json.loads((VECTORS / name).read_text(encoding="utf-8"))["cases"]


@pytest.mark.parametrize("case", _cases("patterns.json"), ids=lambda c: f"{c['key_text'] or 'empty'}-{c['block_len']}")
def test_pattern(case):
    key = bytes.fromhex(case["key_hex"])
    assert cli._parse_key(case["key_text"]) == key
    assert "".join(map(str, derive_pattern(key, case["block_len"]).bits)) == case["bits"]


@pytest.mark.parametrize("case", _cases("statistic.json"), ids=lambda c: c["block"])
def test_statistic(case):
    key = cli._parse_key(case["key_text"])
    bw, bh = map(int, case["block"].split("x"))
    cover = Carrier(case["width"], case["height"], bytes.fromhex(case["cover_hex"]))
    params = StatParams(block_rows=bh, block_cols=bw, k=case["k"])
    stego = embed_message(cover, key, MessageLayout.from_text(case["message"]), params)
    assert hashlib.sha256(stego.pixels).hexdigest() == case["stego_sha256"]
    for alpha, expected in case["bits"].items():
        q, bits = detect_blocks(stego, key, len(case["message"]), StatParams(block_rows=bh, block_cols=bw, alpha=float(alpha)))
        assert [x.hex() for x in q.tolist()] == case["q_hex"]
        assert "".join(map(str, bits.tolist())) == expected


@pytest.mark.parametrize("case", _cases("records.json"), ids=lambda c: str(len(c["name"].encode("utf-8"))))
def test_record(case):
    data, record = bytes.fromhex(case["data_hex"]), bytes.fromhex(case["record_hex"])
    assert PayloadRecord(case["name"], data).encode() == record
    assert PayloadRecord.decode(record + b"\x00trailing") == (case["name"], data)


def test_embed_and_verify_out(tmp_path, capsys):
    doc = json.loads((VECTORS / "pe.json").read_text(encoding="utf-8"))
    before = bytes.fromhex(doc["cover_hex"])
    for i, case in enumerate(doc["cases"]):
        after = serialize(hide(parse_pe(before), case["name"], bytes.fromhex(case["data_hex"]), force=case["force"]))
        assert hashlib.sha256(after).hexdigest() == case["stego_sha256"]
        paths = [tmp_path / f"{i}-before.exe", tmp_path / f"{i}-after.exe", tmp_path / f"{i}-report.txt"]
        paths[0].write_bytes(before)
        paths[1].write_bytes(after)
        assert cli.main(["verify", str(paths[0]), str(paths[1]), "--out", str(paths[2])]) == 0
        assert paths[2].read_text(encoding="utf-8") == case["verify_out"]
        before = after
