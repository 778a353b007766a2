"""The README's "Library use" examples run as written, so the documented API cannot drift from the code."""

from __future__ import annotations

import re
from pathlib import Path

from pe_builder import build_pe

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_blocks() -> list[str]:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n")[1].split("\n## ")[0]
    return re.findall(r"^```python\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)


def test_library_use_examples_run(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "app.exe").write_bytes(build_pe(header_slack=0x88).data)
    (tmp_path / "cover.pgm").write_bytes(b"P5\n64 64\n255\n" + bytes([128]) * (64 * 64))
    blocks = library_use_blocks()
    assert len(blocks) == 3
    scopes = []
    for i, block in enumerate(blocks):  # in order: the second reads the file the first writes
        scopes.append({})
        exec(compile(block, f"README.md, Library use example {i + 1}", "exec"), scopes[-1])
    assert scopes[1]["name"] == "notes.txt" and scopes[1]["data"] == b"attack at dawn"
    # a constant-gray cover reads q = 0 on a 0 block and q = +inf on a 1 block, so the bits come back exactly
    assert scopes[2]["message"] == [1, 0, 1, 1]
    assert (tmp_path / "stego.pgm").read_bytes()[:13] == b"P5\n64 64\n255\n"
