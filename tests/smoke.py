"""Smoke run of every pestego command on the standard library alone.

    python tests/smoke.py

Each command runs as ``python -S -W error -m pestego.cli`` with ``src/`` on
PYTHONPATH, so the run needs no installed package and no ``site`` module:
it shows that pestego works with ``dependencies = []``, that no command
needs ``site`` or what a site hook loads, and that no command emits a
warning.
The PE cover comes from ``pe_builder``.  The raster carriers are
constant-gray PGMs carrying bits in 8x8 blocks: 16,384 in a 1024x1024 one,
and 8,192 side by side in the one block row of a 65536x8 one.  Every block
reads q = 0 (bit 0) or q = +inf (bit 1), so the round trip is exact, and a
read that long is split across CPUs where more than one is usable.  Each
round trip runs again on the headerless ``--raw`` grid of the same pixels,
which must come out as the marked PGM's raster, and once more from the
message written in CRLF lines, which must give the same stego and bits.
``stat-extract`` takes no ``--k``, and a flag counts only under its full
name, so ``stat-extract ... --k 10`` must exit 2 with nothing on stdout
rather than be read as ``--key 10``.  An ``embed`` and a
``stat-embed`` whose ``--out`` name is not UTF-8 run with
``PYTHONIOENCODING=utf-8``, a strict UTF-8 stdout: each must succeed and
print the name's own bytes in its ``wrote`` line.  Seven inputs are refused
with exit 2, one stderr line under 1 KB, and nothing on stdout: a 1 MiB PGM
whose header lacks the byte after ``255``, a PGM one byte short of its
raster, a ``--bits`` of 100,000 characters, a ``--key`` of ``0x`` and
100,000 characters that are not hex digits, a ``--k`` of ``-`` and 4,300
nines, a ``capacity --name`` of 100,000 bytes that are not UTF-8, and an
``inspect --strict`` of a cover with 2,000 misaligned sections (3,984
layout warnings).
pytest does not collect this file; it exits non-zero on the first mismatch.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS))

from pe_builder import SectionPlan, build_pe  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(TESTS.parent / "src"), os.environ.get("PYTHONPATH")])))
GRAY = 128  # GRAY + k stays below 255, so no pixel saturates
PESTEGO = [sys.executable, "-S", "-W", "error", "-m", "pestego.cli"]


def pestego(*argv, expect: int = 0) -> str:
    """stdout of one command, after checking its exit code and that a success printed nothing to stderr."""
    proc = subprocess.run([*PESTEGO, *map(str, argv)], capture_output=True, text=True, env=ENV)
    if proc.returncode != expect or (expect == 0 and proc.stderr):
        sys.exit(f"pestego {' '.join(map(str, argv))}: exit {proc.returncode}, expected {expect}\n{proc.stderr}")
    return proc.stdout


def check(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"smoke check failed: {what}")


def wrote_name_not_utf8(*argv, out: bytes) -> None:
    """Under a strict UTF-8 stdout, a command whose --out is not UTF-8 writes it and prints its bytes."""
    proc = subprocess.run(
        [*PESTEGO, *map(os.fsencode, argv), "--out", out],
        capture_output=True,
        env=dict(ENV, PYTHONIOENCODING="utf-8"),
    )
    what = f"pestego {argv[0]} --out {out!r}"
    check(proc.returncode == 0 and not proc.stderr, f"{what}: exit {proc.returncode}\n{proc.stderr!r}")
    check(os.path.isfile(out), f"{what} writes its output")
    check(proc.stdout.splitlines()[-1] == b"wrote " + out, f"{what} prints the name's own bytes")


def refused_in_one_short_line(*argv) -> None:
    """A refused command exits 2, prints nothing to stdout, and one line of less than 1 KB to stderr."""
    proc = subprocess.run([*PESTEGO, *map(str, argv)], capture_output=True, env=ENV)
    what = f"pestego {' '.join(map(str, argv))}"
    check(proc.returncode == 2 and not proc.stdout, f"{what}: exit {proc.returncode}, stdout {proc.stdout[:80]!r}")
    check(proc.stderr.count(b"\n") == 1 and proc.stderr.endswith(b"\n"), f"{what}: stderr {proc.stderr[:200]!r}")
    check(len(proc.stderr) < 1024, f"{what}: a stderr line of {len(proc.stderr)} bytes")


def stat_round_trip(work: Path, width: int, height: int, rng: random.Random) -> tuple[Path, str]:
    """Mark every 8x8 block of a constant-gray carrier with a random bit, as a PGM and as a --raw grid,
    and check that stat-extract reads them all."""
    carrier, marked, bits = work / f"gray{width}.pgm", work / f"marked{width}.pgm", work / "bits.txt"
    header = b"P5\n%d %d\n255\n" % (width, height)
    carrier.write_bytes(header + bytes([GRAY]) * (width * height))
    message = "".join(rng.choice("01") for _ in range((width // 8) * (height // 8)))
    bits.write_text(message)
    pestego("stat-embed", "--in", carrier, "--key", "smoke", "--payload", bits, "--out", marked)
    read = pestego("stat-extract", "--in", marked, "--key", "smoke", "--bits", len(message))
    check(read == f"bits: {message}\n", f"stat-extract reads back every bit embedded in {width}x{height}")

    grid, marked_grid, raw = work / f"gray{width}.bin", work / f"marked{width}.bin", ("--raw", f"{width}x{height}")
    grid.write_bytes(bytes([GRAY]) * (width * height))
    pestego("stat-embed", "--in", grid, *raw, "--key", "smoke", "--payload", bits, "--out", marked_grid)
    check(header + marked_grid.read_bytes() == marked.read_bytes(), "stat-embed --raw writes the PGM's raster")
    read = pestego("stat-extract", "--in", marked_grid, *raw, "--key", "smoke", "--bits", len(message))
    check(read == f"bits: {message}\n", f"stat-extract --raw reads back every bit embedded in {width}x{height}")
    return marked, message


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        cover, stego, secret, out = work / "cover.exe", work / "stego.exe", work / "secret.bin", work / "out"
        built = build_pe(num_sections=2, header_slack=0x88)
        cover.write_bytes(built.data)
        secret.write_bytes(bytes(range(50)))

        pestego("inspect", "--in", cover)
        pestego("capacity", "--in", cover, "--name", "secret.bin")
        pestego("embed", "--in", cover, "--payload", secret, "--out", stego)
        pestego("extract", "--in", stego, "--out", out)
        check((out / "secret.bin").read_bytes() == secret.read_bytes(), "extract recovers the embedded bytes")
        pestego("verify", cover, stego)
        wrote_name_not_utf8("embed", "--in", cover, "--payload", secret, out=os.fsencode(work) + b"/\xff.exe")
        pestego("embed", "--in", stego, "--payload", secret, "--out", work / "again.exe", expect=4)
        pestego("extract", "--in", cover, "--out", out, expect=5)
        cut, flipped = work / "cut.exe", work / "flipped.exe"
        cut.write_bytes(built.data[: built.e_lfanew + 4 + 10])  # ends inside the COFF header
        pestego("inspect", "--in", cut, expect=2)
        stego_bytes = bytearray(stego.read_bytes())
        stego_bytes[stego_bytes.index(b"SPE1") + 6 + len("secret.bin") + 4] ^= 0xFF  # the first payload data byte
        flipped.write_bytes(stego_bytes)
        pestego("extract", "--in", flipped, "--out", out, expect=6)

        rng = random.Random(16)
        marked, message = stat_round_trip(work, 1024, 1024, rng)
        crlf, crlf_marked = work / "bits-crlf.txt", work / "marked-crlf.pgm"
        crlf.write_bytes(b"".join(message[i : i + 64].encode("ascii") + b"\r\n" for i in range(0, len(message), 64)))
        pestego("stat-embed", "--in", work / "gray1024.pgm", "--key", "smoke", "--payload", crlf, "--out", crlf_marked)
        check(crlf_marked.read_bytes() == marked.read_bytes(), "a CRLF message embeds as its LF twin does")
        read = pestego("stat-extract", "--in", crlf_marked, "--key", "smoke", "--bits", len(message))
        check(read == f"bits: {message}\n", "stat-extract reads back every bit of a CRLF message")
        no_k = pestego("stat-extract", "--in", marked, "--key", "smoke", "--bits", 1, "--k", 10, expect=2)
        check(no_k == "", "stat-extract refuses --k, which it does not take, and prints nothing")
        stat_flags = ("--in", marked, "--key", "smoke", "--payload", work / "bits.txt")
        wrote_name_not_utf8("stat-embed", *stat_flags, out=os.fsencode(work) + b"/\xff.pgm")
        strict = pestego("stat-extract", "--in", marked, "--key", "smoke", "--bits", len(message), "--alpha", "1e-3")
        check(strict == f"bits: {message}\n", "a stricter --alpha reads the same bits, since every q is 0 or +inf")
        pestego("stat-extract", "--in", marked, "--key", "smoke", "--bits", 1, "--alpha", "0_0.05", expect=2)
        pestego("stat-extract", "--in", marked, "--key", "smoke", "--bits", 1, "--block", "+8x8", expect=2)
        pestego("stat-extract", "--in", marked, "--key", "smoke", "--bits", "1_6", expect=2)
        stat_round_trip(work, 65536, 8, rng)  # one block row, which a 2-CPU read also splits
        no_separator = work / "no-separator.pgm"
        no_separator.write_bytes(b"P5\n1024 1024\n255" + bytes(1024 * 1024))  # the last token runs on through the raster
        refused_in_one_short_line("stat-extract", "--in", no_separator, "--key", "smoke", "--bits", 1)
        one_short = work / "one-short.pgm"
        one_short.write_bytes(b"P5\n1024 1024\n255\n" + bytes(1024 * 1024 - 1))
        refused_in_one_short_line("stat-extract", "--in", one_short, "--key", "smoke", "--bits", 1)
        refused_in_one_short_line("stat-extract", "--in", marked, "--key", "smoke", "--bits", "x" * 100_000)
        refused_in_one_short_line("stat-extract", "--in", marked, "--key", "0x" + "g" * 100_000, "--bits", 1)
        refused_in_one_short_line("stat-embed", *stat_flags, "--k", "-" + "9" * 4300, "--out", work / "k.pgm")
        refused_in_one_short_line("capacity", "--in", cover, "--name", "\udcff" * 100_000)  # the bytes 0xFF
        many = work / "many-sections.exe"
        many.write_bytes(build_pe(sections=[SectionPlan(raw_size=500) for _ in range(2000)]).data)
        refused_in_one_short_line("inspect", "--in", many, "--strict")
    print("smoke: every command ran as expected")


if __name__ == "__main__":
    main()
