from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import tempfile
import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pe_builder import SectionPlan, build_pe
from oracles import byte_diff_offsets

from pestego import (
    Carrier,
    CarrierTooSmallError,
    NameTooLongError,
    OddBlockLengthError,
    PeStegoError,
    StatParams,
    UnsafeNameError,
    capacity,
    cli,
    derive_pattern,
    detect_blocks,
    normal_quantile,
    parse_pe,
    section_slack,
)
from pestego.cli import main
from pestego.payload import safe_file_name
from pestego.pgm import write_carrier


@pytest.fixture
def cover(tmp_path, spec_pe):
    path = tmp_path / "cover.exe"
    path.write_bytes(spec_pe.data)
    return path


@pytest.fixture
def payload_file(tmp_path):
    path = tmp_path / "secret.bin"
    path.write_bytes(bytes(range(50)))
    return path


@pytest.fixture
def carrier_pgm(tmp_path):
    rng = np.random.default_rng(77)
    carrier = Carrier(64, 64, rng.integers(0, 16, size=64 * 64, dtype=np.uint8).tobytes())
    path = tmp_path / "carrier.pgm"
    write_carrier(str(path), carrier, False)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInspect:
    def test_fixture(self, capsys, cover, spec_pe):
        code, out, _ = run(capsys, "inspect", "--in", cover)
        assert code == 0
        assert "number of sections: 1" in out
        assert f"({spec_pe.header_slack_length} bytes)" in out
        assert ".text" in out

    def test_not_pe(self, capsys, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"XX not a pe")
        code, _, err = run(capsys, "inspect", "--in", bad)
        assert code == 2
        assert "error" in err

    def test_empty_file(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.write_bytes(b"")
        code, _, err = run(capsys, "inspect", "--in", empty)
        assert code == 2

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "inspect", "--in", tmp_path / "nope.exe")
        assert code == 2

    def test_strict_on_misaligned(self, capsys, tmp_path):
        built = build_pe(sections=[SectionPlan(raw_size=500)])
        path = tmp_path / "odd.exe"
        path.write_bytes(built.data)
        assert run(capsys, "inspect", "--in", path)[0] == 0
        assert run(capsys, "inspect", "--in", path, "--strict")[0] == 2


class TestCapacity:
    def test_named(self, capsys, cover):
        code, out, _ = run(capsys, "capacity", "--in", cover, "--name", "k.txt")
        assert code == 0
        assert "usable payload: 117 bytes" in out


class TestEmbedExtract:
    def test_embed_extract_roundtrip(self, capsys, tmp_path, cover, payload_file, spec_pe):
        stego = tmp_path / "stego.exe"
        code, out, _ = run(capsys, "embed", "--in", cover, "--payload", payload_file, "--out", stego)
        assert code == 0
        assert "50 data bytes" in out
        diff = byte_diff_offsets(spec_pe.data, stego.read_bytes())
        lo, hi = spec_pe.header_slack_offset, spec_pe.header_slack_offset + spec_pe.header_slack_length
        assert diff and all(lo <= d < hi for d in diff)

        outdir = tmp_path / "out"
        code, out, _ = run(capsys, "extract", "--in", stego, "--out", outdir)
        assert code == 0
        assert (outdir / "secret.bin").read_bytes() == payload_file.read_bytes()

    def test_oversize_payload(self, capsys, tmp_path, cover):
        big = tmp_path / "big.bin"
        big.write_bytes(bytes(4096))
        code, _, err = run(capsys, "embed", "--in", cover, "--payload", big, "--out", tmp_path / "s.exe")
        assert code == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.bin", "cover.exe"]

    def test_repeat_needs_force(self, capsys, tmp_path, cover, payload_file):
        stego = tmp_path / "stego.exe"
        assert run(capsys, "embed", "--in", cover, "--payload", payload_file, "--out", stego)[0] == 0
        code, _, _ = run(capsys, "embed", "--in", stego, "--payload", payload_file, "--out", tmp_path / "s2.exe")
        assert code == 4
        assert not (tmp_path / "s2.exe").exists()
        code, _, _ = run(
            capsys, "embed", "--in", stego, "--payload", payload_file, "--out", tmp_path / "s2.exe", "--force"
        )
        assert code == 0

    def test_extract_clean_cover(self, capsys, tmp_path, cover):
        code, _, err = run(capsys, "extract", "--in", cover, "--out", tmp_path / "out")
        assert code == 5

    def test_extract_tampered(self, capsys, tmp_path, cover, payload_file, spec_pe):
        stego = tmp_path / "stego.exe"
        run(capsys, "embed", "--in", cover, "--payload", payload_file, "--out", stego)
        data = bytearray(stego.read_bytes())
        data[spec_pe.header_slack_offset + 25] ^= 1
        stego.write_bytes(bytes(data))
        code, _, _ = run(capsys, "extract", "--in", stego, "--out", tmp_path / "out")
        assert code == 6

    def test_extract_replaces_existing_file(self, capsys, tmp_path, cover, payload_file):
        stego = tmp_path / "stego.exe"
        run(capsys, "embed", "--in", cover, "--payload", payload_file, "--out", stego)
        outdir = tmp_path / "out"
        outdir.mkdir()
        (outdir / "secret.bin").write_bytes(b"older and longer than the payload" * 4)
        assert run(capsys, "extract", "--in", stego, "--out", outdir)[0] == 0
        assert [p.name for p in outdir.iterdir()] == ["secret.bin"]
        assert (outdir / "secret.bin").read_bytes() == payload_file.read_bytes()

    @pytest.mark.parametrize("command", ["capacity", "embed"])
    def test_unsafe_name_refused(self, capsys, tmp_path, cover, payload_file, command):
        io_flags = ("--payload", payload_file, "--out", tmp_path / "s.exe") if command == "embed" else ()
        code, out, err = run(capsys, command, "--in", cover, "--name", "../evil", *io_flags)
        assert code == 1
        assert "unsafe file name" in err
        assert err == "pestego: error: refusing to store unsafe file name '../evil'\n"
        assert out == ""
        assert not (tmp_path / "s.exe").exists()

    def test_custom_name(self, capsys, tmp_path, cover, payload_file):
        stego = tmp_path / "stego.exe"
        run(capsys, "embed", "--in", cover, "--payload", payload_file, "--name", "renamed.dat", "--out", stego)
        outdir = tmp_path / "out"
        code, out, _ = run(capsys, "extract", "--in", stego, "--out", outdir)
        assert code == 0
        assert (outdir / "renamed.dat").exists()


class TestVerify:
    def test_confined(self, capsys, tmp_path, cover, payload_file):
        stego = tmp_path / "stego.exe"
        run(capsys, "embed", "--in", cover, "--payload", payload_file, "--out", stego)
        code, out, _ = run(capsys, "verify", cover, stego)
        assert code == 0
        assert "diff confined to slack:   yes" in out

    def test_not_confined(self, capsys, tmp_path, cover, spec_pe):
        tampered = bytearray(spec_pe.data)
        tampered[spec_pe.sections[0].pointer_to_raw_data] ^= 1
        bad = tmp_path / "tampered.exe"
        bad.write_bytes(bytes(tampered))
        code, out, _ = run(capsys, "verify", cover, bad)
        assert code == 1
        assert "NO" in out

    def test_report_file(self, capsys, tmp_path, cover, payload_file):
        stego = tmp_path / "stego.exe"
        run(capsys, "embed", "--in", cover, "--payload", payload_file, "--out", stego)
        report = tmp_path / "report.txt"
        code, _, _ = run(capsys, "verify", cover, stego, "--out", report)
        assert code == 0
        assert report.read_text().startswith("identical_headers=true\n")


class TestStatCommands:
    def test_roundtrip_pgm(self, capsys, tmp_path, carrier_pgm):
        bits = tmp_path / "bits.txt"
        bits.write_text("0110100110010110")
        out_pgm = tmp_path / "stego.pgm"
        code, out, _ = run(
            capsys, "stat-embed", "--in", carrier_pgm, "--key", "swordfish", "--payload", bits, "--out", out_pgm
        )
        assert code == 0
        assert "embedded 16 bits" in out
        code, out, _ = run(
            capsys, "stat-extract", "--in", out_pgm, "--key", "swordfish", "--bits", 16, "--alpha", 0.001
        )
        assert code == 0
        assert "bits: 0110100110010110" in out

    def test_csv_output(self, capsys, tmp_path, carrier_pgm):
        code, out, _ = run(capsys, "stat-extract", "--in", carrier_pgm, "--key", "k", "--bits", 4, "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "block,q,bit"
        assert len(lines) == 5

    def test_zero_bits(self, capsys, carrier_pgm):
        code, out, _ = run(capsys, "stat-extract", "--in", carrier_pgm, "--key", "k", "--bits", 0)
        assert code == 0
        assert out.startswith("bits: \n")

    def test_carrier_too_small(self, capsys, tmp_path, carrier_pgm):
        bits = tmp_path / "bits.txt"
        bits.write_text("1" * 65)  # 64x64 with 8x8 blocks holds 64 bits
        code, _, _ = run(
            capsys, "stat-embed", "--in", carrier_pgm, "--key", "k", "--payload", bits, "--out", tmp_path / "o.pgm"
        )
        assert code == 7

    def test_unreadable_carrier(self, capsys, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P6 junk")
        code, _, _ = run(capsys, "stat-extract", "--in", bad, "--key", "k", "--bits", 4)
        assert code == 2

    def test_raw_carrier(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        raw = tmp_path / "grid.bin"
        raw.write_bytes(rng.integers(0, 16, size=32 * 16, dtype=np.uint8).tobytes())
        bits = tmp_path / "bits.txt"
        bits.write_text("1010")
        out_raw = tmp_path / "grid_out.bin"
        code, _, _ = run(
            capsys, "stat-embed", "--in", raw, "--raw", "32x16", "--key", "k",
            "--payload", bits, "--out", out_raw,
        )
        assert code == 0
        assert out_raw.stat().st_size == 32 * 16
        code, out, _ = run(
            capsys, "stat-extract", "--in", out_raw, "--raw", "32x16", "--key", "k",
            "--bits", 4, "--alpha", 0.001,
        )
        assert code == 0
        assert "bits: 1010" in out

    def test_hex_key_equivalent_to_bytes(self, capsys, tmp_path, carrier_pgm):
        bits = tmp_path / "bits.txt"
        bits.write_text("1111")
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        run(capsys, "stat-embed", "--in", carrier_pgm, "--key", "AB", "--payload", bits, "--out", a)
        run(capsys, "stat-embed", "--in", carrier_pgm, "--key", "0x4142", "--payload", bits, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_block_flag(self, capsys, tmp_path, carrier_pgm):
        bits = tmp_path / "bits.txt"
        bits.write_text("10")
        out_pgm = tmp_path / "o.pgm"
        code, out, _ = run(
            capsys, "stat-embed", "--in", carrier_pgm, "--key", "k", "--payload", bits,
            "--block", "16x4", "--out", out_pgm,
        )
        assert code == 0
        assert "16x4 blocks" in out

    def test_bad_block_flag(self, capsys, tmp_path, carrier_pgm):
        code, _, _ = run(capsys, "stat-extract", "--in", carrier_pgm, "--key", "k", "--bits", 1, "--block", "8by8")
        assert code == 2

    def test_odd_block_flag(self, capsys, carrier_pgm):
        code, _, err = run(capsys, "stat-extract", "--in", carrier_pgm, "--key", "k", "--bits", 1, "--block", "3x3")
        assert code == 2
        assert "odd" in err


@pytest.mark.parametrize("command", ["stat-embed", "stat-extract"])
@pytest.mark.parametrize(
    "flags, message",
    [(("--block", "2x1"), "too small"), (("--alpha", "1e-17"), "too small")],
    ids=["block-2x1", "alpha-1e-17"],
)
def test_stat_commands_refuse_infeasible_params_alike(capsys, tmp_path, carrier_pgm, command, flags, message):
    bits = tmp_path / "bits.txt"
    bits.write_text("1")
    io_flags = ("--payload", bits, "--out", tmp_path / "o.pgm") if command == "stat-embed" else ("--bits", 1)
    code, _, err = run(capsys, command, "--in", carrier_pgm, "--key", "k", *io_flags, *flags)
    assert code == 2
    assert message in err
    assert not (tmp_path / "o.pgm").exists()


@pytest.fixture(scope="module")
def stat_files(tmp_path_factory):
    """A 64x64 PGM carrier and a one-bit message, shared by the examples of a property."""
    folder = tmp_path_factory.mktemp("stat")
    rng = np.random.default_rng(78)
    carrier = Carrier(64, 64, rng.integers(0, 16, size=64 * 64, dtype=np.uint8).tobytes())
    write_carrier(str(folder / "carrier.pgm"), carrier, False)
    (folder / "bits.txt").write_text("1")
    return folder


def quiet_main(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


@given(
    block=st.tuples(st.integers(1, 12), st.integers(1, 12)).map(lambda wh: f"{wh[0]}x{wh[1]}"),
    alpha=st.one_of(st.floats(0.0, 1.0), st.sampled_from([1e-17, 2.0**-53, 2.0**-54, 5e-324, 1 - 2.0**-53])),
    k=st.one_of(st.integers(-2, 400), st.integers(2**31, 2**70)),
)
@example(block="2x1", alpha=0.05, k=10)
@example(block="8x8", alpha=1e-17, k=10)
def test_stat_extract_accepts_what_stat_embed_accepts(stat_files, block, alpha, k):
    common = ("--in", stat_files / "carrier.pgm", "--key", "k", "--block", block, "--alpha", repr(alpha))
    out = stat_files / "stego.pgm"
    code = quiet_main("stat-embed", *common, "--k", k, "--payload", stat_files / "bits.txt", "--out", out)
    assert code in (0, 2, 7)
    if code == 0:
        assert quiet_main("stat-extract", *common, "--bits", 1) == 0


@pytest.fixture(scope="module")
def pe_files(tmp_path_factory):
    """A cover PE and a payload file, shared by the examples of a property."""
    folder = tmp_path_factory.mktemp("pe")
    (folder / "cover.exe").write_bytes(build_pe(header_slack=0x88).data)
    (folder / "secret.bin").write_bytes(bytes(range(50)))
    return folder


@given(
    name=st.one_of(
        st.sampled_from([".", ".."]),
        st.text(st.one_of(st.sampled_from("./\\\x00"), st.characters()), max_size=12),
    )
)
@example(name="../evil")
@example(name="a\\b")
def test_extract_recovers_every_name_embed_accepts(pe_files, name):
    stego = pe_files / "stego.exe"
    payload = pe_files / "secret.bin"
    code = quiet_main("embed", "--in", pe_files / "cover.exe", "--payload", payload, f"--name={name}", "--out", stego)
    if code != 0:
        return
    with tempfile.TemporaryDirectory(dir=pe_files) as outdir:
        assert quiet_main("extract", "--in", stego, "--out", outdir) == 0
        assert os.listdir(outdir) == [name]
        with open(os.path.join(outdir, name), "rb") as fh:
            assert fh.read() == payload.read_bytes()


@pytest.mark.parametrize("command", ["embed", "extract", "stat-embed", "verify"])
def test_failed_write_leaves_outputs_untouched(monkeypatch, capsys, tmp_path, cover, payload_file, carrier_pgm, command):
    stego = tmp_path / "stego.exe"
    assert run(capsys, "embed", "--in", cover, "--payload", payload_file, "--out", stego)[0] == 0
    bits = tmp_path / "bits.txt"
    bits.write_text("1010")
    out = tmp_path / "out"
    out.mkdir()
    (out / "secret.bin").write_bytes(b"old")  # the file extract would replace
    argv = {
        "embed": ("embed", "--in", cover, "--payload", payload_file, "--out", out / "new"),
        "extract": ("extract", "--in", stego, "--out", out),
        "stat-embed": ("stat-embed", "--in", carrier_pgm, "--key", "k", "--payload", bits, "--out", out / "new"),
        "verify": ("verify", cover, stego, "--out", out / "new"),
    }[command]

    def fail(src, dst):
        raise OSError("simulated failure after the data was written")

    monkeypatch.setattr(os, "replace", fail)
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert "simulated failure" in err
    assert stdout == ""
    assert {p.name: p.read_bytes() for p in out.iterdir()} == {"secret.bin": b"old"}


@pytest.mark.parametrize("command", ["stat-embed", "embed", "extract", "verify"])
def test_wrote_line_prints_a_path_that_is_not_utf8_as_its_bytes(
    monkeypatch, tmp_path, cover, payload_file, carrier_pgm, command
):
    """A strict UTF-8 stdout, as under a UTF-8 locale, gets the path's own bytes once the output is written."""
    monkeypatch.chdir(tmp_path)
    stego = tmp_path / "stego.exe"
    assert quiet_main("embed", "--in", cover, "--payload", payload_file, "--out", stego) == 0
    bits = tmp_path / "bits.txt"
    bits.write_text("1010")
    os.mkdir(b"\xff")  # the directory extract writes into
    argv, path = {
        "stat-embed": (("stat-embed", "--in", carrier_pgm, "--key", "k", "--payload", bits, "--out"), b"\xff.pgm"),
        "embed": (("embed", "--in", cover, "--payload", payload_file, "--out"), b"\xff.exe"),
        "extract": (("extract", "--in", stego, "--out"), b"\xff"),
        "verify": (("verify", cover, stego, "--out"), b"\xff.txt"),
    }[command]
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main([*map(str, argv), os.fsdecode(path)]) == 0
    stdout.flush()
    wrote = os.path.join(path, b"secret.bin") if command == "extract" else path
    assert stdout.buffer.getvalue().splitlines()[-1] == b"wrote " + wrote
    assert os.path.isfile(wrote)


@pytest.mark.parametrize(
    "target, message",
    [("nodir/s.exe", "[Errno 2] No such file or directory"), ("isdir.exe", "[Errno 21] Is a directory")],
    ids=["missing-directory", "directory"],
)
def test_write_error_names_the_output(monkeypatch, capsys, tmp_path, cover, payload_file, target, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "isdir.exe").mkdir()
    argv = ("embed", "--in", cover, "--payload", payload_file, "--out", target)
    expected = (2, "", f"pestego: error: {message}: '{target}'\n")
    assert run(capsys, *argv) == expected
    assert run(capsys, *argv) == expected


def stat_extract(*flags: str, infile: str = "carrier.pgm") -> tuple[str, ...]:
    return ("stat-extract", "--in", infile, "--key", "k", "--bits", "1", *flags)  # a repeated flag's last value wins


TOO_MANY_PIXELS = f"carrier dimensions multiply to more than {sys.maxsize} pixels"
# (argv, exit code, the whole of stderr), each run in a directory that refusal_files fills
REFUSALS = [
    pytest.param(stat_extract("--key", "0xZZ"), 2, "bad hex key '0xZZ'", id="hex-key"),
    pytest.param(stat_extract("--block", "8"), 2, "expected WxH, got '8'", id="block-one-number"),
    # a zero is refused where the value types check a shape
    pytest.param(stat_extract("--block", "0x8"), 2, "block dimensions must be positive, got 0x8", id="block-zero"),
    pytest.param(
        stat_extract("--raw", "0x8", infile="grid.bin"), 2, "carrier dimensions must be positive, got 0x8", id="raw-zero"
    ),
    pytest.param(
        stat_extract("--raw", "0x8", infile="missing.bin"), 2, "[Errno 2] No such file or directory: 'missing.bin'",
        id="raw-zero-missing-file",
    ),
    # a refused block shape reads WxH, as --block does
    pytest.param(stat_extract("--block", "3x5"), 2, "block of 3x5 has odd length", id="block-odd-length"),
    pytest.param(
        stat_extract("--block", "1x2"), 2, "block of 1x2 is too small: need at least 2 values per set", id="block-too-small"
    ),
    pytest.param(
        stat_extract("--block", "8192x4096"), 2,
        "block of 8192x4096 exceeds 16777216 pixels, past which an int64 implementation of the detection sums would overflow",
        id="block-too-large",
    ),
    pytest.param(
        stat_extract("--block", "4x6", "--bits", "161"), 7, "message needs 161 blocks of 4x6, carrier has 160",
        id="block-over-capacity",
    ),
    pytest.param(stat_extract(infile="short.pgm"), 2, "unexpected end of PGM header", id="pgm-header-end"),
    # a refusal quotes at most 32 bytes of a header token: here the last one runs on through the raster
    pytest.param(
        stat_extract(infile="no-separator.pgm"), 2,
        f"bad PGM header token {b'255' + bytes(29)!r} (first 32 of 4099 bytes)", id="pgm-separator-missing",
    ),
    # and at most 32 characters of a header number
    pytest.param(
        stat_extract(infile="long-maxval.pgm"), 2,
        f"only maxval 255 is supported, got {'9' * 32} (first 32 of 4300 characters)", id="pgm-maxval-long",
    ),
    pytest.param(
        stat_extract(infile="zero-by-long.pgm"), 2,
        f"carrier dimensions must be positive, got 0x{'9' * 32} (first 32 of 4300 characters)", id="pgm-zero-by-long",
    ),
    pytest.param(
        stat_extract("--block", "2x" + "9" * 4300), 2,
        f"block of 2x{'9' * 32} (first 32 of 4300 characters) exceeds 16777216 pixels,"
        " past which an int64 implementation of the detection sums would overflow",
        id="block-long",
    ),
    # a shape whose pixel count no bytes object can hold is refused before any text formats that count
    pytest.param(stat_extract(infile="nines.pgm"), 2, TOO_MANY_PIXELS, id="pgm-too-many-pixels"),
    pytest.param(
        stat_extract("--raw", "9" * 2200 + "x" + "9" * 2200, infile="grid.bin"), 2, TOO_MANY_PIXELS,
        id="raw-too-many-pixels",
    ),
    pytest.param(
        ("inspect", "--in", "mz10.exe"), 2, "file of 10 bytes is smaller than the 64-byte DOS header", id="dos-header-cut"
    ),
    pytest.param(("inspect", "--in", "coff-cut.exe"), 2, "COFF file header extends past end of file", id="coff-header-cut"),
    pytest.param(
        ("inspect", "--in", "opt60.exe"), 2, "optional header of 60 bytes is too small to decode", id="optional-header-60"
    ),
    pytest.param(("inspect", "--in", "opt-cut.exe"), 2, "optional header extends past end of file", id="optional-header-cut"),
    pytest.param(("extract", "--in", "name-len-0.exe", "--out", "out"), 6, "name length 0 outside 1..255", id="name-len-0"),
    pytest.param(
        ("extract", "--in", "name-len-200.exe", "--out", "out"), 6,
        "record name and data length exceed available bytes", id="name-len-200",
    ),
    pytest.param(("extract", "--in", "name-not-utf8.exe", "--out", "out"), 6, "record name is not valid UTF-8", id="name-not-utf8"),
    # WxH takes ASCII decimal digits only, as the PGM header does
    pytest.param(stat_extract("--block", "8_0x8"), 2, "expected WxH, got '8_0x8'", id="block-underscore"),
    pytest.param(stat_extract("--block", "+8x8"), 2, "expected WxH, got '+8x8'", id="block-plus"),
    pytest.param(stat_extract("--block", "٨x8"), 2, "expected WxH, got '٨x8'", id="block-arabic-indic-digit"),
    pytest.param(stat_extract("--block", " 8x8"), 2, "expected WxH, got ' 8x8'", id="block-space"),
    pytest.param(stat_extract("--raw", "8_0x16"), 2, "expected WxH, got '8_0x16'", id="raw-underscore"),
    # --bits and --k take ASCII decimal digits too
    pytest.param(stat_extract("--bits", "1_6"), 2, "--bits expects a decimal integer, got '1_6'", id="bits-underscore"),
    pytest.param(stat_extract("--bits", "٨"), 2, "--bits expects a decimal integer, got '٨'", id="bits-arabic-indic-digit"),
    pytest.param(stat_extract("--bits", " 8"), 2, "--bits expects a decimal integer, got ' 8'", id="bits-space"),
    pytest.param(
        ("stat-embed", "--in", "carrier.pgm", "--key", "k", "--payload", "bits.txt", "--k", "1_0", "--out", "out.pgm"), 2,
        "--k expects a decimal integer, got '1_0'", id="k-underscore",
    ),
    # a hex key is whole bytes of hex digits after 0x, with nothing between them
    pytest.param(stat_extract("--key", "0x"), 2, "bad hex key '0x'", id="hex-key-empty"),
    pytest.param(stat_extract("--key", "0x41 42"), 2, "bad hex key '0x41 42'", id="hex-key-space"),
    # --alpha takes an ASCII decimal number, fraction and exponent optional
    pytest.param(stat_extract("--alpha", "0_0.05"), 2, "--alpha expects a decimal number, got '0_0.05'", id="alpha-underscore"),
    pytest.param(stat_extract("--alpha", " 0.05"), 2, "--alpha expects a decimal number, got ' 0.05'", id="alpha-space"),
    pytest.param(stat_extract("--alpha", "٠.٠٥"), 2, "--alpha expects a decimal number, got '٠.٠٥'", id="alpha-arabic-indic-digit"),
    pytest.param(stat_extract("--alpha", "+0.05"), 2, "--alpha expects a decimal number, got '+0.05'", id="alpha-plus"),
    pytest.param(stat_extract("--alpha", "nan"), 2, "--alpha expects a decimal number, got 'nan'", id="alpha-nan"),
    pytest.param(
        ("stat-embed", "--in", "carrier.pgm", "--key", "k", "--payload", "bits.txt", "--alpha", "0_0.05", "--out", "out.pgm"),
        2, "--alpha expects a decimal number, got '0_0.05'", id="alpha-underscore-embed",
    ),
    # a --raw grid's size is checked where its Carrier is built
    pytest.param(
        stat_extract("--raw", "320x201", infile="grid.bin"), 2, "carrier of 320x201 needs 64320 pixels, got 64000",
        id="raw-size",
    ),
    pytest.param(
        ("stat-embed", "--in", "grid.bin", "--raw", "320x201", "--key", "k", "--payload", "bits.txt", "--out", "out.bin"),
        2, "carrier of 320x201 needs 64320 pixels, got 64000", id="raw-size-embed",
    ),
    # a PGM's raster size is checked where its Carrier is built too, with the same text
    pytest.param(stat_extract(infile="short-raster.pgm"), 2, "carrier of 4x4 needs 16 pixels, got 15", id="pgm-raster-short"),
    pytest.param(stat_extract(infile="long-raster.pgm"), 2, "carrier of 4x4 needs 16 pixels, got 17", id="pgm-raster-long"),
    # a flag's value is echoed by at most 32 characters
    pytest.param(
        stat_extract("--bits", "x" * 100_000), 2,
        f"--bits expects a decimal integer, got {'x' * 32!r} (first 32 of 100000 characters)", id="bits-long",
    ),
    pytest.param(
        ("stat-embed", "--in", "carrier.pgm", "--key", "k", "--payload", "bits.txt", "--k", "x" * 100_000, "--out", "out.pgm"),
        2, f"--k expects a decimal integer, got {'x' * 32!r} (first 32 of 100000 characters)", id="k-long",
    ),
    pytest.param(
        stat_extract("--key", "0x" + "g" * 100_000), 2,
        f"bad hex key {'0x' + 'g' * 30!r} (first 32 of 100002 characters)", id="hex-key-long",
    ),
    pytest.param(
        stat_extract("--block", "x" * 100_000), 2, f"expected WxH, got {'x' * 32!r} (first 32 of 100000 characters)",
        id="block-long-text",
    ),
    pytest.param(
        stat_extract("--alpha", "x" * 100_000), 2,
        f"--alpha expects a decimal number, got {'x' * 32!r} (first 32 of 100000 characters)", id="alpha-long",
    ),
    # and a number by at most 32 digits, however many int() took
    pytest.param(
        ("stat-embed", "--in", "carrier.pgm", "--key", "k", "--payload", "bits.txt", "--k", "-" + "9" * 4300, "--out", "out.pgm"),
        2, f"strength k must be a positive integer, got -{'9' * 31} (first 32 of 4301 characters)", id="k-negative-long",
    ),
    pytest.param(
        stat_extract("--bits", "-" + "9" * 4300), 2,
        f"bit count must be non-negative, got -{'9' * 31} (first 32 of 4301 characters)", id="bits-negative-long",
    ),
    pytest.param(
        stat_extract("--bits", "9" * 4300), 7,
        f"message needs {'9' * 32} (first 32 of 4300 characters) blocks of 8x8, carrier has 64", id="bits-past-capacity-long",
    ),
    # strict mode names the first layout warning and counts the rest
    pytest.param(
        ("inspect", "--in", "many-sections.exe", "--strict"), 2,
        "section .text: SizeOfRawData 0x1F4 not aligned to FileAlignment; and 3983 more", id="strict-many-warnings",
    ),
    # text that is not UTF-8: argv and file names carry such bytes as lone surrogates
    pytest.param(
        stat_extract("--key", "\udcff"), 2, "--key is not UTF-8 text; give a binary key as 0x and hex digits",
        id="key-not-utf8",
    ),
    pytest.param(
        ("capacity", "--in", "cover.exe", "--name", "\udcff"), 2, "name '\\udcff' does not encode to UTF-8",
        id="name-not-utf8-capacity",
    ),
    pytest.param(
        ("embed", "--in", "cover.exe", "--payload", "bits.txt", "--name", "\udcff", "--out", "stego.exe"), 2,
        "name '\\udcff' does not encode to UTF-8", id="name-not-utf8-embed",
    ),
    pytest.param(
        ("embed", "--in", "cover.exe", "--payload", "caf\udce9.txt", "--out", "stego.exe"), 2,
        "name 'caf\\udce9.txt' does not encode to UTF-8", id="payload-file-name-latin-1",
    ),
    pytest.param(
        ("capacity", "--in", "cover.exe", "--name", "a" * 100_000 + "\udcff"), 2,
        f"name {'a' * 32!r} (first 32 of 100001 characters) does not encode to UTF-8", id="name-not-utf8-long",
    ),
    pytest.param(
        ("stat-embed", "--in", "carrier.pgm", "--key", "k", "--payload", "latin-1.txt", "--out", "out.pgm"), 2,
        "message text may only contain 0, 1 and whitespace", id="message-not-utf8",
    ),
]


@pytest.fixture
def refusal_files(monkeypatch, tmp_path, carrier_pgm, spec_pe):
    monkeypatch.chdir(tmp_path)
    data, coff = spec_pe.data, spec_pe.e_lfanew + 4
    opt60 = bytearray(data)
    opt60[coff + 16 : coff + 18] = (60).to_bytes(2, "little")  # SizeOfOptionalHeader
    records = {
        "name-len-0": b"SPE1\x00\x00",
        "name-len-200": b"SPE1\xc8\x00" + bytes(10),
        "name-not-utf8": b"SPE1\x02\x00\xff\xfe" + bytes(4) + zlib.crc32(b"\xff\xfe").to_bytes(4, "little"),
    }
    files = {
        "short.pgm": b"P5 2",
        "no-separator.pgm": b"P5\n64 64\n255" + bytes(64 * 64),
        "nines.pgm": b"P5 %s %s 255\n" % (b"9" * 4300, b"9" * 4300),
        "long-maxval.pgm": b"P5 2 2 %s\n" % (b"9" * 4300),
        "zero-by-long.pgm": b"P5 0 %s 255\n" % (b"9" * 4300),
        "short-raster.pgm": b"P5 4 4 255\n" + bytes(15),
        "long-raster.pgm": b"P5 4 4 255\n" + bytes(17),
        "bits.txt": b"1",
        "grid.bin": bytes(64000),
        "latin-1.txt": b"1\xe90",  # "1é0" in Latin-1
        "caf\udce9.txt": b"secret",  # the file name b"caf\xe9.txt"
        "cover.exe": data,
        "mz10.exe": b"MZ" + bytes(8),
        "coff-cut.exe": data[: coff + 10],
        "opt60.exe": bytes(opt60),
        "opt-cut.exe": data[: coff + 20 + 100],
        "many-sections.exe": build_pe(sections=[SectionPlan(raw_size=500) for _ in range(2000)]).data,
        **{f"{name}.exe": build_pe(header_slack=16, slack_fill=record).data for name, record in records.items()},
    }
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)


@pytest.mark.parametrize("argv, code, message", REFUSALS)
def test_known_refusal(capsys, refusal_files, argv, code, message):
    """Each refusal is its whole stderr, one line of less than 200 bytes, however long the input it names."""
    stderr = f"pestego: error: {message}\n"
    assert run(capsys, *argv) == (code, "", stderr)
    assert len(stderr.encode("utf-8", "backslashreplace")) < 200


HUGE = 10**5000  # past int()'s digit limit, so str() refuses it
ONE_BLOCK, PE_IMAGE = Carrier(8, 8, bytes(64)), parse_pe(build_pe().data)


# (call, the class it raises) for each library refusal that echoes a number or a name
@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: derive_pattern(b"k", HUGE + 1), OddBlockLengthError, id="pattern-odd"),
        pytest.param(lambda: derive_pattern(b"k", -HUGE), ValueError, id="pattern-short"),
        pytest.param(lambda: StatParams(k=-HUGE), ValueError, id="params-k"),
        pytest.param(lambda: StatParams(alpha=HUGE), ValueError, id="params-alpha"),
        # 1.0 - a Fraction is a float sum, so 1/10**4000 rounds to nothing
        pytest.param(lambda: StatParams(alpha=Fraction(1, 10**4000)), ValueError, id="params-alpha-too-small"),
        pytest.param(lambda: detect_blocks(ONE_BLOCK, b"k", HUGE, StatParams()), CarrierTooSmallError, id="capacity"),
        pytest.param(lambda: detect_blocks(ONE_BLOCK, b"k", -HUGE, StatParams()), ValueError, id="bit-count"),
        pytest.param(lambda: detect_blocks(ONE_BLOCK, b"k", 0, StatParams(), -HUGE), ValueError, id="first-block"),
        pytest.param(lambda: normal_quantile(HUGE), ValueError, id="quantile"),
        pytest.param(lambda: safe_file_name("a" * 100_000 + "/"), UnsafeNameError, id="unsafe-name"),
        pytest.param(lambda: capacity(PE_IMAGE, "a" * 100_000 + "\udcff"), NameTooLongError, id="name-not-utf8"),
        pytest.param(lambda: PE_IMAGE.read(HUGE, 1), ValueError, id="read"),
        pytest.param(lambda: section_slack(PE_IMAGE, HUGE), IndexError, id="section-index"),
    ],
)
def test_library_refusal_cuts_a_long_value(call, error):
    """A library call refuses a value of any length with its own error and a short text, as the command line does."""
    with pytest.raises(error) as refusal:
        call()
    assert type(refusal.value) is error
    assert "(first 32 of" in str(refusal.value) and len(str(refusal.value)) < 200


FLAGS = ("--key", "--alpha", "--block", "--raw", "--bits", "--k", "--name")


def flag_argv(stat_files, pe_files, flag: str) -> tuple:
    """A command that takes the flag, before its value; a repeated flag's last value wins."""
    if flag == "--name":
        return ("capacity", "--in", pe_files / "cover.exe")
    carrier, bits = stat_files / "carrier.pgm", stat_files / "bits.txt"
    if flag == "--k":
        return ("stat-embed", "--in", carrier, "--key", "k", "--payload", bits, "--out", stat_files / "stego.pgm")
    return ("stat-extract", "--in", carrier, "--key", "k", "--bits", 1)


# text with lone surrogates, as argv carries bytes that are not UTF-8, unprintable characters and the flags' grammar
FLAG_CHARACTERS = st.one_of(
    st.characters(),
    st.integers(0xDC80, 0xDCFF).map(chr),
    st.sampled_from("\x00\n\x1b\x7f\u200b\u2028\U000e0001"),
    st.sampled_from("0123456789-xX.eE"),
)


@given(
    flag=st.sampled_from(FLAGS),
    value=st.text(FLAG_CHARACTERS, max_size=50)
    | st.tuples(st.text(FLAG_CHARACTERS, min_size=1, max_size=50), st.integers(1, 100)).map(lambda run: run[0] * run[1]),
)
@example(flag="--k", value="-" + "9" * 4300)
@example(flag="--bits", value="-" + "9" * 4300)
@example(flag="--bits", value="9" * 4300)
@example(flag="--name", value="a" * 100_000 + "\udcff")
@example(flag="--name", value="\udcff" * 100_000)
@example(flag="--alpha", value="\U000e0001" * 1000)
def test_refusal_of_any_flag_value_is_one_short_line(stat_files, pe_files, flag, value):
    """Whatever a flag's value, up to some 5,000 characters, a refused command prints nothing to stdout and
    one stderr line of less than 512 bytes."""
    argv = [*flag_argv(stat_files, pe_files, flag), f"{flag}={value}"]
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        code = main([str(a) for a in argv])
    if code != 0:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        assert len(err.getvalue().encode("utf-8", "backslashreplace")) < 512


def error_classes(cls=PeStegoError):
    yield cls
    for sub in cls.__subclasses__():
        yield from error_classes(sub)


# the README's exit codes other than 2; every other PeStegoError, a new one included, exits 2
EXIT_CODE_OF = {
    "UnsafeNameError": 1,
    "InsufficientSlackError": 3,
    "SlackOccupiedError": 4,
    "NoPayloadError": 5,
    "CorruptPayloadError": 6,
    "CarrierTooSmallError": 7,
}


def test_each_error_class_carries_its_exit_code():
    declared = {cls.__name__: cls.exit_code for cls in error_classes()}
    assert set(EXIT_CODE_OF) < set(declared)
    assert declared == {name: EXIT_CODE_OF.get(name, 2) for name in declared}


@pytest.mark.parametrize("error", [*error_classes(), ValueError, OSError], ids=lambda cls: cls.__name__)
def test_main_exits_with_the_code_of_the_error_raised(monkeypatch, capsys, error):
    def fail(args):
        raise error("refused")

    monkeypatch.setattr(cli, "cmd_inspect", fail)
    code, out, err = run(capsys, "inspect", "--in", "cover.exe")
    assert (code, out, err.startswith("pestego: error: ")) == (EXIT_CODE_OF.get(error.__name__, 2), "", True)


def text(*lines: str) -> str:
    return "".join(line + "\n" for line in lines)


INSPECT_HEAD = (
    "machine:            0x014C",
    "number of sections: 1",
    "image base:         0x00400000",
    "entry point rva:    0x00001000",
    "file alignment:     0x200",
    "size of headers:    0x200",
    "checksum:           0x00000000",
)
VERIFY_CONFINED = (
    "headers identical:        yes",
    "section table identical:  yes",
    "differing regions:        3",
    "  0x178 .. 0x17D (5 bytes)",
    "  0x17E .. 0x189 (11 bytes)",
    "  0x18D .. 0x1C2 (53 bytes)",
    "diff confined to slack:   yes",
)
# (argv, exit code, the whole of stdout), run in order in one directory: later commands read what earlier ones wrote
KNOWN_OUTPUT = [
    (("inspect", "--in", "cover.exe"), 0, text(
        *INSPECT_HEAD,
        "header table end:   0x178",
        "header slack:       0x178 .. 0x200 (136 bytes)",
        "capacity:           121 payload bytes (1-byte name)",
        "sections:",
        "  name      vaddr       vsize       rawptr      rawsize     slack",
        "  .text     0x00001000  0x00000200  0x00000200  0x00000200  -",
    )),
    (("inspect", "--in", "odd.exe"), 0, text(
        *INSPECT_HEAD,
        "header table end:   0x160",
        "header slack:       0x160 .. 0x200 (160 bytes)",
        "capacity:           145 payload bytes (1-byte name)",
        "sections:",
        "  name      vaddr       vsize       rawptr      rawsize     slack",
        "  .text     0x00001000  0x000001F4  0x00000200  0x000001F4  -",
        "warnings:",
        "  - section .text: SizeOfRawData 0x1F4 not aligned to FileAlignment",
    )),
    (("capacity", "--in", "cover.exe", "--name", "k.txt"), 0, text(
        'name:           "k.txt" (5 bytes)',
        "slack region:   0x178 .. 0x200 (136 bytes)",
        "framing:        19 bytes",
        "usable payload: 117 bytes",
    )),
    (("embed", "--in", "cover.exe", "--payload", "secret.bin", "--out", "stego.exe"), 0, text(
        'hid "secret.bin" (50 data bytes, 74 record bytes) at 0x178',
        "slack used: 74/136 bytes",
        "wrote stego.exe",
    )),
    (("extract", "--in", "stego.exe", "--out", "out"), 0, text(
        'recovered "secret.bin" (50 bytes)',
        "wrote out/secret.bin",
    )),
    (("verify", "cover.exe", "stego.exe"), 0, text(*VERIFY_CONFINED)),
    (("verify", "cover.exe", "stego.exe", "--out", "report.txt"), 0, text(*VERIFY_CONFINED, "wrote report.txt")),
    (("verify", "cover.exe", "longer.exe"), 1, text(
        "headers identical:        yes",
        "section table identical:  yes",
        "differing regions:        1",
        "  0x400 .. 0x403 (3 bytes)",
        "diff confined to slack:   NO",
        "note: file length changed: 1024 -> 1027 bytes",
    )),
    (("stat-embed", "--in", "carrier.pgm", "--key", "swordfish", "--payload", "bits.txt", "--out", "stego.pgm"), 0, text(
        "embedded 16 bits into 8x8 blocks (k=10)",
        "wrote stego.pgm",
    )),
    (("stat-extract", "--in", "stego.pgm", "--key", "swordfish", "--bits", "16", "--alpha", "0.001"), 0, text(
        "bits: 0110100110010110",
    )),
    (("stat-extract", "--in", "stego.pgm", "--key", "swordfish", "--bits", "4", "--csv"), 0, text(
        "block,q,bit",
        "0,0.3174104212536186,0",
        "1,8.233098694705962,1",
        "2,9.576075342311444,1",
        "3,-0.41794573882950453,0",
    )),
]


def test_known_output_of_every_command(monkeypatch, capsys, tmp_path, cover, payload_file, carrier_pgm):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "longer.exe").write_bytes(cover.read_bytes() + bytes(3))
    (tmp_path / "odd.exe").write_bytes(build_pe(sections=[SectionPlan(raw_size=500)]).data)
    (tmp_path / "bits.txt").write_text("0110100110010110")
    got = [(argv, *run(capsys, *argv)) for argv, _, _ in KNOWN_OUTPUT]
    assert got == [(argv, code, out, "") for argv, code, out in KNOWN_OUTPUT]
    assert (tmp_path / "report.txt").read_text() == text(
        "identical_headers=true",
        "identical_section_table=true",
        "diff_confined_to_slack=true",
        "diff_region_count=3",
        "diff_region_0=0x178:5",
        "diff_region_1=0x17E:11",
        "diff_region_2=0x18D:53",
        "note_count=0",
    )


class TestDeterminism:
    def test_embed_twice_identical(self, capsys, tmp_path, cover, payload_file):
        a, b = tmp_path / "a.exe", tmp_path / "b.exe"
        run(capsys, "embed", "--in", cover, "--payload", payload_file, "--out", a)
        run(capsys, "embed", "--in", cover, "--payload", payload_file, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_stat_embed_twice_identical(self, capsys, tmp_path, carrier_pgm):
        bits = tmp_path / "bits.txt"
        bits.write_text("0101")
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        run(capsys, "stat-embed", "--in", carrier_pgm, "--key", "k", "--payload", bits, "--out", a)
        run(capsys, "stat-embed", "--in", carrier_pgm, "--key", "k", "--payload", bits, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_inspect_output_identical(self, capsys, cover):
        _, out1, _ = run(capsys, "inspect", "--in", cover)
        _, out2, _ = run(capsys, "inspect", "--in", cover)
        assert out1 == out2


def test_module_entry_point(cover):
    proc = subprocess.run(
        [sys.executable, "-m", "pestego.cli", "inspect", "--in", str(cover)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "number of sections: 1" in proc.stdout
