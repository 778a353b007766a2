from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pe_builder import SectionPlan, build_pe
from oracles import byte_diff_offsets

from pestego import Carrier
from pestego.cli import main
from pestego.pgm import write_pgm


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
    write_pgm(str(path), carrier)
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
    write_pgm(str(folder / "carrier.pgm"), Carrier(64, 64, rng.integers(0, 16, size=64 * 64, dtype=np.uint8).tobytes()))
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
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "simulated failure" in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == {"secret.bin": b"old"}


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
