"""Command-line surface for the toolkit.

This is the only module that formats command output: each ``cmd_*`` returns
its exit code and the lines it prints, and ``main`` writes them to stdout in
one write once the command has returned, so a command that fails prints nothing.

Exit codes are stable: 0 success, 1 a failed ``verify`` check, 2 unusable input (parse/usage/IO),
and a PeStegoError exits with its class's ``exit_code``, declared in errors.py.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

import pestego

from .errors import _shown
from .fileio import write_atomic
from .pe_format import parse_pe

# Commands reach the library through the package, so each imports only the modules it calls (statstego ~5 ms,
# payload and integrity ~2 ms each: -X importtime, `python -B`, 2-CPU Xeon); bench/ pins the global cli.parse_pe.

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2


def _parse_key(text: str) -> bytes:
    """'0x' and whole bytes of hex digits, or else the text's UTF-8 bytes."""
    if not text.startswith(("0x", "0X")):
        try:
            return text.encode("utf-8")
        except UnicodeEncodeError:  # argv bytes that are not UTF-8 arrive as lone surrogates
            raise ValueError("--key is not UTF-8 text; give a binary key as 0x and hex digits") from None
    if not re.fullmatch(r"0[xX](?:[0-9a-fA-F]{2})+", text):
        raise ValueError(f"bad hex key {_shown(text)}")
    return bytes.fromhex(text[2:])


def _parse_int(flag: str, text: str) -> int:
    """ASCII decimal, as in WxH; a leading '-' is let through so the domain check names the refusal."""
    try:
        return int(re.fullmatch(r"-?[0-9]+", text)[0])
    except (TypeError, ValueError):  # no match, or more digits than sys.get_int_max_str_digits()
        raise ValueError(f"{flag} expects a decimal integer, got {_shown(text)}") from None


def _parse_dims(text: str) -> tuple[int, int]:
    """'WxH' -> (width, height), each ASCII decimal like a PGM header number."""
    match = re.fullmatch(r"([0-9]+)[xX]([0-9]+)", text)
    try:
        return int(match[1]), int(match[2])
    except (TypeError, ValueError):  # no match, or more digits than sys.get_int_max_str_digits()
        raise ValueError(f"expected WxH, got {_shown(text)}") from None


def _span(region) -> str:
    return f"0x{region.offset:X} .. 0x{region.end:X} ({region.length} bytes)"


def _read_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _load_image(path: str, strict: bool):
    return parse_pe(_read_file(path), strict=strict)


def _stat_params(args):
    # ASCII decimal, fraction and exponent optional (any finite float's repr); '-0.5' and '1e400' reach the domain check
    if not re.fullmatch(r"-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?", args.alpha):
        raise ValueError(f"--alpha expects a decimal number, got {_shown(args.alpha)}")
    block_w, block_h = _parse_dims(args.block)
    k = _parse_int("--k", args.k)
    return pestego.StatParams(block_rows=block_h, block_cols=block_w, k=k, alpha=float(args.alpha))


def _read_carrier(args):
    return pestego.read_carrier(args.infile, _parse_dims(args.raw) if args.raw else None)


def cmd_inspect(args) -> tuple[int, list[str]]:
    image = _load_image(args.infile, args.strict)
    nt = image.nt_headers
    lines = [
        f"machine:            0x{nt.machine:04X}",
        f"number of sections: {nt.number_of_sections}",
        f"image base:         0x{nt.image_base:08X}",
        f"entry point rva:    0x{nt.address_of_entry_point:08X}",
        f"file alignment:     0x{nt.file_alignment:X}",
        f"size of headers:    0x{nt.size_of_headers:X}",
        f"checksum:           0x{nt.checksum:08X}",
        f"header table end:   0x{image.header_end_offset:X}",
        f"header slack:       {_span(pestego.header_slack(image))}",
        f"capacity:           {pestego.capacity(image, 'x').usable} payload bytes (1-byte name)",
        "sections:",
        "  name      vaddr       vsize       rawptr      rawsize     slack",
    ]
    for i, sec in enumerate(image.sections):
        s = pestego.section_slack(image, i)
        tail = f"{s.length} bytes @ 0x{s.offset:X}" if s.length else "-"
        lines.append(
            f"  {sec.display_name():<8}  0x{sec.virtual_address:08X}  0x{sec.virtual_size:08X}"
            f"  0x{sec.pointer_to_raw_data:08X}  0x{sec.size_of_raw_data:08X}  {tail}"
        )
    if image.warnings:
        lines.append("warnings:")
        lines += [f"  - {w}" for w in image.warnings]
    return EXIT_OK, lines


def cmd_capacity(args) -> tuple[int, list[str]]:
    image = _load_image(args.infile, args.strict)
    name = args.name if args.name is not None else "x"
    report = pestego.capacity(image, name)
    return EXIT_OK, [
        f'name:           "{name}" ({len(name.encode("utf-8"))} bytes)',
        f"slack region:   {_span(report.region)}",
        f"framing:        {report.overhead} bytes",
        f"usable payload: {report.usable} bytes",
    ]


def cmd_embed(args) -> tuple[int, list[str]]:
    image = _load_image(args.infile, args.strict)
    data = _read_file(args.payload)
    name = args.name if args.name is not None else os.path.basename(args.payload)
    stego = pestego.hide(image, name, data, force=args.force)
    write_atomic(args.outfile, pestego.serialize(stego))
    report = pestego.capacity(image, name)
    record_len = report.overhead + len(data)
    return EXIT_OK, [
        f'hid "{name}" ({len(data)} data bytes, {record_len} record bytes) at 0x{report.region.offset:X}',
        f"slack used: {record_len}/{report.region.length} bytes",
        f"wrote {args.outfile}",
    ]


def cmd_extract(args) -> tuple[int, list[str]]:
    image = _load_image(args.infile, args.strict)
    name, data = pestego.retract(image)
    path = pestego.write_extracted_file(name, data, args.outdir)
    return EXIT_OK, [f'recovered "{name}" ({len(data)} bytes)', f"wrote {path}"]


def cmd_verify(args) -> tuple[int, list[str]]:
    report = pestego.compare(_read_file(args.before), _read_file(args.after))
    regions, notes = report.diff_regions, report.notes
    lines = [
        f"headers identical:        {'yes' if report.identical_headers else 'NO'}",
        f"section table identical:  {'yes' if report.identical_section_table else 'NO'}",
        f"differing regions:        {len(regions)}",
        *[f"  {_span(region)}" for region in regions],
        f"diff confined to slack:   {'yes' if report.diff_confined_to_slack else 'NO'}",
        *[f"note: {note}" for note in notes],
    ]
    if args.outfile:
        # machine-readable: one key=value per line, in a field order that stays stable
        kv = [
            f"identical_headers={str(report.identical_headers).lower()}",
            f"identical_section_table={str(report.identical_section_table).lower()}",
            f"diff_confined_to_slack={str(report.diff_confined_to_slack).lower()}",
            f"diff_region_count={len(regions)}",
            *[f"diff_region_{i}=0x{region.offset:X}:{region.length}" for i, region in enumerate(regions)],
            f"note_count={len(notes)}",
            *[f"note_{i}={note}" for i, note in enumerate(notes)],
        ]
        write_atomic(args.outfile, ("\n".join(kv) + "\n").encode("utf-8"))
        lines.append(f"wrote {args.outfile}")
    return EXIT_OK if report.diff_confined_to_slack else EXIT_CHECK_FAILED, lines


def cmd_stat_embed(args) -> tuple[int, list[str]]:
    params = _stat_params(args)
    carrier = _read_carrier(args)
    with open(args.payload, "r", encoding="utf-8", errors="replace") as fh:  # U+FFFD is refused as a non-bit
        layout = pestego.MessageLayout.from_text(fh.read())
    key = _parse_key(args.key)
    stego = pestego.embed_message(carrier, key, layout, params)
    pestego.write_carrier(args.outfile, stego, bool(args.raw))
    return EXIT_OK, [
        f"embedded {layout.block_count} bits into {params.block_cols}x{params.block_rows} blocks (k={params.k})",
        f"wrote {args.outfile}",
    ]


# Fewest blocks per share. Split in two, a --csv read of 4,096 blocks saved 0.7-2 ms of 17-34 ms
# (break-even) and one of 8,192 saved 9-10 ms, with 8x8, 16x16 and 4x6 blocks (2-CPU Xeon, median of 15).
# Tuned for --csv: a default read of 8,192 8x8 blocks took 0.023 s serial and 0.028 s split (in-process, median of 25).
MIN_SHARE = 4096


def _share_text(carrier, key: bytes, params, first: int, end: int, csv: bool) -> str:
    """Blocks first..end-1 as stdout: bit digits, or with csv one newline-led row each, numbered from first."""
    q, bits = pestego.detect_blocks(carrier, key, end - first, params, first)
    if csv:
        return "".join([f"\n{i},{qi!r},{bit}" for i, qi, bit in zip(range(first, end), q, bits)])
    return bits.tobytes().translate(bytes.maketrans(b"\0\1", b"01")).decode()


def cmd_stat_extract(args) -> tuple[int, list[str]]:
    bits = _parse_int("--bits", args.bits)
    params = _stat_params(args)
    carrier = _read_carrier(args)
    key = _parse_key(args.key)
    params.z_alpha  # noqa: B018 -- imports statistics once, here, rather than in every worker
    # one equal run of blocks per usable CPU; a --bits that detect_blocks refuses gets one share
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") and hasattr(os, "fork") else 1
    shares = max(1, min(cpus, bits // MIN_SHARE)) if bits <= pestego.block_capacity(carrier, params) else 1
    cuts = [bits * i // shares for i in range(shares + 1)]
    pipes, pids = [], []
    try:
        for first, end in zip(cuts[1:], cuts[2:]):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            with open(write_end, "wb") as out:
                pids.append(os.fork())
                if pids[-1] == 0:  # the worker: it leaves through os._exit, never returning to the caller
                    try:
                        for pipe in pipes:  # the parent stays the only reader, so no worker waits on an unread pipe
                            pipe.close()
                        out.write(_share_text(carrier, key, params, first, end, args.csv).encode())
                        out.close()
                        os._exit(0)
                    finally:
                        os._exit(1)
        parts = [_share_text(carrier, key, params, 0, cuts[1], args.csv)] + [pipe.read().decode() for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()
        failed = [pid for pid in pids if os.waitpid(pid, 0)[1]]
    if failed:
        raise OSError(f"{len(failed)} of {len(pids)} stat-extract workers failed")
    return EXIT_OK, [("block,q,bit" if args.csv else "bits: ") + "".join(parts)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pestego",
        description="Hide files in 32-bit PE header slack and embed bits in raster carriers statistically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_strict(p):
        p.add_argument("--strict", action="store_true", help="treat PE layout warnings as errors")

    p = sub.add_parser("inspect", help="dump headers, section table, slack and capacity")
    p.add_argument("--in", dest="infile", required=True, help="PE file to inspect")
    add_strict(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("capacity", help="report how much payload fits the header slack")
    p.add_argument("--in", dest="infile", required=True, help="PE file")
    p.add_argument("--name", help="payload file name to account for (default: 1-byte name)")
    add_strict(p)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("embed", help="hide a payload file in the header slack")
    p.add_argument("--in", dest="infile", required=True, help="cover PE file")
    p.add_argument("--payload", required=True, help="file to hide")
    p.add_argument("--name", help="stored file name (default: payload basename)")
    p.add_argument("--out", dest="outfile", required=True, help="stego PE output path")
    p.add_argument("--force", action="store_true", help="overwrite non-zero slack content")
    add_strict(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("extract", help="recover a hidden payload file")
    p.add_argument("--in", dest="infile", required=True, help="stego PE file")
    p.add_argument("--out", dest="outdir", required=True, help="directory for the recovered file")
    add_strict(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("verify", help="byte-diff two PE files and check slack confinement")
    p.add_argument("before", help="cover PE file")
    p.add_argument("after", help="stego PE file")
    p.add_argument("--out", dest="outfile", help="write machine-readable report here")
    p.set_defaults(func=cmd_verify)

    def add_stat_common(p):
        p.add_argument("--in", dest="infile", required=True, help="carrier image (PGM unless --raw)")
        p.add_argument("--key", required=True, help="stego key: UTF-8 text or 0x-prefixed hex")
        p.add_argument("--alpha", default="0.05", help="significance level (default 0.05)")
        p.add_argument("--block", default="8x8", help="block size WxH in pixels (default 8x8)")
        p.add_argument("--raw", metavar="WxH", help="treat carrier as a headerless byte grid of WxH")

    p = sub.add_parser("stat-embed", help="embed message bits into carrier blocks")
    add_stat_common(p)
    p.add_argument("--payload", required=True, help="text file of message bits (0/1, whitespace ignored)")
    p.add_argument("--k", default="10", help="additive strength (default 10)")
    p.add_argument("--out", dest="outfile", required=True, help="stego carrier output path")
    p.set_defaults(func=cmd_stat_embed)

    p = sub.add_parser("stat-extract", help="recover message bits from a carrier")
    add_stat_common(p)
    p.add_argument("--bits", required=True, help="number of bits to read")
    p.add_argument("--csv", action="store_true", help="print block,q,bit as CSV")
    p.set_defaults(func=cmd_stat_extract)
    # detection needs no k: the test is blind to the embedding strength
    p.set_defaults(k="10")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, lines = args.func(args)
        text = "\n".join(lines) + "\n"
        if hasattr(sys.stdout, "buffer"):  # so that a path that is not UTF-8 prints as its own bytes
            sys.stdout.flush()
            sys.stdout.buffer.write(text.encode(sys.stdout.encoding, "surrogateescape"))
        else:
            sys.stdout.write(text)
        return code
    except (pestego.PeStegoError, ValueError, OSError) as exc:
        print(f"pestego: error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_BAD_INPUT)


if __name__ == "__main__":
    sys.exit(main())
