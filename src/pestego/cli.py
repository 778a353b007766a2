"""Command-line surface for the toolkit.

Exit codes are stable: 0 success, 1 check failed or operation refused,
2 unusable input (parse/usage/IO), 3 InsufficientSlack, 4 SlackOccupied,
5 NoPayload, 6 CorruptPayload, 7 CarrierTooSmall.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import pgm
from .errors import (
    CarrierTooSmallError,
    CorruptPayloadError,
    InsufficientSlackError,
    NoPayloadError,
    PeStegoError,
    SlackOccupiedError,
    UnsafeNameError,
)
from .integrity import compare
from .payload import capacity, hide, retract, write_extracted_file
from .pe_format import header_slack, parse_pe, section_slack, serialize
from .statstego import (
    Carrier,
    MessageLayout,
    StatParams,
    detect_blocks,
    embed_message,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_INSUFFICIENT_SLACK = 3
EXIT_SLACK_OCCUPIED = 4
EXIT_NO_PAYLOAD = 5
EXIT_CORRUPT_PAYLOAD = 6
EXIT_CARRIER_TOO_SMALL = 7


def _parse_key(text: str) -> bytes:
    if text.startswith(("0x", "0X")):
        try:
            return bytes.fromhex(text[2:])
        except ValueError:
            raise ValueError(f"bad hex key {text!r}") from None
    return text.encode("utf-8")


def _parse_dims(text: str) -> tuple[int, int]:
    """'WxH' -> (width, height)."""
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"expected WxH, got {text!r}")
    try:
        w, h = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"expected WxH, got {text!r}") from None
    if w < 1 or h < 1:
        raise ValueError(f"dimensions must be positive, got {text!r}")
    return w, h


def _read_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _load_image(path: str, strict: bool):
    return parse_pe(_read_file(path), strict=strict)


def _stat_params(args) -> StatParams:
    block_w, block_h = _parse_dims(args.block)
    return StatParams(block_rows=block_h, block_cols=block_w, k=args.k, alpha=args.alpha)


def _read_carrier(args) -> Carrier:
    if args.raw:
        w, h = _parse_dims(args.raw)
        return pgm.read_raw(args.infile, w, h)
    return pgm.read_pgm(args.infile)


def _write_carrier(args, path: str, carrier: Carrier) -> None:
    if args.raw:
        pgm.write_raw(path, carrier)
    else:
        pgm.write_pgm(path, carrier)


def cmd_inspect(args) -> int:
    image = _load_image(args.infile, args.strict)
    nt = image.nt_headers
    slack = header_slack(image)
    usable = capacity(image, "x").usable
    print(f"machine:            0x{nt.machine:04X}")
    print(f"number of sections: {nt.number_of_sections}")
    print(f"image base:         0x{nt.image_base:08X}")
    print(f"entry point rva:    0x{nt.address_of_entry_point:08X}")
    print(f"file alignment:     0x{nt.file_alignment:X}")
    print(f"size of headers:    0x{nt.size_of_headers:X}")
    print(f"checksum:           0x{nt.checksum:08X}")
    print(f"header table end:   0x{image.header_end_offset:X}")
    print(f"header slack:       0x{slack.offset:X} .. 0x{slack.end:X} ({slack.length} bytes)")
    print(f"capacity:           {usable} payload bytes (1-byte name)")
    print("sections:")
    print("  name      vaddr       vsize       rawptr      rawsize     slack")
    for i, sec in enumerate(image.sections):
        s = section_slack(image, i)
        tail = f"{s.length} bytes @ 0x{s.offset:X}" if s.length else "-"
        print(
            f"  {sec.display_name():<8}  0x{sec.virtual_address:08X}  0x{sec.virtual_size:08X}"
            f"  0x{sec.pointer_to_raw_data:08X}  0x{sec.size_of_raw_data:08X}  {tail}"
        )
    if image.warnings:
        print("warnings:")
        for w in image.warnings:
            print(f"  - {w}")
    return EXIT_OK


def cmd_capacity(args) -> int:
    image = _load_image(args.infile, args.strict)
    name = args.name if args.name is not None else "x"
    report = capacity(image, name)
    print(f'name:           "{name}" ({len(name.encode("utf-8"))} bytes)')
    for line in report.lines():
        print(line)
    return EXIT_OK


def cmd_embed(args) -> int:
    image = _load_image(args.infile, args.strict)
    data = _read_file(args.payload)
    name = args.name if args.name is not None else os.path.basename(args.payload)
    stego = hide(image, name, data, force=args.force)
    with open(args.outfile, "wb") as fh:
        fh.write(serialize(stego))
    slack = header_slack(image)
    record_len = capacity(image, name).overhead + len(data)
    print(f'hid "{name}" ({len(data)} data bytes, {record_len} record bytes) at 0x{slack.offset:X}')
    print(f"slack used: {record_len}/{slack.length} bytes")
    print(f"wrote {args.outfile}")
    return EXIT_OK


def cmd_extract(args) -> int:
    image = _load_image(args.infile, args.strict)
    name, data = retract(image)
    path = write_extracted_file(name, data, args.outdir)
    print(f'recovered "{name}" ({len(data)} bytes)')
    print(f"wrote {path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    report = compare(_read_file(args.before), _read_file(args.after))
    for line in report.summary_lines():
        print(line)
    if args.outfile:
        with open(args.outfile, "w", encoding="utf-8") as fh:
            fh.write(report.to_kv())
        print(f"wrote {args.outfile}")
    return EXIT_OK if report.diff_confined_to_slack else EXIT_CHECK_FAILED


def cmd_stat_embed(args) -> int:
    params = _stat_params(args)
    carrier = _read_carrier(args)
    with open(args.payload, "r", encoding="utf-8") as fh:
        layout = MessageLayout.from_text(fh.read())
    key = _parse_key(args.key)
    stego = embed_message(carrier, key, layout, params)
    _write_carrier(args, args.outfile, stego)
    print(
        f"embedded {layout.block_count} bits into {params.block_cols}x{params.block_rows} blocks"
        f" (k={params.k})"
    )
    print(f"wrote {args.outfile}")
    return EXIT_OK


def cmd_stat_extract(args) -> int:
    params = _stat_params(args)
    carrier = _read_carrier(args)
    key = _parse_key(args.key)
    q, bits = detect_blocks(carrier, key, args.bits, params)
    q, bits = q.tolist(), bits.tolist()
    if args.csv:
        lines = ["block,q,bit"] + [f"{i},{qi!r},{bit}" for i, (qi, bit) in enumerate(zip(q, bits))]
    else:
        lines = ["bits: " + "".join(map(str, bits))]
        lines += [f"block {i}: q={qi:+.6f} bit={bit}" for i, (qi, bit) in enumerate(zip(q, bits))]
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


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
        p.add_argument("--alpha", type=float, default=0.05, help="significance level (default 0.05)")
        p.add_argument("--block", default="8x8", help="block size WxH in pixels (default 8x8)")
        p.add_argument("--raw", metavar="WxH", help="treat carrier as a headerless byte grid of WxH")

    p = sub.add_parser("stat-embed", help="embed message bits into carrier blocks")
    add_stat_common(p)
    p.add_argument("--payload", required=True, help="text file of message bits (0/1, whitespace ignored)")
    p.add_argument("--k", type=int, default=10, help="additive strength (default 10)")
    p.add_argument("--out", dest="outfile", required=True, help="stego carrier output path")
    p.set_defaults(func=cmd_stat_embed)

    p = sub.add_parser("stat-extract", help="recover message bits from a carrier")
    add_stat_common(p)
    p.add_argument("--bits", type=int, required=True, help="number of bits to read")
    p.add_argument("--csv", action="store_true", help="print block,q,bit as CSV")
    p.set_defaults(func=cmd_stat_extract)
    # detection needs no k: the test is blind to the embedding strength
    p.set_defaults(k=10)

    return parser


_EXIT_BY_ERROR = (
    (InsufficientSlackError, EXIT_INSUFFICIENT_SLACK),
    (SlackOccupiedError, EXIT_SLACK_OCCUPIED),
    (NoPayloadError, EXIT_NO_PAYLOAD),
    (CorruptPayloadError, EXIT_CORRUPT_PAYLOAD),
    (CarrierTooSmallError, EXIT_CARRIER_TOO_SMALL),
    (UnsafeNameError, EXIT_CHECK_FAILED),
    (PeStegoError, EXIT_BAD_INPUT),  # parse failures, bad names, bad block sizes
    (ValueError, EXIT_BAD_INPUT),
    (OSError, EXIT_BAD_INPUT),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(err for err, _ in _EXIT_BY_ERROR) as exc:
        print(f"pestego: error: {exc}", file=sys.stderr)
        for err_type, code in _EXIT_BY_ERROR:
            if isinstance(exc, err_type):
                return code
        return EXIT_CHECK_FAILED  # unreachable


if __name__ == "__main__":
    sys.exit(main())
