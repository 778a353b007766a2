"""The benchmark's workloads: fixed-seed inputs and the CLI invocations of one pass.

Each workload writes its inputs into a work directory and returns the
invocations one pass makes, in order, each with the exit code it must end
with and an oracle that checks what it printed and wrote.  Why each
workload exists is recorded in bench/README.md.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import Callable

import numpy as np

import reference
from reference import OracleError

# (width, height, block width, block height): the block count and the
# block length vary independently, and 4x6 is where float batching drifts.
STAT_SHAPES = ((2048, 2048, 8, 8), (2048, 2048, 16, 16), (1024, 1024, 4, 6))
# (sections, raw bytes per section): about 34 KB, 1 MB and 16 MB covers.
PE_COVERS = ((4, 15 * 512), (8, 255 * 512), (8, 4095 * 512))
ALPHA = 0.001
K = 10
NOISE_SIGMA = 3.0
FILE_ALIGNMENT = 512
HEADER_SLACK = 3584
PAYLOAD_NAME = "payload.bin"
PAYLOAD_SHARE = 0.75  # of the usable slack capacity
RECORD_OVERHEAD = 14  # magic + name_len + data_len + crc, from the wire format


@dataclass
class Invocation:
    command: str  # the end-to-end metric it is timed under, e.g. "stat_extract"
    argv: list[str]  # arguments after `python -m pestego.cli`
    input_bytes: int
    check: Callable[[bytes], dict]  # stdout -> quality counts; raises OracleError
    expect: int = 0


@dataclass
class Workload:
    invocations: list[Invocation]
    outputs: list[Path] = field(default_factory=list)  # removed after every pass

    def clear_outputs(self) -> None:
        for path in self.outputs:
            path.unlink(missing_ok=True)


@dataclass
class StatCase:
    block_w: int
    block_h: int
    key: str
    mask: np.ndarray
    message: np.ndarray
    cover: np.ndarray
    stego: np.ndarray

    @property
    def block_arg(self) -> str:
        return f"{self.block_w}x{self.block_h}"


def stat_cases(seed: int, shapes=STAT_SHAPES) -> list[StatCase]:
    """Gradient-plus-noise covers and their reference stego carriers."""
    cases = []
    for index, (width, height, block_w, block_h) in enumerate(shapes):
        rng = np.random.default_rng([seed, index])
        noisy = np.linspace(0.0, 255.0, width) + rng.normal(0.0, NOISE_SIGMA, (height, width))
        cover = np.clip(np.rint(noisy), 0, 255).astype(np.uint8)
        blocks = (height // block_h) * (width // block_w)
        message = rng.permutation(np.arange(blocks) < blocks // 2).astype(np.uint8)
        key = f"bench-{seed}-{index}"
        mask = reference.key_mask(key.encode(), block_w * block_h)
        stego = reference.embed(cover, mask, block_h, block_w, message, K)
        cases.append(StatCase(block_w, block_h, key, mask, message, cover, stego))
    return cases


def _quality(q_ref: np.ndarray, message: np.ndarray, stdout: bytes) -> dict:
    bits = reference.check_csv(stdout, q_ref, ALPHA)
    zeros = message == 0
    return {
        "bit_errors": int((bits != message).sum()),
        "message_bits": len(message),
        "false_ones": int((bits[zeros] == 1).sum()),
        "zero_bits": int(zeros.sum()),
    }


def stat_detect(cases: list[StatCase], work: Path) -> Workload:
    invocations = []
    for index, case in enumerate(cases):
        path = work / f"stego{index}.pgm"
        path.write_bytes(reference.encode_pgm(case.stego))
        count = len(case.message)
        q_ref = reference.q_values(reference.blocks(case.stego, case.block_h, case.block_w, count), case.mask)
        argv = ["stat-extract", "--in", str(path), "--key", case.key, "--bits", str(count),
                "--block", case.block_arg, "--alpha", str(ALPHA), "--csv"]
        invocations.append(Invocation("stat_extract", argv, path.stat().st_size, partial(_quality, q_ref, case.message)))
    return Workload(invocations)


def _check_marked(out: Path, case: StatCase, stdout: bytes) -> dict:
    first = stdout.decode().split("\n")[0]
    if first != f"embedded {len(case.message)} bits into {case.block_arg} blocks (k={K})":
        raise OracleError(f"unexpected stat-embed report {first!r}")
    reference.check_pixels(out.read_bytes(), case.stego)
    return {}


def stat_mark(cases: list[StatCase], work: Path) -> Workload:
    workload = Workload([])
    for index, case in enumerate(cases):
        cover, message, out = work / f"cover{index}.pgm", work / f"message{index}.txt", work / f"marked{index}.pgm"
        cover.write_bytes(reference.encode_pgm(case.cover))
        message.write_text("".join("01"[b] for b in case.message))
        argv = ["stat-embed", "--in", str(cover), "--key", case.key, "--payload", str(message),
                "--block", case.block_arg, "--k", str(K), "--out", str(out)]
        size = cover.stat().st_size + message.stat().st_size
        workload.invocations.append(Invocation("stat_embed", argv, size, partial(_check_marked, out, case)))
        workload.outputs.append(out)
    return workload


def load_pe_builder(root: Path):
    """The test suite's PE generator, which reports the layout facts it built."""
    if str(root / "tests") not in sys.path:
        sys.path.append(str(root / "tests"))
    import pe_builder

    return pe_builder


@dataclass
class PeCase:
    cover: bytes
    slack_offset: int
    slack_length: int
    sections: int
    payload: bytes

    @property
    def slack_end(self) -> int:
        return self.slack_offset + self.slack_length

    @cached_property
    def stego(self) -> bytes:
        record = reference.payload_record(PAYLOAD_NAME, self.payload)
        return self.cover[: self.slack_offset] + record + self.cover[self.slack_offset + len(record) :]


def pe_cases(seed: int, pe_builder, covers=PE_COVERS) -> list[PeCase]:
    cases = []
    for index, (sections, raw_size) in enumerate(covers):
        built = pe_builder.build_pe(
            file_alignment=FILE_ALIGNMENT,
            header_slack=HEADER_SLACK,
            sections=[pe_builder.SectionPlan(raw_size=raw_size) for _ in range(sections)],
            content_seed=seed * len(covers) + index,
        )
        usable = built.header_slack_length - RECORD_OVERHEAD - len(PAYLOAD_NAME)
        payload = np.random.default_rng([seed, 100 + index]).bytes(int(usable * PAYLOAD_SHARE))
        cases.append(PeCase(built.data, built.header_slack_offset, built.header_slack_length, sections, payload))
    return cases


def _match(pattern: str, stdout: bytes) -> re.Match:
    found = re.search(pattern, stdout.decode(), re.MULTILINE)
    if found is None:
        raise OracleError(f"no line matching {pattern!r}")
    return found


def _slack_span(case: PeCase, found: re.Match) -> None:
    span = (int(found[1], 16), int(found[2], 16), int(found[3]))
    if span != (case.slack_offset, case.slack_end, case.slack_length):
        raise OracleError(f"slack reported as {span}, built as {(case.slack_offset, case.slack_end, case.slack_length)}")


def _check_inspect(case: PeCase, stdout: bytes) -> dict:
    _slack_span(case, _match(r"^header slack:\s+0x([0-9A-F]+) \.\. 0x([0-9A-F]+) \((\d+) bytes\)$", stdout))
    if int(_match(r"^number of sections:\s+(\d+)$", stdout)[1]) != case.sections:
        raise OracleError("section count differs from the built layout")
    if int(_match(r"^capacity:\s+(\d+) payload bytes", stdout)[1]) != case.slack_length - RECORD_OVERHEAD - 1:
        raise OracleError("1-byte-name capacity differs from slack minus framing")
    return {}


def _check_capacity(case: PeCase, stdout: bytes) -> dict:
    _slack_span(case, _match(r"^slack region:\s+0x([0-9A-F]+) \.\. 0x([0-9A-F]+) \((\d+) bytes\)$", stdout))
    usable = case.slack_length - RECORD_OVERHEAD - len(PAYLOAD_NAME)
    if int(_match(r"^usable payload:\s+(\d+) bytes$", stdout)[1]) != usable:
        raise OracleError(f"usable payload differs from {usable}")
    return {}


def _check_embed(case: PeCase, stego: Path, stdout: bytes) -> dict:
    found = _match(rf'^hid "{re.escape(PAYLOAD_NAME)}" \((\d+) data bytes, (\d+) record bytes\) at 0x([0-9A-F]+)$', stdout)
    record = len(reference.payload_record(PAYLOAD_NAME, case.payload))
    if (int(found[1]), int(found[2]), int(found[3], 16)) != (len(case.payload), record, case.slack_offset):
        raise OracleError(f"embed report {found[0]!r} disagrees with the payload and layout")
    if stego.read_bytes() != case.stego:
        raise OracleError("stego file differs from the cover with the record written at the slack")
    return {}


def _check_extract(case: PeCase, recovered: Path, stdout: bytes) -> dict:
    _match(rf'^recovered "{re.escape(PAYLOAD_NAME)}" \({len(case.payload)} bytes\)$', stdout)
    if recovered.read_bytes() != case.payload:
        raise OracleError("recovered bytes differ from the hidden payload")
    return {}


def _check_verify(case: PeCase, stdout: bytes) -> dict:
    _match(r"^diff confined to slack:\s+yes$", stdout)
    found = re.findall(r"^  0x([0-9A-F]+) \.\. 0x([0-9A-F]+) \((\d+) bytes\)$", stdout.decode(), re.MULTILINE)
    regions = [(int(start, 16), int(length)) for start, _, length in found]
    if regions != reference.diff_regions(case.cover, case.stego):
        raise OracleError(f"verify reports regions {regions}, the files differ elsewhere")
    if not all(case.slack_offset <= start and start + length <= case.slack_end for start, length in regions):
        raise OracleError("a reported region lies outside the slack")
    return {}


def _check_absent(path: Path, stdout: bytes) -> dict:
    if path.exists():
        raise OracleError(f"a refused command wrote {path.name}")
    return {}


def pe_slack(cases: list[PeCase], work: Path) -> Workload:
    workload = Workload([])
    add = workload.invocations.append
    for index, case in enumerate(cases):
        cover, stego, payload = work / f"cover{index}.exe", work / f"stego{index}.exe", work / f"in{index}" / PAYLOAD_NAME
        outdir = work / f"out{index}"
        cover.write_bytes(case.cover)
        payload.parent.mkdir()
        payload.write_bytes(case.payload)
        size, stego_size = len(case.cover), len(case.stego)
        add(Invocation("inspect", ["inspect", "--in", str(cover)], size, partial(_check_inspect, case)))
        add(Invocation("capacity", ["capacity", "--in", str(cover), "--name", PAYLOAD_NAME], size,
                       partial(_check_capacity, case)))
        add(Invocation("embed", ["embed", "--in", str(cover), "--payload", str(payload), "--out", str(stego)],
                       size + len(case.payload), partial(_check_embed, case, stego)))
        add(Invocation("extract", ["extract", "--in", str(stego), "--out", str(outdir)], stego_size,
                       partial(_check_extract, case, outdir / PAYLOAD_NAME)))
        add(Invocation("verify", ["verify", str(cover), str(stego)], size + stego_size, partial(_check_verify, case)))
        workload.outputs += [stego, outdir / PAYLOAD_NAME]
    # the two refusals: occupied slack (exit 4) and a cover without a record (exit 5)
    first = cases[0]
    refused = work / "refused.exe"
    add(Invocation("embed", ["embed", "--in", str(work / "stego0.exe"), "--payload", str(work / "in0" / PAYLOAD_NAME),
                             "--out", str(refused)], len(first.stego) + len(first.payload),
                   partial(_check_absent, refused), expect=4))
    add(Invocation("extract", ["extract", "--in", str(work / "cover0.exe"), "--out", str(work / "refused")],
                   len(first.cover), partial(_check_absent, work / "refused"), expect=5))
    return workload


def build(name: str, seed: int, work: Path, root: Path) -> tuple[Workload, dict[str, np.ndarray]]:
    """The named workload over inputs made from ``seed``, plus the key masks it uses."""
    if name == "pe-slack":
        return pe_slack(pe_cases(seed, load_pe_builder(root)), work), {}
    cases = stat_cases(seed)
    masks = {case.key: case.mask for case in cases}
    return (stat_detect if name == "stat-detect" else stat_mark)(cases, work), masks


WORKLOADS = ("stat-detect", "stat-mark", "pe-slack")
