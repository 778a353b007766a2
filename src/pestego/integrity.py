"""Structural invariance checks between a cover file and its stego twin.

A hide operation is considered safe when every differing byte lies inside
the cover's header slack: the loader never reads that span, so headers,
section table and all mapped data are untouched.  Running the stego file
is deliberately not part of this module; the byte-level report stands in
for it.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .pe_format import SECTION_HEADER_SIZE, Region, header_slack, parse_pe


class EquivalenceReport(namedtuple("EquivalenceReport", "identical_headers identical_section_table diff_regions"
                                   " diff_confined_to_slack notes", defaults=((),))):
    """What compare found: diff_regions is a tuple of Region, notes a tuple of str."""

    __slots__ = ()


_CHUNK = 1 << 16
_NONZERO_RUN = re.compile(rb"[^\x00]+")


def _diff_regions(before: bytes, after: bytes) -> tuple[Region, ...]:
    """Maximal runs of differing bytes; a length mismatch adds the tail as one run.

    Equal 64 KiB chunks are skipped with one memcmp.  A differing chunk is
    XORed as two big integers, and the nonzero runs of the XOR are the
    differing runs; a run that ends at a chunk edge joins one that starts there.
    """
    n = min(len(before), len(after))
    runs: list[list[int]] = []
    for base in range(0, n, _CHUNK):
        top = min(base + _CHUNK, n)
        a, b = before[base:top], after[base:top]
        if a == b:
            continue
        xor = (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(top - base, "little")
        for match in _NONZERO_RUN.finditer(xor):
            start, end = base + match.start(), base + match.end()
            if runs and runs[-1][1] == start:
                runs[-1][1] = end
            else:
                runs.append([start, end])
    regions = [Region(start, end - start) for start, end in runs]
    if len(before) != len(after):
        regions.append(Region(n, max(len(before), len(after)) - n))
    return tuple(regions)


def compare(before: bytes, after: bytes) -> EquivalenceReport:
    """Byte-diff two PE files and judge whether the change is slack-confined."""
    cover = parse_pe(before)
    parse_pe(after)  # both sides must be valid PE; result layout comes from the cover

    regions = _diff_regions(before, after)
    header_span = cover.header_end_offset
    table_start = header_span - SECTION_HEADER_SIZE * cover.nt_headers.number_of_sections
    identical_headers = before[:header_span] == after[:header_span]
    identical_section_table = before[table_start:header_span] == after[table_start:header_span]

    slack = header_slack(cover)
    confined = len(before) == len(after) and all(slack.contains(r) for r in regions)

    notes: list[str] = []
    if len(before) != len(after):
        notes.append(f"file length changed: {len(before)} -> {len(after)} bytes")
    if cover.nt_headers.checksum != 0:
        notes.append(
            f"optional-header CheckSum is nonzero (0x{cover.nt_headers.checksum:08X}) and was left"
            " unchanged; some loaders verify it for drivers"
        )
    return EquivalenceReport(
        identical_headers=identical_headers,
        identical_section_table=identical_section_table,
        diff_regions=regions,
        diff_confined_to_slack=confined,
        notes=tuple(notes),
    )
