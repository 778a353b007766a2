"""Tests of the benchmark itself, on inputs small enough to run in seconds.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

SMALL_STAT = ((64, 48, 8, 8), (48, 48, 4, 6))
SMALL_PE = ((2, 1024), (3, 4096))


def small(name: str, work: Path) -> workloads.Workload:
    if name == "pe-slack":
        return workloads.pe_slack(workloads.pe_cases(7, workloads.load_pe_builder(run.ROOT), SMALL_PE), work)
    cases = workloads.stat_cases(7, SMALL_STAT)
    return (workloads.stat_detect if name == "stat-detect" else workloads.stat_mark)(cases, work)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_stdout_matches_subprocess(name, tmp_path):
    workload = small(name, tmp_path)
    tally = run.Tally()
    _, plain = run.run_pass(workload, run.SubprocessRunner(tmp_path, perf_counter() + 120), tally)
    tracer = tracing.Tracer()
    with tracing.patched(tracer.wrap):
        _, traced = run.run_pass(workload, run.InProcessRunner(), tally)
    assert tally.failed == 0
    assert traced == plain
    assert {span[0] for span in tracer.spans} >= {"cli.main"}


def test_wrappers_removed_after_traced_run(tmp_path):
    import pestego.cli

    before = [(owner, attr, raw) for owner, attr, _, raw in tracing.targets()]
    workload = small("pe-slack", tmp_path)
    with pytest.raises(RuntimeError), tracing.patched(tracing.Tracer().wrap):
        assert pestego.cli.parse_pe is not pestego.pe_format.parse_pe
        run.run_pass(workload, run.InProcessRunner(), run.Tally())
        raise RuntimeError("leave the traced run by an exception")
    assert all(vars(owner)[attr] is raw for owner, attr, raw in before)
    assert pestego.cli.parse_pe is pestego.pe_format.parse_pe


def test_trace_counts_parse_pe_per_embed(tmp_path):
    tracer = tracing.Tracer()
    with tracing.patched(tracer.wrap):
        run.run_pass(small("pe-slack", tmp_path), run.InProcessRunner(), run.Tally())
    metrics = tracer.metrics()
    assert metrics["pe_format.parse_pe.calls_per_embed"] == 2
    assert metrics["payload.hide.errors"] == metrics["payload.retract.errors"] == 1


def test_timeout_drops_the_partial_pass_without_failing(tmp_path):
    workload = small("pe-slack", tmp_path)
    inner, calls = run.InProcessRunner(), []

    def cut_in_second_pass(argv):
        calls.append(argv)
        if len(calls) > len(workload.invocations) + 2:
            raise run.Timeout
        return inner(argv)

    tally = run.Tally()
    passes = run.run_passes(workload, cut_in_second_pass, tally, seconds=60, deadline=perf_counter() + 60)
    assert len(passes) == 1 and tally.timed_out
    assert (tally.attempted, tally.failed) == (len(workload.invocations) + 2, 0)
    with pytest.raises(run.Timeout):
        run.SubprocessRunner(tmp_path, perf_counter() - 1)(["inspect", "--in", "missing.exe"])


def test_key_mask_matches_derive_pattern():
    from pestego.statstego import derive_pattern

    for key, length in ((b"", 4), (b"swordfish", 64), (b"\xde\xad\xbe\xef", 24), (b"bench-1-2", 256)):
        derived = np.frombuffer(derive_pattern(key, length).bits, dtype=np.uint8).astype(bool)
        assert np.array_equal(reference.key_mask(key, length), derived)


def _run_checked(invocation: workloads.Invocation) -> bytes:
    result = run.InProcessRunner()(invocation.argv)
    assert result.code == invocation.expect
    invocation.check(result.stdout)
    return result.stdout


def test_pixel_oracle_rejects_one_flipped_pixel(tmp_path):
    invocation = small("stat-mark", tmp_path).invocations[0]
    stdout = _run_checked(invocation)
    out = Path(invocation.argv[invocation.argv.index("--out") + 1])
    data = bytearray(out.read_bytes())
    data[-1] ^= 1
    out.write_bytes(data)
    with pytest.raises(reference.OracleError, match="1 pixels differ"):
        invocation.check(stdout)


def test_payload_oracle_rejects_one_flipped_byte(tmp_path):
    workload = small("pe-slack", tmp_path)
    for invocation in workload.invocations[:4]:  # inspect, capacity, embed, extract of the first cover
        stdout = _run_checked(invocation)
    recovered = tmp_path / "out0" / workloads.PAYLOAD_NAME
    data = bytearray(recovered.read_bytes())
    data[len(data) // 2] ^= 0x40
    recovered.write_bytes(data)
    with pytest.raises(reference.OracleError, match="recovered bytes differ"):
        workload.invocations[3].check(stdout)


def test_csv_oracle_rejects_one_flipped_bit(tmp_path):
    invocation = small("stat-detect", tmp_path).invocations[0]
    lines = _run_checked(invocation).decode().split("\n")
    row = lines[5].split(",")
    row[2] = "1" if row[2] == "0" else "0"
    lines[5] = ",".join(row)
    with pytest.raises(reference.OracleError, match="block 4: bit"):
        invocation.check("\n".join(lines).encode())


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "pe-slack", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
