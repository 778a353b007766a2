"""Closed-loop benchmark of the pestego command line.

    python3 bench/run.py --workload stat-detect --seed 1 --seconds 35 --trace 0

One client runs one `python -m pestego.cli ...` subprocess at a time, with
the checkout's src/ on PYTHONPATH.  After one untimed warm-up pass it
repeats the workload's pass while another pass of the last one's length
still fits in --seconds.  Every output is checked against bench/reference.py.
With --trace 1 the passes run in-process instead, under wrappers that
record spans at each layer boundary (bench/tracing.py), and the per-layer
metrics are reported.  The last line of stdout is one JSON object; the
lines before it name every metric with its unit.  bench/README.md lists
the metrics and what each should move.

A command still running when the run's time limit passes is killed; its
pass is dropped and reported as a timeout, not counted as a failure.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from reference import OracleError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"
SETUP_SAMPLES = 7
HARD_LIMIT_S = 150.0  # commands still running after this are killed, so a run ends within 180 s
IMPORT_SPLIT = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import pestego.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
ALLOC_LAYERS = ("statstego.block_statistics", "statstego.embed_message")
PER_LAYER = (
    "import.numpy_s", "import.pestego_s", "cli.self_s", "cli.stdout_bytes",
    "statstego.block_statistics.self_s", "statstego.statistic.self_s", "statstego.statistic.calls",
    "statstego.detect_bit.calls", "statstego.embed_message.self_s", "statstego.MessageLayout.from_text.s",
    "statstego.derive_pattern.s", "statstego.block_statistics.peak_alloc_mb", "statstego.embed_message.peak_alloc_mb",
    "pgm.read_pgm.s", "pgm.decode_pgm.self_s", "pgm.write_pgm.s", "pgm.encode_pgm.self_s",
    "pe_format.parse_pe.self_s", "pe_format.parse_pe.calls", "pe_format.parse_pe.calls_per_embed",
    "pe_format.serialize.self_s", "pe_format.serialize.calls", "payload.hide.self_s", "payload.PayloadRecord.encode.s",
    "payload.retract.self_s", "payload.PayloadRecord.decode.s", "payload.write_extracted_file.s", "payload.capacity.s",
    "payload.hide.errors", "payload.retract.errors", "integrity.compare.self_s", "trace.overhead_s",
)


class Timeout(Exception):
    """The run's time limit passed while a pass was still running."""


@dataclass
class Result:
    code: int
    stdout: bytes
    stderr: bytes
    seconds: float


class SubprocessRunner:
    """Runs one CLI command as a child process, killed if it outlives the run's deadline."""

    def __init__(self, work: Path, deadline: float):
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.work = work
        self.deadline = deadline

    def __call__(self, argv: list[str]) -> Result:
        left = self.deadline - perf_counter()
        if left <= 0:
            raise Timeout
        start = perf_counter()
        try:
            done = subprocess.run([sys.executable, "-m", "pestego.cli", *argv], capture_output=True,
                                  env=self.env, cwd=self.work, timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise Timeout from exc
        return Result(done.returncode, done.stdout, done.stderr, perf_counter() - start)


class InProcessRunner:
    """Calls pestego.cli.main directly, looking it up on each call so wrappers apply."""

    def __call__(self, argv: list[str]) -> Result:
        import pestego.cli

        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pestego.cli.main(argv)
        elapsed = perf_counter() - start
        return Result(code, out.getvalue().encode(), err.getvalue().encode(), elapsed)


@dataclass
class Tally:
    """Everything a run counts across its passes."""

    attempted: int = 0  # CLI invocations
    failed: int = 0
    mask_mismatches: int = 0  # derive_pattern masks that differ from the pinned recipe
    timed_out: bool = False
    quality: Counter = field(default_factory=Counter)
    samples: dict = field(default_factory=lambda: defaultdict(list))  # command -> seconds per invocation

    def fail(self, why: str) -> None:
        self.failed += 1
        print(f"bench: FAILED {why}", file=sys.stderr)


def run_pass(workload: workloads.Workload, runner, tally: Tally) -> tuple[Counter, list[bytes]]:
    """One pass in order; returns seconds per command and every stdout."""
    spent, stdouts = Counter(), []
    for inv in workload.invocations:
        result = runner(inv.argv)
        tally.attempted += 1
        tally.samples[inv.command].append(result.seconds)
        spent[inv.command] += result.seconds
        stdouts.append(result.stdout)
        if result.code != inv.expect:
            stderr = result.stderr[-500:].decode(errors="replace")
            tally.fail(f"{inv.argv[0]}: exit {result.code}, expected {inv.expect}: {stderr}")
            continue
        try:
            tally.quality.update(inv.check(result.stdout))
        except (OracleError, OSError, UnicodeDecodeError) as exc:
            tally.fail(f"{inv.argv[0]}: {exc}")
    workload.clear_outputs()
    return spent, stdouts


def run_passes(workload, runner, tally: Tally, seconds: float, deadline: float, each=None) -> list:
    """Repeat passes while another one of the last pass's length still fits in ``seconds``.

    A pass cut by the deadline is dropped; the commands it finished stay counted.
    """
    start = perf_counter()
    done = []
    while True:
        begun = perf_counter()
        try:
            done.append(each() if each else run_pass(workload, runner, tally)[0])
        except Timeout:
            if not done:
                raise
            tally.timed_out = True
            return done
        now = perf_counter()
        if now - start + (now - begun) > seconds or now > deadline:
            return done


def timed_subprocess(argv: list[str], samples: int, cwd: Path) -> list:
    """Per-sample wall seconds and stdout of a short child, after one warm-up run."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    runs = []
    for _ in range(samples + 1):
        start = perf_counter()
        done = subprocess.run(argv, env=env, cwd=cwd, stdout=subprocess.PIPE, check=True, timeout=60)
        runs.append((perf_counter() - start, done.stdout))
    return runs[1:]


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    if len(values) < 11:
        return f"n={len(values)}, too few for a tail percentile"
    ordered = sorted(values)
    rank = len(values) - 10
    return f"n={len(values)}, p{100 * rank / len(values):.0f}={ordered[rank - 1]:.4f} s"


def machine() -> dict:
    model = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    commit, dirty = "unknown (not a git checkout)", None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        commit = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30).stdout.strip()
        status = subprocess.run([*git, "status", "--porcelain"], capture_output=True, text=True, timeout=30).stdout
        dirty = bool(status.strip())
    return {"cpu": model, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "commit": commit, "dirty": dirty}


def check_masks(masks: dict, tally: Tally) -> None:
    """The README's pinned recipe, recomputed in reference.py, must equal derive_pattern."""
    from pestego.statstego import derive_pattern

    for key, mask in masks.items():
        derived = np.frombuffer(derive_pattern(key.encode(), len(mask)).bits, dtype=np.uint8).astype(bool)
        if not np.array_equal(derived, mask):
            tally.mask_mismatches += 1
            print(f"bench: FAILED derive_pattern({key!r}, {len(mask)}) differs from the pinned recipe", file=sys.stderr)


def end_to_end(workload, tally: Tally, seconds: float, deadline: float, work: Path) -> dict:
    setup = statistics.median(t for t, _ in timed_subprocess([sys.executable, "-c", "import pestego.cli"], SETUP_SAMPLES, work))
    runner = SubprocessRunner(work, deadline)
    run_pass(workload, runner, tally)  # warm-up: page cache and bytecode
    tally.samples.clear()
    passes = run_passes(workload, runner, tally, seconds, deadline)
    pass_s = statistics.median(sum(p.values()) for p in passes)
    pass_bytes = sum(inv.input_bytes for inv in workload.invocations)
    print(f"passes: {len(passes)} closed-loop, one client, one subprocess at a time")
    if tally.timed_out:
        print(f"timeout: the {HARD_LIMIT_S:g} s limit cut a pass short; that pass is dropped")
    for command, times in tally.samples.items():
        per_pass = statistics.median(p[command] for p in passes)
        print(f"{command}_s: {per_pass:.4f} s median per pass ({tail_percentile(times)} per invocation)")
    q = tally.quality
    if q["message_bits"]:
        checked = f"over {len(passes) + 1} checked passes, warm-up included"
        print(f"ber: {q['bit_errors'] / q['message_bits']:.6g} ({q['bit_errors']} of {q['message_bits']} bits {checked})")
        print(f"fpr: {q['false_ones'] / q['zero_bits']:.6g} at alpha {workloads.ALPHA} "
              f"({q['false_ones']} of {q['zero_bits']} zero bits read as one {checked})")
    print(f"input_mb_s: {pass_bytes / pass_s / 1e6:.6g} MB/s ({pass_bytes} input bytes per pass)")
    print(f"error_rate: {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted} invocations)")
    # the largest max-RSS of any reaped child; the command subprocesses outgrow the bare imports
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {"setup_s": setup, "pass_s": pass_s, "peak_rss_mb": peak_rss_mb}


def traced(workload, tally: Tally, seconds: float, deadline: float) -> dict:
    from tracing import AllocProbe, Tracer, patched

    splits = [out.split() for _, out in timed_subprocess([sys.executable, "-c", IMPORT_SPLIT], SETUP_SAMPLES, SRC)]
    runner = InProcessRunner()
    run_pass(workload, runner, tally)  # warm-up: imports and first-call costs

    def traced_pair() -> dict:
        start = perf_counter()
        _, plain = run_pass(workload, runner, tally)
        untraced = perf_counter() - start
        tracer = Tracer()
        with patched(tracer.wrap):
            start = perf_counter()
            _, outputs = run_pass(workload, runner, tally)
            overhead = perf_counter() - start - untraced
        if outputs != plain:
            tally.fail("traced stdout differs from untraced stdout")
        return {**tracer.metrics(), "cli.stdout_bytes": sum(map(len, outputs)), "trace.overhead_s": overhead}

    pairs = run_passes(workload, runner, tally, seconds, deadline, each=traced_pair)
    probe = AllocProbe()
    with patched(probe.wrap, only=ALLOC_LAYERS):
        run_pass(workload, runner, tally)
    print(f"traced passes: {len(pairs)} in-process, each paired with an untraced pass")
    every = sorted(set().union(*pairs))
    metrics = {name: statistics.median(p.get(name, 0.0) for p in pairs) for name in every}
    metrics["import.numpy_s"] = statistics.median(float(s[0]) for s in splits)
    metrics["import.pestego_s"] = statistics.median(float(s[1]) for s in splits)
    for name in ALLOC_LAYERS:
        metrics[f"{name}.peak_alloc_mb"] = probe.peak_mb[name]
    for name in sorted(metrics):
        print(f"{name}: {metrics[name]:.6g} {unit_of(name)}")
    return {name: metrics.get(name, 0.0) for name in PER_LAYER}


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pestego" / "cli.py").is_file() or not (ROOT / "tests" / "pe_builder.py").is_file():
        print(f"bench: {ROOT} holds no pestego source tree (src/pestego, tests/pe_builder.py)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    deadline = perf_counter() + HARD_LIMIT_S
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        print("machine: " + json.dumps(machine()))
        print(f"workload: {args.workload}, seed {args.seed}, {args.seconds:g} s")
        tally = Tally()
        workload, masks = workloads.build(args.workload, args.seed, work, ROOT)
        check_masks(masks, tally)
        if masks:
            print(f"masks: {len(masks) - tally.mask_mismatches} of {len(masks)} equal the pinned recipe")
        if args.trace:
            metrics = traced(workload, tally, args.seconds, deadline)
            units = {name: unit_of(name) for name in metrics}
        else:
            metrics = end_to_end(workload, tally, args.seconds, deadline, work)
            units = END_TO_END_UNITS
            for name, value in metrics.items():
                print(f"{name}: {value:.6g} {units[name]}")
    except Timeout:
        print(f"bench: no timed pass finished within the {HARD_LIMIT_S:g} s limit", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps({
        "correct": tally.failed == 0 and tally.mask_mismatches == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
