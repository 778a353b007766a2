"""stat-extract in shares of blocks: any share count prints the same bytes, refusals come before any fork.

Each check runs in a fresh interpreter that has not loaded numpy: from Python
3.12, os.fork warns in a process with other threads, and numpy's BLAS
threads run in the test process.
"""

from __future__ import annotations

import pytest

from fresh_interpreter import run_python

# A PGM carrier of shake-256 pixels, a stat-extract runner that fakes the
# usable CPUs, and a count of the forks it makes.
PRELUDE = """
import contextlib, hashlib, io, os
from pestego import cli
assert "numpy" not in sys.modules

def write_carrier(name, width, height):
    with open(name, "wb") as fh:
        fh.write(b"P5\\n%d %d\\n255\\n" % (width, height) + hashlib.shake_256(b"pestego share split").digest(width * height))

forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()

def extract(cpus, *argv):
    os.sched_getaffinity = lambda pid: set(range(cpus))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["stat-extract", "--key", "k", "--block", "4x2", *argv])
    return code, out.getvalue(), err.getvalue()

write_carrier("small.pgm", 70, 50)  # 17 blocks of 4x2 in each of 25 block rows: 425 blocks
with open("small.raw", "wb") as fh:  # the same pixels without the PGM header
    fh.write(hashlib.shake_256(b"pestego share split").digest(70 * 50))
"""


def test_share_count_never_changes_output(tmp_path):
    code = PRELUDE + """
cli.MIN_SHARE = 1  # so that even the small carrier splits into up to four shares
for bits in (0, 1, 17 * 5 + 3, 425):  # none, one, a ragged last block row, the whole capacity
    for flags in ((), ("--csv",), ("--raw", "70x50"), ("--raw", "70x50", "--csv")):
        carrier = "small.raw" if "--raw" in flags else "small.pgm"
        runs = [extract(cpus, "--in", carrier, "--bits", str(bits), *flags) for cpus in (1, 2, 3, 4)]
        assert runs[0][0] == 0 and runs[0][1], runs[0]
        assert all(run == runs[0] for run in runs), (bits, flags)
print(len(forks))
"""
    # 0 and 1 bits make one share (no fork); 88 and 425 bits make one share per CPU (1+2+3 forks per mode)
    assert run_python(code, tmp_path) == [str(4 * 2 * (1 + 2 + 3))]


def test_a_carrier_of_one_block_row_splits_like_any_other(tmp_path):
    """1,024 blocks of 4x2 side by side in one block row: one share per CPU, and the bytes of one share."""
    code = PRELUDE + """
cli.MIN_SHARE = 1
write_carrier("row.pgm", 4096, 2)
for flags in ((), ("--csv",)):
    serial = extract(1, "--in", "row.pgm", "--bits", "1024", *flags)
    assert serial[0] == 0 and serial[1] and not serial[2], serial
    for cpus in (1, 2, 4):
        before = len(forks)
        assert extract(cpus, "--in", "row.pgm", "--bits", "1024", *flags) == serial, (cpus, flags)
        print(cpus, len(forks) - before)
"""
    assert run_python(code, tmp_path) == ["1 0", "2 1", "4 3"] * 2


def test_pinned_output_of_a_split_read(tmp_path):
    """Two CPUs split 16,384 blocks at the shipped share size: the bits are those of one serial detect_blocks call,
    and the --csv hash is that of the serial code before shares."""
    code = PRELUDE + """
from pestego import pgm, statstego
write_carrier("large.pgm", 512, 256)
params = statstego.StatParams(block_rows=2, block_cols=4, alpha=0.05)
digits = "".join(map(str, statstego.detect_blocks(pgm.read_carrier("large.pgm"), b"k", 16384, params)[1]))
code, out, err = extract(2, "--in", "large.pgm", "--bits", "16384", "--alpha", "0.05")
assert code == 0 and not err, err
assert out == "bits: " + digits + "\\n"
code, out, err = extract(2, "--in", "large.pgm", "--bits", "16384", "--alpha", "0.05", "--csv")
assert code == 0 and not err, err
print(hashlib.sha256(out.encode()).hexdigest())
print(len(forks))
"""
    assert run_python(code, tmp_path) == [
        "201ffa94690bfce553417615b46c386f2d406141b864561d3a30430ae1caa7ca",
        "2",
    ]


@pytest.mark.parametrize("failing", ["worker", "parent"])
def test_a_failed_share_fails_the_command_and_leaves_no_child(tmp_path, failing):
    """A worker that fails means exit 2 with nothing on stdout; a parent that fails still reaps every worker.

    The large carrier gives each worker more text than a pipe holds, so a worker
    that could not see its reader go away would block, and the parent with it.
    """
    code = PRELUDE + f"""
from pestego import statstego
write_carrier("large.pgm", 512, 256)
parent, detect_blocks = os.getpid(), statstego.detect_blocks

def failing_detect_blocks(*args):
    if (os.getpid() == parent) == {failing == "parent"}:
        raise ValueError("share failed")
    return detect_blocks(*args)

statstego.detect_blocks = failing_detect_blocks
code, out, err = extract(4, "--in", "large.pgm", "--bits", "16384", "--csv")
assert (code, out) == (2, ""), (code, out)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print(len(forks), err.strip())
"""
    expected = "3 of 3 stat-extract workers failed" if failing == "worker" else "share failed"
    assert run_python(code, tmp_path) == [f"3 pestego: error: {expected}"]


def test_refusals_come_before_any_fork(tmp_path):
    """With fork broken and every share size allowed, each refusal keeps its exit code and message."""
    code = PRELUDE + """
def broken_fork():
    raise RuntimeError("forked")

os.fork = broken_fork
cli.MIN_SHARE = 1
for flags in (("--bits", "-1"), ("--bits", "426"), ("--bits", "1", "--block", "3x3"), ("--bits", "1", "--alpha", "1e-17")):
    code, out, err = extract(4, "--in", "small.pgm", *flags)
    assert out == ""
    print(code, err.strip())
"""
    assert run_python(code, tmp_path) == [
        "2 pestego: error: bit count must be non-negative, got -1",
        "7 pestego: error: message needs 426 blocks of 4x2, carrier has 425",
        "2 pestego: error: block of 3x3 has odd length",
        "2 pestego: error: alpha 1e-17 is too small: 1 - alpha rounds to 1, so z_alpha is not finite",
    ]
