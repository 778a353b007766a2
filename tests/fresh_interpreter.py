"""Run test code in a new interpreter, away from the modules and threads of the test process."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pestego


def run_python(code: str, cwd: Path, flags: tuple[str, ...] = ()) -> list[str]:
    """Run ``code`` in a new interpreter, started with the given flags, that sees pestego and the test helpers;
    return its stdout lines."""
    paths = [str(Path(pestego.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    argv = [sys.executable, *flags, "-c", "import sys\n" + code]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=cwd, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()
