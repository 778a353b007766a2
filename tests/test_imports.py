"""pestego never imports numpy or dataclasses, and its PE side leaves statstego unloaded.

Each check runs in a fresh interpreter, because this test process has
already imported numpy through other tests.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fresh_interpreter import run_python
from pe_builder import build_pe

import pestego

NUMPY_LOADED = "print('numpy' in sys.modules)"


@pytest.fixture
def cli_files(tmp_path):
    (tmp_path / "cover.exe").write_bytes(build_pe(header_slack=0x88).data)
    (tmp_path / "secret.bin").write_bytes(bytes(range(50)))
    (tmp_path / "carrier.pgm").write_bytes(b"P5\n32 16\n255\n" + bytes(range(256)) * 2)
    (tmp_path / "message.txt").write_text("1011 0010")
    return tmp_path


PE_COMMANDS = """
from pestego.cli import main
assert main(["inspect", "--in", "cover.exe"]) == 0
assert main(["capacity", "--in", "cover.exe", "--name", "secret.bin"]) == 0
assert main(["embed", "--in", "cover.exe", "--payload", "secret.bin", "--out", "stego.exe"]) == 0
assert main(["extract", "--in", "stego.exe", "--out", "out"]) == 0
assert main(["verify", "cover.exe", "stego.exe", "--out", "report.txt"]) == 0
"""


@pytest.mark.parametrize(
    "code",
    ["import pestego.cli", "from pestego import parse_pe, hide, compare", PE_COMMANDS],
    ids=["import-cli", "import-pe-names", "pe-commands"],
)
def test_pe_side_does_not_import_numpy(cli_files, code):
    assert run_python(code + "\n" + NUMPY_LOADED, cli_files)[-1] == "False"


STAT_COMMANDS = """
from pestego.cli import main
args = ["--key", "k", "--block", "4x2"]
assert main(["stat-embed", "--in", "carrier.pgm", "--payload", "message.txt", "--out", "stego.pgm", *args]) == 0
assert main(["stat-extract", "--in", "stego.pgm", "--bits", "8", *args]) == 0
"""


@pytest.mark.parametrize(
    "code",
    ["import pestego.cli", PE_COMMANDS, "import pestego.statstego, pestego.pgm", PE_COMMANDS + STAT_COMMANDS],
    ids=["import-cli", "pe-commands", "import-stat", "all-commands"],
)
def test_no_module_imports_dataclasses(cli_files, code):
    # measured against the modules loaded at start-up, so a site hook that preloads them cannot fail the test
    heavy = "{'dataclasses', 'inspect', 'ast'}"
    added = f"before = set(sys.modules)\n{code}\nprint(sorted({heavy} & (set(sys.modules) - before)))"
    assert run_python(added, cli_files)[-1] == "[]"


@pytest.mark.parametrize("cpus", [1, 2])
def test_stat_extract_loads_no_process_pool(tmp_path, cpus):
    """Its workers are bare forks: multiprocessing and concurrent.futures would cost import time and pickling."""
    (tmp_path / "carrier.pgm").write_bytes(b"P5\n16 16\n255\n" + bytes(range(256)))
    code = f"""
before = set(sys.modules)
import os
from pestego import cli
os.sched_getaffinity = lambda pid: set(range({cpus}))
cli.MIN_SHARE = 1  # so that two CPUs split the carrier's two block rows
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
assert cli.main(["stat-extract", "--in", "carrier.pgm", "--key", "k", "--bits", "4", "--csv"]) == 0
print(len(forks), sorted(m for m in set(sys.modules) - before if m.partition(".")[0] in ("multiprocessing", "concurrent")))
"""
    assert run_python(code, tmp_path)[-1] == f"{cpus - 1} []"


@pytest.mark.parametrize("code", ["import pestego.cli", PE_COMMANDS], ids=["import-cli", "pe-commands"])
def test_pe_side_leaves_statstego_unloaded(cli_files, code):
    """Compiling statstego and pgm on every start would slow each PE command, so they stay lazy."""
    assert run_python(code + "\nprint('pestego.statstego' in sys.modules)", cli_files)[-1] == "False"


# the pestego modules each command loads, besides pestego itself
PE_LIBRARY = ["cli", "errors", "fileio", "payload", "pe_format"]
VERIFY_LIBRARY = ["cli", "errors", "fileio", "integrity", "pe_format"]
STAT_LIBRARY = ["cli", "errors", "fileio", "pe_format", "pgm", "statstego"]
STAT_ARGS = ["--in", "carrier.pgm", "--key", "k", "--block", "4x2"]
COMMAND_MODULES = [
    (["inspect", "--in", "cover.exe"], PE_LIBRARY),
    (["capacity", "--in", "cover.exe", "--name", "secret.bin"], PE_LIBRARY),
    (["embed", "--in", "cover.exe", "--payload", "secret.bin", "--out", "new.exe"], PE_LIBRARY),
    (["extract", "--in", "stego.exe", "--out", "out"], PE_LIBRARY),
    (["verify", "cover.exe", "stego.exe", "--out", "report.txt"], VERIFY_LIBRARY),
    (["stat-embed", *STAT_ARGS, "--payload", "message.txt", "--out", "stego.pgm"], STAT_LIBRARY),
    (["stat-extract", *STAT_ARGS, "--bits", "8"], STAT_LIBRARY),
]


@pytest.mark.parametrize(("argv", "loaded"), COMMAND_MODULES, ids=[argv[0] for argv, _ in COMMAND_MODULES])
def test_each_command_loads_only_the_modules_it_calls(cli_files, argv, loaded):
    """cli reaches the library through the package, so a command imports no pestego module that it does not call."""
    cover = pestego.parse_pe((cli_files / "cover.exe").read_bytes())
    (cli_files / "stego.exe").write_bytes(pestego.serialize(pestego.hide(cover, "secret.bin", bytes(range(50)))))
    code = f"""
before = set(sys.modules)
from pestego.cli import main
assert main({argv!r}) == 0
print(sorted(m.partition(".")[2] for m in set(sys.modules) - before if m.startswith("pestego.")))
"""
    assert run_python(code, cli_files)[-1] == str(loaded)


def test_stat_side_loads_on_first_use(tmp_path):
    (tmp_path / "carrier.pgm").write_bytes(b"P5\n16 16\n255\n" + bytes(range(256)))
    code = """
from pestego.cli import main
assert main(["stat-extract", "--in", "carrier.pgm", "--key", "k", "--bits", "2"]) == 0
from pestego import Carrier, detect_blocks
import pestego.statstego
assert Carrier is pestego.statstego.Carrier and detect_blocks is pestego.statstego.detect_blocks
"""
    lines = run_python(code + NUMPY_LOADED, tmp_path)
    assert lines[0].startswith("bits: ")
    assert lines[-1] == "False"


def test_importtime_logs_modules_loaded_through_the_package(cli_files):
    """-X importtime logs statstego, which stat-extract first loads through the package's export table."""
    argv = ["-X", "importtime", "-m", "pestego.cli", "stat-extract", "--in", "carrier.pgm", "--key", "k", "--bits", "8"]
    env = {**os.environ, "PYTHONPATH": str(Path(pestego.__file__).parents[1])}
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, cwd=cli_files, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert re.search(r"\| +pestego\.statstego$", proc.stderr, re.MULTILINE), proc.stderr


def test_stat_commands_run_without_numpy(cli_files):
    """With numpy unimportable, both stat commands still run: the statistical path is standard library only."""
    code = """
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from pestego.cli import main
args = ["--key", "k", "--block", "4x2"]
assert main(["stat-embed", "--in", "carrier.pgm", "--payload", "message.txt", "--out", "stego.pgm", *args]) == 0
assert main(["stat-extract", "--in", "stego.pgm", "--bits", "8", *args]) == 0
assert main(["stat-extract", "--in", "stego.pgm", "--bits", "8", "--csv", *args]) == 0
"""
    lines = run_python(code, cli_files)
    assert lines[0] == "embedded 8 bits into 4x2 blocks (k=10)"
    assert lines[2].startswith("bits: ") and len(lines[2]) == len("bits: ") + 8
    assert lines[-9] == "block,q,bit"


def test_export_list(tmp_path):
    """Every exported name resolves and is listed once; the lazy ones are exactly statstego's public objects."""
    code = NUMPY_LOADED + """
import importlib, inspect
import pestego, pestego.statstego
assert len(pestego.__all__) == len(set(pestego.__all__)), pestego.__all__
exported = {name: getattr(pestego, name) for name in pestego.__all__}
for module, names in pestego._EXPORTS.items():
    defining = importlib.import_module("pestego." + module)
    assert all(exported[name] is getattr(defining, name) for name in names), module
lazy = set(pestego._EXPORTS["statstego"])
assert lazy <= set(exported)
assert all(exported[name] is getattr(pestego.statstego, name) for name in lazy)
defined = {
    name
    for name, value in vars(pestego.statstego).items()
    if not name.startswith("_")
    and (inspect.isfunction(value) or inspect.isclass(value))
    and value.__module__ == "pestego.statstego"
}
assert lazy == defined, (sorted(lazy - defined), sorted(defined - lazy))
print("ok")
"""
    assert run_python("import pestego.cli\n" + code, tmp_path) == ["False", "ok"]


def test_dir_lists_every_export():
    assert set(pestego.__all__) <= set(dir(pestego))


@pytest.mark.parametrize(
    ("code", "loaded"),
    [
        ("import pestego", []),
        ("from pestego import parse_pe", ["pestego.errors", "pestego.pe_format"]),
        ("from pestego import detect_blocks", ["pestego.errors", "pestego.statstego"]),
        (
            "from pestego import read_carrier, write_carrier",
            ["pestego.errors", "pestego.fileio", "pestego.pgm", "pestego.statstego"],
        ),
    ],
    ids=["bare-import", "pe-name", "stat-name", "carrier-io-name"],
)
def test_first_use_loads_only_its_module(tmp_path, code, loaded):
    """A name loads the module that defines it and that module's imports, nothing else of pestego."""
    code = f"""
before = set(sys.modules)
{code}
print(sorted(m for m in set(sys.modules) - before if m.partition(".")[0] == "pestego"))
"""
    assert run_python(code, tmp_path)[-1] == str(["pestego", *loaded])


def test_exports_follow_their_module(monkeypatch):
    """pestego stores no copy of a name, so a patched module attribute is what pestego returns."""
    import pestego.pe_format

    monkeypatch.setattr(pestego.pe_format, "parse_pe", lambda data: None)
    assert pestego.parse_pe is pestego.pe_format.parse_pe


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="no_such_name"):
        pestego.no_such_name  # noqa: B018
