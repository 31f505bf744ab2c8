import os
import subprocess
import sys
from pathlib import Path

import rfsense

SRC = Path(rfsense.__file__).resolve().parents[1]
GOLDEN_DIR = Path(__file__).parent / "golden"


def python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_import_loads_neither_numpy_nor_the_cli():
    probe = (
        "import sys, rfsense\n"
        "print(sorted(m for m in ('numpy', 'argparse', 'rfsense.cli', 'rfsense.dataset')"
        " if m in sys.modules))\n"
        "from rfsense import *\n"
        "import rfsense.cli, rfsense.dataset\n"
        "assert cli is rfsense.cli and dataset is rfsense.dataset\n"
        "print('numpy' in sys.modules)\n"
    )
    child = python("-c", probe)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == ["[]", "False"]


def test_lazy_submodules_resolve_as_attributes_and_show_in_importtime():
    child = python(
        "-X", "importtime", "-c",
        "import rfsense; print(rfsense.dataset.__name__, rfsense.cli.main.__name__)",
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == "rfsense.dataset main\n"
    reported = {line.rpartition("|")[2].strip() for line in child.stderr.splitlines()}
    assert {"rfsense.cli", "rfsense.dataset"} <= reported


def test_python_dash_m_prints_the_golden_help():
    golden = (GOLDEN_DIR / "help.txt").read_text(encoding="utf-8")
    top_help = golden.split("\n" + "=" * 80 + "\n")[0]
    for module in ("rfsense", "rfsense.cli"):
        child = python("-m", module, "--help")
        assert child.returncode == 0
        assert child.stdout == top_help
        assert child.stderr == ""
