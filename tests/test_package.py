import ast
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import rfsense
from rfsense.cli import OPERATION_MAP

SRC = Path(rfsense.__file__).resolve().parents[1]
GOLDEN_DIR = Path(__file__).parent / "golden"
README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_import_loads_only_the_errors_and_star_binds_every_name():
    probe = (
        "import sys, rfsense\n"
        "print(sorted(m for m in sys.modules if m.startswith('rfsense')))\n"
        "from rfsense import *\n"
        "print(all(globals()[name] is getattr(rfsense, name) for name in rfsense.__all__))\n"
    )
    child = python("-c", probe)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == ["['rfsense', 'rfsense.errors']", "True"]


def _readme_argv() -> dict[str, list[str]]:
    """Subcommand -> argv of its example in the README's command-line block."""
    text = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    examples = {}
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        if argv[:1] == ["rfsense"]:
            examples.setdefault(argv[1], argv[1:])
    return examples


def _module_imports(module: str) -> set[str]:
    """rfsense modules that ``module`` imports at its top level, transitively."""
    found, pending = set(), [module]
    while pending:
        tree = ast.parse((SRC / "rfsense" / f"{pending.pop()}.py").read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module] if node.module else [a.name for a in node.names]
                for name in set(names) - found:
                    found.add(name)
                    pending.append(name)
    return found


def test_readme_shows_every_subcommand():
    assert set(_readme_argv()) == set(OPERATION_MAP)


# Standard-library modules no cold call may load: records are namedtuples,
# and each of these costs milliseconds to import.
_HEAVY_MODULES = "('dataclasses', 'inspect', 'typing')"


def test_importing_the_cli_loads_no_heavy_module():
    # -S: a site .pth may preload typing, which would hide a regression.
    child = python(
        "-S", "-c",
        f"import sys, rfsense.cli; print([m for m in {_HEAVY_MODULES} if m in sys.modules])",
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"


@pytest.mark.parametrize("command", sorted(OPERATION_MAP))
def test_a_cold_call_loads_only_the_modules_of_its_subcommand(command):
    probe = (
        "import contextlib, io, json, sys\n"
        "from rfsense.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('rfsense')),\n"
        f"                  [m for m in {_HEAVY_MODULES} if m in sys.modules]]))\n"
    )
    child = python("-S", "-c", probe, *_readme_argv()[command])
    assert child.returncode == 0, child.stderr
    code, loaded, heavy = json.loads(child.stdout)
    assert code == 0, child.stderr
    assert heavy == []
    entry = {operation.partition(".")[0] for operation in OPERATION_MAP[command]}
    allowed = entry | {"cli", "errors", "quantities"}
    for module in entry:
        allowed |= _module_imports(module)
    loaded = {name.partition(".")[2] for name in loaded} - {""}
    assert entry <= loaded <= allowed
