import ast
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import measured_calls

import rfsense
from rfsense.cli import SUBCOMMANDS

SRC = Path(rfsense.__file__).resolve().parents[1]
GOLDEN_DIR = Path(__file__).parent / "golden"
README = Path(__file__).resolve().parents[1] / "README.md"


def python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_import_loads_neither_numpy_nor_the_cli():
    # The CLI parses argv from its own flag table: neither importing it nor a
    # whole call loads argparse or the gettext it imports.
    probe = (
        "import contextlib, io, sys, rfsense\n"
        "print(sorted(m for m in ('numpy', 'argparse', 'rfsense.cli', 'rfsense.dataset')"
        " if m in sys.modules))\n"
        "from rfsense import *\n"
        "import rfsense.cli, rfsense.dataset\n"
        "assert cli is rfsense.cli and dataset is rfsense.dataset\n"
        "print(sorted(m for m in ('numpy', 'argparse', 'gettext') if m in sys.modules))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = rfsense.cli.main(['nef', '--tsys', '20', '--diameter', '34m'])\n"
        "print(code, sorted(m for m in ('numpy', 'argparse', 'gettext') if m in sys.modules))\n"
    )
    child = python("-c", probe)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == ["[]", "[]", "0 []"]


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


@pytest.mark.parametrize("module", ["rfsense", "rfsense.cli"])
def test_python_dash_m_renders_the_golden_table_reports(module):
    for argv, golden in ((["dataset-derive"], "dataset_derive.json"),
                         (["dataset-derive", "--format", "text"], "dataset_derive.txt")):
        child = python("-m", module, *argv)
        assert (child.returncode, child.stderr) == (0, ""), argv
        assert child.stdout == (GOLDEN_DIR / golden).read_text(encoding="utf-8"), argv


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
    assert set(_readme_argv()) == set(SUBCOMMANDS)


# Standard-library modules no cold call may load: records are namedtuples,
# bounds round on their repr digits, and each of these costs milliseconds to import.
_HEAVY_MODULES = "('dataclasses', 'decimal', 'inspect', 'typing')"


def test_importing_the_cli_loads_no_heavy_module():
    # -S: a site .pth may preload typing, which would hide a regression.
    child = python(
        "-S", "-c",
        f"import sys, rfsense.cli; print([m for m in {_HEAVY_MODULES} if m in sys.modules])",
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"


# The README's call of each subcommand, and a budget read from a JSON document.
_COLD_CALLS = sorted(SUBCOMMANDS) + ["budget --input"]
_TABLE_REPORTS = ("dataset-derive", "dataset-ranges")


@pytest.mark.parametrize("call", _COLD_CALLS)
def test_a_cold_call_loads_only_the_modules_of_its_subcommand(call, tmp_path):
    argv = _readme_argv()[call.split()[0]]
    if call == "budget --input":
        document = tmp_path / "budget.json"
        document.write_text(json.dumps({
            "tx_power_dbw": 20, "tx_gain_dbi": 45, "losses_db": {"fsl": 206.5},
            "rx_gain_dbi": 50, "antenna_temp_k": 100, "receiver_temp_k": 100,
            "data_rate_bps": 1e8,
        }))
        argv = ["budget", "--input", str(document)]
    # The probe prints with repr, since json is one of the modules it looks for.
    probe = (
        "import contextlib, io, sys\n"
        "from rfsense.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(repr([code, sorted(m for m in sys.modules if m.startswith('rfsense')),\n"
        f"            [m for m in {_HEAVY_MODULES} if m in sys.modules],\n"
        "            [m for m in ('json', 're') if m in sys.modules],\n"
        "            '__future__' in sys.modules]))\n"
    )
    child = python("-S", "-c", probe, *argv)
    assert child.returncode == 0, child.stderr
    code, loaded, heavy, parsers, future = ast.literal_eval(child.stdout)
    assert code == 0, child.stderr
    assert heavy == [] and not future
    # The engine modules whose operations the subcommand was measured to call.
    entry = {operation.partition(".")[0] for operation in measured_calls()[argv[0]]}
    family = SUBCOMMANDS[argv[0]][1]
    allowed = entry | {"cli", "errors", "quantities", family}
    for module in entry:
        allowed |= _module_imports(module)
    loaded = {name.partition(".")[2] for name in loaded} - {""}
    assert entry <= loaded <= allowed
    # Of the modules that hold subcommand handlers and flag rows, only its own.
    assert [name for name in loaded if name.startswith("_cli_")] == [family]
    # json, and the re it imports, load only to read a budget document or to quote the
    # string cells of a JSON report's table; csv, which reads a dataset, imports re too.
    reads_json = (argv[0] == "budget" and "--input" in argv
                  or argv[0] in _TABLE_REPORTS and "--format" not in argv)
    assert parsers == (["json", "re"] if reads_json else ["re"] if "dataset" in loaded else [])


@pytest.mark.parametrize("argv", [["--help"], [], ["nef", "--help"], ["dataset-derive", "-h"]],
                         ids=["help", "bare", "nef-help", "dataset-help"])
def test_a_help_page_loads_no_engine_and_at_most_its_own_family_module(argv):
    probe = (
        "import contextlib, io, sys\n"
        "from rfsense.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(repr([code, sorted(m for m in sys.modules if m.startswith('rfsense.'))]))\n"
    )
    child = python("-S", "-c", probe, *argv)
    assert child.returncode == 0, child.stderr
    family = ["rfsense." + SUBCOMMANDS[argv[0]][1]] if argv[1:] else []
    loaded = sorted(["rfsense.cli", "rfsense.errors", "rfsense.quantities", *family])
    assert ast.literal_eval(child.stdout) == [0 if argv else 2, loaded]
