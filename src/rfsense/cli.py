"""Command-line front end: every engine computation behind a subcommand.

Conventions at this boundary:

- Ambiguous numeric flags require a unit suffix (``--bandwidth 1e9hz``,
  ``--tx-power 20dbw``, ``--gain 1.5lin``); dB flags always carry their
  reference (dbw/dbm/dbi/db/dbhz) so a bare number can never be mistaken
  for the wrong scale.
- A flag is given as ``--flag value``, ``--flag=value`` or a unique prefix (``--diam 34m``).
- Reports are deterministic byte-for-byte: stable key order, numbers at six
  significant digits, scientific notation outside [1e-3, 1e6).
- A subcommand's handler and flag rows live in its family module (``_cli_radiometry``,
  ``_cli_radar``, ``_cli_linkbudget``, ``_cli_fieldmetrics``, ``_cli_rydberg`` or
  ``_cli_dataset``, as ``SUBCOMMANDS`` names it), so a cold call compiles this module
  and that one alone.  The handler imports the engine modules it calls, so a cold call
  loads only those (and what they import), besides those two, ``errors`` and
  ``quantities``; a help page loads no engine.
- Only two kinds of call load the ``json`` package (and the ``re`` it
  imports): ``budget --input``, which reads a JSON document, and a JSON
  report that holds a table, whose string cells go through json's C
  encoder; so does a JSON key or string that needs an escape, which no
  handler writes.  Flags are parsed without ``re``.
- Exit codes: 0 success, 2 usage or domain error (one stderr line, e.g.
  ``domain-error: ...``), 3 schema/parse error or an unreadable input or
  unwritable output (one stderr line, ``schema-error: ...``).  A failed call
  leaves the ``--output`` file as it was.
- Only ``main`` writes, once the report is complete.  A handler returns its payload alone,
  and a call that runs no handler (a help page, a usage error) ends by raising ``_Exit``.
- A process that has run ``main`` freezes the cyclic collector at exit (``gc.freeze()``
  from an ``atexit`` handler), so the interpreter's final collections skip every
  object still alive.  Handlers and flushes all still run; the one cost is that a
  ``__del__`` on a live object in a reference cycle does not run, which CPython does
  not promise anyway.  A process that only imports ``rfsense`` exits as usual.
"""

import atexit
import gc
import math
import os
import stat
import sys
import types
from collections import namedtuple
from functools import lru_cache
from operator import itemgetter

from .errors import DomainError, SchemaError
from .quantities import db_to_linear

__all__ = ["build_parser", "format_number", "main", "render_json"]

# ---------------------------------------------------------------------------
# Flag value parsing (magnitude + unit suffix)

_FREQUENCY = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9, "thz": 1e12}
_TIME = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}
_DISTANCE = {"m": 1.0, "km": 1e3, "mm": 1e-3}
_TEMPERATURE = {"k": 1.0}
_AREA = {"m2": 1.0, "m^2": 1.0}
_VOLUME = {"m3": 1.0, "m^3": 1.0}
_POWER = {"w": 1.0, "mw": 1e-3, "uw": 1e-6, "nw": 1e-9}


def _split_quantity(text: str) -> tuple[float, str]:
    """(value, lower-case unit) of a number with an optional unit suffix, e.g. ``1.5e9 Hz``.

    The unit starts at the first ASCII letter or, when that is the ``e`` of an exponent
    and the number then parses, at the next one; ``float`` reads the number.
    """
    body = text.strip()
    letters = [i for i, char in enumerate(body) if char.isascii() and char.isalpha()]
    first, second = (letters + [len(body)] * 2)[:2]
    for start in (second, first) if body[first:first + 1] in ("e", "E") else (first,):
        number, unit = body[:start].rstrip(), body[start:]
        symbols = unit.replace("/", "").replace("^", "")  # a unit is ASCII letters, digits, / and ^
        if "_" in number or unit and not (symbols.isascii() and symbols.isalnum()):
            continue  # float() would read 1_0 as 10
        try:
            value = float(number)
        except ValueError:
            continue
        if not math.isfinite(value):
            raise ValueError(f"value {text!r} overflows the float range")
        return value, unit.lower()
    raise ValueError(f"cannot parse quantity {text!r}")


def _scaled(kind: str, table: dict[str, float], require_suffix: bool):
    def parse(text: str) -> float:
        value, suffix = _split_quantity(text)
        if not suffix:
            if require_suffix:
                units = "/".join(sorted(table))
                raise ValueError(f"{kind} value {text!r} needs a unit suffix ({units})")
            return value
        if suffix not in table:
            units = "/".join(sorted(table))
            raise ValueError(f"unknown {kind} unit {suffix!r} (expected {units})")
        value *= table[suffix]
        if not math.isfinite(value):
            raise ValueError(f"{kind} {text!r} overflows the float range")
        return value

    return parse


frequency_flag = _scaled("frequency", _FREQUENCY, require_suffix=True)
time_flag = _scaled("time", _TIME, require_suffix=True)
distance_flag = _scaled("distance", _DISTANCE, require_suffix=True)
temperature_flag = _scaled("temperature", _TEMPERATURE, require_suffix=False)
area_flag = _scaled("area", _AREA, require_suffix=False)
volume_flag = _scaled("volume", _VOLUME, require_suffix=False)
power_flag = _scaled("power", _POWER, require_suffix=False)


def plain_flag(text: str) -> float:
    value, suffix = _split_quantity(text)
    if suffix:
        raise ValueError(f"value {text!r} must be a plain number (got unit {suffix!r})")
    return value


def db_flag(*references: str):
    """Decibel flag parser requiring one of the given reference suffixes.

    ``dbm`` values are converted to dBW so the engine sees one reference.
    """

    def parse(text: str) -> float:
        value, suffix = _split_quantity(text)
        if suffix not in references:
            expected = "/".join(references)
            raise ValueError(f"dB value {text!r} needs an explicit reference suffix ({expected})")
        if suffix == "dbm":
            return value - 30.0
        return value

    return parse


def gain_flag(text: str) -> float:
    """Antenna/system gain: explicit 'dbi' or 'lin' suffix, returns linear."""
    value, suffix = _split_quantity(text)
    if suffix == "dbi":
        return db_to_linear(value)
    if suffix == "lin":
        return value
    raise ValueError(f"gain {text!r} needs an explicit 'dbi' or 'lin' suffix")


def ratio_db_flag(text: str) -> float:
    """Power ratio in dB (suffix 'db') that the handler turns into a linear
    factor, so its linear value must fit the float range."""
    value = db_flag("db")(text)
    db_to_linear(value)
    return value


# ---------------------------------------------------------------------------
# Deterministic rendering

def format_number(x: float) -> str:
    """6 significant digits; scientific when the value rounded to them is outside [1e-3, 1e6)."""
    if 1e-3 <= abs(x) < 999999.5:  # the common case; NaN fails, and 999999.5 rounds to 1e6
        return f"{x:.6g}"
    if x != x or math.isinf(x):
        raise DomainError("cannot format a non-finite number")
    if x == 0:
        return "0"
    text = f"{x:.5e}"
    # Just below 1e-3, a value that rounds up to 1.00000e-03 is inside the range.
    return f"{x:.6g}" if text.endswith("e-03") else text


# Rows of scalar cells, each a tuple in ``columns`` order: renders like a list of
# one dict per row, and the first in a payload is its CSV report.
ReportTable = namedtuple("ReportTable", "columns rows")


def _quote(text: str) -> str:
    """``text`` as a JSON string in ASCII, as ``json.dumps`` writes it."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'  # nothing to escape, as in every key a handler writes
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii(text)


@lru_cache(maxsize=256)
def _key_order(keys: tuple[str, ...]) -> tuple[tuple[int, str], ...]:
    """(position, quoted key) of each key, in sorted order; stable for equal keys."""
    return tuple((i, _quote(k)) for i, k in sorted(enumerate(keys), key=itemgetter(1)))


# The text of a scalar by its exact type: in JSON, and in a CSV or text cell,
# where a str is unquoted and None is empty.
_JSON_TEXT = {
    float: format_number,
    str: _quote,
    type(None): {None: "null"}.__getitem__,
    bool: {True: "true", False: "false"}.__getitem__,
    int: str,
}
_CELL_TEXT = {**_JSON_TEXT, str: str, type(None): {None: ""}.__getitem__}


def _append_json(out: list, value, indent: int) -> list:
    """``out`` with the JSON text of ``value`` appended in pieces."""
    if type(value) in _JSON_TEXT:
        out.append(_JSON_TEXT[type(value)](value))
    elif type(value) is ReportTable:  # only the dataset subcommands report tables
        from ._cli_dataset import _append_table
        _append_table(out, value, indent)
    # Exact types: a record is a tuple subclass and must not render as a list.
    elif type(value) not in (dict, list, tuple):
        raise DomainError(f"cannot serialize {type(value).__name__}")
    elif not value:
        out.append("{}" if type(value) is dict else "[]")
    else:
        inner = "  " * indent + "  "
        if type(value) is dict:
            # Ordered by str(k), all the output uses, so keys 1, True and 1.0 stay apart.
            values = list(value.values())
            items = [(f"{key}: ", values[i]) for i, key in _key_order(tuple(map(str, value)))]
        else:
            items = [("", item) for item in value]
        separator = ("{" if type(value) is dict else "[") + "\n" + inner
        for key, item in items:
            out.append(separator + key)
            _append_json(out, item, indent + 1)
            separator = ",\n" + inner
        out.append("\n" + "  " * indent + ("}" if type(value) is dict else "]"))
    return out


def render_json(payload: dict) -> str:
    """Deterministic JSON: sorted keys, fixed numeric formatting."""
    return "".join(render_report(payload, "json"))


def _flatten(items, prefix: str = "") -> list[tuple[str, object]]:
    """(path, value) of every leaf below the (key, value) pairs ``items``."""
    rows: list[tuple[str, object]] = []
    for key, value in items:
        path = f"{prefix}{key}"
        if type(value) is dict:
            rows.extend(_flatten(value.items(), path + "."))
        elif type(value) is ReportTable:
            for i, row in enumerate(value.rows):
                rows.extend(_flatten(zip(value.columns, row), f"{path}[{i}]."))
        elif type(value) in (list, tuple):
            for i, item in enumerate(value):
                if type(item) is dict:
                    rows.extend(_flatten(item.items(), f"{path}[{i}]."))
                else:
                    rows.append((f"{path}[{i}]", item))
        else:
            rows.append((path, value))
    return rows


def _cell_text(value) -> str:
    return _CELL_TEXT.get(type(value), str)(value)


def _render_csv_rows(rows: list) -> list[str]:
    def quote(cell: str) -> str:
        if "," in cell or '"' in cell or "\r" in cell or "\n" in cell:
            return '"' + cell.replace('"', '""') + '"'
        return cell

    return [",".join(quote(c) for c in row) + "\r\n" for row in rows]


def render_report(payload: dict, fmt: str) -> list[str]:
    """The report as pieces of text, in order: never one string, since reports can be large.
    A CSV report is the payload's first ``ReportTable``, or else its flattened leaves."""
    if fmt == "json":
        return _append_json([], payload, 0) + ["\n"]
    if fmt == "csv":
        tables = [value for value in payload.values() if type(value) is ReportTable]
        table = (tables or [ReportTable(("key", "value"), _flatten(payload.items()))])[0]
        return _render_csv_rows([table.columns, *[map(_cell_text, row) for row in table.rows]])
    if fmt == "text":
        return [f"{k} = {_cell_text(v)}\n" for k, v in _flatten(payload.items())]
    raise SchemaError(f"unknown format {fmt!r}")


def _write(handle, pieces: list[str]) -> None:
    """Write the pieces in joined batches: few calls, and no copy of the whole report."""
    for start in range(0, len(pieces), 256):
        handle.write("".join(pieces[start:start + 256]))


def _write_file(path: str, pieces: list[str]) -> None:
    """Write the pieces to ``path``. A new or regular file is written whole or not at all:
    to a new temporary file beside it, renamed over it after the last write, so a failed
    write leaves ``path`` as it was. A device, FIFO or pipe, or a file in a directory that
    takes no new file, is written in place."""
    try:
        status = os.stat(path)  # through any link, as opening it would
    except FileNotFoundError:
        status = None
    target = os.path.realpath(path)  # the file a symbolic link names, to rename over
    temporary = f"{target}.{os.getpid()}.tmp"
    handle = None
    try:
        if status is None or stat.S_ISREG(status.st_mode) and os.path.samestat(
                status, os.stat(target)):  # not a link to a pipe or to a deleted file
            handle = open(temporary, "x", encoding="utf-8", newline="")  # never an old file
    except (PermissionError, FileNotFoundError):  # opening ``path`` names the fault, if any
        pass
    if handle is None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            _write(handle, pieces)
        return
    try:
        with handle:
            if status is not None:  # its permissions, as writing it in place would keep them
                os.chmod(temporary, status.st_mode & 0o7777)
            _write(handle, pieces)
        os.replace(temporary, target)
    except BaseException:
        try:
            os.remove(temporary)
        except OSError:
            pass
        raise


def _write_out(pieces: list[str], path: str | None = None) -> int:
    """Write the pieces to ``path``, or to stdout and flush it. 0, or 3 with one
    schema-error line when the write fails."""
    try:
        if path is None:
            _write(sys.stdout, pieces)
            sys.stdout.flush()
        else:
            _write_file(path, pieces)
    except OSError as exc:
        if path is None:  # the text left in stdout's buffer would fail again at exit
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"schema-error: cannot write output: {exc}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# The command line as data: one row per flag drives parsing and --help

# kind: "" (one value), "required", "append", "required append" or "switch" (takes no
# value, stores True).  A tuple ``convert`` lists the choices of a string value.
Flag = namedtuple("Flag", "name convert metavar help default kind", defaults=(None, ""))

_HELP = Flag("-h/--help", None, None, "show this help message and exit", kind="switch")
_TOP = {"-h": _HELP, "--help": _HELP}  # the options before the subcommand
# Rows every subcommand has, ahead of its own.
_COMMON = (
    _HELP,
    Flag("--format", ("json", "csv", "text"), None, "report format (default: json)", "json"),
    Flag("--output", None, "PATH", "write the report to PATH instead of stdout"),
)
# A row of the subcommands of more than one family.
_RHO2 = Flag("--rho2", plain_flag, "RHO2", "polarisation power coupling in (0, 1] (default 1)", 1.0)

# Subcommand -> (its line in the top-level help, its family module), whose COMMANDS maps it
# to its handler, which returns the report's payload alone, and its flag rows.
SUBCOMMANDS = {
    "nedt": ("radiometer sensitivity (NEDT) and output power", "_cli_radiometry"),
    "calibrate": ("hot/cold calibration regression for (G, T_Rx)", "_cli_radiometry"),
    "radar": ("radar received power, SNR, NESZ, and resolution", "_cli_radar"),
    "budget": ("end-to-end communication link budget", "_cli_linkbudget"),
    "nef": ("equivalent free-space field and SEFD of a receiver", "_cli_fieldmetrics"),
    "convert": ("unit conversions and inverse field/temperature mapping", "_cli_fieldmetrics"),
    "enhance": ("cavity field-enhancement chain against a receiver reference", "_cli_fieldmetrics"),
    "rydberg": ("atomic-sensor noise floors and field calibration", "_cli_rydberg"),
    "dataset-derive": ("parse the instrument dataset and derive per-row fields", "_cli_dataset"),
    "dataset-ranges": ("synthesize per-category parameter ranges", "_cli_dataset"),
    "dataset-plotdata": ("emit bandwidth/field plot data (rectangles and markers)", "_cli_dataset"),
}


def _is_negative_number(token: str) -> bool:
    """Whether ``token`` is a plain negative number, a value and never a flag: ``-`` and
    digits, with at most one point and a digit after it (``-5``, ``-.5``, ``-1.5``), and
    maybe a final newline."""
    whole, point, fraction = token[1:].removesuffix("\n").partition(".")
    return token[:1] == "-" and (whole + fraction).isdecimal() and bool(fraction or not point)


class _Exit(Exception):
    """A call that runs no handler: its exit code, then stdout pieces or else a stderr line."""


def _fail(prog: str, message: str):
    raise _Exit(2, None, f"{prog}: error: {message}")


def _read_option(prog: str, token: str, options: dict):
    """None if ``token`` is a value, else (its row or None if unknown, option, attached value)."""
    if token[:1] != "-" or token == "-":
        return None
    if token in options:
        return options[token], token, None
    name, eq, value = token.partition("=")
    if eq and name in options:
        return options[name], name, value
    if token[1] == "-":  # a unique prefix of a long option, maybe with "=value"
        matches = [option for option in options if option.startswith(name)]
        value = value if eq else None
    else:  # a short option with its value attached: -hVALUE
        matches, value = [token[:2]] if token[:2] in options else [], token[2:]
    if len(matches) > 1:
        _fail(prog, f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return options[matches[0]], matches[0], value
    return None if _is_negative_number(token) or " " in token else (None, token, None)


def _parse_flags(prog: str, rows: tuple, tokens: list[str]) -> tuple[dict, list[str]]:
    """The value of each row's flag by attribute name, and the tokens left over.

    Every token is read before any is converted, so an ambiguous prefix is reported
    first, then a bad value (in argv order), then the required flags that are missing.
    """
    options = {option: row for row in rows for option in row.name.split("/")}
    end = tokens.index("--") if "--" in tokens else len(tokens)  # later tokens are values
    found = [_read_option(prog, token, options) for token in tokens[:end]]
    found += [False] + [None] * (len(tokens) - end - 1)  # "--" itself is left over
    values = {row.name: row.default for row in rows if row is not _HELP}
    leftovers, seen, i = [], set(), 0
    while i < len(tokens):
        token, read, i = tokens[i], found[i], i + 1
        if not read or read[0] is None:  # a value, "--" or an unknown flag
            leftovers.append(token)
            continue
        row, option, value = read
        if row.kind == "switch":
            if value is not None:  # refused, except that -hh is -h twice
                left = value if option.startswith("--") else value.lstrip("h")
                if left or not value:
                    _fail(prog, f"argument {row.name}: ignored explicit argument {left!r}")
            if row is _HELP:
                raise _Exit(0, [_help_page(prog, rows)], None)
            value = True
        else:
            if value is None:
                if i == len(tokens) or found[i] is not None:
                    _fail(prog, f"argument {row.name}: expected one argument")
                value, i = tokens[i], i + 1
            if type(row.convert) is tuple and value not in row.convert:
                _fail(prog, f"argument {row.name}: invalid choice: {value!r} "
                            f"(choose from {', '.join(map(repr, row.convert))})")
            try:
                value = row.convert(value) if callable(row.convert) else value
            except ValueError as exc:
                _fail(prog, f"argument {row.name}: {exc}")
        if "append" in row.kind:
            value = [*(values[row.name] or ()), value]
        values[row.name] = value
        seen.add(row.name)
    missing = [row.name for row in rows if "required" in row.kind and row.name not in seen]
    if missing:
        _fail(prog, "the following arguments are required: " + ", ".join(missing))
    return {name[2:].replace("-", "_"): value for name, value in values.items()}, leftovers


def _parse_args(argv: list[str] | None = None) -> types.SimpleNamespace:
    """The options before the subcommand, then the subcommand's own flags."""
    argv = sys.argv[1:] if argv is None else list(argv)
    for i, token in enumerate(argv):
        # The subcommand is the first value, or a "--" that is not last.
        if (token == "--" and i + 1 < len(argv)) or _read_option("rfsense", token, _TOP) is None:
            break
    else:
        i = len(argv)
    leftovers = _parse_flags("rfsense", (_HELP,), argv[:i])[1]
    if i < len(argv):
        if argv[i] not in SUBCOMMANDS:
            _fail("rfsense", f"argument SUBCOMMAND: invalid choice: {argv[i]!r} "
                             f"(choose from {', '.join(map(repr, SUBCOMMANDS))})")
        # Only the subcommand's own family module is imported, and so compiled.
        family = __import__(f"{__package__}.{SUBCOMMANDS[argv[i]][1]}", fromlist=["COMMANDS"])
        handler, flags = family.COMMANDS[argv[i]]
        values, more = _parse_flags("rfsense " + argv[i], _COMMON + flags, argv[i + 1:])
        leftovers += more
        args = types.SimpleNamespace(handler=handler, **values)
    if leftovers:
        _fail("rfsense", "unrecognized arguments: " + " ".join(leftovers))
    if i == len(argv):  # no subcommand: the program's help page, and exit 2
        raise _Exit(2, [_help_page("rfsense", (_HELP,))], None)
    return args


def _help_page(prog: str, rows: tuple) -> str:
    """The --help page of ``prog``, in the layout of argparse before Python 3.13 at width 92."""
    import textwrap  # only a help page wraps text

    blocks, parts, entries = [], [], []
    for row in rows:
        metavar = "{%s}" % ",".join(row.convert) if type(row.convert) is tuple else row.metavar
        spelling = f"{row.name} {metavar}" if metavar else row.name.replace("/", ", ")
        text = spelling if metavar else row.name.split("/")[0]
        parts += text.split() if "required" in row.kind else [f"[{text}]"]
        entries.append((2, spelling, row.help))
    sections = [("options", entries)]
    if prog == "rfsense":  # the program's own page lists the subcommands
        parts += ["SUBCOMMAND", "..."]
        blocks = [textwrap.fill("Sensitivity figures of merit for RF/microwave receivers and "
                                "atomic field sensors.", 92)]
        sections.insert(0, ("positional arguments", [(2, "SUBCOMMAND", "")] + [
            (4, name, entry[0]) for name, entry in SUBCOMMANDS.items()]))
    line, lines = "usage: " + prog, []
    for part in parts:
        if len(line) + 1 + len(part) > 92:
            lines.append(line)
            line = " " * (len(prog) + 7)
        line += " " + part
    blocks.insert(0, "\n".join(lines + [line]))
    position = min(max(len(text) for _, entries in sections for _, text, _ in entries) + 4, 24)
    for title, entries in sections:
        block = [title + ":"]
        for indent, text, help_text in entries:
            head, wrapped = " " * indent + text, textwrap.wrap(help_text, 92 - position)
            if wrapped and len(head) + 2 <= position:
                head = head.ljust(position) + wrapped.pop(0)
            block += [head] + [" " * position + more for more in wrapped]
        blocks.append("\n".join(block))
    return "\n\n".join(blocks) + "\n"


def build_parser() -> types.SimpleNamespace:
    """The command line: ``parse_args(argv)`` returns the flag values and the ``handler``."""
    return types.SimpleNamespace(parse_args=_parse_args)


def main(argv: list[str] | None = None) -> int:
    # A call's objects form no reference cycle, so reference counting frees them all
    # and a cyclic collection during the call finds nothing. Yet the records a call
    # holds are tuple subclasses, which the collector never untracks, so they set off
    # collections that walk every one of them. The collector is therefore paused for
    # the call and left as it was at entry on every exit. Tests pin both halves: the
    # CLI calls of tests/test_contract.py (through _cli) and
    # test_rejected_rows_leave_no_reference_cycle in tests/test_dataset.py leave no
    # garbage cycle, and test_main_restores_the_collector in tests/test_cli.py finds
    # the collector back on after each kind of exit.
    #
    # The interpreter's exit still runs full collections over every object that site
    # and rfsense loaded, about a tenth of a cold call. gc.freeze at exit moves them all
    # to the permanent generation, which those collections skip. Freezing here instead
    # would keep an in-process caller's later garbage cycles from ever being collected,
    # so main registers the freeze as an atexit handler, unregistering it first to keep
    # one however often main runs; TestExitHook in tests/test_cli.py pins both.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return _write_out(render_report(args.handler(args), args.format), args.output)
    except _Exit as end:
        code, pieces, line = end.args
    except DomainError as exc:
        code, pieces, line = 2, None, f"domain-error: {exc}"
    except SchemaError as exc:
        code, pieces, line = 3, None, f"schema-error: {exc}"
    finally:
        if collecting:
            gc.enable()
    if line is None:
        return _write_out(pieces) or code
    sys.stderr.write(line + "\n")
    return code


if __name__ == "__main__":  # run rfsense.cli, the module whose types the handlers use
    from rfsense.cli import main
    sys.exit(main())
