"""Workload ``dataset-bulk``: the dataset pipeline on large seeded tables.

Each input is a CSV grown from the bundled 21-row table: values perturbed,
2 000 to 10 000 rows in five fixed shapes, 5 to 50 rows per category, about
2% malformed rows, a share of rows whose aperture or system temperature must
be derived, and a quoted ``e_free_reported`` cell in some rows; one reported
value in ten is inconsistent with its row.  Every input goes through
``cli.main`` three times, as ``dataset-derive`` (json), ``dataset-ranges``
(csv) and ``dataset-plotdata``, with ``--input`` and ``--output`` in a work
directory.  Each call is one op; a cycle is every input through every command.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

from common import GOLDEN, SRC, Op, cli_in_process, closed_loop, in_process_metrics
from tracing import Recorder

SETUP_CODE = (
    "import rfsense.cli, rfsense.dataset; rfsense.cli.build_parser(); "
    "rfsense.dataset.load_bundled_dataset()"
)
# (rows, rows per category) of the inputs; every run uses all of them.
INPUT_SHAPES = ((2000, 5), (4000, 50), (6000, 10), (8000, 25), (10000, 10))
MALFORMED_SHARE = 0.02
COMMANDS = {
    "derive": ["dataset-derive"],
    "ranges": ["dataset-ranges", "--format", "csv"],
    "plotdata": ["dataset-plotdata"],
}
KNOWN_INCONSISTENT_ROWS = {
    "SMOS MIRAS element (single LICEF)",
    "Jason-2 Poseidon-3 (Ku)",
    "NOAA-19 AMSU-A ch.9",
    "Odin-SMR 557 GHz",
    "2.1 THz heterodyne spectrometer",
    "4.7 THz heterodyne spectrometer",
}
MISMATCH_PREFIX = "quoted field"
BOLTZMANN = 1.380649e-23
ETA0 = 376.730313668
REL_TOL = 1e-5  # reports carry six significant digits


@dataclass(slots=True)
class Row:
    instrument: str
    category: str
    f0_hz: float
    a_e: float
    t_sys: float
    rho2: float
    inconsistent: bool

    @property
    def e_free(self) -> float:
        return math.sqrt(BOLTZMANN * self.t_sys * ETA0 / (self.rho2 * self.a_e))


@dataclass
class Table:
    """One generated input: its CSV text and what the pipeline must find."""

    text: str
    rows: list[Row]
    malformed: set[int]  # CSV line numbers, header = 1

    def categories(self) -> dict[str, list[Row]]:
        groups: dict[str, list[Row]] = {}
        for row in self.rows:
            groups.setdefault(row.category, []).append(row)
        return groups


def _bundled_rows() -> tuple[list[str], list[dict]]:
    with open(SRC / "rfsense" / "data" / "instruments.csv", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        return list(reader.fieldnames), list(reader)


def _cell(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def make_table(rng: random.Random, rows: int, per_category: int) -> Table:
    header, templates = _bundled_rows()
    lines: list[tuple[str, Row | None]] = []  # None marks a malformed row
    for index in range(rows):
        category = index // per_category
        template = templates[category % len(templates)]
        cell = dict(template)
        cell["instrument"] = f"{template['instrument']} #{index}"
        cell["category"] = f"{template['category']} {category:04d}"
        for key in ("f0_ghz", "bandwidth_hz", "a_e_m2", "t_sys_k"):
            cell[key] = repr(float(template[key]) * rng.uniform(0.8, 1.25))
        a_e, t_sys = float(cell["a_e_m2"]), float(cell["t_sys_k"])
        if rng.random() < 0.3:
            eta = rng.uniform(0.5, 0.8)
            cell.update(aperture_method="phys", a_e_m2="", a_phys_m2=repr(a_e / eta),
                        eta_ap=repr(eta))
            a_e = eta * float(cell["a_phys_m2"])
        if rng.random() < 0.3:
            t_a = t_sys * rng.uniform(0.1, 0.5)
            cell.update(t_sys_method="sum", t_sys_k="", t_a_k=repr(t_a), t_a_flag="measured",
                        t_rx_k=repr(t_sys - t_a), t_rx_method="direct", nf_db="",
                        nedt_k="", tau_s="")
            t_sys = float(cell["t_a_k"]) + float(cell["t_rx_k"])
        row = Row(cell["instrument"], cell["category"], float(cell["f0_ghz"]) * 1e9,
                  a_e, t_sys, float(cell["rho2"]), rng.random() < 0.1)
        draw = rng.random()
        if draw < 0.05:
            cell["e_free_reported"] = ""
        else:
            factor = rng.uniform(1.3, 1.6) if row.inconsistent else rng.uniform(0.97, 1.03)
            cell["e_free_reported"] = repr(row.e_free * factor)
            if draw < 0.25:
                cell["e_free_reported"] = f'"{cell["e_free_reported"]}"'
        row.inconsistent = row.inconsistent and draw >= 0.05
        if rng.random() < MALFORMED_SHARE:
            key, bad = rng.choice((("coherence", "partial"), ("f0_ghz", "n/a"),
                                   ("t_sys_method", "guess")))
            cell[key] = bad
            row = None
        lines.append((",".join(
            cell[name] if name == "e_free_reported" else _cell(cell[name]) for name in header
        ), row))
    rng.shuffle(lines)
    malformed = {number for number, (_, row) in enumerate(lines, start=2) if row is None}
    good = [row for _, row in lines if row is not None]
    text = "\n".join([",".join(header)] + [line for line, _ in lines]) + "\n"
    return Table(text, good, malformed)


def make_inputs(seed: int) -> list[Table]:
    rng = random.Random(seed)
    return [make_table(rng, rows, per_category) for rows, per_category in INPUT_SHAPES]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL)


def check_derive(table: Table, output: bytes) -> str | None:
    report = json.loads(output)
    records = report["records"]
    if report["record_count"] != len(table.rows) or len(records) != len(table.rows):
        return f"derive: {report['record_count']} records, want {len(table.rows)}"
    for record, row in zip(records, table.rows):
        if record["instrument"] != row.instrument or record["category"] != row.category:
            return f"derive: record {record['instrument']!r} out of order"
        if not (_close(record["e_free_v_m_sqrthz"], row.e_free) and _close(record["a_e_m2"], row.a_e)
                and _close(record["t_sys_k"], row.t_sys)):
            return f"derive: {row.instrument!r} derived values disagree with the closed form"
    parse_rows = {d["row"] for d in report["diagnostics"] if not d["message"].startswith(MISMATCH_PREFIX)}
    if parse_rows != table.malformed:
        return f"derive: diagnostics on rows {sorted(parse_rows)[:5]}, want {sorted(table.malformed)[:5]}"
    flagged = {d["instrument"] for d in report["diagnostics"] if d["message"].startswith(MISMATCH_PREFIX)}
    if flagged != {row.instrument for row in table.rows if row.inconsistent}:
        return "derive: inconsistent-row diagnostics differ from the generated ones"
    return None


def check_ranges(table: Table, output: bytes) -> str | None:
    lines = list(csv.DictReader(io.StringIO(output.decode())))
    groups = table.categories()
    if [line["category"] for line in lines] != list(groups):
        return "ranges: categories differ from the generated ones"
    for line in lines:
        members = groups[line["category"]]
        f0 = [row.f0_hz for row in members]
        if (int(line["members"]) != len(members) or not _close(float(line["f0_min_hz"]), min(f0))
                or not _close(float(line["f0_max_hz"]), max(f0))):
            return f"ranges: {line['category']!r} disagrees with its members"
    return None


def check_plotdata(table: Table, output: bytes) -> str | None:
    document = json.loads(output)
    if [r["category"] for r in document["rectangles"]] != list(table.categories()):
        return "plotdata: rectangles differ from the generated categories"
    if [m["name"] for m in document["markers"]] != ["mw-optical-converter"]:
        return "plotdata: converter marker missing"
    return None


CHECKS = {"derive": check_derive, "ranges": check_ranges, "plotdata": check_plotdata}


def check(command: str, table: Table, output: bytes) -> str | None:
    try:
        return CHECKS[command](table, output)
    except (ValueError, KeyError, TypeError) as exc:
        return f"{command}: unreadable output ({type(exc).__name__}: {exc})"


def check_bundled() -> list[str]:
    """The bundled table: golden ranges and the six named inconsistencies."""
    problems = []
    code, out, _ = cli_in_process(["dataset-ranges", "--format", "csv"])
    if code != 0 or out.encode() != (GOLDEN / "dataset_ranges.csv").read_bytes():
        problems.append("bundled dataset-ranges differs from tests/golden/dataset_ranges.csv")
    code, out, _ = cli_in_process(["dataset-derive"])
    flagged = {d["instrument"] for d in json.loads(out)["diagnostics"]
               if d["message"].startswith(MISMATCH_PREFIX)} if code == 0 else set()
    if flagged != KNOWN_INCONSISTENT_ROWS:
        problems.append(f"bundled dataset-derive flags {sorted(flagged)}")
    return problems


def run(seed: int, seconds: float, trace: bool, workdir: Path):
    tables = make_inputs(seed)
    paths = []
    for index, table in enumerate(tables):
        path = workdir / f"input-{index}.csv"
        path.write_text(table.text, encoding="utf-8")
        table.text = ""  # the program reads the file; the text would only add to peak RSS
        paths.append(path)
    output = workdir / "output"
    digests: dict[tuple[int, str], str] = {}
    recorder = Recorder()

    def run_op(item: tuple[int, str], traced: bool, failures: list[str]) -> Op:
        index, command = item
        argv = COMMANDS[command] + ["--input", str(paths[index]), "--output", str(output)]
        recorder.enable(traced)
        start = time.perf_counter()
        try:
            code, _, err = cli_in_process(argv)
        except Exception as exc:  # an unexpected exception is a failed op, not a crash
            code, err = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        data = output.read_bytes() if code == 0 else b""
        digest = hashlib.sha256(data).hexdigest()
        if code != 0:
            problem = f"{command} on input {index}: exit {code}: {err.strip()}"
        elif digests.setdefault(item, digest) != digest:
            problem = f"{command} on input {index}: output changed between repeats"
        else:
            problem = check(command, tables[index], data)
        if problem:
            failures.append(problem)
        return Op(item, elapsed, problem is None, traced)

    # A fixed order keeps the heap's high-water mark, and so peak RSS, the
    # same from seed to seed.
    cycle = [(index, command) for index in range(len(tables)) for command in COMMANDS]
    bundled = check_bundled()
    try:
        loop = closed_loop(iter(lambda: cycle, None), run_op, seconds, trace)
    finally:
        recorder.uninstall()
    loop.failures.extend(bundled)
    return loop, in_process_metrics(loop, trace), recorder.layer_metrics(), {}
