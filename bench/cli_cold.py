"""Workload ``cli-cold``: one fresh interpreter per CLI call, one at a time.

Each cycle of 20 calls covers all 11 subcommands with the README example
arguments perturbed by the seed, the three golden argv of the test suite,
five more engine calls and one well-formed domain error (5%).  The order
inside a cycle is shuffled; the mix is the same in every cycle and run.
"""

from __future__ import annotations

import json
import os
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

from common import (
    BENCH_DIR, CLI_ENTRY, FLOOR_S, GOLDEN, Op, child_env, cli_in_process, closed_loop, floor_probe,
    latency_metrics, one_cpu, python, spawn,
)
from tracing import Recorder, importtime_breakdown, median_imports, without_importtime

TRACE_OUT_ENV = "RFBENCH_TRACE_OUT"
TRACED_ENTRY = (
    "import os, sys; from rfsense.cli import main; sys.path.insert(0, {bench!r}); "
    "from tracing import Recorder; rec = Recorder(); rec.install()\n"
    "try:\n    code = main(sys.argv[1:])\n"
    "finally:\n    rec.dump(os.environ[{env!r}])\n"
    "sys.exit(code)"
).format(bench=str(BENCH_DIR), env=TRACE_OUT_ENV)

SETUP_CODE = "import rfsense.cli; rfsense.cli.build_parser()"

GOLDEN_ARGV = {
    "budget.json": [
        "budget", "--tx-power", "20dbw", "--tx-gain", "45dbi",
        "--tx-feeder-loss", "2db", "--loss", "fsl=206.5db", "--loss", "atm=2db",
        "--loss", "rain=3db", "--loss", "other=1db", "--rx-gain", "50dbi",
        "--antenna-temp", "100", "--receiver-temp", "100",
        "--feeder-loss-linear", "1.5", "--data-rate", "1e8",
        "--distance", "3.6e7m", "--frequency", "20ghz",
    ],
    "dataset_ranges.csv": ["dataset-ranges", "--format", "csv"],
    "enhance.json": [
        "enhance", "--f0", "8.4ghz", "--signal-bandwidth", "1mhz",
        "--rf-efficiency", "0.8", "--mode-volume", "1e-5", "--tsys", "20",
        "--diameter", "34m", "--rho2", "1", "--sensor-nef", "1e-7",
    ],
}


def _num(rng: random.Random, value: float, spread: float = 0.15) -> str:
    return f"{value * rng.uniform(1.0 - spread, 1.0 + spread):.6g}"


def _fmt(rng: random.Random) -> list[str]:
    return ["--format", rng.choice(("json", "json", "csv", "text"))]


def _nedt(rng):
    return ["nedt", "--antenna-temp", _num(rng, 250), "--receiver-temp", _num(rng, 600),
            "--bandwidth", _num(rng, 1) + "ghz", "--integration-time", _num(rng, 15) + "ms",
            "--gain-stability", _num(rng, 1.5e-5)] + _fmt(rng)


def _calibrate(rng):
    cold, hot = _num(rng, 77, 0.05), _num(rng, 300, 0.05)
    return ["calibrate", "--bandwidth", _num(rng, 1) + "ghz",
            "--point", f"{cold}:{_num(rng, 1.063e-11, 0.02)}",
            "--point", f"{hot}:{_num(rng, 1.243e-11, 0.02)}"] + _fmt(rng)


def _radar(rng):
    return ["radar", "--tx-power", _num(rng, 1e3) + "w", "--tx-gain", _num(rng, 1e3) + "lin",
            "--rx-gain", _num(rng, 1e3) + "lin", "--wavelength", _num(rng, 0.03) + "m",
            "--sigma", _num(rng, 1) + "m2", "--range", _num(rng, 100) + "km",
            "--tsys", _num(rng, 290), "--bandwidth", _num(rng, 1) + "mhz"] + _fmt(rng)


def _budget(rng):
    return ["budget", "--tx-power", _num(rng, 20, 0.1) + "dbw", "--tx-gain", _num(rng, 45, 0.05) + "dbi",
            "--tx-feeder-loss", _num(rng, 2) + "db", "--loss", f"fsl={_num(rng, 206.5, 0.01)}db",
            "--loss", f"atm={_num(rng, 2)}db", "--loss", f"rain={_num(rng, 3)}db",
            "--rx-gain", _num(rng, 50, 0.05) + "dbi", "--antenna-temp", _num(rng, 100),
            "--receiver-temp", _num(rng, 100), "--feeder-loss-linear", _num(rng, 1.5, 0.2),
            "--data-rate", _num(rng, 1e8), "--distance", _num(rng, 3.6e7) + "m",
            "--frequency", _num(rng, 20) + "ghz"] + _fmt(rng)


def _nef(rng):
    return ["nef", "--tsys", _num(rng, 20), "--diameter", _num(rng, 34) + "m"] + _fmt(rng)


def _convert(rng):
    return ["convert", "--db-to-linear", _num(rng, 3.0103), "--wavelength-of", _num(rng, 20) + "ghz",
            "--noise-figure", _num(rng, 10) + "db", "--nef", _num(rng, 7.9e-6),
            "--gain", _num(rng, 1.5) + "lin", "--frequency", _num(rng, 96) + "ghz",
            "--rho2", "0.5"] + _fmt(rng)


def _enhance(rng):
    return ["enhance", "--f0", _num(rng, 8.4) + "ghz", "--signal-bandwidth", _num(rng, 1) + "mhz",
            "--rf-efficiency", _num(rng, 0.8), "--mode-volume", _num(rng, 1e-5),
            "--tsys", _num(rng, 20), "--diameter", _num(rng, 34) + "m",
            "--sensor-nef", _num(rng, 1e-7)] + _fmt(rng)


def _rydberg(rng):
    return ["rydberg", "--dipole-ea0", _num(rng, 1000), "--atoms", _num(rng, 1e6),
            "--coherence-time", _num(rng, 10) + "us", "--field", _num(rng, 0.01)] + _fmt(rng)


def _dataset_derive(rng):
    return ["dataset-derive", "--mismatch-tolerance", _num(rng, 0.12, 0.3)]


def _dataset_ranges(rng):
    return ["dataset-ranges", "--format", rng.choice(("csv", "json")),
            "--sig-figs", rng.choice(("2", "3"))]


def _dataset_plotdata(rng):
    return ["dataset-plotdata", "--marker", f"probe:{_num(rng, 1e7)}hz:{_num(rng, 4e-7)}"]


SUBCOMMANDS = {
    "nedt": _nedt, "calibrate": _calibrate, "radar": _radar, "budget": _budget,
    "nef": _nef, "convert": _convert, "enhance": _enhance, "rydberg": _rydberg,
    "dataset-derive": _dataset_derive, "dataset-ranges": _dataset_ranges,
    "dataset-plotdata": _dataset_plotdata,
}
EXTRA_CALLS = ("nedt", "calibrate", "radar", "nef", "convert")

# Well-formed calls that the CLI must answer with exit 2 and one stderr line.
DOMAIN_ERRORS = (
    lambda rng: ["nef", f"--tsys=-{_num(rng, 20)}", "--diameter", "34m"],
    lambda rng: ["calibrate", "--bandwidth", "1ghz", "--point", f"77:{_num(rng, 1e-11)}",
                 "--point", f"77:{_num(rng, 1.2e-11)}"],
    lambda rng: ["convert", "--format", "json"],
    lambda rng: ["radar", "--tx-power", "1e3w", "--tx-gain", "1e3lin", "--rx-gain", "1e3lin",
                 "--range", _num(rng, 100) + "km", "--sigma", "1m2"],
    lambda rng: ["enhance", "--f0", "8.4ghz", "--q-loaded", _num(rng, 1e4),
                 "--signal-bandwidth", "1mhz", "--rf-efficiency", "0.8",
                 "--mode-volume", "1e-5", "--tsys", "20", "--diameter", "34m"],
    lambda rng: ["rydberg"],
)


@dataclass(frozen=True)
class Call:
    kind: str
    argv: tuple[str, ...]
    golden: str | None = None


def cycles(seed: int):
    """Endless seeded sequence of 20-call cycles."""
    rng = random.Random(seed)
    while True:
        calls = [Call(name, tuple(make(rng))) for name, make in SUBCOMMANDS.items()]
        calls += [Call(name, tuple(SUBCOMMANDS[name](rng))) for name in EXTRA_CALLS]
        calls += [Call("golden:" + name, tuple(argv), name) for name, argv in GOLDEN_ARGV.items()]
        calls.append(Call("domain-error", tuple(rng.choice(DOMAIN_ERRORS)(rng))))
        rng.shuffle(calls)
        yield calls


def expected(call: Call) -> tuple[int, bytes, bytes]:
    """Exit code the call must give, with the stdout and stderr it must print."""
    if call.golden is not None:
        return 0, (GOLDEN / call.golden).read_bytes(), b""
    _, out, err = cli_in_process(call.argv)
    return (2 if call.kind == "domain-error" else 0), out.encode(), err.encode()


def check(call: Call, want: tuple[int, bytes, bytes], code: int, out: bytes, err: bytes) -> str | None:
    """None when the child's result is the expected one, else a one-line reason."""
    one_line = err.count(b"\n") == 1 and err.endswith(b"\n") and not out
    if (code, out, err) == want and (code == 0 or one_line):
        return None
    return f"{call.kind}: exit {code} (want {want[0]}), output differs: {' '.join(call.argv)}"


def run(seed: int, seconds: float, trace: bool, workdir: Path):
    env = child_env()
    traced_env = dict(env, **{TRACE_OUT_ENV: str(workdir / "trace.json")})
    recorder = Recorder()
    imports: dict[str, list[tuple[float, float]]] = {}
    rss_kb: list[int] = []

    def run_op(call: Call, traced: bool, failures: list[str]) -> Op:
        want = expected(call)
        if traced:
            child = spawn(python("-X", "importtime", "-c", TRACED_ENTRY, *call.argv),
                          workdir, traced_env)
            stderr = without_importtime(child.stderr.decode()).encode()
            for name, times in importtime_breakdown(child.stderr.decode()).items():
                imports.setdefault(name, []).append(times)
            with open(workdir / "trace.json", encoding="utf-8") as handle:
                recorder.merge(json.load(handle))
            os.remove(workdir / "trace.json")
        else:
            child = spawn(python("-c", CLI_ENTRY, *call.argv), workdir, env)
            stderr = child.stderr
            rss_kb.append(child.maxrss_kb)
        problem = check(call, want, child.exit_code, child.stdout, stderr)
        if problem:
            failures.append(problem)
        return Op(call.kind, child.seconds, problem is None, traced)

    with one_cpu():
        # One untimed call first, so compiled bytecode is cached for every timed call.
        spawn(python("-c", CLI_ENTRY, "nef", "--tsys", "20", "--diameter", "34m"), workdir, env)
        loop = closed_loop(cycles(seed), run_op, seconds, trace,
                           probe=floor_probe(workdir, env), nominal=FLOOR_S)
    metrics = {}
    if not trace:
        metrics = latency_metrics(loop.untraced())
        metrics["peak_rss_mb"] = (statistics.median(rss_kb) / 1024.0, "MB")
    return loop, metrics, recorder.layer_metrics(), median_imports(imports)
