"""rfsense benchmark: one workload per run, or all of them, or a comparison.

    python3 bench/run.py --workload cli-cold --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all --out results.json
    python3 bench/run.py --compare parent.json change.json

A run prints its metrics by name with their unit, a ``stamp`` line with the
versions and settings it ran under, and as its last line one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See METRICS.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    ROOT, SETUP_REPEATS, SRC, check_checkout, child_env, one_cpu, python, setup_seconds,
    spawn, trace_overhead_pct,
)
from compare import compare_sets, format_rows, quartiles  # noqa: E402
from tracing import IMPORT_MODULES, importtime_breakdown, median_imports  # noqa: E402

WORKLOADS = ("cli-cold", "engine-sweep", "dataset-bulk")
SEEDS = range(1, 11)  # seeds of --all


def _workload_module(name: str):
    sys.path.insert(0, str(SRC))
    if name == "cli-cold":
        import cli_cold as module
    elif name == "engine-sweep":
        import engine_sweep as module
    else:
        import dataset_bulk as module
    return module


def git_sha() -> str:
    """HEAD of the checkout; ``unknown`` outside git."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def stamp(args) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0], "numpy": numpy_version,
        "git_sha": git_sha(), "nproc": os.cpu_count(),
    }


def import_layers(code: str, workdir) -> tuple[dict, float]:
    """Median import breakdown of a fresh interpreter running ``code``, and
    the median start-up time of an interpreter that runs nothing."""
    env = child_env()
    samples: dict[str, list[tuple[float, float]]] = {}
    floor = []
    with one_cpu():
        for _ in range(SETUP_REPEATS):
            child = spawn(python("-X", "importtime", "-c", code), workdir, env)
            for name, times in importtime_breakdown(child.stderr.decode()).items():
                samples.setdefault(name, []).append(times)
            floor.append(spawn(python("-c", "pass"), workdir, env).seconds)
    return median_imports(samples), statistics.median(floor) * 1e3


def run_workload(args) -> int:
    check_checkout()
    module = _workload_module(args.workload)
    os.environ.pop("RFSENSE_ETA0_OHMS", None)
    with tempfile.TemporaryDirectory(prefix=".rfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        if args.trace:
            imports, floor_ms = import_layers(module.SETUP_CODE, workdir)
        else:
            setup_s = setup_seconds(module.SETUP_CODE, workdir)
        loop, end_to_end, layers, child_imports = module.run(
            args.seed, args.seconds, bool(args.trace), workdir)

    if args.trace:
        imports = child_imports or imports
        metrics = {
            "startup.interpreter_ms": (floor_ms, "ms"),
            # Unscaled, like the other per-layer times, so they add up.
            "op.raw_p50_ms": (statistics.median(op.seconds for op in loop.untraced()) * 1e3, "ms"),
        }
        for name in IMPORT_MODULES:
            self_ms, cumulative_ms = imports.get(name, (0.0, 0.0))
            metrics[f"import.{name}_ms"] = (cumulative_ms, "ms")
            metrics[f"import.{name}.self_ms"] = (self_ms, "ms")
        metrics.update(layers)
        metrics["trace.overhead_pct"] = (trace_overhead_pct(loop.ops), "%")
    else:
        metrics = dict(end_to_end, setup_s=(setup_s, "s"))

    failed = sum(1 for op in loop.ops if not op.ok)
    for problem in loop.failures[:10]:
        print("FAILED", problem)
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    print(f"{'error_rate':<40} {failed / len(loop.ops):>14.6g} ratio  "
          f"({failed} of {len(loop.ops)} ops)")
    print("stamp", json.dumps(stamp(args)))
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": len(loop.ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload on every seed untraced, then once traced; one child at a time."""
    check_checkout()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    runs = []
    plan = [(w, s, 0) for w in WORKLOADS for s in SEEDS] + [(w, SEEDS[0], 1) for w in WORKLOADS]
    for workload, seed, trace in plan:
        argv = python(str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace))
        done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, check=False)
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        stamp_line = next(line for line in lines if line.startswith("stamp "))
        result = json.loads(lines[-1])
        runs.append({"workload": workload, "seed": seed, "trace": trace,
                     "stamp": json.loads(stamp_line[6:]), "result": result})
        print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
    print(summarize(runs, spec))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(runs, handle, indent=1)
            handle.write("\n")
    return 0 if all(run["result"]["correct"] for run in runs) else 1


def summarize(runs: list[dict], spec: dict) -> str:
    lines = [f"{'workload':<14}{'metric':<42}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}"
             f"{'spread':>9}{'bound':>7}"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in WORKLOADS:
        for trace in (0, 1):
            chosen = [r for r in runs if r["workload"] == workload and r["trace"] == trace]
            if not chosen:
                continue
            for name, first in chosen[0]["result"]["metrics"].items():
                values = [r["result"]["metrics"][name]["value"] for r in chosen]
                q1, median, q3 = quartiles(values)
                spread = f"{(q3 - q1) / median:.3f}" if median else "-"
                bound = f"{bounds[name]:.2f}" if name in bounds else ""
                lines.append(f"{workload:<14}{name:<42}{first['unit']:<7}{median:>12.5g}"
                             f"{q1:>12.5g}{q3:>12.5g}{spread:>9}{bound:>7}")
            if trace == 0:
                attempted = sum(r["result"]["attempted"] for r in chosen)
                failed = sum(r["result"]["failed"] for r in chosen)
                lines.append(f"{workload:<14}{'error_rate':<42}{'ratio':<7}{failed / attempted:>12.5g}"
                             f"   ({failed} of {attempted} ops in {len(chosen)} runs)")
    return "\n".join(lines)


def run_compare(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with open(args.compare[0], encoding="utf-8") as handle:
        parent = json.load(handle)
    with open(args.compare[1], encoding="utf-8") as handle:
        change = json.load(handle)
    rows = compare_sets(parent, change, spec)
    print(format_rows(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS, help="run one workload")
    mode.add_argument("--all", action="store_true", help="run every workload on seeds 1-10, then once traced")
    mode.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                      help="compare two result sets written by --all --out")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from a traced run")
    parser.add_argument("--out", help="with --all, write the result set to this file")
    args = parser.parse_args(argv)
    if args.compare:
        return run_compare(args)
    if args.all:
        return run_all(args)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
