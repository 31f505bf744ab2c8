"""Shared pieces of the benchmark: paths, child processes, the closed loop,
the machine-speed probes and the summary statistics."""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"

# Fresh interpreters per run for set-up time and the import breakdown; the
# median of several keeps one slow start from moving the figure.
SETUP_REPEATS = 7

CLI_ENTRY = "import sys; from rfsense.cli import main; sys.exit(main(sys.argv[1:]))"

# Timings are reported at a reference machine speed.  The machine this was
# built on is shared: its speed for the same code changes by up to 1.7x
# within seconds, and runs of the same seed then differ by 30% or more.  So
# the speed is probed around every op, and the op's wall time is scaled by
# the probe's nominal time over the mean probe time.  In-process ops are
# probed with a fixed pure-Python kernel (nominal REF_KERNEL_S) before and
# after the op and every SAMPLE_INTERVAL_S during it; child processes with
# the start-up floor ``python -c pass`` (nominal FLOOR_S) before and after,
# run on the same CPU as the child.
REF_KERNEL_S = 2.5e-4
SAMPLE_INTERVAL_S = 0.025
FLOOR_S = 0.05


def check_checkout() -> None:
    """Exit with code 2 unless the program and its golden files are present."""
    missing = [
        str(path.relative_to(ROOT))
        for path in (SRC / "rfsense" / "cli.py", GOLDEN / "dataset_ranges.csv")
        if not path.is_file()
    ]
    if missing:
        print(f"bench: missing {', '.join(missing)}; run from a full checkout",
              file=sys.stderr)
        raise SystemExit(2)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("RFSENSE_ETA0_OHMS", None)
    return env


@dataclass
class Child:
    exit_code: int
    seconds: float
    maxrss_kb: int
    stdout: bytes
    stderr: bytes


def spawn(argv: list[str], workdir: Path, env: dict[str, str]) -> Child:
    """Run one child to completion; stdout and stderr go through files so
    that ``wait4`` can return the child's own peak RSS."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    return Child(
        exit_code=os.waitstatus_to_exitcode(status),
        seconds=seconds,
        maxrss_kb=usage.ru_maxrss,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


def cli_in_process(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``rfsense.cli.main`` in this interpreter."""
    from rfsense.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def ref_kernel() -> float:
    """Seconds one run of the reference kernel takes now."""
    start = time.perf_counter()
    table, total = {}, 0.0
    for i in range(1000):
        x = math.sqrt(i + 1.0) * 1.5
        table[i & 63] = (x, i)
        total += x if i % 3 else -x
    return time.perf_counter() - start


@contextlib.contextmanager
def sampling(samples: list[float]):
    """Append a reference-kernel time to ``samples`` every SAMPLE_INTERVAL_S
    while the block runs, from a SIGALRM handler in this thread."""
    previous = signal.signal(signal.SIGALRM, lambda *_: samples.append(ref_kernel()))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, previous)


def floor_probe(workdir: Path, env: dict[str, str]):
    """Probe timing the start-up floor: an interpreter that runs nothing."""
    return lambda: spawn(python("-c", "pass"), workdir, env).seconds


@contextlib.contextmanager
def one_cpu():
    """Keep this process and its children on one CPU, so a child and the
    floors it is scaled by run on the same CPU."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def setup_seconds(code: str, workdir: Path) -> float:
    """Median time of fresh interpreters running a workload's set-up, each
    scaled by the start-up floor measured just before and after it."""
    env = child_env()
    probe = floor_probe(workdir, env)
    times = []
    with one_cpu():
        before = probe()
        for _ in range(SETUP_REPEATS):
            child = spawn(python("-c", code), workdir, env)
            if child.exit_code != 0:
                raise RuntimeError("set-up failed: " + child.stderr.decode(errors="replace"))
            after = probe()
            times.append(child.seconds * FLOOR_S * 2.0 / (before + after))
            before = after
    return statistics.median(times)


@dataclass
class Op:
    """One measured operation of the closed loop."""

    key: object
    seconds: float
    ok: bool
    traced: bool
    scale: float = 1.0  # nominal over measured probe time around the op

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


@dataclass
class Loop:
    ops: list[Op] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def untraced(self) -> list[Op]:
        return [op for op in self.ops if not op.traced]


def closed_loop(cycles, run_op, seconds: float, trace: bool,
                probe=ref_kernel, nominal: float = REF_KERNEL_S) -> Loop:
    """One client: each op starts when the previous one has ended.

    Whole cycles run until ``seconds`` have passed, so every run measures
    the same mix.  With ``trace`` every second cycle is traced, so traced
    and untraced ops share the same inputs and the same stretch of time.
    ``probe`` times the machine's speed between ops (see REF_KERNEL_S); the
    reference kernel also samples it during in-process ops.
    """
    loop = Loop()
    start = time.perf_counter()
    before = probe()
    in_process = probe is ref_kernel
    for index, cycle in enumerate(cycles):
        traced = trace and index % 2 == 1
        for item in cycle:
            samples = [before]
            with sampling(samples) if in_process else contextlib.nullcontext():
                op = run_op(item, traced, loop.failures)
            before = probe()
            samples.append(before)
            op.scale = nominal / statistics.fmean(samples)
            loop.ops.append(op)
        if time.perf_counter() - start >= seconds and (not trace or index >= 1):
            break
    return loop


def latency_metrics(ops: list[Op]) -> dict[str, tuple[float, str]]:
    latencies = [op.scaled for op in ops]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (deciles[8] * 1e3, "ms"),
    }


def in_process_metrics(loop: Loop, trace: bool) -> dict[str, tuple[float, str]]:
    """End-to-end metrics of an in-process workload; none for a traced run."""
    if trace:
        return {}
    metrics = latency_metrics(loop.untraced())
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def trace_overhead_pct(ops: list[Op]) -> float:
    """Median over inputs of traced/untraced latency, as a percentage."""
    by_key: dict[object, tuple[list[float], list[float]]] = {}
    for op in ops:
        plain, traced = by_key.setdefault(op.key, ([], []))
        (traced if op.traced else plain).append(op.scaled)
    ratios = [
        statistics.median(traced) / statistics.median(plain)
        for plain, traced in by_key.values()
        if plain and traced
    ]
    return (statistics.median(ratios) - 1.0) * 100.0 if ratios else 0.0
