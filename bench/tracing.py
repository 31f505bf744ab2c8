"""Per-layer tracing from outside the package.

``Recorder.install()`` swaps timed wrappers into the namespaces of the
loaded ``rfsense`` modules, so every call into a public engine or dataset
function is counted and timed where it crosses a module boundary, without
touching the package's source.  Only the outermost traced call is timed:
a public function calling another public function is charged to the caller.
The CLI stages (``build_parser``, ``parse_args``, the subcommand handler and
``render_report``) are timed by wrapping what ``cli.main`` looks up.

``importtime_breakdown`` parses the ``-X importtime`` report of a child
interpreter into self and cumulative times per module.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import types

ENGINE_MODULES = ("radiometry", "radar", "linkbudget", "fieldmetrics", "rydberg", "quantities")
DATASET_STAGES = (
    "parse_instruments", "derive_records", "consistency_diagnostics",
    "synthesize_all", "emit_plot_data",
)
CLI_STAGES = ("build_parser", "parse_args", "handler", "render")
RENDER_FORMATS = ("json", "csv")
IMPORT_MODULES = ("numpy", "rfsense") + tuple(
    "rfsense." + name for name in (
        "cli", "dataset", "errors", "fieldmetrics", "linkbudget",
        "quantities", "radar", "radiometry", "rydberg",
    )
)
SMALL_FIT_MAX_POINTS = 3
LARGE_FIT_MIN_POINTS = 256


def _observe_dataset(name: str, result, counts: dict) -> None:
    if name == "parse_instruments":
        counts["parses"] += 1
        counts["rows_in"] += len(result.records) + len(result.diagnostics)
        counts["diagnostics"] += len(result.diagnostics)
    elif name == "derive_records":
        counts["rows_derived"] += len(result[0])
        counts["diagnostics"] += len(result[1])
    elif name == "consistency_diagnostics":
        counts["diagnostics"] += len(result)
    elif name == "synthesize_all":
        counts["syntheses"] += 1
        counts["categories"] += len(result)


class Recorder:
    """Counters and busy time per layer, kept in memory until dumped."""

    def __init__(self) -> None:
        self.stats: dict[str, list[float]] = {}  # key -> [calls, busy_s]
        self.domain_errors = {name: 0 for name in ENGINE_MODULES}
        self.dataset_counts = dict.fromkeys(
            ("parses", "rows_in", "rows_derived", "diagnostics", "syntheses", "categories"), 0
        )
        self._depth = 0
        self._patched: list[tuple[object, str, object]] = []

    def _add(self, key: str, seconds: float) -> None:
        entry = self.stats.get(key)
        if entry is None:
            self.stats[key] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def _wrap_function(self, module: str, fn):
        from rfsense.errors import DomainError

        key = f"{module}.{fn.__name__}"
        fit = fn.__name__ == "calibrate_hot_cold"
        dataset = module == "dataset"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except DomainError:
                if not dataset:
                    self.domain_errors[module] += 1
                raise
            finally:
                elapsed = clock() - start
                self._depth = 0
                self._add(key, elapsed)
                if fit:
                    points = len(args[0]) if args else len(kwargs["points"])
                    if points <= SMALL_FIT_MAX_POINTS:
                        self._add("radiometry.calibrate.small", elapsed)
                    elif points >= LARGE_FIT_MIN_POINTS:
                        self._add("radiometry.calibrate.large", elapsed)
            if dataset:
                _observe_dataset(fn.__name__, result, self.dataset_counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def _timed(self, key: str, fn):
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add(key, clock() - start)

        return timed

    def _patch(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Swap wrappers into every loaded ``rfsense`` module namespace."""
        import rfsense.cli as cli
        import rfsense.dataset as dataset

        wrappers = {}
        for name in ENGINE_MODULES:
            module = sys.modules["rfsense." + name]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap_function(name, fn)
        for stage in DATASET_STAGES:
            fn = getattr(dataset, stage)
            wrappers[id(fn)] = self._wrap_function("dataset", fn)
        for module_name, module in list(sys.modules.items()):
            if module_name != "rfsense" and not module_name.startswith("rfsense."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)

        build_parser = cli.build_parser
        render_report = cli.render_report

        def traced_build_parser():
            parser = self._timed("cli.build_parser", build_parser)()
            parse_args = parser.parse_args

            def traced_parse_args(*args, **kwargs):
                namespace = self._timed("cli.parse_args", parse_args)(*args, **kwargs)
                handler = getattr(namespace, "handler", None)
                if handler is not None:
                    namespace.handler = self._timed("cli.handler", handler)
                return namespace

            parser.parse_args = traced_parse_args
            return parser

        def traced_render_report(payload, fmt, *args, **kwargs):
            start = time.perf_counter()
            try:
                return render_report(payload, fmt, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._add("cli.render", elapsed)
                if fmt in RENDER_FORMATS:
                    self._add(f"cli.render_{fmt}", elapsed)

        self._patch(cli, "build_parser", traced_build_parser)
        self._patch(cli, "render_report", traced_render_report)

    def enable(self, on: bool) -> None:
        """Install or uninstall, whichever makes tracing ``on``."""
        if on != bool(self._patched):
            self.install() if on else self.uninstall()

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def snapshot(self) -> dict:
        return {
            "stats": self.stats,
            "domain_errors": self.domain_errors,
            "dataset_counts": self.dataset_counts,
        }

    def merge(self, snapshot: dict) -> None:
        for key, (calls, busy) in snapshot["stats"].items():
            entry = self.stats.setdefault(key, [0, 0.0])
            entry[0] += calls
            entry[1] += busy
        for key, value in snapshot["domain_errors"].items():
            self.domain_errors[key] += value
        for key, value in snapshot["dataset_counts"].items():
            self.dataset_counts[key] += value

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the traced calls: name -> (value, unit)."""

        def calls(key):
            return self.stats.get(key, (0, 0.0))[0]

        def busy(key):
            return self.stats.get(key, (0, 0.0))[1]

        def mean(key, scale):
            return busy(key) / calls(key) * scale if calls(key) else 0.0

        metrics: dict[str, tuple[float, str]] = {}
        for stage in CLI_STAGES:
            metrics[f"cli.{stage}_ms"] = (mean(f"cli.{stage}", 1e3), "ms")
        for fmt in RENDER_FORMATS:
            metrics[f"cli.render_{fmt}_ms"] = (mean(f"cli.render_{fmt}", 1e3), "ms")
        for module in ENGINE_MODULES:
            prefix = module + "."
            keys = [k for k in self.stats if k.startswith(prefix) and k.count(".") == 1]
            n = sum(calls(k) for k in keys)
            total = sum(busy(k) for k in keys)
            metrics[f"{module}.calls"] = (n, "count")
            metrics[f"{module}.busy_s"] = (total, "s")
            metrics[f"{module}.us_per_call"] = (total / n * 1e6 if n else 0.0, "us")
            metrics[f"{module}.domain_errors"] = (self.domain_errors[module], "count")
        for size in ("small", "large"):
            metrics[f"radiometry.calibrate.{size}_us"] = (
                mean(f"radiometry.calibrate.{size}", 1e6), "us")
        for stage in DATASET_STAGES:
            metrics[f"dataset.{stage}_ms"] = (mean(f"dataset.{stage}", 1e3), "ms")
        counts = self.dataset_counts
        parses = counts["parses"]
        metrics["dataset.rows_in"] = (counts["rows_in"] / parses if parses else 0.0, "count")
        metrics["dataset.categories"] = (
            counts["categories"] / counts["syntheses"] if counts["syntheses"] else 0.0, "count")
        metrics["dataset.diagnostics"] = (counts["diagnostics"] / parses if parses else 0.0, "count")
        metrics["dataset.rows_derived_ratio"] = (
            counts["rows_derived"] / counts["rows_in"] if counts["rows_in"] else 0.0, "ratio")
        return metrics


def importtime_breakdown(stderr: str) -> dict[str, tuple[float, float]]:
    """Self and cumulative import time in ms per module, from ``-X importtime``."""
    found: dict[str, tuple[float, float]] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].strip()
        # A module imported again later (``from rfsense.cli import ...`` after
        # the package loaded it) gets a second, near-empty line; keep the first.
        if name in IMPORT_MODULES and name not in found:
            found[name] = (int(fields[0]) / 1e3, int(fields[1]) / 1e3)
    return found


def median_imports(samples: dict[str, list[tuple[float, float]]]) -> dict[str, tuple[float, float]]:
    """Median self and cumulative time per module over several interpreters."""
    return {
        name: (statistics.median(t[0] for t in times), statistics.median(t[1] for t in times))
        for name, times in samples.items()
    }


def without_importtime(stderr: str) -> str:
    return "".join(
        line for line in stderr.splitlines(keepends=True)
        if not line.startswith("import time:")
    )
