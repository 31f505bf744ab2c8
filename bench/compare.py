"""Verdicts for two result sets of the same benchmark.

A change *improved* a metric when it wins at least nine tenths of the
seed-paired runs (ties count for neither side), the medians differ by more
than the parent's interquartile range and no more of its ops failed than of
the parent's; such a gain with more failed ops is *unresolved*.  It
*regressed* when its median is worse than the parent's by more than the
metric's bound.  A metric whose relative spread on either side is wider
than its bound is *unresolved*, unless every run of the change reads better
than every run of the parent.
Everything else is *unchanged*.
"""

from __future__ import annotations

import statistics

WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            failed: tuple[int, int] = (0, 0)) -> tuple[str, int]:
    """Verdict and number of wins for seed-paired runs of one metric;
    ``failed`` is the number of failed ops of the parent and of the change."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pairs = min(len(parent), len(change))
    q1, parent_median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    gain = sign * (change_median - parent_median)
    if wins >= WIN_SHARE * pairs and gain > q3 - q1:
        return ("improved" if failed[1] <= failed[0] else "unresolved"), wins
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    spread = max(relative_spread(parent), relative_spread(change))
    if spread > bound and not all_better:
        return "unresolved", wins
    if -gain > bound * abs(parent_median):
        return "regressed", wins
    return "unchanged", wins


def _untraced(runs: list[dict], workload: str) -> list[dict]:
    return sorted(
        (run for run in runs if run["workload"] == workload and not run["trace"]),
        key=lambda run: run["seed"],
    )


def _values(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [run["result"]["metrics"][metric]["value"] for run in _untraced(runs, workload)
            if metric in run["result"]["metrics"]]


def _failed(runs: list[dict], workload: str) -> int:
    return sum(run["result"]["failed"] for run in _untraced(runs, workload))


def compare_sets(parent: list[dict], change: list[dict], spec: dict) -> list[dict]:
    """One row per workload x end-to-end metric."""
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        failed = (_failed(parent, workload), _failed(change, workload))
        for metric in spec["end_to_end"]:
            before = _values(parent, workload, metric["name"])
            after = _values(change, workload, metric["name"])
            if not before or not after:
                continue
            result, wins = verdict(before, after, metric["better"], metric["bound"], failed)
            rows.append({
                "workload": workload, "metric": metric["name"], "unit": metric["unit"],
                "parent": quartiles(before), "change": quartiles(after),
                "wins": wins, "pairs": min(len(before), len(after)), "failed": failed,
                "verdict": result,
            })
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'workload':<14}{'metric':<16}{'unit':<6}{'parent q1/median/q3':>32}"
             f"{'change q1/median/q3':>32}{'wins':>8}{'failed':>10}  verdict"]
    for row in rows:
        cells = ["/".join(f"{v:.4g}" for v in row[side]) for side in ("parent", "change")]
        lines.append(f"{row['workload']:<14}{row['metric']:<16}{row['unit']:<6}{cells[0]:>32}"
                     f"{cells[1]:>32}{row['wins']:>4}/{row['pairs']:<3}"
                     f"{'%d/%d' % row['failed']:>10}  {row['verdict']}")
    return "\n".join(lines)
