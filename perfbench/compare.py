#!/usr/bin/env python3
"""Compare two result sets of the resnetlab benchmark (stdlib only).

    python3 perfbench/compare.py PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

Each directory holds the ``<workload>_seed<n>_trace<t>.json`` files that
``perfbench/run.py`` writes to ``.perfbench/results/``. Runs are paired by
workload, trace mode and seed. For every workload and metric this prints
both medians with quartiles, and the share of pairs the change won (ties
count for neither). End-to-end metrics also get a verdict:

- gain: the change won at least 9/10 of at least 10 pairs and the medians
  differ by more than the parent's quartile distance;
- regression: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
- unresolved: the parent's quartile distance exceeds the bound, and not
  every change run beats every parent run;
- no change: none of the above.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import quartiles

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: Path) -> dict[tuple[str, int], dict[int, dict]]:
    """(workload, trace) -> seed -> metric values."""
    runs: dict[tuple[str, int], dict[int, dict]] = {}
    for path in sorted(directory.glob("*_seed*_trace*.json")):
        record = json.loads(path.read_text())
        values = {k: v["value"] for k, v in record["metrics"].items()}
        values["failed"] = record["failed"]
        runs.setdefault((record["workload"], record["trace"]), {})[record["seed"]] = values
    return runs


def verdict(parent: list[float], change: list[float], wins: int, pairs: int,
            bound: float, lower_is_better: bool) -> str:
    p_med, p_q1, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    worse = (c_med - p_med) if lower_is_better else (p_med - c_med)
    if worse > bound * abs(p_med):
        return "regression"
    if (pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and worse < 0
            and -worse > p_q3 - p_q1):
        return "gain"
    all_better = (max(change) < min(parent)) if lower_is_better else (min(change) > max(parent))
    if p_q3 - p_q1 > bound * abs(p_med) and not all_better:
        return "unresolved"
    return "no change"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent_runs, change_runs = load(Path(argv[0])), load(Path(argv[1]))
    for key in sorted(set(parent_runs) & set(change_runs)):
        workload, trace = key
        parent, change = parent_runs[key], change_runs[key]
        seeds = sorted(set(parent) & set(change))
        failed = (sum(parent[s]["failed"] for s in parent), sum(change[s]["failed"] for s in change))
        print(f"== {workload} (trace {trace}): {len(seeds)} pairs, "
              f"failed invocations parent {failed[0]}, change {failed[1]}")
        names = [n for n in metrics if n in parent[seeds[0]]] if seeds else []
        for name in names:
            spec_m = metrics[name]
            lower = spec_m["better"] == "lower"
            p_vals = [parent[s][name] for s in seeds]
            c_vals = [change[s][name] for s in seeds]
            wins = sum(1 for s in seeds if (change[s][name] < parent[s][name]) == lower
                       and change[s][name] != parent[s][name])
            p_med, p_q1, p_q3 = quartiles(p_vals)
            c_med, c_q1, c_q3 = quartiles(c_vals)
            line = (f"{name:45s} parent {p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]  "
                    f"change {c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}] {spec_m['unit']}  "
                    f"won {wins}/{len(seeds)}")
            if "bound" in spec_m:
                line += "  " + verdict(p_vals, c_vals, wins, len(seeds), spec_m["bound"], lower)
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
