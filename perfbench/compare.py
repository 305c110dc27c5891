"""Compare two result sets of the benchmark: parent and change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the run records that run.py writes (its --out
directory).  Run both commits with identical benchmark code and settings,
at least ten pairs per workload, alternating which side runs first, and
give the two sides the same seeds, e.g.

    for s in $(seq 1 10); do
      (cd parent && python3 perfbench/run.py --workload W --seed $s \
          --seconds 25 --trace 0 --out ../res/parent)
      (cd change && python3 perfbench/run.py --workload W --seed $s \
          --seconds 25 --trace 0 --out ../res/change)
    done                      # and swap the order on every other seed

A pair is the runs of both sides with the same workload, trace setting
and seed (the k-th run of a side pairs with the k-th of the other).  For
every workload and metric the tool prints each side's median and
quartiles, the share of pairs the change won (ties count for neither)
and a verdict:

* unchanged: every run of both sides gave the same value (counts);
* gain: at least ten pairs, the change won at least 9/10 of them and the
  medians lie further apart than the parent's interquartile range;
* worse: the same with the sides swapped, for metrics without a bound;
* no worse within bound: the change's median is worse than the parent's
  by no more than the metric's bound in BENCHMARK.json, and the parent's
  spread is within the bound (or every change run beats every parent run);
* regression: worse than the bound, with the spread within the bound;
* unresolved: anything else.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """{(workload, trace): {metric: {seed: [values in run order]}}}"""
    records = [json.loads(path.read_text())
               for path in directory.glob("*.json")]
    records.sort(key=lambda r: r["started"])
    out: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    for rec in records:
        ctx = rec["context"]
        key = (ctx["workload"], ctx["trace"])
        for name, m in rec["result"]["metrics"].items():
            out[key][name][ctx["seed"]].append(m["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float],
            pairs: list[tuple[float, float]], lower_better: bool,
            bound: float | None) -> tuple[str, float]:
    """(verdict, share of pairs the change won) for one metric."""
    sign = -1.0 if lower_better else 1.0
    n = len(pairs)
    won = sum(sign * (c - p) > 0 for p, c in pairs)
    lost = sum(sign * (c - p) < 0 for p, c in pairs)
    share = won / n if n else 0.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    iqr = p3 - p1
    apart = abs(cm - pm) > iqr
    if set(parent) == set(change) and len(set(parent)) == 1:
        return "unchanged", share
    if n >= 10 and won >= 0.9 * n and apart and sign * (cm - pm) > 0:
        return "gain", share
    if bound is None:
        if n >= 10 and lost >= 0.9 * n and apart and sign * (cm - pm) < 0:
            return "worse", share
        return "unresolved", share
    worse_by = sign * (pm - cm) / abs(pm) if pm else 0.0
    spread_ok = iqr <= bound * abs(pm)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if worse_by <= bound and (spread_ok or all_better):
        return "no worse within bound", share
    if worse_by > bound and spread_ok:
        return "regression", share
    return "unresolved", share


def compare(parent_dir: Path, change_dir: Path, spec: dict) -> list[str]:
    metric_spec = {m["name"]: m
                   for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(parent_dir), load(change_dir)
    lines = []
    for key in sorted(set(parent) | set(change)):
        workload, trace = key
        lines.append(f"== {workload} (trace {trace})")
        lines.append(f"{'metric':40} {'parent q1/med/q3':>32} "
                     f"{'change q1/med/q3':>32} {'won':>7}  verdict")
        for name in sorted(set(parent[key]) | set(change[key])):
            ps, cs = parent[key].get(name, {}), change[key].get(name, {})
            pv = [v for seed in sorted(ps) for v in ps[seed]]
            cv = [v for seed in sorted(cs) for v in cs[seed]]
            if not pv or not cv:
                lines.append(f"{name:40} only on one side")
                continue
            pairs = [(p, c) for seed in sorted(set(ps) & set(cs))
                     for p, c in zip(ps[seed], cs[seed])]
            m = metric_spec.get(name, {})
            lower = m.get("better", "lower") == "lower"
            what, share = verdict(pv, cv, pairs, lower, m.get("bound"))
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            lines.append(f"{name:40} {fmt.format(*quartiles(pv)):>32} "
                         f"{fmt.format(*quartiles(cv)):>32} "
                         f"{share:>6.0%}  {what} ({len(pairs)} pairs)")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = ap.parse_args(argv)
    spec = json.loads(args.spec.read_text())
    for directory in (args.parent, args.change):
        if not directory.is_dir():
            print(f"error: {directory} is not a directory", file=sys.stderr)
            return 2
    print("\n".join(compare(args.parent, args.change, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
