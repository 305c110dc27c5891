"""Determinism self-check: two traced runs of one seed give equal counts.

    python3 perfbench/determinism.py [--workload W ...] [--seed N]

Runs run.py --trace 1 twice per workload with the same seed and compares
the counted pass exactly: calls of every layer, Newton iterations,
density evaluations, scan pixels, trimmed entries and the summed
mse_ratio.  Exits 1 when any count differs, so a later change may cite
these counts as repeatable.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def traced_counts(workload: str, seed: int, out: Path) -> dict:
    """Counts of one traced run, read from the record it writes."""
    out.mkdir(parents=True)
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                    workload, "--seed", str(seed), "--seconds", "0.001",
                    "--trace", "1", "--out", str(out)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                   timeout=600)
    (record,) = out.glob("*.json")
    return json.loads(record.read_text())["counts"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    ok = True
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        for name in args.workload or sorted(WORKLOADS):
            first = traced_counts(name, args.seed, Path(tmp) / f"{name}-a")
            second = traced_counts(name, args.seed, Path(tmp) / f"{name}-b")
            diff = {k: (first.get(k), second.get(k))
                    for k in sorted(set(first) | set(second))
                    if first.get(k) != second.get(k)}
            ok &= not diff
            print(f"{name} seed={args.seed}: "
                  + ("identical counts " + json.dumps(first) if not diff
                     else "DIFFERENT counts " + json.dumps(diff)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
