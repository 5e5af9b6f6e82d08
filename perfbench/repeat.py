#!/usr/bin/env python3
"""Runs one workload N times, each with another seed, and prints every
end-to-end metric's median and quartiles.

Usage (from the repository root):

    python3 perfbench/repeat.py --workload <name> --runs 10 [--first-seed 1] [--seconds S]

Each run is `perfbench/run.py --trace 0` with seed first-seed + i.  The table
gives, per metric, the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)), and the spread: the distance between the
quartiles as a share of the median.  `steady` compares the spread with a
third of the metric's bound in BENCHMARK.json (setup_s is not judged: its
bound limits the median only).  The share of failed operations must be the
same in every run.  Each run's CPU steal share (see run.py) is printed
beside it, since a busy host is the usual cause of a wide spread.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds from BENCHMARK.json)")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {}
    shares = []
    steals = []
    for i in range(args.runs):
        seed = args.first_seed + i
        result = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        last = result.stdout.strip().splitlines()[-1] if result.stdout.strip() else ""
        if result.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: run failed (exit {result.returncode})")
            return 1
        out = json.loads(last)
        shares.append(out["failed"] / out["attempted"])
        steal = next((json.loads(line[len("fingerprint: "):]).get("cpu_steal_pct")
                      for line in result.stdout.splitlines() if line.startswith("fingerprint: ")),
                     None)
        if steal is not None:
            steals.append(steal)
        for name, metric in out["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        summary = " ".join(f"{n}={m['value']:.4g}" for n, m in out["metrics"].items())
        print(f"seed {seed}: attempted={out['attempted']} failed={out['failed']} "
              f"steal={steal}% {summary}", flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s"
          + (f", CPU steal {min(steals)}-{max(steals)}%" if steals else ""))
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
          f"{'bound':>6}  steady")
    all_steady = True
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name not in values:
            print(f"{name:<16} (not reported)")
            continue
        vals = values[name]
        q1, q2, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / q2 if q2 else float("inf")
        judged = name != "setup_s"
        steady = spread < metric["bound"] / 3 if judged else True
        all_steady &= steady
        print(f"{name:<16} {q2:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.2%} "
              f"{metric['bound']:>6.2f}  {'yes' if steady else 'NO'}"
              f"{'' if judged else ' (median only)'}")
    same_share = len(set(shares)) == 1
    print(f"failed share: {sorted(set(shares))} ({'same in every run' if same_share else 'DIFFERS'})")
    return 0 if all_steady and same_share else 1


if __name__ == "__main__":
    sys.exit(main())
