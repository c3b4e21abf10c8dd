"""Repeat benchmark runs and print each metric's median and quartiles.

    python3 perfbench/repeat.py --workload flag-deep --seconds 25 --trace 0

Runs perfbench/run.py with seeds 1 to 10, one run at a time, and prints
per metric the median, the first and third quartiles as
statistics.quantiles(values, n=4) gives them, and their distance as a
share of the median.  The last line of each run is kept in
perfbench/out/repeat-<workload>-trace<t>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
RUNS = 10


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    (HERE / "out").mkdir(exist_ok=True)
    log = HERE / "out" / f"repeat-{args.workload}-trace{args.trace}.jsonl"
    results = []
    with open(log, "w") as fh:
        for seed in range(1, RUNS + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            line = proc.stdout.strip().splitlines()[-1]
            fh.write(json.dumps({"seed": seed} | json.loads(line)) + "\n")
            res = json.loads(line)
            results.append(res)
            print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"correct in every run: {all(r['correct'] for r in results)}; "
          f"failed shares seen: {sorted(shares)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = quantiles(values, n=4)
        spread = (q3 - q1) / q2 if q2 else 0.0
        print(f"{name:28s} median {median(values):.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"iqr/median {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
