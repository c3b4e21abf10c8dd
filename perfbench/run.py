"""Benchmark of semibasis: certified transitions and Hall products.

    python3 perfbench/run.py --workload flag-deep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  Each op runs in a fresh
interpreter started from this process, one at a time, so the
process-global memos start cold as they do for a user of the CLI.  A run
repeats whole rounds of its workload's ops until --seconds of wall time
have passed, checks every op's output against the references in
refs.py, and prints one JSON line: the end-to-end metrics with --trace
0, and with --trace 1 the per-layer metrics of layers.py, from rounds
run alternately without and with the layer wrappers.  Details per op go
to perfbench/out/.  See perfbench/README.md.

The end-to-end times are scaled to a reference machine speed by the
probe of calib.py, timed in each op's interpreter; the unscaled figures
are kept in the output file.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import calib
import layers
import refs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
OP_TIMEOUT_S = 90
SERRE_BOUND = 6
HALL_CASES = 6  # sampled (d, i, a) Hall checks per Serre op and round


def transition(n: int, d: tuple[int, ...]) -> dict:
    return {"name": f"n{n}:" + ",".join(map(str, d)), "kind": "transition", "n": n, "dim": d}


def serre(n: int) -> dict:
    return {"name": f"serre-n{n}", "kind": "serre", "n": n, "bound": SERRE_BOUND}


WORKLOADS = {
    "flag-deep": [
        transition(2, (3, 3)),
        transition(2, (2, 6)),
        transition(3, (2, 3, 1)),
        transition(3, (1, 3, 2)),
    ],
    "broad-small": [
        transition(2, (2, 2)),
        transition(4, (1, 1, 1, 1)),
        transition(4, (1, 2, 1, 1)),
        transition(4, (1, 2, 2, 1)),
        transition(5, (1, 1, 1, 1, 1)),
        transition(6, (1, 1, 1, 1, 1, 1)),
    ],
    "hall-serre": [serre(2), serre(3), serre(4)],
}

# Every op runs at the CLI's default root seed.  The workload seed orders
# the ops of each round and draws the sampled Hall checks.
ROOT_SEED = 0


def hall_cases(n: int, rng: random.Random) -> list[dict]:
    cases = []
    while len(cases) < HALL_CASES:
        d = tuple(rng.randint(0, 2) for _ in range(n))
        if not 1 <= sum(d) <= 4:
            continue
        sources = [refs.format_multisegment(m) for m in refs.multisegments(d)]
        cases.append({"d": d, "i": rng.randint(1, n), "a": rng.randint(1, 2), "sources": sources})
    return cases


def request(op: dict, rng: random.Random, trace: bool) -> dict:
    if op["kind"] == "transition":
        argv = ["transition", "--n", str(op["n"]), "--dim", ",".join(map(str, op["dim"])),
                "--seed", str(ROOT_SEED), "--format", "json"]
        return {"kind": "transition", "argv": argv, "trace": trace}
    return {"kind": "serre", "n": op["n"], "bound": op["bound"],
            "cases": hall_cases(op["n"], rng), "trace": trace}


def check(op: dict, req: dict, res: dict) -> list[str]:
    if op["kind"] == "transition":
        try:
            payload = json.loads(res["stdout"])
        except ValueError as exc:
            return [f"unreadable JSON output: {exc}"]
        return refs.check_transition(payload, op["n"], op["dim"])
    problems = refs.check_serre(res["report"], op["n"], op["bound"])
    for case, sums in zip(req["cases"], res["sums"]):
        problems += refs.check_simple_top_sums(op["n"], tuple(case["d"]), case["i"], case["a"], sums)
    return problems


def spawn(req: dict, env: dict) -> tuple[float, dict | None, str]:
    """Start one interpreter of op.py, wait for it to end, and return its
    start time, its result line (None if it gave none) and why not."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "op.py")], cwd=ROOT, env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        stdout, stderr = proc.communicate(json.dumps(req), timeout=OP_TIMEOUT_S)
    except BaseException as exc:
        proc.kill()
        proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        return spawned, None, f"timed out after {OP_TIMEOUT_S} s"
    try:
        return spawned, json.loads(stdout.strip().splitlines()[-1]), ""
    except (IndexError, ValueError):
        return spawned, None, f"no result, exit {proc.returncode}: {stderr.strip()[-300:]}"


def run_op(op: dict, req: dict, env: dict) -> dict:
    spawned, res, why = spawn(req, env)
    if res is None:
        # no probe to scale by: the raw time stands in
        op_s = time.monotonic() - spawned
        return {"op": op["name"], "ok": False, "wrong": False,
                "op_s": op_s, "ref_op_s": op_s, "reason": why}
    rec = {"op": op["name"], "setup_s": res["ready"] - spawned, "op_s": res["op_s"],
           "rss_mb": res["max_rss_kb"] / 1024, "trace": res.get("trace")}
    if "probe_s" in res:
        rec.update(setup_probe_s=res["setup_probe_s"], probe_s=res["probe_s"])
        rec["ref_setup_s"] = rec["setup_s"] * calib.speed(res["setup_probe_s"])
        # an op shorter than the probe interval is scaled by the set-up probes
        rec["ref_op_s"] = rec["op_s"] * calib.speed(res["probe_s"] or res["setup_probe_s"])
    if res["rc"] != 0:
        error = res.get("stderr", "").strip().splitlines()
        return rec | {"ok": False, "wrong": False,
                      "reason": f"exit {res['rc']}: {error[-1] if error else ''}"[:300]}
    problems = check(op, req, res)
    return rec | {"ok": not problems, "wrong": bool(problems), "reason": "; ".join(problems[:3])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    src = ROOT / "src"
    if not (src / "semibasis" / "cli.py").is_file():
        print(f"error: no semibasis sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + [p for p in [env.get("PYTHONPATH")] if p])

    ops = WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}/{args.seed}")
    records: list[dict] = []
    traced_rounds: list[dict] = []
    started = time.monotonic()
    rnd = 0
    while rnd == 0 or time.monotonic() - started < args.seconds:
        modes = (False, True) if args.trace else (False,)
        round_s = {}
        for traced in modes:
            order = rng.sample(ops, len(ops))
            done = []
            for op in order:
                req = request(op, rng, traced)
                rec = run_op(op, req, env) | {"round": rnd, "traced": traced}
                done.append(rec)
                if not rec["ok"]:
                    print(f"round {rnd} {op['name']}: FAILED {rec['reason']}", file=sys.stderr)
            records += done
            round_s[traced] = sum(r["op_s"] for r in done)
            if traced:
                traced_rounds.append(layers.round_layers(
                    [r["trace"] | {"op_s": r["op_s"]} for r in done if r.get("trace")],
                    round_s[True] - round_s[False]))
        rnd += 1
    wall = time.monotonic() - started
    if not any("setup_s" in r for r in records):
        print("error: no op interpreter imported semibasis", file=sys.stderr)
        return 1

    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    correct = not any(r["wrong"] for r in records)
    untraced = [r for r in records if not r["traced"]]
    passed = sum(r["ok"] for r in untraced)
    unscaled = {
        "ops_per_s": passed / sum(r["op_s"] for r in untraced),
        "setup_s": median(r["setup_s"] for r in untraced if "setup_s" in r),
    }
    if args.trace:
        values = layers.median_layers(traced_rounds)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in layers.PER_LAYER}
    else:
        metrics = {
            "ops_per_s": {"value": passed / sum(r["ref_op_s"] for r in records), "unit": "op/s"},
            "setup_s": {"value": median(r["ref_setup_s"] for r in records if "ref_setup_s" in r),
                        "unit": "s"},
            "peak_rss_mb": {"value": max(r.get("rss_mb", 0.0) for r in records), "unit": "MB"},
        }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = [r.pop("trace", None) for r in records]
    if args.trace:
        absent = sorted({name for trace in spans if trace for name in trace["absent"]})
        if absent:
            print("absent: " + ", ".join(absent), file=sys.stderr)
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            for rec, trace in zip(records, spans):
                if trace:
                    fh.write(json.dumps({"round": rec["round"], "op": rec["op"]} | trace) + "\n")
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(summary | {"rounds": rnd, "wall_s": wall, "unscaled": unscaled, "ops": records},
                  fh, indent=1)
    print(f"{args.workload}: {rnd} rounds, {attempted} ops, {failed} failed, "
          f"{wall:.1f} s wall; unscaled: ops_per_s {unscaled['ops_per_s']:.4f}, "
          f"setup_s {unscaled['setup_s']:.4f}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
