#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's median and
spread (the distance between the first and third quartiles as a share of the
median), the figures the benchmark's bounds are checked against.

    python3 stackbench/spread.py --workload serve-exec --seeds 1-10 [--trace 0]

Run it from the root of the repository. Each run's result line, with the run's
last `stackbench:` line from standard error, is appended to
stackbench/out/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs(os.path.join(ROOT, "stackbench", "out"), exist_ok=True)
    log = os.path.join(ROOT, "stackbench", "out", f"spread-{args.workload}.jsonl")
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
        result = json.loads(lines[-1])
        notes = [l for l in run.stderr.splitlines() if l.startswith("stackbench: ")]
        with open(log, "a") as f:
            f.write(json.dumps({"seed": seed, **result, "note": notes[-1:]}) + "\n")
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
              flush=True)
    print(f"{'metric':<28} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, v in values.items():
        med = statistics.median(v)
        if len(v) >= 2:
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else "  <-- above a third of the bound"
        print(f"{name:<28} {med:>12.5g} {spread:>8.3f} {bound if bound is not None else '':>6}{flag}")


if __name__ == "__main__":
    main()
