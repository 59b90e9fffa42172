#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve-mix --seeds 1-5 [--seconds 20] [--trace 0]

For every metric it prints the values, their median and the interquartile
range as a share of the median (statistics.quantiles, n=4). With --trace 0
each spread is compared with the metric's bound in BENCHMARK.json: "ok" is
below a third of the bound, "WIDE" is over the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for s in seeds(a.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", a.workload,
               "--seed", str(s), "--seconds", str(seconds), "--trace", a.trace]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {s}: exit {out.returncode}\n{out.stderr}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {s}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, v in values.items():
        med = statistics.median(v)
        line = f"{name:28s} median {med:14.6g}"
        if len(v) >= 2 and med:
            q = statistics.quantiles(v, n=4)
            sp = (q[2] - q[0]) / abs(med)
            line += f"  spread {sp:7.4f}"
            if name in bounds:
                b = bounds[name]
                line += f"  bound {b:5.3f} " + ("ok" if sp < b / 3 else "WIDE" if sp > b else "near")
        print(line + "  " + " ".join(f"{x:.6g}" for x in v))


if __name__ == "__main__":
    main()
