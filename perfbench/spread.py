#!/usr/bin/env python3
"""Checks that the benchmark is steady enough for its own bounds.

Runs the benchmark once per seed on each workload, then prints, per
end-to-end metric, the median and the spread: the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share
of the median. A spread at or above the metric's bound in
BENCHMARK.json is flagged, and so is one at or above a third of it. With
--held-out, a second set of seeds is run; its spread is checked the
same way, and its median is compared with the first set's: a shift
beyond the bound in the worse direction is flagged.

    python3 perfbench/spread.py --workloads replay,cluster-small --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --held-out 101-110

Run it from the root of a checkout. Raw results are kept in
.bench_build/spread.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, stdout=subprocess.PIPE, check=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--held-out", default="")
    ap.add_argument("--seconds", type=int, default=0)
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    seconds = a.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    sets = [seed_range(a.seeds)] + ([seed_range(a.held_out)] if a.held_out else [])
    raw, bad = {}, 0
    for w in workloads:
        runs = [[run(bench["command"], w, s, seconds) for s in seeds] for seeds in sets]
        raw[w] = runs
        for m in metrics:
            name, bound = m["name"], m["bound"]
            med, sp = spread([r[name] for r in runs[0]])
            flag = ""
            if sp >= bound:
                flag, bad = " SPREAD>=BOUND", bad + 1
            elif sp >= bound / 3:
                flag = " spread>=bound/3"
            line = f"{w:15s} {name:18s} median {med:14.6g}  spread {sp:6.3f}  bound {bound:.2f}{flag}"
            if len(runs) > 1:
                med2, sp2 = spread([r[name] for r in runs[1]])
                worse = (med2 - med) / med if m["better"] == "lower" else (med - med2) / med
                line += f"  held-out median {med2:14.6g} spread {sp2:6.3f} ({worse:+.3f} worse)"
                if sp2 >= bound:
                    line, bad = line + " HELD-OUT SPREAD>=BOUND", bad + 1
                if worse > bound:
                    line, bad = line + " SHIFT>BOUND", bad + 1
            print(line, flush=True)
    with open(".bench_build/spread.json", "w") as f:
        json.dump(raw, f)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
