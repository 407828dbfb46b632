#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --workloads ingest --runs 10 --sets 2

Runs every workload (by default those in BENCHMARK.json) --runs times per
set, each run with another seed, and prints for each end-to-end metric its
median, quartiles and spread: the distance between the first and third
quartile as a share of the median, quartiles as
statistics.quantiles(values, n=4) gives them. A metric whose spread exceeds
its bound in BENCHMARK.json is flagged FAIL, one above a third of its bound
warn. With --sets 2 the second set, run on fresh seeds, is compared with
the first: a median that is worse by more than the bound is flagged FAIL. A failed or incorrect run is FAIL.
Exits 1 if anything is flagged FAIL. Every run's result is kept in
.bench_build/steady.json. A workload that cannot be made steady
is to be dropped from BENCHMARK.json and recorded as dropped, not given a
looser bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None, p.stderr.strip().splitlines()[-1:] or ["exit %d" % p.returncode]
    return json.loads(lines[-1]), []


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None, help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds in BENCHMARK.json")
    args = ap.parse_args()

    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    failed = False
    runs = []
    seed = 1
    for w in workloads:
        sets = []
        for s in range(args.sets):
            values = {}
            for _ in range(args.runs):
                res, err = run_once(w, seed, seconds)
                if res is None or not res["correct"] or res["failed"]:
                    print("FAIL %s seed %d: %s" % (w, seed, err or "incorrect or failed operations"))
                    failed = True
                else:
                    runs.append({"workload": w, "set": s + 1, "seed": seed, "result": res})
                    for name, m in res["metrics"].items():
                        values.setdefault(name, []).append(m["value"])
                print("  %s set %d seed %d done" % (w, s + 1, seed), file=sys.stderr)
                seed += 1
            sets.append(values)
        print("\n%s: %d runs per set, %g s each" % (w, args.runs, seconds))
        print("%-34s %4s %14s %14s %14s %8s %6s  %s" % ("metric", "set", "median", "q1", "q3", "spread", "bound", "flag"))
        for name, m in metrics.items():
            meds = []
            for s, values in enumerate(sets):
                v = values.get(name)
                if not v:
                    print("%-34s %4d %14s" % (name, s + 1, "missing"))
                    failed = True
                    continue
                med, q1, q3, spread = summarize(v)
                meds.append(med)
                bound = m["bound"]
                flag = ""
                if spread > bound:
                    flag, failed = "FAIL spread", True
                elif spread > bound / 3:
                    flag = "warn spread"
                if s == 1 and len(meds) == 2:
                    worse = (meds[1] - meds[0]) / meds[0] if m["better"] == "lower" else (meds[0] - meds[1]) / meds[0]
                    if worse > bound:
                        flag, failed = (flag + " FAIL drift %.3f" % worse).strip(), True
                    else:
                        flag = (flag + " drift %.3f" % worse).strip()
                print("%-34s %4d %14.6g %14.6g %14.6g %8.4f %6s  %s" % (
                    name, s + 1, med, q1, q3, spread, bound, flag))
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "steady.json"), "w") as f:
        json.dump(runs, f)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
