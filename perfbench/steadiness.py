#!/usr/bin/env python3
"""Steadiness report: run each workload under several seeds and check spreads.

    python3 perfbench/steadiness.py                      # 10 seeds, every workload
    python3 perfbench/steadiness.py --workloads fuzz_campaign --runs 5
    python3 perfbench/steadiness.py --out a.json         # keep the raw results
    python3 perfbench/steadiness.py --compare a.json b.json

Run from the root of a source checkout. For every end-to-end metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the
quartile spread as a share of the median, next to the metric's bound in
BENCHMARK.json: a spread above a third of the bound is flagged "wide", one
above the bound "FAIL". It lists the deterministic numbers of every run and
flags any that differ between runs, and checks that every run was correct. --compare checks that the
second set's medians are not worse than the first's by more than each
metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited with %d" %
                           (workload, seed, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    det = {}
    for line in lines:
        if line.startswith("deterministic: "):
            det = json.loads(line[len("deterministic: "):])
    return {"seed": seed, "result": result, "deterministic": det}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def report(bench, runs_by_workload):
    ok = True
    for workload, runs in runs_by_workload.items():
        print("== %s (%d runs)" % (workload, len(runs)))
        bad = [r["seed"] for r in runs if not r["result"]["correct"]
               or r["result"]["failed"] != 0]
        if bad:
            ok = False
            print("  FAIL: incorrect runs for seeds %s" % bad)
        for m in bench["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            med, q1, q3, s = spread(vals)
            flag = "ok"
            if s > m["bound"]:
                flag, ok = "FAIL", False
            elif s > m["bound"] / 3:
                flag = "wide"
            print("  %-12s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f "
                  "bound %.2f %s" % (m["name"], med, q1, q3, s, m["bound"],
                                     flag))
        names = sorted({k for r in runs for k in r["deterministic"]})
        for name in names:
            vals = [r["deterministic"].get(name) for r in runs]
            same = all(v == vals[0] for v in vals)
            ok = ok and same
            print("  deterministic %-28s %s%s" % (
                name, vals[0] if same else vals,
                "" if same else "  DIFFERS"))
    return ok


def compare(bench, first, second):
    ok = True
    for workload in first:
        if workload not in second:
            continue
        for m in bench["end_to_end"]:
            a = statistics.median(r["result"]["metrics"][m["name"]]["value"]
                                  for r in first[workload])
            b = statistics.median(r["result"]["metrics"][m["name"]]["value"]
                                  for r in second[workload])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "FAIL" if worse > m["bound"] else "ok"
            ok = ok and flag == "ok"
            print("%-14s %-12s first %-12.6g second %-12.6g worse by %+.4f "
                  "(bound %.2f) %s" % (workload, m["name"], a, b, worse,
                                       m["bound"], flag))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out", help="write the raw results here")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    bench = load_benchmark()

    if args.compare:
        with open(args.compare[0]) as f, open(args.compare[1]) as g:
            return 0 if compare(bench, json.load(f), json.load(g)) else 1

    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    runs = {}
    for w in workloads:
        runs[w] = []
        for i in range(args.runs):
            r = run_once(w, args.seed_base + i, seconds)
            runs[w].append(r)
            print("%s seed %d: %s" % (w, r["seed"], json.dumps(
                {k: round(v["value"], 6)
                 for k, v in r["result"]["metrics"].items()})), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    return 0 if report(bench, runs) else 1


if __name__ == "__main__":
    sys.exit(main())
