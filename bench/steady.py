"""Steadiness of the benchmark: run each workload N times with seeds
FIRST..FIRST+N-1 and print, per end-to-end metric, the median, the
quartiles, the quartile spread as a share of the median, and how much
worse the worst run is than the best, each against the metric's bound in
BENCHMARK.json.

    python3 bench/steady.py --runs 10 [--first-seed 1] [--workloads a,b]
                            [--seconds S] [--json bench/out/steady.json]

A metric is steady when its spread stays below a third of its bound
(setup_s included, though its spread is not what a change is held to).
Runs are sequential; each is one `bench/run.py` process.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_once(workload, seed, seconds):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    start = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit("%s seed %d failed:\n%s" % (workload, seed, proc.stderr))
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["wall_s"] = wall
    return report


def summarize(values, better, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    worst, best = (max(values), min(values)) if better == "lower" else (min(values), max(values))
    worse = worst / best - 1.0 if better == "lower" else 1.0 - worst / best
    return {
        "median": med, "q1": q1, "q3": q3, "spread": spread,
        "worst_vs_best": worse, "bound": bound, "steady": spread < bound / 3.0,
    }


def main(argv=None):
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--json", default=None, help="also write the raw reports and summary here")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    out = {"runs": args.runs, "first_seed": args.first_seed, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        reports = [run_once(workload, args.first_seed + k, args.seconds) for k in range(args.runs)]
        shares = {r["failed"] / r["attempted"] for r in reports}
        print("## %s  (%d runs, seeds %d..%d, %d s each, run wall %.0f-%.0f s, correct: %s, failed share: %s)" % (
            workload, args.runs, args.first_seed, args.first_seed + args.runs - 1, args.seconds,
            min(r["wall_s"] for r in reports), max(r["wall_s"] for r in reports),
            all(r["correct"] for r in reports), sorted(shares),
        ))
        print("| metric | unit | median | q1 | q3 | spread | worst vs best | bound | spread < bound/3 |")
        print("|---|---|---|---|---|---|---|---|---|")
        summary = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in reports]
            s = summarize(values, metric["better"], metric["bound"])
            summary[name] = s
            print("| %s | %s | %.4g | %.4g | %.4g | %.1f%% | %.1f%% | %.0f%% | %s |" % (
                name, metric["unit"], s["median"], s["q1"], s["q3"], 100 * s["spread"],
                100 * s["worst_vs_best"], 100 * s["bound"], "yes" if s["steady"] else "NO",
            ))
        print()
        out["workloads"][workload] = {"summary": summary, "reports": reports}
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(out, handle, indent=1)


if __name__ == "__main__":
    main()
