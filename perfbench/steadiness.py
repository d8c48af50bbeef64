#!/usr/bin/env python3
"""Run every workload in BENCHMARK.json several times, untraced, with
different seeds and print a steadiness record as Markdown: per
end-to-end metric, the median, the quartiles, their spread as a share of
the median, and the bound from BENCHMARK.json.

    python3 perfbench/steadiness.py --runs 10 --first-seed 101 \
        --raw perfbench/steadiness-runs.json > perfbench/STEADINESS.md

Run from the repository root. The quartiles are those of Python's
`statistics.quantiles(values, n=4)`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds):
    cmd = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--raw", help="also save every run's result line here")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    cores = len(os.sched_getaffinity(0))
    raw = {"runs": args.runs, "first_seed": args.first_seed, "cores": cores,
           "results": {}, "wall_s": {}}

    print("# Steadiness record\n")
    print(f"Produced by `python3 perfbench/steadiness.py --runs {args.runs} "
          f"--first-seed {args.first_seed}` with `--seconds {bench['run_seconds']}`, "
          f"on {cores} cores "
          f"(`os.sched_getaffinity`), seeds {seeds[0]}–{seeds[-1]}.")
    print("Spread is (q3 − q1) ÷ median over the runs.\n")
    for w in [w["name"] for w in bench["workloads"]]:
        results = []
        t = time.time()
        for s in seeds:
            results.append(run(w, s, bench["run_seconds"]))
            sys.stderr.write(f"{w} seed {s} done ({time.time() - t:.0f}s)\n")
        wall = time.time() - t
        raw["results"][w] = results
        raw["wall_s"][w] = wall
        ok = sum(r["correct"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"## `{w}`\n")
        print(f"{ok} of {len(results)} runs correct; {failed} of {attempted} "
              f"operations failed; {wall:.0f} s for all runs.\n")
        print("| metric | unit | median | q1 | q3 | spread | bound | min | max |")
        print("|---|---|---|---|---|---|---|---|---|")
        for m in metrics:
            v = [r["metrics"][m["name"]]["value"] for r in results
                 if m["name"] in r["metrics"]]
            if len(v) < 2:
                print(f"| `{m['name']}` | {m['unit']} | missing in {len(results) - len(v)} runs |"
                      " | | | | | |")
                continue
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = m["bound"]
            print(f"| `{m['name']}` | {m['unit']} | {med:.4g} | {q1:.4g} | {q3:.4g} "
                  f"| {spread:.3f} | {bound} | {min(v):.4g} | {max(v):.4g} |")
        print()
    if args.raw:
        with open(args.raw, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
