#!/usr/bin/env python3
"""Run the benchmark over workloads and seeds and print every metric.

    python3 perfbench/report.py                      # all workloads, seed 1, both modes
    python3 perfbench/report.py --seeds 1-10 --trace 0

Run it from the repository root. It reads the command, workloads, run
length and metric bounds from BENCHMARK.json, runs the command once per
(workload, seed, trace mode), and prints one row per metric: the median over
the seeds, the first and third quartiles (Python's
``statistics.quantiles(values, n=4)``) and their distance as a share of the
median. Each end-to-end metric except ``setup_s`` is marked ``ok`` when that
spread is below a third of the metric's bound, ``WIDE`` when it is within
the bound, and ``OVER`` when it exceeds it. The script exits non-zero when
any run fails, reports ``correct: false``, or misses a metric.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result.get("correct"):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {workload} seed {seed} trace {trace} "
                         f"(exit {proc.returncode})")
    return result


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--trace", choices=["0", "1", "both"], default="both")
    opts = parser.parse_args()

    command = bench["command"]
    modes = [0, 1] if opts.trace == "both" else [int(opts.trace)]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    expected = {0: [m["name"] for m in bench["end_to_end"]],
                1: [m["name"] for m in bench["per_layer"]]}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in modes:
            results = []
            for seed in parse_seeds(opts.seeds):
                r = run_once(command, workload, seed, bench["run_seconds"], trace)
                missing = set(expected[trace]) - set(r["metrics"])
                if missing:
                    raise SystemExit(f"{workload} trace {trace} lacks {sorted(missing)}")
                results.append(r)
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            print(f"\n{workload}  trace {trace}  runs {len(results)}  "
                  f"queries {attempted}  failed_frac {failed / attempted:.4f}")
            print(f"  {'metric':<42} {'unit':>6} {'median':>14} {'q1':>14} "
                  f"{'q3':>14} {'spread':>8} {'bound':>6}")
            for name in expected[trace]:
                values = [r["metrics"][name]["value"] for r in results]
                unit = results[0]["metrics"][name]["unit"]
                med, q1, q3, s = spread(values)
                bound = bounds.get(name)
                mark = ""
                if bound is not None and name != "setup_s":
                    mark = "ok" if s < bound / 3 else "WIDE" if s <= bound else "OVER"
                print(f"  {name:<42} {unit:>6} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} "
                      f"{s:>8.4f} {bound if bound is not None else '':>6} {mark}")


if __name__ == "__main__":
    main()
