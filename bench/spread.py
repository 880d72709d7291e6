"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the root of a checkout):

    python3 bench/spread.py [--out bench/baseline.json]

It runs each workload of BENCHMARK.json once per seed 1 to 10 with
--trace 0.  For each workload and end-to-end metric it prints the median of
the per-run values, the distance between their first and third quartile
(statistics.quantiles, n=4) as a share of the median, and that share against
the metric's bound from BENCHMARK.json.  With --out, the per-run values, medians and quartiles
are written to a file, together with the run provenance (commit, Python,
core count, load averages) that bench/run.py recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    result = json.loads(proc.stdout.splitlines()[-1])
    path = next(line.split(": ", 1)[1] for line in proc.stdout.splitlines()
                if line.startswith("results: "))
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        record = json.load(fh)
    return {"exit": proc.returncode, "result": result, "results_file": path,
            "provenance": {k: record[k] for k in (
                "commit", "src_sha256", "python", "nproc", "loadavg_before",
                "loadavg_after", "started")}}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report: dict = {"run_seconds": bench["run_seconds"], "seeds": SEEDS,
                    "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, s, bench["run_seconds"]) for s in SEEDS]
        failed = [r for r in runs if r["exit"] != 0 or not r["result"]["correct"]]
        ok = ok and not failed
        metrics = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            metrics[name] = summarize(values)
            m = metrics[name]
            flag = ""
            if name != "setup_s":
                flag = "ok" if m["spread"] < bound / 3 else (
                    "within bound" if m["spread"] <= bound else "TOO WIDE")
            print(f"{workload:12s} {name:38s} median {m['median']:12.6g} "
                  f"spread {m['spread']:7.2%} {flag}", flush=True)
        report["workloads"][workload] = {
            "failed_runs": len(failed), "metrics": metrics,
            "runs": [{"seed": s, **r} for s, r in zip(SEEDS, runs)]}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
