"""Steadiness check and baseline recorder.

    python3 perfbench/prove.py [--runs 10] [--first-seed 1] [--workloads a,b]
                               [--baseline perfbench/baseline.json]

Runs the benchmark command of BENCHMARK.json --runs times per workload,
untraced and each time with another seed, then once traced, and prints for
every end-to-end metric its median and quartile spread (the distance
between the first and third quartile, as a share of the median) next to
the metric's bound.  With --baseline it writes every result line, the
medians and spreads, and the tracing overhead to that file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import _git_sha, _versions  # noqa: E402


def _run(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                  "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--baseline")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"git_sha": _git_sha(os.getcwd()), "nproc": os.cpu_count(),
           "versions": _versions(), "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        runs = []
        for seed in seeds:
            res = _run(bench["command"], workload, seed, bench["run_seconds"], 0)
            runs.append(res)
            print(workload, seed, res["correct"], res["failed"],
                  {k: round(v["value"], 4) for k, v in res["metrics"].items()}, flush=True)
        summary = {}
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med, "bound": bound}
            print(f"{workload:14s} {name:12s} median {med:.4f}  spread {(q3 - q1) / med:.4f}"
                  f"  bound {bound}  {'ok' if (q3 - q1) / med < bound / 3 else 'WIDE'}",
                  flush=True)
        traced = _run(bench["command"], workload, seeds[-1], bench["run_seconds"], 1)
        tw = traced["metrics"]["traced.wall_s"]["value"]
        overhead = tw / summary["wall_s"]["median"] - 1
        print(f"{workload:14s} traced wall_s {tw:.4f}  overhead vs median {overhead:+.3f}",
              flush=True)
        out["workloads"][workload] = {
            "seeds": seeds, "runs": runs, "summary": summary,
            "all_correct": all(r["correct"] for r in runs),
            "traced": traced, "trace_overhead": overhead,
        }
    if args.baseline:
        with open(args.baseline, "w") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
