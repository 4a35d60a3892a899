"""Smoke test of the benchmark itself, on a tiny configuration (two sets,
two curves; classify-all is left out, it takes minutes).

    python3 perfbench/smoke.py

From the root of a checkout it checks that
  * untraced runs print exactly the end-to-end metrics of BENCHMARK.json,
    with their units, and install no tracer wrappers;
  * traced runs print exactly the per-layer metrics and do install them;
  * planted wrong expected values raise the failed share above 0;
  * in a directory holding only BENCHMARK.json and perfbench/, the command
    exits non-zero without printing a result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()


def _run(cwd, workload, trace, *extra):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        cmd = json.load(fh)["command"]
    argv = cmd + ["--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def _record(workload, trace):
    path = os.path.join(ROOT, ".bench_build", "perfbench", "results",
                        f"{workload}-seed7-trace{trace}.json")
    with open(path) as fh:
        return json.load(fh)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []

    def expect(cond, msg):
        if not cond:
            problems.append(msg)
        print(("ok    " if cond else "FAIL  ") + msg, flush=True)

    for workload in ("classify-sets", "trigonal"):
        res = _result(_run(ROOT, workload, 0, "--tiny"))
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(got == e2e, f"{workload}: untraced run prints every end-to-end metric")
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
               f"{workload}: tiny run is correct")
        expect(_record(workload, 0)["wrappers_installed"] == 0,
               f"{workload}: untraced run installs no wrappers")

        res = _result(_run(ROOT, workload, 1, "--tiny"))
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(got == layers, f"{workload}: traced run prints every per-layer metric")
        expect(_record(workload, 1)["wrappers_installed"] > 0,
               f"{workload}: traced run installs wrappers")

        res = _result(_run(ROOT, workload, 0, "--tiny", "--wrong-expected"))
        expect(not res["correct"] and res["failed"] / res["attempted"] > 0,
               f"{workload}: a wrong expected value raises the failed share")

    bare = os.path.join(ROOT, ".bench_build", "perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, "classify-sets", 0)
    printed = proc.stdout.strip().splitlines()
    expect(proc.returncode != 0 and not any(l.startswith("{") for l in printed),
           "without the program the command fails and prints no result")
    shutil.rmtree(bare)

    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
