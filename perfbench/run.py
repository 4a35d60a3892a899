"""sexticsym benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from the
checkout's src/ and from nowhere else.  Each run spawns a fresh
single-threaded child process (child.py) that calls sexticsym.cli.main
in-process, pass after pass, until S seconds are used (at least one pass).

Workloads (why each exists is in BENCHMARK.json):
  classify-all   `classify --all` once; 9A2 dominates it.
  classify-sets  `classify --set X` for the 33 catalog sets other than 9A2,
                 one sweep per pass: the first in catalog order, each
                 later one in a new seeded order.
  trigonal       `dessins --table1`, `dessins --k K --max-unstable M` for
                 (1, 0), (1, 1), (1, 2) and (2, 3), and `curve FILE` over a
                 seeded corpus of 24 transformed curves.

classify-all takes 100-130 s per run on a 2-core VM, so the other two are
kept to a few seconds a run to keep many repeated runs affordable: `verify`
and the k=2 calls with M < 3 are left out of trigonal, since they repeat the
work of `dessins --table1` and (2, 3).

End-to-end metrics (--trace 0); both times are scaled to a fixed reference
CPU speed by probe.py, and the raw times are kept in the record:
  wall_s       seconds from a pass's first CLI call to its last return
               (checks excluded); the median over the passes after the
               first, which pays lazy imports, or the first if it is the
               only one (classify-all, trigonal)
  setup_s      median over SETUP_SAMPLES + 1 spawns of the seconds from
               spawning a child until sexticsym.cli is imported and ready
  peak_rss_mb  peak RSS of the run's child through its first pass
               (getrusage); later passes only grow caches it filled
The failed share of operations is `failed / attempted` of the result line.

Per-layer metrics (--trace 1) come from a separate traced run whose wrappers
(tracing.py) time the calls into each module's public functions; values are
per pass, and their seconds are raw (compare them with the record's
raw_pass_s).  traced.wall_s is that run's own scaled wall_s, so the tracing
overhead is its difference from wall_s.

The last stdout line is the result JSON.  Each run's full record (platform,
versions, seed, every sample, failures) goes to
.bench_build/perfbench/results/.  Without src/sexticsym the command exits 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 2  # extra spawns that only import the CLI
DEADLINE_S = 175.0  # a run ends well inside the 180 s limit or fails
WORK_DIR = os.path.join(".bench_build", "perfbench")


def _git_sha(root: str) -> str:
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def _versions() -> dict:
    out = {"python": platform.python_version()}
    for pkg in ("numpy", "sympy"):
        try:
            out[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            out[pkg] = None
    return out


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "SEXTIC_THREADS"):
        env[var] = "1"
    return env


class ChildFailed(RuntimeError):
    pass


def _spawn(root: str, argv, deadline: float):
    """Start a child; returns (process, seconds until it printed ready)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--root", root] + argv
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=_child_env(root), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    raw = perf_counter() - t0
    word, *probe = line.split() or [""]
    if word != "ready":
        _finish(proc, deadline)
        raise ChildFailed(f"child did not start: {line.strip()!r}")
    busy, speed = (float(x) for x in probe)
    return proc, (raw - busy) * speed, raw


def _finish(proc, deadline: float) -> str:
    """Wait for the child; returns its remaining stdout."""
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed("child ran past the deadline and was killed")
    if proc.returncode != 0:
        raise ChildFailed(f"child exited with {proc.returncode}: {err.strip()[-2000:]}")
    return out


def measure(root: str, args, deadline: float) -> dict:
    setup, raw_setup = [], []
    for _ in range(SETUP_SAMPLES):
        proc, ready, raw = _spawn(root, ["--ready-only"], deadline)
        _finish(proc, deadline)
        setup.append(ready)
        raw_setup.append(raw)

    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    work = os.path.join(root, WORK_DIR)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.workload == "trigonal":
        n = workloads.TINY_CURVES if args.tiny else workloads.CURVES_PER_PASS
        exp = workloads.load_expected()
        corpus = workloads.make_corpus(
            args.seed, n, os.path.join(WORK_DIR, f"corpus-seed{args.seed}"), exp)
        corpus_file = os.path.join(work, f"corpus-seed{args.seed}.json")
        with open(corpus_file, "w") as fh:
            json.dump(corpus, fh)
        argv += ["--corpus", corpus_file]
    if args.trace:
        os.makedirs(os.path.join(work, "spans"), exist_ok=True)
        argv += ["--spans", os.path.join(work, "spans", tag + ".tsv")]
    if args.tiny:
        argv.append("--tiny")
    if args.wrong_expected:
        argv.append("--wrong-expected")

    proc, ready, raw = _spawn(root, argv, deadline)
    setup.append(ready)
    raw_setup.append(raw)
    lines = _finish(proc, deadline).strip().splitlines()
    if not lines:
        raise ChildFailed("child printed no result")
    rec = json.loads(lines[-1])
    rec["setup_s"] = statistics.median(setup)
    rec["setup_samples"] = setup
    rec["raw_setup_samples"] = raw_setup
    rec["tag"] = tag
    return rec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="two sets or two curves, for the smoke test")
    ap.add_argument("--wrong-expected", action="store_true",
                    help="check against planted wrong values, for the smoke test")
    args = ap.parse_args()

    root = os.getcwd()
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(root, "src", "sexticsym", "cli.py")):
        print("perfbench: run from a sexticsym checkout (src/sexticsym/cli.py not found)",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, WORK_DIR, "results"), exist_ok=True)
    try:
        rec = measure(root, args, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    expect_wrappers = rec["wrappers_installed"] > 0 if args.trace else rec["wrappers_installed"] == 0
    if not expect_wrappers:
        rec["failures"].append(f"{rec['wrappers_installed']} tracer wrappers installed")
    correct = rec["failed"] == 0 and expect_wrappers
    rec.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(root),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "versions": _versions(),
        "failed_frac": rec["failed"] / rec["attempted"],
    })
    path = os.path.join(root, WORK_DIR, "results", rec["tag"] + ".json")
    with open(path, "w") as fh:
        json.dump(rec, fh, indent=1)

    if args.trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in rec["layers"].items()}
        metrics["traced.wall_s"] = {"value": rec["wall_s"], "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": rec["wall_s"], "unit": "s"},
            "setup_s": {"value": rec["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
        }
    print(f"perfbench: {args.workload} seed={args.seed} passes={len(rec['pass_s'])} "
          f"attempted={rec['attempted']} failed={rec['failed']} "
          f"failed_frac={rec['failed_frac']} record={os.path.relpath(path, root)}")
    for msg in rec["failures"]:
        print(f"perfbench: FAILED {msg}")
    print(json.dumps({"correct": correct, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith("bytes_out"):
        return "bytes"
    if name.endswith(("_per_subspace", "_per_canonical_form", "_per_curve")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
