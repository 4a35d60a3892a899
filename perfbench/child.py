"""One benchmark run inside a fresh process: import the CLI, report ready,
run the workload's passes in-process through sexticsym.cli.main, check
every output, and print one JSON result line.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and every
numeric library limited to one thread.  With --ready-only it exits right
after the import, which is how run.py samples set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import sys
import traceback
from time import perf_counter

import tracing
import workloads
from probe import SpeedProbe

SETUP_PROBE_PERIOD_S = 0.02  # the import takes a few tenths of a second
RUN_PROBE_PERIOD_S = 0.05


def _import_cli(root: str):
    from sexticsym import cli

    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"sexticsym.cli was imported from {cli.__file__}, not from {src}")
    return cli


def _call(cli, argv):
    """Run one CLI call; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = -1
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def _passes(workload: str, seed: int, exp: dict, corpus, tiny: bool):
    """Yields the ops of each pass; the seed fixes every input."""
    rng = random.Random(f"perfbench-{workload}-{seed}")
    sets = workloads.small_sets(exp)
    if tiny:
        sets = rng.sample(sets, workloads.TINY_SETS)
    first = True
    while True:
        if workload == "classify-all":
            yield workloads.classify_all_pass(exp)
        elif workload == "classify-sets":
            yield workloads.classify_sets_pass(exp, sets, None if first else rng)
        else:
            yield workloads.trigonal_pass(exp, corpus, tiny)
        first = False


def _layer_metrics(tracer, passes: int, curve_ops: int, curve_fiber_calls: int) -> dict:
    """Per-layer metrics of the traced run, each per pass."""
    calls, secs, selfs, cnt = tracer.calls, tracer.seconds, tracer.self_seconds, tracer.counters

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "cli.main.self_s": selfs["cli.main"],
        "catalog.families.s": secs["catalog.families"],
        "catalog.families.calls": calls["catalog.families"],
        "rootsystems.graph_symmetries.s": secs["rootsystems.graph_symmetries"],
        "rootsystems.graph_symmetries.calls": calls["rootsystems.graph_symmetries"],
        "rootsystems.graph_discr.s": secs["rootsystems.graph_discr"],
        "rootsystems.graph_discr.calls": calls["rootsystems.graph_discr"],
        "rootsystems.discr_action.s": secs["rootsystems.discr_action"],
        "rootsystems.discr_action.calls": calls["rootsystems.discr_action"],
        "discrforms.isotropic_subspaces.self_s": selfs["discrforms.isotropic_subspaces"],
        "discrforms.isotropic_subspaces.calls": calls["discrforms.isotropic_subspaces"],
        "discrforms.subspaces_out": cnt["discrforms.subspaces_out"],
        "discrforms.subspaces_bytes_out": cnt["discrforms.subspaces_bytes_out"],
        "discrforms.torsion_space.s": secs["discrforms.torsion_space"],
        "discrforms.discriminant_form.s": secs["discrforms.discriminant_form"],
        "discrforms.discriminant_form.calls": calls["discrforms.discriminant_form"],
        "stability.classify_family.s": secs["stability.classify_family"],
        "stability.admissible_kernels.self_s": selfs["stability.admissible_kernels"],
        "stability.kernel_orbits_out": cnt["stability.kernel_orbits_out"],
        "stability.kernel_orbit_size_total": cnt["stability.kernel_orbit_size_total"],
        "stability.sym_stable.s": secs["stability.sym_stable"],
        "stability.sym_stable.calls": calls["stability.sym_stable"],
        "stability.stable_elements_out": cnt["stability.stable_elements_out"],
        "stability.configuration.s": secs["stability.configuration"],
        "stability.identify_group.s": secs["stability.identify_group"],
        "dessins.enumerate_skeletons.s": secs["dessins.enumerate_skeletons"],
        "dessins.enumerate_skeletons.calls": calls["dessins.enumerate_skeletons"],
        "dessins.skeletons_out": cnt["dessins.skeletons_out"],
        "dessins.canonical_form.s": secs["dessins.canonical_form"],
        "dessins.canonical_form.calls": calls["dessins.canonical_form"],
        "dessins.table1.s": secs["dessins.table1"],
        "dessins.table1.calls": calls["dessins.table1"],
        "dessins.component_count.s": secs["dessins.component_count"],
        "weierstrass.fiber_analysis.s": secs["weierstrass.fiber_analysis"],
        "weierstrass.fiber_analysis.calls": calls["weierstrass.fiber_analysis"],
        "weierstrass.j_invariant.calls": calls["weierstrass.j_invariant"],
        "weierstrass.is_maximal.s": secs["weierstrass.is_maximal"],
        "exactcore.poly_gcd.s": secs["exactcore.poly_gcd"],
        "exactcore.poly_gcd.calls": calls["exactcore.poly_gcd"],
        "exactcore.squarefree_partition.s": secs["exactcore.squarefree_partition"],
        "exactcore.squarefree_partition.calls": calls["exactcore.squarefree_partition"],
    }
    m = {k: v / passes for k, v in m.items()}
    # ratios of per-run totals, which need no per-pass scaling
    m["stability.orbits_per_subspace"] = ratio(
        cnt["stability.kernel_orbits_out"], cnt["discrforms.subspaces_out"])
    m["dessins.skeletons_per_canonical_form"] = ratio(
        cnt["dessins.skeletons_out"], calls["dessins.canonical_form"])
    m["weierstrass.fiber_analysis_per_curve"] = ratio(curve_fiber_calls, curve_ops)
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--ready-only", action="store_true")
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus", help="JSON list of the trigonal curve files")
    ap.add_argument("--spans", help="where a traced run writes its spans")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--wrong-expected", action="store_true")
    args = ap.parse_args()

    probe = SpeedProbe()
    probe.start(SETUP_PROBE_PERIOD_S)
    mark = probe.mark()
    cli = _import_cli(args.root)
    speed = probe.speed_since(mark)
    # run.py times spawn-to-ready and scales it with these two numbers
    print(f"ready {probe.busy!r} {speed!r}", flush=True)
    if args.ready_only:
        probe.stop()
        return 0
    probe.start(RUN_PROBE_PERIOD_S)

    exp = workloads.load_expected(wrong=args.wrong_expected)
    corpus = []
    if args.corpus:
        with open(args.corpus) as fh:
            corpus = json.load(fh)
    passes = _passes(args.workload, args.seed, exp, corpus, args.tiny)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(f"{args.workload}-{args.seed}")
        tracer.install()
    wrappers = tracing.installed_wrappers()

    raw_pass_s, op_s, failures = [], {}, []
    attempted = curve_ops = curve_fiber_calls = 0
    t_end = perf_counter() + args.seconds
    mark = probe.mark()
    while True:
        ops = next(passes)
        results = []
        busy_pass = probe.busy
        t_pass = perf_counter()
        for op in ops:
            fa0 = tracer.calls["weierstrass.fiber_analysis"] if tracer else 0
            busy0 = probe.busy
            t0 = perf_counter()
            rc, out, err = _call(cli, op.argv)
            op_s.setdefault(op.label, []).append(perf_counter() - t0 - (probe.busy - busy0))
            if tracer and op.label == "curve":
                curve_ops += 1
                curve_fiber_calls += tracer.calls["weierstrass.fiber_analysis"] - fa0
            results.append((op, rc, out, err))
        raw_pass_s.append(perf_counter() - t_pass - (probe.busy - busy_pass))
        for op, rc, out, err in results:
            attempted += op.units
            bad = op.check(rc, out)[: op.units]
            failures.extend(f"{op.label}: {msg} {err.strip()[-300:]}".rstrip() for msg in bad)
        if len(raw_pass_s) == 1:
            # later passes only grow caches the first one filled
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if perf_counter() >= t_end:
            break
    speed = probe.speed_since(mark)
    probe.stop()
    pass_s = [t * speed for t in raw_pass_s]

    record = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "wrappers_installed": wrappers,
        # the first pass also pays lazy imports and fills caches; it stays
        # in pass_s but counts toward wall_s only when it is the only one
        "wall_s": statistics.median(pass_s[1:] or pass_s),
        "pass_s": pass_s,
        "raw_pass_s": raw_pass_s,
        "speed": speed,
        "op_s": op_s,  # raw seconds per call
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        tracer.uninstall()
        record["layers"] = _layer_metrics(tracer, len(pass_s), curve_ops, curve_fiber_calls)
        record["spans"] = len(tracer.spans)
        record["counters_by_family"] = tracer.by_family
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
