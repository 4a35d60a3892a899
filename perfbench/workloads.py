"""The benchmark's workloads: the CLI calls each pass makes, the seeded
inputs they read, and the check applied to every call's output.

An operation is one CLI call, except `classify --all`, whose 34 family
verdicts count as 34 operations.  A check returns one message per failed
operation, so no failure is dropped.
"""

from __future__ import annotations

import copy
import json
import os
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
NAMES = ("classify-all", "classify-sets", "trigonal")
CURVES_PER_PASS = 24  # seeded corpus size of the trigonal workload
TINY_SETS = 2
TINY_CURVES = 2


def load_expected(wrong: bool = False) -> dict:
    """Expected outputs; wrong=True replaces each expected value by a wrong
    one, which the smoke test uses to prove that failures are counted."""
    with open(os.path.join(HERE, "expected.json")) as fh:
        exp = json.load(fh)
    if wrong:
        exp = copy.deepcopy(exp)
        for key in exp["expected_groups"]:
            exp["expected_groups"][key] = "Z7"
        for key in exp["skeleton_counts"]:
            exp["skeleton_counts"][key] += 1
        for c in exp["curves"].values():
            c["milnor"] += 1
        exp["table1"]["rows"] += 1
    return exp


@dataclass(frozen=True)
class Op:
    label: str
    argv: List[str]
    units: int
    check: Callable[[int, str], List[str]]  # (exit code, stdout) -> failures


def _parse(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# classify


def _check_classify(sets: List[str], exp: dict):
    def check(rc: int, out: str) -> List[str]:
        rep = _parse(out)
        if rep is None:
            return [f"{s}: exit code {rc}, no report" for s in sets]
        bad = []
        for s in sets:
            want = exp["expected_groups"][s]
            labels = {r["group_label"] for r in rep["rows"] if r["singularities"] == s}
            if rep["verdicts"].get(s) != "matches":
                bad.append(f"{s}: verdict {rep['verdicts'].get(s)!r}")
            elif want not in labels:
                bad.append(f"{s}: no row with group {want}, got {sorted(map(str, labels))}")
        if rc != 0 and not bad:
            bad = [f"exit code {rc} although every verdict matches"]
        return bad

    return check


def classify_all_pass(exp: dict) -> List[Op]:
    sets = list(exp["expected_groups"])
    return [Op("classify --all", ["classify", "--all"], len(sets), _check_classify(sets, exp))]


def small_sets(exp: dict) -> List[str]:
    return [s for s in exp["expected_groups"] if s != "9A2"]


def classify_sets_pass(exp: dict, sets: List[str], rng: Optional[random.Random]) -> List[Op]:
    """One sweep over the sets: in catalog order without rng (the first,
    cold pass, whose peak RSS would otherwise depend on the order), else in
    a new seeded order, so that a run's median averages over orders."""
    order = rng.sample(sets, len(sets)) if rng else list(sets)
    return [Op(f"classify --set {s}", ["classify", "--set", s], 1, _check_classify([s], exp))
            for s in order]


# ---------------------------------------------------------------------------
# trigonal


def _check_table1(exp: dict):
    def check(rc: int, out: str) -> List[str]:
        rep = _parse(out)
        if rc != 0 or rep is None:
            return [f"exit code {rc}"]
        rows = rep["rows"]
        irr = sum(1 for r in rows if r["irreducible"])
        want = exp["table1"]
        if len(rows) != want["rows"] or irr != want["irreducible"]:
            return [f"{len(rows)} rows, {irr} irreducible; wanted {want['rows']}, {want['irreducible']}"]
        return []

    return check


def _check_skeletons(want: int):
    def check(rc: int, out: str) -> List[str]:
        rep = _parse(out)
        if rc != 0 or rep is None:
            return [f"exit code {rc}"]
        got = rep["verdicts"]["skeletons"]
        if got != want or len(rep["rows"]) != want:
            return [f"{got} skeletons, {len(rep['rows'])} rows; wanted {want}"]
        return []

    return check


def _check_curve(base: dict):
    def check(rc: int, out: str) -> List[str]:
        rep = _parse(out)
        if rc != 0 or rep is None:
            return [f"exit code {rc}"]
        fibers = Counter()
        for r in rep["rows"]:
            fibers[r["type"]] += r["points"]
        v = rep["verdicts"]
        got = (dict(fibers), v["milnor"], v["maximal"], v["stable"], v["isotrivial"])
        want = (base["fibers"], base["milnor"], base["maximal"], base["stable"], base["isotrivial"])
        return [] if got == want else [f"{rep['inputs']['file']}: got {got}, wanted {want}"]

    return check


def _compose_affine(coeffs: List[Fraction], a: Fraction, c: Fraction) -> List[Fraction]:
    """Coefficients of g(a*x + c), ascending, by Horner's rule."""
    out: List[Fraction] = []
    for coef in reversed(coeffs):
        nxt = [Fraction(0)] * (len(out) + 1)
        for i, v in enumerate(out):
            nxt[i] += c * v
            nxt[i + 1] += a * v
        nxt[0] += coef
        out = nxt
    return out


def _rational(rng: random.Random, bound: int, nonzero: bool) -> Fraction:
    while True:
        x = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if x or not nonzero:
            return x


def make_corpus(seed: int, n: int, outdir: str, exp: dict) -> List[dict]:
    """Write n curve files made from the frozen base curves by x -> a*x + c
    and y -> lam*y (g2/lam^2, g3/lam^3).  Both keep every fiber type, the
    Milnor number and the verdicts, so each output is checked against its
    base curve.  Returns [{"path", "base"}] in pass order."""
    rng = random.Random(f"perfbench-corpus-{seed}")
    labels = sorted(exp["curves"])
    os.makedirs(outdir, exist_ok=True)
    out = []
    for i in range(n):
        label = labels[i % len(labels)]
        base = exp["curves"][label]
        a = _rational(rng, 12, nonzero=True)
        c = _rational(rng, 12, nonzero=False)
        lam = _rational(rng, 6, nonzero=True)
        g2 = [v / lam ** 2 for v in _compose_affine([Fraction(x) for x in base["g2"]], a, c)]
        g3 = [v / lam ** 3 for v in _compose_affine([Fraction(x) for x in base["g3"]], a, c)]
        path = os.path.join(outdir, f"curve_{i:03d}.json")
        with open(path, "w") as fh:
            json.dump({"k": base["k"], "g2": [str(v) for v in g2], "g3": [str(v) for v in g3]}, fh)
        out.append({"path": path, "base": label})
    rng.shuffle(out)
    return out


def trigonal_pass(exp: dict, corpus: List[dict], tiny: bool) -> List[Op]:
    ops: List[Op] = []
    if not tiny:
        ops.append(Op("dessins --table1", ["dessins", "--table1"], 1, _check_table1(exp)))
    # k=1 with every M up to 2, which already lists all k=1 skeletons, and
    # k=2 only with M=3, which lists all 39: each k=2 call costs about as
    # much as table1, so the other k=2 values are left out.
    for key, want in exp["skeleton_counts"].items():
        k, m = key.split(",")
        if tiny and k != "1":
            continue
        ops.append(Op(f"dessins --k {k} --max-unstable {m}",
                      ["dessins", "--k", k, "--max-unstable", m], 1, _check_skeletons(want)))
    for item in corpus:
        ops.append(Op("curve", ["curve", item["path"]], 1, _check_curve(exp["curves"][item["base"]])))
    return ops
