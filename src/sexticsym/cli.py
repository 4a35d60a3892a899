"""Command-line interface: classification, skeleton enumeration, curve
analysis, and the verification suite.

Exit codes: 0 success, 1 verification mismatch, 2 input error; 0, with
the rest of the report dropped, when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Callable, List, Optional, Tuple

from . import catalog, dessins, stability, weierstrass
from .exactcore import RatPoly
from .rootsystems import parse_singularities, print_singularities


def _json(x, nl: str = "\n") -> str:
    """json.dumps(x, indent=2, sort_keys=True) for x of string keys, as
    every report is, nested where nl, a newline and the indent, starts its
    lines.  Python's encoder runs in pure Python when it indents; here
    strings go through its C string encoder and ints through int.__repr__,
    true, false and null are written out, floats and anything else go
    through json.dumps, and every tuple, NamedTuples included, is a list,
    as there."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if isinstance(x, int):
        return ("true" if x else "false") if isinstance(x, bool) else int.__repr__(x)
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = nl + "  "
        items = [encode_basestring_ascii(k) + ": " + _json(x[k], inner) for k in sorted(x)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in x]) + nl + "]"
    return "null" if x is None else json.dumps(x)


def _emit(command: str, inputs: dict, rows: List[dict], verdicts: dict, fmt: str) -> None:
    """Print a command's report: the schema-1 JSON object, or in markdown
    its rows as a table and then its verdicts."""
    if fmt == "json":
        report = {"command": command, "schema": 1, "inputs": inputs, "rows": rows, "verdicts": verdicts}
        print(_json(report))
        return
    print(f"## {command}")
    if rows:
        cols = list(rows[0].keys())
        print("| " + " | ".join(cols) + " |")
        print("|" + "|".join("---" for _ in cols) + "|")
        for r in rows:
            print("| " + " | ".join(_md(r[c]) for c in cols) + " |")
    for k, v in verdicts.items():
        print(f"- {k}: {_md(v)}")


def _md(x) -> str:
    """A markdown cell or verdict: a string bare, any other value as its
    JSON, so true, false, null and objects read as in the JSON report."""
    return x if isinstance(x, str) else json.dumps(x, sort_keys=True)


# ---------------------------------------------------------------------------
# classify


def _classify_rows(verdicts) -> List[dict]:
    rows = []
    for v in verdicts:
        for r in v.rows:
            rep = r.report
            rows.append({"singularities": v.singularities, "family": v.family_tag,
                         "kernel_orbit": [list(g) for g in r.kernel_orbit],
                         "orbit_size": r.orbit_size, "group_order": rep.order, "group_label": rep.label,
                         "kappa_order": rep.kappa_order, "kappa_faithful": rep.kappa_faithful,
                         "orbits": [list(o) for o in rep.orbit_partition],
                         "expected": v.expected_label, "matches_expected": r.matches_expected})
        if not v.rows:
            none = ("group_order", "group_label", "kappa_order", "kappa_faithful", "orbits")
            rows.append({"singularities": v.singularities, "family": v.family_tag,
                         "kernel_orbit": None, "orbit_size": 0, **dict.fromkeys(none),
                         "expected": v.expected_label, "matches_expected": False})
    return rows


def cmd_classify(args) -> int:
    fams = catalog.families()
    if args.set is not None:
        try:
            if not isinstance(args.set, str):  # argparse reads "--set=--" as []
                raise ValueError(f"not a singularity set: {args.set!r}")
            want = print_singularities(parse_singularities(args.set))
        except ValueError as exc:
            print(f"bad singularity set: {exc}", file=sys.stderr)
            return 2
        fams = [f for f in fams if f.essential == want]
        if not fams:
            print(f"unknown singularity set: {want}", file=sys.stderr)
            return 2
    verdicts = stability.classify_catalog(fams)
    _emit("classify", {"set": args.set or "all"}, _classify_rows(verdicts),
          {v.singularities: "matches" if v.matches_theorem else "MISMATCH" for v in verdicts}, args.format)
    return 0 if all(v.matches_theorem for v in verdicts) else 1


# ---------------------------------------------------------------------------
# dessins


def cmd_dessins(args) -> int:
    rows = []
    verdicts = {}
    if args.table1 and args.max_unstable is not None:
        print("bad dessins input: --max-unstable applies to --k only", file=sys.stderr)
        return 2
    max_unstable = args.max_unstable or 0
    if args.table1:
        for r in dessins.table1():
            degen = r.isotrivial_degeneration
            rows.append({"fibers": dessins.print_fibers(r.fibers), "irreducible": r.irreducible,
                         "isotrivial_degeneration": dessins.print_fibers(degen) if degen else None})
        verdicts["rows"] = len(rows)
        verdicts["irreducible"] = sum(1 for r in rows if r["irreducible"])
    else:
        if args.k is None:
            print("dessins needs --table1 or --k", file=sys.stderr)
            return 2
        try:
            sks = dessins.enumerate_skeletons(args.k, max_unstable)
        except ValueError as exc:
            print(f"bad dessins input: {exc}", file=sys.stderr)
            return 2
        for sk in sks:
            rows.append({"fibers": dessins.print_fibers(dessins.fiber_multiset(sk)),
                         "components": dessins.component_count(sk),
                         "mirror_symmetric": sk.is_mirror_symmetric(), "map": sk.to_json()})
        verdicts["skeletons"] = len(sks)
    _emit("dessins", {"k": args.k, "max_unstable": max_unstable, "table1": args.table1}, rows, verdicts, args.format)
    return 0


# ---------------------------------------------------------------------------
# curve


def _curve_report(c: weierstrass.WeierstrassCurve) -> Tuple[List[dict], dict]:
    """The rows and verdicts of a curve's report, each polynomial as str
    prints it and a zero g2's (g3's) order a (b) null: Delta, its fiber
    classes, the j-map and the verdicts, each computed once."""
    g2_term, delta = weierstrass.discriminant(c)
    fibers = weierstrass.fiber_analysis(c, delta)
    num, den = weierstrass.j_invariant(g2_term, delta, fibers)
    rows = [{"place": str(r.place), "points": r.count,
             **{k: None if m == weierstrass.INF else m for k, m in zip("abd", r.mults)}, "type": r.type.label()}
            for r in fibers]
    has_nonsimple = any(f.type is dessins.NON_SIMPLE for f in fibers)
    verdicts = {
        "delta": str(delta),
        "j_num": str(num),
        "j_den": str(den),
        "milnor": None if has_nonsimple else weierstrass.milnor(fibers),
        "isotrivial": weierstrass.is_isotrivial(num, den),
        "stable": weierstrass.is_stable(fibers),
        "maximal": weierstrass.is_maximal(c, delta, fibers),
    }
    return rows, verdicts


def cmd_curve(args) -> int:
    try:
        with open(args.file) as fh:
            # decimals stay text until curve_from_json has bounded their size
            # and made them exact: 0.1 is 1/10, not the nearest binary float
            data = json.load(fh, parse_float=str)
        c = weierstrass.curve_from_json(data)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        print(f"bad curve file: {exc}", file=sys.stderr)
        return 2
    try:
        rows, verdicts = _curve_report(c)
    except weierstrass.ZeroDiscriminant as exc:
        print(f"degenerate curve: {exc}", file=sys.stderr)
        return 2
    _emit("curve", {"file": os.path.basename(args.file), "k": c.k}, rows, verdicts, args.format)
    return 0


# ---------------------------------------------------------------------------
# dump-families


def cmd_dump_families(args) -> int:
    rows = [{"tag": f.tag, "essential": f.essential, "kernel_p": f.kernel_spec[0],
             "kernel_rank": f.kernel_spec[1], "expected_group": f.expected_group, "note": f.note}
            for f in catalog.families()]
    _emit("dump-families", {}, rows, {"families": len(rows)}, args.format)
    return 0


# ---------------------------------------------------------------------------
# verify

# what each check is given: enumerate_skeletons(k, max_unstable), each
# enumeration made once per verify call
Skeletons = Callable[[int, int], List[dessins.Skeleton]]


def _check_theorem(skeletons: Skeletons) -> List[str]:
    failures = []
    for v in stability.classify_catalog(catalog.families()):
        if not v.matches_theorem:
            failures.append(f"classification mismatch for {v.singularities}")
    return failures


def _check_table1(skeletons: Skeletons) -> List[str]:
    failures = []
    rows = dessins.table1(skeletons)
    if len(rows) != 12:
        failures.append(f"table has {len(rows)} rows, wanted 12")
    irr = sum(1 for r in rows if r.irreducible)
    if irr != 5:
        failures.append(f"{irr} irreducible rows, wanted 5")
    if len(skeletons(2, 0)) != 6:
        failures.append("stable k=2 skeleton count is not 6")
    if len(skeletons(1, 1)) != 5:
        failures.append("k=1 skeleton count (<=1 unstable) is not 5")
    return failures


def _check_curve(skeletons: Skeletons) -> List[str]:
    failures = []
    g2 = RatPoly([-3, 0, 0, -24], 4)
    g3 = RatPoly([-1, 0, 0, 20, 0, 0, 8], 4)
    rows, verdicts = _curve_report(weierstrass.WeierstrassCurve(2, g2, g3))
    if verdicts["delta"] != str(RatPoly([0, 0, 0, 108]) * RatPoly([-1, 0, 0, 1]) ** 3):
        failures.append("four-cusp curve: wrong discriminant")
    if sorted(r["type"] for r in rows for _ in range(r["points"])) != ["A2~"] * 4:
        failures.append("four-cusp curve: fiber set is not 4A2~")
    if verdicts["milnor"] != 8 or not verdicts["maximal"] or verdicts["isotrivial"]:
        failures.append("four-cusp curve: wrong verdicts")
    return failures


def _check_budget(skeletons: Skeletons) -> List[str]:
    failures = []
    for k, mx in ((1, 1), (2, 0)):
        for sk in skeletons(k, mx):
            deg = sum(f.discriminant_degree() for f in dessins.fiber_multiset(sk))
            if deg != 6 * k:
                failures.append(f"degree budget violated for a k={k} skeleton")
    return failures


_CHECKS = {
    "theorem": _check_theorem,
    "table1": _check_table1,
    "curve": _check_curve,
    "budget": _check_budget,
}


def cmd_verify(args) -> int:
    # each named check once, in the order given; an empty name is refused,
    # and an unknown one is quoted, so a stray space shows
    names = list(_CHECKS) if args.only is None else list(dict.fromkeys(args.only.split(",")))
    bad_names = [n for n in names if n not in _CHECKS]
    if bad_names:
        print(f"unknown checks: {', '.join(repr(n) + ('' if n else ' (empty entry)') for n in bad_names)}",
              file=sys.stderr)
        return 2
    verdicts = {}
    ok = True
    # the checks share one list of each skeleton enumeration, for this call only
    skeletons = lru_cache(maxsize=None)(dessins.enumerate_skeletons)
    for name in names:
        failures = _CHECKS[name](skeletons)
        verdicts[name] = "pass" if not failures else "; ".join(failures)
        ok = ok and not failures
    _emit("verify", {"only": args.only}, [], verdicts, args.format)
    return 0 if ok else 1


# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call to main and reused
    by every later call in the process (not at import)."""
    ap = argparse.ArgumentParser(prog="sexticsym")
    ap.add_argument("--format", choices=("json", "md"), default="json")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("classify", help="stable symmetry groups of candidate families")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true", help="classify the full catalog (default)")
    which.add_argument("--set", help="restrict to one singularity set, e.g. 3E6")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("dessins", help="skeleton enumeration and the fiber table")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--k", type=int)
    mode.add_argument("--table1", action="store_true")
    p.add_argument("--max-unstable", type=int, help="with --k only (default 0)")
    p.set_defaults(fn=cmd_dessins)

    p = sub.add_parser("curve", help="analyze a Weierstrass curve file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_curve)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--only", help="comma-separated check names")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("dump-families", help="print the family catalog")
    p.set_defaults(fn=cmd_dump_families)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
    except BrokenPipeError:
        # what is still buffered goes to devnull, so exit flushes quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return code


if __name__ == "__main__":
    sys.exit(main())
