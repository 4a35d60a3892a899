"""Every function of the package is reached from the command line.

Cheap CLI calls, covering every command and its input errors, run under
sys.setprofile, which records each Python function called.  A def under
src/sexticsym/ that none of them calls is dead code, unless ALLOWED names
it with the reason it stays.  Functions are matched by file and first line
(of the def, or of its first decorator): co_qualname needs Python 3.11.
verify --only theorem classifies the whole catalog, 9A2 included.

The benchmark's tracer (perfbench/tracing.py) wraps package functions by
name, so every name it lists must also resolve.  And nothing in the
package checks with assert or __debug__, which python -O removes.
"""

import ast
import importlib
import json
import pathlib
import runpy
import sys

import sexticsym
from sexticsym.cli import main

from conftest import CURVE_CORPUS
from helpers import clear_package_caches

PACKAGE = pathlib.Path(sexticsym.__file__).resolve().parent

EXHAUSTIVE = ("exhaustive reference for the kernel-orbit tests; "
              "wrapped by perfbench's tracer until ROADMAP item 34")
SNF_REFERENCE = ("SNF reference for component_form's test; "
                 "wrapped by perfbench's tracer until ROADMAP item 34")
ALLOWED = {
    ("discrforms.py", "quotient_form"): "K-perp/K, which ROADMAP items 33 and 3 reach",
    # the Smith normal form: only quotient_form and the tests'
    # discriminant_form run it
    ("exactcore.py", "smith_normal_form"): "the Smith normal form, which ROADMAP item 35 reaches",
    ("catalog.py", "weight"): "the torus weight of a family tag, which ROADMAP item 3 reaches",
    ("discrforms.py", "isotropic_subspaces"): EXHAUSTIVE,
    ("discrforms.py", "_chains"): EXHAUSTIVE,
    ("discrforms.py", "discriminant_form"): SNF_REFERENCE,
    ("rootsystems.py", "discr_action"): ("oracle of the signed-permutation tests; "
                                         "wrapped by perfbench's tracer until ROADMAP item 34"),
    ("rootsystems.py", "graph_symmetries"): ("oracle of the kernel-orbit and signed-permutation tests; "
                                             "wrapped by perfbench's tracer until ROADMAP item 34"),
    ("catalog.py", "quotient_dictionary"): "the paper's sextic-to-trigonal quotient data, which ROADMAP item 8 reaches",
    ("rootsystems.py", "_primary_invariants"): ("identify_group's abelian label, which no catalog family "
                                                "reaches until ROADMAP item 20"),
}


def package_defs():
    """(path, first line) -> (file name, qualified name) of every def."""
    out = {}

    def visit(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(path, child, prefix)
                continue
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(str(path), first)] = (path.name, prefix + child.name)
            visit(path, child, prefix + child.name + ".")

    for path in PACKAGE.glob("*.py"):
        visit(path, ast.parse(path.read_text()), "")
    return out


def test_every_function_is_reached(tmp_path, capsys):
    curve, degenerate = tmp_path / "curve.json", tmp_path / "degenerate.json"
    g2, g3 = CURVE_CORPUS["4A2~"]
    curve.write_text(json.dumps({"k": 2, "g2": [str(c) for c in g2], "g3": [str(c) for c in g3]}))
    degenerate.write_text('{"k": 2, "g2": ["0", "0", "-3"], "g3": ["0", "0", "0", "2"]}')
    # D4 fibers at x = 0 and Infinity: g2 and Delta share the finite one, so
    # the j-map divides their gcd out (no corpus curve has such a place)
    shared = tmp_path / "shared.json"
    shared.write_text('{"k": 2, "g2": ["0", "0", "-3"], "g3": ["0", "0", "0", "1"]}')
    # E6+6A2 has two classes of rank-2 children in one orbit; the one whose
    # least hyperplane is not its parent is dropped
    ok = [["classify", "--set", "3E6"], ["classify", "--set", "8A2"], ["classify", "--set", "E6+6A2"],
          ["classify", "--set", "2E8+A2"], ["--format", "md", "classify", "--set", "3E6"],
          ["dessins", "--table1"], ["dessins", "--k", "1", "--max-unstable", "1"],
          ["verify", "--only", "table1,curve,budget"], ["verify", "--only", "theorem"],
          ["curve", str(curve)], ["curve", str(shared)], ["dump-families"]]
    errors = [["classify", "--set", "2Q5"], ["classify", "--set", "2E6"], ["dessins"],
              ["dessins", "--k", "3"], ["dessins", "--k", "1", "--max-unstable", "-1"],
              ["curve", str(tmp_path)], ["curve", str(degenerate)], ["verify", "--only", "nosuch"]]
    # results cached by earlier tests would hide the calls that make them
    clear_package_caches()
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(record)
    try:
        codes = [main(argv) for argv in ok + errors]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(ok) + [2] * len(errors)
    called = {(str(pathlib.Path(f).resolve()), line) for f, line in called}
    unreached = sorted(name for key, name in package_defs().items() if key not in called)
    assert [name for name in unreached if name not in ALLOWED] == []
    # an entry whose function is gone or now reached goes too
    assert unreached == sorted(ALLOWED)


def test_traced_names_resolve():
    # run_path compiles the file without writing bytecode next to it
    tracing = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    targets = runpy.run_path(str(tracing))["TARGETS"]
    assert targets
    for _, modname, attr, _ in targets:
        owner = importlib.import_module("sexticsym." + modname)
        *outer, name = attr.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(name)), f"{modname}.{attr}"


def test_package_has_no_assert():
    """python -O drops assert statements and makes __debug__ false, so a
    check written with either would vanish; the package uses neither, and
    its consistency checks raise under -O as they do without it."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or isinstance(node, ast.Name) and node.id == "__debug__":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
