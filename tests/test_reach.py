"""Every function of the package is reached from the command line.

Cheap CLI calls, covering every command and its input errors, run under
sys.setprofile, which records each Python function called.  A def under
src/sexticsym/ that none of them calls is dead code, unless ALLOWED names
it with the reason it stays.  Functions are matched by file and first line
(of the def, or of its first decorator): co_qualname needs Python 3.11.
9A2 is left out (it takes seconds), and with it verify --only theorem.
"""

import ast
import json
import pathlib
import sys

import sexticsym
from sexticsym.cli import main

from conftest import CURVE_CORPUS

PACKAGE = pathlib.Path(sexticsym.__file__).resolve().parent

ROADMAP_3 = "K-perp/K lengths and the derived catalog (ROADMAP item 3)"
VALUE_TYPE = "completes RatPoly as a value type"
ALLOWED = {
    ("discrforms.py", "quotient_form"): ROADMAP_3,
    ("discrforms.py", "FiniteQuadraticForm.b"): ROADMAP_3,
    ("exactcore.py", "lattice_basis"): ROADMAP_3,
    ("exactcore.py", "solve_integer"): ROADMAP_3,
    ("stability.py", "torus_candidates"): ROADMAP_3,
    ("stability.py", "_partitions"): ROADMAP_3,
    ("catalog.py", "weight"): ROADMAP_3,
    ("stability.py", "sym_config"): "kernel stabilizers (ROADMAP item 2)",
    ("catalog.py", "quotient_dictionary"): "the paper's sextic-to-trigonal quotient data",
    ("discrforms.py", "Subgroup.spanned"): "the public way to build a kernel for configuration()",
    ("stability.py", "_primary_invariants"): "identify_group's abelian label",
    ("cli.py", "_check_theorem"): "verify --only theorem, which classifies 9A2",
    ("exactcore.py", "RatPoly.__setattr__"): "RatPoly's immutability guard",
    ("exactcore.py", "RatPoly.__hash__"): VALUE_TYPE,
    ("exactcore.py", "RatPoly.__bool__"): VALUE_TYPE,
    ("exactcore.py", "RatPoly.__rsub__"): VALUE_TYPE,
    ("exactcore.py", "RatPoly.__call__"): VALUE_TYPE,
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
    ok = [["classify", "--set", "3E6"], ["classify", "--set", "8A2"],
          ["classify", "--set", "2E8+A2"], ["--format", "md", "classify", "--set", "3E6"],
          ["dessins", "--table1"], ["dessins", "--k", "1", "--max-unstable", "1"],
          ["verify", "--only", "table1,curve,budget"], ["curve", str(curve)], ["dump-families"]]
    errors = [["classify", "--set", "2Q5"], ["classify", "--set", "2E6"], ["dessins"],
              ["dessins", "--k", "3"], ["dessins", "--k", "1", "--max-unstable", "-1"],
              ["curve", str(tmp_path)], ["curve", str(degenerate)], ["verify", "--only", "nosuch"]]
    # results cached by earlier tests would hide the calls that make them
    for name, mod in list(sys.modules.items()):
        if name.startswith("sexticsym."):
            for val in vars(mod).values():
                getattr(val, "cache_clear", lambda: None)()
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
