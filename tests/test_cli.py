import json
import os
import pathlib
import subprocess
import sys

import pytest

import sexticsym
from sexticsym import catalog
from sexticsym.cli import main

from conftest import CURVE_CORPUS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def curve_file(tmp_path, label, **extra):
    g2, g3 = CURVE_CORPUS[label]
    data = {"k": 2, "g2": [str(c) for c in g2], "g3": [str(c) for c in g3]}
    data.update(extra)
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# classify


def test_classify_single_set(capsys):
    code, out, _ = run(capsys, "classify", "--set", "3E6")
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == "classify"
    assert rep["verdicts"] == {"3E6": "matches"}
    (row,) = rep["rows"]
    assert row["group_label"] == "S3"
    assert row["group_order"] == 6
    assert row["orbit_size"] == 4


def test_classify_accepts_non_canonical_spelling(capsys):
    code, out, _ = run(capsys, "classify", "--set", "A3+2E8")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdicts"] == {"2E8+A3": "matches"}


def test_classify_unknown_set(capsys):
    code, out, err = run(capsys, "classify", "--set", "5E6")
    assert code == 2
    assert out == ""
    assert "unknown" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--set", "A0"),
        ("classify", "--set", "2Q5"),
        ("classify", "--set", "0A2"),
        ("dessins", "--k", "3"),
    ],
)
def test_bad_input_exits_2(capsys, argv):
    # exit code 1 means a verification mismatch; malformed input is 2
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("bad ") and "Traceback" not in err


def test_classify_json_deterministic(capsys):
    _, out1, _ = run(capsys, "classify", "--set", "A17")
    _, out2, _ = run(capsys, "classify", "--set", "A17")
    assert out1 == out2


GOLDEN = pathlib.Path(__file__).parent / "data" / "classify"


@pytest.mark.parametrize(
    "text", [f.essential for f in catalog.families() if f.essential != "9A2"]
)
def test_classify_matches_golden(capsys, text):
    """Byte-identical to the recorded report (9A2 has its own test)."""
    code, out, _ = run(capsys, "classify", "--set", text)
    assert code == 0
    assert out.encode() == (GOLDEN / f"{text}.json").read_bytes()


def test_classify_9a2_matches_golden(capsys):
    """Byte-identical to the recorded 9A2 report.

    The golden still holds all three kernel orbits, including the two
    that are not root-free (orbit sizes 17920 and 322560, labels
    other(216, nonabelian) and other(12, nonabelian)).  ROADMAP open item
    2's root-free filter removes them and will regenerate this file on
    purpose.
    """
    code, out, _ = run(capsys, "classify", "--set", "9A2")
    assert code == 0
    assert out.encode() == (GOLDEN / "9A2.json").read_bytes()


def test_classify_does_not_import_sympy():
    script = (
        "import sys\n"
        "from sexticsym.cli import main\n"
        "main(['classify', '--set', '3E6'])\n"
        "sys.exit(int('sympy' in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(sexticsym.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_classify_md_format(capsys):
    code, out, _ = run(capsys, "--format", "md", "classify", "--set", "A17")
    assert code == 0
    assert out.startswith("## classify")
    assert "| " in out
    assert "- A17: matches" in out


# ---------------------------------------------------------------------------
# dessins


def test_dessins_table1(capsys):
    code, out, _ = run(capsys, "dessins", "--table1")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdicts"] == {"rows": 12, "irreducible": 5}


def test_dessins_enumeration(capsys):
    code, out, _ = run(capsys, "dessins", "--k", "2", "--stable")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdicts"] == {"skeletons": 6}
    code, out, _ = run(capsys, "dessins", "--k", "1", "--max-unstable", "1")
    assert code == 0
    assert json.loads(out)["verdicts"] == {"skeletons": 5}


DESSINS_GOLDEN = pathlib.Path(__file__).parent / "data" / "dessins"


@pytest.mark.parametrize(
    "argv, name",
    [(("--table1",), "table1"), (("--k", "2", "--max-unstable", "3"), "k2-max-unstable3")],
)
def test_dessins_matches_golden(capsys, argv, name):
    """Byte-identical to the recorded report."""
    code, out, _ = run(capsys, "dessins", *argv)
    assert code == 0
    assert out.encode() == (DESSINS_GOLDEN / f"{name}.json").read_bytes()


def test_dessins_requires_mode(capsys):
    code, out, err = run(capsys, "dessins")
    assert code == 2
    assert "needs --table1 or --k" in err


# ---------------------------------------------------------------------------
# curve


def test_curve_report(capsys, tmp_path):
    path = curve_file(tmp_path, "4A2~")
    code, out, _ = run(capsys, "curve", path)
    assert code == 0
    rep = json.loads(out)
    v = rep["verdicts"]
    assert v["milnor"] == 8
    assert v["stable"] and v["maximal"] and not v["isotrivial"]
    assert [r["type"] for r in rep["rows"]] == ["A2~"]
    assert rep["rows"][0]["points"] == 4


def test_curve_lead_scaling(capsys, tmp_path):
    plain = curve_file(tmp_path, "A8~+3A0*")
    _, out1, _ = run(capsys, "curve", plain)
    g2, g3 = CURVE_CORPUS["A8~+3A0*"]
    scaled = tmp_path / "scaled.json"
    scaled.write_text(
        json.dumps(
            {
                "k": 2,
                "g2": [str(c * 3) for c in g2],
                "g3": [str(c * 3) for c in g3],
                "lead": "3",
            }
        )
    )
    _, out2, _ = run(capsys, "curve", str(scaled))
    rep1, rep2 = json.loads(out1), json.loads(out2)
    del rep1["inputs"], rep2["inputs"]
    assert rep1 == rep2


def test_curve_decimals_are_exact(capsys, tmp_path):
    # 0.5 and "1/2" are the same coefficient
    reports = []
    for name, lead in (("float", "0.5"), ("string", '"1/2"')):
        path = tmp_path / name / "curve.json"
        path.parent.mkdir()
        path.write_text(
            '{"k": 2, "g2": [-1.5, 0, 0, -3], "g3": [1, 0, 0, 3, 0, 0, 1.5], '
            f'"lead": {lead}}}'
        )
        code, out, _ = run(capsys, "curve", str(path))
        assert code == 0
        reports.append(out)
    assert reports[0] == reports[1]
    # 0.1 is 1/10, not the binary float nearest to it: dividing by the lead
    # must give back the integer curve A8~+3A0* exactly
    decimal = tmp_path / "decimal.json"
    decimal.write_text(
        '{"k": 2, "g2": [-0.3, 0, 0, -0.6], "g3": [0.2, 0, 0, 0.6, 0, 0, 0.3], '
        '"lead": 0.1}'
    )
    _, out1, _ = run(capsys, "curve", curve_file(tmp_path, "A8~+3A0*"))
    _, out2, _ = run(capsys, "curve", str(decimal))
    rep1, rep2 = json.loads(out1), json.loads(out2)
    del rep1["inputs"], rep2["inputs"]
    assert rep1 == rep2


def test_curve_bad_inputs(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    code, _, err = run(capsys, "curve", str(missing))
    assert code == 2 and "bad curve file" in err

    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json {")
    code, _, err = run(capsys, "curve", str(garbage))
    assert code == 2 and "bad curve file" in err

    degenerate = tmp_path / "degenerate.json"
    degenerate.write_text(
        json.dumps({"k": 2, "g2": ["0", "0", "-3"], "g3": ["0", "0", "0", "2"]})
    )
    code, _, err = run(capsys, "curve", str(degenerate))
    assert code == 2 and "degenerate" in err


# ---------------------------------------------------------------------------
# verify and dump-families


def test_verify_fast_checks(capsys):
    code, out, _ = run(capsys, "verify", "--only", "table1,curve,budget")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdicts"] == {"table1": "pass", "curve": "pass", "budget": "pass"}


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "--only", "table1,nosuch")
    assert code == 2
    assert "unknown checks: nosuch" in err


def test_dump_families(capsys):
    code, out, _ = run(capsys, "dump-families")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdicts"] == {"families": 34}
    assert len(rep["rows"]) == 34
    tags = {r["tag"] for r in rep["rows"]}
    assert tags == {"TorusW6", "Weight8", "Weight9", "D10", "D14", "TwoE8"}
