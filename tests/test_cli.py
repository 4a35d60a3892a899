import argparse
import fcntl
import json
import os
import pathlib
import subprocess
import sys
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import sexticsym
from sexticsym import catalog, cli, dessins, discrforms, exactcore, stability, weierstrass
from sexticsym.cli import main
from sexticsym.rootsystems import parse_singularities, print_singularities
from sexticsym.weierstrass import MAX_DIGITS, MAX_K

from conftest import AT_BOUND_CURVES, CURVE_CORPUS, at_bound_curve
from helpers import clear_package_caches


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
    code, out, err = run(capsys, "classify", "--set", "2E6")
    assert code == 2
    assert out == ""
    assert "unknown" in err
    # the set is named in its canonical spelling, not echoed as given
    code, _, err = run(capsys, "classify", "--set", "A1" + " " * 100000)
    assert code == 2 and err == "unknown singularity set: A1\n"


def test_classify_all_and_set_exclusive(capsys):
    # --all with --set is a contradiction, refused by argparse with exit 2
    for argv in (["classify", "--set", "3E6", "--all"], ["classify", "--all", "--set", "3E6"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "not allowed with argument" in err


HUGE_COUNT = "9" * 4400 + "A2"  # more digits than int() converts


@pytest.mark.parametrize("argv", [
    ("classify", "--set", "A0"),
    ("classify", "--set", "2Q5"),
    ("classify", "--set", "0A2"),
    ("classify", "--set", ""),
    ("classify", "--set", "5E6"),
    ("classify", "--set", "2E8+A3+A1"),
    ("classify", "--set", "1000000000000A2"),
    ("classify", "--set=--"),
    ("dessins", "--k", "3"),
    ("dessins", "--k", "1", "--max-unstable", "-1"),
    ("dessins", "--table1", "--max-unstable", "3"),
    ("classify", "--set", HUGE_COUNT),
    ("classify", "--set", "0" * 4400 + "A2"),
])
def test_bad_input_exits_2(capsys, argv):
    # exit code 1 means a verification mismatch; malformed input is 2
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("bad ") and "Traceback" not in err
    # short, and about the input rather than int()'s digit limit
    assert len(err) < 200 and "set_int_max_str_digits" not in err
    if HUGE_COUNT in argv:
        assert "total rank exceeds 19 in '9999999999...99999999A2'" in err


def test_classify_json_deterministic(capsys):
    _, out1, _ = run(capsys, "classify", "--set", "A17")
    _, out2, _ = run(capsys, "classify", "--set", "A17")
    assert out1 == out2


GOLDEN = pathlib.Path(__file__).parent / "data" / "classify"


@pytest.mark.parametrize("text", [f.essential for f in catalog.families() if f.essential != "9A2"])
def test_classify_matches_golden(capsys, text):
    """Byte-identical to the recorded report (9A2 has its own test)."""
    code, out, _ = run(capsys, "classify", "--set", text)
    assert code == 0
    assert out.encode() == (GOLDEN / f"{text}.json").read_bytes()


def test_classify_9a2_matches_golden(capsys):
    """Byte-identical to the recorded 9A2 report: one kernel orbit, of
    215040 root-free kernels, with GD(Z3xZ3).  The other two orbits of
    isotropic (Z3)^3 kernels with full support (17920 and 322560 kernels,
    other(216, nonabelian) and other(12, nonabelian)) hold a root and are
    not listed.
    """
    code, out, _ = run(capsys, "classify", "--set", "9A2")
    assert code == 0
    assert out.encode() == (GOLDEN / "9A2.json").read_bytes()


def test_classify_mismatch_in_one_row_fails_the_family(capsys, monkeypatch):
    # 3E6's one kernel orbit listed twice, the second row's group
    # relabelled: a verdict needs every row to match
    kernels, stable = stability.admissible_kernels, stability.sym_stable
    reports = []

    def relabelled(c):
        reports.append(stable(c))
        return reports[-1] if len(reports) == 1 else reports[-1]._replace(label="Z7")

    monkeypatch.setattr(stability, "admissible_kernels", lambda *spec: kernels(*spec) * 2)
    monkeypatch.setattr(stability, "sym_stable", relabelled)
    code, out, _ = run(capsys, "classify", "--set", "3E6")
    rep = json.loads(out)
    assert [r["matches_expected"] for r in rep["rows"]] == [True, False]
    assert rep["verdicts"] == {"3E6": "MISMATCH"}
    assert code == 1
    # and a family without a kernel orbit matches nothing
    monkeypatch.setattr(stability, "admissible_kernels", lambda *spec: [])
    code, out, _ = run(capsys, "classify", "--set", "3E6")
    assert json.loads(out)["verdicts"] == {"3E6": "MISMATCH"}
    assert code == 1


def test_classify_all_matches_golden(capsys):
    """Byte-identical to the recorded `classify --all` report."""
    code, out, _ = run(capsys, "classify", "--all")
    assert code == 0
    assert out.encode() == (GOLDEN / "all.json").read_bytes()


def test_classify_runs_no_smith_normal_form(capsys, monkeypatch):
    """Every component's discriminant data is closed form: with the Smith
    normal form and discriminant_form refused, `classify --all` from cold
    caches still prints the recorded report."""
    def refused(*args, **kwargs):
        raise AssertionError("classify ran a Smith normal form")

    for owner, name in ((discrforms, "discriminant_form"), (discrforms, "smith_normal_form"),
                        (exactcore, "smith_normal_form")):
        monkeypatch.setattr(owner, name, refused)
    # results cached by earlier tests would hide the calls that make them
    clear_package_caches()
    code, out, _ = run(capsys, "classify", "--all")
    assert code == 0
    assert out.encode() == (GOLDEN / "all.json").read_bytes()


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
    code, out, _ = run(capsys, "dessins", "--k", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdicts"] == {"skeletons": 6}
    code, out, _ = run(capsys, "dessins", "--k", "1", "--max-unstable", "1")
    assert code == 0
    assert json.loads(out)["verdicts"] == {"skeletons": 5}


DESSINS_GOLDEN = pathlib.Path(__file__).parent / "data" / "dessins"


@pytest.mark.parametrize(
    "argv, name",
    [(("--table1",), "table1"), (("--k", "2", "--max-unstable", "3"), "k2-max-unstable3"),
     (("--k", "1", "--max-unstable", "2"), "k1-max-unstable2")],
)
def test_dessins_matches_golden(capsys, argv, name):
    """Byte-identical to the recorded report."""
    code, out, _ = run(capsys, "dessins", *argv)
    assert code == 0
    assert out.encode() == (DESSINS_GOLDEN / f"{name}.json").read_bytes()


CURVE_GOLDEN = pathlib.Path(__file__).parent / "data" / "curve"


@pytest.mark.parametrize("label", sorted(CURVE_CORPUS))
def test_curve_matches_golden(capsys, tmp_path, label):
    """Byte-identical to the recorded report; files drop '~' and spell '*' as 's'."""
    code, out, _ = run(capsys, "curve", curve_file(tmp_path, label))
    assert code == 0
    name = label.replace("~", "").replace("*", "s")
    assert out.encode() == (CURVE_GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(AT_BOUND_CURVES))
def test_at_bound_curve_matches_golden(capsys, name):
    """The committed at-bound input is the seeded one, and its report is
    byte-identical to the recorded one."""
    path = pathlib.Path(__file__).parent / "data" / "curve-input" / f"{name}.json"
    assert json.loads(path.read_text()) == at_bound_curve(name)
    code, out, _ = run(capsys, "curve", str(path))
    assert code == 0
    assert out.encode() == (CURVE_GOLDEN / f"{name}.json").read_bytes()


def test_lead_curve_matches_golden(capsys):
    """A curve file with a negative lead and every number a fraction of two
    15-digit integers: its report is byte-identical to the recorded one."""
    path = pathlib.Path(__file__).parent / "data" / "curve-input" / "lead15.json"
    code, out, _ = run(capsys, "curve", str(path))
    assert code == 0
    assert out.encode() == (CURVE_GOLDEN / "lead15.json").read_bytes()


def test_dessins_stable_flag_is_gone(capsys):
    # --max-unstable 0, the default, lists the stable skeletons
    with pytest.raises(SystemExit) as exc:
        main(["dessins", "--k", "2", "--stable"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --stable" in err


def test_dessins_table1_and_k_exclusive(capsys):
    # --table1 with --k is a contradiction, refused by argparse with exit 2
    for argv in (["dessins", "--table1", "--k", "1"], ["dessins", "--k", "1", "--table1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "not allowed with argument" in err


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
    scaled.write_text(json.dumps(
        {"k": 2, "g2": [str(c * 3) for c in g2], "g3": [str(c * 3) for c in g3], "lead": "3"}))
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
    code, _, err = run(capsys, "curve", str(tmp_path / "nope.json"))
    assert code == 2 and "bad curve file" in err
    nested = "[" * 100000 + "]" * 100000  # deeper than the JSON decoder recurses
    for text, msg in (("not json {", "bad curve file"),
                      ('{"k": 2, "g2": %s, "g3": ["1"]}' % nested, "bad curve file"),
                      ('{"k": 2, "g2": ["0", "0", "-3"], "g3": ["0", "0", "0", "2"]}', "degenerate")):
        path = tmp_path / "curve.json"
        path.write_text(text)
        code, _, err = run(capsys, "curve", str(path))
        assert code == 2 and msg in err


MALFORMED = {
    "list": "[1, 2]",
    "string": '"x"',
    "g2-zero-denominator": '{"k": 2, "g2": ["1/0"], "g3": ["1"]}',
    "lead-zero-denominator": '{"k": 2, "lead": "1/0", "g2": ["1"], "g3": ["1"]}',
    "k-fraction": '{"k": 2.5, "g2": ["1"], "g3": ["1"]}',
    "k-bool": '{"k": true, "g2": ["1"], "g3": ["1"]}',
    "g2-string": '{"k": 2, "g2": "12", "g3": ["1"]}',
    "missing-k": '{"g2": ["1"], "g3": ["1"]}',
    "missing-g2": '{"k": 2, "g3": ["1"]}',
    "missing-g3": '{"k": 2, "g2": ["1"]}',
    # sizes are bounded before a Fraction is built
    "exponent-4400-string": '{"k": 2, "g2": ["1e4400"], "g3": ["1"]}',
    "exponent-4400-number": '{"k": 2, "g2": [1e4400], "g3": ["1"]}',
    "exponent-1e7-string": '{"k": 2, "g2": ["1"], "g3": ["1e10000000"]}',
    "lead-exponent-1e7-number": '{"k": 2, "g2": ["1"], "g3": ["1"], "lead": 1e10000000}',
    "2001-digits": '{"k": 2, "g2": ["%s"], "g3": ["1"]}' % ("9" * 2001),
    "digits-over-bound-string": '{"k": 2, "g2": ["%s"], "g3": ["1"]}' % ("9" * (MAX_DIGITS + 1)),
    "digits-over-bound-number": '{"k": 2, "g2": [%s], "g3": ["1"]}' % ("1" * (MAX_DIGITS + 1)),
    "fraction-digits-over-bound": '{"k": 2, "g2": ["1/%s"], "g3": ["1"]}' % ("3" * MAX_DIGITS),
    "exponent-over-bound": '{"k": 2, "g2": ["1e-%d"], "g3": ["1"]}' % (MAX_DIGITS + 1),
    "k-digits-over-bound": '{"k": %s, "g2": ["1"], "g3": ["1"]}' % ("1" * (MAX_DIGITS + 1)),
    "k-over-bound": '{"k": %d, "g2": ["1"], "g3": ["1"]}' % (MAX_K + 1),
    "k-zero": '{"k": 0, "g2": ["1"], "g3": ["1"]}',
    # messages show a short prefix of a bad value, not all of it
    "k-100000-digit-string": '{"k": "%s", "g2": ["1"], "g3": ["1"]}' % ("9" * 100000),
    "g2-100000-element-list": '{"k": 2, "g2": [[%s]], "g3": ["1"]}' % ", ".join(["1"] * 100000),
    "padded-zero-denominator": '{"k": 2, "g2": ["%s1/0"], "g3": ["1"]}' % (" " * 100000),
    # refused at its first entry past deg g2 <= 2k, before a RatPoly takes
    # the lcm of 100,000 denominators
    "g2-100000-entries": '{"k": 2, "g2": [%s], "g3": ["1"]}' % ", ".join('"1/%d"' % n for n in range(2, 100002)),
}


@pytest.mark.parametrize("text", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_curve_file_exits_2(capsys, tmp_path, text):
    path = tmp_path / "curve.json"
    path.write_text(text)
    code, out, err = run(capsys, "curve", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("bad curve file") and "Traceback" not in err
    assert len(err) < 300
    data = json.loads(text)
    if isinstance(data, dict):
        for field in ("k", "g2", "g3"):
            if field not in data:
                assert f"missing field '{field}'" in err


def test_zero_padded_curve_prints_its_unpadded_report(capsys, tmp_path):
    # zeros past deg g2 <= 2k and deg g3 <= 3k, in any spelling, are
    # dropped; one nonzero entry among them refuses the file
    g2, g3 = CURVE_CORPUS["4A2~"]
    g2, g3 = [str(c) for c in g2], [str(c) for c in g3]
    zeros = ["0", 0, "0/7", "-0.0", "0e5"] * 200
    reports = []
    for name, extra in (("plain", {}), ("padded", {"g2": g2 + zeros, "g3": g3 + zeros})):
        (tmp_path / name).mkdir()
        code, out, err = run(capsys, "curve", curve_file(tmp_path / name, "4A2~", **extra))
        assert code == 0, err
        reports.append(out)
    assert reports[0] == reports[1]
    for extra in ({"g2": g2 + zeros + ["1"]}, {"g3": g3 + zeros + ["-1/3"]}):
        code, out, err = run(capsys, "curve", curve_file(tmp_path, "4A2~", **extra))
        assert (code, out) == (2, "")
        assert err == "bad curve file: degree bounds deg g2 <= 2k, deg g3 <= 3k violated\n"


@pytest.mark.parametrize("data, rows, verdicts", [
    ({"k": 2, "g2": [], "g3": ["0", "0", "1", "1"]},
     [("1 + x", 1, None, 1, 2, "A0**"), ("x", 1, None, 2, 4, "A2*"), ("Infinity", 1, None, 3, 6, "D4~")],
     {"delta": "27*x^4 + 54*x^5 + 27*x^6", "j_num": "0", "j_den": "1", "milnor": 6,
      "isotrivial": True, "stable": False, "maximal": False}),
    ({"k": 2, "g2": ["0", "0", "1", "-1"], "g3": []},
     [("-1 + x", 1, 1, None, 3, "A1*"), ("x", 1, 2, None, 6, "D4~"), ("Infinity", 1, 1, None, 3, "A1*")],
     {"delta": "4*x^6 - 12*x^7 + 12*x^8 - 4*x^9", "j_num": "1", "j_den": "1", "milnor": 6,
      "isotrivial": True, "stable": False, "maximal": False}),
])
def test_order_of_a_zero_g_is_null(capsys, tmp_path, data, rows, verdicts):
    # an identically-zero g2 (g3) has no order a (b) at any place: null, not
    # the internal sentinel weierstrass.INF; every other field is pinned
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "curve", str(path))
    assert code == 0, err
    rep = json.loads(out)
    assert rep["rows"] == [dict(zip(("place", "points", "a", "b", "d", "type"), row)) for row in rows]
    assert rep["verdicts"] == verdicts
    assert rep["inputs"] == {"file": "curve.json", "k": 2}
    assert str(weierstrass.INF) not in out


def test_curve_numbers_at_the_bound(capsys, tmp_path):
    # every number has MAX_DIGITS digits and an exponent of MAX_DIGITS, as a
    # string or a JSON number; divided by the lead they have 90 digits, and
    # the report still prints
    big, lead = "9" * MAX_DIGITS + f"e{MAX_DIGITS}", "1" * MAX_DIGITS + f"e-{MAX_DIGITS}"
    path = tmp_path / "curve.json"
    path.write_text('{"k": 2, "g2": [%s], "g3": [%s], "lead": "%s"}'
                    % (", ".join([f'"-{big}"'] * 5), ", ".join([big] * 7), lead))
    code, out, err = run(capsys, "curve", str(path))
    assert code == 0, err
    assert json.loads(out)["verdicts"]["delta"]


def test_curve_k_at_the_bound(capsys, tmp_path):
    # the largest k accepted; the next one is refused (MALFORMED)
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"k": MAX_K, "g2": ["1", "0", "-2"], "g3": ["3"] + ["0"] * (3 * MAX_K - 1) + ["1"]}))
    code, out, err = run(capsys, "curve", str(path))
    assert code == 0, err
    assert json.loads(out)["inputs"]["k"] == MAX_K
    path.write_text(json.dumps({"k": MAX_K + 1, "g2": ["1"], "g3": ["1"]}))
    code, out, err = run(capsys, "curve", str(path))
    assert code == 2 and out == ""
    assert err == f"bad curve file: k must be between 1 and {MAX_K}\n"


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
    assert "unknown checks: 'nosuch'" in err


@pytest.mark.parametrize("only, named", [("table1,curve ", "'curve '"), (" curve,nosuch", "' curve', 'nosuch'")])
def test_verify_quotes_an_unknown_check_name(capsys, only, named):
    # a stray space around a real name shows in the message
    code, out, err = run(capsys, "verify", "--only", only)
    assert (code, out, err) == (2, "", f"unknown checks: {named}\n")


@pytest.mark.parametrize("only", ["table1,", "", ",curve"])
def test_verify_refuses_an_empty_check_name(capsys, only):
    code, out, err = run(capsys, "verify", "--only", only)
    assert (code, out) == (2, "")
    assert "unknown checks: '' (empty entry)" in err


def test_verify_runs_each_named_check_once_in_order(capsys, monkeypatch):
    # a repeated name runs its check once, at its first place in the list
    calls = []
    for name in ("curve", "budget"):
        check = cli._CHECKS[name]
        monkeypatch.setitem(cli._CHECKS, name, lambda sk, name=name, check=check: calls.append(name) or check(sk))
    code, out, _ = run(capsys, "verify", "--only", "curve,budget,curve,budget")
    assert code == 0
    assert calls == ["curve", "budget"]
    assert json.loads(out)["verdicts"] == {"curve": "pass", "budget": "pass"}


def test_verify_enumerates_each_skeleton_list_once_per_call(capsys, monkeypatch):
    # table1, its count checks and the budget check share one list of the
    # (2, 0) and one of the (1, 1) skeletons; the next call enumerates anew
    calls = []
    enumerate_skeletons = dessins.enumerate_skeletons
    monkeypatch.setattr(dessins, "enumerate_skeletons", lambda k, mx: calls.append((k, mx)) or enumerate_skeletons(k, mx))
    for n in (2, 4):
        code, out, _ = run(capsys, "verify")
        assert code == 0 and json.loads(out) == VERIFY_REPORT
        assert sorted(calls) == sorted([(2, 0), (1, 1)] * (n // 2))


def test_dump_families(capsys):
    code, out, _ = run(capsys, "dump-families")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdicts"] == {"families": 34}
    assert len(rep["rows"]) == 34
    tags = {r["tag"] for r in rep["rows"]}
    assert tags == {"TorusW6", "Weight8", "Weight9", "D10", "D14", "TwoE8"}


# ---------------------------------------------------------------------------
# the command line without numpy or dataclasses

# sys.modules[name] = None makes every later import of name fail
WITHOUT = (
    "import sys\n"
    "sys.modules[sys.argv.pop(1)] = None\n"
    "from sexticsym.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)

VERIFY_REPORT = {
    "command": "verify",
    "inputs": {"only": None},
    "rows": [],
    "schema": 1,
    "verdicts": {"budget": "pass", "curve": "pass", "table1": "pass", "theorem": "pass"},
}


def run_bare(script, *argv):
    """The stdout of a fresh interpreter running script with argv, which
    must exit 0, the package importable from its source directory."""
    src = os.path.dirname(os.path.dirname(sexticsym.__file__))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_commands_run_without_numpy(tmp_path):
    """numpy is a test dependency only: with its import made to fail, each
    command still exits 0 with its recorded report."""
    assert run_bare(WITHOUT, "numpy", "classify", "--set", "9A2") == (GOLDEN / "9A2.json").read_bytes()
    assert run_bare(WITHOUT, "numpy", "dessins", "--table1") == (DESSINS_GOLDEN / "table1.json").read_bytes()
    curve = curve_file(tmp_path, "4A2~")
    assert run_bare(WITHOUT, "numpy", "curve", curve) == (CURVE_GOLDEN / "4A2.json").read_bytes()
    assert json.loads(run_bare(WITHOUT, "numpy", "verify")) == VERIFY_REPORT


def test_commands_run_without_dataclasses(tmp_path):
    """The record types are typing.NamedTuples, so a CLI call generates no
    dataclass methods at import: with dataclasses' import made to fail,
    each command still exits 0 with its recorded report, and importing the
    command line loads neither dataclasses nor inspect, which dataclasses
    imports."""
    assert run_bare(WITHOUT, "dataclasses", "classify", "--all") == (GOLDEN / "all.json").read_bytes()
    assert run_bare(WITHOUT, "dataclasses", "dessins", "--table1") == (DESSINS_GOLDEN / "table1.json").read_bytes()
    curve = curve_file(tmp_path, "4A2~")
    assert run_bare(WITHOUT, "dataclasses", "curve", curve) == (CURVE_GOLDEN / "4A2.json").read_bytes()
    assert json.loads(run_bare(WITHOUT, "dataclasses", "verify")) == VERIFY_REPORT
    loaded = "import sys, sexticsym.cli\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    assert run_bare(loaded) == b"[]\n"


def test_main_builds_its_parser_once(capsys, monkeypatch):
    """One process making several calls builds the parser (the top parser
    and five subparsers) on its first call only, and every report is still
    byte-identical to its golden."""
    cli._parser.cache_clear()
    inits = []
    real = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: inits.append(self) or real(self, *a, **kw))
    calls = [(("classify", "--set", "3E6"), GOLDEN / "3E6.json"),
             (("dessins", "--table1"), DESSINS_GOLDEN / "table1.json"),
             (("classify", "--set", "3E6"), GOLDEN / "3E6.json")]
    for argv, golden in calls:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.encode() == golden.read_bytes()
    assert run(capsys, "classify", "--set", "2Q5")[0] == 2
    assert len(inits) == 6


def test_import_builds_no_parser():
    # the parser is built lazily, so importing the CLI costs no parser
    script = "import sys, sexticsym.cli as c; sys.exit(c._parser.cache_info().currsize)"
    src = os.path.dirname(os.path.dirname(sexticsym.__file__))
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# the report emitter against json.dumps


class _Pair(NamedTuple):
    name: str
    value: object


_SCALAR = st.one_of(
    st.none(), st.booleans(), st.floats(), st.integers(),
    st.integers(-10**200, 10**200), st.sampled_from([2**64, -2**63, 10**4000]),
    st.text(), st.text(st.characters(categories=["Cs"]), max_size=3),  # lone surrogates
    st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\u00e9\U0001f600 ', max_size=8),
)
_KEY = st.one_of(st.text(max_size=4), st.text(alphabet='"\\\n\u00e9\ud800\U0001f600', max_size=3))
_VALUE = st.recursive(
    _SCALAR,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_KEY, inner, max_size=4), st.builds(_Pair, st.text(max_size=3), inner)),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_VALUE)
@example({"a": [], "b": {}, "c": (), "d": [[], {}, [{}]], "e": {"": {"x": ()}}, "f": _Pair("p", ())})
def test_emitter_matches_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# a reader that closes stdout early


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_quietly(unbuffered):
    """`sexticsym ... | head -1`: the report stops after its first line,
    with exit code 0 and nothing on stderr (no traceback, no "Exception
    ignored").  Buffered and unbuffered stdout write the report in
    different pieces, so both are run."""
    src = os.path.dirname(os.path.dirname(sexticsym.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    if hasattr(fcntl, "F_SETPIPE_SZ"):
        # far less than the 46 KB report, so the command is still writing
        # when the pipe closes
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    argv = [sys.executable, "-m", "sexticsym.cli", "dessins", "--k", "2", "--max-unstable", "3"]
    proc = subprocess.Popen(argv, stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    with open(read_end, "rb", buffering=0) as out:
        first = out.readline()  # byte by byte, so nothing past the line is read
    _, err = proc.communicate(timeout=120)
    assert first == b"{\n"
    assert err == b""
    assert proc.returncode == 0


# ---------------------------------------------------------------------------
# fuzzing through main: any input exits 0, 1 or 2 and never raises

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
_SMALL = st.integers(-30, 30)
# JSON text of a curve-file number: small ones in every spelling, those far
# beyond MAX_DIGITS, those at and just past it, and junk
_NUMBER = st.one_of(
    _SMALL.map(str),
    st.sampled_from(["1e4400", '"1e4400"', "-1e-4400", '"1E+4400"', "9" * 2001,
                     '"%s"' % ("9" * 2001), '"1/%s"' % ("7" * 2001), "1e10000000",
                     '"1e10000000"']),
    _SMALL.map(lambda n: f'"{n}"'),
    st.tuples(_SMALL, st.integers(1, 3)).map(lambda t: f'"{t[0]}/{t[1]}"'),
    st.tuples(_SMALL, st.integers(0, 9)).map(lambda t: f"{t[0]}.{t[1]}"),
    st.sampled_from(["9" * MAX_DIGITS, "9" * (MAX_DIGITS + 1), '"%s"' % ("9" * MAX_DIGITS),
                     f'"1e{MAX_DIGITS}"', f'"1e-{MAX_DIGITS + 1}"', '"1_000"', '" 7 "',
                     '"1/0"', '"0x10"', '"nan"', "true", "null", '""', "[1]"]),
)


_LIST = st.lists(_NUMBER, max_size=5).map(lambda xs: "[" + ", ".join(xs) + "]")
# a curve file's JSON text: k, g2, g3 and lead of mixed types, lead optional
_CURVE = st.fixed_dictionaries(
    {"k": st.sampled_from(["2", "1", None]).flatmap(lambda k: st.just(k) if k else _NUMBER),
     "g2": _LIST, "g3": _LIST},
    optional={"lead": _NUMBER},
).map(lambda d: "{" + ", ".join(f'"{key}": {val}' for key, val in d.items()) + "}")


@FUZZ
@given(text=_CURVE)
def test_fuzz_curve_file(capsys, tmp_path, text):
    path = tmp_path / "curve.json"
    path.write_text(text)
    assert main(["curve", str(path)]) in (0, 1, 2)
    capsys.readouterr()


_CATALOG = {f.essential for f in catalog.families()}
_TERM = st.tuples(
    st.sampled_from(["", "0", "1", "2", "9", "20", "10000000", "1000000000000", "9" * 4400]),
    st.sampled_from("ADEQ"),
    st.one_of(st.integers(0, 20).map(str), st.sampled_from(["99", "9" * 5000, "-3"])),
).map("".join)


@FUZZ
@given(text=st.one_of(st.lists(_TERM, min_size=1, max_size=4).map("+".join),
                      st.text(alphabet="0123456789ADEQ+ -", max_size=12)))
def test_fuzz_classify_set(capsys, text):
    try:
        canon = print_singularities(parse_singularities(text))
    except ValueError:
        canon = None
    assume(canon not in _CATALOG)  # catalog sets classify; they are tested above
    assert main(["classify", f"--set={text}"]) in (0, 1, 2)
    capsys.readouterr()
