import json
from collections import Counter
from importlib import resources

from sexticsym import catalog
from sexticsym.dessins import FiberType, fiber_multiset_sorted, print_fibers
from sexticsym.rootsystems import parse_singularities

TAG_KERNELS = {
    "TorusW6": (3, 1),
    "Weight8": (3, 2),
    "Weight9": (3, 3),
    "D10": (5, 1),
    "D14": (7, 1),
    "TwoE8": (None, 0),
}


def test_data_file_parsed_once_and_never_mutated():
    # _load's dict is shared by every caller in the process
    assert catalog._load() is catalog._load()
    assert catalog.families() == catalog.families()
    assert catalog.quotient_dictionary() == catalog.quotient_dictionary()
    fresh = json.loads(resources.files("sexticsym").joinpath("data/families.json").read_text())
    assert catalog._load() == fresh


def test_family_counts_and_tags():
    fams = catalog.families()
    assert len(fams) == 34
    assert Counter(f.tag for f in fams) == {
        "TorusW6": 19,
        "Weight8": 5,
        "Weight9": 1,
        "D10": 3,
        "D14": 1,
        "TwoE8": 5,
    }
    assert len({f.essential for f in fams}) == 34


def test_family_kernel_specs_follow_tags():
    for f in catalog.families():
        assert f.kernel_spec == TAG_KERNELS[f.tag]


def test_family_essentials_parse_and_fit():
    for f in catalog.families():
        g = parse_singularities(f.essential)
        assert g.rank <= 19


def test_weights():
    w = lambda s: catalog.weight(parse_singularities(s))
    assert w("3E6") == 6
    assert w("A17") == 6
    assert w("2A8") == 6
    assert w("2E6+A5") == 6
    assert w("E6+6A2") == 8
    assert w("9A2") == 9
    assert w("4A4") == 0
    assert w("2E8+A3") == 0
    for f in catalog.families():
        wt = w(f.essential)
        if f.tag == "TorusW6":
            assert 6 <= wt <= 7
        elif f.tag == "Weight8":
            assert wt == 8
        elif f.tag == "Weight9":
            assert wt == 9


def test_expected_groups_contain_involution_except_d14():
    even_order = {"Z2", "S3", "GD(Z3xZ3)"}
    for f in catalog.families():
        if f.expected_group == "trivial":
            assert f.tag == "TorusW6"
        elif f.tag == "D14":
            assert f.expected_group == "Z3"
        else:
            assert f.expected_group in even_order


# ---------------------------------------------------------------------------
# the quotient dictionary


def test_quotient_dictionary_rows():
    rows = catalog.quotient_dictionary()
    assert len(rows) == 19
    assert Counter(r.trigonal for r in rows) == {
        "4A2": 6,
        "E8": 5,
        "E6+A2": 3,
        "2A4": 3,
        "A8": 2,
    }
    # every source is a catalogued family whose stable group has even order;
    # the one odd-order family (3A6 with Z3) has no involution to quotient by
    by_essential = {f.essential: f for f in catalog.families()}
    sources = {r.sextic_essential for r in rows}
    for r in rows:
        f = by_essential[r.sextic_essential]
        assert f.expected_group in ("Z2", "S3", "GD(Z3xZ3)")
    for f in catalog.families():
        if f.expected_group not in ("trivial", "Z3"):
            assert f.essential in sources


def test_quotient_targets_are_the_irreducible_maximal_sets(table1_rows):
    irreducible = {
        print_fibers(fiber_multiset_sorted(r.fibers))
        for r in table1_rows
        if r.irreducible
    }
    seen = set()
    for row in catalog.quotient_dictionary():
        g = parse_singularities(row.trigonal)
        fibers = [FiberType(t.family, t.rank) for t in g.components]
        pad = 12 - sum(f.discriminant_degree() for f in fibers)
        assert pad >= 0
        fibers += [FiberType("A", 0, 1)] * pad
        label = print_fibers(fiber_multiset_sorted(fibers))
        assert label in irreducible
        seen.add(label)
    assert seen == irreducible
