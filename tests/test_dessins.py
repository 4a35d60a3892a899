import itertools
import random
from unittest import mock

import pytest

from sexticsym import dessins
from sexticsym.dessins import (
    NON_SIMPLE,
    FiberType,
    Skeleton,
    component_count,
    elementary_transform,
    enumerate_skeletons,
    fiber_multiset,
    fiber_multiset_sorted,
    print_fibers,
    table1,
)

from helpers import (
    black_vertex_symmetries,
    canonical_form_all_starts,
    component_count_by_union_find,
    oracle_skeletons,
    parse_fibers,
    relabeled,
)

# frozen enumeration results: fiber multiset -> number of curve components
K2_STABLE = {
    "2A4~+2A0*": 1,
    "A7~+A1~+2A0*": 2,
    "A8~+3A0*": 1,
    "A5~+A2~+A1~+A0*": 2,
    "2A3~+2A1~": 3,
    "4A2~": 1,
}
K1_NEAR_STABLE = {
    "A2~+A0*+A0**": 1,
    "A2*+2A0*": 1,
    "A1~+A1*+A0*": 2,
    "A3~+2A0*": 2,
    "3A1~": 3,
}

TABLE1_ROWS = [
    ("4A2~", True, None),
    ("2A3~+2A1~", False, None),
    ("2A4~+2A0*", True, None),
    ("A5~+A2~+A1~+A0*", False, None),
    ("A7~+A1~+2A0*", False, None),
    ("A8~+3A0*", True, None),
    ("D5~+A3~+A0*", False, None),
    ("D6~+2A1~", False, None),
    ("D8~+2A0*", False, None),
    ("E6~+A2~+A0*", True, "E6~+A2*"),
    ("E7~+A1~+A0*", False, "E7~+A1*"),
    ("E8~+2A0*", True, "E8~+A0**"),
]


# ---------------------------------------------------------------------------
# fiber types and the grammar


def test_fiber_type_labels():
    assert FiberType("A", 2).label() == "A2~"
    assert FiberType("A", 0, 1).label() == "A0*"
    assert FiberType("A", 0, 2).label() == "A0**"
    assert FiberType("A", 1, 1).label() == "A1*"
    assert FiberType("D", 5).label() == "D5~"
    assert FiberType("E", 8).label() == "E8~"
    assert NON_SIMPLE.family == "J"


def test_fiber_type_validation():
    for bad in (("A", 0, 0), ("A", 3, 1), ("D", 3), ("E", 9), ("B", 2)):
        with pytest.raises(ValueError):
            FiberType(*bad)


def test_fiber_type_stability_and_budget():
    assert FiberType("A", 2).is_stable
    assert FiberType("A", 0, 1).is_stable
    for lbl in ("A0**", "A1*", "A2*"):
        (f,) = parse_fibers(lbl)
        assert not f.is_stable
    assert FiberType("A", 4).discriminant_degree() == 5
    assert FiberType("A", 0, 1).discriminant_degree() == 1
    assert FiberType("D", 5).discriminant_degree() == 7
    assert FiberType("E", 8).discriminant_degree() == 10
    assert FiberType("A", 4).milnor() == 4
    assert FiberType("A", 0, 1).milnor() == 0
    assert FiberType("D", 6).milnor() == 6
    assert FiberType("E", 7).milnor() == 7


@pytest.mark.parametrize(
    "text",
    ["4A2~", "E8~+2A0*", "A5~+A2~+A1~+A0*", "A2~+A0*+A0**", "D6~+2A1~"],
)
def test_fiber_grammar_roundtrip(text):
    fibers = parse_fibers(text)
    assert print_fibers(fiber_multiset_sorted(fibers)) == text
    assert parse_fibers(print_fibers(fibers)) == fiber_multiset_sorted(fibers)


def test_fiber_grammar_rejects_garbage():
    for bad in ("", "A2", "A2~~", "A0***", "X1~", "2", "A2~+"):
        with pytest.raises(ValueError):
            parse_fibers(bad)


# ---------------------------------------------------------------------------
# skeleton enumeration


def multiset_components(skeletons):
    return {
        print_fibers(fiber_multiset(s)): component_count(s) for s in skeletons
    }


def test_enumerate_k2_stable(k2_stable_skeletons):
    sks = k2_stable_skeletons
    assert len(sks) == 6
    assert multiset_components(sks) == K2_STABLE


def test_enumerate_k1():
    sks = enumerate_skeletons(1, 1)
    assert len(sks) == 5
    assert multiset_components(sks) == K1_NEAR_STABLE
    stable = enumerate_skeletons(1, 0)
    assert len(stable) == 2
    assert multiset_components(stable) == {
        "A3~+2A0*": 2,
        "3A1~": 3,
    }


@pytest.mark.parametrize("k,mx", [(1, 0), (1, 1), (2, 0)])
def test_skeleton_invariants(k, mx):
    for sk in enumerate_skeletons(k, mx):
        sk.validate()
        v = len(sk.vertex_cycles())
        e = sk.n_darts // 2
        f = len(sk.faces())
        assert v - e + f == 2  # sphere
        # every white vertex has valency <= 2; blacks <= 3
        for cyc in sk.vertex_cycles():
            if sk.color[cyc[0]] == "w":
                assert len(cyc) <= 2
            else:
                assert len(cyc) <= 3
        # black darts count the degree of the induced covering; unstable
        # vertices absorb part of it
        blacks = sum(1 for d in range(sk.n_darts) if sk.color[d] == "b")
        assert blacks <= 6 * k
        if not sk.unstable_vertices():
            assert blacks == 6 * k
        fibers = fiber_multiset(sk)
        assert sum(t.discriminant_degree() for t in fibers) == 6 * k
        assert len(sk.unstable_vertices()) <= mx
        assert component_count(sk) in (1, 2, 3)


@pytest.mark.parametrize("max_unstable", range(5))
@pytest.mark.parametrize("k", [1, 2])
def test_enumeration_matches_unpruned_oracle(k, max_unstable):
    # orbit pruning keeps the same representatives, in the same order
    got = [sk.to_json() for sk in enumerate_skeletons(k, max_unstable)]
    assert got == [sk.to_json() for sk in oracle_skeletons(k, max_unstable)]


@pytest.mark.parametrize("max_unstable", range(5))
@pytest.mark.parametrize("k", [1, 2])
def test_genus_check_vertex_count(monkeypatch, k, max_unstable):
    # on every candidate of the unpruned stream, accepted or rejected, the
    # check on the black rotations, the matching and the pendants gives the
    # full map's verdict; the full map has a black vertex per rotation and a
    # white one per matched pair and per pendant
    real, verdicts = dessins._is_sphere, []

    def checked(rot, vertex, matching, pendants):
        verdict = real(rot, vertex, matching, pendants)
        sk = dessins._reduced_to_skeleton(rot, matching, pendants)
        v = len(sk.vertex_cycles())
        assert v == len(rot) + len(matching) + len(pendants)
        assert verdict == (sk.is_connected() and v - sk.n_darts // 2 + len(sk.faces()) == 2)
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(dessins, "_is_sphere", checked)
    assert oracle_skeletons(k, max_unstable)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("max_unstable", range(5))
@pytest.mark.parametrize("k", [1, 2])
def test_component_count_matches_union_find(k, max_unstable):
    rng = random.Random(100 + 10 * k + max_unstable)
    for sk in enumerate_skeletons(k, max_unstable):
        want = component_count_by_union_find(sk)
        assert component_count(sk) == want
        assert all(component_count(relabeled(sk, rng)) == want for _ in range(2))


def canonical_forms_built(fn, *args) -> int:
    """The number of canonical_form calls fn(*args) makes."""
    calls = [0]
    real = Skeleton.canonical_form

    def counting(self):
        calls[0] += 1
        return real(self)

    with mock.patch.object(Skeleton, "canonical_form", counting):
        fn(*args)
    return calls[0]


def test_table1_canonical_forms_pruned():
    pruned = canonical_forms_built(table1)
    # table1 enumerates k=2 stable and k=1 with at most one unstable vertex
    unpruned = canonical_forms_built(oracle_skeletons, 2, 0) + canonical_forms_built(oracle_skeletons, 1, 1)
    assert 0 < 10 * pruned <= unpruned


def pendant_profiles():
    """(b3, b2, b1, w1) for every valency profile with w1 >= 1 that
    enumerate_skeletons tries for k = 1 or 2."""
    out = set()
    for k in (1, 2):
        for b1, b2, w1 in itertools.product(range(2 * k + 1), repeat=3):
            b3 = 2 * k - b1 - 2 * b2 - w1
            ndarts = 3 * b3 + 2 * b2 + b1
            if w1 >= 1 and b3 >= 0 and b1 + b2 + b3 and ndarts >= w1 and (ndarts - w1) % 2 == 0:
                out.add((b3, b2, b1, w1))
    return sorted(out)


@pytest.mark.parametrize("b3, b2, b1, w1", pendant_profiles())
def test_orbit_pendants_keep_every_least_pendant_set(b3, b2, b1, w1):
    rot, pos = [], 0
    for val, cnt in ((3, b3), (2, b2), (1, b1)):
        for _ in range(cnt):
            rot.append(tuple(range(pos, pos + val)))
            pos += val
    vertex = [v for v, cyc in enumerate(rot) for _ in cyc]
    got = [tuple(p) for p in dessins._orbit_pendants(list(range(pos)), w1, rot, vertex, frozenset())]
    # a subsequence of every w1-set in lexicographic order
    every = itertools.combinations(range(pos), w1)
    assert all(p in every for p in got)
    # holding the least member of each orbit under the brute-force group
    group = list(black_vertex_symmetries(rot))
    least = {min(tuple(sorted(g[d] for d in p)) for g in group) for p in itertools.combinations(range(pos), w1)}
    assert least <= set(got)


def test_k2_canonical_forms_pruned():
    # without pendant pruning, enumerate_skeletons(2, 3) built 396
    assert 0 < 3 * canonical_forms_built(enumerate_skeletons, 2, 3) <= 396


def test_even_faces_force_reducibility():
    # if every face has an even number of black corners, the monodromy lies
    # in a proper subgroup and the curve cannot be irreducible
    for k, mx in ((1, 1), (2, 0)):
        for sk in enumerate_skeletons(k, mx):
            sizes = [
                sum(1 for d in face if sk.color[d] == "b") for face in sk.faces()
            ]
            if all(s % 2 == 0 for s in sizes):
                assert component_count(sk) >= 2


def test_canonical_form_invariant_under_relabeling(k2_stable_skeletons):
    rng = random.Random(2)
    for sk in k2_stable_skeletons:
        base = sk.canonical_form()
        for _ in range(3):
            sk2 = relabeled(sk, rng)
            sk2.validate()
            assert sk2.canonical_form() == base


@pytest.mark.parametrize("max_unstable", range(5))
@pytest.mark.parametrize("k", [1, 2])
def test_canonical_form_matches_all_starts(k, max_unstable):
    # the least-valency starts and the early exit give the form built in
    # full from every black dart, on every listed skeleton, on its mirror
    # and on random relabelings of both
    rng = random.Random(10 * k + max_unstable)
    for sk in enumerate_skeletons(k, max_unstable):
        for s in (sk, sk.mirror()):
            want = canonical_form_all_starts(s)
            assert s.canonical_form() == want
            assert all(relabeled(s, rng).canonical_form() == want for _ in range(2))


def test_mirror_involution(k2_stable_skeletons):
    for sk in k2_stable_skeletons:
        m = sk.mirror()
        m.validate()
        assert m.mirror().canonical_form() == sk.canonical_form()
        assert print_fibers(fiber_multiset(m)) == print_fibers(fiber_multiset(sk))


def test_mirror_check_reuses_the_enumeration_key():
    calls = []
    canonical_form = Skeleton.canonical_form

    def counted(sk):
        calls.append(sk)
        return canonical_form(sk)

    with mock.patch.object(Skeleton, "canonical_form", counted):
        sks = enumerate_skeletons(2, 3)
        del calls[:]
        flags = [sk.is_mirror_symmetric() for sk in sks]
        # one call per skeleton, for its mirror
        assert len(calls) == len(sks)
        assert flags == [sk.canonical_form() == sk.mirror().canonical_form() for sk in sks]
    assert any(flags) and not all(flags)


def test_skeleton_validation_rejects_nonsense():
    with pytest.raises(ValueError):
        # alpha is not an involution
        Skeleton((1, 0), (1, 0), ("b", "w")).validate()


# ---------------------------------------------------------------------------
# elementary transformations and the fiber table


def test_elementary_transform_examples():
    fibers = parse_fibers("3A1~")
    out = elementary_transform(fibers, FiberType("A", 1))
    assert print_fibers(out) == "D6~+2A1~"
    out = elementary_transform(parse_fibers("A2~+A0*+A0**"), FiberType("A", 0, 2))
    assert print_fibers(out) == "E6~+A2~+A0*"
    out = elementary_transform(parse_fibers("A1~+A1*+A0*"), FiberType("A", 1, 1))
    assert print_fibers(out) == "E7~+A1~+A0*"
    out = elementary_transform(parse_fibers("A2*+2A0*"), FiberType("A", 2, 1))
    assert print_fibers(out) == "E8~+2A0*"
    out = elementary_transform(parse_fibers("A3~+2A0*"), FiberType("A", 0, 1))
    assert print_fibers(out) == "D5~+A3~+A0*"
    with pytest.raises(ValueError):
        elementary_transform(parse_fibers("3A1~"), FiberType("A", 2))


def test_table1_exact(table1_rows):
    rows = table1_rows
    assert len(rows) == 12
    got = [
        (
            print_fibers(r.fibers),
            r.irreducible,
            print_fibers(r.isotrivial_degeneration)
            if r.isotrivial_degeneration
            else None,
        )
        for r in rows
    ]
    assert sorted(got) == sorted(TABLE1_ROWS)
    assert sum(1 for r in rows if r.irreducible) == 5
    irreducible = {print_fibers(r.fibers) for r in rows if r.irreducible}
    assert irreducible == {
        "4A2~",
        "2A4~+2A0*",
        "A8~+3A0*",
        "E6~+A2~+A0*",
        "E8~+2A0*",
    }


def test_table1_budget(table1_rows):
    for r in table1_rows:
        assert sum(f.discriminant_degree() for f in r.fibers) == 12
        assert all(f.is_stable for f in r.fibers)
        assert sum(f.milnor() for f in r.fibers) == 8
