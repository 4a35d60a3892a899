import itertools
import math
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
    simple_fiber,
    table1,
)

from helpers import (
    black_vertex_symmetries,
    canonical_form_all_starts,
    check_full_map,
    component_count_by_union_find,
    every_entry,
    full_map,
    mirror,
    oracle_skeletons,
    parse_fibers,
    perfect_matchings,
    permutation_cycles,
    relabeled,
    relabeled_black,
    skeletons_by_all_starts,
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

# every simple fiber type: label, discriminant degree (Euler number), Milnor
# number, and the fiber that elementary_transform contracts it to ("-" where
# it refuses), pinned as literals so the rules are checked against values
SIMPLE_FIBERS = """
    A1~    2  1  D6~
    A2~    3  2  D7~
    A3~    4  3  D8~
    A4~    5  4  D9~
    A5~    6  5  D10~
    A6~    7  6  D11~
    A7~    8  7  D12~
    A8~    9  8  D13~
    A9~   10  9  D14~
    A10~  11 10  D15~
    A11~  12 11  D16~
    A12~  13 12  D17~
    A13~  14 13  D18~
    A14~  15 14  D19~
    A15~  16 15  D20~
    A16~  17 16  D21~
    A17~  18 17  D22~
    A18~  19 18  D23~
    A19~  20 19  D24~
    A0*    1  0  D5~
    A0**   2  0  E6~
    A1*    3  1  E7~
    A2*    4  2  E8~
    D4~    6  4  -
    D5~    7  5  -
    D6~    8  6  -
    D7~    9  7  -
    D8~   10  8  -
    D9~   11  9  -
    D10~  12 10  -
    D11~  13 11  -
    D12~  14 12  -
    D13~  15 13  -
    D14~  16 14  -
    D15~  17 15  -
    D16~  18 16  -
    D17~  19 17  -
    D18~  20 18  -
    D19~  21 19  -
    E6~    8  6  -
    E7~    9  7  -
    E8~   10  8  -
"""


def simple_fibers():
    for line in SIMPLE_FIBERS.strip().splitlines():
        label, degree, milnor, contracted = line.split()
        (f,) = parse_fibers(label)
        yield f, int(degree), int(milnor), contracted


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
    for f, degree, milnor, _ in simple_fibers():
        assert (f.discriminant_degree(), f.milnor()) == (degree, milnor), f.label()
    with pytest.raises(ValueError):
        NON_SIMPLE.discriminant_degree()
    with pytest.raises(ValueError):
        NON_SIMPLE.milnor()


def test_euler_number_rule_round_trip():
    # every simple type comes back from the rule given its Euler number, its
    # kind and whether it is a D type
    for f, _, _, _ in simple_fibers():
        multiplicative = f.family == "A" and f.is_stable
        assert simple_fiber(f.discriminant_degree(), multiplicative, f.family == "D") == f, f.label()
    # the isotrivial companion of an E type has Euler number 12 - e
    for label, companion in (("E6~", "A2*"), ("E7~", "A1*"), ("E8~", "A0**")):
        (f,) = parse_fibers(label)
        assert simple_fiber(12 - f.discriminant_degree(), False).label() == companion


@pytest.mark.parametrize("e, multiplicative, dihedral",
                         [(0, True, False), (1, False, False), (5, False, False), (5, False, True), (11, False, False)])
def test_euler_number_rule_refuses_what_no_fiber_has(e, multiplicative, dihedral):
    # an Euler number no simple fiber of that kind has raises, also under
    # python -O
    with pytest.raises(ValueError):
        simple_fiber(e, multiplicative, dihedral)


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
        # the full map is connected, of genus 0 and has black valencies <= 3
        # and white ones <= 2, checked on it independently of the sphere
        # check on the black darts
        fm = full_map(sk)
        check_full_map(fm)
        sigma, _, color = fm
        vertices = permutation_cycles(sigma)
        # black darts count the degree of the induced covering; unstable
        # vertices (black of valency <= 2, white univalent) absorb part of it
        unstable = [cyc for cyc in vertices if len(cyc) <= (1 if color[cyc[0]] == "w" else 2)]
        blacks = color.count("b")
        assert blacks == len(sk.succ) <= 6 * k
        if not unstable:
            assert blacks == 6 * k
        fibers = fiber_multiset(sk)
        assert sum(t.discriminant_degree() for t in fibers) == 6 * k
        assert sum(not t.is_stable for t in fibers) == len(unstable) <= mx
        assert component_count(sk) in (1, 2, 3)


@pytest.mark.parametrize("max_unstable", range(5))
@pytest.mark.parametrize("k", [1, 2])
def test_enumeration_matches_unpruned_oracle(k, max_unstable):
    # orbit pruning keeps the same representatives, in the same order
    got = [sk.to_json() for sk in enumerate_skeletons(k, max_unstable)]
    assert got == [sk.to_json() for sk in oracle_skeletons(k, max_unstable)]


@pytest.mark.parametrize("k", [1, 2])
def test_dedupe_matches_all_starts_oracle(k):
    # the start-code dedupe keeps the same representatives, in the same
    # order, as keying every sphere candidate by the reference form
    want = skeletons_by_all_starts(k, 4 * k)
    assert enumerate_skeletons(k, 4 * k) == want
    # and some candidates repeat a kept class
    assert sphere_survivors(enumerate_skeletons, k, 4 * k) > len(want)


def unstable_vertices(sk: Skeleton) -> int:
    """b1 + b2 + w1: the black vertices of valency 1 or 2 and the pendants."""
    return sum(len(c) <= 2 for c in sk.black) + sum(d == p for d, p in enumerate(sk.partner))


def test_enumeration_refuses_bad_input():
    # k outside 1..2 and a negative max_unstable are refused, not listed as []
    for k, max_unstable in ((0, 0), (3, 0), (1, -1), (2, -3)):
        with pytest.raises(ValueError):
            enumerate_skeletons(k, max_unstable)


@pytest.mark.parametrize("k,max_unstable", [(k, m) for k in (1, 2) for m in range(4 * k + 1)])
def test_enumeration_is_the_full_listing_filtered(k, max_unstable):
    # the same representatives in the same order as the listing with every
    # unstable count, cut to at most max_unstable unstable vertices
    full = enumerate_skeletons(k, 4 * k)
    assert enumerate_skeletons(k, max_unstable) == [sk for sk in full if unstable_vertices(sk) <= max_unstable]


@pytest.mark.parametrize("max_unstable", range(5))
@pytest.mark.parametrize("k", [1, 2])
def test_genus_check_vertex_count(monkeypatch, k, max_unstable):
    # on every candidate of the unpruned stream, accepted or rejected, the
    # check on the black rotation and the partner involution gives the full
    # map's verdict; the full map has a black vertex per rotation and a
    # white one per orbit of partner
    real, verdicts = dessins._is_sphere, []

    def checked(succ, partner, v):
        verdict = real(succ, partner, v)
        fm = full_map(Skeleton(succ, partner))
        assert len(permutation_cycles(fm[0])) == v + len({frozenset((d, p)) for d, p in enumerate(partner)})
        try:
            check_full_map(fm)
        except ValueError as exc:
            assert not verdict, exc
        else:
            assert verdict
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(dessins, "_is_sphere", checked)
    assert oracle_skeletons(k, max_unstable)
    assert True in verdicts and False in verdicts


# one trivalent vertex with darts 0 and 1 paired and 2 a pendant: a sphere;
# two trivalent vertices with 3-6, 4-7 and 5-8 paired: a torus
SPHERE = ([1, 2, 0], [1, 0, 2], 1)
TORUS = ([1, 2, 0, 4, 5, 3], [3, 4, 5, 0, 1, 2], 2)
SPHERE_BESIDE_TORUS = ([1, 2, 0, 4, 5, 3, 7, 8, 6], [1, 0, 2, 6, 7, 8, 3, 4, 5], 3)


def test_sphere_check_on_literal_maps():
    assert dessins._is_sphere(*SPHERE)
    check_full_map(full_map(Skeleton(*SPHERE[:2])))
    # the torus has V - E + F = 5 - 6 + 1 = 0; beside the sphere the sum is
    # 8 - 9 + 3 = 2, but the map is disconnected
    for succ, partner, v in (TORUS, SPHERE_BESIDE_TORUS):
        assert not dessins._is_sphere(succ, partner, v)
        with pytest.raises(ValueError, match="genus 0" if v == 2 else "connected"):
            check_full_map(full_map(Skeleton(succ, partner)))


@pytest.mark.parametrize("max_unstable", range(5))
@pytest.mark.parametrize("k", [1, 2])
def test_component_count_matches_union_find(k, max_unstable):
    rng = random.Random(100 + 10 * k + max_unstable)
    for sk in enumerate_skeletons(k, max_unstable):
        want = component_count_by_union_find(full_map(sk))
        assert component_count(sk) == want
        assert all(component_count_by_union_find(relabeled(full_map(sk), rng)) == want for _ in range(2))


def canonical_form_calls(fn, *args):
    """fn(*args), and the skeletons it called canonical_form on."""
    calls = []
    real = Skeleton.canonical_form

    def counting(self):
        calls.append(self)
        return real(self)

    with mock.patch.object(Skeleton, "canonical_form", counting):
        return fn(*args), calls


def sphere_survivors(fn, *args) -> int:
    """The number of candidates that pass the sphere check in fn(*args),
    each handed to the dedupe."""
    real, passed = dessins._is_sphere, [0]

    def counting(succ, partner, v):
        verdict = real(succ, partner, v)
        passed[0] += verdict
        return verdict

    with mock.patch.object(dessins, "_is_sphere", counting):
        fn(*args)
    return passed[0]


def test_table1_canonical_forms_pruned():
    pruned = sphere_survivors(table1)
    # table1 enumerates k=2 stable and k=1 with at most one unstable vertex
    unpruned = sphere_survivors(oracle_skeletons, 2, 0) + sphere_survivors(oracle_skeletons, 1, 1)
    assert 0 < 10 * pruned <= unpruned


@pytest.mark.parametrize("k,max_unstable", [(k, m) for k in (1, 2) for m in range(4 * k + 1)])
def test_one_canonical_form_per_skeleton(k, max_unstable):
    # a candidate that repeats a kept class builds no canonical form
    sks, calls = canonical_form_calls(enumerate_skeletons, k, max_unstable)
    assert sorted(map(id, calls)) == sorted(map(id, sks))


def all_profiles():
    """(b3, b2, b1, w1) for every valency profile that enumerate_skeletons
    tries for k = 1 or 2."""
    out = set()
    for k in (1, 2):
        for b1, b2, w1 in itertools.product(range(2 * k + 1), repeat=3):
            b3 = 2 * k - b1 - 2 * b2 - w1
            ndarts = 3 * b3 + 2 * b2 + b1
            if b3 >= 0 and b1 + b2 + b3 and ndarts >= w1:
                out.add((b3, b2, b1, w1))
    return sorted(out)


def profile_rotations(b3, b2, b1):
    """The black rotations enumerate_skeletons builds for these valencies,
    the vertex of each dart, and the number of darts."""
    rot, pos = [], 0
    for val, cnt in ((3, b3), (2, b2), (1, b1)):
        for _ in range(cnt):
            rot.append(tuple(range(pos, pos + val)))
            pos += val
    return rot, [v for v, cyc in enumerate(rot) for _ in cyc], pos


def every_candidate(n, w):
    """Every partner involution on n darts with w pendants: the pendant sets
    in lexicographic order, each followed by every perfect matching of the
    other darts in lexicographic order."""
    for pend in itertools.combinations(range(n), w):
        for matching in perfect_matchings([d for d in range(n) if d not in pend]):
            partner = list(range(n))
            for a, b in matching:
                partner[a], partner[b] = b, a
            yield tuple(partner)


def pendants_and_pairs(partner):
    """The (pendant set, matching) of a partner involution, the order in
    which every_candidate lists them."""
    return (tuple(d for d, p in enumerate(partner) if d == p),
            tuple((d, p) for d, p in enumerate(partner) if d < p))


def assert_least_candidates_kept(b3, b2, b1, w1):
    # the pruned generator yields a subsequence of every candidate, holding
    # the least (pendant set, matching) of each orbit under the brute-force
    # group, which sends partner to g partner g^-1
    rot, vertex, n = profile_rotations(b3, b2, b1)
    got = list(dessins._partners(n, w1, rot, vertex))
    every = iter(every_candidate(n, w1))
    assert all(p in every for p in got)
    group, seen, least = list(black_vertex_symmetries(rot)), set(), set()
    for partner in every_candidate(n, w1):
        if partner not in seen:
            orbit = set()
            for g in group:
                image = [0] * n
                for d, p in enumerate(partner):
                    image[g[d]] = g[p]
                orbit.add(tuple(image))
            seen |= orbit
            least.add(min(orbit, key=pendants_and_pairs))
    assert least <= set(got)


# all_profiles but four trivalent vertices (12 darts, too many to brute-force
# here); the one check runs under two names, on the profiles with pendants
# and on those without
SMALL_PROFILES = [p for p in all_profiles() if 3 * p[0] + 2 * p[1] + p[2] <= 10]


@pytest.mark.parametrize("b3, b2, b1, w1", [p for p in SMALL_PROFILES if p[3]])
def test_orbit_pendants_keep_every_least_pendant_set(b3, b2, b1, w1):
    assert_least_candidates_kept(b3, b2, b1, w1)


@pytest.mark.parametrize("b3, b2, b1", [p[:3] for p in SMALL_PROFILES if not p[3]])
def test_orbit_matchings_keep_every_least_matching(b3, b2, b1):
    assert_least_candidates_kept(b3, b2, b1, 0)


def test_unpruned_partners_are_every_candidate():
    # under every_entry the generator yields every candidate in order:
    # C(n, w) pendant sets, each with (n - w - 1)!! matchings of the rest
    for b3, b2, b1, w1 in all_profiles():
        rot, vertex, n = profile_rotations(b3, b2, b1)
        with every_entry():
            got = list(dessins._partners(n, w1, rot, vertex))
        assert len(got) == math.comb(n, w1) * math.prod(range(n - w1 - 1, 0, -2))
        assert got == list(every_candidate(n, w1))


def test_k2_canonical_forms_pruned():
    # without pendant pruning, enumerate_skeletons(2, 3) had 396 sphere
    # candidates to deduplicate
    assert 0 < 3 * sphere_survivors(enumerate_skeletons, 2, 3) <= 396


def test_even_faces_force_reducibility():
    # if every face has an even number of black corners, the monodromy lies
    # in a proper subgroup and the curve cannot be irreducible
    for k, mx in ((1, 1), (2, 0)):
        for sk in enumerate_skeletons(k, mx):
            sizes = [len(face) for face in sk.faces]  # black darts per face
            if all(s % 2 == 0 for s in sizes):
                assert component_count(sk) >= 2


def test_canonical_form_invariant_under_relabeling(k2_stable_skeletons):
    rng = random.Random(2)
    for sk in k2_stable_skeletons:
        base = sk.canonical_form()
        for _ in range(3):
            fm = relabeled(full_map(sk), rng)
            check_full_map(fm)
            assert canonical_form_all_starts(fm) == base
            assert relabeled_black(sk, rng).canonical_form() == base


@pytest.mark.parametrize("max_unstable", range(5))
@pytest.mark.parametrize("k", [1, 2])
def test_canonical_form_matches_all_starts(k, max_unstable):
    # the least-valency starts and the early exit give the form built in
    # full from every black dart, on every listed skeleton, on its mirror
    # and on random relabelings of both: of all darts of the full map for
    # the reference, of the black darts for the package
    rng = random.Random(10 * k + max_unstable)
    for sk in enumerate_skeletons(k, max_unstable):
        for s in (sk, mirror(sk)):
            want = canonical_form_all_starts(full_map(s))
            assert s.canonical_form() == want
            assert all(canonical_form_all_starts(relabeled(full_map(s), rng)) == want for _ in range(2))
            assert all(relabeled_black(s, rng).canonical_form() == want for _ in range(2))


def test_mirror_involution(k2_stable_skeletons):
    for sk in k2_stable_skeletons:
        m = mirror(sk)
        check_full_map(full_map(m))
        assert mirror(m) == sk
        assert print_fibers(fiber_multiset(m)) == print_fibers(fiber_multiset(sk))


def test_mirror_check_reuses_the_enumeration_key():
    sks = enumerate_skeletons(2, 3)
    flags, calls = canonical_form_calls(lambda: [sk.is_mirror_symmetric() for sk in sks])
    # the mirror is walked once and looked up in the start codes
    assert calls == []
    assert flags == [sk.canonical_form() == mirror(sk).canonical_form() for sk in sks]
    assert any(flags) and not all(flags)


def test_skeleton_validation_rejects_nonsense():
    # no black darts, a rotation that is no permutation, a black vertex of
    # valency 4 and a partner that is no involution (of the wrong length,
    # in the last case) are refused, also under python -O
    for succ, partner, match in (((), (), "no black darts"),
                                 ((1, 1, 0), (0, 1, 2), "permutation"),
                                 ((1, 2, 3, 0), (1, 0, 3, 2), "valency"),
                                 ((1, 2, 0), (1, 2, 0), "involution"),
                                 ((1, 0), (0,), "involution")):
        with pytest.raises(ValueError, match=match):
            Skeleton(succ, partner)


@pytest.mark.parametrize("k", [1, 2])
def test_black_dart_relabeling_keeps_invariants(k):
    # the enumerator numbers the black darts vertex by vertex; conjugating
    # succ and partner by any permutation of them gives the same skeleton
    rng = random.Random(30 + k)
    for sk in enumerate_skeletons(k, 4):
        want = (sk.canonical_form(), component_count(sk), fiber_multiset(sk), sk.is_mirror_symmetric())
        for _ in range(3):
            s = relabeled_black(sk, rng)
            assert (s.canonical_form(), component_count(s), fiber_multiset(s), s.is_mirror_symmetric()) == want


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
    for f, _, _, contracted in simple_fibers():
        if contracted == "-":
            with pytest.raises(ValueError):
                elementary_transform([f], f)
        else:
            assert print_fibers(elementary_transform([f, f], f)) == contracted + "+" + f.label()
    with pytest.raises(ValueError):
        elementary_transform([NON_SIMPLE], NON_SIMPLE)


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
