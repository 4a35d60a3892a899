import math
import random
from collections import Counter
from fractions import Fraction
from typing import Tuple

import pytest
import sympy
from sympy.combinatorics import Permutation, PermutationGroup

from sexticsym.dessins import FiberType
from sexticsym.exactcore import RatPoly
from sexticsym.rootsystems import (
    ADEType,
    DynkinGraph,
    GraphSymmetry,
    component_automorphisms,
    component_discr,
    component_edges,
    component_gram,
    component_minnorm,
    discr_action,
    graph_discr,
    graph_symmetries,
    parse_singularities,
    print_singularities,
    root_code,
)
from sexticsym.weierstrass import WeierstrassCurve

from helpers import (
    automorphisms_by_search,
    class_minima,
    component_of,
    compose,
    elements,
    from_perm,
    is_graph_symmetry,
    is_identity,
    multiplication_table,
    offsets,
    preserves_form,
    root_mask,
    symmetries,
    vertex_perm,
)

ALL_TYPES = (
    [ADEType("A", p) for p in range(1, 20)]
    + [ADEType("D", r) for r in range(4, 20)]
    + [ADEType("E", n) for n in (6, 7, 8)]
)


# types small enough that a random graph often repeats one, so that its
# symmetries permute components
SMALL_TYPES = [ADEType("A", p) for p in range(1, 6)] + [ADEType("D", 4), ADEType("E", 6)]


def random_graph(rng, max_rank=19, types=ALL_TYPES) -> DynkinGraph:
    comps = []
    budget = max_rank
    while budget >= 1:
        choices = [t for t in types if t.rank <= budget]
        t = rng.choice(choices)
        comps.append(t)
        budget -= t.rank
        if rng.random() < 0.35:
            break
    return DynkinGraph(tuple(sorted(comps)))


# ---------------------------------------------------------------------------
# Dynkin data


def test_adetype_validation():
    with pytest.raises(ValueError):
        ADEType("A", 0)
    with pytest.raises(ValueError):
        ADEType("D", 3)
    with pytest.raises(ValueError):
        ADEType("E", 9)
    with pytest.raises(ValueError):
        ADEType("B", 2)


@pytest.mark.parametrize("t", ALL_TYPES)
def test_component_gram_determinants(t):
    g = [list(r) for r in component_gram(t)]
    if t.family == "A":
        expected = t.rank + 1
    elif t.family == "D":
        expected = 4
    else:
        expected = {6: 3, 7: 2, 8: 1}[t.rank]
    assert abs(sympy.Matrix(g).det()) == expected
    # negative definite: leading principal minors alternate in sign
    for k in range(1, t.rank + 1):
        minor = sympy.Matrix([row[:k] for row in g[:k]]).det()
        assert minor * (-1) ** k > 0
    # edge count of a tree on rank vertices
    assert len(component_edges(t)) == t.rank - 1


@pytest.mark.parametrize("t, n", [
    (ADEType("A", 1), 1),
    (ADEType("A", 2), 2),
    (ADEType("A", 17), 2),
    (ADEType("D", 4), 6),
    (ADEType("D", 5), 2),
    (ADEType("D", 18), 2),
    (ADEType("E", 6), 2),
    (ADEType("E", 7), 1),
    (ADEType("E", 8), 1),
])
def test_internal_symmetry_orders(t, n):
    assert len(component_automorphisms(t)) == n


@pytest.mark.parametrize("t", ALL_TYPES)
def test_component_automorphisms_match_search(t):
    # the closed form against every adjacency-preserving permutation
    assert list(component_automorphisms(t)) == automorphisms_by_search(t)


# ---------------------------------------------------------------------------
# graph symmetry groups


def sympy_order(graph: DynkinGraph, sym) -> int:
    """Order of the group the generators generate, by Schreier-Sims."""
    if not sym.generators:
        return 1
    return int(PermutationGroup([Permutation(list(vertex_perm(graph, s))) for s in sym.generators]).order())


def expected_sym_order(graph: DynkinGraph) -> int:
    n = 1
    for t, mult in Counter(graph.components).items():
        n *= len(component_automorphisms(t)) ** mult * math.factorial(mult)
    return n


@pytest.mark.parametrize(
    "text, order",
    [("3E6", 48), ("A1", 1), ("9A2", 2**9 * math.factorial(9)), ("2E8+A3", 4)],
)
def test_symmetry_group_orders(text, order):
    g = parse_singularities(text)
    sym = graph_symmetries(g)
    assert sym.order == order
    assert sympy_order(g, sym) == sym.order


def test_symmetry_group_order_random():
    rng = random.Random(5)
    for _ in range(15):
        g = random_graph(rng)
        sym = graph_symmetries(g)
        assert sym.order == expected_sym_order(g)
        assert sympy_order(g, sym) == sym.order
        for s in sym.generators:
            assert is_graph_symmetry(g, s)


def test_symmetry_elements_closure():
    g = parse_singularities("2A2")
    els = symmetries(g)
    assert len(els) == 8
    assert len({vertex_perm(g, e) for e in els}) == 8
    for e in els:
        assert is_graph_symmetry(g, e)


def test_offsets_and_component_of():
    g = parse_singularities("2E6+A3+2A2")
    assert offsets(g) == [0, 6, 12, 15, 17]
    want = [0] * 6 + [1] * 6 + [2] * 3 + [3] * 2 + [4] * 2
    assert [component_of(g, v) for v in range(g.rank)] == want


def test_decompose_symmetry_roundtrip():
    """A symmetry's component images round-trip through its vertex
    permutation, and a permutation that is no symmetry is refused."""
    g = parse_singularities("2E6+A3+2A2")
    els = symmetries(g)
    perms = [vertex_perm(g, s) for s in els]
    assert len(set(perms)) == len(els) == graph_symmetries(g).order
    for s, perm in zip(els, perms):
        assert sorted(perm) == list(range(g.rank))
        assert from_perm(g, perm) == s
        targets = [target for target, _ in s.images]
        assert sorted(targets) == list(range(len(g.components)))
        assert [g.components[c] for c in targets] == list(g.components)
    # the first E6 vertex sent into A3
    swap = list(range(g.rank))
    swap[0], swap[12] = 12, 0
    with pytest.raises(ValueError, match="does not preserve component types"):
        from_perm(g, swap)
    # one vertex of the first A2 sent into the second
    swap = list(range(g.rank))
    swap[15], swap[17] = 17, 15
    with pytest.raises(ValueError, match="splits a component"):
        from_perm(g, swap)


def random_symmetries(rng, g: DynkinGraph, n: int):
    """n uniformly random symmetries of g, built from their images: each
    run of isomorphic components shuffled, each component mapped by a
    random automorphism."""
    runs = {}
    for c, t in enumerate(g.components):
        runs.setdefault(t, []).append(c)
    out = []
    for _ in range(n):
        targets = [0] * len(g.components)
        for cs in runs.values():
            for c, target in zip(cs, rng.sample(cs, len(cs))):
                targets[c] = target
        out.append(GraphSymmetry(tuple((target, rng.choice(component_automorphisms(t)))
                                       for target, t in zip(targets, g.components))))
    return out


def test_symmetries_order_and_compose_as_vertex_permutations():
    rng = random.Random(3)
    moved = 0
    for _ in range(15):
        g = random_graph(rng, max_rank=7, types=SMALL_TYPES)
        els = symmetries(g)
        assert sorted(els) == sorted(els, key=lambda s: vertex_perm(g, s))
        for s, t in zip(random_symmetries(rng, g, 30), random_symmetries(rng, g, 30)):
            ps, pt = vertex_perm(g, s), vertex_perm(g, t)
            assert vertex_perm(g, compose(s, t)) == tuple(ps[v] for v in pt)
            moved += any(target != c for c, (target, _) in enumerate(s.images))
    assert moved  # some pairs permute components


# ---------------------------------------------------------------------------
# induced action on the discriminant form


@pytest.mark.parametrize("t", ALL_TYPES)
def test_discr_action_faithful_per_type(t):
    g = DynkinGraph((t,))
    form = graph_discr(g)
    seen = set()
    for s in symmetries(g):
        a = discr_action(g, s, range(form.order()))
        assert preserves_form(form, a)
        seen.add(a)
    # the symmetry group embeds in the automorphisms of the form
    # (for E8 both sides are trivial)
    assert len(seen) == graph_symmetries(g).order


@pytest.mark.parametrize(
    "t",
    [ADEType("A", p) for p in range(2, 20)]
    + [ADEType("D", r) for r in range(5, 20, 2)]
    + [ADEType("E", 6)],
)
def test_unique_flip_acts_as_minus_identity(t):
    g = DynkinGraph((t,))
    form = graph_discr(g)
    flips = [s for s in symmetries(g) if not is_identity(s)]
    assert len(flips) == 1
    a = discr_action(g, flips[0], range(form.order()))
    assert a == multiplication_table(form, -1)


def test_d4_symmetries_permute_the_three_involutions():
    g = DynkinGraph((ADEType("D", 4),))
    form = graph_discr(g)
    actions = {discr_action(g, s, range(form.order())) for s in symmetries(g)}
    assert len(actions) == 6  # full S3 on the nonzero classes


def test_discr_action_functorial():
    rng = random.Random(9)
    for _ in range(6):
        g = random_graph(rng, max_rank=10)
        form = graph_discr(g)
        els = symmetries(g)
        s = rng.choice(els)
        t = rng.choice(els)
        a_st = discr_action(g, compose(s, t), range(form.order()))
        a_s = discr_action(g, s, range(form.order()))
        a_t = discr_action(g, t, range(form.order()))
        assert a_st == tuple(a_s[x] for x in a_t)
        identity = from_perm(g, range(g.rank))
        assert discr_action(g, identity, range(form.order())) == tuple(range(form.order()))


def moved_lifts_oracle(g: DynkinGraph, perm) -> Tuple[int, ...]:
    """discr_action from the vertex permutation alone: each canonical
    generator's lift, moved by perm, is projected component by component."""
    form = graph_discr(g)
    offs = offsets(g)
    images = []
    for t, off in zip(g.components, offs):
        for lift in component_discr(t).lifts:
            moved = [0] * g.rank
            for i, x in enumerate(lift):
                moved[perm[off + i]] = x
            images.append(form.decode(sum(component_discr(u).project(moved[o:o + u.rank]) * w
                                          for u, o, w in zip(g.components, offs, form.block_weights))))
    return tuple(form.encode([sum(a * y for a, y in zip(x, col)) for col in zip(*images)])
                 for x in elements(form))


def test_discr_action_matches_moved_lifts():
    rng = random.Random(11)
    moved = 0
    for _ in range(12):
        g = random_graph(rng, max_rank=12, types=SMALL_TYPES)
        for s in random_symmetries(rng, g, 8):
            table = discr_action(g, s, range(graph_discr(g).order()))
            assert table == moved_lifts_oracle(g, vertex_perm(g, s))
            moved += any(target != c for c, (target, _) in enumerate(s.images))
    assert moved  # some symmetries permute components


# ---------------------------------------------------------------------------
# singularity grammar


@pytest.mark.parametrize("text, canon", [
    ("3E6", "3E6"),
    ("2E8+A3", "2E8+A3"),
    ("A3+2E8", "2E8+A3"),
    ("E6+A5+4A2", "E6+A5+4A2"),
    ("A2+A5", "A5+A2"),
    ("D5+A1", "D5+A1"),
])
def test_parse_print_roundtrip(text, canon):
    g = parse_singularities(text)
    assert print_singularities(g) == canon
    assert parse_singularities(print_singularities(g)) == g


def test_parse_rejects_garbage():
    for bad in ("", "A0", "B3", "E9", "A2++A3", "2", "A2+", "A-3"):
        with pytest.raises(ValueError):
            parse_singularities(bad)


def test_parse_refuses_rank_above_19():
    assert parse_singularities("2E8+A3").rank == 19
    # the multiplicity is checked before it is expanded into components
    for big in ("2E8+A3+A1", "20A1", "A20", "1000000000000A2"):
        with pytest.raises(ValueError, match="total rank exceeds 19"):
            parse_singularities(big)


# ---------------------------------------------------------------------------
# least norms of the classes, and roots


@pytest.mark.parametrize("t", [t for t in ALL_TYPES if t.rank <= 8], ids=ADEType.label)
def test_minnorm_matches_short_vector_search(t):
    # every class of a rank <= 8 type holds a vector of norm <= 20/9 (A8's
    # class 4), so the search up to norm 3 finds every class's least norm
    form = component_discr(t).form
    found = class_minima(t, Fraction(3))
    assert sorted(found) == list(range(form.order()))
    assert [Fraction(m, form.level) for m in component_minnorm(t)] == [found[c] for c in range(form.order())]


@pytest.mark.parametrize("n", range(1, 20))
def test_minnorm_of_a_n(n):
    # the minuscule weight of class k of A_n has norm k (n + 1 - k) / (n + 1)
    form = component_discr(ADEType("A", n)).form
    got = sorted(Fraction(m, form.level) for m in component_minnorm(ADEType("A", n)))
    assert got == sorted(Fraction(k * (n + 1 - k), n + 1) for k in range(n + 1))


@pytest.mark.parametrize("t", ALL_TYPES, ids=ADEType.label)
def test_minnorm_is_minus_q_mod_2(t):
    form = component_discr(t).form
    for c, m in enumerate(component_minnorm(t)):
        assert (Fraction(m, form.level) + form.q(form.decode(c))) % 2 == 0


@pytest.mark.parametrize("text", ["9A2", "3E6", "2D4+A2", "A8+A5+A2", "D7+D5+E7", "D4+2D6", "A17", "A11+A5"])
def test_root_code_matches_short_vector_search(text):
    # one code at a time, root_code finds a root exactly where the
    # helpers' search does
    g = parse_singularities(text)
    codes = range(graph_discr(g).order())
    assert [root_code(g, [x]) == x for x in codes] == root_mask(g).tolist()
    assert root_code(g, codes) == next((x for x in codes if root_mask(g)[x]), None)


# ---------------------------------------------------------------------------
# record types

RECORDS = [
    [ADEType("E", 6), ADEType("A", 2), ADEType("D", 4), ADEType("A", 17), ADEType("E", 8)],
    [FiberType("A", 0, 2), FiberType("E", 6), FiberType("A", 0, 1), FiberType("A", 3), FiberType("J", 0)],
    sorted({s for g in ("3E6", "2A8", "D4+A5") for s in graph_symmetries(parse_singularities(g)).generators},
           reverse=True),
    [parse_singularities(g) for g in ("9A2", "E6+A5", "2A8", "D4+A2", "A1")],
]


@pytest.mark.parametrize("values", RECORDS, ids=lambda vs: type(vs[0]).__name__)
def test_records_hash_and_order_as_their_field_tuples(values):
    # a frozen dataclass's hash and order, which set order and the sorted
    # reports were made with, and it cannot be changed in place
    fields = [tuple(getattr(x, f) for f in type(x)._fields) for x in values]
    assert [hash(x) for x in values] == [hash(f) for f in fields]
    assert [fields[values.index(x)] for x in sorted(values)] == sorted(fields)
    name = type(values[0])._fields[0]
    with pytest.raises(AttributeError):
        setattr(values[0], name, getattr(values[1], name))


@pytest.mark.parametrize("make", [
    lambda: ADEType("E", 9),
    lambda: FiberType("A", 0, 3),
    lambda: DynkinGraph(()),
    lambda: WeierstrassCurve(0, RatPoly([1]), RatPoly([1])),
], ids=["E9", "A0***", "empty graph", "k=0"])
def test_validating_records_refuse_a_bad_value(make):
    with pytest.raises(ValueError):
        make()
