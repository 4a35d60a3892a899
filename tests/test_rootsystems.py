import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from sexticsym.discrforms import preserves_form
from sexticsym.exactcore import det
from sexticsym.rootsystems import (
    ADEType,
    DynkinGraph,
    component_automorphisms,
    component_edges,
    component_gram,
    decompose_symmetry,
    discr_action,
    gram_of,
    graph_discr,
    graph_symmetries,
    identity_symmetry,
    internal_symmetry_order,
    is_graph_symmetry,
    parse_singularities,
    print_singularities,
)

ALL_TYPES = (
    [ADEType("A", p) for p in range(1, 20)]
    + [ADEType("D", r) for r in range(4, 20)]
    + [ADEType("E", n) for n in (6, 7, 8)]
)


def random_graph(rng, max_rank=19) -> DynkinGraph:
    comps = []
    budget = max_rank
    while budget >= 1:
        choices = [t for t in ALL_TYPES if t.rank <= budget]
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
    assert abs(det(g)) == expected
    # negative definite: leading principal minors alternate in sign
    for k in range(1, t.rank + 1):
        minor = det([row[:k] for row in g[:k]])
        assert minor * (-1) ** k > 0
    # edge count of a tree on rank vertices
    assert len(component_edges(t)) == t.rank - 1


@pytest.mark.parametrize(
    "t, n",
    [
        (ADEType("A", 1), 1),
        (ADEType("A", 2), 2),
        (ADEType("A", 17), 2),
        (ADEType("D", 4), 6),
        (ADEType("D", 5), 2),
        (ADEType("D", 18), 2),
        (ADEType("E", 6), 2),
        (ADEType("E", 7), 1),
        (ADEType("E", 8), 1),
    ],
)
def test_internal_symmetry_orders(t, n):
    assert internal_symmetry_order(t) == n
    assert len(component_automorphisms(t)) == n


def test_gram_of_block_diagonal():
    g = gram_of(DynkinGraph((ADEType("A", 2), ADEType("A", 1))))
    assert g == [[-2, 1, 0], [1, -2, 0], [0, 0, -2]]


# ---------------------------------------------------------------------------
# graph symmetry groups


def sympy_order(sym) -> int:
    """Order of the group the generators generate, by Schreier-Sims."""
    if not sym.generators:
        return 1
    return int(PermutationGroup([Permutation(list(s.perm)) for s in sym.generators]).order())


def expected_sym_order(graph: DynkinGraph) -> int:
    n = 1
    for t, mult in Counter(graph.components).items():
        n *= internal_symmetry_order(t) ** mult * math.factorial(mult)
    return n


@pytest.mark.parametrize(
    "text, order",
    [("3E6", 48), ("A1", 1), ("9A2", 2**9 * math.factorial(9)), ("2E8+A3", 4)],
)
def test_symmetry_group_orders(text, order):
    g = parse_singularities(text)
    sym = graph_symmetries(g)
    assert sym.order == order
    assert sympy_order(sym) == sym.order


def test_symmetry_group_order_random():
    rng = random.Random(5)
    for _ in range(15):
        g = random_graph(rng)
        sym = graph_symmetries(g)
        assert sym.order == expected_sym_order(g)
        assert sympy_order(sym) == sym.order
        for s in sym.generators:
            assert is_graph_symmetry(g, s)


def test_symmetry_elements_closure():
    g = parse_singularities("2A2")
    els = graph_symmetries(g).elements()
    assert len(els) == 8
    assert len({e.perm for e in els}) == 8
    for e in els:
        assert is_graph_symmetry(g, e)
        assert e.compose(e.inverse()).is_identity()


def test_symmetry_elements_refuses_huge_group():
    sym = graph_symmetries(parse_singularities("9A2"))
    assert sym.order == 2**9 * math.factorial(9)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            sym.elements()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_offsets_and_component_of():
    g = parse_singularities("E6+A5+2A2")
    assert g.offsets == (0, 6, 11, 13)
    assert g.offsets is g.offsets  # computed once
    want = [0] * 6 + [1] * 5 + [2] * 2 + [3] * 2
    assert [g.component_of(v) for v in range(g.rank)] == want
    with pytest.raises(IndexError):
        g.component_of(-1)


def test_decompose_symmetry_roundtrip():
    g = parse_singularities("2E6+A5")
    for s in graph_symmetries(g).elements():
        pi, internals = decompose_symmetry(g, s)
        assert sorted(pi) == list(range(len(g.components)))
        for ci, dst in enumerate(pi):
            assert g.components[ci] == g.components[dst]
        assert len(internals) == len(g.components)


# ---------------------------------------------------------------------------
# induced action on the discriminant form


@pytest.mark.parametrize("t", ALL_TYPES)
def test_discr_action_faithful_per_type(t):
    g = DynkinGraph((t,))
    form = graph_discr(g)
    seen = set()
    for s in graph_symmetries(g).elements():
        a = discr_action(g, s)
        assert preserves_form(form, a)
        seen.add(tuple(a.tolist()))
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
    flips = [s for s in graph_symmetries(g).elements() if not s.is_identity()]
    assert len(flips) == 1
    a = discr_action(g, flips[0])
    assert np.array_equal(a, form.encode(-form.element_array))


def test_d4_symmetries_permute_the_three_involutions():
    g = DynkinGraph((ADEType("D", 4),))
    form = graph_discr(g)
    actions = {tuple(discr_action(g, s).tolist()) for s in graph_symmetries(g).elements()}
    assert len(actions) == 6  # full S3 on the nonzero classes


def test_discr_action_functorial():
    rng = random.Random(9)
    for _ in range(6):
        g = random_graph(rng, max_rank=10)
        form = graph_discr(g)
        els = graph_symmetries(g).elements()
        s = rng.choice(els)
        t = rng.choice(els)
        a_st = discr_action(g, s.compose(t))
        a_s = discr_action(g, s)
        a_t = discr_action(g, t)
        assert np.array_equal(a_st, a_s[a_t])
        assert np.array_equal(discr_action(g, identity_symmetry(g)), np.arange(form.order()))


# ---------------------------------------------------------------------------
# singularity grammar


@pytest.mark.parametrize(
    "text, canon",
    [
        ("3E6", "3E6"),
        ("2E8+A3", "2E8+A3"),
        ("A3+2E8", "2E8+A3"),
        ("E6+A5+4A2", "E6+A5+4A2"),
        ("A2+A5", "A5+A2"),
        ("D5+A1", "D5+A1"),
    ],
)
def test_parse_print_roundtrip(text, canon):
    g = parse_singularities(text)
    assert print_singularities(g) == canon
    assert parse_singularities(print_singularities(g)) == g


def test_parse_rejects_garbage():
    for bad in ("", "A0", "B3", "E9", "A2++A3", "2", "A2+", "A-3"):
        with pytest.raises(ValueError):
            parse_singularities(bad)
