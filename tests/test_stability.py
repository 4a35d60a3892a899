import functools
import gc
import hashlib
import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from sexticsym import catalog, stability
from sexticsym.cli import main
from sexticsym.discrforms import (
    FiniteQuadraticForm,
    Subgroup,
    greedy_generators,
    isotropic_subspaces,
    kernel_perp,
    torsion_space,
)
from sexticsym.rootsystems import (
    ADEType,
    DynkinGraph,
    _element_orders,
    _primary_invariants,
    _vertex_perms,
    component_code_tables,
    component_discr,
    discr_action,
    graph_discr,
    graph_symmetries,
    parse_singularities,
)
from sexticsym.stability import (
    Configuration,
    _least_lines,
    _stabilizer,
    _torsion_coordinates,
    admissible_kernels,
    classify_family,
    configuration,
    identify_group,
    sym_stable,
    torus_candidates,
)

from helpers import (
    brute_perp,
    catalog_kernels,
    closure,
    compose,
    element_orders_by_composition,
    elements,
    form_b,
    form_q,
    from_perm,
    identify_group_by_composition,
    involution_patterns,
    is_identity,
    kernel_orbits,
    least_kernel_breadth_first,
    offsets,
    perm_signs,
    root_mask,
    signed_permutation,
    spanned,
    symmetries,
    vertex_perm,
)


def config(text: str, gens):
    g = parse_singularities(text)
    form = graph_discr(g)
    return configuration(g, spanned(form, gens))


def act(g, s, x):
    """Image of the coordinate vector x under the automorphism induced by s."""
    form = graph_discr(g)
    return form.decode(discr_action(g, s, [form.encode(x)])[0])


def contains(k: Subgroup, x) -> bool:
    """Whether the coordinate vector x lies in the subgroup k."""
    return k.form.encode(x) in k.codes


def torsion_vectors(space, codes):
    """The p-torsion codes as coordinate vectors of F_p^m; sorted codes
    give sorted vectors."""
    return [tuple(x // b % space.p for b in space.basis_codes) for x in codes]


# ---------------------------------------------------------------------------
# configuration validation


def test_configuration_rejects_bad_kernels():
    g = parse_singularities("3E6")
    form = graph_discr(g)
    with pytest.raises(ValueError):
        configuration(g, spanned(form, [(1, 0, 0)]))  # not isotropic
    # isotropic 2-torsion exists in discr D8 but kernels must have odd order
    g2 = parse_singularities("D8")
    form2 = graph_discr(g2)
    k2 = spanned(form2, [(0, 1)])
    assert form_q(form2, (0, 1)) == 0
    with pytest.raises(ValueError):
        configuration(g2, k2)


def test_configuration_refuses_a_kernel_with_a_root():
    # (1, 1, 1) on three A2 components is the class of a root of the
    # overlattice: 2/3 + 2/3 + 2/3 = 2
    g = parse_singularities("9A2")
    form = graph_discr(g)
    k = spanned(form, [(1, 1, 1, 0, 0, 0, 0, 0, 0)])
    assert root_mask(g)[form.encode((1, 1, 1, 0, 0, 0, 0, 0, 0))]
    with pytest.raises(ValueError, match=r"root: its element \(1, 1, 1, 0, 0, 0, 0, 0, 0\) \(code 9477\)"):
        configuration(g, k)
    # the line through (1, ..., 1) has norm 6 and passes
    assert configuration(g, spanned(form, [(1,) * 9])).kernel.order() == 3


def test_configuration_rank_guard(monkeypatch):
    # rank 20; parse_singularities refuses it, so it is built directly
    g = DynkinGraph((ADEType("E", 8), ADEType("E", 8), ADEType("A", 3), ADEType("A", 1)))
    form = graph_discr(g)

    def refuse(*args):
        raise AssertionError("per-element work before the rank check")

    # refused before any per-element work on the form: every element
    # operation, and the torsion space, fail the test if they run
    for name in ("encode", "decode", "add_codes", "block_codes"):
        monkeypatch.setattr(FiniteQuadraticForm, name, refuse)
    monkeypatch.setattr(stability, "torsion_space", refuse)
    with pytest.raises(ValueError, match="total rank exceeds 19"):
        configuration(g, Subgroup.trivial(form))
    with pytest.raises(ValueError, match="total rank exceeds 19"):
        admissible_kernels(g, 3, 1)


# ---------------------------------------------------------------------------
# symmetry groups of configurations


def test_stabilizer_3e6():
    # the line through (1, 1, 1) of 3E6's F_3^3, one run of three: its
    # stabilizer in W against every signed permutation that keeps it
    line = [(0, 0, 0), (1, 1, 1), (2, 2, 2)]
    order, gens = _stabilizer(3, [3], line)
    stab = {x for x in signed_perms([3]) if sorted(apply_signed(x, v, 3) for v in line) == line}
    assert order == len(stab) == 12
    assert signed_closure(gens, 3) == {tuple(zip(*x)) for x in stab}


def test_sym_stable_3e6():
    c = config("3E6", [(1, 1, 1)])
    rep = sym_stable(c)
    assert rep.order == 6
    assert rep.label == "S3"
    assert rep.kappa_order == 2
    assert not rep.kappa_faithful
    assert rep.orbit_partition == ((0, 1, 2),)
    # the stable group is a subgroup of the symmetries that keep the kernel
    cfg = {vertex_perm(c.graph, s) for s in symmetries(c.graph)
           if all(contains(c.kernel, act(c.graph, s, x)) for x in c.kernel.elements)}
    stab = {vertex_perm(c.graph, s) for s in rep.elements}
    assert stab < cfg


@pytest.mark.parametrize(
    "text, gens",
    [
        ("3E6", [(1, 1, 1)]),
        ("3E6", []),
        ("4A4", [(1, 1, 2, 2)]),
        ("3A5", [(2, 2, 2)]),
        ("2A5+2A2", [(2, 2, 1, 1)]),
        ("2A5+4A2", [(0, 2, 1, 1, 1, 1), (2, 0, 1, 1, 2, 2)]),
        ("2E6+A5+A2", [(1, 1, 2, 0)]),
        ("3A6", [(1, 2, 3)]),
        ("2E8+A3", []),
    ],
    ids=["3E6", "3E6-K0", "4A4", "3A5", "2A5+2A2", "2A5+4A2", "2E6+A5+A2", "3A6", "2E8+A3-K0"],
)
def test_stability_condition_explicit(text, gens):
    # reference over every symmetry of the graph (order <= 10^4): stable iff
    # it maps the generators of K into K and moves each z of K-perp (found
    # from b alone) by an element of K
    c = config(text, gens)
    g = c.graph
    form = graph_discr(g)
    kgens = c.kernel.generators()
    perp = [x for x in elements(form) if all(form_b(form, x, y) == 0 for y in kgens)]
    assert len(perp) == form.order() // c.kernel.order()
    # the kernel as a set of codes, and K-perp's codes
    in_k = {form.encode(x) for x in c.kernel.elements}
    zcodes = [form.encode(z) for z in perp]
    gcodes = [form.encode(x) for x in kgens]
    want_stable = []
    for s in symmetries(g):
        a = discr_action(g, s, range(form.order()))
        if all(a[x] in in_k for x in gcodes):
            moves = [[u - v for u, v in zip(form.decode(a[zc]), z)] for zc, z in zip(zcodes, perp)]
            if all(form.encode(d) in in_k for d in moves):
                want_stable.append(vertex_perm(g, s))
    assert [vertex_perm(g, s) for s in sym_stable(c).elements] == want_stable


def test_sym_stable_9a2_pinned():
    # the representatives of NINE_A2_ORBITS, built as Configurations
    # directly since configuration() refuses the first two, which hold a
    # root; recorded with the per-kernel-element search this one replaced
    g = parse_singularities("9A2")
    form = graph_discr(g)
    cases = [
        ([(0, 0, 0, 0, 0, 0, 1, 1, 1), (0, 0, 0, 1, 1, 1, 0, 0, 0), (1, 1, 1, 0, 0, 0, 0, 0, 0)],
         216, "other(216, nonabelian)", 8, False, ((0, 1, 2), (3, 4, 5), (6, 7, 8)),
         "0a76be7db36a016db23d1d2d7be1bb007cb17de247170c052be9ff0d15357976"),
        ([(0, 0, 0, 0, 0, 0, 1, 1, 1), (0, 0, 1, 1, 1, 1, 0, 1, 2), (1, 1, 0, 0, 1, 1, 0, 2, 1)],
         12, "other(12, nonabelian)", 12, True, ((0, 1), (2, 3), (4, 5), (6, 7, 8)),
         "c98c6ae875bfbf025f35bc988b08159e0857ffdec1e3625bd3d1360423a548e9"),
        ([(0, 0, 0, 1, 1, 1, 1, 1, 1), (0, 1, 1, 0, 0, 1, 1, 2, 2), (1, 0, 1, 0, 1, 0, 2, 1, 2)],
         18, "GD(Z3xZ3)", 18, True, ((0, 1, 2, 3, 4, 5, 6, 7, 8),),
         "f2b05729d7aaa5d49a149b147d4dc888fdc2ea223d2c339a809ed41d1677d865"),
    ]
    for gens, order, label, kappa_order, faithful, partition, digest in cases:
        rep = sym_stable(Configuration(g, spanned(form, gens)))
        assert (rep.order, rep.label, rep.kappa_order, rep.kappa_faithful) == (
            order, label, kappa_order, faithful)
        assert rep.orbit_partition == partition
        perms = [vertex_perm(g, s) for s in rep.elements]
        assert perms == sorted(perms)
        assert hashlib.sha256(repr(perms).encode()).hexdigest() == digest


def test_sym_stable_2e8_a3():
    c = config("2E8+A3", [])
    rep = sym_stable(c)
    assert rep.order == 2
    assert rep.label == "Z2"
    # the involution swaps the two E8 components and fixes A3 pointwise
    assert rep.orbit_partition == ((0, 1), (2,))
    a3_off = offsets(c.graph)[2]
    for s in rep.elements:
        for i in range(a3_off, a3_off + 3):
            assert vertex_perm(c.graph, s)[i] == i


def test_ordinary_components_fixed_pointwise():
    # adding an ordinary A2 to 2E6+A5 changes neither the group nor moves it
    c = config("2E6+A5+A2", [(1, 1, 2, 0)])
    rep = sym_stable(c)
    assert rep.order == 2 and rep.label == "Z2"
    assert rep.orbit_partition == ((0, 1), (2,), (3,))
    off = offsets(c.graph)[3]
    for s in rep.elements:
        for i in range(off, off + 2):
            assert vertex_perm(c.graph, s)[i] == i
    # same group as for the bare essential set
    bare = classify_family("2E6+A5", "TorusW6", (3, 1), "Z2")
    assert bare.matches_theorem


# ---------------------------------------------------------------------------
# group identification


def test_identify_group_labels():
    def grp(text):
        return symmetries(parse_singularities(text))

    assert identify_group(grp("A1")) == "trivial"
    assert identify_group(grp("A5")) == "Z2"
    assert identify_group(grp("2A1")) == "Z2"
    assert identify_group(grp("2A2")) == "other(8, nonabelian)"
    assert identify_group(grp("A5+A2")) == "Z2xZ2"
    assert identify_group(grp("D4")) == "S3"


def test_identify_group_order_18():
    # the three nonabelian groups of order 18: only GD(Z3xZ3) has both 9
    # involutions and 9 elements of order 1 or 3 (D9 has 3 of the latter,
    # S3 x Z3 only 3 involutions)
    def cycle(n, cyc):
        out = list(range(n))
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            out[a] = b
        return out

    nine_a1, six_a1 = parse_singularities("9A1"), parse_singularities("6A1")
    d9 = closure([from_perm(nine_a1, cycle(9, tuple(range(9)))),
                  from_perm(nine_a1, [-i % 9 for i in range(9)])], nine_a1)
    s3_z3 = closure([from_perm(six_a1, cycle(6, c)) for c in ((0, 1), (0, 1, 2), (3, 4, 5))], six_a1)
    (nine_a2,) = [f for f in catalog.families() if f.essential == "9A2"]
    (gd,) = [row.report.elements for row in stability.classify_catalog([nine_a2]).pop().rows
             if len(row.report.elements) == 18]
    for els, label in [(d9, "other(18, nonabelian)"), (s3_z3, "other(18, nonabelian)"), (gd, "GD(Z3xZ3)")]:
        assert len(els) == 18
        assert identify_group(els) == identify_group_by_composition(els) == label


def test_identify_group_matches_composition_on_random_subgroups():
    rng = random.Random(41)
    labels = Counter()
    for text in ("A1", "A5", "2A1", "2A2", "A5+A2", "D4", "3E6", "3A2", "2A5+2A2", "D4+A2", "4A1",
                 "3A1+A2", "2A3", "E6+2A2"):
        graph = parse_singularities(text)
        group = symmetries(graph)
        for _ in range(60):
            els = closure(rng.sample(group, min(len(group), rng.choice((1, 2)))), graph)
            label = identify_group(els)
            assert label == identify_group_by_composition(els), (text, len(els))
            labels[label] += 1
    # 840 groups: every label the rule gives below order 18, abelian or not
    assert labels == {"trivial": 117, "Z2": 321, "Z3": 50, "Z4": 90, "Z2xZ2": 57, "Z6": 31, "S3": 41,
                      "other(8, [2, 4])": 5, "other(8, nonabelian)": 53, "other(12, nonabelian)": 24,
                      "other(16, nonabelian)": 7, "other(24, nonabelian)": 33, "other(48, nonabelian)": 11}


@pytest.mark.parametrize(
    "cycles", [(6,), (2, 4), (12,), (2, 2, 6), (8, 2, 6), (3, 3, 3), (4, 4), (9, 3)]
)
def test_abelian_invariants_match_sympy(cycles):
    """Z_{c_1} x ... x Z_{c_r}, generated by disjoint cycles of the
    components of a graph of degree copies of A1."""
    degree = sum(cycles)
    graph = DynkinGraph((ADEType("A", 1),) * degree)
    gens, off = [], 0
    for c in cycles:
        perm = list(range(degree))
        for i in range(c):
            perm[off + i] = off + (i + 1) % c
        gens.append(tuple(perm))
        off += c
    group = PermutationGroup([Permutation(list(g)) for g in gens])
    expected = [int(x) for x in group.abelian_invariants()]
    els = closure([from_perm(graph, perm) for perm in gens], graph)
    assert len(els) == group.order()
    assert _primary_invariants(_element_orders([vertex_perm(graph, s) for s in els])) == expected
    if len(els) != 6:  # order 6 is labelled Z6, without invariants
        assert identify_group(els) == f"other({len(els)}, {expected})"


# ---------------------------------------------------------------------------
# kernel orbit enumeration


def test_admissible_kernels_oracles():
    cases = {
        "A17": [(1, ((6,),))],
        "2A8": [(2, ((3, 3),))],
        "3E6": [(4, ((1, 1, 1),))],
        "2E6+A5": [(4, ((1, 1, 2),))],
    }
    for text, expect in cases.items():
        g = parse_singularities(text)
        orbs = admissible_kernels(g, 3, 1)
        assert len(orbs) == len(expect)
        for orb, (size, gens) in zip(orbs, expect):
            assert orb.size == size
            form = graph_discr(g)
            assert orb.config.kernel == spanned(form, gens)


def test_admissible_kernels_other_primes():
    assert [o.size for o in admissible_kernels(parse_singularities("4A4"), 5, 1)] == [24]
    orbs = admissible_kernels(parse_singularities("3A6"), 7, 1)
    assert [o.size for o in orbs] == [8]
    assert contains(orbs[0].config.kernel, (1, 2, 3))
    # trivial-kernel spec
    orbs0 = admissible_kernels(parse_singularities("2E8+A2"), None, 0)
    assert len(orbs0) == 1 and orbs0[0].config.kernel.order() == 1


def test_classify_catalog_builds_each_configuration_once(monkeypatch):
    # admissible_kernels hands each orbit's configuration to
    # classify_family, so K-perp and its generators are found once per kernel
    calls = Counter()
    build = stability.configuration

    def counted(graph, kernel):
        calls[graph, kernel.codes] += 1
        return build(graph, kernel)

    monkeypatch.setattr(stability, "configuration", counted)
    verdicts = stability.classify_catalog()
    assert all(v.matches_theorem for v in verdicts)
    assert len(calls) >= sum(len(v.rows) for v in verdicts)
    assert [key for key, n in calls.items() if n > 1] == []


def test_admissible_kernels_empty_when_unsupported():
    assert admissible_kernels(parse_singularities("2E8+A3"), 3, 1) == []
    # A1's block has no 3-torsion: no kernel has full support
    assert admissible_kernels(parse_singularities("3A2+A1"), 3, 1) == []


def test_admissible_kernels_needs_a_prime():
    with pytest.raises(ValueError):
        admissible_kernels(parse_singularities("3E6"), None, 1)


@pytest.mark.parametrize("p, rank, message", [
    (1, 1, "odd prime, not 1"), (2, 1, "odd prime, not 2"), (4, 1, "odd prime, not 4"),
    (9, 1, "odd prime, not 9"), (15, 1, "odd prime, not 15"), (9, 0, "odd prime, not 9"),
    (3, -1, "at least 0, not -1"),
])
def test_admissible_kernels_refuses_a_bad_prime_or_rank(p, rank, message):
    # the kernel search is certified for odd primes only (test_kernel_runs),
    # and no kernel has a negative rank; a p given with rank 0 is checked too
    with pytest.raises(ValueError, match=message):
        admissible_kernels(parse_singularities("9A2"), p, rank)


@pytest.mark.parametrize(
    "text, p, rank",
    # A5+7A2 has three orbits; A8's 3-torsion sits inside its Z9
    [("3E6", 3, 1), ("6A2", 3, 2), ("A5+7A2", 3, 2), ("A8+4A2", 3, 2), ("4A4", 5, 2)],
)
def test_admissible_kernels_match_orbit_closure(text, p, rank):
    # reference: close each root-free kernel (root_mask, the helpers' own
    # short-vector search) under the generators' automorphisms one
    # Subgroup at a time; the representative is the orbit's least kernel
    g = parse_singularities(text)
    form = graph_discr(g)
    tables = [discr_action(g, s, range(form.order())) for s in graph_symmetries(g).generators]
    roots = root_mask(g)
    want, seen = [], set()
    for row in isotropic_subspaces(form, p, rank):
        k = Subgroup(form, tuple(row.tolist()))
        if k in seen or roots[row].any():
            continue
        orbit, todo = {k}, [k]
        while todo:
            h = todo.pop()
            for a in tables:
                img = Subgroup(form, tuple(sorted(a[x] for x in h.codes)))
                if img not in orbit:
                    orbit.add(img)
                    todo.append(img)
        seen |= orbit
        want.append((min(orbit, key=lambda s: s.elements), len(orbit)))
    got = [(o.config.kernel, o.size) for o in admissible_kernels(g, p, rank)]
    assert got == sorted(want, key=lambda rs: rs[0].elements)


def test_admissible_kernels_pinned():
    # the root-free one of NINE_A2_ORBITS: each of the other two has a
    # weight-3 element such as (0, ..., 0, 1, 1, 1), of norm 3 * 2/3 = 2
    g = parse_singularities("9A2")
    orbs = admissible_kernels(g, 3, 3)
    assert [o.size for o in orbs] == [215040]
    assert [o.config.kernel.generators() for o in orbs] == [
        [(0, 0, 0, 1, 1, 1, 1, 1, 1), (0, 1, 1, 0, 0, 1, 1, 2, 2), (1, 0, 1, 0, 1, 0, 2, 1, 2)],
    ]
    roots = root_mask(g)
    assert [roots[list(spanned(graph_discr(g), gens).codes)].any()
            for gens, _, _ in NINE_A2_ORBITS] == [True, True, False]
    assert [o.size for o in admissible_kernels(parse_singularities("8A2"), 3, 2)] == [13440]


KERNEL_FAMILIES = [f for f in catalog.families() if f.kernel_spec[0]]

# 9A2's orbits of isotropic kernels, roots allowed: representative
# generators, the orbit size found by closing all 555,520 kernels under the
# generators, and the stabilizer order; only the last is root-free
NINE_A2_ORBITS = [
    ([(0, 0, 0, 0, 0, 0, 1, 1, 1), (0, 0, 0, 1, 1, 1, 0, 0, 0), (1, 1, 1, 0, 0, 0, 0, 0, 0)],
     17920, 10368),
    ([(0, 0, 0, 0, 0, 0, 1, 1, 1), (0, 0, 1, 1, 1, 1, 0, 1, 2), (1, 1, 0, 0, 1, 1, 0, 2, 1)],
     322560, 576),
    ([(0, 0, 0, 1, 1, 1, 1, 1, 1), (0, 1, 1, 0, 0, 1, 1, 2, 2), (1, 0, 1, 0, 1, 0, 2, 1, 2)],
     215040, 864),
]


@pytest.mark.parametrize("fam", [f for f in KERNEL_FAMILIES if f.essential != "9A2"],
                         ids=lambda f: f.essential)
def test_admissible_kernels_match_oracle(fam):
    # 9A2 is pinned by test_admissible_kernels_pinned
    g = parse_singularities(fam.essential)
    got = [(o.config.kernel, o.size) for o in admissible_kernels(g, *fam.kernel_spec)]
    assert got == kernel_orbits(g, *fam.kernel_spec)


CATALOG_GRAPHS = {parse_singularities(f.essential) for f in catalog.families()}


@st.composite
def off_catalog_graphs(draw):
    """Sums of A2, A5, A8 and E6 of total rank at most 18 that no catalog
    family has.  Each component adds one dimension of 3-torsion, so the
    oracle's F_3^m has m <= 7 (8A2 and 9A2 are in the catalog)."""
    comps, room = [], 18
    for t in (ADEType("E", 6), ADEType("A", 8), ADEType("A", 5), ADEType("A", 2)):
        n = draw(st.integers(0 if comps or t.rank > 2 else 1, room // t.rank))
        comps += [t] * n
        room -= n * t.rank
    graph = DynkinGraph(tuple(comps))
    assume(graph not in CATALOG_GRAPHS)
    return graph


@settings(max_examples=25, deadline=None)
@given(off_catalog_graphs(), st.integers(1, 3))
@example(parse_singularities("7A2"), 3)
@example(parse_singularities("E6+A5+3A2"), 2)
def test_admissible_kernels_match_oracle_off_catalog(g, rank):
    # children of several parents lie in one orbit here, and only the
    # least of each orbit is kept
    got = [(o.config.kernel, o.size) for o in admissible_kernels(g, 3, rank)]
    assert got == kernel_orbits(g, 3, rank)


# ---------------------------------------------------------------------------
# rank 1 in closed form: lines under signed permutations of F_p^m


@pytest.mark.parametrize("fam", [f for f in KERNEL_FAMILIES if f.kernel_spec[1] > 1], ids=lambda f: f.essential)
def test_rank1_orbits_match_oracle(fam):
    # the families of higher rank, at rank 1; test_admissible_kernels_match_oracle
    # has every rank-1 family, p = 5 (4A4, A9+2A4, 2A9), p = 7 (3A6) and the Z9
    # radical cases (A8+3A2, 2A8, A17) among them
    g, p = parse_singularities(fam.essential), fam.kernel_spec[0]
    got = [(o.config.kernel, o.size) for o in admissible_kernels(g, p, 1)]
    assert got == kernel_orbits(g, p, 1)


@settings(max_examples=25, deadline=None)
@given(off_catalog_graphs())
def test_rank1_orbits_match_oracle_off_catalog(g):
    got = [(o.config.kernel, o.size) for o in admissible_kernels(g, 3, 1)]
    assert got == kernel_orbits(g, 3, 1)


# the components with p-torsion for each odd p, rank 19 allowing (E6 and
# A_{3i-1} for p = 3, A8 and A17 with a Z9 radical); A1 and D4 have none
TORSION_TYPES = {3: ["E6", "A2", "A5", "A8", "A11", "A14", "A17"], 5: ["A4", "A9", "A14"], 7: ["A6", "A13"],
                 11: ["A10"], 13: ["A12"]}


@st.composite
def off_catalog_prime_graphs(draw):
    """(graph, p): sums of components with p-torsion, p = 3, 5, 7, 11 or 13,
    at most 7 of them, perhaps with D4s and A1s, of total rank at most 19,
    that no catalog family has."""
    p = draw(st.sampled_from(sorted(TORSION_TYPES)))
    terms, room, torsion = [], 19, 0
    for label in draw(st.permutations(TORSION_TYPES[p])) + ["D4", "A1"]:
        rank = int(label[1:])
        n = draw(st.integers(0, min(room // rank, 7 - torsion if label in TORSION_TYPES[p] else 19)))
        terms += [label] * n
        room -= n * rank
        torsion += n * (label in TORSION_TYPES[p])
    assume(torsion)
    graph = parse_singularities("+".join(terms))
    assume(graph not in CATALOG_GRAPHS)
    return graph, p


def check_least_lines_one_per_orbit(g, p):
    # every isotropic line of the p-torsion, with roots and partial support,
    # closed under the generators' discriminant action; _least_lines must
    # give each orbit's least row once, in ascending order, and |W| over its
    # stabilizer's order (_stabilizer) must be the orbit's length
    form = graph_discr(g)
    space = torsion_space(form, p)
    lines = set()
    for v in itertools.product(range(p), repeat=len(space.basis_codes)):
        x = sum(a * b for a, b in zip(v, space.basis_codes))
        if any(v) and form_q(form, form.decode(x)) == 0:
            lines.add(tuple(sorted(form.encode([c * a for a in form.decode(x)]) for c in range(p))))
    tables = [discr_action(g, s, range(form.order())) for s in graph_symmetries(g).generators]
    least = {}
    while lines:
        orbit, todo = set(), [lines.pop()]
        while todo:
            row = todo.pop()
            orbit.add(row)
            todo += [img for img in (tuple(sorted(a[x] for x in row)) for a in tables) if img not in orbit]
        lines -= orbit
        least[min(orbit)] = len(orbit)
    runs, order = stability._runs(_torsion_coordinates(g, space))
    rows = list(_least_lines(space, runs))
    assert rows == sorted(set(rows))
    assert {row: order // _stabilizer(p, runs, torsion_vectors(space, row))[0] for row in rows} == least


@pytest.mark.parametrize("text, p", [("9A2", 3), ("A8+3A2", 3), ("E6+A5+4A2", 3), ("4A4", 5), ("A9+2A4", 5),
                                     ("3A6", 7)])
def test_least_lines_one_per_orbit(text, p):
    check_least_lines_one_per_orbit(parse_singularities(text), p)


@settings(max_examples=25, deadline=None)
@given(off_catalog_prime_graphs())
def test_least_lines_one_per_orbit_off_catalog(case):
    check_least_lines_one_per_orbit(*case)


def apply_signed(w, v, p):
    """The image of the coordinate vector v under the signed permutation w."""
    perm, signs = w
    u = [0] * len(v)
    for k, (j, e) in enumerate(zip(perm, signs)):
        u[j] = e * v[k] % p
    return tuple(u)


def signed_closure(gens, m):
    """The group the signed permutations gens (given by their sources, as
    the kernel search returns them) generate, each element as the image
    (coordinate, sign) of every coordinate."""
    identity = tuple((k, 1) for k in range(m))
    group, todo, gens = {identity}, [identity], [perm_signs(w) for w in gens]
    while todo:
        x = todo.pop()
        for perm, signs in gens:
            y = tuple((perm[j], e * signs[j]) for j, e in x)
            if y not in group:
                group.add(y)
                todo.append(y)
    return group


def signed_perms(runs):
    """Every signed permutation (perm, signs) of the coordinates that
    permutes each run, runs their lengths."""
    starts = itertools.accumulate([0, *runs])
    out = []
    for perms in itertools.product(*(itertools.permutations(range(s, s + n)) for s, n in zip(starts, runs))):
        out += [(sum(perms, ()), signs) for signs in itertools.product((1, -1), repeat=sum(runs))]
    return out


@functools.lru_cache(maxsize=None)
def all_subspaces(p, m):
    """Every subspace of F_p^m, as its vectors in ascending order (shared
    by the tests over W_RUNS)."""
    subspaces, level = set(), {((0,) * m,)}
    while level:
        subspaces |= level
        level = {tuple(sorted({tuple((a + c * b) % p for a, b in zip(x, v)) for x in k for c in range(p)}))
                 for k in level for v in itertools.product(range(p), repeat=m) if v not in k}
    return subspaces


W_RUNS = [(3, [3]), (3, [1, 2]), (3, [2, 1]), (3, [1, 1, 1]), (3, [2, 2]), (3, [1, 3]), (5, [3]), (5, [1, 2]), (7, [2])]


@pytest.mark.parametrize("p, runs", W_RUNS, ids=[f"{p}-{'+'.join(map(str, runs))}" for p, runs in W_RUNS])
def test_least_kernel_matches_brute_force(p, runs):
    # every subspace of F_p^m, isotropic or not, against its orbit under
    # every element of W: the least-kernel oracle the kernel search is
    # certified by accepts exactly the least of each orbit, with the order of
    # its stabilizer and generators of all of it; _stabilizer gives those
    # for every subspace whose greedy basis is in normal form along its
    # cuts, least or not, as every least one's is
    m, group = sum(runs), signed_perms(runs)
    subspaces = all_subspaces(p, m)
    assert len(subspaces) == {(3, 3): 28, (3, 4): 212, (5, 3): 64, (7, 2): 10}[p, m]
    least = normal = 0
    for k in sorted(subspaces):
        images = [tuple(sorted(apply_signed(w, v, p) for v in k)) for w in group]
        stab = {tuple(zip(*w)) for w, image in zip(group, images) if image == k}
        found = least_kernel_breadth_first(p, runs, list(k))
        if k != min(images):
            assert found is None
        else:
            assert found[0] == len(stab) and signed_closure(found[1], m) == stab
            least += 1
        if normal_basis(p, runs, k):
            order, gens = _stabilizer(p, runs, list(k))
            assert order == len(stab) and signed_closure(gens, m) == stab
            normal += 1
        else:
            assert found is None
    assert least < normal


def normal_basis(p, runs, k):
    """Whether each vector of the greedy basis of k is the least image of
    itself under the group of the cut of those before it (_stabilizer's
    condition)."""
    fold = tuple(min(x, p - x) for x in range(p))
    cut = tuple((s, s + n, True) for s, n in zip(itertools.accumulate([0, *runs]), runs))
    for b in stability._basis(k, p):
        if stability._normal(b, cut, fold) != b:
            return False
        cut = stability._refine(cut, b)
    return True


def signed_group(g, space):
    """Every signed permutation of space's coordinates that permutes each
    run of equal components, as in signed_closure."""
    form, m = graph_discr(g), len(space.basis_codes)
    types = [g.components[next(i for i, y in enumerate(form.block_codes(b)) if y)] for b in space.basis_codes]
    runs = [list(run) for _, run in itertools.groupby(range(m), key=types.__getitem__)]
    out = set()
    for perms in itertools.product(*(itertools.permutations(run) for run in runs)):
        perm = sum(perms, ())
        for signs in itertools.product((1, -1), repeat=m):
            out.add(tuple(zip(perm, signs)))
    return out


def check_line_stabilizers(g, p):
    # every line _least_lines gives, roots and partial support included:
    # each generator _stabilizer finds keeps the line, and for m <= 4 they
    # generate all of Stab_W (check_least_lines_one_per_orbit checks the sizes)
    form = graph_discr(g)
    space = torsion_space(form, p)
    m = len(space.basis_codes)
    group = signed_group(g, space) if m <= 4 else None
    runs, _ = stability._runs(_torsion_coordinates(g, space))
    for row in _least_lines(space, runs):
        vectors = torsion_vectors(space, row)
        line, (_, gens) = set(vectors), _stabilizer(p, runs, vectors)
        for w in gens:
            assert {apply_signed(perm_signs(w), v, p) for v in line} == line
        if group is not None:
            stab = {x for x in group if {apply_signed(tuple(zip(*x)), v, p) for v in line} == line}
            assert signed_closure(gens, m) == stab


@pytest.mark.parametrize("fam", KERNEL_FAMILIES, ids=lambda f: f.essential)
def test_line_stabilizers_in_closed_form(fam):
    check_line_stabilizers(parse_singularities(fam.essential), fam.kernel_spec[0])


@settings(max_examples=25, deadline=None)
@given(off_catalog_prime_graphs())
@example((parse_singularities("A17+A2"), 3))
@example((parse_singularities("2A8+A2"), 3))
@example((parse_singularities("A12+A6"), 13))
@example((parse_singularities("A10+2A4"), 11))
@example((parse_singularities("3A4+A1"), 5))
def test_line_stabilizers_in_closed_form_off_catalog(case):
    check_line_stabilizers(*case)


ODD_TORSION_GRAPHS = [(f.essential, p) for f in catalog.families() for p in (3, 5, 7, 11, 13, 17, 19)
                      if graph_discr(parse_singularities(f.essential)).order() % p == 0]


@pytest.mark.parametrize("text, p", ODD_TORSION_GRAPHS, ids=[f"{t}-{p}" for t, p in ODD_TORSION_GRAPHS])
def test_signed_permutations_match_discr_action(text, p):
    # the signed permutation read off a symmetry sends each basis code where
    # discr_action does: every generator, and random products of them
    g = parse_singularities(text)
    space = torsion_space(graph_discr(g), p)
    coords = _torsion_coordinates(g, space)
    gens = graph_symmetries(g).generators
    rng = random.Random(text)
    products = []
    for _ in range(20):
        s, *rest = rng.choices(gens, k=rng.randint(2, 8))
        for t in rest:
            s = compose(t, s)
        products.append(s)
    for s in [*gens, *products]:
        perm, signs = signed_permutation(g, coords, s)
        want = discr_action(g, s, space.basis_codes)
        assert [e % p * space.basis_codes[j] for j, e in zip(perm, signs)] == list(want)


def test_rank1_least_lines_9a2_pinned():
    # one line per weight; the weight-3 line holds a root (norm 3 * 2/3),
    # and the weight-6 one lacks full support, so only weight 9 is a kernel
    g = parse_singularities("9A2")
    form = graph_discr(g)
    space = torsion_space(form, 3)
    lines = [Subgroup(form, row) for row in _least_lines(space, [9])]
    assert sorted(k.generators() for k in lines) == [
        [(0, 0, 0, 0, 0, 0, 1, 1, 1)], [(0, 0, 0, 1, 1, 1, 1, 1, 1)], [(1,) * 9],
    ]
    assert [bool(root_mask(g)[list(k.codes)].any()) for k in sorted(lines, key=lambda k: k.codes)] == [
        True, False, False,
    ]
    orbs = admissible_kernels(g, 3, 1)
    assert [(o.config.kernel.generators(), o.size) for o in orbs] == [([(1,) * 9], 256)]


ADE_TYPES = ([ADEType("A", n) for n in range(1, 20)] + [ADEType("D", n) for n in range(4, 20)]
             + [ADEType("E", n) for n in (6, 7, 8)])
# every ADE type of rank <= 19 with every odd prime dividing its discriminant order (at most 20)
ODD_TORSION = [(t, p) for t in ADE_TYPES for p in (3, 5, 7, 11, 13, 17, 19) if component_discr(t).form.order() % p == 0]


@pytest.mark.parametrize("t, p", ODD_TORSION, ids=[f"{t.label()}-{p}" for t, p in ODD_TORSION])
def test_component_automorphisms_act_on_odd_torsion_by_sign(t, p):
    # what _least_lines reads off component_code_tables
    form = component_discr(t).form
    (x,) = torsion_space(form, p).basis_codes
    minus = form.encode([-a for a in form.decode(x)])
    images = [table[x] for table in component_code_tables(t).values()]
    assert set(images) <= {x, minus} and minus in images


def test_rank1_refuses_a_flip_that_fixes_the_torsion(monkeypatch):
    # with A2's flip acting as +1 the closed form would merge orbits
    a2 = ADEType("A", 2)
    fixed = {perm: tuple(range(3)) for perm in component_code_tables(a2)}
    monkeypatch.setattr(stability, "component_code_tables",
                        lambda t: fixed if t == a2 else component_code_tables(t))
    stability._torsion_coordinates.cache_clear()  # 9A2's coordinates, read before the patch
    with pytest.raises(AssertionError, match="A2"):
        admissible_kernels(parse_singularities("9A2"), 3, 1)


@pytest.mark.parametrize("fam", KERNEL_FAMILIES, ids=lambda f: f.essential)
def test_torsion_space_bmat_is_diagonal(fam):
    # admissible_kernels' candidate search needs it
    sp = torsion_space(graph_discr(parse_singularities(fam.essential)), fam.kernel_spec[0])
    assert all(v == 0 for i, row in enumerate(sp.bmat) for j, v in enumerate(row) if i != j)


@settings(max_examples=25, deadline=None)
@given(off_catalog_graphs())
def test_torsion_space_bmat_is_diagonal_off_catalog(g):
    sp = torsion_space(graph_discr(g), 3)
    assert all(v == 0 for i, row in enumerate(sp.bmat) for j, v in enumerate(row) if i != j)


@pytest.mark.parametrize("fam", catalog.families(), ids=lambda f: f.essential)
def test_perp_generators_chain(fam):
    # for K = 0 and each orbit representative: for every component i, the
    # generators supported on components 0..i span K-perp's elements
    # supported there, K-perp found from b alone
    form, kernels = catalog_kernels(fam)
    last = [max((ci for ci, b in enumerate(form.block_codes(x)) if b), default=-1) for x in range(form.order())]
    for k in kernels:
        kgens = k.generators()
        perp = [x for x, v in enumerate(elements(form)) if all(form_b(form, v, y) == 0 for y in kgens)]
        zgens = kernel_perp(form, k)
        for i in range(len(form.blocks)):
            span = greedy_generators(form, [z for z in zgens if last[z] <= i])[1]
            assert list(span) == [x for x in perp if last[x] <= i]


@pytest.mark.parametrize("fam", catalog.families(), ids=lambda f: f.essential)
def test_perp_membership_matches_brute_force(fam):
    # for K = 0 and each orbit representative, the span of K-perp's
    # generators holds exactly K-perp's codes, found from b alone (the
    # refusal, which reads the echelon's prod d_i / t_i, lets every catalog
    # kernel through)
    form, kernels = catalog_kernels(fam)
    for k in kernels:
        assert k.is_subgroup_of(form)
        assert list(greedy_generators(form, kernel_perp(form, k))[1]) == brute_perp(form, k)


def test_configuration_perp_refuses_a_degenerate_form(monkeypatch):
    # b is 0 on all of Z3, so K-perp is all of D and |K-perp| |K| = 9 != 3:
    # configuration's checks pass (closed, isotropic, odd), and K-perp,
    # with the search that reads it, is refused
    form = FiniteQuadraticForm((3,), ((0,),))
    monkeypatch.setattr(stability, "graph_discr", lambda graph: form)
    c = configuration(parse_singularities("A2"), Subgroup(form, (0, 1, 2)))
    with pytest.raises(ValueError, match="degenerate"):
        sym_stable(c)


def test_classify_all_lists_no_perp_and_spans_each_kernel_once(capsys):
    # K-perp is never listed, only its generators read: greedy_generators,
    # the one span routine, runs only for a Subgroup's own greedy span, and
    # each Subgroup computes it once, whoever reads it
    spanners = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is greedy_generators.__code__:
            spanners.append(frame.f_back.f_locals.get("self"))

    sys.setprofile(profile)
    try:
        code = main(["classify", "--all"])
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert code == 0
    assert spanners and all(isinstance(s, Subgroup) for s in spanners)
    assert len({id(s) for s in spanners}) == len(spanners)  # spanners keeps each alive


def test_torsion_space_built_once_per_family(capsys):
    # admissible_kernels reads the p-torsion space and its coordinates from
    # caches, as it reads graph_discr: two classify calls of one family
    # build each once
    torsion_space.cache_clear()
    stability._torsion_coordinates.cache_clear()
    built = {torsion_space.__wrapped__.__code__: "space", stability._torsion_coordinates.__wrapped__.__code__: "coords"}
    builds = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in built:
            builds[built[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        codes = [main(["classify", "--set", "8A2"]) for _ in range(2)]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0, 0]
    assert builds == {"space": 1, "coords": 1}


def test_stabilizer_9a2_orders():
    # W = Z2 wr S9 is all of Sym(9A2): the line through (1, ..., 1), and
    # NINE_A2_ORBITS' least kernels with the stabilizer orders found by
    # closing all 555,520 kernels; each generator keeps its kernel
    g = parse_singularities("9A2")
    form = graph_discr(g)
    space = torsion_space(form, 3)
    for gens, order in [([(1,) * 9], 725760)] + [(gens, order) for gens, _, order in NINE_A2_ORBITS]:
        vectors = torsion_vectors(space, spanned(form, gens).codes)
        got, ws = _stabilizer(3, [9], vectors)
        assert got == order
        for w in ws:
            assert sorted(apply_signed(perm_signs(w), v, 3) for v in vectors) == vectors


@pytest.mark.parametrize("fam", catalog.families(), ids=lambda f: f.essential)
def test_orbit_stabilizer(fam):
    # each orbit's size, from closing the kernel set under the generators,
    # times the order of its representative's stabilizer in W is |W|; K = 0
    # is read in the 3-torsion
    g = parse_singularities(fam.essential)
    form = graph_discr(g)
    p, rank = fam.kernel_spec
    if rank == 0:
        p, rows = 3, [(Subgroup.trivial(form), 1)]
    elif fam.essential == "9A2":
        rows = [(spanned(form, gens), size) for gens, size, _ in NINE_A2_ORBITS]
    else:
        rows = kernel_orbits(g, p, rank)
    assert rows
    space = torsion_space(form, p)
    runs, order = stability._runs(_torsion_coordinates(g, space))
    for k, size in rows:  # two of NINE_A2_ORBITS hold a root
        assert _stabilizer(p, runs, torsion_vectors(space, k.codes))[0] * size == order


def test_9a2_computes_one_stabilizer_per_kept_orbit(monkeypatch):
    # the kernel search runs in W alone: no graph-symmetry backtrack runs
    # inside admissible_kernels; a stabilizer is found once per kept
    # kernel: the two root-free least lines (weights 6 and 9; the weight-3
    # line holds a root and is dropped before it), the two planes left once
    # the children with a root are dropped, and one space; and only the
    # reported orbit is built as a Configuration
    searches, stabilized, built = [], [], []
    search, stabilizer, build = stability._search_symmetries, stability._stabilizer, stability.configuration

    def counted(p, runs, vectors):
        stabilized.append(tuple(vectors))
        return stabilizer(p, runs, vectors)

    monkeypatch.setattr(stability, "_search_symmetries", lambda *args: searches.append(args) or search(*args))
    monkeypatch.setattr(stability, "_stabilizer", counted)
    monkeypatch.setattr(stability, "configuration", lambda g, k: built.append(k) or build(g, k))
    orbs = admissible_kernels(parse_singularities("9A2"), 3, 3)
    assert searches == []
    assert len(stabilized) == len(set(stabilized)) and [len(k) for k in stabilized] == [3, 3, 9, 9, 27]
    assert [k.codes for k in built] == [o.config.kernel.codes for o in orbs] and len(orbs) == 1


def test_classify_all_computes_one_stabilizer_per_kept_row(monkeypatch):
    # over one classify --all, each family's _stabilizer calls are on
    # distinct rows that their levels keep: root-free, with full support at
    # the last rank; K = 0 makes none
    calls, searches = [], []
    stabilizer, kernels = stability._stabilizer, stability.admissible_kernels

    def counted(p, runs, vectors):
        calls.append((p, tuple(vectors)))
        return stabilizer(p, runs, vectors)

    def kernel_search(graph, p, rank):
        start = len(calls)
        out = kernels(graph, p, rank)
        searches.append((graph, p, rank, calls[start:]))
        return out

    monkeypatch.setattr(stability, "_stabilizer", counted)
    monkeypatch.setattr(stability, "admissible_kernels", kernel_search)
    stability.classify_catalog()
    assert len(calls) == 43
    for g, p, rank, made in searches:
        assert (rank or not made) and len(made) == len(set(made))
        form = graph_discr(g)
        for q, vectors in made:
            row = [sum(y * b for y, b in zip(v, torsion_space(form, p).basis_codes)) for v in vectors]
            assert q == p and len(vectors) in {p**r for r in range(1, rank + 1)}
            assert not root_mask(g)[row].any()
            assert len(vectors) < p**rank or all(map(any, zip(*map(form.block_codes, row))))


def test_symmetry_search_leaves_no_reference_cycle():
    # a search's backtrack and the kernel search's levels are freed by
    # reference counting, so they never wait, with their option lists and
    # branches, for the cyclic collector
    c = config("3E6", [(1, 1, 1)])
    g = parse_singularities("9A2")
    sym_stable(c), admissible_kernels(g, 3, 3)  # fills the caches
    gc.collect()
    gc.disable()
    try:
        sym_stable(c), admissible_kernels(g, 3, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_identify_group_matches_composition_on_every_reported_group():
    # identify_group's vertex-permutation products, and the element orders
    # read off their cycles, against products of GraphSymmetry, on every
    # stable group classify --all reports
    labels = Counter()
    for v in stability.classify_catalog():
        for row in v.rows:
            els = row.report.elements
            assert row.report.label == identify_group(els) == identify_group_by_composition(els)
            assert _element_orders(_vertex_perms(els)) == element_orders_by_composition(els)
            labels[row.report.label] += 1
    assert labels == {"trivial": 14, "Z2": 17, "Z3": 1, "S3": 1, "GD(Z3xZ3)": 1}


def test_kernel_orbit_conjugation_equivariance():
    g = parse_singularities("3E6")
    form = graph_discr(g)
    k1 = spanned(form, [(1, 1, 2)])
    # conjugate the kernel by a symmetry exchanging two components
    t = next(
        s
        for s in symmetries(g)
        if not is_identity(s)
        and not contains(k1, act(g, s, (1, 1, 2)))
    )
    k2 = spanned(form, [act(g, t, x) for x in k1.elements])
    rep1 = {vertex_perm(g, s) for s in sym_stable(configuration(g, k1)).elements}
    rep2 = {vertex_perm(g, s) for s in sym_stable(configuration(g, k2)).elements}
    t_inv = next(s for s in symmetries(g) if is_identity(compose(s, t)))
    conj = {vertex_perm(g, compose(compose(t, s), t_inv)) for s in sym_stable(configuration(g, k1)).elements}
    assert conj == rep2
    assert len(rep1) == len(rep2)


# ---------------------------------------------------------------------------
# the candidate list and proof-scaffolding properties


def test_torus_candidates():
    cands = torus_candidates()
    assert len(cands) == 19
    for g in cands:
        w = catalog.weight(g)
        assert 6 <= w <= 7
        assert g.rank <= 19


@pytest.fixture(scope="module")
def torus_verdicts():
    fams = [f for f in catalog.families() if f.tag == "TorusW6"]
    assert len(fams) == 19
    return [
        classify_family(f.essential, f.tag, f.kernel_spec, f.expected_group)
        for f in fams
    ]


def test_torus_families_match(torus_verdicts):
    expected = {
        "3E6": "S3",
        "2E6+A5": "Z2",
        "2E6+2A2": "Z2",
        "A17": "Z2",
        "2A8": "Z2",
    }
    for v in torus_verdicts:
        assert v.matches_theorem, v.singularities
        assert v.expected_label == expected.get(v.singularities, "trivial")


def test_stable_involutions_orbit_structure(torus_verdicts):
    """Order-2 stable symmetries move at most two groups of essential
    components, and the moved sets are exactly the five allowed patterns."""
    allowed = {("2E6", "E6"), ("2E6", "A5"), ("2A2", "2E6"), ("A17",), ("2A8",)}
    seen = set()
    for v in torus_verdicts:
        g = parse_singularities(v.singularities)
        for row in v.rows:
            for key in involution_patterns(g, row.report.elements):
                assert len(key) <= 2
                assert key in allowed, (v.singularities, key)
                seen.add(key)
    assert seen == allowed


def test_stable_symmetries_satisfy_the_trace_identity():
    """Nikulin-Mukai: a stable symmetry g of order n lifts to a symplectic
    automorphism of the K3 double plane, so n <= 8 and g fixes
    rk S + eps(n) - 24 Dynkin vertices, S the lattice of the graph and
    eps(n) = 24 / (n prod_{p | n} (1 + 1/p)) its number of fixed points.
    Read off the reported elements as vertex permutations alone."""
    checked = 0
    for v in stability.classify_catalog():
        g = parse_singularities(v.singularities)
        for row in v.rows:
            for s in row.report.elements:
                perm = vertex_perm(g, s)
                n, x = 1, list(perm)
                while x != list(range(g.rank)):
                    n, x = n + 1, [perm[i] for i in x]
                assert n <= 8, (v.singularities, perm)
                eps = Fraction(24, n)
                for p in (2, 3, 5, 7):
                    if n % p == 0:
                        eps /= 1 + Fraction(1, p)
                fixed = sum(i == j for i, j in enumerate(perm))
                assert fixed == g.rank + eps - 24, (v.singularities, perm)
                checked += 1
    assert checked == 75
