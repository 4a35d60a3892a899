import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from sexticsym import catalog, stability
from sexticsym.discrforms import Subgroup, isotropic_subspaces
from sexticsym.rootsystems import (
    ADEType,
    DynkinGraph,
    discr_action,
    graph_discr,
    graph_symmetries,
    parse_singularities,
)
from sexticsym.stability import (
    _element_orders,
    _primary_invariants,
    admissible_kernels,
    classify_family,
    configuration,
    identify_group,
    sym_config,
    sym_stable,
    torus_candidates,
)

from helpers import (
    closure,
    elements,
    from_perm,
    involution_patterns,
    kernel_orbits,
    offsets,
    symmetries,
    vertex_perm,
)


def config(text: str, gens):
    g = parse_singularities(text)
    form = graph_discr(g)
    return configuration(g, Subgroup.spanned(form, gens))


def act(g, s, x):
    """Image of the coordinate vector x under the automorphism induced by s."""
    form = graph_discr(g)
    return form.decode(discr_action(g, s, [form.encode(x)]))[0]


def contains(k: Subgroup, x) -> bool:
    """Whether the coordinate vector x lies in the subgroup k."""
    return int(k.form.encode(x)) in k.codes


# ---------------------------------------------------------------------------
# configuration validation


def test_configuration_rejects_bad_kernels():
    g = parse_singularities("3E6")
    form = graph_discr(g)
    with pytest.raises(ValueError):
        configuration(g, Subgroup.spanned(form, [(1, 0, 0)]))  # not isotropic
    # isotropic 2-torsion exists in discr D8 but kernels must have odd order
    g2 = parse_singularities("D8")
    form2 = graph_discr(g2)
    k2 = Subgroup.spanned(form2, [(0, 1)])
    assert form2.q((0, 1)) == 0
    with pytest.raises(ValueError):
        configuration(g2, k2)


def test_configuration_rank_guard():
    # rank 20; parse_singularities refuses it, so it is built directly
    g = DynkinGraph((ADEType("E", 8), ADEType("E", 8), ADEType("A", 3), ADEType("A", 1)))
    form = graph_discr(g)
    with pytest.raises(ValueError, match="total rank exceeds 19"):
        configuration(g, Subgroup.trivial(form))
    with pytest.raises(ValueError, match="total rank exceeds 19"):
        admissible_kernels(g, 3, 1)
    # refused before any per-element table of the form is built
    assert "element_array" not in form.__dict__


# ---------------------------------------------------------------------------
# symmetry groups of configurations


def test_sym_config_3e6():
    c = config("3E6", [(1, 1, 1)])
    grp = sym_config(c)
    # brute force: every symmetry of the graph that preserves the kernel setwise
    want = [s for s in symmetries(c.graph)
            if all(contains(c.kernel, act(c.graph, s, x)) for x in c.kernel.elements)]
    assert grp.order == len(want) == 12
    assert closure(grp.generators, c.graph) == want
    for s in grp.generators:
        for x in c.kernel.elements:
            assert contains(c.kernel, act(c.graph, s, x))


def test_sym_stable_3e6():
    c = config("3E6", [(1, 1, 1)])
    rep = sym_stable(c)
    assert rep.order == 6
    assert rep.label == "S3"
    assert rep.kappa_order == 2
    assert not rep.kappa_faithful
    assert rep.orbit_partition == ((0, 1, 2),)
    # the stable group is a subgroup of the configuration group
    cfg = {vertex_perm(c.graph, s) for s in closure(sym_config(c).generators, c.graph)}
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
    # reference over every symmetry of the graph (order <= 10^4): admissible
    # iff it maps the generators of K into K, stable iff in addition it moves
    # each z of K-perp (found from b alone) by an element of K
    c = config(text, gens)
    g = c.graph
    form = graph_discr(g)
    kgens = c.kernel.generators()
    perp = [x for x in elements(form) if all(form.b(x, y) == 0 for y in kgens)]
    assert len(perp) == form.order() // c.kernel.order()
    # the kernel as a mask over codes, and K-perp's coordinates and codes
    in_k = np.zeros(form.order(), dtype=bool)
    in_k[[int(form.encode(x)) for x in c.kernel.elements]] = True
    zs = np.array(perp, dtype=np.int64).reshape(len(perp), form.rank)
    zcodes = form.encode(zs)
    gcodes = form.encode(np.array(kgens, dtype=np.int64).reshape(len(kgens), form.rank))
    want_config, want_stable = [], []
    for s in symmetries(g):
        a = discr_action(g, s, range(form.order()))
        if in_k[a[gcodes]].all():
            want_config.append(vertex_perm(g, s))
            if in_k[form.encode(form.element_array[a[zcodes]] - zs)].all():
                want_stable.append(vertex_perm(g, s))
    grp = sym_config(c)
    assert grp.order == len(want_config)
    assert [vertex_perm(g, s) for s in closure(grp.generators, g)] == want_config
    assert all(vertex_perm(g, s) in want_config for s in grp.generators)
    assert [vertex_perm(g, s) for s in sym_stable(c).elements] == want_stable


def test_sym_stable_9a2_pinned():
    # the three 9A2 kernel orbits' representatives (test_admissible_kernels_pinned);
    # recorded with the per-kernel-element search this one replaced
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
        rep = sym_stable(configuration(g, Subgroup.spanned(form, gens)))
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
    assert _primary_invariants(_element_orders(els)) == expected
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
            assert orb.config.kernel == Subgroup.spanned(form, gens)


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


@pytest.mark.parametrize(
    "text, p, rank",
    # A5+7A2 has three orbits; A8's 3-torsion sits inside its Z9
    [("3E6", 3, 1), ("6A2", 3, 2), ("A5+7A2", 3, 2), ("A8+4A2", 3, 2), ("4A4", 5, 2)],
)
def test_admissible_kernels_match_orbit_closure(text, p, rank):
    # reference: close each kernel under the generators' automorphisms one
    # Subgroup at a time; the representative is the orbit's least kernel
    g = parse_singularities(text)
    form = graph_discr(g)
    tables = [discr_action(g, s, range(form.order())) for s in graph_symmetries(g).generators]
    want, seen = [], set()
    for row in isotropic_subspaces(form, p, rank):
        k = Subgroup(form, tuple(row.tolist()))
        if k in seen:
            continue
        orbit, todo = {k}, [k]
        while todo:
            h = todo.pop()
            for a in tables:
                img = Subgroup(form, tuple(sorted(a[list(h.codes)].tolist())))
                if img not in orbit:
                    orbit.add(img)
                    todo.append(img)
        seen |= orbit
        want.append((min(orbit, key=lambda s: s.elements), len(orbit)))
    got = [(o.config.kernel, o.size) for o in admissible_kernels(g, p, rank)]
    assert got == sorted(want, key=lambda rs: rs[0].elements)


def test_admissible_kernels_pinned():
    # recorded from the label-propagation orbit step this one replaced
    g = parse_singularities("9A2")
    form = graph_discr(g)
    orbs = admissible_kernels(g, 3, 3)
    assert [o.size for o in orbs] == [17920, 322560, 215040]
    assert [o.config.kernel.generators() for o in orbs] == [
        [(0, 0, 0, 0, 0, 0, 1, 1, 1), (0, 0, 0, 1, 1, 1, 0, 0, 0), (1, 1, 1, 0, 0, 0, 0, 0, 0)],
        [(0, 0, 0, 0, 0, 0, 1, 1, 1), (0, 0, 1, 1, 1, 1, 0, 1, 2), (1, 1, 0, 0, 1, 1, 0, 2, 1)],
        [(0, 0, 0, 1, 1, 1, 1, 1, 1), (0, 1, 1, 0, 0, 1, 1, 2, 2), (1, 0, 1, 0, 1, 0, 2, 1, 2)],
    ]
    assert [o.size for o in admissible_kernels(parse_singularities("8A2"), 3, 2)] == [13440]


KERNEL_FAMILIES = [f for f in catalog.families() if f.kernel_spec[0]]

# 9A2's kernel orbits: representative generators, the orbit size found by
# closing all 555,520 kernels under the generators, and the stabilizer order
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
    # children of several parents share a stabilizer order here, and
    # _merge's isomorphism test joins those that lie in one orbit
    got = [(o.config.kernel, o.size) for o in admissible_kernels(g, 3, rank)]
    assert got == kernel_orbits(g, 3, rank)


def test_sym_config_9a2_orders():
    g = parse_singularities("9A2")
    form = graph_discr(g)
    line = configuration(g, Subgroup.spanned(form, [(1,) * 9]))
    assert sym_config(line).order == 725760
    for gens, _, order in NINE_A2_ORBITS:
        c = configuration(g, Subgroup.spanned(form, gens))
        grp = sym_config(c)
        assert grp.order == order
        for s in grp.generators:
            image = discr_action(g, s, c.kernel.codes)
            assert sorted(image.tolist()) == list(c.kernel.codes)


@pytest.mark.parametrize("fam", catalog.families(), ids=lambda f: f.essential)
def test_orbit_stabilizer(fam):
    # each orbit's size, from closing the kernel set under the generators,
    # times its representative's stabilizer order is the symmetry group's order
    g = parse_singularities(fam.essential)
    form = graph_discr(g)
    p, rank = fam.kernel_spec
    if rank == 0:
        rows = [(Subgroup.trivial(form), 1)]
    elif fam.essential == "9A2":
        rows = [(Subgroup.spanned(form, gens), size) for gens, size, _ in NINE_A2_ORBITS]
    else:
        rows = kernel_orbits(g, p, rank)
    assert rows
    for k, size in rows:
        assert sym_config(configuration(g, k)).order * size == graph_symmetries(g).order


def test_kernel_orbit_conjugation_equivariance():
    g = parse_singularities("3E6")
    form = graph_discr(g)
    k1 = Subgroup.spanned(form, [(1, 1, 2)])
    # conjugate the kernel by a symmetry exchanging two components
    t = next(
        s
        for s in symmetries(g)
        if not s.is_identity()
        and not contains(k1, act(g, s, (1, 1, 2)))
    )
    k2 = Subgroup.spanned(form, [act(g, t, x) for x in k1.elements])
    rep1 = {vertex_perm(g, s) for s in sym_stable(configuration(g, k1)).elements}
    rep2 = {vertex_perm(g, s) for s in sym_stable(configuration(g, k2)).elements}
    t_inv = next(s for s in symmetries(g) if s.compose(t).is_identity())
    conj = {vertex_perm(g, t.compose(s).compose(t_inv)) for s in sym_stable(configuration(g, k1)).elements}
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
