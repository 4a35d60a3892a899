from collections import Counter

import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from sexticsym import catalog
from sexticsym.discrforms import Subgroup
from sexticsym.rootsystems import (
    GraphSymmetry,
    SymmetryGroup,
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
    trivial_kernel,
)


def config(text: str, gens):
    g = parse_singularities(text)
    form = graph_discr(g)
    return configuration(g, Subgroup.spanned(form, gens))


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
    g = parse_singularities("2E8+A3+A1")  # rank 20
    with pytest.raises(ValueError):
        configuration(g, trivial_kernel(g))


def test_essential_blocks():
    c = config("2E6+A5+A2", [(1, 1, 2, 0)])
    assert c.essential == (0, 1, 2)
    c2 = config("3E6", [(1, 1, 1)])
    assert c2.essential == (0, 1, 2)
    g = parse_singularities("2E8+A3")
    c3 = configuration(g, trivial_kernel(g))
    assert c3.essential == ()


# ---------------------------------------------------------------------------
# symmetry groups of configurations


def test_sym_config_3e6():
    c = config("3E6", [(1, 1, 1)])
    grp = sym_config(c)
    assert grp.order == 12
    # sym_config preserves the kernel setwise
    g = c.graph
    form = graph_discr(g)
    for s in grp.elements():
        a = discr_action(g, s)
        for x in c.kernel.elements:
            assert a.apply(form, x) in c.kernel


def test_sym_stable_3e6():
    c = config("3E6", [(1, 1, 1)])
    rep = sym_stable(c)
    assert rep.order == 6
    assert rep.label == "S3"
    assert rep.kappa_order == 2
    assert not rep.kappa_faithful
    assert rep.orbit_partition == ((0, 1, 2),)
    # the stable group is a subgroup of the configuration group
    cfg = {s.perm for s in sym_config(c).elements()}
    stab = {s.perm for s in rep.elements}
    assert stab < cfg


def test_stability_condition_explicit():
    # stable symmetries act as the identity on K-perp / K
    c = config("3E6", [(1, 1, 1)])
    g = c.graph
    form = graph_discr(g)
    perp = [x for x in form.elements() if all(form.b(x, y) == 0 for y in c.kernel.elements)]
    assert len(perp) == 9
    stable = {s.perm for s in sym_stable(c).elements}
    for s in sym_config(c).elements():
        a = discr_action(g, s)
        ok = all(form.sub(a.apply(form, z), z) in c.kernel for z in perp)
        assert ok == (s.perm in stable)


def test_sym_stable_2e8_a3():
    g = parse_singularities("2E8+A3")
    rep = sym_stable(configuration(g, trivial_kernel(g)))
    assert rep.order == 2
    assert rep.label == "Z2"
    # the involution swaps the two E8 components and fixes A3 pointwise
    assert rep.orbit_partition == ((0, 1), (2,))
    a3_off = g.offsets[2]
    for s in rep.elements:
        for i in range(a3_off, a3_off + 3):
            assert s.perm[i] == i


def test_ordinary_components_fixed_pointwise():
    # adding an ordinary A2 to 2E6+A5 changes neither the group nor moves it
    c = config("2E6+A5+A2", [(1, 1, 2, 0)])
    rep = sym_stable(c)
    assert rep.order == 2 and rep.label == "Z2"
    assert rep.orbit_partition == ((0, 1), (2,), (3,))
    off = c.graph.offsets[3]
    for s in rep.elements:
        for i in range(off, off + 2):
            assert s.perm[i] == i
    # same group as for the bare essential set
    bare = classify_family("2E6+A5", "TorusW6", (3, 1), "Z2")
    assert bare.matches_theorem


# ---------------------------------------------------------------------------
# group identification


def test_identify_group_labels():
    def grp(text):
        return graph_symmetries(parse_singularities(text)).elements()

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
    """Z_{c_1} x ... x Z_{c_r}, generated by disjoint cycles."""
    degree = sum(cycles)
    gens, off = [], 0
    for c in cycles:
        perm = list(range(degree))
        for i in range(c):
            perm[off + i] = off + (i + 1) % c
        gens.append(tuple(perm))
        off += c
    group = PermutationGroup([Permutation(list(g)) for g in gens])
    expected = [int(x) for x in group.abelian_invariants()]
    els = SymmetryGroup(tuple(GraphSymmetry(g) for g in gens), group.order(), degree).elements()
    assert _primary_invariants(_element_orders([e.perm for e in els])) == expected
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
            assert orb.representative == Subgroup.spanned(form, gens)


def test_admissible_kernels_other_primes():
    assert [o.size for o in admissible_kernels(parse_singularities("4A4"), 5, 1)] == [24]
    orbs = admissible_kernels(parse_singularities("3A6"), 7, 1)
    assert [o.size for o in orbs] == [8]
    assert (1, 2, 3) in orbs[0].representative
    # trivial-kernel spec
    orbs0 = admissible_kernels(parse_singularities("2E8+A2"), None, 0)
    assert len(orbs0) == 1 and orbs0[0].representative.order() == 1


def test_admissible_kernels_empty_when_unsupported():
    assert admissible_kernels(parse_singularities("2E8+A3"), 3, 1) == []


def test_kernel_orbit_conjugation_equivariance():
    g = parse_singularities("3E6")
    form = graph_discr(g)
    k1 = Subgroup.spanned(form, [(1, 1, 2)])
    # conjugate the kernel by a symmetry exchanging two components
    syms = graph_symmetries(g).elements()
    t = next(
        s
        for s in syms
        if not s.is_identity()
        and discr_action(g, s).apply(form, (1, 1, 2)) not in k1
    )
    a = discr_action(g, t)
    k2 = Subgroup.spanned(form, [a.apply(form, x) for x in k1.elements])
    rep1 = {s.perm for s in sym_stable(configuration(g, k1)).elements}
    rep2 = {s.perm for s in sym_stable(configuration(g, k2)).elements}
    conj = {t.compose(s).compose(t.inverse()).perm for s in sym_stable(configuration(g, k1)).elements}
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
    allowed = {
        ("2E6", "E6"),
        ("2E6", "A5"),
        ("2A2", "2E6"),
        ("A17",),
        ("2A8",),
    }
    seen = set()
    for v in torus_verdicts:
        for row in v.rows:
            g = parse_singularities(v.singularities)
            for s in row.report.elements:
                pi = [None] * len(g.components)
                for ci in range(len(g.components)):
                    off = g.offsets[ci]
                    img = s.perm[off]
                    pi[ci] = g.component_of(img)
                order = 1
                t = s
                while not t.is_identity():
                    t = t.compose(s)
                    order += 1
                if order != 2:
                    continue
                orbits = []
                done = set()
                for ci in range(len(g.components)):
                    if ci in done:
                        continue
                    if pi[ci] != ci:
                        done.update({ci, pi[ci]})
                        orbits.append("2" + g.components[ci].label())
                    else:
                        done.add(ci)
                        moved = any(
                            s.perm[i] != i
                            for i in range(g.offsets[ci], g.offsets[ci] + g.components[ci].rank)
                        )
                        if moved:
                            orbits.append(g.components[ci].label())
                key = tuple(sorted(orbits))
                assert len(orbits) <= 2
                assert key in allowed, (v.singularities, key)
                seen.add(key)
    assert seen == allowed
