"""End-to-end acceptance checks.

Each test prints a single "CRITERION n: PASS/FAIL" line so the suite can be
skimmed from the log.  Everything is exact; no tolerances anywhere.
"""

import time
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np

from sexticsym import catalog, dessins, stability, weierstrass
from sexticsym.dessins import elementary_transform, fiber_multiset, print_fibers
from sexticsym.discrforms import Subgroup
from sexticsym.exactcore import RatPoly
from sexticsym.rootsystems import (
    ADEType,
    DynkinGraph,
    component_discr,
    discr_action,
    graph_discr,
    graph_symmetries,
    parse_singularities,
)
from sexticsym.stability import configuration, sym_stable
from sexticsym.weierstrass import WeierstrassCurve

from conftest import CURVE_CORPUS, corpus_curve
from helpers import (
    assert_q_lifts_b,
    elements,
    fiber_types,
    involution_patterns,
    offsets,
    symmetries,
    vertex_perm,
)

ALL_CONNECTED = (
    [ADEType("A", p) for p in range(1, 20)]
    + [ADEType("D", r) for r in range(4, 20)]
    + [ADEType("E", n) for n in (6, 7, 8)]
)

NONTRIVIAL_GROUPS = {
    "9A2": "GD(Z3xZ3)",
    "3E6": "S3",
    "3A6": "Z3",
    "2E6+A5": "Z2",
    "2E6+2A2": "Z2",
    "A17": "Z2",
    "2A8": "Z2",
}


@contextmanager
def criterion(n: int):
    try:
        yield
    except BaseException:
        print(f"CRITERION {n}: FAIL")
        raise
    print(f"CRITERION {n}: PASS")


# ---------------------------------------------------------------------------


def test_criterion_1_full_classification():
    with criterion(1):
        t0 = time.monotonic()
        verdicts = stability.classify_catalog()
        elapsed = time.monotonic() - t0
        assert elapsed < 300
        assert len(verdicts) == 34
        for v in verdicts:
            assert v.matches_theorem, v.singularities
            if v.singularities in NONTRIVIAL_GROUPS:
                assert v.expected_label == NONTRIVIAL_GROUPS[v.singularities]
            elif v.family_tag == "TorusW6":
                assert v.expected_label == "trivial"
            elif v.family_tag in ("Weight8", "D10", "TwoE8"):
                assert v.expected_label == "Z2"
        # the one group of order 18
        nine = next(v for v in verdicts if v.singularities == "9A2")
        assert any(
            r.report.label == "GD(Z3xZ3)" and r.report.order == 18
            for r in nine.rows
        )
        # the 19 weight <= 7 candidates split 5 nontrivial / 14 trivial
        torus = [v for v in verdicts if v.family_tag == "TorusW6"]
        assert len(torus) == 19
        assert sum(1 for v in torus if v.expected_label == "trivial") == 14


def test_criterion_2_skeleton_enumeration():
    with criterion(2):
        t0 = time.monotonic()
        rows = dessins.table1()
        assert len(rows) == 12
        assert sum(1 for r in rows if r.irreducible) == 5
        assert sum(1 for r in rows if not r.irreducible) == 7
        assert len(dessins.enumerate_skeletons(2, 0)) == 6
        assert len(dessins.enumerate_skeletons(1, 1)) == 5
        assert time.monotonic() - t0 < 10


def test_criterion_3_four_cusp_curve():
    with criterion(3):
        c = corpus_curve("4A2~")
        delta = weierstrass.discriminant(c)
        assert delta == RatPoly([0, 0, 0, 108]) * RatPoly([-1, 0, 0, 1]) ** 3
        fibers = weierstrass.fiber_analysis(c, delta)
        num, den = weierstrass.j_invariant(c, delta, fibers)
        assert num == RatPoly([F(-1, 64)]) * RatPoly([1, 0, 0, 8]) ** 3
        assert den == RatPoly([0, 0, 0, 1]) * RatPoly([-1, 0, 0, 1]) ** 3
        assert sorted(t.label() for t in fiber_types(fibers)) == ["A2~"] * 4
        assert weierstrass.milnor(fibers) == 8
        assert weierstrass.is_stable(fibers)
        assert weierstrass.is_maximal(c, delta, fibers)
        assert not weierstrass.is_isotrivial(num, den)


def test_criterion_4_discriminant_forms():
    with criterion(4):
        for t in ALL_CONNECTED:
            form = component_discr(t).form
            form.validate()
            if t.family == "A":
                assert form.orders == (t.rank + 1,)
                assert form.q((1,)) == F(-t.rank, t.rank + 1) % 2
            elif t.family == "D":
                vals = sorted(form.q(x) for x in elements(form) if any(x))
                beta = F(-t.rank, 4) % 2
                assert sorted(form.orders) == ([2, 2] if t.rank % 2 == 0 else [4])
                assert vals == sorted([F(1), beta, beta])
            elif t.rank == 6:
                assert form.orders == (3,) and form.q((1,)) == F(2, 3)
            elif t.rank == 7:
                assert form.orders == (2,) and form.q((1,)) == F(1, 2)
            else:
                assert form.order() == 1
            assert_q_lifts_b(form)
            # the symmetry group acts faithfully on the form (monicity);
            # for E8 both sides are trivial
            g = DynkinGraph((t,))
            syms = symmetries(g)
            actions = {tuple(discr_action(g, s, range(form.order())).tolist()) for s in syms}
            assert len(actions) == graph_symmetries(g).order
            # a unique nontrivial flip acts as -id exactly when the form is
            # not 2-torsion
            flips = [s for s in syms if not s.is_identity()]
            if len(flips) == 1:
                table = discr_action(g, flips[0], range(form.order()))
                minus = np.array_equal(table, form.encode(-form.element_array))
                # for D even the flip swaps the two spinor classes instead
                assert minus == (t.family != "D" or t.rank % 2 == 1)


def test_criterion_5_component_counts(table1_rows, k2_stable_skeletons):
    with criterion(5):
        rows = {print_fibers(r.fibers): r for r in table1_rows}
        # k = 2 skeletons match the unramified rows directly
        for sk in k2_stable_skeletons:
            label = print_fibers(fiber_multiset(sk))
            assert rows[label].irreducible == (dessins.component_count(sk) == 1)
        # k = 1 skeletons reach the ramified rows through an elementary
        # transformation; component counts transfer unchanged
        covered = set()
        for sk in dessins.enumerate_skeletons(1, 1):
            fibers = fiber_multiset(sk)
            comps = dessins.component_count(sk)
            for t in set(fibers):
                out = elementary_transform(fibers, t)
                if not all(f.is_stable for f in out):
                    continue
                label = print_fibers(out)
                assert label in rows
                assert rows[label].irreducible == (comps == 1)
                covered.add(label)
        ramified = {
            lbl for lbl, r in rows.items() if any(f.family in "DE" for f in r.fibers)
        }
        assert covered == ramified


def test_criterion_6_involution_orbits():
    with criterion(6):
        allowed = {("2E6", "E6"), ("2E6", "A5"), ("2A2", "2E6"), ("A17",), ("2A8",)}
        seen = set()
        for f in catalog.families():
            if f.tag != "TorusW6":
                continue
            v = stability.classify_family(f.essential, f.tag, f.kernel_spec, f.expected_group)
            g = parse_singularities(f.essential)
            for row in v.rows:
                for key in involution_patterns(g, row.report.elements):
                    assert len(key) <= 2
                    assert key in allowed, (f.essential, key)
                    seen.add(key)
        assert seen == allowed
        # stable symmetries fix ordinary (non-essential, non-E8) components
        # pointwise
        for text, gens, ordinary in (("2E6+A5+A2", [(1, 1, 2, 0)], 3), ("2E8+A3", [], 2)):
            g = parse_singularities(text)
            rep = sym_stable(configuration(g, Subgroup.spanned(graph_discr(g), gens)))
            off = offsets(g)[ordinary]
            rank = g.components[ordinary].rank
            for s in rep.elements:
                assert all(vertex_perm(g, s)[i] == i for i in range(off, off + rank))


def test_criterion_7_budgets_and_milnor(table1_rows, k2_stable_skeletons):
    with criterion(7):
        for k, skeletons in (
            (1, dessins.enumerate_skeletons(1, 0)),
            (1, dessins.enumerate_skeletons(1, 1)),
            (2, k2_stable_skeletons),
        ):
            for sk in skeletons:
                fibers = fiber_multiset(sk)
                assert sum(f.discriminant_degree() for f in fibers) == 6 * k
        # the stable maximal k = 2 fiber sets all use the full budget of 12
        for r in table1_rows:
            assert sum(f.discriminant_degree() for f in r.fibers) == 12
        # total Milnor number 8 characterizes stable maximal curves among the
        # non-isotrivial k = 2 corpus
        pool = [corpus_curve(lbl) for lbl in CURVE_CORPUS]
        base = corpus_curve("4A2~")
        pool.append(WeierstrassCurve(2, base.g2, base.g3 + RatPoly([0, 1])))
        pool.append(WeierstrassCurve(2, base.g2 + RatPoly([1]), base.g3))
        pool.append(WeierstrassCurve(2, base.g2, base.g3 + RatPoly([F(1, 5)])))
        n_stable_maximal = 0
        for c in pool:
            delta = weierstrass.discriminant(c)
            fibers = weierstrass.fiber_analysis(c, delta)
            assert not weierstrass.is_isotrivial(*weierstrass.j_invariant(c, delta, fibers))
            stable_maximal = weierstrass.is_stable(fibers) and weierstrass.is_maximal(c, delta, fibers)
            assert (weierstrass.milnor(fibers) == 8) == stable_maximal
            n_stable_maximal += stable_maximal
        assert n_stable_maximal == len(CURVE_CORPUS)
