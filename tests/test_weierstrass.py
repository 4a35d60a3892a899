from fractions import Fraction as F

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sexticsym.dessins import fiber_multiset_sorted, print_fibers
from sexticsym.exactcore import RatPoly, poly_gcd, squarefree_partition
from sexticsym import weierstrass
from sexticsym.weierstrass import (
    INF,
    INFINITY,
    WeierstrassCurve,
    ZeroDiscriminant,
    curve_from_json,
    discriminant,
    fiber_analysis,
    is_isotrivial,
    is_maximal,
    is_stable,
    j_invariant,
    milnor,
)

from conftest import AT_BOUND_CURVES, CURVE_CORPUS, at_bound_curve, corpus_curve
from helpers import (
    coeff_strs_by_fractions,
    fiber_analysis_always_split,
    fiber_types,
    is_maximal_by_factoring,
    j_map_by_gcd,
    moebius,
    multiplicity,
    parse_fibers,
    shift,
    tate_type,
    to_sympy,
)


# ---------------------------------------------------------------------------
# the four-cusp curve, pinned exactly


def test_four_cusp_discriminant_exact(corpus):
    c = corpus["4A2~"]
    g2_term, delta = discriminant(c)
    assert delta == RatPoly([0, 0, 0, 108]) * RatPoly([-1, 0, 0, 1]) ** 3
    assert g2_term == 4 * c.g2 ** 3


def test_four_cusp_j_invariant_exact(corpus):
    # j = -(8x^3+1)^3 / (64 x^3 (x^3-1)^3), denominator monic after reduction
    c = corpus["4A2~"]
    g2_term, delta = discriminant(c)
    num, den = j_invariant(g2_term, delta, fiber_analysis(c, delta))
    assert num == RatPoly([F(-1, 64)]) * RatPoly([1, 0, 0, 8]) ** 3
    assert den == RatPoly([0, 0, 0, 1]) * RatPoly([-1, 0, 0, 1]) ** 3
    assert den.monic() == den


def test_four_cusp_fibers(corpus):
    c = corpus["4A2~"]
    g2_term, delta = discriminant(c)
    reports = fiber_analysis(c, delta)
    assert len(reports) == 1
    (r,) = reports
    assert r.place == RatPoly([0, -1, 0, 0, 1]).monic()
    assert r.count == 4
    assert r.mults == (0, 0, 3)
    assert r.type.label() == "A2~"
    num, den = j_invariant(g2_term, delta, reports)
    assert milnor(reports) == 8
    assert is_stable(reports)
    assert is_maximal(c, delta, reports)
    assert not is_isotrivial(num, den)


# ---------------------------------------------------------------------------
# the frozen corpus: one curve per row of the fiber table (Table 1)


def test_corpus_covers_table1(table1_rows):
    assert sorted(print_fibers(r.fibers) for r in table1_rows) == sorted(CURVE_CORPUS)


@pytest.mark.parametrize("label", sorted(CURVE_CORPUS))
def test_corpus_fiber_multisets(label, corpus):
    c = corpus[label]
    g2_term, delta = discriminant(c)
    reports = fiber_analysis(c, delta)
    num, den = j_invariant(g2_term, delta, reports)
    assert print_fibers(fiber_multiset_sorted(fiber_types(reports))) == label
    assert milnor(reports) == 8
    assert is_stable(reports)
    assert is_maximal(c, delta, reports)
    assert not is_isotrivial(num, den)


@pytest.mark.parametrize("label", sorted(CURVE_CORPUS))
def test_corpus_discriminant_budget(label, corpus):
    # total discriminant multiplicity, counting the place at infinity, is 6k
    c = corpus[label]
    reports = fiber_analysis(c, discriminant(c)[1])
    assert sum(r.count * r.mults[2] for r in reports) == 12


@pytest.mark.parametrize("label", sorted(CURVE_CORPUS))
def test_corpus_orders_by_division(label, corpus):
    # (a, b, d) of each finite place class are the orders of g2, g3 and
    # Delta there, counted by repeated division
    c = corpus[label]
    _, delta = discriminant(c)
    reports = fiber_analysis(c, delta)
    for r in reports:
        if r.place != INFINITY:
            assert r.mults == tuple(multiplicity(f, r.place) for f in (c.g2, c.g3, delta))


def test_corpus_fiber_at_infinity(corpus):
    c = corpus["A5~+A2~+A1~+A0*"]
    inf = [r for r in fiber_analysis(c, discriminant(c)[1]) if r.place == INFINITY]
    assert len(inf) == 1
    assert inf[0].type == parse_fibers("A1~")[0]
    assert inf[0].mults == (0, 0, 2)


@pytest.mark.parametrize("label", ["4A2~", "2A4~+2A0*", "A8~+3A0*"])
def test_shift_equivariance(label, corpus):
    # translating the base coordinate does not change fiber data
    c = corpus[label]
    reports = fiber_analysis(c, discriminant(c)[1])
    for t in (1, F(-2, 3)):
        s = WeierstrassCurve(2, shift(c.g2, t), shift(c.g3, t))
        shifted = fiber_analysis(s, discriminant(s)[1])
        assert fiber_multiset_sorted(fiber_types(shifted)) == fiber_multiset_sorted(
            fiber_types(reports)
        )
        assert milnor(shifted) == milnor(reports)
        assert is_maximal(s, discriminant(s)[1], shifted) == is_maximal(c, discriminant(c)[1], reports)


def fiber_summary(c):
    """What x -> a x + c and y -> lam y keep: the fiber types, the Milnor
    number, the verdicts and deg j."""
    g2_term, delta = discriminant(c)
    fibers = fiber_analysis(c, delta)
    num, den = j_invariant(g2_term, delta, fibers)
    return (fiber_multiset_sorted(fiber_types(fibers)), milnor(fibers), is_maximal(c, delta, fibers),
            is_stable(fibers), is_isotrivial(num, den), max(num.degree, den.degree))


NONZERO = st.fractions(-12, 12, max_denominator=12).filter(bool)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CURVE_CORPUS)), NONZERO, st.fractions(-12, 12, max_denominator=12),
       st.fractions(-6, 6, max_denominator=6).filter(bool))
def test_affine_equivariance(label, a, shift_by, lam):
    # the benchmark's corpus transform: g2(a x + c) / lam^2, g3(a x + c) / lam^3
    # (y -> lam y); it keeps every fiber at its place class, and drives the
    # integer polynomial core through nontrivial denominators
    c = corpus_curve(label)
    moved = WeierstrassCurve(2, moebius(c.g2, 4, a, shift_by, 0, 1) * (1 / lam**2),
                             moebius(c.g3, 6, a, shift_by, 0, 1) * (1 / lam**3))
    assert fiber_summary(moved) == fiber_summary(c)
    assert print_fibers(fiber_summary(moved)[0]) == label
    _, delta = discriminant(moved)
    assert fiber_analysis(moved, delta) == fiber_analysis_always_split(moved, delta)


def test_split_by_order_builds_no_fraction(corpus, monkeypatch):
    # each class of each corpus discriminant refined by the orders of g2
    # and g3 on integers only: any Fraction built fails the test
    cases = [(g, f) for c in corpus.values() for g, _ in squarefree_partition(discriminant(c)[1]) for f in (c.g2, c.g3)]
    want = [weierstrass._split_by_order(g, f) for g, f in cases]

    def refused(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(F, "__new__", refused)
    assert [weierstrass._split_by_order(g, f) for g, f in cases] == want


# ---------------------------------------------------------------------------
# stability, maximality, isotriviality


def test_isotrivial_two_d4():
    c = WeierstrassCurve(2, RatPoly([0, 0, -3]), RatPoly([0, 0, 0, 1]))
    g2_term, delta = discriminant(c)
    reports = fiber_analysis(c, delta)
    assert print_fibers(fiber_multiset_sorted(fiber_types(reports))) == "2D4~"
    assert milnor(reports) == 8
    assert is_stable(reports)
    num, den = j_invariant(g2_term, delta, reports)
    assert is_isotrivial(num, den)
    assert (num, den) == (RatPoly([F(4, 3)]), RatPoly([1]))
    # isotrivial curves are never maximal
    assert not is_maximal(c, delta, reports)


def test_constant_discriminant_non_simple_fiber():
    c = WeierstrassCurve(2, RatPoly([0]), RatPoly([1]))
    reports = fiber_analysis(c, discriminant(c)[1])
    assert len(reports) == 1
    assert reports[0].place == INFINITY
    assert reports[0].type.family == "J"
    assert not is_stable(reports)
    with pytest.raises(ValueError):
        milnor(reports)


def test_perturbation_destroys_maximality(corpus):
    c = corpus["4A2~"]
    p = WeierstrassCurve(2, c.g2, c.g3 + RatPoly([0, 1]))
    reports = fiber_analysis(p, discriminant(p)[1])
    assert print_fibers(fiber_multiset_sorted(fiber_types(reports))) == "12A0*"
    assert milnor(reports) == 0
    assert is_stable(reports)
    assert not is_maximal(p, discriminant(p)[1], reports)


def test_milnor_eight_iff_stable_and_maximal(corpus):
    pool = [c for c in corpus.values()]
    base = corpus["4A2~"]
    pool.append(WeierstrassCurve(2, base.g2, base.g3 + RatPoly([0, 1])))
    pool.append(WeierstrassCurve(2, base.g2, base.g3 + RatPoly([F(1, 7)])))
    pool.append(WeierstrassCurve(2, base.g2 + RatPoly([1]), base.g3))
    for c in pool:
        g2_term, delta = discriminant(c)
        reports = fiber_analysis(c, delta)
        if is_isotrivial(*j_invariant(g2_term, delta, reports)):
            continue
        assert (milnor(reports) == 8) == (is_stable(reports) and is_maximal(c, delta, reports))


# ---------------------------------------------------------------------------
# construction and input validation


def test_zero_discriminant_rejected():
    c = WeierstrassCurve(2, RatPoly([0, 0, -3]), RatPoly([0, 0, 0, 2]))
    assert discriminant(c)[1].is_zero()
    with pytest.raises(ZeroDiscriminant):
        fiber_analysis(c, discriminant(c)[1])
    with pytest.raises(ZeroDiscriminant):
        j_invariant(*discriminant(c), [])


def test_degree_bounds():
    with pytest.raises(ValueError):
        WeierstrassCurve(1, RatPoly([0, 0, 0, 1]), RatPoly([1]))  # deg g2 > 2k
    with pytest.raises(ValueError):
        WeierstrassCurve(1, RatPoly([1]), RatPoly([0, 0, 0, 0, 1]))
    with pytest.raises(ValueError):
        WeierstrassCurve(0, RatPoly([1]), RatPoly([1]))
    with pytest.raises(ValueError):
        WeierstrassCurve(2, RatPoly([0]), RatPoly([0]))


def test_curve_from_json_lead_normalization(corpus):
    g2, g3 = CURVE_CORPUS["A8~+3A0*"]
    data = {
        "k": 2,
        "g2": [str(F(c) * 4) for c in g2],
        "g3": [str(F(c) * 4) for c in g3],
        "lead": "4",
    }
    c = curve_from_json(data)
    assert c == corpus["A8~+3A0*"]
    with pytest.raises(ValueError):
        curve_from_json({"k": 2, "g2": ["1"], "g3": ["1"], "lead": "0"})


def test_fiber_analysis_checks_degree(corpus, monkeypatch):
    # the classes' orders d add up to deg Delta; a partition that loses a
    # class must raise, also under python -O
    c = corpus["4A2~"]
    real = weierstrass.squarefree_partition
    monkeypatch.setattr(weierstrass, "squarefree_partition", lambda f: real(f)[:-1])
    with pytest.raises(ArithmeticError, match="deg Delta"):
        fiber_analysis(c, discriminant(c)[1])


@pytest.mark.parametrize("lost", [0, 1])
def test_is_maximal_checks_degree(corpus, lost):
    # the indices over each of 0, 1, Infinity add up to deg j; fibers that
    # lose a class (the A8~ or the 3A0* one) must raise, also under python -O
    c = corpus["A8~+3A0*"]
    _, delta = discriminant(c)
    fibers = fiber_analysis(c, delta)
    assert [r.type.label() for r in fibers] == ["A8~", "A0*"]
    with pytest.raises(ArithmeticError, match="does not add up to deg j"):
        is_maximal(c, delta, fibers[:lost] + fibers[lost + 1:])


def test_is_maximal_does_no_polynomial_arithmetic(corpus, monkeypatch):
    # deg j and every ramification index are sums over the orders (a, b, d)
    cases = []
    for c in corpus.values():
        _, delta = discriminant(c)
        cases.append((c, delta, fiber_analysis(c, delta)))

    def forbidden(*args):
        raise AssertionError("polynomial arithmetic in is_maximal")

    for name in ("__add__", "__mul__", "__rmul__", "__pow__"):
        monkeypatch.setattr(RatPoly, name, forbidden)
    monkeypatch.setattr(weierstrass, "poly_gcd", forbidden)
    monkeypatch.setattr(weierstrass, "exact_quotient", forbidden)
    assert all(is_maximal(*case) for case in cases)


@pytest.mark.parametrize("g2, g3, g, e", [
    ([0, 0, -1], [-2, 2, -3], "g2", 6),  # g2 = -x^2: index 6 over 0
    ([3, -1], [0, 0, 3, 1], "g3", 4),  # g3 = x^2 (x + 3): index 4 over 1
])
def test_repeated_root_off_delta_is_not_maximal(g2, g3, g, e):
    # a double root of g2 (g3) at x = 0, off Delta, is one point of index
    # 6 (4); is_maximal counts two points of index 3 (2), within the bound,
    # and rejects the curve by Riemann-Hurwitz saturation instead
    c = WeierstrassCurve(1, RatPoly(g2), RatPoly(g3))
    g2_term, delta = discriminant(c)
    assert delta.num[0] != 0  # Delta(0)
    fibers = fiber_analysis(c, delta)
    num, den = j_invariant(g2_term, delta, fibers)
    over = num if g == "g2" else num + -1 * den
    assert multiplicity(over, RatPoly([0, 1])) == e
    assert not is_maximal(c, delta, fibers)
    assert not is_maximal_by_factoring(fibers, num, den)


# ---------------------------------------------------------------------------
# the j-map read off the fiber orders, against gcd and factoring


def _poly(draw, deg, coeffs=st.fractions(-3, 3, max_denominator=3)):
    return RatPoly(draw(st.lists(coeffs, max_size=deg + 1)))


@st.composite
def curves(draw):
    """k in {1, 2}: random curves, the cusp family g2 = -3u^2, g3 = 2u^3 plus
    a small perturbation, g2 = 0, g3 = 0, and corpus curves moved by a
    Moebius map (so their fibers move to and from Infinity)."""
    k = draw(st.sampled_from([1, 2]))
    kind = draw(st.sampled_from(["random", "cusp", "g2 = 0", "g3 = 0", "corpus"]))
    if kind == "corpus":
        g2, g3 = (RatPoly(g) for g in CURVE_CORPUS[draw(st.sampled_from(sorted(CURVE_CORPUS)))])
        a, b, c, d = (draw(st.integers(-2, 2)) for _ in range(4))
        assume(a * d != b * c)
        return WeierstrassCurve(2, moebius(g2, 4, a, b, c, d), moebius(g3, 6, a, b, c, d))
    if kind == "cusp":
        u = _poly(draw, k)
        g2, g3 = -3 * u**2, 2 * u**3 + _poly(draw, 3 * k, st.sampled_from([0, 0, 1, -1, F(1, 2)]))
    else:
        g2 = RatPoly([]) if kind == "g2 = 0" else _poly(draw, 2 * k)
        g3 = RatPoly([]) if kind == "g3 = 0" else _poly(draw, 3 * k)
    assume(not (g2.is_zero() and g3.is_zero()))
    return WeierstrassCurve(k, g2, g3)


@settings(max_examples=50, deadline=None)
@given(curves())
def test_j_map_matches_factoring_oracle(c):
    g2_term, delta = discriminant(c)
    assume(not delta.is_zero())
    fibers = fiber_analysis(c, delta)
    num, den = j_invariant(g2_term, delta, fibers)
    assert (num, den) == j_map_by_gcd(c, delta)
    assert is_maximal(c, delta, fibers) == is_maximal_by_factoring(fibers, num, den)


@settings(max_examples=30, deadline=None)
@given(curves())
def test_j_invariant_matches_sympy_cancel(c):
    g2_term, delta = discriminant(c)
    assume(not delta.is_zero())
    num, den = j_invariant(g2_term, delta, fiber_analysis(c, delta))
    assert den.num[-1] == den.den  # monic
    assert poly_gcd(num, den).degree <= 0
    j = sympy.cancel(4 * to_sympy(c.g2) ** 3 / to_sympy(delta))
    assert sympy.simplify(j - to_sympy(num) / to_sympy(den)) == 0


# ---------------------------------------------------------------------------
# fiber_analysis against the oracle that splits every class by g2 and g3


@settings(max_examples=60, deadline=None)
@given(curves())
def test_fiber_analysis_matches_always_split(c):
    _, delta = discriminant(c)
    assume(not delta.is_zero())
    assert fiber_analysis(c, delta) == fiber_analysis_always_split(c, delta)


SPECIAL_PLACES = {
    # (k, g2, g3) -> the orders (a, b, d) and type at x = 0: b is split off
    # g3 where d = 3a and read off d elsewhere, as d / 2 where d < 3a and
    # as 3a / 2 where d > 3a
    "A0**": ((1, [0, 1], [0, 1]), (1, 1, 2), "A0**"),
    "A1*": ((1, [0, 1], [0, 0, 1]), (1, 2, 3), "A1*"),
    "A2*": ((2, [0, 0, 1], [0, 0, 1]), (2, 2, 4), "A2*"),
    "D4~": ((2, [0, 0, 1], [0, 0, 0, 1]), (2, 3, 6), "D4~"),
    "D5~": ((2, [0, 0, -3], [0, 0, 0, 2, 1]), (2, 3, 7), "D5~"),
    "E6~": ((2, [0, 0, 0, 1], [0, 0, 0, 0, 1]), (3, 4, 8), "E6~"),
    "E7~": ((2, [0, 0, 0, 1], [0, 0, 0, 0, 0, 1]), (3, 5, 9), "E7~"),
    "E8~": ((2, [0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 1]), (4, 5, 10), "E8~"),
    "g2 = 0": ((2, [], [0, 0, 1, 1]), (INF, 2, 4), "A2*"),
    "g3 = 0": ((2, [0, 0, 1, -1], []), (2, INF, 6), "D4~"),
}


@pytest.mark.parametrize("name", list(SPECIAL_PLACES))
def test_special_places_match_always_split(name):
    (k, g2, g3), mults, label = SPECIAL_PLACES[name]
    c = WeierstrassCurve(k, RatPoly(g2), RatPoly(g3))
    _, delta = discriminant(c)
    fibers = fiber_analysis(c, delta)
    assert fibers == fiber_analysis_always_split(c, delta)
    (at_zero,) = [r for r in fibers if r.place == RatPoly([0, 1])]
    assert at_zero.mults == mults and at_zero.type.label() == label


@pytest.mark.parametrize("name", sorted(CURVE_CORPUS) + sorted(AT_BOUND_CURVES))
def test_corpus_and_at_bound_curves_match_always_split(name):
    c = corpus_curve(name) if name in CURVE_CORPUS else curve_from_json(at_bound_curve(name))
    _, delta = discriminant(c)
    assert fiber_analysis(c, delta) == fiber_analysis_always_split(c, delta)


@pytest.mark.parametrize("d", [3, 5])
def test_fiber_analysis_checks_the_valuation(d):
    # x^d is not the Delta of g2 = x, g3 = 1, whose orders at 0 are
    # (a, b) = (1, 0): with d = 3 = 3a, b is split off g3 and gives
    # min(3a, 2b) = 0; with d = 5 > 3a, 2b = 3a would have to hold.
    # Either way the analysis must raise, also under python -O
    c = WeierstrassCurve(1, RatPoly([0, 1]), RatPoly([1]))
    with pytest.raises(ArithmeticError, match="break the valuation of Delta"):
        fiber_analysis(c, RatPoly([0] * d + [1]))


ORDERS = list(range(13)) + [INF]  # a and b; INF marks an identically-zero g


def satisfies_the_valuation(a, b, d):
    return d == min(3 * a, 2 * b) or 3 * a == 2 * b <= d


def test_classify_matches_tate_table():
    # every order triple of a place, 1 <= d < 30, is typed as Tate's table
    # types it
    triples = [(a, b, d) for a in ORDERS for b in ORDERS for d in range(1, 30) if satisfies_the_valuation(a, b, d)]
    assert len(triples) == 250
    for a, b, d in triples:
        assert weierstrass._classify(a, b, d) == tate_type(a, b, d), (a, b, d)


def test_classify_refuses_broken_orders():
    # every other triple raises, also under python -O
    broken = [(a, b, d) for a in ORDERS for b in ORDERS for d in range(1, 30) if not satisfies_the_valuation(a, b, d)]
    assert len(broken) == len(ORDERS) ** 2 * 29 - 250
    for mults in broken:
        with pytest.raises(ArithmeticError, match="break the valuation of Delta"):
            weierstrass._classify(*mults)


def test_fiber_analysis_checks_the_valuation_at_infinity(corpus, monkeypatch):
    # the orders at Infinity are checked as the finite ones are: (1, 1, 5)
    # would need min(3a, 2b) = 5; must raise, also under python -O
    monkeypatch.setattr(weierstrass, "_orders_at_infinity", lambda c, delta: (1, 1, 5))
    c = corpus["4A2~"]
    with pytest.raises(ArithmeticError, match=r"\(1, 1, 5\) break the valuation of Delta"):
        fiber_analysis(c, discriminant(c)[1])


def test_coeff_strs_match_fractions_on_the_corpus():
    # every polynomial a curve report prints or sorts by: g2, g3, Delta, the
    # j-map and each finite fiber place, over the corpus and the at-bound files
    curves = [corpus_curve(label) for label in CURVE_CORPUS]
    curves += [curve_from_json(at_bound_curve(name)) for name in AT_BOUND_CURVES]
    checked = 0
    for c in curves:
        g2_term, delta = discriminant(c)
        fibers = fiber_analysis(c, delta)
        polys = [c.g2, c.g3, delta, *j_invariant(g2_term, delta, fibers)]
        polys += [r.place for r in fibers if r.place is not INFINITY]
        for p in polys:
            assert p.coeff_strs() == coeff_strs_by_fractions(p)
            checked += 1
    assert checked > 5 * len(curves)
