from fractions import Fraction as F

import pytest

from sexticsym.dessins import fiber_multiset_sorted, parse_fibers, print_fibers
from sexticsym.exactcore import RatPoly
from sexticsym import weierstrass
from sexticsym.weierstrass import (
    INFINITY,
    WeierstrassCurve,
    ZeroDiscriminant,
    curve_from_json,
    discriminant,
    fiber_analysis,
    fiber_types,
    is_isotrivial,
    is_maximal,
    is_stable,
    j_invariant,
    milnor,
)

from conftest import CURVE_CORPUS, corpus_curve


# ---------------------------------------------------------------------------
# the four-cusp curve, pinned exactly


def test_four_cusp_discriminant_exact(corpus):
    c = corpus["4A2~"]
    delta = discriminant(c)
    assert delta == RatPoly([0, 0, 0, 108]) * RatPoly([-1, 0, 0, 1]) ** 3


def test_four_cusp_j_invariant_exact(corpus):
    # j = -(8x^3+1)^3 / (64 x^3 (x^3-1)^3), denominator monic after reduction
    num, den = j_invariant(corpus["4A2~"])
    assert num == RatPoly([F(-1, 64)]) * RatPoly([1, 0, 0, 8]) ** 3
    assert den == RatPoly([0, 0, 0, 1]) * RatPoly([-1, 0, 0, 1]) ** 3
    assert den.monic() == den


def test_four_cusp_fibers(corpus):
    c = corpus["4A2~"]
    reports = fiber_analysis(c)
    assert len(reports) == 1
    (r,) = reports
    assert r.place == RatPoly([0, -1, 0, 0, 1]).monic()
    assert r.count == 4
    assert r.mults == (0, 0, 3)
    assert r.type.label() == "A2~"
    assert milnor(c) == 8
    assert is_stable(c)
    assert is_maximal(c)
    assert not is_isotrivial(c)


# ---------------------------------------------------------------------------
# the frozen corpus: one curve per unramified-A-type row of the fiber table


@pytest.mark.parametrize("label", sorted(CURVE_CORPUS))
def test_corpus_fiber_multisets(label, corpus):
    c = corpus[label]
    assert print_fibers(fiber_multiset_sorted(fiber_types(c))) == label
    assert milnor(c) == 8
    assert is_stable(c)
    assert is_maximal(c)
    assert not is_isotrivial(c)


@pytest.mark.parametrize("label", sorted(CURVE_CORPUS))
def test_corpus_discriminant_budget(label, corpus):
    # total discriminant multiplicity, counting the place at infinity, is 6k
    reports = fiber_analysis(corpus[label])
    assert sum(r.count * r.mults[2] for r in reports) == 12


def test_corpus_fiber_at_infinity(corpus):
    c = corpus["A5~+A2~+A1~+A0*"]
    inf = [r for r in fiber_analysis(c) if r.place == INFINITY]
    assert len(inf) == 1
    assert inf[0].type == parse_fibers("A1~")[0]
    assert inf[0].mults == (0, 0, 2)


@pytest.mark.parametrize("label", ["4A2~", "2A4~+2A0*", "A8~+3A0*"])
def test_shift_equivariance(label, corpus):
    # translating the base coordinate does not change fiber data
    c = corpus[label]
    for shift in (1, F(-2, 3)):
        s = WeierstrassCurve(2, c.g2.shift(shift), c.g3.shift(shift))
        assert fiber_multiset_sorted(fiber_types(s)) == fiber_multiset_sorted(
            fiber_types(c)
        )
        assert milnor(s) == milnor(c)
        assert is_maximal(s) == is_maximal(c)


# ---------------------------------------------------------------------------
# stability, maximality, isotriviality


def test_isotrivial_two_d4():
    c = WeierstrassCurve(2, RatPoly([0, 0, -3]), RatPoly([0, 0, 0, 1]))
    assert print_fibers(fiber_multiset_sorted(fiber_types(c))) == "2D4~"
    assert milnor(c) == 8
    assert is_stable(c)
    assert is_isotrivial(c)
    num, den = j_invariant(c)
    assert (num, den) == (RatPoly([F(4, 3)]), RatPoly([1]))
    # isotrivial curves are never maximal
    assert not is_maximal(c)


def test_constant_discriminant_non_simple_fiber():
    c = WeierstrassCurve(2, RatPoly([0]), RatPoly([1]))
    reports = fiber_analysis(c)
    assert len(reports) == 1
    assert reports[0].place == INFINITY
    assert reports[0].type.family == "J"
    assert not is_stable(c)
    with pytest.raises(ValueError):
        milnor(c)


def test_perturbation_destroys_maximality(corpus):
    c = corpus["4A2~"]
    p = WeierstrassCurve(2, c.g2, c.g3 + RatPoly([0, 1]))
    assert print_fibers(fiber_multiset_sorted(fiber_types(p))) == "12A0*"
    assert milnor(p) == 0
    assert is_stable(p)
    assert not is_maximal(p)


def test_milnor_eight_iff_stable_and_maximal(corpus):
    pool = [c for c in corpus.values()]
    base = corpus["4A2~"]
    pool.append(WeierstrassCurve(2, base.g2, base.g3 + RatPoly([0, 1])))
    pool.append(WeierstrassCurve(2, base.g2, base.g3 + RatPoly([F(1, 7)])))
    pool.append(WeierstrassCurve(2, base.g2 + RatPoly([1]), base.g3))
    for c in pool:
        if is_isotrivial(c):
            continue
        assert (milnor(c) == 8) == (is_stable(c) and is_maximal(c))


# ---------------------------------------------------------------------------
# construction and input validation


def test_zero_discriminant_rejected():
    c = WeierstrassCurve(2, RatPoly([0, 0, -3]), RatPoly([0, 0, 0, 2]))
    assert discriminant(c).is_zero()
    with pytest.raises(ZeroDiscriminant):
        fiber_analysis(c)
    with pytest.raises(ZeroDiscriminant):
        j_invariant(c)


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


def test_ramification_profile_checks_degree(corpus, monkeypatch):
    # the indices over each of 0, 1, Infinity add up to deg j; a partition
    # that loses a factor must raise, also under python -O
    num, den = j_invariant(corpus["4A2~"])
    assert weierstrass._ramification_profile(num, den)[0] == 12
    real = weierstrass.squarefree_partition
    monkeypatch.setattr(weierstrass, "squarefree_partition", lambda f: real(f)[:-1])
    with pytest.raises(ArithmeticError):
        weierstrass._ramification_profile(num, den)
