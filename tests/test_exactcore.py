import math
import random
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from sexticsym import exactcore
from sexticsym.exactcore import (
    RatPoly,
    orbits,
    poly_gcd,
    smith_normal_form,
    squarefree_partition,
)

from helpers import (
    coeff_strs_by_fractions,
    coeffs,
    derivative,
    divmod_by_fractions,
    gcd_by_fractions,
    gcd_by_remainders,
    monic,
    product_by_fractions,
    pseudo_divmod,
    shift,
    squarefree_partition_full_yun,
    to_sympy,
)


# ---------------------------------------------------------------------------
# Smith normal form


def det(m) -> int:
    return sympy.Matrix(m).det()


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def unimodular(m) -> bool:
    return det(m) in (1, -1)


def check_snf(m):
    d, u, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert unimodular(u) and unimodular(v)
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    for i in range(len(diag)):
        assert diag[i] >= 0
        for j in range(i + 1, len(d[0])):
            if i != j:
                assert d[i][j] == 0
    for i in range(len(diag) - 1):
        if diag[i + 1] != 0:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
    # m v = u^-1 d, so where d_ii != 0, column i of m v is d_ii times an
    # integer column c_i, column i of u^-1: how the callers read u^-1
    mv = list(zip(*mat_mul(m, v)))
    cs = []
    for i, x in enumerate(diag):
        if x:
            assert all(y % x == 0 for y in mv[i])
            cs.append([y // x for y in mv[i]])
    if len(m) == len(m[0]) == len(cs):  # square and nonsingular
        assert mat_mul(u, list(zip(*cs))) == sympy.eye(len(m)).tolist()
    return diag


def test_snf_examples():
    diag = check_snf([[2, 0], [0, 3]])
    assert diag == [1, 6]
    diag = check_snf([[-2]])
    assert diag == [2]
    # rank-2 Gram of the hexagonal lattice, negated
    diag = check_snf([[-2, 1], [1, -2]])
    assert diag == [1, 3]


def test_snf_transforms_pinned():
    # (d, u, v) as the pivot rule and the order of moves give them, which
    # component_form's Smith normal form test relies on.  Together these
    # take every branch: [[2, 0], [0, 3]] negates a pivot, redoes one after
    # a remainder and applies the divisibility fix; then a zero trailing
    # block, more rows than columns, more columns than rows, and a tie for
    # the pivot, which goes to the first in row-major order
    assert smith_normal_form([[2, 0], [0, 3]]) == (
        [[1, 0], [0, 6]], [[1, 1], [3, 2]], [[-1, 3], [1, -2]])
    assert smith_normal_form([[0, 0], [4, 6]]) == (
        [[2, 0], [0, 0]], [[0, 1], [1, 0]], [[-1, 3], [1, -2]])
    assert smith_normal_form([[6], [4], [0]]) == (
        [[2], [0], [0]], [[1, -1, 0], [-2, 3, 0], [0, 0, 1]], [[1]])
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12]]) == (
        [[2, 0, 0], [0, 6, 0]], [[1, 0], [3, 1]], [[1, 0, -2], [0, -1, 4], [0, 1, -3]])
    assert smith_normal_form([[0, 2], [2, 0]]) == ([[2, 0], [0, 2]], [[1, 0], [0, 1]], [[0, 1], [1, 0]])


def test_snf_random_roundtrip():
    rng = random.Random(7)
    for k in range(40):
        n = rng.randrange(1, 7)
        m = rng.randrange(1, 7)
        bound = 10 ** 6 if k % 4 == 3 else 9
        a = [[rng.randrange(-bound, bound + 1) for _ in range(m)] for _ in range(n)]
        if k % 4 == 1:
            a[rng.randrange(n)] = [0] * m  # a zero row
        if k % 4 == 2:
            zero = rng.randrange(m)  # a zero column
            a = [[0 if j == zero else x for j, x in enumerate(row)] for row in a]
        check_snf(a)


def test_snf_determinant_product():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randrange(1, 6)
        a = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
        d, _, _ = smith_normal_form(a)
        prod = 1
        for i in range(n):
            prod *= d[i][i]
        assert prod == abs(det(a))


# ---------------------------------------------------------------------------
# permutation orbits


@st.composite
def permutations_of_range(draw, max_perms=3):
    """(n, perms): 0 to max_perms permutations of range(n), n <= 12, as
    tuples or lists."""
    n = draw(st.integers(0, 12))
    perms = draw(st.lists(st.permutations(range(n)), max_size=max_perms))
    return n, [tuple(g) if i % 2 else g for i, g in enumerate(perms)]


@given(permutations_of_range())
@settings(max_examples=300, deadline=None)
@example((4, [[1, 0, 2, 3], (0, 1, 3, 2)]))
def test_orbits_match_sympy(case):
    n, perms = case
    got = orbits(n, perms)
    if n:
        group = PermutationGroup([Permutation(list(g)) for g in perms or [range(n)]])
        assert sorted(map(set, got), key=min) == sorted(group.orbits(), key=min)
    # a partition of range(n), in order of least point, each orbit from it
    assert sorted(x for o in got for x in o) == list(range(n))
    assert [o[0] for o in got] == [min(o) for o in got] == sorted(o[0] for o in got)


@given(permutations_of_range(max_perms=1).filter(lambda case: case[1]))
@settings(max_examples=200, deadline=None)
def test_orbits_of_one_permutation_are_its_cycles(case):
    n, (g,) = case
    got = orbits(n, [g])
    assert all(g[o[i - 1]] == o[i] for o in got for i in range(1, len(o))) and all(g[o[-1]] == o[0] for o in got)
    assert [o for o in got if len(o) > 1] == Permutation(list(g)).cyclic_form


def test_orbits_breadth_first_and_empty():
    # from 0: both generators' images of 0, then of 1, ...
    assert orbits(6, [[1, 0, 3, 2, 5, 4], [2, 3, 0, 1, 4, 5]]) == [[0, 1, 2, 3], [4, 5]]
    assert orbits(5, [[1, 2, 3, 4, 0], [4, 3, 2, 1, 0]]) == [[0, 1, 4, 2, 3]]
    assert orbits(3, []) == [[0], [1], [2]]
    assert orbits(0, []) == []
    assert orbits(0, [(), []]) == []


# ---------------------------------------------------------------------------
# polynomials


def test_ratpoly_basics():
    p = RatPoly([1, 2, 1])
    q = RatPoly([-1, 1])
    assert p.degree == 2 and q.degree == 1
    assert RatPoly([]).degree == -1
    assert RatPoly([0, 0]).is_zero()
    assert (p * q).degree == 3
    assert p + -1 * q == RatPoly([2, 1, 1])
    assert shift(p, 1) == RatPoly([4, 4, 1])
    assert (q**3) == RatPoly([-1, 3, -3, 1])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-9, 9), max_size=6),
    st.lists(st.integers(-9, 9), max_size=6),
)
def test_ratpoly_arithmetic_matches_sympy(a, b):
    p, q = RatPoly(a), RatPoly(b)
    assert to_sympy(p + q) == sympy.expand(to_sympy(p) + to_sympy(q))
    assert to_sympy(p * q) == sympy.expand(to_sympy(p) * to_sympy(q))
    assert to_sympy(p + -1 * q) == sympy.expand(to_sympy(p) - to_sympy(q))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=6),
    st.lists(st.integers(-5, 5), min_size=1, max_size=6),
)
def test_divmod_invariant(a, b):
    # the long division that the multiplicity and j-map references run on
    p, q = RatPoly(a), RatPoly(b)
    if q.is_zero():
        return
    quo, rem = divmod_by_fractions(p, q)
    assert quo * q + rem == p
    assert rem.degree < q.degree


def test_poly_gcd_monic():
    f = RatPoly([-1, 0, 1]) * RatPoly([2, 2])  # 2(x+1)^2 (x-1)
    g = RatPoly([1, 1]) * RatPoly([3])
    assert poly_gcd(f, g) == (RatPoly([1, 1]), RatPoly([-2, 0, 2]), RatPoly([3]))
    assert poly_gcd(RatPoly([]), RatPoly([])) == (RatPoly([]),) * 3
    assert poly_gcd(f, RatPoly([])) == (monic(f), RatPoly([2]), RatPoly([]))
    assert poly_gcd(RatPoly([]), f) == (monic(f), RatPoly([]), RatPoly([2]))


# coefficients up to the curve-file bound: 30-digit integers, fractions of
# two of them, and small integers, so that gcds are often not trivial;
# lists may be empty, all zero, or constant, and leading coefficients of
# either sign
BOUND = 10**30 - 1
COEFFICIENT = st.one_of(
    st.integers(-3, 3),
    st.integers(-BOUND, BOUND),
    st.builds(Fraction, st.integers(-BOUND, BOUND), st.integers(1, BOUND)),
)
POLY = st.lists(COEFFICIENT, max_size=6).map(RatPoly)


@settings(max_examples=150, deadline=None)
@given(POLY, POLY)
@example(RatPoly([]), RatPoly([Fraction(-1, 3), 2]))
@example(RatPoly([5]), RatPoly([0, 0, -7]))
def test_product_matches_fractions(p, q):
    assert p * q == product_by_fractions(p, q)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-BOUND, BOUND), max_size=8), st.lists(st.integers(-BOUND, BOUND), min_size=1, max_size=5))
def test_pseudo_division_identity(a, b):
    assume(b[-1] != 0)
    q, r = pseudo_divmod(a, b)
    assert len(q) == max(len(a) - len(b) + 1, 0)
    assert len(r) == len(b) - 1 if q else r == a
    assert RatPoly([b[-1] ** len(q) * x for x in a]) == product_by_fractions(RatPoly(q), RatPoly(b)) + RatPoly(r)


@settings(max_examples=150, deadline=None)
@given(POLY, POLY, POLY)
@example(RatPoly([]), RatPoly([]), RatPoly([]))
@example(RatPoly([-3]), RatPoly([]), RatPoly([7]))
@example(RatPoly([1, -2]), RatPoly([0, 0, -1]), RatPoly([4, 0, -4]))
def test_poly_gcd_matches_fractions(h, u, v):
    # f and g share the factor h, so the gcd is often not constant; the
    # quotients multiply back to f and g exactly
    f, g = product_by_fractions(h, u), product_by_fractions(h, v)
    for p, q in ((f, g), (u, v)):
        d, dp, dq = poly_gcd(p, q)
        assert d == gcd_by_fractions(p, q)
        assert product_by_fractions(d, dp) == p and product_by_fractions(d, dq) == q


# integer polynomials up to 30 digits, with small ones for common factors
INT_POLY = st.lists(st.one_of(st.integers(-3, 3), st.integers(-BOUND, BOUND)), max_size=6)


@settings(max_examples=200, deadline=None)
@given(INT_POLY.filter(any), INT_POLY, INT_POLY)
@example([1, -2], [0, 0, -1], [4, 0, -4])
@example([1], [0, 1], [2, 0])  # a trailing zero
@example([5, 0, 0, 1], [1], [])  # a zero input
def test_gcd_cofactors_match_the_remainder_sequence(f, u, v):
    # on f u and f v, the gcd is the oracle's, and the cofactors multiply
    # back to the inputs exactly, less any trailing zeros
    a, b = exactcore._times(f, u), exactcore._times(f, v)
    assume(any(a) or any(b))
    g, ca, cb = exactcore._gcd_cofactors(a, b)
    assert g == gcd_by_remainders(a, b)
    assert exactcore._times(g, ca) == exactcore._trimmed(a) and exactcore._times(g, cb) == exactcore._trimmed(b)


def test_gcd_cofactors_retry_past_a_spurious_factor():
    # a = (x + 1)(x^2 + 12) and b = (x + 1)(x + 9) start at xi = 2 * 12 + 29
    # = 53, where x^2 + 12 and x + 9 take the values 2821 and 62, which
    # share 31 > 53 / 2: the digits there read (x + 1)(x - 22), which does
    # not divide a, and a larger xi gives x + 1
    g, u, v = [1, 1], [12, 0, 1], [9, 1]
    a, b = exactcore._times(g, u), exactcore._times(g, v)
    xi = 2 * max(map(abs, a + b)) + 29
    assert xi == 53 and math.gcd(exactcore._at(u, xi), exactcore._at(v, xi)) == 31
    at_start = exactcore._digits(math.gcd(exactcore._at(a, xi), exactcore._at(b, xi)), xi)
    assert exactcore._primitive(at_start) == exactcore._times(g, [-22, 1])
    assert exactcore._gcd_cofactors(a, b) == (g, u, v)
    # tuples are inputs too: the products are compared with lists of them
    assert exactcore._gcd_cofactors(tuple(a), tuple(b)) == (g, u, v)


def test_squarefree_examples():
    # x (x-1)^2
    f = RatPoly([0, 1]) * RatPoly([-1, 1]) ** 2
    part = squarefree_partition(f)
    assert part == [(RatPoly([0, 1]), 1), (RatPoly([-1, 1]), 2)]
    # x^2 + 1 is squarefree
    assert squarefree_partition(RatPoly([1, 0, 1])) == [(RatPoly([1, 0, 1]), 1)]
    # 108 x^3 (x^3 - 1)^3 collapses to a single cubed class x^4 - x
    f = RatPoly([0, 0, 0, 108]) * RatPoly([-1, 0, 0, 1]) ** 3
    assert squarefree_partition(f) == [(RatPoly([0, -1, 0, 0, 1]), 3)]
    assert squarefree_partition(RatPoly([5])) == []
    with pytest.raises(ValueError):
        squarefree_partition(RatPoly([]))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    st.integers(1, 3),
)
def test_squarefree_reassembly(a, b, m):
    f = RatPoly(a) * RatPoly(b) ** m
    if f.is_zero() or f.degree == 0:
        return
    part = squarefree_partition(f)
    prod = RatPoly([coeffs(f)[-1]])
    seen_mults = [mm for _, mm in part]
    assert seen_mults == sorted(set(seen_mults))
    for g, mm in part:
        assert g == monic(g)
        assert poly_gcd(g, derivative(g))[0].degree == 0  # squarefree
        prod = prod * g**mm
    for (g1, _), (g2, _) in zip(part, part[1:]):
        assert poly_gcd(g1, g2)[0].degree == 0
    assert prod == f


def yun_gcds(part) -> int:
    """The gcds squarefree_partition makes for the multiplicity classes
    part: gcd(b, b') and one a step until one class is left, which ends
    the loop on the degree count at once if it is a single root, and at
    the step of its own multiplicity otherwise."""
    if not part:
        return 1
    (last, m_last), m_prev = part[-1], part[-2][1] if len(part) > 1 else 0
    return m_prev + 1 if last.degree == 1 else m_last


@settings(max_examples=60, deadline=None)
@given(
    st.fractions(-9, 9, max_denominator=9).filter(bool),
    st.lists(st.tuples(st.lists(st.integers(-3, 3), min_size=2, max_size=3), st.integers(1, 10)),
             min_size=1, max_size=3),
)
@example(Fraction(2), [([0, 1], 2), ([-1, 1], 7)])  # one root left after x: 3 gcds, not 8
@example(Fraction(-1, 3), [([0, 1], 1), ([-1, 1], 3), ([-2, 1], 3)])  # rest = 3 deg b: 3, not 4
@example(Fraction(5), [([1, 0, 1], 10)])  # one class of two roots, multiplicity 10
@example(Fraction(1), [([0, 1], 10), ([1, 1], 1)])  # one root left from the first step
def test_squarefree_partition_matches_full_yun(c, factors):
    # c * prod g_i^m_i, g_i of degree up to 2 and m_i up to 10; the g_i may
    # share roots or be square, so the classes are whatever Yun finds
    f = RatPoly([c])
    for g, m in factors:
        f = f * RatPoly(g) ** m
    assume(f.degree >= 1)
    want = squarefree_partition_full_yun(f)
    with mock.patch.object(exactcore, "_gcd_cofactors", wraps=exactcore._gcd_cofactors) as gcd:
        assert squarefree_partition(f) == want
    assert gcd.call_count == yun_gcds(want)


# ---------------------------------------------------------------------------
# RatPoly as a value: integer numerators over one denominator


def reference_repr(coeffs) -> str:
    """RatPoly's repr, written out from a list of Fractions."""
    terms = [f"{c}*x^{i}" if i else f"{c}" for i, c in enumerate(coeffs) if c]
    return "RatPoly(" + (" + ".join(terms) if terms else "0") + ")"


@settings(max_examples=150, deadline=None)
@given(st.lists(COEFFICIENT, max_size=6))
@example([])
@example([0, Fraction(-2, 4), 0, 0])
@example([Fraction(6, 4), Fraction(-3, 9)])
def test_coeffs_and_repr_match_fractions(cs):
    # fiber_analysis sorts places by str(place), so the goldens read repr
    want = [Fraction(c) for c in cs]
    while want and not want[-1]:
        want.pop()
    p = RatPoly(cs)
    assert coeffs(p) == tuple(want)
    assert repr(p) == str(p) == reference_repr(want)
    assert p.degree == len(want) - 1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.just(0), COEFFICIENT), max_size=8))
@example([0, Fraction(-2, 4), 0, 0, Fraction(7, 1), -1, 1])
@example([Fraction(-6, 4), 0, Fraction(3, 9), Fraction(-10, 5)])
def test_coeff_strs_match_fractions(cs):
    # cli._poly_str and the repr that orders fiber places both print these
    p = RatPoly(cs)
    assert p.coeff_strs() == coeff_strs_by_fractions(p)


@settings(max_examples=150, deadline=None)
@given(POLY, POLY)
def test_layout_is_normalised(p, q):
    for r in (p, q, p * q, p + q, p + -1 * q, monic(p), 3 * p, p * Fraction(-5, 7)):
        assert r.den > 0
        assert not r.num or r.num[-1] != 0
        assert math.gcd(r.den, *r.num) == 1
        assert RatPoly(r.num, r.den) == r
    if not p.is_zero():
        # a monic polynomial's numerators are its primitive part
        m = monic(p)
        assert m.num[-1] == m.den > 0 and math.gcd(*m.num) == 1


@settings(max_examples=150, deadline=None)
@given(POLY, POLY)
def test_routes_to_one_value_compare_and_hash_equal(p, q):
    # built from its coefficients, from numerators over a denominator, as a
    # product, as a quotient, scaled back from its monic form, or as a sum
    den = math.lcm(*(c.denominator for c in coeffs(p)))
    routes = [
        p,
        RatPoly(coeffs(p)),
        RatPoly([c * den for c in coeffs(p)], den),
        RatPoly([-x for x in p.num], -p.den),
        product_by_fractions(p, RatPoly([1])),
        (p + q) + -1 * q,
    ]
    if not q.is_zero():
        routes.append(divmod_by_fractions(p * q, q)[0])
    if not p.is_zero():
        routes.append(monic(p) * coeffs(p)[-1])
    for r in routes:
        assert r == p and hash(r) == hash(p) and r.num == p.num and r.den == p.den
    assert len(set(routes)) == 1


def test_ratpoly_is_immutable():
    # a tuple with named fields: neither a field nor a new attribute can be set
    p = RatPoly([1, 2], 3)
    for name, value in (("num", (5,)), ("den", 1), ("extra", 0)):
        with pytest.raises(AttributeError):
            setattr(p, name, value)
    assert p == RatPoly([1, 2], 3) and p.num == (1, 2) and p.den == 3


def test_zero_denominator_and_floats_refused():
    with pytest.raises(ZeroDivisionError):
        RatPoly([1, 2], 0)
    # coefficients are ints or Fractions: no float reaches the exact core
    with pytest.raises(AttributeError):
        RatPoly([1, 0.5])
    with pytest.raises(AttributeError):
        RatPoly([1, 2]) * 0.5


@pytest.mark.parametrize("a, b, message", [
    ([1, 0, 1], [1, 1], "does not divide"),  # x^2 + 1 over x + 1
    ([2, 2], [2], "not primitive"),  # content 2, though 2 divides 2x + 2
    ([0, 0, 4], [0, 2], "not primitive"),
    ([1], [0, 1], "does not divide"),  # deg a < deg b
    ([1, 2], [], "not primitive"),  # zero divisor
    ([1, 1], [2, 1], "does not divide"),  # over Q, x + 1 is not a multiple of x + 2
])
def test_exact_quotient_refuses_a_non_divisor(a, b, message):
    # a check, not an assert: it must hold under python -O as well
    with pytest.raises(ArithmeticError, match=message):
        exactcore.exact_quotient(a, b)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-BOUND, BOUND), max_size=6), st.lists(st.integers(-9, 9), min_size=1, max_size=4))
def test_exact_quotient_inverts_the_product(a, b):
    # b made primitive; by Gauss's lemma (a b) / b is a again, in integers
    b = exactcore._primitive(b)
    assume(b)
    assert exactcore.exact_quotient((RatPoly(a) * RatPoly(b)).num, b) == list(RatPoly(a).num)


def test_integer_gcds_build_no_fraction(monkeypatch):
    # poly_gcd and squarefree_partition on integer polynomials run on
    # integers only, results included: any Fraction built fails the test
    f = RatPoly([0, 0, 0, 108]) * RatPoly([-1, 0, 0, 1]) ** 3 * RatPoly([3, -2]) ** 2
    g = RatPoly([-1, 0, 0, 1]) * RatPoly([3, -2]) * RatPoly([7, 0, 5])
    want = poly_gcd(f, g), squarefree_partition(f), squarefree_partition(g), poly_gcd(RatPoly([]), g)

    def refused(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(Fraction, "__new__", refused)
    got = poly_gcd(f, g), squarefree_partition(f), squarefree_partition(g), poly_gcd(RatPoly([]), g)
    assert got == want
    assert want[0][0] == monic(RatPoly([-1, 0, 0, 1]) * RatPoly([-3, 2]))
    assert want[1] == [(monic(RatPoly([-3, 2])), 2), (RatPoly([0, -1, 0, 0, 1]), 3)]
    assert want[2] == [(monic(g), 1)] and want[3] == (monic(g), RatPoly([]), RatPoly([g.num[-1]]))


def test_fraction_coefficients_survive():
    p = RatPoly([Fraction(1, 3), Fraction(-2, 7)])
    assert coeffs(p) == (Fraction(1, 3), Fraction(-2, 7))
    assert coeffs(3 * p) == (Fraction(1), Fraction(-6, 7))
    # rebuilt from its own coefficients, a polynomial is the same value
    assert RatPoly(coeffs(p)) == p and coeffs(RatPoly(coeffs(p))) == coeffs(p)


def test_scalar_product_scales_the_coefficients(monkeypatch):
    # a number times a polynomial scales each coefficient; the number is not
    # made a constant polynomial for a full product, so each product builds
    # one RatPoly
    p = RatPoly([Fraction(1, 2), -1, 3])
    built, real = [], RatPoly.__new__
    monkeypatch.setattr(RatPoly, "__new__", lambda cls, *args: built.append(args) or real(cls, *args))
    products = 4 * p, p * Fraction(1, 3), 0 * p
    assert len(built) == len(products)
    assert coeffs(products[0]) == (2, -4, 12)
    assert coeffs(products[1]) == (Fraction(1, 6), Fraction(-1, 3), 1)
    assert products[2].is_zero()


@pytest.mark.parametrize("n", range(10))
def test_pow_products(n, monkeypatch):
    # binary powering from the top bit: floor(lg n) squarings and nu(n) - 1
    # further products; no product with the constant 1, none past the top bit
    p = RatPoly([Fraction(1, 2), -1, 3])
    want = RatPoly([1])
    for _ in range(n):
        want = want * p
    products = []
    real = RatPoly.__mul__
    monkeypatch.setattr(RatPoly, "__mul__", lambda a, b: products.append(1) or real(a, b))
    assert p**n == want
    assert len(products) == (n.bit_length() - 1 + bin(n).count("1") - 1 if n > 1 else 0)


def test_negative_power_raises():
    with pytest.raises(ValueError):
        RatPoly([1, 1]) ** -1

