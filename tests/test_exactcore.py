import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sexticsym import exactcore
from sexticsym.exactcore import (
    RatPoly,
    lattice_basis,
    poly_gcd,
    smith_normal_form,
    solve_integer,
    squarefree_partition,
)

from helpers import divmod_by_fractions, gcd_by_fractions, product_by_fractions, shift, to_sympy


# ---------------------------------------------------------------------------
# Smith normal form


def det(m) -> int:
    return sympy.Matrix(m).det()


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def unimodular(m) -> bool:
    return det(m) in (1, -1)


def check_snf(m):
    d, u, v, uinv = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert unimodular(u) and unimodular(v)
    assert mat_mul(u, uinv) == sympy.eye(len(m)).tolist()
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    for i in range(len(diag)):
        assert diag[i] >= 0
        for j in range(i + 1, len(d[0])):
            if i != j:
                assert d[i][j] == 0
    for i in range(len(diag) - 1):
        if diag[i + 1] != 0:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
    return diag


def test_snf_examples():
    diag = check_snf([[2, 0], [0, 3]])
    assert diag == [1, 6]
    diag = check_snf([[-2]])
    assert diag == [2]
    # rank-2 Gram of the hexagonal lattice, negated
    diag = check_snf([[-2, 1], [1, -2]])
    assert diag == [1, 3]


def test_snf_random_roundtrip():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(1, 7)
        m = rng.randrange(1, 7)
        a = [[rng.randrange(-9, 10) for _ in range(m)] for _ in range(n)]
        check_snf(a)


def test_snf_determinant_product():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randrange(1, 6)
        a = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
        d, _, _, _ = smith_normal_form(a)
        prod = 1
        for i in range(n):
            prod *= d[i][i]
        assert prod == abs(det(a))


def test_solve_integer():
    a = [[2, 1], [1, 1]]
    assert solve_integer(a, [[3], [2]]) == [[1], [1]]
    assert solve_integer(a, [[1, 0], [0, 1]]) == [[1, -1], [-1, 2]]
    with pytest.raises(ValueError):
        solve_integer([[2, 0], [0, 2]], [[1], [0]])
    with pytest.raises(ValueError):
        solve_integer([[1, 1], [1, 1]], [[1], [1]])


def test_solve_integer_matches_sympy():
    rng = random.Random(5)
    for _ in range(25):
        n, k = rng.randrange(1, 6), rng.randrange(1, 4)
        a = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
        if det(a) == 0:
            continue
        x = [[rng.randrange(-9, 10) for _ in range(k)] for _ in range(n)]
        assert solve_integer(a, mat_mul(a, x)) == x
        b = [[rng.randrange(-9, 10) for _ in range(k)] for _ in range(n)]
        exact = sympy.Matrix(a).inv() * sympy.Matrix(b)
        if all(e.is_integer for e in exact):
            assert solve_integer(a, b) == exact.tolist()
        else:
            with pytest.raises(ValueError):
                solve_integer(a, b)


def test_lattice_basis_index():
    # column det is +/- the index of the spanned sublattice
    cols = lattice_basis([[2, 0], [0, 3]], 2)
    assert abs(det(cols)) == 6
    cols = lattice_basis([[2, 0], [0, 3], [1, 1]], 2)
    assert abs(det(cols)) == 1
    cols = lattice_basis([[1, 0], [0, 1]], 2)
    assert abs(det(cols)) == 1
    with pytest.raises(ValueError):
        lattice_basis([[1, 0]], 2)


# ---------------------------------------------------------------------------
# polynomials


def test_ratpoly_basics():
    p = RatPoly([1, 2, 1])
    q = RatPoly([-1, 1])
    assert p.degree == 2 and q.degree == 1
    assert RatPoly([]).degree == -1
    assert RatPoly([0, 0]).is_zero()
    assert (p * q).degree == 3
    assert divmod(p, q) == (RatPoly([3, 1]), RatPoly([4]))
    assert p(3) == 16
    assert shift(p, 1) == RatPoly([4, 4, 1])
    assert p.derivative() == RatPoly([2, 2])
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
    assert to_sympy(p - q) == sympy.expand(to_sympy(p) - to_sympy(q))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=6),
    st.lists(st.integers(-5, 5), min_size=1, max_size=6),
)
def test_divmod_invariant(a, b):
    p, q = RatPoly(a), RatPoly(b)
    if q.is_zero():
        return
    quo, rem = divmod(p, q)
    assert quo * q + rem == p
    assert rem.degree < q.degree


def test_poly_gcd_monic():
    f = RatPoly([-1, 0, 1]) * RatPoly([2, 2])  # 2(x+1)^2 (x-1)
    g = RatPoly([1, 1]) * RatPoly([3])
    assert poly_gcd(f, g) == RatPoly([1, 1])
    assert poly_gcd(RatPoly([]), RatPoly([])).is_zero()
    assert poly_gcd(f, RatPoly([])) == f.monic()


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
@given(POLY, POLY)
@example(RatPoly([]), RatPoly([-2]))
@example(RatPoly([1, 2, 3]), RatPoly([Fraction(-5, 7)]))
@example(RatPoly([1, 2]), RatPoly([0, 0, -3]))
def test_divmod_matches_fractions(p, q):
    assume(not q.is_zero())
    assert divmod(p, q) == divmod_by_fractions(p, q)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-BOUND, BOUND), max_size=8), st.lists(st.integers(-BOUND, BOUND), min_size=1, max_size=5))
def test_pseudo_division_identity(a, b):
    assume(b[-1] != 0)
    q, r = exactcore._pseudo_divmod(a, b)
    assert len(q) == max(len(a) - len(b) + 1, 0)
    assert len(r) == len(b) - 1 if q else r == a
    assert RatPoly([b[-1] ** len(q) * x for x in a]) == product_by_fractions(RatPoly(q), RatPoly(b)) + RatPoly(r)


@settings(max_examples=150, deadline=None)
@given(POLY, POLY, POLY)
@example(RatPoly([]), RatPoly([]), RatPoly([]))
@example(RatPoly([-3]), RatPoly([]), RatPoly([7]))
@example(RatPoly([1, -2]), RatPoly([0, 0, -1]), RatPoly([4, 0, -4]))
def test_poly_gcd_matches_fractions(h, u, v):
    # f and g share the factor h, so the gcd is often not constant
    f, g = product_by_fractions(h, u), product_by_fractions(h, v)
    assert poly_gcd(f, g) == gcd_by_fractions(f, g)
    assert poly_gcd(u, v) == gcd_by_fractions(u, v)


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
    prod = RatPoly([f.lc()])
    seen_mults = [mm for _, mm in part]
    assert seen_mults == sorted(set(seen_mults))
    for g, mm in part:
        assert g == g.monic()
        assert poly_gcd(g, g.derivative()).degree == 0  # squarefree
        prod = prod * g**mm
    for (g1, _), (g2, _) in zip(part, part[1:]):
        assert poly_gcd(g1, g2).degree == 0
    assert prod == f


def test_fraction_coefficients_survive():
    p = RatPoly([Fraction(1, 3), Fraction(-2, 7)])
    assert p.coeffs == (Fraction(1, 3), Fraction(-2, 7))
    assert (3 * p).coeffs == (Fraction(1), Fraction(-6, 7))
    # a Fraction is kept as it is, not rebuilt
    assert all(a is b for a, b in zip(RatPoly(p.coeffs).coeffs, p.coeffs))


def test_scalar_product_scales_the_coefficients(monkeypatch):
    # a number times a polynomial scales each coefficient; the number is not
    # made a constant polynomial for a full product
    p = RatPoly([Fraction(1, 2), -1, 3])

    def refuse(x):
        raise AssertionError("a number was coerced to a polynomial")

    monkeypatch.setattr(exactcore, "_coerce", refuse)
    assert (4 * p).coeffs == (2, -4, 12)
    assert (p * Fraction(1, 3)).coeffs == (Fraction(1, 6), Fraction(-1, 3), 1)
    assert all(isinstance(c, Fraction) for c in (4 * p).coeffs)
    assert (0 * p).is_zero()


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

