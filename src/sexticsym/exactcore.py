"""Exact arithmetic foundation: integer matrices, Smith normal form,
permutation orbits, and univariate polynomials over Q.

Everything here is exact; no floats anywhere.  Matrices are plain lists
of lists of ints; a polynomial is integer numerators over one denominator,
and its gcds, each with both cofactors, run on integer polynomials.
The Smith normal form is the one elimination routine: nondegeneracy,
inverses and integer solves are all read off it; orbits is the one orbit
routine for permutations of range(n).
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Sequence, Tuple

IntMatrix = List[List[int]]


# ---------------------------------------------------------------------------
# integer matrices


def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(m: IntMatrix) -> Tuple[IntMatrix, IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with both transforms and the inverse of the row one.

    Returns (d, u, v, uinv) with u*m*v = d, d diagonal with nonnegative
    entries and d[i] | d[i+1]; u, v unimodular and u*uinv = 1.  For square
    m, m is nonsingular iff no diagonal entry of d is 0, and then
    m^-1 = v * d^-1 * u.
    """
    rows, cols = len(m), len(m[0]) if m else 0
    a = [list(r) for r in m]
    u, uinv = identity(rows), identity(rows)
    v = identity(cols)

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in uinv:
            r[i], r[j] = r[j], r[i]

    def row_add(i, j, c):  # row i += c*row j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for r in uinv:
            r[j] -= c * r[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in uinv:
            r[i] = -r[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def col_add(i, j, c):  # col i += c*col j
        for r in a:
            r[i] += c * r[j]
        for r in v:
            r[i] += c * r[j]

    t = 0
    while t < min(rows, cols):
        # find pivot: smallest nonzero |entry| in the trailing block
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            row_swap(t, piv[0])
        if piv[1] != t:
            col_swap(t, piv[1])
        if a[t][t] < 0:
            row_neg(t)

        dirty = False
        for i in range(t + 1, rows):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                row_add(i, t, -q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                col_add(j, t, -q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue  # smaller remainders appeared; redo this pivot

        # divisibility: a[t][t] must divide every later entry
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_add(t, bad, 1)
            continue
        t += 1

    d = [[a[i][j] if i == j else 0 for j in range(cols)] for i in range(rows)]
    return d, u, v, uinv


def lattice_basis(vectors: Sequence[Sequence[int]], n: int) -> IntMatrix:
    """Basis (as columns, n x n) of the lattice in Z^n spanned by ``vectors``.

    The input must span a finite-index sublattice of Z^n.
    """
    cols = [list(v) for v in vectors]
    m = [[cols[j][i] for j in range(len(cols))] for i in range(n)]
    d, _, _, uinv = smith_normal_form(m)
    for i in range(n):
        if i >= len(d[0]) or d[i][i] == 0:
            raise ValueError("vectors do not span full rank")
    return [[uinv[i][j] * d[j][j] for j in range(n)] for i in range(n)]


def solve_integer(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The integer matrix x with a*x = b, for square nonsingular a.

    With u*a*v = d (Smith normal form), x = v * (d^-1 * u*b); v is
    unimodular, so x is integral iff d_i divides row i of u*b.
    """
    d, u, v, _ = smith_normal_form(a)
    n, k = len(a), len(b[0]) if b else 0
    ub = [[sum(u[i][t] * b[t][j] for t in range(n)) for j in range(k)] for i in range(n)]
    for i in range(n):
        if d[i][i] == 0:
            raise ValueError("singular matrix")
        if any(x % d[i][i] for x in ub[i]):
            raise ValueError("no integral solution")
        ub[i] = [x // d[i][i] for x in ub[i]]
    return [[sum(v[i][t] * ub[t][j] for t in range(n)) for j in range(k)] for i in range(n)]


# ---------------------------------------------------------------------------
# permutation orbits


def orbits(n: int, perms: Sequence[Sequence[int]]) -> List[List[int]]:
    """The orbits on range(n) of the group generated by perms (entry x of
    each is the image of x), in order of their least point, each listed
    breadth first from it: one permutation gives its cycles in cycle order
    (Seress, Permutation Group Algorithms, 2003, ch. 4)."""
    seen, out = [False] * n, []
    for x in range(n):
        if not seen[x]:
            seen[x], orbit = True, [x]
            for y in orbit:  # orbit grows as points are reached
                for g in perms:
                    z = g[y]
                    if not seen[z]:
                        seen[z] = True
                        orbit.append(z)
            out.append(orbit)
    return out


# ---------------------------------------------------------------------------
# polynomials over Q


class _PolyFields(NamedTuple):
    num: Tuple[int, ...]
    den: int


class RatPoly(_PolyFields):
    """Univariate polynomial over Q, coeffs / den ascending, each an int or a
    rational with numerator and denominator: integer numerators `num`, no
    trailing zero, over one positive denominator `den` coprime to them, so
    equal polynomials have equal fields.  Immutable, as a tuple.  A monic
    polynomial's `num` is its primitive part; `coeff_strs` prints the
    coefficients without building a Fraction."""

    __slots__ = ()

    def __new__(cls, coeffs: Sequence, den: int = 1):
        num = list(coeffs)
        while num and not num[-1]:
            num.pop()
        try:
            g = math.gcd(den, *num) * (den // abs(den))  # signed as den; den = 0 raises
        except TypeError:  # rationals: over the lcm of their denominators
            lcm = math.lcm(*[c.denominator for c in num])
            return cls([c.numerator * (lcm // c.denominator) for c in num], den * lcm)
        return tuple.__new__(cls, (tuple([x // g for x in num]), den // g))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other):
        a, b = [x * other.den for x in self.num], [y * self.den for y in other.num]
        return RatPoly([x + y for x, y in zip(a + [0] * len(b), b + [0] * len(a))], self.den * other.den)

    def __mul__(self, other):
        if not isinstance(other, RatPoly):  # a rational number scales the numerators
            return RatPoly([x * other.numerator for x in self.num], self.den * other.denominator)
        return RatPoly(_times(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """Binary powering from the top bit of n (Knuth, TAOCP 4.6.3):
        floor(lg n) squarings and nu(n) - 1 further products."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = self if n else RatPoly([1])
        for bit in bin(n)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def coeff_strs(self) -> List[Tuple[int, str]]:
        """(i, str(c)) for each nonzero coefficient c = num[i] / den,
        ascending, in lowest terms: the one printer of coefficients."""
        den, out = self.den, []
        for i, x in enumerate(self.num):
            if x:
                g = math.gcd(x, den)
                out.append((i, f"{x // g}/{den // g}" if g != den else str(x // g)))
        return out

    def __repr__(self):
        terms = [f"{c}*x^{i}" if i else c for i, c in self.coeff_strs()]
        return "RatPoly(" + (" + ".join(terms) or "0") + ")"


def _times(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """The product of two ascending int lists; [] if either is []."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _trimmed(a: Sequence[int]) -> List[int]:
    """a as a list without trailing zeros."""
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _primitive(a: Sequence[int]) -> List[int]:
    """a over its content, without trailing zeros, leading coefficient > 0."""
    a = _trimmed(a)
    g = math.gcd(*a) if a and a[-1] > 0 else -math.gcd(*a)
    return [x // g for x in a]


def exact_quotient(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """a / b by long division, integral by Gauss's lemma; r = a - q b throughout.
    ArithmeticError unless b is primitive and divides a over Q."""
    if math.gcd(*b) != 1:
        raise ArithmeticError("the divisor is not primitive")
    q, r = [0] * (len(a) - len(b) + 1), list(a)
    for k in reversed(range(len(q))):
        q[k] = r[k + len(b) - 1] // b[-1]
        r[k:k + len(b)] = [x - q[k] * y for x, y in zip(r[k:], b)]
    if any(r):
        raise ArithmeticError("the divisor does not divide")
    return q


def _at(a: Sequence[int], xi: int) -> int:
    """a(xi), by Horner's rule."""
    v = 0
    for x in reversed(a):
        v = v * xi + x
    return v


def _digits(n: int, xi: int) -> List[int]:
    """The balanced xi-adic digits of n, ascending, each in (-xi/2, xi/2]:
    the one polynomial p with p(xi) = n and |p| <= xi / 2."""
    out = []
    while n:
        n, d = divmod(n, xi)
        if 2 * d > xi:
            n, d = n + 1, d - xi
        out.append(d)
    return out


def _gcd_cofactors(a: Sequence[int], b: Sequence[int]) -> Tuple[List[int], List[int], List[int]]:
    """(g, a / g, b / g): the primitive gcd g of two int sequences, not both
    zero, with g's lead positive, all three as lists without trailing zeros.
    A heuristic gcd (Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989;
    Geddes, Czapor and Labahn, Algorithms for Computer Algebra, ch. 7): at
    an integer xi, h is the primitive part of the balanced xi-adic digits of
    G = gcd(a(xi), b(xi)), the cofactors those of a(xi) / h(xi) and
    b(xi) / h(xi), returned only if h times them gives a and b exactly (at
    once for h = 1); else xi grows by 73794/27011.

    Right: with |c| the largest absolute coefficient of c, xi >= 2 |c| + 2,
    so every root of a nonzero input c has |root| < 1 + |c| <= xi / 2.  h
    divides both inputs, so g = h k in Z[x], and g(xi) divides G = e h(xi),
    e the content of G's digits, 0 < |e| <= xi / 2.  So k(xi) divides e,
    while each root of k is one of a nonzero input, so |k(xi)| >
    (xi / 2)^deg k: k = 1.

    Ends: write a = g u, b = g v, u and v with contents cu, cv and coprime
    primitive parts pu, pv.  G = |g(xi)| s, and s = gcd(u(xi), v(xi))
    divides N = cu cv res(pu, pv), as S pu + T pv = res(pu, pv) for some S,
    T in Z[x] (the gcd of the contents is not enough: 2x and x + 2 share 4
    at xi = 6).  Once xi > 2 N |g|, G's digits are +-s g and h = g; once
    also xi > 2 |u| and 2 |v|, the cofactors are u and v.  (v = 0 passes
    at the first xi.)"""
    a, b = _trimmed(a), _trimmed(b)  # lists, as the products they are compared with
    xi = 2 * max(map(abs, a + b)) + 29
    while True:
        va, vb = _at(a, xi), _at(b, xi)
        h = _primitive(_digits(math.gcd(va, vb), xi))
        if h == [1]:
            return h, a, b
        vh = _at(h, xi)
        ca, cb = _digits(va // vh, xi), _digits(vb // vh, xi)
        if _times(h, ca) == a and _times(h, cb) == b:
            return h, ca, cb
        xi = xi * 73794 // 27011


def poly_gcd(f: RatPoly, g: RatPoly) -> Tuple[RatPoly, RatPoly, RatPoly]:
    """(h, f / h, g / h) for the monic gcd h over Q; gcd(0, 0) = 0, and so
    are its quotients."""
    if f.is_zero() and g.is_zero():
        return f, f, f
    h, p, q = _gcd_cofactors(f.num, g.num)
    lead = h[-1]  # f = (h / lead) (p lead / f.den)
    return RatPoly(h, lead), RatPoly([x * lead for x in p], f.den), RatPoly([x * lead for x in q], g.den)


def squarefree_partition(f: RatPoly) -> List[Tuple[RatPoly, int]]:
    """Multiplicity classes of f: pairs (g, m), g monic squarefree pairwise
    coprime, f = c * prod g^m with distinct m, sorted by m.  Yun's
    algorithm, on the primitive part b of f and c = b' at one scale, so
    the next b and c are the cofactors of each gcd, in integers (Yun,
    SYMSAC 1976).  At step m, b is
    the product of the classes of multiplicity m or more, and rest, deg f
    less sum m deg g over the classes found, is the sum of their
    multiplicities.  So the loop ends on the degree count, with no gcd:
    one root left has multiplicity rest, and rest = m deg b gives each
    root left multiplicity m."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    b = _primitive(f.num)
    out, m, rest = [], 1, len(b) - 1
    if rest:  # len(c) = len(b) - 1 from here on
        _, b, c = _gcd_cofactors(b, [i * x for i, x in enumerate(b)][1:])
    while len(b) > 1:
        n = len(b) - 1  # roots left, each of multiplicity m or more
        if n == 1 or rest == m * n:
            out.append((RatPoly(b, b[-1]), rest // n))  # monic, as b and g are primitive
            break
        d = [x - i * y for i, (x, y) in enumerate(zip(c, b[1:]), 1)]  # c - b'
        g, b, c = _gcd_cofactors(b, d)
        if len(g) > 1:
            out.append((RatPoly(g, g[-1]), m))
            rest -= m * (len(g) - 1)
        m += 1
    return out
