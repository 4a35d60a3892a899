"""Exact arithmetic foundation: integer matrices, Smith normal form,
permutation orbits, and univariate polynomials over Q.

Everything here is exact; no floats anywhere.  Matrices are plain lists
of lists of ints; a polynomial is integer numerators over one denominator,
and its gcds and exact quotients run on primitive integer polynomials.
The Smith normal form is the one elimination routine: nondegeneracy,
inverses and integer solves are all read off it; orbits is the one orbit
routine for permutations of range(n).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

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
    rows, cols = len(m), len(m[0])
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
    n, k = len(a), len(b[0])
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


class RatPoly:
    """Univariate polynomial over Q, coeffs / den ascending, ints or Fractions:
    integer numerators `num`, no trailing zero, over one positive denominator
    `den` coprime to them, so equal polynomials have equal fields.  A monic
    polynomial's `num` is its primitive part; `coeffs` builds Fractions,
    `coeff_strs` prints them without."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Sequence, den: int = 1) -> None:
        num = list(coeffs)
        if not all(type(c) is int for c in num):  # over the lcm of the denominators
            lcm = math.lcm(*[c.denominator for c in num])
            num, den = [c.numerator * (lcm // c.denominator) for c in num], den * lcm
        while num and not num[-1]:
            num.pop()
        g = math.gcd(den, *num) * (den // abs(den))  # signed as den; den = 0 raises
        object.__setattr__(self, "num", tuple([x // g for x in num]))
        object.__setattr__(self, "den", den // g)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("RatPoly is immutable")

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.num)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    def lc(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        return isinstance(other, RatPoly) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = _coerce(other)
        a, b = [x * other.den for x in self.num], [y * self.den for y in other.num]
        return RatPoly([x + y for x, y in zip(a + [0] * len(b), b + [0] * len(a))], self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatPoly([-x for x in self.num], self.den)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, RatPoly):  # a rational number scales the numerators
            return RatPoly([x * other.numerator for x in self.num], self.den * other.denominator)
        out = [0] * (len(self.num) + len(other.num) - 1)  # all zero when either is
        for i, x in enumerate(self.num):
            for j, y in enumerate(other.num):
                out[i + j] += x * y
        return RatPoly(out, self.den * other.den)

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

    def __divmod__(self, other):
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q, r = _pseudo_divmod(self.num, other.num)
        den = other.num[-1] ** len(q) * self.den
        return RatPoly([c * other.den for c in q], den), RatPoly(r, den)

    def derivative(self):
        return RatPoly([i * x for i, x in enumerate(self.num)][1:], self.den)

    def monic(self):
        return RatPoly(self.num, self.num[-1]) if self.num else self

    def __call__(self, x):
        return sum(c * x**i for i, c in enumerate(self.num)) / Fraction(self.den)

    def coeff_strs(self) -> List[Tuple[int, str]]:
        """(i, str(coeffs[i])) for each nonzero coefficient, ascending, built
        from the integers without a Fraction: the one printer of coefficients."""
        den, out = self.den, []
        for i, x in enumerate(self.num):
            if x:
                g = math.gcd(x, den)
                out.append((i, f"{x // g}/{den // g}" if g != den else str(x // g)))
        return out

    def __repr__(self):
        terms = [f"{c}*x^{i}" if i else c for i, c in self.coeff_strs()]
        return "RatPoly(" + (" + ".join(terms) or "0") + ")"


def _coerce(x) -> RatPoly:
    return x if isinstance(x, RatPoly) else RatPoly([x])


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> Tuple[List[int], List[int]]:
    """(q, r) with lc(b)^len(q) a = q b + r, deg r < deg b, for ascending int
    lists, b nonzero; q = [] if deg a < deg b (Knuth, TAOCP 4.6.1, Alg. R)."""
    q, r = [0] * (len(a) - len(b) + 1), list(a)
    for k in reversed(range(len(q))):
        c = r.pop()
        q[k] = c * b[-1] ** k
        r = [b[-1] * x for x in r[:k]] + [b[-1] * x - c * y for x, y in zip(r[k:], b)]
    return q, r


def _primitive(a: Sequence[int]) -> List[int]:
    """a over its content, without trailing zeros, leading coefficient > 0."""
    a = list(a)
    while a and not a[-1]:
        a.pop()
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


def _gcd(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Primitive gcd ([] for gcd(0, 0)) by a primitive remainder sequence:
    each pseudo-remainder loses its content and sign, so coefficients stay
    small (Collins, J. ACM 14, 1967; Brown, J. ACM 18, 1971)."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    return a


def poly_gcd(f: RatPoly, g: RatPoly) -> RatPoly:
    """Monic gcd over Q (gcd(0, 0) = 0)."""
    return RatPoly(_gcd(f.num, g.num)).monic()


def squarefree_partition(f: RatPoly) -> List[Tuple[RatPoly, int]]:
    """Multiplicity classes of f: pairs (g, m), g monic squarefree pairwise
    coprime, f = c * prod g^m with distinct m, sorted by m.  Yun's
    algorithm, on the primitive part b of f and c = b' at one scale, so
    each quotient is exact in integers (Yun, SYMSAC 1976).  At step m, b is
    the product of the classes of multiplicity m or more, and rest, deg f
    less sum m deg g over the classes found, is the sum of their
    multiplicities.  So the loop ends on the degree count, with no gcd:
    one root left has multiplicity rest, and rest = m deg b gives each
    root left multiplicity m."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    b = _primitive(f.num)
    c = [i * x for i, x in enumerate(b)][1:]
    g = _gcd(b, c)
    out, m, rest = [], 1, len(b) - 1
    b, c = exact_quotient(b, g), exact_quotient(c, g)  # len(c) = len(b) - 1 from here on
    while len(b) > 1:
        n = len(b) - 1  # roots left, each of multiplicity m or more
        if n == 1 or rest == m * n:
            out.append((RatPoly(b).monic(), rest // n))
            break
        d = [x - i * y for i, (x, y) in enumerate(zip(c, b[1:]), 1)]  # c - b'
        g = _gcd(b, d)
        if len(g) > 1:
            out.append((RatPoly(g).monic(), m))
            rest -= m * (len(g) - 1)
        b, c = exact_quotient(b, g), exact_quotient(d, g)
        m += 1
    return out
