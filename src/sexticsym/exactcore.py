"""Exact arithmetic foundation: the Smith normal form of integer
matrices, permutation orbits, and univariate polynomials over Q.

Everything here is exact; no floats anywhere.  Matrices are plain lists
of lists of ints; a polynomial is integer numerators over one denominator,
and its gcds, each with both cofactors, run on integer polynomials.
The Smith normal form, which keeps u and v only (its callers read the
columns of u^-1 they need as m*v/d), is the one elimination routine, run
once by discriminant_form and once by quotient_form: no integer solves.
orbits is the one orbit routine for permutations of range(n).
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Sequence, Tuple

IntMatrix = List[List[int]]


# ---------------------------------------------------------------------------
# integer matrices


def smith_normal_form(m: IntMatrix) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with both transforms.

    Returns (d, u, v) with u*m*v = d, d diagonal with nonnegative entries
    and d[i] | d[i+1]; u and v unimodular.  Since m*v = u^-1 * d, column i
    of u^-1 is column i of m*v divided by d[i][i] wherever that is not 0.
    For square m, m is nonsingular iff no diagonal entry of d is 0, and
    then m^-1 = v * d^-1 * u.
    """
    rows, cols = len(m), len(m[0]) if m else 0
    a = [list(r) + [int(i == j) for j in range(rows)] for i, r in enumerate(m)]  # each row [m | u]: row moves carry u
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]
    t = 0
    while t < min(rows, cols):
        # pivot: the least nonzero |entry| of the trailing block, first in row-major order
        piv = min(((abs(a[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if a[i][j]),
                  default=None)
        if piv is None:
            break
        _, i, j = piv
        a[t], a[i] = a[i], a[t]
        for r in a + v:  # column moves act on m's columns and on v
            r[t], r[j] = r[j], r[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]

        for i in range(t + 1, rows):
            q = a[i][t] // a[t][t]
            a[i] = [x - q * y for x, y in zip(a[i], a[t])]
        for j in range(t + 1, cols):
            q = a[t][j] // a[t][t]
            for r in a + v:
                r[j] -= q * r[t]
        if any(a[i][t] for i in range(t + 1, rows)) or any(a[t][j] for j in range(t + 1, cols)):
            continue  # smaller remainders appeared; redo this pivot

        # divisibility: a[t][t] must divide every later entry
        bad = next((i for i in range(t + 1, rows) if any(a[i][j] % a[t][t] for j in range(t + 1, cols))),
                   None)
        if bad is not None:
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            continue
        t += 1

    d = [[a[i][j] if i == j else 0 for j in range(cols)] for i in range(rows)]
    return d, [r[cols:] for r in a], v


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


# A checking record's _make, and so its _replace, which calls _make, builds
# through the record's constructor, with its checks and its normalisation.
checked_make = classmethod(lambda cls, fields: cls(*fields))


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
    coefficients without building a Fraction, for both layouts: str, the
    reports' "2 + x", and repr, "RatPoly(2 + 1*x^1)", the order of places."""

    __slots__ = ()
    _make = checked_make

    def __new__(cls, coeffs: Sequence, den: int = 1):
        num = _trimmed(coeffs)
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
        """n - 1 plain products, as binary powering makes for g2^3 and g3^2
        in Delta; higher powers only where g2 and Delta share a root."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return math.prod([self] * (n - 1), start=self) if n else RatPoly([1])

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

    def __str__(self):
        """The report layout, "2 + x - 1/2*x^2"; "0" for the zero polynomial."""
        terms = [c if not i else ("" if c == "1" else c + "*") + (f"x^{i}" if i > 1 else "x")
                 for i, c in self.coeff_strs()]
        return " + ".join(terms).replace("+ -", "- ") or "0"


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
