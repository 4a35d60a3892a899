"""Exact arithmetic foundation: integer matrices, Smith normal form,
and univariate polynomials over Q.

Everything here is exact; no floats anywhere.  Rationals are
``fractions.Fraction``, matrices are plain lists of lists of ints, and
polynomials are immutable coefficient tuples in ascending degree.  The
Smith normal form is the one elimination routine: nondegeneracy, inverses
and integer solves are all read off it.
"""

from __future__ import annotations

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
# polynomials over Q


class RatPoly:
    """Univariate polynomial over Q, coefficients ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence) -> None:
        # the results of RatPoly arithmetic are Fractions already
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("RatPoly is immutable")

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, RatPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return RatPoly([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    __radd__ = __add__

    def __neg__(self):
        return RatPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, RatPoly):  # a number scales the coefficients
            k = Fraction(other)
            return RatPoly([c * k for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return RatPoly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return RatPoly(out)

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
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return RatPoly([]), self
        quo = [Fraction(0)] * (dq + 1)
        lc = other.coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] / lc
            quo[k] = c
            if c:
                for i, b in enumerate(other.coeffs):
                    rem[k + i] -= c * b
        return RatPoly(quo), RatPoly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self):
        return RatPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self):
        if self.is_zero():
            return self
        lc = self.coeffs[-1]
        return RatPoly([c / lc for c in self.coeffs])

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        if self.is_zero():
            return "RatPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*x^{i}" if i else f"{c}")
        return "RatPoly(" + " + ".join(terms) + ")"


def _coerce(x) -> RatPoly:
    if isinstance(x, RatPoly):
        return x
    return RatPoly([x])


def poly_gcd(f: RatPoly, g: RatPoly) -> RatPoly:
    """Monic gcd over Q (gcd(0, 0) = 0)."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def squarefree_partition(f: RatPoly) -> List[Tuple[RatPoly, int]]:
    """Multiplicity classes of f: pairs (g, m), g monic squarefree pairwise
    coprime, f = c * prod g^m with distinct m, sorted by m."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.degree == 0:
        return []
    # Yun's algorithm
    fp = f.derivative()
    a = poly_gcd(f, fp)
    b = f // a
    c = fp // a
    out = {}
    m = 1
    while b.degree > 0:
        d = c - b.derivative()
        g = poly_gcd(b, d)
        if g.degree > 0:
            out[m] = out.get(m, RatPoly([1])) * g
        b = b // g
        c = d // g
        m += 1
    return sorted(((g.monic(), m) for m, g in out.items()), key=lambda t: t[1])

