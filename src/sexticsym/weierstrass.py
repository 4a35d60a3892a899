"""Exact fiber analysis of trigonal curves y^3 + g2(x) y + g3(x) = 0 in
the k-th Hirzebruch surface.

All computations are exact, on integer numerators.  Places are
multiplicity classes of the discriminant (no root isolation): a squarefree
class g_0 = g is split by the gcd tower g_(i+1) = gcd(g_i, f_i),
f_(i+1) = f_i / g_(i+1) for f_0 = g2, then g3, each gcd returned with both
quotients, until the orders (a, b, d) of g2, g3, Delta are constant on each
class: g_i / g_(i+1) holds the roots where f has order i.  The orders type
the fiber by one rule, dessins.simple_fiber: its Euler number is d, it is
multiplicative where a = 0 and dihedral where d = 6 or 3a = 2b.  Nothing
else is factored: j = 4 g2^3 / Delta and j - 1 = -27 g3^2 / Delta have
orders 3a - d and 2b - d.
"""

from __future__ import annotations

import reprlib
from fractions import Fraction
from typing import List, NamedTuple, Sequence, Tuple, Union

from .dessins import NON_SIMPLE, FiberType, simple_fiber
from .exactcore import RatPoly, checked_make, exact_quotient, poly_gcd, squarefree_partition

INF = 10**9  # order of the zero polynomial at any place

INFINITY = "Infinity"

D4 = FiberType("D", 4)  # the 4-fold-symmetric fiber, which no dessin has


class ZeroDiscriminant(ValueError):
    """The cubic has a persistent multiple root (Delta vanishes identically)."""


class _CurveFields(NamedTuple):
    k: int
    g2: RatPoly
    g3: RatPoly


DEGREE_BOUNDS = "degree bounds deg g2 <= 2k, deg g3 <= 3k violated"


class WeierstrassCurve(_CurveFields):
    __slots__ = ()
    _make = checked_make

    def __new__(cls, k: int, g2: RatPoly, g3: RatPoly):
        if k < 1:
            raise ValueError("Hirzebruch index must be >= 1")
        if g2.degree > 2 * k or g3.degree > 3 * k:
            raise ValueError(DEGREE_BOUNDS)
        if g2.is_zero() and g3.is_zero():
            raise ValueError("g2 and g3 cannot both vanish")
        return tuple.__new__(cls, (k, g2, g3))


# Most digits a curve-file number may have, and the largest magnitude of its
# decimal exponent.  Numerators and denominators stay below 10^(2 MAX_DIGITS),
# so a report's integers stay far below Python's 4300-digit print limit.
MAX_DIGITS = 30

# Largest Hirzebruch index k a curve file may have, chosen by measurement
# (2-core x86-64 VM, Python 3.11, warm, in-process).  The slowest file shape
# found at the bound, k = 3 with every coefficient a 1-digit numerator over
# a 29-digit denominator (tests/data/curve-input/k3-frac29.json), takes
# ~12 ms.  That shape takes ~4 ms at k = 2 and ~31 ms at k = 4, and a 3 KB
# file of 30-digit integers ~4 ms at k = 16.  With the remainder-sequence
# gcd that chose the bound, these took ~0.7 s, 0.07 s, 3.9 s and 19 s.
MAX_K = 3


def _rational(x) -> Fraction:
    """A curve-file number within MAX_DIGITS: an int, or an integer, decimal
    or "p/q" string.  Its size is checked before Fraction() builds it, which
    takes seconds for "1e10000000"."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(f"{reprlib.repr(x)} is not a rational number")
    if isinstance(x, int):
        too_long, exponent = abs(x) >= 10**MAX_DIGITS, ""
    else:
        mantissa, _, exponent = x.lower().partition("e")
        too_long = sum(map(str.isdigit, mantissa)) > MAX_DIGITS
    if too_long:
        raise ValueError(f"a number has more than {MAX_DIGITS} digits")
    if exponent and (len(exponent) > MAX_DIGITS or abs(int(exponent)) > MAX_DIGITS):
        raise ValueError(f"a number has an exponent beyond {MAX_DIGITS}")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"{reprlib.repr(x)} has a zero denominator") from None


def curve_from_json(data: dict) -> WeierstrassCurve:
    if not isinstance(data, dict):
        raise ValueError("a curve file must hold a JSON object")
    for field in ("k", "g2", "g3"):
        if field not in data:
            raise ValueError(f"missing field {field!r}")
    k = data["k"]
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"k must be an integer, not {reprlib.repr(k)}")
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be between 1 and {MAX_K}")
    lead = _rational(data.get("lead", 1))
    if lead == 0:
        raise ValueError("leading coefficient must be nonzero")
    g2, g3 = data["g2"], data["g3"]
    if not isinstance(g2, list) or not isinstance(g3, list):
        raise ValueError("g2 and g3 must be lists of coefficients")
    # entries past the degree bounds must be zero: a long list is refused at
    # its first nonzero one there, before RatPoly scales every numerator
    if any(map(_rational, g2[2 * k + 1:])) or any(map(_rational, g3[3 * k + 1:])):
        raise ValueError(DEGREE_BOUNDS)
    # each polynomial over lead: its numerators times lead's denominator,
    # over its denominator times lead's numerator
    g2, g3 = (RatPoly([_rational(c) for c in g[:bound + 1]], lead.numerator) * lead.denominator
              for g, bound in ((g2, 2 * k), (g3, 3 * k)))
    return WeierstrassCurve(k, g2, g3)


def discriminant(c: WeierstrassCurve) -> Tuple[RatPoly, RatPoly]:
    """4 g2^3 and Delta = 4 g2^3 + 27 g3^2: the j-map's numerator is
    Delta's first term, built once for both."""
    g2_term = 4 * c.g2 ** 3
    return g2_term, g2_term + 27 * c.g3 ** 2


class FiberReport(NamedTuple):
    place: Union[RatPoly, str]  # squarefree monic factor, or INFINITY
    count: int  # number of geometric points in the class (deg place, or 1)
    mults: Tuple[int, int, int]  # (a, b, d); INF marks an identically-zero g
    type: FiberType


def _classify(a: int, b: int, d: int) -> FiberType:
    """The fiber at a place where g2, g3 and Delta have orders (a, b, d),
    non-simple where d >= 12.  Delta = 4 g2^3 + 27 g3^2 has order
    d = min(3a, 2b) where 3a != 2b, and d >= 3a where 3a = 2b; other
    orders raise."""
    if not (d == min(3 * a, 2 * b) or 3 * a == 2 * b <= d):
        raise ArithmeticError(f"orders (a, b, d) = {(a, b, d)} break the valuation of Delta")
    return NON_SIMPLE if d >= 12 else simple_fiber(d, a == 0, d == 6 or 3 * a == 2 * b)


def _split_by_order(g: RatPoly, f: RatPoly) -> List[Tuple[RatPoly, int]]:
    """Refine the monic squarefree class g by the order of f at its roots.

    Returns (class, order) pairs; order is INF when f is identically zero.
    Each gcd comes with both quotients; g and the gcd are monic, so g's
    quotient is too.
    """
    if f.is_zero():
        return [(g, INF)]
    out, order = [], 0
    while g.degree >= 1:
        g, lower, f = poly_gcd(g, f)  # a constant gcd ends the loop
        if lower.degree >= 1:  # roots with order exactly `order`
            out.append((lower, order))
        order += 1
    return out


def fiber_analysis(c: WeierstrassCurve, delta: RatPoly) -> List[FiberReport]:
    """One report per class of places with constant orders (a, b, d) of
    g2, g3 and Delta, given Delta = discriminant(c)[1].

    By the valuation of Delta, which _classify checks at every place
    (Infinity too), at a root of Delta a = 0 exactly when b = 0, and
    d >= 2 otherwise: a class with d = 1 has orders (0, 0, 1) and needs no
    split by g2.  Once a is known, b = d / 2 where d < 3a and b = 3a / 2
    where d > 3a (b = 0 where a = 0): only the parts with d = 3a are split
    by g3."""
    if delta.is_zero():
        raise ZeroDiscriminant("discriminant vanishes identically")
    reports: List[FiberReport] = []
    for g, d in squarefree_partition(delta):
        for h, a in [(g, 0)] if d == 1 else _split_by_order(g, c.g2):
            for h2, b in _split_by_order(h, c.g3) if d == 3 * a else [(h, min(d, 3 * a) // 2)]:
                reports.append(FiberReport(h2, h2.degree, (a, b, d), _classify(a, b, d)))
    if sum(r.count * r.mults[2] for r in reports) != delta.degree:
        raise ArithmeticError("fiber classes do not add up to deg Delta")
    a_inf, b_inf, d_inf = _orders_at_infinity(c, delta)
    if d_inf >= 1:
        reports.append(FiberReport(INFINITY, 1, (a_inf, b_inf, d_inf), _classify(a_inf, b_inf, d_inf)))
    reports.sort(key=lambda r: (r.place is INFINITY, str(r.place)))
    return reports


def _orders_at_infinity(c: WeierstrassCurve, delta: RatPoly) -> Tuple[int, ...]:
    """The orders (a, b, d) of g2, g3 and Delta at x = Infinity."""
    return tuple(INF if g.is_zero() else n * c.k - g.degree for g, n in ((c.g2, 2), (c.g3, 3), (delta, 6)))


# The j-map and the verdicts below read a curve's fiber_analysis reports,
# which the caller computes once per curve and passes in.


def j_invariant(g2_term: RatPoly, delta: RatPoly, fibers: Sequence[FiberReport]) -> Tuple[RatPoly, RatPoly]:
    """The reduced j-map num/den = 4 g2^3 / Delta, den monic, given
    g2_term = 4 g2^3, Delta and its fibers."""
    if delta.is_zero():
        raise ZeroDiscriminant("discriminant vanishes identically")
    common = None  # gcd(4 g2^3, Delta); min(3a, d) = d where g2 = 0 and a is INF
    for r in fibers:
        e = min(3 * r.mults[0], r.mults[2])
        if e and r.place is not INFINITY:
            common = r.place ** e if common is None else common * r.place ** e
    n, d = g2_term.num, delta.num
    if common is not None:  # monic: its numerators are primitive, so they divide exactly
        n, d = (exact_quotient(x, common.num) for x in (n, d))
    # j = (n / g2_term.den) / (d / delta.den); both over d[-1] / delta.den
    # make den monic
    return RatPoly([x * delta.den for x in n], g2_term.den * d[-1]), RatPoly(d, d[-1])


def milnor(fibers: Sequence[FiberReport]) -> int:
    if any(r.type is NON_SIMPLE for r in fibers):
        raise ValueError("Milnor number undefined with non-simple fibers")
    return sum(r.count * r.type.milnor() for r in fibers)


def is_isotrivial(num: RatPoly, den: RatPoly) -> bool:
    return num.degree <= 0 and den.degree <= 0


def is_stable(fibers: Sequence[FiberReport]) -> bool:
    return all(r.type.family != "J" and r.type.is_stable for r in fibers)


def is_maximal(c: WeierstrassCurve, delta: RatPoly, fibers: Sequence[FiberReport]) -> bool:
    """No critical values outside {0, 1, Infinity}, ramification at most 3
    over 0 and at most 2 over 1, and no 4-fold-symmetric or non-simple
    fibers; certified by exact Riemann-Hurwitz saturation.  A place with
    orders (a, b, d) lies over 0, 1 or Infinity with index 3a - d, 2b - d
    or d - 3a, whichever is positive.  Off Delta, j has index 3 over 0 at
    each root of g2, deg g2 - sum(count * a) of them with multiplicity, and
    index 2 over 1 at each root of g3.  No squarefree test is needed: a
    root of order m > 1 there has index 3m (2m), over the bound, and
    counting it as m points undercounts its e - 1 = 3m - 1 (2m - 1) as 2m
    (m), so saturation fails, as it should."""
    finite = [(r.count, r.mults) for r in fibers if r.place is not INFINITY]
    degj = max(3 * c.g2.degree, delta.degree) - sum(n * min(3 * a, d) for n, (a, b, d) in finite)
    if degj == 0 or any(r.type == D4 or r.type is NON_SIMPLE for r in fibers):
        return False  # isotrivial, or a fiber no dessin has; a and b are finite past here
    over = {"0": [], "1": [], "inf": []}
    for n, (a, b, d) in finite + [(1, _orders_at_infinity(c, delta))]:
        for key, e in (("0", 3 * a - d), ("1", 2 * b - d), ("inf", d - 3 * a)):
            if e > 0:
                over[key] += [e] * n
    over["0"] += [3] * (c.g2.degree - sum(n * a for n, (a, b, d) in finite))
    over["1"] += [2] * (c.g3.degree - sum(n * b for n, (a, b, d) in finite))
    for key, es in over.items():
        if sum(es) != degj:
            raise ArithmeticError(f"ramification over {key} does not add up to deg j")
    if any(e > 3 for e in over["0"]) or any(e > 2 for e in over["1"]):
        return False
    return sum(e - 1 for es in over.values() for e in es) == 2 * degj - 2
