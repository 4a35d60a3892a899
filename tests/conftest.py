"""Shared fixtures: the exact curve corpus used across the Weierstrass and
acceptance tests, and the trigonal tables several modules read.

Every curve here was constructed independently (splitting into sections,
power-series matching at a prescribed pole of j, or a modular family) and
then frozen; the tests re-derive all invariants from the coefficients alone.
"""

import random
from fractions import Fraction as F

import pytest

from sexticsym import dessins
from sexticsym.exactcore import RatPoly
from sexticsym.weierstrass import WeierstrassCurve

# label -> (g2 coefficients, g3 coefficients), ascending degree, k = 2
CURVE_CORPUS = {
    # four cusps, irreducible
    "4A2~": ([F(-3, 4), 0, 0, -6], [F(-1, 4), 0, 0, 5, 0, 0, 2]),
    # three sections u, v, w with u + v + w = 0; tangency pattern 2+2+1+1
    "2A3~+2A1~": (
        [F(-1, 3), F(4, 3), F(-7, 3), 2, -1],
        [F(2, 27), F(-4, 9), F(11, 9), F(-52, 27), F(5, 3), F(-2, 3)],
    ),
    # section plus irreducible conic, 8-fold contact at x = 0
    "A7~+A1~+2A0*": (
        [-3, 12, -24, 24, F(-39, 4)],
        [2, -12, 36, -64, F(279, 4), F(-87, 2), F(23, 2)],
    ),
    # section plus conic; the A1~ fiber sits at infinity
    "A5~+A2~+A1~+A0*": (
        [-3, -36, -90, -36, -27],
        [-2, -36, -198, -360, -270, 108, 54],
    ),
    # discriminant 27 x^9 (9x^3 + 4)
    "A8~+3A0*": ([-3, 0, 0, -6], [2, 0, 0, 6, 0, 0, 3]),
    # discriminant 186624 x^5 (x-1)^5 (11x^2 - 13x + 1)
    "2A4~+2A0*": (
        [-3, 48, -168, 168, -48],
        [-2, 48, -360, 1000, -1440, 1056, -304],
    ),
    # discriminant 27 (x^2 - 4); the E8~ fiber sits at infinity
    "E8~+2A0*": ([-3], [0, 1]),
    # discriminant x^3 (27x + 32); the E6~ fiber sits at infinity
    "E6~+A2~+A0*": ([F(-16, 3), -4], [F(128, 27), F(16, 3), 1]),
    # section y = x; g3/2 is the polynomial part of (x^2 + 1)^(3/2), and the
    # D8~ fiber sits at infinity
    "D8~+2A0*": ([-3, 0, -3], [0, 3, 0, 2]),
    # section y = -2x; discriminant -972 (x^2 - 1/3)^2
    "D6~+2A1~": ([-3, 0, -3], [0, -6, 0, 2]),
    # section y = 1 - 2x; discriminant 2916 x^4 (x - 1/4), D5~ at infinity
    "D5~+A3~+A0*": ([-3, 12, -3], [2, -12, 15, 2]),
    # section y = 1; discriminant x^2 (4x - 9), E7~ at infinity
    "E7~+A1~+A0*": ([-3, 1], [2, -1]),
}


# Curve files whose numbers sit at the input bound (weierstrass.MAX_DIGITS
# digits each), kept out of CURVE_CORPUS, whose labels are Table 1's rows:
# name -> (seed, digits of each numerator, digits of each denominator, 0 for
# integers).  Inputs are tests/data/curve-input/NAME.json, goldens
# tests/data/curve/NAME.json.
AT_BOUND_CURVES = {"int30": (1, 30, 0), "frac15": (2, 15, 15)}


def at_bound_curve(name: str) -> dict:
    """The curve file `name`, k = 2, drawn from random.Random(seed): each
    coefficient a signed integer of exactly the numerator's digits, over a
    positive integer of exactly the denominator's digits."""
    seed, num, den = AT_BOUND_CURVES[name]
    rng = random.Random(seed)

    def digits(n: int) -> int:
        return rng.randrange(10 ** (n - 1), 10**n)

    def coefficient() -> str:
        c = str(rng.choice((-1, 1)) * digits(num))
        return f"{c}/{digits(den)}" if den else c

    return {"k": 2, "g2": [coefficient() for _ in range(5)], "g3": [coefficient() for _ in range(7)]}


def corpus_curve(label: str) -> WeierstrassCurve:
    g2, g3 = CURVE_CORPUS[label]
    return WeierstrassCurve(2, RatPoly(g2), RatPoly(g3))


@pytest.fixture(scope="session")
def corpus():
    return {label: corpus_curve(label) for label in CURVE_CORPUS}


# table1() and enumerate_skeletons(2, 0) are pure, so the tests that only
# read them share one build (tuples, so no test can change what the next one
# sees)


@pytest.fixture(scope="session")
def table1_rows():
    return tuple(dessins.table1())


@pytest.fixture(scope="session")
def k2_stable_skeletons():
    return tuple(dessins.enumerate_skeletons(2, 0))
