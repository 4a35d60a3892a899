"""Test-only helpers: polynomial operations the package does not need, and
the unpruned skeleton enumeration that the orbit-pruned one is checked
against."""

from fractions import Fraction
from typing import Iterable, List, Tuple
from unittest import mock

from sexticsym import dessins
from sexticsym.dessins import Skeleton
from sexticsym.exactcore import RatPoly


def shift(p: RatPoly, c) -> RatPoly:
    """p(x + c)."""
    out = RatPoly([])
    xc = RatPoly([Fraction(c), 1])
    for coef in reversed(p.coeffs):
        out = out * xc + RatPoly([coef])
    return out


def multiplicity(f: RatPoly, place: RatPoly) -> int:
    """Order of the squarefree polynomial ``place`` in f (f nonzero)."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    m = 0
    while True:
        q, r = divmod(f, place)
        if not r.is_zero():
            return m
        f = q
        m += 1


def _perfect_matchings(darts: List[int]) -> Iterable[List[Tuple[int, int]]]:
    if not darts:
        yield []
        return
    first, rest = darts[0], darts[1:]
    for i, other in enumerate(rest):
        for sub in _perfect_matchings(rest[:i] + rest[i + 1 :]):
            yield [(first, other)] + sub


def oracle_skeletons(k: int, max_unstable: int) -> List[Skeleton]:
    """enumerate_skeletons by generate-then-deduplicate: the package's own
    enumeration with its orbit-pruned matching generator swapped for every
    perfect matching, so the two differ in nothing else."""
    with mock.patch.object(
        dessins, "_orbit_matchings", lambda darts, *_: _perfect_matchings(darts)
    ):
        return dessins.enumerate_skeletons(k, max_unstable)
