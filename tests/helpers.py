"""Test-only helpers: references the package's results are checked against
(element lists, isometry and graph-symmetry checks, group closures, RREF
over F_p, the unpruned skeleton enumeration), the fiber-set grammar the
tests are written in, and polynomial operations the package does not need."""

import itertools
import re
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple
from unittest import mock

import numpy as np

from sexticsym import dessins
from sexticsym.discrforms import FiniteQuadraticForm
from sexticsym.dessins import FiberType, Skeleton, fiber_multiset_sorted
from sexticsym.exactcore import RatPoly
from sexticsym.rootsystems import DynkinGraph, GraphSymmetry, component_edges, graph_symmetries


# ---------------------------------------------------------------------------
# discriminant forms


def elements(form: FiniteQuadraticForm) -> Iterable[Tuple[int, ...]]:
    """Every element as a coordinate tuple, in code order."""
    return itertools.product(*(range(d) for d in form.orders))


def assert_q_lifts_b(form: FiniteQuadraticForm) -> None:
    """q(x + y) - q(x) - q(y) = 2 b(x, y) mod 2 for every pair of elements."""
    els = list(elements(form))  # element i has code i
    for (i, x), (j, y) in itertools.product(enumerate(els), repeat=2):
        xy = els[int(form.add_codes(i, j))]
        assert (form.q(xy) - form.q(x) - form.q(y)) % 2 == 2 * form.b(x, y) % 2


def preserves_form(form: FiniteQuadraticForm, table: np.ndarray) -> bool:
    """Whether the automorphism with this code table is an isometry.

    q determines b, so comparing q on every element suffices.
    """
    q = [form.q(x) for x in elements(form)]  # in code order
    return all(q[t] == qc for t, qc in zip(table.tolist(), q))


def rref_mod_p(rows: np.ndarray, p: int) -> np.ndarray:
    """Reduced row echelon form over F_p."""
    a, r = rows % p, 0
    for c in range(a.shape[1]):
        if r == len(a) or not a[r:, c].any():
            continue
        piv = r + np.flatnonzero(a[r:, c])[0]
        a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        others = np.arange(len(a)) != r
        a[others] = (a[others] - np.outer(a[others, c], a[r])) % p
        r += 1
    return a


# ---------------------------------------------------------------------------
# graph symmetries


def is_graph_symmetry(graph: DynkinGraph, s: GraphSymmetry) -> bool:
    """Whether s is a vertex permutation that preserves the edges and maps
    each component onto a component of the same type."""
    if sorted(s.perm) != list(range(graph.rank)):
        return False
    edges = {frozenset((a + off, b + off))
             for t, off in zip(graph.components, graph.offsets) for a, b in component_edges(t)}
    if any(frozenset((s(a), s(b))) not in edges for a, b in edges):
        return False
    for t, off in zip(graph.components, graph.offsets):
        targets = {graph.component_of(s(off + v)) for v in range(t.rank)}
        if len(targets) != 1 or graph.components[targets.pop()] != t:
            return False
    return True


def closure(generators: Sequence[GraphSymmetry], degree: int) -> List[GraphSymmetry]:
    """Every element of the group the generators generate, sorted by
    permutation (a finite group is the forward closure of its generators)."""
    seen = {GraphSymmetry(tuple(range(degree)))}
    frontier = list(seen)
    while frontier:
        frontier = list({g.compose(p) for p in frontier for g in generators} - seen)
        seen.update(frontier)
    return sorted(seen, key=lambda s: s.perm)


def symmetries(graph: DynkinGraph) -> List[GraphSymmetry]:
    """Every symmetry of the graph, sorted by permutation."""
    return closure(graph_symmetries(graph).generators, graph.rank)


def involution_patterns(graph: DynkinGraph, group: Sequence[GraphSymmetry]):
    """For each involution in group, the sorted labels of the components it
    moves: "2T" for a swapped pair of T components, "T" for a T component
    mapped to itself but not fixed pointwise."""
    out = []
    for s in group:
        if s.is_identity() or not s.compose(s).is_identity():
            continue
        moved, swapped = [], set()
        for ci, (t, off) in enumerate(zip(graph.components, graph.offsets)):
            dst = graph.component_of(s(off))
            if dst != ci and ci not in swapped:
                swapped.update({ci, dst})
                moved.append("2" + t.label())
            elif dst == ci and any(s(i) != i for i in range(off, off + t.rank)):
                moved.append(t.label())
        out.append(tuple(sorted(moved)))
    return out


# ---------------------------------------------------------------------------
# fiber sets: "A2~+A0*+2A0**"

_FIBER_RE = re.compile(r"^(\d*)([ADE])(\d+)(~|\*{1,2})$")


def parse_fibers(text: str) -> Tuple[FiberType, ...]:
    out: List[FiberType] = []
    for term in text.replace(" ", "").split("+"):
        m = _FIBER_RE.match(term)
        if not m:
            raise ValueError(f"bad fiber term {term!r}")
        count = int(m.group(1)) if m.group(1) else 1
        fam, idx, deco = m.group(2), int(m.group(3)), m.group(4)
        stars = 0 if deco == "~" else len(deco)
        out.extend([FiberType(fam, idx, stars)] * count)
    return fiber_multiset_sorted(out)


# ---------------------------------------------------------------------------
# polynomials and skeletons


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
