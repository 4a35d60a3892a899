"""ADE Dynkin graphs, their symmetry groups, and discriminant-form actions.

Vertex conventions (fixed once and for all so that kernels and test
vectors are reproducible):
  A_p : path 1..p
  D_q : path 1..(q-2), fork tips (q-1) and q both adjacent to vertex (q-2)
  E_n : path 1..(n-1), vertex n adjacent to path-vertex 3
Indices are 0-based internally.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

from .discrforms import (
    DiscriminantData,
    FiniteQuadraticForm,
    direct_sum,
    discriminant_form,
)
from .exactcore import smith_normal_form

_FAMILY_ORDER = {"E": 0, "D": 1, "A": 2}


@dataclass(frozen=True, order=True)
class ADEType:
    family: str
    rank: int

    def __post_init__(self):
        if self.family == "A":
            ok = self.rank >= 1
        elif self.family == "D":
            ok = self.rank >= 4
        elif self.family == "E":
            ok = self.rank in (6, 7, 8)
        else:
            ok = False
        if not ok:
            raise ValueError(f"invalid ADE type {self.family}{self.rank}")

    def label(self) -> str:
        return f"{self.family}{self.rank}"


@lru_cache(maxsize=None)
def component_edges(t: ADEType) -> Tuple[Tuple[int, int], ...]:
    r = t.rank
    if t.family == "A":
        return tuple((i, i + 1) for i in range(r - 1))
    if t.family == "D":
        path = [(i, i + 1) for i in range(r - 3)]
        return tuple(path + [(r - 3, r - 2), (r - 3, r - 1)])
    path = [(i, i + 1) for i in range(r - 2)]
    return tuple(path + [(2, r - 1)])


@lru_cache(maxsize=None)
def component_gram(t: ADEType) -> Tuple[Tuple[int, ...], ...]:
    """Root-basis Gram matrix: -2 on the diagonal, +1 on edges."""
    r = t.rank
    g = [[0] * r for _ in range(r)]
    for i in range(r):
        g[i][i] = -2
    for a, b in component_edges(t):
        g[a][b] = 1
        g[b][a] = 1
    return tuple(tuple(row) for row in g)


@lru_cache(maxsize=None)
def component_automorphisms(t: ADEType) -> Tuple[Tuple[int, ...], ...]:
    """All adjacency-preserving vertex permutations, sorted: the identity
    and the flips of the diagram.  A_n has the reversal, D4 the
    permutations of the leaves 0, 2, 3 around the centre 1, D_n (n >= 5)
    the swap of the fork tips n-2 and n-1, E6 the reversal of the path
    0..4 fixing vertex 5, and E7 and E8 none."""
    r = t.rank
    identity = tuple(range(r))
    if t.family == "A":
        flips = [identity[::-1]]
    elif t.family == "D" and r == 4:
        flips = [(a, 1, b, c) for a, b, c in itertools.permutations((0, 2, 3))]
    elif t.family == "D":
        flips = [identity[:-2] + (r - 1, r - 2)]
    elif r == 6:
        flips = [(4, 3, 2, 1, 0, 5)]
    else:
        flips = []
    return tuple(sorted({identity, *flips}))


@lru_cache(maxsize=None)
def component_discr(t: ADEType) -> DiscriminantData:
    return discriminant_form([list(r) for r in component_gram(t)])


@lru_cache(maxsize=None)
def component_code_tables(t: ADEType) -> Dict[Tuple[int, ...], Tuple[int, ...]]:
    """The code table of each component automorphism's discriminant action.

    The image of the generator e_i is the class of the permuted lift of
    e_i; the action is linear, so x maps to sum_i x_i * image(e_i).
    """
    dd = component_discr(t)
    form = dd.form
    out = {}
    for perm in component_automorphisms(t):
        images = []
        for lv in dd.lifts:
            moved = [0] * t.rank
            for i, c in enumerate(lv):
                moved[perm[i]] = c
            images.append(form.decode(dd.project(moved)))
        out[perm] = tuple(form.encode([sum(a * y for a, y in zip(form.decode(x), col)) for col in zip(*images)])
                          for x in range(form.order()))
    return out


@lru_cache(maxsize=None)
def component_minnorm(t: ADEType) -> Tuple[int, ...]:
    """By code of component_discr(t).form, the least norm of a vector of
    the dual lattice in that class, times the form's level N.  The norm of
    x in dual coordinates is -x G^-1 x^T (G is negative definite); it is
    -q mod 2, a multiple of 1/N.

    Each nonzero class holds a minuscule fundamental weight, the shortest
    vector of its class (Conway-Sloane, SPLAG, ch. 4), so the least
    -(G^-1)_ii over the dual-basis vectors e_i in the class is exact.
    G^-1 = v d^-1 u (smith_normal_form), and d_r divides N."""
    dd = component_discr(t)
    n, r = dd.form.level, t.rank
    d, u, v, _ = smith_normal_form([list(row) for row in component_gram(t)])
    out = [0] + [None] * (dd.form.order() - 1)
    for i in range(r):
        norm = -sum(v[i][k] * u[k][i] * (n // d[k][k]) for k in range(r))
        x = dd.project([int(j == i) for j in range(r)])
        if x:
            out[x] = norm if out[x] is None else min(out[x], norm)
    return tuple(out)


@dataclass(frozen=True)
class DynkinGraph:
    components: Tuple[ADEType, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("empty graph")

    @property
    def rank(self) -> int:
        return sum(t.rank for t in self.components)


# ---------------------------------------------------------------------------
# symmetries


Point = Tuple[int, Tuple[int, ...]]


@dataclass(frozen=True, order=True)
class GraphSymmetry:
    """A type-preserving graph symmetry as the image of each component:
    the point images[c] = (target, internal) maps vertex i of component c
    to vertex internal[i] of component target.

    A target has its component's type, so these tuples order as the
    vertex permutations they stand for do, vertices numbered component
    by component.
    """

    images: Tuple[Point, ...]

    def image(self, point: Point) -> Point:
        """Where self carries a point: (c, a) goes to self's target of c,
        with self's internal automorphism of c after a."""
        target, internal = self.images[point[0]]
        return target, tuple(map(internal.__getitem__, point[1]))

    def compose(self, other: "GraphSymmetry") -> "GraphSymmetry":
        """self after other."""
        return GraphSymmetry(tuple(map(self.image, other.images)))

    def is_identity(self) -> bool:
        return all(target == c and all(v == i for i, v in enumerate(internal))
                   for c, (target, internal) in enumerate(self.images))


@dataclass(frozen=True)
class SymmetryGroup:
    generators: Tuple[GraphSymmetry, ...]
    order: int


def graph_symmetries(graph: DynkinGraph) -> SymmetryGroup:
    """Type-preserving graph automorphism group, as generators plus order.

    A run of n consecutive copies of type t contributes Aut(t) wr S_n, of
    order n! |Aut t|^n, generated by the nontrivial automorphisms of its
    first copy, the swap of its first two copies and the n-cycle through
    all of them (the swap and the cycle generate S_n, whose conjugates of
    the first copy's automorphisms reach every copy)."""
    comps = graph.components
    identity = [(c, tuple(range(t.rank))) for c, t in enumerate(comps)]
    gens: List[GraphSymmetry] = []
    order, start = 1, 0
    for t, run in itertools.groupby(comps):
        n = len(list(run))
        moves = [{start: (start, a)} for a in component_automorphisms(t)[1:]]  # the first is the identity
        if n >= 2:
            moves.append({start: identity[start + 1], start + 1: identity[start]})
        if n >= 3:
            moves.append({start + i: identity[start + (i + 1) % n] for i in range(n)})
        gens += [GraphSymmetry(tuple(move.get(c, x) for c, x in enumerate(identity))) for move in moves]
        order *= math.factorial(n) * len(component_automorphisms(t)) ** n
        start += n
    return SymmetryGroup(tuple(gens), order)


def symmetry_invariant(graph: DynkinGraph, codes: Iterable[int]) -> Tuple[Tuple[Tuple[ADEType, int], ...], ...]:
    """A value that every graph symmetry keeps on a set of element codes:
    the sorted multiset, over the codes, of the sorted pairs (component
    type, least image of the block code under the component's code
    tables).  A symmetry moves a block code to its target's block through
    one of those tables, so each pair, and the sorted pairs, stay put."""
    form, comps = graph_discr(graph), graph.components
    least = [[min(col) for col in zip(*component_code_tables(t).values())] for t in comps]
    return tuple(sorted(tuple(sorted((t, lt[b]) for t, lt, b in zip(comps, least, form.block_codes(x))))
                        for x in codes))


# ---------------------------------------------------------------------------
# discriminant form of a graph, and the induced action


@lru_cache(maxsize=None)
def graph_discr(graph: DynkinGraph) -> FiniteQuadraticForm:
    """Discriminant form of the graph, one canonical block per component."""
    return direct_sum([component_discr(t).form for t in graph.components])


def discr_action(graph: DynkinGraph, s: GraphSymmetry, codes: Iterable[int]) -> Tuple[int, ...]:
    """The images of `codes` under the automorphism of graph_discr(graph)
    induced by s (its whole code table for range(form.order())).

    Block-monomial: the block code of component c, mapped by the code
    table of its internal automorphism, becomes the block code of its
    target.  Images of different components add without carry, so one
    table serves the leading half of the components and one the rest,
    and x maps to hi[x // W] + lo[x % W], W the order of the rest.
    """
    weights, half = graph_discr(graph).block_weights, len(graph.components) // 2
    tables = [[0], [0]]  # hi, then lo
    for c, (t, (target, internal)) in enumerate(zip(graph.components, s.images)):
        tables[c >= half] = [a + b * weights[target] for a in tables[c >= half]
                             for b in component_code_tables(t)[internal]]
    hi, lo = tables
    return tuple(hi[x // len(lo)] + lo[x % len(lo)] for x in codes)


@lru_cache(maxsize=None)
def _graph_minnorm(graph: DynkinGraph) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """component_minnorm of every component, scaled to the level N of
    graph_discr(graph) and added over the components, as one table over
    the leading half of the components and one over the rest (as in
    discr_action): code x has least norm (hi[x // W] + lo[x % W]) / N."""
    n, half = graph_discr(graph).level, len(graph.components) // 2
    tables = [[0], [0]]  # hi, then lo
    for c, t in enumerate(graph.components):
        scale = n // component_discr(t).form.level
        tables[c >= half] = [a + b * scale for a in tables[c >= half] for b in component_minnorm(t)]
    return tuple(tables[0]), tuple(tables[1])


def root_code(graph: DynkinGraph, codes: Iterable[int]) -> Optional[int]:
    """The first of the codes whose class holds a root, a vector of norm
    2, or None.  The components are orthogonal, so a class's least norm
    adds up over its block codes (_graph_minnorm); in an isotropic kernel
    every norm is even, and a nonzero class holds a root exactly when that
    sum is 2."""
    hi, lo = _graph_minnorm(graph)
    two, w = 2 * graph_discr(graph).level, len(lo)
    return next((x for x in codes if hi[x // w] + lo[x % w] == two), None)


# ---------------------------------------------------------------------------
# singularity-set grammar: "2E8+A3", "A9+2A4", "9A2"

_TERM_RE = re.compile(r"^(\d*)([ADE])(\d+)$")

# a plane sextic has total Milnor number at most 19
MAX_RANK = 19


def parse_singularities(text: str) -> DynkinGraph:
    """The graph of a singularity set; its total rank must be at most MAX_RANK."""
    terms: List[Tuple[int, ADEType]] = []
    for term in text.replace(" ", "").split("+"):
        shown = repr(term if len(term) <= 24 else f"{term[:10]}...{term[-10:]}")
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"bad singularity term: {shown}")
        # without leading zeros, a count or rank with more digits than
        # MAX_RANK exceeds it; checked first, as int() refuses 4,300 digits
        count, family, rank = (g.lstrip("0") or g[-1:] for g in m.groups())
        if max(len(count), len(rank)) > len(str(MAX_RANK)):
            raise ValueError(f"total rank exceeds {MAX_RANK} in {shown}")
        count = int(count) if count else 1
        if count < 1:
            raise ValueError(f"bad multiplicity in {shown}")
        terms.append((count, ADEType(family, int(rank))))
    # checked before the multiplicities are expanded into components
    if sum(count * t.rank for count, t in terms) > MAX_RANK:
        raise ValueError(f"total rank exceeds {MAX_RANK}")
    comps = (t for count, t in terms for _ in range(count))
    return DynkinGraph(tuple(sorted(comps, key=lambda t: (_FAMILY_ORDER[t.family], -t.rank))))


def print_singularities(graph: DynkinGraph) -> str:
    comps = sorted(graph.components, key=lambda t: (_FAMILY_ORDER[t.family], -t.rank))
    terms = []
    for t, grp in itertools.groupby(comps):
        c = len(list(grp))
        terms.append((str(c) if c > 1 else "") + t.label())
    return "+".join(terms)
