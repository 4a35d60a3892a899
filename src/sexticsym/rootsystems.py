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
from typing import Dict, List, Tuple

import numpy as np

from .discrforms import (
    DiscriminantData,
    FiniteQuadraticForm,
    direct_sum,
    discriminant_form,
)

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
def component_code_tables(t: ADEType) -> Dict[Tuple[int, ...], np.ndarray]:
    """The code table of each component automorphism's discriminant action
    (read-only arrays).

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
            images.append(dd.project(moved))
        table = form.encode(form.element_array @ form.element_array[images])
        table.flags.writeable = False
        out[perm] = table
    return out


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
    """Type-preserving graph automorphism group, as generators plus order."""
    comps = graph.components
    identity = [(c, tuple(range(t.rank))) for c, t in enumerate(comps)]
    gens: List[GraphSymmetry] = []
    # internal automorphisms, one component at a time
    for c, t in enumerate(comps):
        for a in component_automorphisms(t)[1:]:  # the first is the identity
            images = identity.copy()
            images[c] = (c, a)
            gens.append(GraphSymmetry(tuple(images)))
    # transpositions of consecutive isomorphic components
    for c in range(len(comps) - 1):
        if comps[c] == comps[c + 1]:
            images = identity.copy()
            images[c], images[c + 1] = identity[c + 1], identity[c]
            gens.append(GraphSymmetry(tuple(images)))
    # each run of n_t consecutive copies of type t contributes n_t! |Aut t|^n_t
    order = 1
    for t, run in itertools.groupby(comps):
        n_t = len(list(run))
        order *= math.factorial(n_t) * len(component_automorphisms(t)) ** n_t
    return SymmetryGroup(tuple(gens), order)


# ---------------------------------------------------------------------------
# discriminant form of a graph, and the induced action


@lru_cache(maxsize=None)
def graph_discr(graph: DynkinGraph) -> FiniteQuadraticForm:
    """Discriminant form of the graph, one canonical block per component."""
    return direct_sum([component_discr(t).form for t in graph.components])


def discr_action(graph: DynkinGraph, s: GraphSymmetry, codes) -> np.ndarray:
    """The images of `codes` under the automorphism of graph_discr(graph)
    induced by s (its whole code table for range(form.order())).

    Block-monomial: the block code of component c, mapped by the code
    table of its internal automorphism, becomes the block code of its
    target.
    """
    form = graph_discr(graph)
    blockcode = form.block_codes(codes)
    table = np.zeros(len(blockcode), dtype=np.int64)
    for c, (t, (target, internal)) in enumerate(zip(graph.components, s.images)):
        table += component_code_tables(t)[internal][blockcode[:, c]] * form.block_weights[target]
    return table


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
