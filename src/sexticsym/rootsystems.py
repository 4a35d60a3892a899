"""ADE Dynkin graphs, their symmetry groups, and discriminant-form actions.

Vertex conventions (fixed once and for all so that kernels and test
vectors are reproducible):
  A_p : path 1..p
  D_q : path 1..(q-2), fork tips (q-1) and q both adjacent to vertex (q-2)
  E_n : path 1..(n-1), vertex n adjacent to path-vertex 3
Indices are 0-based internally.
"""

from __future__ import annotations

import bisect
import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
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


def _adjacency(t: ADEType) -> List[set]:
    adj = [set() for _ in range(t.rank)]
    for a, b in component_edges(t):
        adj[a].add(b)
        adj[b].add(a)
    return adj


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
    """All adjacency-preserving vertex permutations, found by backtracking."""
    adj = _adjacency(t)
    n = t.rank
    deg = [len(a) for a in adj]
    out: List[Tuple[int, ...]] = []
    perm = [-1] * n
    used = [False] * n

    def bt(i: int):
        if i == n:
            out.append(tuple(perm))
            return
        for c in range(n):
            if used[c] or deg[c] != deg[i]:
                continue
            if all((j in adj[i]) == (perm[j] in adj[c]) for j in range(i)):
                perm[i] = c
                used[c] = True
                bt(i + 1)
                used[c] = False
        perm[i] = -1

    bt(0)
    return tuple(sorted(out))


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

    @cached_property
    def offsets(self) -> Tuple[int, ...]:
        """First vertex of each component."""
        return tuple(itertools.accumulate((t.rank for t in self.components[:-1]), initial=0))

    def component_of(self, v: int) -> int:
        if v < 0:
            raise IndexError(v)
        return bisect.bisect_right(self.offsets, v) - 1


# ---------------------------------------------------------------------------
# symmetries


@dataclass(frozen=True)
class GraphSymmetry:
    perm: Tuple[int, ...]

    def __call__(self, v: int) -> int:
        return self.perm[v]

    def compose(self, other: "GraphSymmetry") -> "GraphSymmetry":
        """self after other."""
        return GraphSymmetry(tuple(self.perm[p] for p in other.perm))

    def is_identity(self) -> bool:
        return all(p == i for i, p in enumerate(self.perm))


@dataclass(frozen=True)
class SymmetryGroup:
    generators: Tuple[GraphSymmetry, ...]
    order: int


def graph_symmetries(graph: DynkinGraph) -> SymmetryGroup:
    """Type-preserving graph automorphism group, as generators plus order."""
    n = graph.rank
    gens: List[GraphSymmetry] = []
    # internal automorphisms, embedded per component
    for t, off in zip(graph.components, graph.offsets):
        for cp in component_automorphisms(t):
            if all(cp[i] == i for i in range(t.rank)):
                continue
            perm = list(range(n))
            for i in range(t.rank):
                perm[off + i] = off + cp[i]
            gens.append(GraphSymmetry(tuple(perm)))
    # transpositions of consecutive isomorphic components
    comps = list(zip(graph.components, graph.offsets))
    for (t1, o1), (t2, o2) in zip(comps, comps[1:]):
        if t1 == t2:
            perm = list(range(n))
            for i in range(t1.rank):
                perm[o1 + i] = o2 + i
                perm[o2 + i] = o1 + i
            gens.append(GraphSymmetry(tuple(perm)))
    # each run of n_t consecutive copies of type t contributes n_t! |Aut t|^n_t
    order = 1
    for t, run in itertools.groupby(graph.components):
        n_t = len(list(run))
        order *= math.factorial(n_t) * len(component_automorphisms(t)) ** n_t
    return SymmetryGroup(tuple(gens), order)


# ---------------------------------------------------------------------------
# discriminant form of a graph, and the induced action


@lru_cache(maxsize=None)
def graph_discr(graph: DynkinGraph) -> FiniteQuadraticForm:
    """Discriminant form of the graph, one canonical block per component."""
    return direct_sum([component_discr(t).form for t in graph.components])


def decompose_symmetry(graph: DynkinGraph, s: GraphSymmetry):
    """Split s into (component permutation, per-component internal map).

    Returns (pi, internals) with pi[c] the image component of c and
    internals[c] the vertex permutation within the component frame.
    """
    k = len(graph.components)
    pi = []
    internals = []
    for c in range(k):
        t, off = graph.components[c], graph.offsets[c]
        target = graph.component_of(s(off))
        if graph.components[target] != t:
            raise ValueError("symmetry does not preserve component types")
        toff = graph.offsets[target]
        internal = tuple(s(off + i) - toff for i in range(t.rank))
        if sorted(internal) != list(range(t.rank)):
            raise ValueError("symmetry splits a component")
        pi.append(target)
        internals.append(internal)
    return tuple(pi), tuple(internals)


def discr_action(graph: DynkinGraph, s: GraphSymmetry, codes=None) -> np.ndarray:
    """Code table of the automorphism of graph_discr(graph) induced by the
    vertex permutation; with codes, only the images of those codes.

    Block-monomial: the block code of component c, mapped by the code
    table of its internal automorphism, becomes the block code of pi(c).
    """
    form = graph_discr(graph)
    pi, internals = decompose_symmetry(graph, s)
    blockcode = form.block_codes(np.arange(form.order()) if codes is None else codes)
    table = np.zeros(len(blockcode), dtype=np.int64)
    for c, t in enumerate(graph.components):
        table += component_code_tables(t)[internals[c]][blockcode[:, c]] * form.block_weights[pi[c]]
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
