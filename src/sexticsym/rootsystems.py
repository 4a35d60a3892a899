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
from functools import lru_cache
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .discrforms import (
    DiscriminantData,
    FiniteQuadraticForm,
    direct_sum,
    discriminant_form,
    split_tables,
)
from .exactcore import orbits

_FAMILY_ORDER = {"E": 0, "D": 1, "A": 2}


# The package's records are typing.NamedTuples: ==, hash and < are those of
# their field tuples.  One that checks its fields is a subclass whose __new__
# checks them, since a NamedTuple's own body may not define __new__.
class _ADEFields(NamedTuple):
    family: str
    rank: int


class ADEType(_ADEFields):
    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        if family == "A":
            ok = rank >= 1
        elif family == "D":
            ok = rank >= 4
        elif family == "E":
            ok = rank in (6, 7, 8)
        else:
            ok = False
        if not ok:
            raise ValueError(f"invalid ADE type {family}{rank}")
        return tuple.__new__(cls, (family, rank))

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
    -(G^-1)_ii over the dual-basis vectors e_i in the class is exact; N G^-1
    is component_discr's integer inverse."""
    dd = component_discr(t)
    out = [0] + [None] * (dd.form.order() - 1)
    for i in range(t.rank):
        norm = -dd.inverse[i][i]
        x = dd.project([int(j == i) for j in range(t.rank)])
        if x:
            out[x] = norm if out[x] is None else min(out[x], norm)
    return tuple(out)


class _DynkinFields(NamedTuple):
    components: Tuple[ADEType, ...]


class DynkinGraph(_DynkinFields):
    __slots__ = ()

    def __new__(cls, components: Tuple[ADEType, ...]):
        if not components:
            raise ValueError("empty graph")
        return tuple.__new__(cls, (components,))

    @property
    def rank(self) -> int:
        return sum(t.rank for t in self.components)


# ---------------------------------------------------------------------------
# symmetries


Point = Tuple[int, Tuple[int, ...]]


class GraphSymmetry(NamedTuple):
    """A type-preserving graph symmetry as the image of each component:
    the point images[c] = (target, internal) maps vertex i of component c
    to vertex internal[i] of component target.

    A target has its component's type, so these tuples order as the
    vertex permutations they stand for do, vertices numbered component
    by component.
    """

    images: Tuple[Point, ...]


class SymmetryGroup(NamedTuple):
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


# ---------------------------------------------------------------------------
# group identification

# A symmetry as a permutation of the vertices, numbered component by
# component: entry v is the image of vertex v.
VertexPerm = Tuple[int, ...]


def _vertex_perms(elements: Sequence[GraphSymmetry]) -> List[VertexPerm]:
    """Each symmetry as a VertexPerm: vertex i of component c goes to vertex
    internal[i] of component target, (target, internal) its image of c."""
    offsets = list(itertools.accumulate((len(internal) for _, internal in elements[0].images), initial=0))
    return [tuple(offsets[target] + v for target, internal in s.images for v in internal) for s in elements]


def _element_orders(perms: Sequence[VertexPerm]) -> List[int]:
    """The order of each permutation: the lcm of its cycle lengths."""
    return [math.lcm(*map(len, orbits(len(s), [s]))) for s in perms]


def _is_abelian(perms: Sequence[VertexPerm]) -> bool:
    return all(tuple(map(a.__getitem__, b)) == tuple(map(b.__getitem__, a))
               for a, b in itertools.combinations(perms, 2))


def _primary_invariants(ords: Sequence[int]) -> List[int]:
    """Primary invariants, ascending, of a finite abelian group from the
    orders of all its elements.

    For a prime p, #{x : p^k x = 0} = p^s_k with s_k = sum_i min(a_i, k)
    over the cyclic factors Z_{p^a_i}, so the number of factors with
    a_i = k is 2 s_k - s_{k-1} - s_{k+1}.
    """
    out: List[int] = []
    rest, p = len(ords), 2
    while rest > 1:
        if rest % p:
            p += 1
            continue
        s = [0]
        while rest % p == 0:
            rest //= p
            count = sum(1 for o in ords if p ** len(s) % o == 0)
            s.append(next(e for e in itertools.count() if p**e >= count))
        s.append(s[-1])
        for k in range(1, len(s) - 1):
            out += [p**k] * (2 * s[k] - s[k - 1] - s[k + 1])
    return sorted(out)


_ABELIAN_LABELS = {(4,): "Z4", (2, 2): "Z2xZ2", (2, 3): "Z6"}


def identify_group(elements: Sequence[GraphSymmetry]) -> str:
    """The label of the group `elements` (all of it), read off its order,
    whether it is abelian, and its element orders.  A group of order below
    4 is cyclic.  An abelian group is named by its primary invariants.  Of
    the nonabelian groups, order 6 is S3, and of the three of order 18 only
    GD(Z3xZ3) has both 9 involutions and 9 elements of order 1 or 3 (D9
    has 3 of the latter, S3 x Z3 only 3 involutions)."""
    n = len(elements)
    if n < 4:
        return ("trivial", "Z2", "Z3")[n - 1]
    perms = _vertex_perms(elements)
    ords = _element_orders(perms)
    if _is_abelian(perms):
        inv = _primary_invariants(ords)
        return _ABELIAN_LABELS.get(tuple(inv), f"other({n}, {inv})")
    if n == 6:
        return "S3"
    if n == 18 and ords.count(2) == 9 and sum(o in (1, 3) for o in ords) == 9:
        return "GD(Z3xZ3)"
    return f"other({n}, nonabelian)"


# ---------------------------------------------------------------------------
# discriminant form of a graph, and the induced action


@lru_cache(maxsize=None)
def graph_discr(graph: DynkinGraph) -> FiniteQuadraticForm:
    """Discriminant form of the graph, one canonical block per component."""
    return direct_sum([component_discr(t).form for t in graph.components])


@lru_cache(maxsize=None)
def symmetry_tables(graph: DynkinGraph) -> Tuple[Dict[Point, Tuple[int, ...]], ...]:
    """The graph symmetries' action on graph_discr(graph): for each
    component, a dict from each image point (target, internal), targets
    ascending and automorphisms sorted, to internal's code table scaled by
    the target's block weight, so a symmetry s maps block code b of
    component c to symmetry_tables(graph)[c][s.images[c]][b]."""
    comps, weights = graph.components, graph_discr(graph).block_weights
    return tuple({(target, a): tuple(b * weights[target] for b in table)
                  for target, u in enumerate(comps) if u == t
                  for a, table in component_code_tables(t).items()}
                 for t in comps)


def discr_action(graph: DynkinGraph, s: GraphSymmetry, codes: Iterable[int]) -> Tuple[int, ...]:
    """The images of `codes` under the automorphism of graph_discr(graph)
    induced by s (its whole code table for range(form.order())).

    Block-monomial: each component's table in symmetry_tables maps its
    block code into its target's block, and these images add without
    carry, so x maps to hi[x // len(lo)] + lo[x % len(lo)] (split_tables,
    one part per component).
    """
    hi, lo = split_tables([tables[point] for tables, point in zip(symmetry_tables(graph), s.images)])
    return tuple(hi[x // len(lo)] + lo[x % len(lo)] for x in codes)


@lru_cache(maxsize=None)
def _graph_minnorm(graph: DynkinGraph) -> Tuple[List[int], List[int]]:
    """component_minnorm of every component, scaled to the level N of
    graph_discr(graph) and added over the components, as split_tables with
    one part per component: code x has least norm (hi[x // W] + lo[x % W])
    / N, W = len(lo)."""
    n = graph_discr(graph).level
    return split_tables([[b * (n // component_discr(t).form.level) for b in component_minnorm(t)]
                         for t in graph.components])


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
