"""Test-only helpers: references the package's results are checked against
(element lists, isometry and graph-symmetry checks, graph symmetries as
vertex permutations, component automorphisms by search, group closures,
the short vectors of each class of a dual lattice and the classes that
hold a root, kernel orbits closed over every root-free isotropic
subspace, the unpruned skeleton enumeration, its black-vertex symmetry
group and canonical form over every starting dart, polynomial products,
division and gcds by Fraction arithmetic, the j-map and its ramification
by gcd and factoring), the fiber-set grammar the tests are written in
and the fiber types of fiber_analysis' classes, and polynomial
operations the package does not need."""

import bisect
import functools
import itertools
import math
import re
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple
from unittest import mock

import numpy as np
import sympy

from sexticsym import dessins
from sexticsym.discrforms import FiniteQuadraticForm, Subgroup, isotropic_subspaces
from sexticsym.dessins import NON_SIMPLE, FiberType, Skeleton, fiber_multiset_sorted
from sexticsym.exactcore import RatPoly, poly_gcd, squarefree_partition
from sexticsym.rootsystems import (
    ADEType,
    DynkinGraph,
    GraphSymmetry,
    component_discr,
    component_edges,
    component_gram,
    discr_action,
    graph_discr,
    graph_symmetries,
)
from sexticsym.weierstrass import FiberReport, WeierstrassCurve, is_isotrivial


# ---------------------------------------------------------------------------
# discriminant forms


def elements(form: FiniteQuadraticForm) -> Iterable[Tuple[int, ...]]:
    """Every element as a coordinate tuple, in code order."""
    return itertools.product(*(range(d) for d in form.orders))


def brute_perp(form: FiniteQuadraticForm, k: Subgroup) -> List[int]:
    """The codes of K-perp, ascending, found from b alone."""
    kgens = k.generators()
    return [x for x, v in enumerate(elements(form)) if all(form.b(v, g) == 0 for g in kgens)]


def assert_q_lifts_b(form: FiniteQuadraticForm) -> None:
    """q(x + y) - q(x) - q(y) = 2 b(x, y) mod 2 for every pair of elements."""
    els = list(elements(form))  # element i has code i
    for (i, x), (j, y) in itertools.product(enumerate(els), repeat=2):
        xy = els[form.add_codes(i, j)]
        assert (form.q(xy) - form.q(x) - form.q(y)) % 2 == 2 * form.b(x, y) % 2


def multiplication_table(form: FiniteQuadraticForm, k: int) -> Tuple[int, ...]:
    """The code table of x -> k x."""
    return tuple(form.encode([k * a for a in x]) for x in elements(form))


def preserves_form(form: FiniteQuadraticForm, table: Sequence[int]) -> bool:
    """Whether the automorphism with this code table is an isometry.

    q determines b, so comparing q on every element suffices.
    """
    q = [form.q(x) for x in elements(form)]  # in code order
    return all(q[t] == qc for t, qc in zip(table, q))


def subgroup_keys(form: FiniteQuadraticForm, p: int, codes: np.ndarray) -> np.ndarray:
    """One int64 key per row of an (N, p^rank) array of sorted code rows of
    (Z_p)^rank subgroups, ordered as the rows are lexicographically.

    Column p^k of a sorted row is the least element outside the span of
    the columns before it, so columns 1, p, ..., p^(rank-1) determine the
    row, and two rows first differ at one of them.
    """
    width = codes.shape[1]
    cols = [codes[:, p**i] for i in range(width.bit_length()) if p**i < width]
    return np.ravel_multi_index(cols, (form.order(),) * len(cols))


@functools.lru_cache(maxsize=None)
def class_minima(t: ADEType, bound: Fraction) -> Dict[int, Fraction]:
    """By code of component_discr(t).form, the least norm -x G^-1 x^T of a
    vector of the dual lattice in that class, x its dual coordinates, for
    each class that holds a vector of norm at most bound.  Every such x is
    listed by Fincke-Pohst enumeration: with the norm written as
    sum_i d_i (x_i + sum_{j > i} mu_ij x_j)^2, each x_i, from the last
    down, ranges over the integers that keep the partial sum within bound.
    G^-1 comes from sympy."""
    n = t.rank
    inv = sympy.Matrix(component_gram(t)).inv()
    a = [[-Fraction(int(inv[i, j].p), int(inv[i, j].q)) for j in range(n)] for i in range(n)]
    d, mu = [], []
    for i in range(n):  # complete the square in x_i
        d.append(a[i][i])
        mu.append([a[i][j] / a[i][i] for j in range(n)])
        for j in range(i + 1, n):
            for k in range(i + 1, n):
                a[j][k] -= a[i][j] * a[i][k] / a[i][i]
    dd = component_discr(t)
    out: Dict[int, Fraction] = {}
    x = [0] * n

    def descend(i: int, room: Fraction) -> None:
        if i < 0:
            code = dd.project(x)
            norm = bound - room
            if out.get(code, norm) >= norm:
                out[code] = norm
            return
        centre = -sum((mu[i][j] * x[j] for j in range(i + 1, n)), Fraction(0))
        reach = math.isqrt(math.floor(room / d[i])) + 1
        for xi in range(math.floor(centre) - reach, math.ceil(centre) + reach + 1):
            step = d[i] * (xi - centre) ** 2
            if step <= room:
                x[i] = xi
                descend(i - 1, room - step)
        x[i] = 0

    descend(n - 1, Fraction(bound))
    return out


@functools.lru_cache(maxsize=None)
def root_mask(graph: DynkinGraph) -> np.ndarray:
    """root_mask(graph)[x]: whether the class of code x holds a root, a
    vector of norm 2.  The components are orthogonal, so the least norm of
    a class adds up over its block codes; a block class with no vector of
    norm at most 2 (class_minima) rules a root out."""
    form = graph_discr(graph)
    minima = [class_minima(t, Fraction(2)) for t in graph.components]
    return np.array([sum((m.get(b, Fraction(3)) for m, b in zip(minima, form.block_codes(x))), Fraction(0)) == 2
                     for x in range(form.order())])


def kernel_orbits(graph: DynkinGraph, p: int, rank: int) -> List[Tuple[Subgroup, int]]:
    """Reference for admissible_kernels (rank >= 1): every full-support
    isotropic (Z_p)^rank subgroup (isotropic_subspaces) with no root in
    its classes (root_mask), grouped into orbits by closure under the
    graph symmetry generators, which must map the root-free ones onto
    each other; each orbit as its least subgroup and its size, in order of
    that subgroup."""
    form = graph_discr(graph)
    enc = isotropic_subspaces(form, p, rank)
    enc = enc[~root_mask(graph)[enc].any(axis=1)]
    n_sub = len(enc)
    if n_sub == 0:
        return []
    keys = subgroup_keys(form, p, enc)
    gens = graph_symmetries(graph).generators
    # moves[g, i]: the row of the image of row i under generator g
    moves = np.empty((len(gens), n_sub), dtype=np.intp)
    for g, pos in zip(gens, moves):
        image = np.array(discr_action(graph, g, range(form.order())), dtype=enc.dtype)[enc]
        image.sort(axis=1)
        gkeys = subgroup_keys(form, p, image)
        pos[:] = np.searchsorted(keys, gkeys)
        assert np.array_equal(keys[np.minimum(pos, n_sub - 1)], gkeys)
    # each orbit from its least row index, so they come out in order of
    # their least subgroup; a finite group's orbit is the forward closure
    # under its generators
    seen = np.zeros(n_sub, dtype=bool)
    out = []
    for rep in range(n_sub):
        if seen[rep]:
            continue
        seen[rep] = True
        size, frontier = 1, np.array([rep])
        while len(frontier):
            nxt = moves[:, frontier].ravel()
            nxt = np.unique(nxt[~seen[nxt]])
            seen[nxt] = True
            size += len(nxt)
            frontier = nxt
        out.append((Subgroup(form, tuple(enc[rep].tolist())), size))
    return out


# ---------------------------------------------------------------------------
# graph symmetries


def automorphisms_by_search(t: ADEType) -> List[Tuple[int, ...]]:
    """Reference for component_automorphisms: every vertex permutation of
    the diagram that preserves adjacency, found by backtracking, sorted."""
    n = t.rank
    adj = [set() for _ in range(n)]
    for a, b in component_edges(t):
        adj[a].add(b)
        adj[b].add(a)
    out: List[Tuple[int, ...]] = []
    perm = [-1] * n
    used = [False] * n

    def bt(i: int):
        if i == n:
            out.append(tuple(perm))
            return
        for c in range(n):
            if used[c] or len(adj[c]) != len(adj[i]):
                continue
            if all((j in adj[i]) == (perm[j] in adj[c]) for j in range(i)):
                perm[i], used[c] = c, True
                bt(i + 1)
                used[c] = False

    bt(0)
    return sorted(out)


def offsets(graph: DynkinGraph) -> List[int]:
    """First vertex of each component; vertices are numbered component by
    component."""
    return list(itertools.accumulate((t.rank for t in graph.components[:-1]), initial=0))


def component_of(graph: DynkinGraph, v: int) -> int:
    """The component vertex v lies on."""
    return bisect.bisect_right(offsets(graph), v) - 1


def vertex_perm(graph: DynkinGraph, s: GraphSymmetry) -> Tuple[int, ...]:
    """s as a permutation of the vertices: vertex i of component c goes to
    vertex internal[i] of component target, where (target, internal) is
    the image of c."""
    offs = offsets(graph)
    return tuple(offs[target] + v for target, internal in s.images for v in internal)


def from_perm(graph: DynkinGraph, perm: Sequence[int]) -> GraphSymmetry:
    """The symmetry whose vertex permutation is perm, which must map each
    component onto one component of the same type."""
    offs = offsets(graph)
    images = []
    for t, off in zip(graph.components, offs):
        target = component_of(graph, perm[off])
        if graph.components[target] != t:
            raise ValueError("symmetry does not preserve component types")
        internal = tuple(perm[off + i] - offs[target] for i in range(t.rank))
        if sorted(internal) != list(range(t.rank)):
            raise ValueError("symmetry splits a component")
        images.append((target, internal))
    return GraphSymmetry(tuple(images))


def is_graph_symmetry(graph: DynkinGraph, s: GraphSymmetry) -> bool:
    """Whether s is a vertex permutation that preserves the edges and maps
    each component onto a component of the same type."""
    perm = vertex_perm(graph, s)
    if sorted(perm) != list(range(graph.rank)):
        return False
    offs = offsets(graph)
    edges = {frozenset((a + off, b + off))
             for t, off in zip(graph.components, offs) for a, b in component_edges(t)}
    if any(frozenset((perm[a], perm[b])) not in edges for a, b in edges):
        return False
    for t, off in zip(graph.components, offs):
        targets = {component_of(graph, perm[off + v]) for v in range(t.rank)}
        if len(targets) != 1 or graph.components[targets.pop()] != t:
            return False
    return True


def closure(generators: Sequence[GraphSymmetry], graph: DynkinGraph) -> List[GraphSymmetry]:
    """Every element of the group the generators generate, sorted by vertex
    permutation (a finite group is the forward closure of its generators)."""
    seen = {from_perm(graph, range(graph.rank))}
    frontier = list(seen)
    while frontier:
        frontier = list({g.compose(p) for p in frontier for g in generators} - seen)
        seen.update(frontier)
    return sorted(seen, key=lambda s: vertex_perm(graph, s))


def symmetries(graph: DynkinGraph) -> List[GraphSymmetry]:
    """Every symmetry of the graph, sorted by vertex permutation."""
    return closure(graph_symmetries(graph).generators, graph)


def involution_patterns(graph: DynkinGraph, group: Sequence[GraphSymmetry]):
    """For each involution in group, the sorted labels of the components it
    moves: "2T" for a swapped pair of T components, "T" for a T component
    mapped to itself but not fixed pointwise."""
    out = []
    for s in group:
        if s.is_identity() or not s.compose(s).is_identity():
            continue
        perm = vertex_perm(graph, s)
        moved, swapped = [], set()
        for ci, (t, off) in enumerate(zip(graph.components, offsets(graph))):
            dst = component_of(graph, perm[off])
            if dst != ci and ci not in swapped:
                swapped.update({ci, dst})
                moved.append("2" + t.label())
            elif dst == ci and any(perm[i] != i for i in range(off, off + t.rank)):
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


def fiber_types(fibers: Sequence[FiberReport]) -> List[FiberType]:
    """The fiber type of every geometric point of fiber_analysis' classes."""
    return [r.type for r in fibers for _ in range(r.count)]


# ---------------------------------------------------------------------------
# polynomials and skeletons

X = sympy.symbols("x")


def shift(p: RatPoly, c) -> RatPoly:
    """p(x + c)."""
    return moebius(p, p.degree, 1, c, 0, 1)


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


def product_by_fractions(f: RatPoly, g: RatPoly) -> RatPoly:
    """Reference for RatPoly * RatPoly: the schoolbook product on Fractions."""
    if f.is_zero() or g.is_zero():
        return RatPoly([])
    out = [Fraction(0)] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] += a * b
    return RatPoly(out)


def divmod_by_fractions(f: RatPoly, g: RatPoly) -> Tuple[RatPoly, RatPoly]:
    """Reference for divmod: schoolbook long division on Fractions."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f.coeffs)
    dq = len(rem) - len(g.coeffs)
    if dq < 0:
        return RatPoly([]), f
    quo = [Fraction(0)] * (dq + 1)
    for k in range(dq, -1, -1):
        c = quo[k] = rem[k + g.degree] / g.lc()
        for i, b in enumerate(g.coeffs):
            rem[k + i] -= c * b
    return RatPoly(quo), RatPoly(rem)


def gcd_by_fractions(f: RatPoly, g: RatPoly) -> RatPoly:
    """Reference for poly_gcd: Euclid over Q on Fractions, made monic."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, divmod_by_fractions(a, b)[1]
    return a.monic()


def to_sympy(p: RatPoly):
    return sum(sympy.Rational(c) * X**i for i, c in enumerate(p.coeffs))


def moebius(p: RatPoly, deg: int, a, b, c, d) -> RatPoly:
    """(c x + d)^deg p((a x + b) / (c x + d)): p as a section of O(deg)
    moved by x -> (a x + b) / (c x + d), which may swap a finite place
    with Infinity."""
    out = RatPoly([])
    for i, coef in enumerate(p.coeffs):
        out = out + coef * RatPoly([b, a]) ** i * RatPoly([d, c]) ** (deg - i)
    return out


# ---------------------------------------------------------------------------
# the j-map by gcd and factoring


def j_map_by_gcd(c: WeierstrassCurve, delta: RatPoly) -> Tuple[RatPoly, RatPoly]:
    """Reference for j_invariant: 4 g2^3 / Delta with their Euclid gcd
    cancelled and the denominator made monic."""
    num = 4 * c.g2**3
    if num.is_zero():
        return RatPoly([]), RatPoly([1])
    g = poly_gcd(num, delta)
    num, den = num // g, delta // g
    return num * (1 / den.lc()), den.monic()


def ramification_by_factoring(num: RatPoly, den: RatPoly):
    """deg j and the ramification indices of num/den over 0, 1 and Infinity,
    from the multiplicity classes of num, num - den and den."""
    degj = max(num.degree, den.degree)
    profiles = {}
    for key, poly in (("0", num), ("1", num - den), ("inf", den)):
        es: List[int] = []
        if poly.degree >= 1:
            for g, m in squarefree_partition(poly):
                es.extend([m] * g.degree)
        deficit = degj - max(poly.degree, 0)
        if deficit >= 1:
            es.append(deficit)
        if sum(es) != degj:
            raise ArithmeticError(f"ramification over {key} does not add up to deg j")
        profiles[key] = sorted(es, reverse=True)
    return degj, profiles


def is_maximal_by_factoring(fibers: Sequence[FiberReport], num: RatPoly, den: RatPoly) -> bool:
    """Reference for is_maximal, from the reduced j-map num/den."""
    if is_isotrivial(num, den):
        return False
    if any(r.type == FiberType("D", 4) or r.type is NON_SIMPLE for r in fibers):
        return False
    degj, prof = ramification_by_factoring(num, den)
    if any(e > 3 for e in prof["0"]) or any(e > 2 for e in prof["1"]):
        return False
    return sum(e - 1 for es in prof.values() for e in es) == 2 * degj - 2


def canonical_form_all_starts(sk: Skeleton) -> Tuple:
    """Reference for Skeleton.canonical_form: the least breadth-first
    relabeling over every black starting dart, each one built in full."""
    n = sk.n_darts
    best = None
    for start in range(n):
        if sk.color[start] != "b":
            continue
        lab = {start: 0}
        order = [start]
        i = 0
        while i < len(order):
            d = order[i]
            i += 1
            for e in (sk.sigma[d], sk.alpha[d]):
                if e not in lab:
                    lab[e] = len(lab)
                    order.append(e)
        sig = [0] * n
        alp = [0] * n
        col = [""] * n
        for d in range(n):
            sig[lab[d]] = lab[sk.sigma[d]]
            alp[lab[d]] = lab[sk.alpha[d]]
            col[lab[d]] = sk.color[d]
        cand = (tuple(sig), tuple(alp), tuple(col))
        if best is None or cand < best:
            best = cand
    return best


def relabeled(sk: Skeleton, rng) -> Skeleton:
    """sk with its darts renumbered by a random permutation."""
    n = sk.n_darts
    rel = list(range(n))
    rng.shuffle(rel)
    inv = [0] * n
    for i, j in enumerate(rel):
        inv[j] = i
    return Skeleton(tuple(rel[sk.sigma[inv[d]]] for d in range(n)),
                    tuple(rel[sk.alpha[inv[d]]] for d in range(n)),
                    tuple(sk.color[inv[d]] for d in range(n)))


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
    enumeration with its orbit-pruned pendant and matching generators
    swapped for every pendant set and every perfect matching, so the two
    differ in nothing else."""
    with mock.patch.object(
        dessins, "_orbit_pendants", lambda darts, w, *_: itertools.combinations(darts, w)
    ), mock.patch.object(
        dessins, "_orbit_matchings", lambda darts, *_: _perfect_matchings(darts)
    ):
        return dessins.enumerate_skeletons(k, max_unstable)


def black_vertex_symmetries(rot: Sequence[Tuple[int, ...]]) -> Iterable[Tuple[int, ...]]:
    """Every element of the group G of the skeleton enumeration, as a dart
    permutation: a permutation of the black vertices (rotations rot) that
    keeps valencies, then a rotation of each vertex."""
    classes = [[v for v, cyc in enumerate(rot) if len(cyc) == val] for val in sorted({len(c) for c in rot})]
    for perms in itertools.product(*(itertools.permutations(c) for c in classes)):
        target = dict(zip((v for c in classes for v in c), (v for p in perms for v in p)))
        for turns in itertools.product(*(range(len(c)) for c in rot)):
            image = [0] * sum(map(len, rot))
            for v, (cyc, r) in enumerate(zip(rot, turns)):
                for j, d in enumerate(cyc):
                    image[d] = rot[target[v]][(j + r) % len(cyc)]
            yield tuple(image)
