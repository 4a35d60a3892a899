"""Test-only helpers: references the package's results are checked against
(b and q as Fractions, the subgroup that coordinate vectors span, a
catalog family's kernels, element lists, isometry and graph-symmetry checks, graph symmetries as
vertex permutations, their products, component automorphisms by search,
group closures and group labels by products of graph symmetries, the
short vectors of each class of a dual lattice and the classes that hold a
root, kernel orbits closed over every root-free isotropic subspace, the
unpruned least-kernel search, the unpruned skeleton enumeration, its black-vertex symmetry
group and canonical form over every starting dart, polynomial products,
division and gcds by Fraction arithmetic, Yun's loop without its degree
count, fiber analysis that splits every class by g2 and g3, the j-map and
its ramification by gcd and factoring), the fiber-set grammar the tests are written in
and the fiber types of fiber_analysis' classes, and polynomial
operations the package does not need."""

import bisect
import functools
import itertools
import json
import math
import re
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple
from unittest import mock

import numpy as np
import sympy

from sexticsym import dessins, exactcore
from sexticsym.discrforms import FiniteQuadraticForm, Subgroup, greedy_generators, isotropic_subspaces
from sexticsym.dessins import NON_SIMPLE, FiberType, Skeleton, fiber_multiset_sorted
from sexticsym.exactcore import RatPoly, poly_gcd, squarefree_partition
from sexticsym.rootsystems import (
    ADEType,
    DynkinGraph,
    GraphSymmetry,
    _primary_invariants,
    component_code_tables,
    component_discr,
    component_edges,
    component_gram,
    discr_action,
    graph_discr,
    graph_symmetries,
    parse_singularities,
    print_singularities,
)
from sexticsym.stability import _after, _basis, _image, _normal, _orbit, _refine, _sorting, admissible_kernels
from sexticsym.weierstrass import (
    INFINITY,
    FiberReport,
    WeierstrassCurve,
    ZeroDiscriminant,
    _classify,
    _orders_at_infinity,
    _split_by_order,
    is_isotrivial,
)


# ---------------------------------------------------------------------------
# discriminant forms


def form_b(form: FiniteQuadraticForm, x: Sequence[int], y: Sequence[int]) -> Fraction:
    """b(x, y) = x G y^T / N mod 1, as a Fraction in [0, 1)."""
    return Fraction(sum(a * g * c for a, row in zip(x, form.gram) for g, c in zip(row, y)), form.level) % 1


def form_q(form: FiniteQuadraticForm, x: Sequence[int]) -> Fraction:
    """q(x) = x G x^T / N mod 2, as a Fraction in [0, 2)."""
    return Fraction(sum(a * g * c for a, row in zip(x, form.gram) for g, c in zip(row, x)), form.level) % 2


def spanned(form: FiniteQuadraticForm, gens: Iterable[Sequence[int]]) -> Subgroup:
    """The subgroup of form generated by the coordinate vectors gens."""
    return Subgroup(form, greedy_generators(form, map(form.encode, gens))[1])


def catalog_kernels(fam) -> Tuple[FiniteQuadraticForm, List[Subgroup]]:
    """The form of a catalog family's graph, with K = 0 and the least
    kernel of each orbit that classify reports for the family."""
    g = parse_singularities(fam.essential)
    form = graph_discr(g)
    kernels = [Subgroup.trivial(form)]
    if fam.kernel_spec[1]:
        kernels += [o.config.kernel for o in admissible_kernels(g, *fam.kernel_spec)]
    return form, kernels


def elements(form: FiniteQuadraticForm) -> Iterable[Tuple[int, ...]]:
    """Every element as a coordinate tuple, in code order."""
    return itertools.product(*(range(d) for d in form.orders))


def brute_perp(form: FiniteQuadraticForm, k: Subgroup) -> List[int]:
    """The codes of K-perp, ascending, found from b alone."""
    kgens = k.generators()
    return [x for x, v in enumerate(elements(form)) if all(form_b(form, v, g) == 0 for g in kgens)]


def assert_q_lifts_b(form: FiniteQuadraticForm) -> None:
    """q(x + y) - q(x) - q(y) = 2 b(x, y) mod 2 for every pair of elements."""
    els = list(elements(form))  # element i has code i
    for (i, x), (j, y) in itertools.product(enumerate(els), repeat=2):
        xy = els[form.add_codes(i, j)]
        assert (form_q(form, xy) - form_q(form, x) - form_q(form, y)) % 2 == 2 * form_b(form, x, y) % 2


def multiplication_table(form: FiniteQuadraticForm, k: int) -> Tuple[int, ...]:
    """The code table of x -> k x."""
    return tuple(form.encode([k * a for a in x]) for x in elements(form))


def preserves_form(form: FiniteQuadraticForm, table: Sequence[int]) -> bool:
    """Whether the automorphism with this code table is an isometry.

    q determines b, so comparing q on every element suffices.
    """
    q = [form_q(form, x) for x in elements(form)]  # in code order
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


# the components with p-torsion, of rank at most 19, for p = 3, 5 and 7;
# each adds one coordinate to the p-torsion space F_p^m (A8 and A17 through
# the 3-torsion of their Z9)
TORSION_COMPONENTS = {3: ("E6", "A17", "A14", "A11", "A8", "A5", "A2"), 5: ("A14", "A9", "A4"), 7: ("A13", "A6")}


def torsion_runs() -> List[Tuple[DynkinGraph, int, int]]:
    """(graph, p, rank) for every nonempty multiset of the components
    TORSION_COMPONENTS[p] of total rank at most 19, and every kernel rank
    1..m, m its number of components; ordered by p, set and rank."""
    out = []
    for p, labels in TORSION_COMPONENTS.items():
        ranks = [int(label[1:]) for label in labels]
        sets = []
        for counts in itertools.product(*(range(19 // r + 1) for r in ranks)):
            if 0 < sum(n * r for n, r in zip(counts, ranks)) <= 19:
                sets.append((parse_singularities("+".join(f"{n}{x}" for n, x in zip(counts, labels) if n)), sum(counts)))
        out += [(g, p, rank) for g, m in sorted(sets, key=lambda gm: print_singularities(gm[0]))
                for rank in range(1, m + 1)]
    return out


def kernel_run(graph: DynkinGraph, p: int, rank: int) -> dict:
    """admissible_kernels(graph, p, rank) as a record: the orbit count, the
    number of kernels in all of them, and each representative's generators."""
    orbits = admissible_kernels(graph, p, rank)
    return {"set": print_singularities(graph), "p": p, "rank": rank, "orbits": len(orbits),
            "kernels": sum(o.size for o in orbits),
            "representatives": [[list(x) for x in o.config.kernel.generators()] for o in orbits]}


def write_kernel_runs(path: str) -> None:
    """kernel_run of every torsion_runs run, as tests/data/kernel-runs.json
    holds them: a JSON list, one record per line."""
    with open(path, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(kernel_run(*run)) for run in torsion_runs()) + "\n]\n")


def least_kernel_breadth_first(p: int, runs: Sequence[int], vectors: Sequence[Tuple[int, ...]]):
    """The least-kernel oracle that stability.admissible_kernels is
    certified by: None unless the kernel K (vectors, ascending) is the least
    of its orbit under W, else the order of Stab_W(K) and generators of it
    as their sources, which stability._stabilizer also finds.  The least
    test, which the package does not make, opens a branch for every vector
    of K whose least image is b_1 (v and -v merged), one per distinct image
    at each level; the stabilizer chain then starts from every adjacent
    transposition of each part of the last cut, with a sign flip on each
    signed part."""
    basis, m = _basis(vectors, p), sum(runs)
    rank, identity = len(basis), tuple((k, 1) for k in range(m))
    spans = [set(vectors[:p**i]) for i in range(rank)]
    columns = [(col, tuple(-y % p for y in col)) for col in zip(*vectors)]
    fold = tuple(min(x, p - x) for x in range(p))
    cuts = [tuple((start, start + n, True) for start, n in zip(itertools.accumulate([0, *runs]), runs))]
    for b in basis:
        cuts.append(_refine(cuts[-1], b))
    branches = {frozenset(vectors): identity}
    for i, (b, cut, span) in enumerate(zip(basis, cuts, spans)):
        nxt = {}
        for kernel, w in branches.items():
            for v in kernel:
                if v in span or not i and next(filter(None, v)) > p // 2:
                    continue
                u = _normal(v, cut, fold)
                if u < b:
                    return None
                if u == b and i + 1 < rank:
                    image = _after(_sorting(v, cut, fold), w)
                    nxt.setdefault(frozenset(_image(columns, image)), image)
        branches = nxt
    gens, order = [], 1
    for s, e, signed in cuts[-1]:
        order *= math.factorial(e - s) * (2 ** (e - s) if signed else 1)
        gens += [identity[:k] + ((k + 1, 1), (k, 1)) + identity[k + 2:] for k in range(s, e - 1)]
        if signed:
            gens.append(identity[:s] + ((s, -1),) + identity[s + 1:])
    for i in reversed(range(rank)):
        orbit, ruled_out = {basis[i]}, set()
        for u in vectors:
            if u in orbit or u in ruled_out or u in spans[i] or _normal(u, cuts[i], fold) != basis[i]:
                continue
            stack, found = [(i + 1, _sorting(u, cuts[i], fold))], None
            while stack and found is None:
                j, w = stack.pop()
                if j == rank:
                    found = w
                else:
                    stack += [(j + 1, _after(_sorting(v, cuts[j], fold), w)) for v in _image(columns, w)
                              if v not in spans[j] and _normal(v, cuts[j], fold) == basis[j]]
            if found is None:
                ruled_out |= _orbit({u}, gens, p)
            else:
                gens.append(found)
                orbit = _orbit({basis[i]}, gens, p)
        order *= len(orbit)
    return order, gens


def perm_signs(w: Sequence[Tuple[int, int]]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The signed permutation w, given by its sources as the kernel search
    holds it ((w v)[j] = e v[k] for w[j] = (k, e)), as (perm, signs): it
    moves coordinate k to coordinate perm[k] times signs[k]."""
    return tuple(zip(*sorted((k, j, e) for j, (k, e) in enumerate(w))))[1:]


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


def signed_permutation(graph: DynkinGraph, coords: Sequence[Tuple[int, int, int]], s: GraphSymmetry
                       ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The signed permutation (perm, signs) by which s acts on the torsion
    coordinates coords (stability._torsion_coordinates): each goes to its
    component's target, with the sign of s's internal automorphism on the
    block code."""
    where = {ci: k for k, (ci, _, _) in enumerate(coords)}
    perm, signs = [], []
    for ci, _, b in coords:
        target, internal = s.images[ci]
        perm.append(where[target])
        signs.append(1 if component_code_tables(graph.components[ci])[internal][b] == b else -1)
    return tuple(perm), tuple(signs)


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


def compose(s: GraphSymmetry, t: GraphSymmetry) -> GraphSymmetry:
    """s after t: component c goes to s's target of t's target of c, with
    s's internal automorphism there after t's."""
    return GraphSymmetry(tuple((s.images[target][0], tuple(map(s.images[target][1].__getitem__, internal)))
                               for target, internal in t.images))


def is_identity(s: GraphSymmetry) -> bool:
    return all(target == c and internal == tuple(range(len(internal))) for c, (target, internal) in enumerate(s.images))


def closure(generators: Sequence[GraphSymmetry], graph: DynkinGraph) -> List[GraphSymmetry]:
    """Every element of the group the generators generate, sorted by vertex
    permutation (a finite group is the forward closure of its generators)."""
    seen = {from_perm(graph, range(graph.rank))}
    frontier = list(seen)
    while frontier:
        frontier = list({compose(g, p) for p in frontier for g in generators} - seen)
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
        if is_identity(s) or not is_identity(compose(s, s)):
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


def element_orders_by_composition(elements: Sequence[GraphSymmetry]) -> List[int]:
    out = []
    for s in elements:
        t, n = s, 1
        while not is_identity(t):
            t = compose(s, t)
            n += 1
        out.append(n)
    return out


def identify_group_by_composition(elements: Sequence[GraphSymmetry]) -> str:
    """Reference for identify_group: the same labels, every product built
    as a GraphSymmetry (compose) and every identity test read off one."""
    n = len(elements)
    if n <= 3:
        return {1: "trivial", 2: "Z2", 3: "Z3"}[n]
    ab = all(compose(a, b) == compose(b, a) for a, b in itertools.combinations(elements, 2))
    ords = element_orders_by_composition(elements)
    if n == 4:
        return "Z4" if 4 in ords else "Z2xZ2"
    if n == 6:
        return "Z6" if ab else "S3"
    if n == 18 and not ab:
        sylow3 = [e for e, o in zip(elements, ords) if o in (1, 3)]
        invs = [e for e, o in zip(elements, ords) if o == 2]
        if (len(sylow3) == 9 and len(invs) == 9
                and all(compose(a, b) in set(sylow3) for a, b in itertools.product(sylow3, sylow3))
                and all(is_identity(compose(s, compose(t, compose(s, t)))) for s in invs for t in sylow3)):
            return "GD(Z3xZ3)"
    if ab:
        return f"other({n}, {_primary_invariants(ords)})"
    return f"other({n}, nonabelian)"


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


def coeffs(p: RatPoly) -> Tuple[Fraction, ...]:
    """The coefficients of p, ascending, as Fractions."""
    return tuple(Fraction(x, p.den) for x in p.num)


def derivative(p: RatPoly) -> RatPoly:
    return RatPoly([i * x for i, x in enumerate(p.num)][1:], p.den)


def shift(p: RatPoly, c) -> RatPoly:
    """p(x + c)."""
    return moebius(p, p.degree, 1, c, 0, 1)


def multiplicity(f: RatPoly, place: RatPoly) -> int:
    """Order of the squarefree polynomial ``place`` in f (f nonzero)."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    m = 0
    while True:
        q, r = divmod_by_fractions(f, place)
        if not r.is_zero():
            return m
        f = q
        m += 1


def product_by_fractions(f: RatPoly, g: RatPoly) -> RatPoly:
    """Reference for RatPoly * RatPoly: the schoolbook product on Fractions."""
    if f.is_zero() or g.is_zero():
        return RatPoly([])
    out = [Fraction(0)] * (len(f.num) + len(g.num) - 1)
    for i, a in enumerate(coeffs(f)):
        for j, b in enumerate(coeffs(g)):
            out[i + j] += a * b
    return RatPoly(out)


def divmod_by_fractions(f: RatPoly, g: RatPoly) -> Tuple[RatPoly, RatPoly]:
    """Polynomial division with remainder: schoolbook long division on Fractions."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem, div = list(coeffs(f)), coeffs(g)
    dq = len(rem) - len(div)
    if dq < 0:
        return RatPoly([]), f
    quo = [Fraction(0)] * (dq + 1)
    for k in range(dq, -1, -1):
        c = quo[k] = rem[k + g.degree] / div[-1]
        for i, b in enumerate(div):
            rem[k + i] -= c * b
    return RatPoly(quo), RatPoly(rem)


def gcd_by_fractions(f: RatPoly, g: RatPoly) -> RatPoly:
    """Reference for poly_gcd: Euclid over Q on Fractions, made monic."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, divmod_by_fractions(a, b)[1]
    return a.monic()


def coeff_strs_by_fractions(p: RatPoly) -> List[Tuple[int, str]]:
    """Reference for RatPoly.coeff_strs: str of each nonzero coefficient
    built as a Fraction."""
    return [(i, str(c)) for i, c in enumerate(coeffs(p)) if c]


def to_sympy(p: RatPoly):
    return sum(sympy.Rational(c) * X**i for i, c in enumerate(coeffs(p)))


def moebius(p: RatPoly, deg: int, a, b, c, d) -> RatPoly:
    """(c x + d)^deg p((a x + b) / (c x + d)): p as a section of O(deg)
    moved by x -> (a x + b) / (c x + d), which may swap a finite place
    with Infinity."""
    out = RatPoly([])
    for i, coef in enumerate(coeffs(p)):
        out = out + coef * RatPoly([b, a]) ** i * RatPoly([d, c]) ** (deg - i)
    return out


def squarefree_partition_full_yun(f: RatPoly) -> List[Tuple[RatPoly, int]]:
    """Reference for squarefree_partition: Yun's loop run until b is
    constant, one gcd a step, with no degree count."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    b = exactcore._primitive(f.num)
    c = [i * x for i, x in enumerate(b)][1:]
    g = exactcore._gcd(b, c)
    b, c = exactcore.exact_quotient(b, g), exactcore.exact_quotient(c, g)
    out, m = [], 1
    while len(b) > 1:
        d = [x - i * y for i, (x, y) in enumerate(zip(c, b[1:]), 1)]  # c - b'
        g = exactcore._gcd(b, d)
        if len(g) > 1:
            out.append((RatPoly(g).monic(), m))
        b, c = exactcore.exact_quotient(b, g), exactcore.exact_quotient(d, g)
        m += 1
    return out


# ---------------------------------------------------------------------------
# fibers and the j-map by gcd and factoring


def fiber_analysis_always_split(c: WeierstrassCurve, delta: RatPoly) -> List[FiberReport]:
    """Reference for fiber_analysis: every class of the full Yun loop split
    by the orders of g2 and then of g3, with no valuation rule."""
    if delta.is_zero():
        raise ZeroDiscriminant("discriminant vanishes identically")
    reports = []
    for g, d in squarefree_partition_full_yun(delta):
        for h, a in _split_by_order(g, c.g2):
            for h2, b in _split_by_order(h, c.g3):
                reports.append(FiberReport(h2, h2.degree, (a, b, d), _classify(a, b, d)))
    a_inf, b_inf, d_inf = _orders_at_infinity(c, delta)
    if d_inf >= 1:
        reports.append(FiberReport(INFINITY, 1, (a_inf, b_inf, d_inf), _classify(a_inf, b_inf, d_inf)))
    reports.sort(key=lambda r: (r.place is INFINITY, str(r.place)))
    return reports


def j_map_by_gcd(c: WeierstrassCurve, delta: RatPoly) -> Tuple[RatPoly, RatPoly]:
    """Reference for j_invariant: 4 g2^3 / Delta with their Euclid gcd
    cancelled and the denominator made monic."""
    num = 4 * c.g2**3
    if num.is_zero():
        return RatPoly([]), RatPoly([1])
    g = poly_gcd(num, delta)
    num, den = divmod_by_fractions(num, g)[0], divmod_by_fractions(delta, g)[0]
    return num * (1 / coeffs(den)[-1]), den.monic()


def ramification_by_factoring(num: RatPoly, den: RatPoly):
    """deg j and the ramification indices of num/den over 0, 1 and Infinity,
    from the multiplicity classes of num, num - den and den."""
    degj = max(num.degree, den.degree)
    profiles = {}
    for key, poly in (("0", num), ("1", num + -1 * den), ("inf", den)):
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


def component_count_by_union_find(s: Skeleton) -> int:
    """Reference for dessins.component_count: a union-find over (edge,
    sheet) pairs, joined by the two sheet moves."""
    # edges = alpha-orbits; index by the black-based dart
    black_darts = [d for d in range(s.n_darts) if s.color[d] == "b"]
    edge_idx = {d: i for i, d in enumerate(black_darts)}
    ne = len(black_darts)
    g_b = [edge_idx[s.sigma[d]] for d in black_darts]
    g_w = list(range(ne))
    for cyc in s.vertex_cycles():
        if s.color[cyc[0]] == "w" and len(cyc) == 2:
            a, b = edge_idx[s.alpha[cyc[0]]], edge_idx[s.alpha[cyc[1]]]
            g_w[a], g_w[b] = b, a
    # sheets permuted by (123) around 0 and (12) around 1
    rho0 = {1: 2, 2: 3, 3: 1}
    rho1 = {1: 2, 2: 1, 3: 3}
    parent: Dict[Tuple[int, int], Tuple[int, int]] = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for e in range(ne):
        for sheet in (1, 2, 3):
            union((e, sheet), (g_b[e], rho0[sheet]))
            union((e, sheet), (g_w[e], rho1[sheet]))
    roots = {find((e, sh)) for e in range(ne) for sh in (1, 2, 3)}
    return len(roots)


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
