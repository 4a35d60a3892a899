"""Configurations (Dynkin graph, isotropic kernel) and their stable
symmetry groups.

A kernel K is an odd isotropic subgroup of the discriminant form whose
classes hold no root (a vector of norm 2) of the overlattice.  A
symmetry s is stable when discr(s) acts identically on K-perp/K, that
is, when s(z) lies in z + K for every z in K-perp.  Kernels are Subgroups
(sorted element codes) and discr(s) is a code table, so this is a
condition on the element codes of K-perp.  It is linear in z, so the
search checks it only on a generating set of K-perp (kernel_perp) chosen
so that, for every component i, the generators supported on components
0..i generate every element of K-perp supported there.  A generator is
checked as soon as the last component it is supported on has been
assigned, when its image is complete, so the prune is the same as
checking all of K-perp.  One backtrack, _search_symmetries, lists the
stable symmetries (sym_stable).

The kernel search runs in one group alone.  For odd p every graph
symmetry acts on the p-torsion F_p^m as a signed permutation, and the
symmetries map onto the group W of signed permutations that permute each
run of equal components (_torsion_coordinates), so a kernel orbit is a
W-orbit, of size |W| / |Stab_W(K)|.  _stabilizer finds a kernel's
stabilizer in W along the chain of the subgroups that fix its greedy
basis vector by vector, and _least_kernel, pruning its branches by that
stabilizer, decides whether the kernel is the least of its W-orbit.
The group labels are read off vertex permutations
(rootsystems.identify_group).
admissible_kernels grows the least kernel of every orbit rank by rank:
the least lines first (_least_lines), then at each rank the children of
each representative P, split into Stab(P)-orbits by closure under the
stabilizer's generators, and kept when _least_kernel accepts them.  At
every rank an orbit whose least child holds a root is dropped
(rootsystems.root_code).  (Orbit-stabilizer and stabilizer chains:
Seress, Permutation Group Algorithms, 2003, ch. 4; Leon, Computing
automorphism groups of error-correcting codes, IEEE Trans. IT 28, 1982.)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Container, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .discrforms import (
    Subgroup,
    TorsionSpace,
    is_isotropic,
    kernel_perp,
    torsion_space,
    zero_sum_codes,
)
from .rootsystems import (
    MAX_RANK,
    ADEType,
    DynkinGraph,
    GraphSymmetry,
    Point,
    component_code_tables,
    graph_discr,
    identify_group,
    parse_singularities,
    print_singularities,
    root_code,
)


@dataclass(frozen=True)
class Configuration:
    graph: DynkinGraph
    kernel: Subgroup


def _check_rank(graph: DynkinGraph) -> None:
    # before any work on the discriminant form's elements
    if graph.rank > MAX_RANK:
        raise ValueError(f"total rank exceeds {MAX_RANK}")


def configuration(graph: DynkinGraph, kernel: Subgroup) -> Configuration:
    _check_rank(graph)
    form = graph_discr(graph)
    if not kernel.is_subgroup_of(form):
        raise ValueError("kernel is not a subgroup of the discriminant")
    if not is_isotropic(form, kernel):
        raise ValueError("kernel is not isotropic")
    if kernel.order() % 2 == 0:
        raise ValueError("kernel must have odd order")
    root = root_code(graph, kernel.codes)
    if root is not None:
        raise ValueError(f"kernel contains a root: its element {form.decode(root)} (code {root}) holds a vector of norm 2")
    return Configuration(graph, kernel)


# ---------------------------------------------------------------------------
# symmetry search

@lru_cache(maxsize=None)
def _options(graph: DynkinGraph) -> Tuple[Tuple[Tuple[int, Tuple[int, ...], Tuple[int, ...], int], ...], ...]:
    """For each component, every image (target, internal automorphism) in
    search order, targets ascending and automorphisms sorted, with the
    automorphism's code table and the target's block weight."""
    comps = graph.components
    weights = graph_discr(graph).block_weights
    return tuple(tuple((target, a, table, weights[target])
                       for target in range(len(comps)) if comps[target] == t
                       for a, table in component_code_tables(t).items())
                 for t in comps)


@dataclass(frozen=True)
class _Check:
    """s(z_j) in accept[j] for generators z_j of K-perp.  active[c] lists
    (j, block code of z_j in c) for the z_j supported on component c;
    due[c] lists (j, accept[j]) for those whose last supporting component
    is c; accept[j] is any container of codes."""

    size: int
    active: Tuple[Tuple[Tuple[int, int], ...], ...]
    due: Tuple[Tuple[Tuple[int, Container[int]], ...], ...]


def _check(graph: DynkinGraph, zgens: Sequence[int], accept: Sequence[Container[int]]) -> _Check:
    m = len(graph.components)
    active: List[List[Tuple[int, int]]] = [[] for _ in range(m)]
    due: List[List[Tuple[int, Container[int]]]] = [[] for _ in range(m)]
    for j, (z, ok) in enumerate(zip(zgens, accept)):
        row = graph_discr(graph).block_codes(z)
        support = [ci for ci, b in enumerate(row) if b]
        for ci in support:
            active[ci].append((j, row[ci]))
        due[support[-1]].append((j, ok))
    return _Check(len(zgens), tuple(map(tuple, active)), tuple(map(tuple, due)))


def _search_symmetries(graph: DynkinGraph, check: _Check) -> Iterator[GraphSymmetry]:
    """The graph symmetries that pass check, in ascending order.

    Backtracking assigns each component an image in turn (_options),
    with the partial image of each generator as a code; a generator is
    checked once the last component it is supported on has been assigned.
    """
    m = len(graph.components)
    options = _options(graph)
    active, due = check.active, check.due
    images: List[Point] = [(0, ())] * m
    used = [False] * m

    def descend(ci: int, image: List[int]) -> Iterator[GraphSymmetry]:
        if ci == m:
            yield GraphSymmetry(tuple(images))
            return
        for target, internal, table, w in options[ci]:
            if used[target]:
                continue
            nxt = image.copy()
            for j, b in active[ci]:
                nxt[j] += table[b] * w
            for j, ok in due[ci]:
                if nxt[j] not in ok:
                    break
            else:
                images[ci], used[target] = (target, internal), True
                yield from descend(ci + 1, nxt)
                used[target] = False

    try:
        yield from descend(0, [0] * check.size)
    finally:
        del descend  # it refers to itself: a cycle only the collector would free


# ---------------------------------------------------------------------------
# stable group report


@dataclass(frozen=True)
class StableGroupReport:
    elements: Tuple[GraphSymmetry, ...]
    order: int
    label: str
    kappa_order: int
    kappa_faithful: bool
    orbit_partition: Tuple[Tuple[int, ...], ...]


def _kappa_order(c: Configuration, elements: Sequence[GraphSymmetry]) -> int:
    """Order of the image of the symmetries in Aut(K): the number of
    distinct restrictions to the kernel, read on K's generators.  Each
    block code maps through its component's code table to the target's
    block, as in _search_symmetries."""
    form = graph_discr(c.graph)
    gens = [form.block_codes(x) for x in c.kernel.greedy_span[0]]
    tables = [component_code_tables(t) for t in c.graph.components]

    def restriction(s: GraphSymmetry) -> Tuple[int, ...]:
        return tuple(sum(table[internal][b] * form.block_weights[target]
                         for table, (target, internal), b in zip(tables, s.images, bs)) for bs in gens)

    return len({restriction(s) for s in elements})


def _component_orbits(c: Configuration, elements: Sequence[GraphSymmetry]) -> Tuple[Tuple[int, ...], ...]:
    """Orbits of the group `elements` (all of it) on the components: the
    orbit of a component is the set of its images."""
    orbits = {frozenset(s.images[i][0] for s in elements) for i in range(len(c.graph.components))}
    return tuple(sorted(tuple(sorted(o)) for o in orbits))


def sym_stable(c: Configuration) -> StableGroupReport:
    """The stable symmetries, in ascending order, and what they do."""
    form = graph_discr(c.graph)
    gens = kernel_perp(form, c.kernel)
    # z + K for each generator z, encoded from the vector sums
    kernel = c.kernel.elements
    cosets = [frozenset(form.encode([a + b for a, b in zip(z, k)]) for k in kernel) for z in map(form.decode, gens)]
    check = _check(c.graph, gens, cosets)
    els = list(_search_symmetries(c.graph, check))
    kappa_order = _kappa_order(c, els)
    return StableGroupReport(
        elements=tuple(els),
        order=len(els),
        label=identify_group(els),
        kappa_order=kappa_order,
        kappa_faithful=kappa_order == len(els),
        orbit_partition=_component_orbits(c, els),
    )


# ---------------------------------------------------------------------------
# kernel orbits


@dataclass(frozen=True)
class KernelOrbit:
    """An orbit of kernels: the configuration of its least kernel, and
    the number of kernels in it."""

    config: Configuration
    size: int


# A signed permutation of the torsion coordinates, (perm, signs): it moves
# coordinate k to coordinate perm[k] times signs[k] = +-1.
Signed = Tuple[Tuple[int, ...], Tuple[int, ...]]
# The same map w as its sources: entry j is (k, e) when (w v)[j] = e v[k].
Sources = Tuple[Tuple[int, int], ...]
Vector = Tuple[int, ...]
# A cut of the torsion coordinates: parts (start, end, signed), each a range
# of one run whose coordinates agree on every vector fixed so far; signed
# when those are all 0 there.  The signed permutations that fix those
# vectors permute each part, and flip signs on the signed parts only.
Cut = Tuple[Tuple[int, int, bool], ...]


@lru_cache(maxsize=None)
def _torsion_coordinates(graph: DynkinGraph, space: TorsionSpace) -> Tuple[Tuple[int, int, int], ...]:
    """For each coordinate of space: the component it lies in, that
    component's run of equal components, and the coordinate's block code.

    A component with p-torsion has one torsion coordinate; each of its
    automorphisms maps it to +-itself and some to -itself (read off
    component_code_tables, AssertionError otherwise).  So the graph
    symmetries act on F_p^m as the group W of signed permutations that
    permute each run of equal components: onto W, and a symmetry acting as
    the identity of W fixes every p-torsion element."""
    p, form = space.p, graph_discr(graph)
    run_of = [i for i, (_, run) in enumerate(itertools.groupby(graph.components)) for _ in run]
    out = []
    for b in space.basis_codes:
        # (p - 1) b is the code of -b; ci is the component b lies in
        plus, minus = form.block_codes(b), form.block_codes((p - 1) * b)
        ci = next(i for i, y in enumerate(plus) if y)
        t = graph.components[ci]
        images = {table[plus[ci]] for table in component_code_tables(t).values()}
        if not images <= {plus[ci], minus[ci]} or minus[ci] not in images:
            raise AssertionError(f"the automorphisms of {t.label()} do not act as +-1 on its {p}-torsion")
        out.append((ci, run_of[ci], plus[ci]))
    return tuple(out)


def _runs(coords: Sequence[Tuple[int, int, int]]) -> Tuple[List[int], int]:
    """The lengths of the runs of torsion coordinates (_torsion_coordinates),
    and the order of W, the product over them of 2^n n!."""
    runs = [len(list(run)) for _, run in itertools.groupby(run for _, run, _ in coords)]
    return runs, math.prod(2**n * math.factorial(n) for n in runs)


def _after(a: Sources, b: Sources) -> Sources:
    """a after b."""
    return tuple((b[k][0], e * b[k][1]) for k, e in a)


def _image(columns: Sequence[Tuple[Vector, Vector]], w: Sources) -> List[Vector]:
    """The vectors of wK, K given by each coordinate's column of digits
    over its vectors and that column negated."""
    return list(zip(*[columns[k][e < 0] for k, e in w]))


def _normal(v: Vector, cut: Cut, fold: Vector) -> Vector:
    """The least image of v under the group of cut: each part sorted, its
    digits x folded first to fold[x] = min(x, p - x) where it is signed."""
    out: List[int] = []
    for s, e, signed in cut:
        out += sorted(map(fold.__getitem__, v[s:e]) if signed else v[s:e])
    return tuple(out)


def _sorting(v: Vector, cut: Cut, fold: Vector) -> Sources:
    """An element of the group of cut that maps v to _normal(v, cut, fold)."""
    out: List[Tuple[int, int]] = []
    for s, e, signed in cut:
        key = (lambda k: fold[v[k]]) if signed else v.__getitem__
        out += [(k, 1 if key(k) == v[k] else -1) for k in sorted(range(s, e), key=key)]
    return tuple(out)


def _refine(cut: Cut, b: Vector) -> Cut:
    """The cut of the elements of cut's group that also fix b, b in its
    normal form: each part split into the runs of equal digits of b."""
    out = []
    for s, e, signed in cut:
        for d, part in itertools.groupby(range(s, e), key=b.__getitem__):
            part = list(part)
            out.append((part[0], part[-1] + 1, signed and not d))
    return tuple(out)


def _basis(row: Sequence, p: int) -> list:
    """The greedy basis of a kernel from its elements in ascending order:
    the elements at 1, p, p^2, ..."""
    return [row[p**i] for i in range(len(row).bit_length()) if p**i < len(row)]


def _orbit(v: Vector, gens: Sequence[Sources], p: int) -> Set[Vector]:
    orbit, todo = {v}, [v]
    while todo:
        x = todo.pop()
        for w in gens:
            image = tuple(e * x[k] % p for k, e in w)
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


def _stabilizer(p: int, vectors: Sequence[Vector], basis: Sequence[Vector], cuts: Sequence[Cut],
                spans: Sequence[Set[Vector]], columns: Sequence[Tuple[Vector, Vector]]) -> Tuple[int, List[Sources]]:
    """The order of Stab_W(K) and generators of it, read off K's vectors
    (ascending), its greedy basis b_1..b_r, the cuts and spans of b_1..b_i
    and its columns (_least_kernel), whether or not K is least.

    The search runs along the chain H_i = Stab_W(K) in the group of cut i
    (Leon, Computing automorphism groups of error-correcting codes, IEEE
    Trans. IT 28, 1982; Seress, Permutation Group Algorithms, 2003, ch. 4).
    H_r is the last cut's whole group, generated by the transposition of
    each part's first two coordinates, its cycle and, where it is signed,
    a sign flip; |H_(i-1)| = |H_(i-1) b_i| |H_i|.  The levels run from the
    last down; the generators found so far generate H_i, and each candidate
    image u of b_i outside the orbit they reach is searched for once, up to
    the first element of H_(i-1) that maps u to b_i: depth first through the
    images wK with w u = b_i that hold b_1..b_j, j = i, ..., r, which hold
    all of K at the last level.  A failed search rules out the orbit of u
    under the generators found so far.
    """
    rank, fold = len(basis), tuple(min(x, p - x) for x in range(p))
    identity = tuple((k, 1) for k in range(len(vectors[0])))
    gens, order = [], 1
    for s, e, signed in cuts[-1]:
        order *= math.factorial(e - s) * (2 ** (e - s) if signed else 1)
        if e - s > 1:
            gens.append(identity[:s] + ((s + 1, 1), (s, 1)) + identity[s + 2:])
        if e - s > 2:
            gens.append(identity[:s] + identity[s + 1:e] + ((s, 1),) + identity[e:])
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
                ruled_out |= _orbit(u, gens, p)
            else:
                gens.append(found)
                orbit = _orbit(basis[i], gens, p)
        order *= len(orbit)
    return order, gens


def _least_kernel(p: int, runs: Sequence[int], vectors: Sequence[Vector]) -> Optional[Tuple[int, List[Signed]]]:
    """None unless the kernel K is the least of its orbit under W; else the
    order of Stab_W(K) and generators of it (_stabilizer).  runs are the
    lengths of the runs of coordinates, and vectors K's vectors in
    ascending order.

    Kernels compare as their greedy bases b_1 < b_2 < ... do, b_i =
    vectors[p^(i-1)], and the w in W that fix b_1..b_i form the group of a
    cut (Cut).  K is least iff no image wK whose first i basis vectors are
    b_1..b_i holds a vector outside their span whose least image under that
    cut's group (_normal) is below b_(i+1); those whose least image is
    b_(i+1) give the branches of the next level, breadth first, one per
    distinct image.

    The stabilizer comes first and prunes the first level to one branch per
    Stab_W(K)-orbit of vectors (McKay, Practical graph isomorphism, Congr.
    Numer. 30, 1981).  For g in Stab_W(K), with s_x the element of W that
    sorts x (_sorting), s_(gv) g s_v^-1 fixes b_1, so the branches of v and
    gv differ by an element of the first cut's group, under which every
    later test reads the same least images: they give the same verdict.
    The first level's _normal is W-invariant, so a refusal by v holds for
    its orbit too.  The orbit is found only for a v that opens a branch, at
    rank >= 2; -v is in it, as -1 is in W and keeps every kernel.  When K
    is not least the stabilizer was found for nothing; admissible_kernels
    never hands over such a K on the p-torsion essential sets of rank at
    most 19, as its hyperplane test and Stab(P)-orbit split leave one child
    per orbit.
    """
    basis, m = _basis(vectors, p), sum(runs)
    rank, fold = len(basis), tuple(min(x, p - x) for x in range(p))
    spans = [set(vectors[:p**i]) for i in range(rank)]
    columns = [(col, tuple(-y % p for y in col)) for col in zip(*vectors)]
    cuts = [tuple((start, start + n, True) for start, n in zip(itertools.accumulate([0, *runs]), runs))]
    for b in basis:
        cuts.append(_refine(cuts[-1], b))
    order, gens = _stabilizer(p, vectors, basis, cuts, spans, columns)
    branches, opened = {frozenset(vectors): tuple((k, 1) for k in range(m))}, set()
    for i, (b, cut, span) in enumerate(zip(basis, cuts, spans)):
        nxt = {}
        for kernel, w in branches.items():
            for v in kernel:
                if v in span or not i and (next(filter(None, v)) > p // 2 or v in opened):
                    continue
                u = _normal(v, cut, fold)
                if u < b:
                    return None
                if u == b and i + 1 < rank:
                    if not i:
                        opened |= _orbit(v, gens, p)
                    image = _after(_sorting(v, cut, fold), w)
                    nxt.setdefault(frozenset(_image(columns, image)), image)
        branches = nxt
    # as (perm, signs): the targets j and signs e of the sources k, by k
    return order, [tuple(zip(*sorted((k, j, e) for j, (k, e) in enumerate(w))))[1:] for w in gens]


def _least_lines(space: TorsionSpace, coords: Sequence[Tuple[int, int, int]]
                 ) -> Iterator[Tuple[Tuple[int, ...], int, List[Signed]]]:
    """The least isotropic line of each orbit of lines of space under the
    graph symmetries, as its sorted codes, with its orbit size and
    generators of its stabilizer in W; coords is _torsion_coordinates.

    Codes ascend as coordinate vectors do, so an orbit's least line is
    spanned by its least vector, which is least in its own W-orbit: sorted
    in each run, of digits 0..(p-1)/2.  Each line spanned by such a vector,
    as its least vector, is kept if _least_kernel finds it least, and its
    orbit has |W| / |Stab_W| lines.
    """
    p, half = space.p, space.p // 2
    runs, order = _runs(coords)
    diag = [row[k] for k, row in enumerate(space.bmat)]
    for parts in itertools.product(*(itertools.combinations_with_replacement(range(half + 1), n) for n in runs)):
        v = sum(parts, ())
        if not any(v) or sum(d * y * y for d, y in zip(diag, v)) % p:
            continue
        line = sorted(tuple(c * y % p for y in v) for c in range(p))
        found = line[1] == v and _least_kernel(p, runs, line)
        if found:
            yield tuple(sum(y * b for y, b in zip(x, space.basis_codes)) for x in line), order // found[0], found[1]


def admissible_kernels(graph: DynkinGraph, p: Optional[int], rank: int) -> List[KernelOrbit]:
    """Isotropic root-free (Z_p)^rank kernels with full component
    support, grouped into orbits under the graph symmetry group, each
    orbit given by the configuration of its least kernel (sorted codes
    compared lexicographically) and listed in order of it, and sized |W|
    over the order of that kernel's stabilizer in the group W of signed
    permutations (_torsion_coordinates).  rank 0 means K = 0.

    Level r holds the least kernel of every orbit of isotropic root-free
    rank-r subspaces (full support is required at the last rank only), as
    its sorted codes, with its orbit size and its stabilizer's generators
    in W; level 1 is _least_lines.  For r >= 2, the first p^(r-1) codes of
    a kernel's sorted row span its least hyperplane, and an orbit's least
    kernel has a least hyperplane that is least in its own orbit, so it is
    a child of a level r-1 representative P, and the least member of its
    Stab(P)-orbit of children there.  Among the children of one P, rows
    order as their least codes outside P do.  A child is kept if its least
    hyperplane is P and _least_kernel finds it least in its W-orbit.  Every
    subgroup of a root-free kernel is root-free, and every symmetry keeps
    root-freeness, so a child with a root is dropped, with its orbit, at
    every rank.  Only the kept orbits are built as Configurations.
    """
    _check_rank(graph)
    if rank and p is None:
        raise ValueError("a kernel of positive rank needs a prime p")
    form = graph_discr(graph)
    if not rank:
        return [KernelOrbit(configuration(graph, Subgroup.trivial(form)), 1)]
    space = torsion_space(form, p)
    coords = _torsion_coordinates(graph, space)
    runs, order = _runs(coords)

    def child_orbits(parent: Tuple[int, ...], gens: Sequence[Signed]) -> Iterator[Tuple[int, ...]]:
        """The least child's sorted codes in each Stab(parent)-orbit of
        children, gens generating the stabilizer in W.

        The children's codes outside P are the isotropic v orthogonal to P.
        bmat is diagonal (TorsionSpace), so 2q(v) and p b(v, g) add over the
        torsion coordinates, and zero_sum_codes lists those v ascending, by
        torsion index.  The first one not yet marked is the least code of its
        child P + <v>, whose codes c v + w (0 < c < p, w in P) are then read
        off affine_tables and marked; c = 1, w = 0 comes first.  A
        generator's image of v is read off its signed_tables.  P's greedy
        basis is the codes at 1, p, p^2, ... of its sorted row.
        """
        m, pgens = len(space.basis_codes), _basis(parent, p)
        choices = [[(c * p ** (m - 1 - k), (c * c * row[k] % p, *(c * row[k] * (g // b) % p for g in pgens)))
                    for c in range(p)] for k, (b, row) in enumerate(zip(space.basis_codes, space.bmat))]
        maps = [space.affine_tables(c, w) for c in range(1, p) for w in parent]
        (hi, lo), n = maps[0], len(maps[0][1])
        child_of, ids = dict.fromkeys(parent), []
        for i in zero_sum_codes(choices, p):
            if hi[i // n] + lo[i % n] not in child_of:
                child_of.update(dict.fromkeys((h[i // n] + l[i % n] for h, l in maps), len(ids)))
                ids.append(i)
        images = [[child_of[h[i // n] + l[i % n]] for i in ids] for h, l in (space.signed_tables(*w) for w in gens)]
        seen: Set[int] = set()
        for first, i in enumerate(ids):
            if first not in seen:
                frontier = {first}
                while frontier:
                    seen |= frontier
                    frontier = {img[j] for j in frontier for img in images} - seen
                yield tuple(sorted([*parent, *(h[i // n] + l[i % n] for h, l in maps)]))

    def admissible(row: Tuple[int, ...], r: int) -> bool:
        # root-free at every rank, one row deciding its Stab(P)-orbit; full
        # support at the last rank: each block has a nonzero code in the row
        return root_code(graph, row) is None and (r < rank or all(map(any, zip(*map(form.block_codes, row)))))

    level = [(row, size, gens) for row, size, gens in sorted(_least_lines(space, coords)) if admissible(row, 1)]
    for r in range(2, rank + 1):
        kept = []
        for parent, _, gens in level:
            for row in child_orbits(parent, gens):
                if row[:len(parent)] == parent and admissible(row, r):
                    found = _least_kernel(p, runs, [tuple(x // b % p for b in space.basis_codes) for x in row])
                    if found:
                        kept.append((row, order // found[0], found[1]))
        level = sorted(kept)
    return [KernelOrbit(configuration(graph, Subgroup(form, row)), size) for row, size, _ in level]


# ---------------------------------------------------------------------------
# candidate families and the classifier


def torus_candidates() -> List[DynkinGraph]:
    """All essential sets sum k_i A_{3i-1} + l E6 with sum(i k_i) + 2l = 6."""
    out = []
    for l in range(4):
        w = 6 - 2 * l
        for part in _partitions(w):
            comps = [ADEType("E", 6)] * l + [ADEType("A", 3 * i - 1) for i in part]
            comps.sort(key=lambda t: (0 if t.family == "E" else 1, -t.rank))
            out.append(DynkinGraph(tuple(comps)))
    out.sort(key=lambda g: print_singularities(g))
    return out


def _partitions(n: int, largest: Optional[int] = None) -> Iterable[Tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    if largest is None:
        largest = n
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


@dataclass(frozen=True)
class ClassificationRow:
    kernel_orbit: Tuple[Tuple[int, ...], ...]  # generators of the representative
    orbit_size: int
    report: StableGroupReport
    matches_expected: bool


@dataclass(frozen=True)
class FamilyVerdict:
    singularities: str
    family_tag: str
    expected_label: str
    rows: Tuple[ClassificationRow, ...]
    matches_theorem: bool  # there is a kernel orbit, and every one realizes the expected group


def classify_family(singularities: str, family_tag: str, kernel_spec, expected_label: str) -> FamilyVerdict:
    graph = parse_singularities(singularities)
    rows = []
    for orb in admissible_kernels(graph, *kernel_spec):
        rep = sym_stable(orb.config)
        rows.append(
            ClassificationRow(
                kernel_orbit=tuple(orb.config.kernel.generators()),
                orbit_size=orb.size,
                report=rep,
                matches_expected=rep.label == expected_label,
            )
        )
    return FamilyVerdict(
        singularities=print_singularities(graph),
        family_tag=family_tag,
        expected_label=expected_label,
        rows=tuple(rows),
        matches_theorem=bool(rows) and all(r.matches_expected for r in rows),
    )


def classify_catalog(families=None) -> List[FamilyVerdict]:
    """Classify every candidate family; families defaults to the full catalog."""
    from .catalog import families as catalog_families

    return [classify_family(f.essential, f.tag, f.kernel_spec, f.expected_group)
            for f in (catalog_families() if families is None else families)]
