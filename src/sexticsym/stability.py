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
checked once the last component it is supported on has been assigned,
before the partial images are copied, so the prune is the same as
checking all of K-perp.  As K lies in K-perp, the same check on K's
generators drops no stable symmetry, and their images give kappa, the
group's image in Aut(K): one backtrack, _search_symmetries, off
rootsystems.symmetry_tables, gives both (sym_stable).

The kernel search runs in one group alone.  For odd p every graph
symmetry acts on the p-torsion F_p^m as a signed permutation, and the
symmetries map onto the group W of signed permutations that permute each
run of equal components (_torsion_coordinates), so a kernel orbit is a
W-orbit, of size |W| / |Stab_W(K)|.  _stabilizer finds a kernel's
stabilizer in W along the chain of the subgroups that fix its greedy
basis vector by vector, each the group of a cut (_cuts).  The group
labels follow one rule on the order, commutativity and element orders of
the vertex permutations (rootsystems.identify_group).
admissible_kernels grows the least kernel of every orbit rank by rank:
the least lines first (_least_lines), then for each representative P the
least child of each Stab(P)-orbit, read off P's cut (_child_orbits), kept
if its least hyperplane is P.  No second test asks whether a kept kernel
is the least of its W-orbit: that it always is, on every graph of rank at
most 19 and odd prime p, is certified over that finite domain.
At every rank an orbit whose least row holds a root is dropped
(rootsystems.root_code) before its stabilizer is found.
(Orbit-stabilizer and stabilizer chains: Seress, Permutation Group
Algorithms, 2003, ch. 4; Leon, Computing automorphism groups of
error-correcting codes, IEEE Trans. IT 28, 1982.)
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Container, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .discrforms import (
    Subgroup,
    TorsionSpace,
    is_isotropic,
    kernel_perp,
    torsion_space,
    zero_sum_codes,
)
from .exactcore import orbits
from .rootsystems import (
    DynkinGraph,
    GraphSymmetry,
    Point,
    component_code_tables,
    graph_discr,
    identify_group,
    parse_singularities,
    print_singularities,
    root_code,
    symmetry_tables,
)


class Configuration(NamedTuple):
    graph: DynkinGraph
    kernel: Subgroup


def configuration(graph: DynkinGraph, kernel: Subgroup) -> Configuration:
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

def _search_symmetries(graph: DynkinGraph, zgens: Sequence[int], accept: Sequence[Container[int]]
                       ) -> Iterator[Tuple[GraphSymmetry, Tuple[int, ...]]]:
    """The graph symmetries s with s(z_j) in accept[j] (any container of
    codes) for every z_j in zgens, ascending, each with the s(z_j) codes.

    Backtracking assigns each component an image point in turn, in the
    order of symmetry_tables, whose tables add up the partial image of each
    generator as a code; a generator is checked once the last component it
    is supported on has been assigned, before the partial images are copied.
    active[c] lists (j, block code of z_j in c) for the z_j supported on
    component c, and due[c] lists (j, block code, accept[j]) for those whose
    last supporting component is c.
    """
    m, form, options = len(graph.components), graph_discr(graph), symmetry_tables(graph)
    active: List[List[Tuple[int, int]]] = [[] for _ in range(m)]
    due: List[List[Tuple[int, int, Container[int]]]] = [[] for _ in range(m)]
    for j, (z, ok) in enumerate(zip(zgens, accept)):
        row = form.block_codes(z)
        support = [ci for ci, b in enumerate(row) if b]
        for ci in support:
            active[ci].append((j, row[ci]))
        due[support[-1]].append((j, row[support[-1]], ok))
    points: List[Point] = [(0, ())] * m
    used = [False] * m

    def descend(ci: int, image: List[int]) -> Iterator[Tuple[GraphSymmetry, Tuple[int, ...]]]:
        if ci == m:
            yield GraphSymmetry(tuple(points)), tuple(image)
            return
        for point, table in options[ci].items():
            target = point[0]
            if used[target]:
                continue
            for j, b, ok in due[ci]:
                if image[j] + table[b] not in ok:
                    break
            else:
                nxt = image.copy()
                for j, b in active[ci]:
                    nxt[j] += table[b]
                points[ci], used[target] = point, True
                yield from descend(ci + 1, nxt)
                used[target] = False

    try:
        yield from descend(0, [0] * len(zgens))
    finally:
        del descend  # it refers to itself: a cycle only the collector would free


# ---------------------------------------------------------------------------
# stable group report


class StableGroupReport(NamedTuple):
    elements: Tuple[GraphSymmetry, ...]
    order: int
    label: str
    kappa_order: int
    kappa_faithful: bool
    orbit_partition: Tuple[Tuple[int, ...], ...]


def _component_orbits(c: Configuration, elements: Sequence[GraphSymmetry]) -> Tuple[Tuple[int, ...], ...]:
    """Orbits of the group `elements` on the components, each sorted."""
    moves = [[target for target, _ in s.images] for s in elements]
    return tuple(tuple(sorted(o)) for o in orbits(len(c.graph.components), moves))


def sym_stable(c: Configuration) -> StableGroupReport:
    """The stable symmetries, in ascending order, and what they do; kappa's
    order is the number of distinct images of K's generators."""
    form, kernel = graph_discr(c.graph), c.kernel.elements
    perp = kernel_perp(form, c.kernel)
    gens = [*perp, *c.kernel.greedy_span[0]]
    # z + K for each generator z, K-perp's and then K's, encoded from the vector sums
    cosets = [frozenset(form.encode([a + b for a, b in zip(z, k)]) for k in kernel) for z in map(form.decode, gens)]
    els, images = zip(*_search_symmetries(c.graph, gens, cosets))  # never empty: the identity is stable
    kappa_order = len({im[len(perp):] for im in images})
    return StableGroupReport(
        elements=els,
        order=len(els),
        label=identify_group(els),
        kappa_order=kappa_order,
        kappa_faithful=kappa_order == len(els),
        orbit_partition=_component_orbits(c, els),
    )


# ---------------------------------------------------------------------------
# kernel orbits


class KernelOrbit(NamedTuple):
    """An orbit of kernels: the configuration of its least kernel, and
    the number of kernels in it."""

    config: Configuration
    size: int


# A signed permutation w of the torsion coordinates, the one form of W's
# elements, as its sources: entry j is (k, e) when (w v)[j] = e v[k], e = +-1.
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
    component's run of equal components (consecutive, as DynkinGraph sorts
    its components), and the coordinate's block code.

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


def _normal(v: Sequence[int], cut: Cut, fold: Vector) -> Vector:
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


def _cuts(runs: Sequence[int], basis: Sequence[Vector]) -> List[Cut]:
    """Cut 0, one signed part per run of coordinates, and cut i, cut i - 1
    refined by b_i (_refine), for a least kernel's greedy basis b_1, b_2, ..."""
    first = tuple((start, start + n, True) for start, n in zip(itertools.accumulate([0, *runs]), runs))
    return list(itertools.accumulate(basis, _refine, initial=first))


def _basis(row: Sequence, p: int) -> list:
    """The greedy basis of a kernel from its elements in ascending order:
    the elements at 1, p, p^2, ..."""
    return [row[p**i] for i in range(len(row).bit_length()) if p**i < len(row)]


def _stabilizer(p: int, runs: Sequence[int], vectors: Sequence[Vector]) -> Tuple[int, List[Sources]]:
    """The order of Stab_W(K) and generators of it; runs are the lengths of
    the runs of coordinates, and vectors K's vectors in ascending order.

    K's greedy basis is b_1 < b_2 < ..., b_i = vectors[p^(i-1)], and the w
    in W that fix b_1..b_i form the group of a cut (Cut), cut i, when each
    b_i is the least image of itself under cut i-1's group (_normal), as in
    a least kernel; for another K the result is wrong.  The search runs
    along the chain H_i = Stab_W(K) in the group of cut i (Leon, Computing
    automorphism groups of error-correcting codes, IEEE Trans. IT 28, 1982;
    Seress, Permutation Group Algorithms, 2003, ch. 4).  H_r is the last
    cut's whole group, generated by the transposition of each part's first
    two coordinates, its cycle and, where it is signed, a sign flip;
    |H_(i-1)| = |H_(i-1) b_i| |H_i|.  The levels run from the last down; the
    generators found so far generate H_i, and each candidate image u of b_i
    outside the orbit they reach is searched for once, up to the first
    element of H_(i-1) that maps u to b_i: depth first through the images wK
    with w u = b_i that hold b_1..b_j, j = i, ..., r, which hold all of K at
    the last level.  A failed search rules out the orbit of u under the
    generators found so far.  Each generator permutes K's vectors, held by
    index, and every orbit is read off exactcore.orbits.
    """
    basis, fold = _basis(vectors, p), tuple(min(x, p - x) for x in range(p))
    rank, identity = len(basis), tuple((k, 1) for k in range(sum(runs)))
    spans = [set(vectors[:p**i]) for i in range(rank)]
    columns = [(col, tuple(-y % p for y in col)) for col in zip(*vectors)]
    cuts = _cuts(runs, basis)
    gens, order = [], 1
    for s, e, signed in cuts[-1]:
        order *= math.factorial(e - s) * (2 ** (e - s) if signed else 1)
        if e - s > 1:
            gens.append(identity[:s] + ((s + 1, 1), (s, 1)) + identity[s + 2:])
        if e - s > 2:
            gens.append(identity[:s] + identity[s + 1:e] + ((s, 1),) + identity[e:])
        if signed:
            gens.append(identity[:s] + ((s, -1),) + identity[s + 1:])
    index = {v: t for t, v in enumerate(vectors)}
    perms = [[index[v] for v in _image(columns, w)] for w in gens]

    def orbit(t: int) -> List[int]:
        return next(o for o in orbits(len(vectors), perms) if t in o)

    for i in reversed(range(rank)):
        seen = set(orbit(p**i))  # b_i's orbit, and each orbit ruled out
        for t, u in enumerate(vectors):
            if t in seen or u in spans[i] or _normal(u, cuts[i], fold) != basis[i]:
                continue
            stack, found = [(i + 1, _sorting(u, cuts[i], fold))], None
            while stack and found is None:
                j, w = stack.pop()
                if j == rank:
                    found = w
                else:
                    stack += [(j + 1, _after(_sorting(v, cuts[j], fold), w)) for v in _image(columns, w)
                              if v not in spans[j] and _normal(v, cuts[j], fold) == basis[j]]
            if found is not None:
                gens.append(found)
                perms.append([index[v] for v in _image(columns, found)])
            seen.update(orbit(t))
        order *= len(orbit(p**i))
    return order, gens


def _least_lines(space: TorsionSpace, runs: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """The least isotropic line of each orbit of lines of space under the
    graph symmetries, as its sorted codes, in ascending order; runs are the
    lengths of the runs of torsion coordinates (_runs).

    Codes ascend as coordinate vectors do, so an orbit's least line is
    spanned by its least vector, which is least in its own W-orbit: sorted
    in each run, of digits 0..(p-1)/2.  Each line spanned by such a vector,
    as its least vector, is kept (one per orbit on every input the program
    takes: admissible_kernels).  Rank 1 keeps this generator of its own:
    the lines are also _child_orbits of K = 0, with the same reports, but
    there H is W and every line's normals are marked, and admissible_kernels
    took 26-45% longer on each rank-1 catalog family that way (medians of
    30 calls, on a 2-core x86-64 VM).
    """
    p, half = space.p, space.p // 2
    diag = [row[k] for k, row in enumerate(space.bmat)]
    for parts in itertools.product(*(itertools.combinations_with_replacement(range(half + 1), n) for n in runs)):
        v = sum(parts, ())
        if not any(v) or sum(d * y * y for d, y in zip(diag, v)) % p:
            continue
        line = sorted(tuple(c * y % p for y in v) for c in range(p))
        if line[1] == v:
            yield tuple(sum(y * b for y, b in zip(x, space.basis_codes)) for x in line)


def _child_orbits(space: TorsionSpace, runs: Sequence[int], parent: Tuple[int, ...], gens: Sequence[Sources]
                  ) -> Iterator[Tuple[int, ...]]:
    """The least child's sorted codes in each Stab(P)-orbit of children P +
    <v> of a least kernel P (sorted codes parent), gens generating Stab_W(P).

    The group H of P's last cut (_cuts) fixes P pointwise, so Stab(P)
    permutes the H-classes of children.  A class's least vector u, the least
    _normal of the outside vectors c v + w (0 < c < p, w in P) of a child,
    is cut-normal: only the cut-normal isotropic v orthogonal to P are
    listed (zero_sum_codes), one sorted multiset of digits per part,
    0..(p-1)/2 where signed, keyed by its share of 2q(v) and p b(v, b_i)
    (bmat is diagonal, constant on each run, and each b_i on each part).
    Ascending, the first one not yet marked is a class's u, and the normals
    of P + <u>'s outside vectors are marked as its class.  A generator
    outside H maps it to the class marked at its image of u's normal, and
    each orbit (exactcore.orbits) starts at its least class: P + <u> is the
    orbit's least child."""
    p, codes, bmat = space.p, space.basis_codes, space.bmat
    vectors = [tuple(x // b % p for b in codes) for x in parent]
    basis, fold = _basis(vectors, p), tuple(min(x, p - x) for x in range(p))
    cut = _cuts(runs, basis)[-1]
    choices = [[(sum(map(int.__mul__, ds, codes[s:e])),
                 (sum(d * d for d in ds) * bmat[s][s] % p, *(sum(ds) * bmat[s][s] * b[s] % p for b in basis)))
                for ds in itertools.combinations_with_replacement(range(p // 2 + 1 if signed else p), e - s)]
               for s, e, signed in cut]
    class_of, reps = dict.fromkeys(vectors), []  # P's vectors, then each class's normals
    for x in zero_sum_codes(choices, p):
        v = tuple([x // b % p for b in codes])  # a tuple built from a generator is resized, and grows a free list
        if v not in class_of:
            class_of.update(dict.fromkeys((_normal([(c * a + b) % p for a, b in zip(v, w)], cut, fold)
                                           for c in range(1, p) for w in vectors), len(reps)))
            reps.append(v)
    moves = [w for w in gens if any(e * b[k] % p != b[j] for b in basis for j, (k, e) in enumerate(w))]  # outside H
    images = [[class_of[_normal([e * v[k] % p for k, e in w], cut, fold)] for v in reps] for w in moves]
    for u in (reps[orbit[0]] for orbit in orbits(len(reps), images)):
        yield tuple(sorted([*parent, *(sum((c * a + b) % p * y for a, b, y in zip(u, w, codes))
                                       for c in range(1, p) for w in vectors)]))


def admissible_kernels(graph: DynkinGraph, p: Optional[int], rank: int) -> List[KernelOrbit]:
    """Isotropic root-free (Z_p)^rank kernels with full component
    support, grouped into orbits under the graph symmetry group, each
    orbit given by the configuration of its least kernel (sorted codes
    compared lexicographically) and listed in order of it, and sized |W|
    over the order of that kernel's stabilizer in the group W of signed
    permutations (_torsion_coordinates).  rank 0 means K = 0, and p, when
    given, must be an odd prime.

    Level r holds the least kernel of every orbit of isotropic root-free
    rank-r subspaces (full support is required at the last rank only), as
    its sorted codes, with its orbit size and its stabilizer's generators
    in W.  Every rank's candidate rows, the lines of _least_lines at rank 1
    and the children (_child_orbits) after it, take the same step:
    admissible, then kept, so _stabilizer runs once per kept row.  For r >=
    2, the first p^(r-1) codes of a kernel's sorted row span its least
    hyperplane, and an orbit's least kernel has a least hyperplane that is
    least in its own orbit, so it is a child of a level r-1 representative
    P, and the least member of its Stab(P)-orbit of children there.  Among
    the children of one P, rows order as their least codes outside P do.
    A child is kept if its least hyperplane is P (McKay, Isomorph-free
    exhaustive generation, J. Algorithms 26, 1998).  Every subgroup of a
    root-free kernel is root-free, and every symmetry keeps root-freeness,
    so a child with a root is dropped, with its orbit, at every rank.  Only
    the kept orbits are built as Configurations.

    That the hyperplane test and the Stab(P) split (for lines, the
    least-vector test) keep least kernels alone is certified, not proved,
    over every graph of rank at most 19 and odd prime p
    (tests/test_kernel_runs.py):
    - the unpruned least test (helpers.least_kernel_breadth_first) accepts
      every kernel that the 315 runs of helpers.torsion_runs, every multiset
      of TORSION_COMPONENTS[p], hand to _stabilizer;
    - a component without p-torsion adds no torsion coordinate and no
      root, and fails full support;
    - A19 at p = 5 and A10, A12, A16, A18 at p = 11, 13, 17, 19, the other
      components with p-torsion, leave no room for a second one and have a
      1-dimensional nondegenerate p-torsion: no isotropic line.
    """
    if rank < 0:
        raise ValueError(f"a kernel's rank is at least 0, not {rank}")
    if (rank or p is not None) and (p is None or p < 3 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1))):
        raise ValueError(f"p must be an odd prime, not {p}")
    form = graph_discr(graph)
    if not rank:
        return [KernelOrbit(configuration(graph, Subgroup.trivial(form)), 1)]
    space = torsion_space(form, p)
    runs, order = _runs(_torsion_coordinates(graph, space))

    def admissible(row: Tuple[int, ...], r: int) -> bool:
        # root-free at every rank, one row deciding its Stab(P)-orbit; full
        # support at the last rank: each block has a nonzero code in the row
        return root_code(graph, row) is None and (r < rank or all(map(any, zip(*map(form.block_codes, row)))))

    def kept(row: Tuple[int, ...]) -> Tuple[Tuple[int, ...], int, List[Sources]]:
        stab, gens = _stabilizer(p, runs, [tuple(x // b % p for b in space.basis_codes) for x in row])
        return row, order // stab, gens

    level = sorted(kept(row) for row in _least_lines(space, runs) if admissible(row, 1))
    for r in range(2, rank + 1):
        level = sorted(kept(row) for parent, _, gens in level for row in _child_orbits(space, runs, parent, gens)
                       if row[:len(parent)] == parent and admissible(row, r))
    return [KernelOrbit(configuration(graph, Subgroup(form, row)), size) for row, size, _ in level]


# ---------------------------------------------------------------------------
# the classifier


class ClassificationRow(NamedTuple):
    kernel_orbit: Tuple[Tuple[int, ...], ...]  # generators of the representative
    orbit_size: int
    report: StableGroupReport
    matches_expected: bool


class FamilyVerdict(NamedTuple):
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


def classify_catalog(families) -> List[FamilyVerdict]:
    """Classify each candidate family (catalog.SexticFamily rows)."""
    return [classify_family(f.essential, f.tag, f.kernel_spec, f.expected_group) for f in families]
