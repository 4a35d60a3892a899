"""Configurations (Dynkin graph, isotropic kernel) and their stable
symmetry groups.

A kernel K is an odd isotropic subgroup of the discriminant form whose
classes hold no root (a vector of norm 2) of the overlattice.  A
symmetry s is admissible when discr(s) preserves K; it is stable when in
addition discr(s) acts identically on K-perp/K.  Kernels are Subgroups
(sorted element codes) and discr(s) is a code table, so both are
conditions on the element codes of K-perp.  discr(s) is an isometry, so
it preserves K iff it maps K-perp into K-perp; it is stable iff s(z)
lies in z + K for every z in K-perp.  Each z has its container of
accepted images: K-perp itself (a membership test, discrforms.Perp, that
never lists K-perp), or the set z + K.

Each condition is linear in z, so the search checks it only on a
generating set of K-perp (Perp.generators) chosen so that, for every
component i, the generators supported on components 0..i generate every
element of K-perp supported there.  A generator is checked as soon as
the last component it is supported on has been assigned, when its image
is complete, so the prune is the same as checking all of K-perp.  One
backtrack, _search_symmetries, serves three uses: every stable symmetry
(sym_stable), the stabilizer of K as generators along a stabilizer chain
plus its order (sym_config), and whether a symmetry maps one kernel onto
another, which maps K1-perp into K2-perp.

Kernel orbits are built orbit-first on representatives only
(admissible_kernels), in one loop over the ranks.  Rank 1 is closed-form:
for odd p every graph symmetry acts on the p-torsion F_p^m as a signed
permutation, so the least line of each orbit is read off its least
vector (_least_lines).  At each higher rank the children of a
representative P are the subspaces P + <v> for isotropic v in P-perp
outside P, split into Stab(P)-orbits by closure under the stabilizer's
generators.  At every rank an orbit whose least child holds a root is
dropped (rootsystems.root_code), and children of different parents are
merged by the kernel isomorphism search, tried only between kernels with
one symmetry_invariant; the stabilizer is computed once per kept orbit.
Every orbit's size is |Sym| over the order of its representative's
stabilizer (orbit-stabilizer; Seress, Permutation Group Algorithms,
2003, ch. 4 and 9; McKay, Isomorph-free exhaustive generation,
J. Algorithms 26, 1998).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Container, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .discrforms import (
    Perp,
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
    SymmetryGroup,
    component_code_tables,
    discr_action,
    graph_discr,
    graph_symmetries,
    parse_singularities,
    print_singularities,
    root_code,
    symmetry_invariant,
)


@dataclass(frozen=True)
class Configuration:
    graph: DynkinGraph
    kernel: Subgroup

    @cached_property
    def perp(self) -> Perp:
        """K-perp as a membership test, refused for a degenerate form."""
        return kernel_perp(graph_discr(self.graph), self.kernel)


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


def _search_symmetries(graph: DynkinGraph, check: _Check, prefix: Sequence[Point] = ()) -> Iterator[GraphSymmetry]:
    """The graph symmetries that pass check, in ascending order, with
    component c mapped to prefix[c] for c < len(prefix).

    Backtracking assigns each component an image in turn (_options),
    with the partial image of each generator as a code; a generator is
    checked once the last component it is supported on has been assigned.
    """
    m = len(graph.components)
    options = list(_options(graph))
    for ci, point in enumerate(prefix):
        options[ci] = [o for o in options[ci] if o[:2] == point]
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


def _point_orbit(point: Point, gens: Sequence[GraphSymmetry]) -> Set[Point]:
    orbit, todo = {point}, [point]
    while todo:
        x = todo.pop()
        for g in gens:
            image = g.image(x)
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


def sym_config(c: Configuration) -> SymmetryGroup:
    """The graph symmetries whose discriminant action preserves the
    kernel, as generators along a stabilizer chain plus the group order.

    H_i is the group of those that map components 0..i-1 identically onto
    themselves, so |H_i| = |H_i-orbit of the identical image of component
    i| * |H_{i+1}|.  The levels run from the last component down; the
    generators found so far generate H_{i+1}, and each image of component
    i outside the orbit they reach is searched for once, up to the first
    symmetry in H_i that realizes it.  A failed search rules out the whole
    orbit of that image under the generators found so far.
    """
    graph = c.graph
    comps = graph.components
    gens = c.perp.generators
    check = _check(graph, gens, [c.perp] * len(gens))
    found: List[GraphSymmetry] = []
    identity = [(i, tuple(range(t.rank))) for i, t in enumerate(comps)]
    order = 1
    for i in reversed(range(len(comps))):
        orbit, ruled_out = {identity[i]}, set()
        for x in [o[:2] for o in _options(graph)[i] if o[0] >= i]:
            if x in orbit or x in ruled_out:
                continue
            s = next(_search_symmetries(graph, check, identity[:i] + [x]), None)
            if s is None:
                ruled_out |= _point_orbit(x, found)
            else:
                found.append(s)
                orbit = _point_orbit(identity[i], found)
        order *= len(orbit)
    return SymmetryGroup(tuple(found), order)


def _isomorphic(a: Configuration, b: Configuration) -> bool:
    """Whether some graph symmetry maps a's kernel onto b's, that is,
    a's K-perp into b's."""
    gens = a.perp.generators
    check = _check(a.graph, gens, [b.perp] * len(gens))
    return next(_search_symmetries(a.graph, check), None) is not None


# ---------------------------------------------------------------------------
# group identification


def _element_orders(elements: Sequence[GraphSymmetry]) -> List[int]:
    out = []
    for s in elements:
        t, n = s, 1
        while not t.is_identity():
            t = s.compose(t)
            n += 1
        out.append(n)
    return out


def _is_abelian(elements: Sequence[GraphSymmetry]) -> bool:
    return all(
        a.compose(b) == b.compose(a)
        for a, b in itertools.combinations(elements, 2)
    )


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


def identify_group(elements: Sequence[GraphSymmetry]) -> str:
    n = len(elements)
    if n == 1:
        return "trivial"
    if n == 2:
        return "Z2"
    if n == 3:
        return "Z3"
    ab = _is_abelian(elements)
    if n == 4:
        return "Z4" if 4 in _element_orders(elements) else "Z2xZ2"
    if n == 6:
        return "Z6" if ab else "S3"
    if n == 18 and not ab:
        # generalized dihedral group of Z3 x Z3: normal Sylow 3-subgroup of
        # exponent 3, every involution acting by inversion
        ords = _element_orders(elements)
        sylow3 = [e for e, o in zip(elements, ords) if o in (1, 3)]
        invs = [e for e, o in zip(elements, ords) if o == 2]
        s3set = set(sylow3)
        if len(sylow3) == 9 and len(invs) == 9:
            closed = all(
                a.compose(b) in s3set for a, b in itertools.product(sylow3, sylow3)
            )
            # s t s = t^-1, i.e. s t s t = 1
            inverting = all(
                s.compose(t.compose(s.compose(t))).is_identity()
                for s in invs
                for t in sylow3
            )
            if closed and inverting:
                return "GD(Z3xZ3)"
    if ab:
        return f"other({n}, {_primary_invariants(_element_orders(elements))})"
    return f"other({n}, nonabelian)"


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
    gens = c.perp.generators
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


def _merge(graph: DynkinGraph, rows: Iterable[Tuple[int, ...]]) -> List[Tuple[Configuration, SymmetryGroup]]:
    """The orbits met by kernels given as sorted code rows, each by the
    configuration of its least row and that kernel's stabilizer, in order
    of the row.  The isomorphism search runs only on kernels with one
    symmetry_invariant, and sym_config once per orbit, on its least row."""
    form = graph_discr(graph)
    kept: List[Tuple[Configuration, tuple]] = []
    for row in sorted(set(rows)):
        c, key = configuration(graph, Subgroup(form, row)), symmetry_invariant(graph, row)
        if not any(key == k and _isomorphic(d, c) for d, k in kept):
            kept.append((c, key))
    return [(c, sym_config(c)) for c, _ in kept]


def _least_lines(graph: DynkinGraph, space: TorsionSpace) -> Iterator[Tuple[int, ...]]:
    """The least isotropic line of each orbit of lines of space under the
    graph symmetries, as its sorted codes.

    A component with p-torsion has one torsion coordinate; each of its
    automorphisms maps it to +-itself and some to -itself (read off
    component_code_tables, AssertionError otherwise).  So the symmetries
    act on F_p^m as the signed permutations that permute each run of equal
    components.  Codes ascend as coordinate vectors do, so an orbit's least
    line is spanned by its least nonzero vector v: each run of v is sorted,
    of digits 0..(p-1)/2, and no c v brought to that form is smaller.
    """
    p, form, half = space.p, graph_discr(graph), space.p // 2
    run_of = [i for i, (_, run) in enumerate(itertools.groupby(graph.components)) for _ in run]
    runs = []
    for b in space.basis_codes:
        # (p - 1) b is the code of -b; ci is the component b lies in
        plus, minus = form.block_codes(b), form.block_codes((p - 1) * b)
        ci = next(i for i, y in enumerate(plus) if y)
        t = graph.components[ci]
        images = {table[plus[ci]] for table in component_code_tables(t).values()}
        if not images <= {plus[ci], minus[ci]} or minus[ci] not in images:
            raise AssertionError(f"the automorphisms of {t.label()} do not act as +-1 on its {p}-torsion")
        runs.append(run_of[ci])
    sizes = [len(list(run)) for _, run in itertools.groupby(runs)]
    diag = [row[k] for k, row in enumerate(space.bmat)]

    def normal(c: int, v: Tuple[int, ...]) -> Tuple[int, ...]:
        """The least vector of the orbit of c v."""
        digits = iter(min(c * y % p, -c * y % p) for y in v)
        return tuple(y for n in sizes for y in sorted(itertools.islice(digits, n)))

    for parts in itertools.product(*(itertools.combinations_with_replacement(range(half + 1), n) for n in sizes)):
        v = sum(parts, ())
        if (any(v) and sum(d * y * y for d, y in zip(diag, v)) % p == 0
                and all(v <= normal(c, v) for c in range(2, half + 1))):
            yield tuple(sorted(sum(c * y % p * b for y, b in zip(v, space.basis_codes)) for c in range(p)))


def admissible_kernels(graph: DynkinGraph, p: Optional[int], rank: int) -> List[KernelOrbit]:
    """Isotropic root-free (Z_p)^rank kernels with full component
    support, grouped into orbits under the graph symmetry group, each
    orbit given by the configuration of its least kernel (sorted codes
    compared lexicographically) and listed in order of it, and sized |Sym|
    over the order of that kernel's stabilizer.  rank 0 means K = 0.

    Level r holds the least kernel of every orbit of isotropic root-free
    rank-r subspaces (full support is required at the last rank only) with
    its stabilizer; level 0 is K = 0, stabilized by every symmetry, and
    level 1's least lines are read off in closed form (_least_lines).  For
    r >= 2, the first p^(r-1) codes of a kernel's sorted row span its least
    hyperplane, and an orbit's least kernel has a least hyperplane that
    is least in its own orbit, so it is a child of a level r-1
    representative, and the least member of its Stab(P)-orbit of
    children there.  Among the children of one P, rows order as their
    least codes outside P do.  Every subgroup of a root-free kernel is
    root-free, and every symmetry keeps root-freeness, so a child with a
    root is dropped, with its orbit, at every rank.
    """
    _check_rank(graph)
    if rank and p is None:
        raise ValueError("a kernel of positive rank needs a prime p")
    form = graph_discr(graph)
    sym = graph_symmetries(graph)
    space = torsion_space(form, p) if rank else None

    def child_orbits(parent: Subgroup, gens: Sequence[GraphSymmetry]) -> Iterator[Tuple[int, ...]]:
        """The least child's sorted codes in each Stab(parent)-orbit of
        children, gens generating the stabilizer.

        The children's codes outside P are the isotropic v orthogonal to P.
        bmat is diagonal (TorsionSpace), so 2q(v) and p b(v, g) add over the
        torsion coordinates, and zero_sum_codes lists those v ascending, by
        torsion index.  The first one not yet marked is the least code of its
        child P + <v>, whose codes c v + w (0 < c < p, w in P) are then read
        off affine_tables and marked; c = 1, w = 0 comes first.
        """
        m, pgens = len(space.basis_codes), parent.greedy_span[0]
        choices = [[(c * p ** (m - 1 - k), (c * c * row[k] % p, *(c * row[k] * (g // b) % p for g in pgens)))
                    for c in range(p)] for k, (b, row) in enumerate(zip(space.basis_codes, space.bmat))]
        maps = [space.affine_tables(c, w) for c in range(1, p) for w in parent.codes]
        (hi, lo), n = maps[0], len(maps[0][1])
        child_of, ids = dict.fromkeys(parent.codes), []
        for i in zero_sum_codes(choices, p):
            if hi[i // n] + lo[i % n] not in child_of:
                child_of.update(dict.fromkeys((h[i // n] + l[i % n] for h, l in maps), len(ids)))
                ids.append(i)
        images = [[child_of[x] for x in discr_action(graph, g, [hi[i // n] + lo[i % n] for i in ids])] for g in gens]
        seen: Set[int] = set()
        for first, i in enumerate(ids):
            if first not in seen:
                frontier = {first}
                while frontier:
                    seen |= frontier
                    frontier = {img[j] for j in frontier for img in images} - seen
                yield tuple(sorted([*parent.codes, *(h[i // n] + l[i % n] for h, l in maps)]))

    level = [(configuration(graph, Subgroup.trivial(form)), sym)]
    for r in range(1, rank + 1):
        rows = _least_lines(graph, space) if r == 1 else (
            row for c, stab in level for row in child_orbits(c.kernel, stab.generators))
        # root-free at every rank, one row deciding its Stab(P)-orbit; full
        # support at the last rank: each block has a nonzero code in the row
        level = _merge(graph, (row for row in rows if root_code(graph, row) is None
                               and (r < rank or all(map(any, zip(*map(form.block_codes, row)))))))
    return [KernelOrbit(c, sym.order // stab.order) for c, stab in level]


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
