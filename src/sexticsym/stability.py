"""Configurations (Dynkin graph, isotropic kernel) and their stable
symmetry groups.

A symmetry s is admissible when discr(s) preserves the kernel K; it is
stable when in addition discr(s) acts identically on K-perp/K.  Kernels
are Subgroups (sorted element codes) and discr(s) is a code table, so
both are conditions on the element codes of K-perp.  discr(s) is an
isometry, so it preserves K iff it maps K-perp into K-perp; it is stable
iff s(z) lies in z + K for every z in K-perp.  With label[z] the
least code of z + K on K-perp and -1 off it, s is stable iff
label[s(z)] == label[z] on K-perp.

Each condition is linear in z, so the search checks it only on a
generating set of K-perp (perp_generators) chosen so that, for every
component i, the generators supported on components 0..i generate every
element of K-perp supported there.  A generator is checked as soon as
the last component it is supported on has been assigned, when its image
is complete, so the prune is the same as checking all of K-perp.  One
backtrack, _search_symmetries, serves three uses: every stable symmetry
(sym_stable), the stabilizer of K as generators along a stabilizer chain
plus its order (sym_config), and whether a symmetry maps one kernel onto
another, which maps K1-perp into K2-perp.

Kernel orbits are built orbit-first, rank by rank, on representatives
only (admissible_kernels): the children of a representative P are the
subspaces P + <v> for isotropic v in P-perp outside P, split into
Stab(P)-orbits by closure under the stabilizer's generators.  Children
of different parents are merged by the kernel isomorphism search, tried
only when cheap invariants agree, and an orbit's size is |Sym| over the
order of its representative's stabilizer (Seress, Permutation Group
Algorithms, 2003, ch. 4 and 9; McKay, Isomorph-free exhaustive
generation, J. Algorithms 26, 1998).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from .discrforms import (
    FiniteQuadraticForm,
    Subgroup,
    is_isotropic,
    orthogonal_complement,
    torsion_space,
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
)


@dataclass(frozen=True)
class Configuration:
    graph: DynkinGraph
    kernel: Subgroup
    essential: Tuple[int, ...]

    @cached_property
    def perp(self) -> np.ndarray:
        """The codes of K-perp, ascending."""
        form = graph_discr(self.graph)
        return np.array(orthogonal_complement(form, self.kernel).codes, dtype=np.int64)

    @cached_property
    def perp_mask(self) -> List[bool]:
        """Whether each code of the form lies in K-perp."""
        mask = np.zeros(graph_discr(self.graph).order(), dtype=bool)
        mask[self.perp] = True
        return mask.tolist()

    @cached_property
    def perp_generators(self) -> List[int]:
        """Codes generating K-perp such that, for every component i, those
        supported on components 0..i generate every element of K-perp
        supported there: each element, taken by its last supporting
        component and then by code, that the ones before it do not span."""
        form = graph_discr(self.graph)
        nonzero = form.block_codes(self.perp) != 0
        last = np.where(nonzero.any(axis=1), nonzero.shape[1] - 1 - nonzero[:, ::-1].argmax(axis=1), -1)
        gens: List[int] = []
        span: Set[int] = {0}
        for z in self.perp[np.lexsort((self.perp, last))].tolist():
            if z in span:
                continue
            gens.append(z)
            multiples, x = [], z
            while x not in span:
                multiples.append(x)
                x = int(form.add_codes(x, z))
            have = np.fromiter(span, dtype=np.int64, count=len(span))
            span |= set(form.add_codes(have[:, None], multiples).ravel().tolist())
        return gens


def _check_rank(graph: DynkinGraph) -> None:
    # before the discriminant form and its per-element tables are built
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
    essential = np.flatnonzero(form.block_codes(kernel.codes).any(axis=0))
    return Configuration(graph, kernel, tuple(essential.tolist()))


# ---------------------------------------------------------------------------
# symmetry search

@lru_cache(maxsize=None)
def _options(graph: DynkinGraph) -> Tuple[Tuple[Tuple[int, Tuple[int, ...], Tuple[int, ...], int], ...], ...]:
    """For each component, every image (target, internal automorphism) in
    search order, targets ascending and automorphisms sorted, with the
    automorphism's code table as a tuple and the target's block weight."""
    comps = graph.components
    weights = graph_discr(graph).block_weights.tolist()
    return tuple(tuple((target, a, tuple(table.tolist()), weights[target])
                       for target in range(len(comps)) if comps[target] == t
                       for a, table in component_code_tables(t).items())
                 for t in comps)


@dataclass(frozen=True)
class _Check:
    """label[s(z_j)] == want[j] for generators z_j of K-perp.  active[c]
    lists (j, block code of z_j in c) for the z_j supported on component
    c; due[c] lists (j, want[j]) for those whose last supporting component
    is c."""

    size: int
    active: Tuple[Tuple[Tuple[int, int], ...], ...]
    due: Tuple[Tuple[Tuple[int, int], ...], ...]
    label: Sequence[int]


def _check(graph: DynkinGraph, zgens: Sequence[int], label: Sequence[int], want: Sequence[int]) -> _Check:
    m = len(graph.components)
    active: List[List[Tuple[int, int]]] = [[] for _ in range(m)]
    due: List[List[Tuple[int, int]]] = [[] for _ in range(m)]
    blocks = graph_discr(graph).block_codes(np.array(zgens, dtype=np.int64)).tolist()
    for j, (row, w) in enumerate(zip(blocks, want)):
        support = [ci for ci, b in enumerate(row) if b]
        for ci in support:
            active[ci].append((j, row[ci]))
        due[support[-1]].append((j, w))
    return _Check(len(zgens), tuple(map(tuple, active)), tuple(map(tuple, due)), label)


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
    active, due, label = check.active, check.due, check.label
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
            for j, v in due[ci]:
                if label[nxt[j]] != v:
                    break
            else:
                images[ci], used[target] = (target, internal), True
                yield from descend(ci + 1, nxt)
                used[target] = False

    return descend(0, [0] * check.size)


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
    gens = c.perp_generators
    check = _check(graph, gens, c.perp_mask, [True] * len(gens))
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
    gens = a.perp_generators
    check = _check(a.graph, gens, b.perp_mask, [True] * len(gens))
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
    ords = _element_orders(elements)
    if n == 4:
        return "Z4" if 4 in ords else "Z2xZ2"
    if n == 6:
        return "Z6" if ab else "S3"
    if n == 18 and not ab:
        # generalized dihedral group of Z3 x Z3: normal Sylow 3-subgroup of
        # exponent 3, every involution acting by inversion
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
        return f"other({n}, {_primary_invariants(ords)})"
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
    distinct restrictions of their code tables to the kernel."""
    return len({tuple(discr_action(c.graph, s, c.kernel.codes).tolist()) for s in elements})


def _component_orbits(c: Configuration, elements: Sequence[GraphSymmetry]) -> Tuple[Tuple[int, ...], ...]:
    """Orbits of the group `elements` (all of it) on the components: the
    orbit of a component is the set of its images."""
    orbits = {frozenset(s.images[i][0] for s in elements) for i in range(len(c.graph.components))}
    return tuple(sorted(tuple(sorted(o)) for o in orbits))


def sym_stable(c: Configuration) -> StableGroupReport:
    """The stable symmetries, in ascending order, and what they do."""
    form = graph_discr(c.graph)
    label = np.full(form.order(), -1, dtype=np.int64)
    label[c.perp] = form.add_codes(c.perp[:, None], list(c.kernel.codes)).min(axis=1)
    label = label.tolist()
    gens = c.perp_generators
    check = _check(c.graph, gens, label, [label[z] for z in gens])
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
    representative: Subgroup
    size: int


def _weight_counts(form: FiniteQuadraticForm, codes: Sequence[int]) -> Tuple[int, ...]:
    """How many of the elements have each number of nonzero blocks."""
    weights = (form.block_codes(codes) != 0).sum(axis=1)
    return tuple(np.bincount(weights, minlength=len(form.blocks) + 1).tolist())


def _merge(graph: DynkinGraph, rows: Iterable[Tuple[int, ...]]) -> List[Tuple[Subgroup, SymmetryGroup]]:
    """The orbits met by kernels given as sorted code rows, each by its
    least row and that kernel's stabilizer, in order of the row.  The
    isomorphism search runs only on kernels whose stabilizer orders and
    weight counts of K and of K-perp agree."""
    form = graph_discr(graph)
    kept: List[Tuple[Configuration, SymmetryGroup, tuple]] = []
    for row in sorted(set(rows)):
        c = configuration(graph, Subgroup(form, row))
        stab = sym_config(c)
        key = (stab.order, _weight_counts(form, c.kernel.codes), _weight_counts(form, c.perp))
        if not any(key == k and _isomorphic(d, c) for d, _, k in kept):
            kept.append((c, stab, key))
    return [(c.kernel, stab) for c, stab, _ in kept]


def admissible_kernels(graph: DynkinGraph, p: Optional[int], rank: int) -> List[KernelOrbit]:
    """Isotropic (Z_p)^rank kernels with full component support, grouped
    into orbits under the graph symmetry group, each orbit given by its
    least kernel (sorted codes compared lexicographically) and listed in
    order of it.  rank 0 means K = 0.

    Level r holds the least kernel of every orbit of isotropic rank-r
    subspaces (full support is required at the last rank only).  The
    first p^(r-1) codes of a kernel's sorted row span its least
    hyperplane, and an orbit's least kernel has a least hyperplane that
    is least in its own orbit, so it is a child of a level r-1
    representative, and the least member of its Stab(P)-orbit of
    children there.  Among the children of one P, rows order as their
    least codes outside P do.
    """
    _check_rank(graph)
    form = graph_discr(graph)
    if rank == 0:
        return [KernelOrbit(Subgroup.trivial(form), 1)]
    if p is None:
        raise ValueError("a kernel of positive rank needs a prime p")
    sym = graph_symmetries(graph)
    space = torsion_space(form, p)
    m = len(space.basis)
    # F_p^m in itertools.product order; each torsion basis vector sits on
    # its own ambient coordinate, so codes are linear in these coordinates
    # and ascend with the order
    vecs = np.arange(p**m, dtype=np.int64)[:, None] // p ** np.arange(m - 1, -1, -1) % p
    bmat = np.array(space.bmat, dtype=np.int64).reshape(m, m)
    basis_codes = form.encode(np.array(space.basis, dtype=np.int64).reshape(m, form.rank))
    codes = vecs @ basis_codes
    # x bmat x^T = 2 q(x) mod p
    isotropic = ((vecs @ bmat) * vecs).sum(axis=1) % p == 0
    coefs = np.arange(p)[:, None, None]  # c, against (w, coordinate) axes

    def child_orbits(parent: Subgroup, gens: Sequence[GraphSymmetry]) -> Iterator[Tuple[Tuple[int, ...], int]]:
        """Each Stab(parent)-orbit of children, gens generating the
        stabilizer: its least child's sorted codes and the orbit's size."""
        where = np.searchsorted(codes, parent.codes)
        pv = vecs[where]
        cand = isotropic & (vecs @ bmat @ pv.T % p == 0).all(axis=1)
        cand[where] = False
        # the codes c v + w (0 < c < p, w in P) of P + <v> outside P; a
        # child is identified by the least of them
        outside = (vecs[cand][:, None, None, :] * coefs[1:] + pv) % p @ basis_codes
        ids, child = np.unique(outside.min(axis=(1, 2)), return_inverse=True)
        index = np.zeros(form.order(), dtype=np.intp)
        index[codes[cand]] = child
        images = np.empty((len(gens), len(ids)), dtype=np.intp)
        for g, img in zip(gens, images):
            img[:] = index[discr_action(graph, g, ids)]
        seen = np.zeros(len(ids), dtype=bool)
        for first in range(len(ids)):
            if seen[first]:
                continue
            seen[first] = True
            size, frontier = 1, np.array([first])
            while len(frontier):
                nxt = images[:, frontier].ravel()
                nxt = np.unique(nxt[~seen[nxt]])
                seen[nxt] = True
                size += len(nxt)
                frontier = nxt
            v = vecs[np.searchsorted(codes, ids[first])]
            yield tuple(np.sort((coefs * v + pv) % p @ basis_codes, axis=None).tolist()), size

    level = [(Subgroup.trivial(form), sym)]
    for r in range(1, rank + 1):
        classes = [(row, size) for parent, stab in level for row, size in child_orbits(parent, stab.generators)
                   if r < rank or form.block_codes(row).any(axis=0).all()]
        if r > 1:
            level = _merge(graph, (row for row, _ in classes))
        elif r < rank:
            # the parent K = 0 has the whole group as its stabilizer, so
            # its classes are the orbits
            level = [(k, sym_config(configuration(graph, k))) for k in (Subgroup(form, row) for row, _ in classes)]
        else:
            return [KernelOrbit(Subgroup(form, row), size) for row, size in classes]
    return [KernelOrbit(k, sym.order // stab.order) for k, stab in level]


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
    singularities: str
    family_tag: str
    expected_label: str
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
    matches_theorem: bool  # some kernel orbit realizes the expected group


def classify_family(singularities: str, family_tag: str, kernel_spec, expected_label: str) -> FamilyVerdict:
    graph = parse_singularities(singularities)
    p, rank = kernel_spec
    orbits = admissible_kernels(graph, p, rank)
    rows = []
    for orb in orbits:
        c = configuration(graph, orb.representative)
        rep = sym_stable(c)
        gens = tuple(orb.representative.generators())
        rows.append(
            ClassificationRow(
                singularities=print_singularities(graph),
                family_tag=family_tag,
                expected_label=expected_label,
                kernel_orbit=gens,
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
        matches_theorem=any(r.matches_expected for r in rows),
    )


def classify_catalog(families=None) -> List[FamilyVerdict]:
    """Classify every candidate family; families defaults to the full catalog."""
    from .catalog import families as catalog_families

    return [classify_family(f.essential, f.tag, f.kernel_spec, f.expected_group)
            for f in (catalog_families() if families is None else families)]
