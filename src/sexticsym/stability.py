"""Configurations (Dynkin graph, isotropic kernel) and their stable
symmetry groups.

A symmetry s is admissible when discr(s) preserves the kernel K; it is
stable when in addition discr(s) acts identically on K-perp/K.  Kernels
are Subgroups (sorted element codes) and discr(s) is a code table, so
both conditions are one invariant on the element codes of K-perp.
discr(s) is an isometry, so it preserves K iff it preserves K-perp; it
is stable iff s(z) lies in z + K for every z in K-perp.  With
label[z] = -1 off K-perp and, on it, 0 (admissible) or the least code of
z + K (stable), s qualifies iff label[s(z)] == label[z] on K-perp.  The
search checks each z as soon as its image is known, which is also its
only prune.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .discrforms import (
    Subgroup,
    is_isotropic,
    isotropic_subspaces,
    orthogonal_complement,
    subgroup_keys,
)
from .rootsystems import (
    MAX_RANK,
    ADEType,
    DynkinGraph,
    GraphSymmetry,
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


def _search_symmetries(c: Configuration, stable: bool) -> List[GraphSymmetry]:
    """The graph symmetries s with label[s(z)] == label[z] for every z in
    K-perp, sorted by permutation.

    label is -1 off K-perp; on it, the least code of the coset z + K when
    stable and 0 otherwise.  Backtracking assigns each component a target
    and an internal automorphism in turn, with the partial image of K-perp
    as codes; z is checked once the last component it is supported on has
    been assigned, when its image is complete.
    """
    graph = c.graph
    form = graph_discr(graph)
    comps = graph.components
    m = len(comps)
    z = np.array(orthogonal_complement(form, c.kernel).codes, dtype=np.int64)
    label = np.full(form.order(), -1, dtype=np.int64)
    if stable:
        label[z] = form.add_codes(z[:, None], list(c.kernel.codes)).min(axis=1)
    else:
        label[z] = 0
    blockcode = form.block_codes(z)
    weight = form.block_weights
    last = np.full(len(z), -1)
    for ci in range(m):
        last[blockcode[:, ci] != 0] = ci
    due = [np.flatnonzero(last == ci) for ci in range(m)]
    want = [label[z[d]] for d in due]

    results: List[GraphSymmetry] = []
    pi = [-1] * m
    internals: List[Optional[Tuple[int, ...]]] = [None] * m

    def descend(ci: int, image: np.ndarray):
        if ci == m:
            perm = list(range(graph.rank))
            for cc in range(m):
                off, toff = graph.offsets[cc], graph.offsets[pi[cc]]
                for i, j in enumerate(internals[cc]):
                    perm[off + i] = toff + j
            results.append(GraphSymmetry(tuple(perm)))
            return
        t = comps[ci]
        for target in range(m):
            if target in pi[:ci] or comps[target] != t:
                continue
            pi[ci] = target
            for internal, table in component_code_tables(t).items():
                internals[ci] = internal
                nxt = image + table[blockcode[:, ci]] * weight[target]
                if np.array_equal(label[nxt[due[ci]]], want[ci]):
                    descend(ci + 1, nxt)
        pi[ci] = -1

    descend(0, np.zeros(len(z), dtype=np.int64))
    results.sort(key=lambda s: s.perm)
    return results


def sym_config(c: Configuration) -> SymmetryGroup:
    """All graph symmetries whose discriminant action preserves the kernel."""
    els = _search_symmetries(c, stable=False)
    return SymmetryGroup(tuple(els), len(els))


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
    graph = c.graph
    orbits = {frozenset(graph.component_of(s(off)) for s in elements) for off in graph.offsets}
    return tuple(sorted(tuple(sorted(o)) for o in orbits))


def sym_stable(c: Configuration) -> StableGroupReport:
    els = _search_symmetries(c, stable=True)
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


def admissible_kernels(graph: DynkinGraph, p: Optional[int], rank: int) -> List[KernelOrbit]:
    """Isotropic (Z_p)^rank kernels with full component support, grouped
    into orbits under the graph symmetry group.  rank 0 means K = 0."""
    _check_rank(graph)
    form = graph_discr(graph)
    if rank == 0:
        return [KernelOrbit(Subgroup.trivial(form), 1)]
    if p is None:
        raise ValueError("a kernel of positive rank needs a prime p")
    enc = isotropic_subspaces(form, p, rank)
    n_sub = len(enc)
    if n_sub == 0:
        return []
    keys = subgroup_keys(form, p, enc)
    gens = graph_symmetries(graph).generators
    moves = np.empty((len(gens), n_sub), dtype=np.intp)
    for g, pos in zip(gens, moves):
        image = discr_action(graph, g).astype(form.code_dtype)[enc]
        image.sort(axis=1)
        gkeys = subgroup_keys(form, p, image)
        del image  # free 9A2's image rows before the next generator's
        pos[:] = np.searchsorted(keys, gkeys)
        if not np.array_equal(keys[np.minimum(pos, n_sub - 1)], gkeys):
            raise AssertionError("symmetry does not permute the kernel set")

    # orbits by closure under the generators, each from its least row index,
    # so they come out in order of their least kernel; a finite group's
    # orbit is the forward closure under its generators
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
        out.append(KernelOrbit(Subgroup(form, tuple(enc[rep].tolist())), size))
    return out


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
