"""Configurations (Dynkin graph, isotropic kernel) and their stable
symmetry groups.

A symmetry s is admissible when discr(s) preserves the kernel K; it is
stable when in addition discr(s) acts identically on K-perp/K.  Since the
discriminant action is linear, the identity on K-perp/K is equivalent to
s(z) - z in K for z running over any generating set of K-perp; we check it
on every element, grouped by support, which doubles as the search prune.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .discrforms import (
    Subgroup,
    is_isotropic,
    isotropic_subspaces,
    orthogonal_complement,
    subgroup_codes,
    torsion_space,
)
from .rootsystems import (
    ADEType,
    DynkinGraph,
    GraphSymmetry,
    SymmetryGroup,
    _perm_inv,
    _perm_mul,
    component_automorphisms,
    component_discr_matrices,
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


def configuration(graph: DynkinGraph, kernel: Subgroup) -> Configuration:
    form = graph_discr(graph)
    if not kernel.is_subgroup_of(form):
        raise ValueError("kernel is not a subgroup of the discriminant")
    if not is_isotropic(form, kernel):
        raise ValueError("kernel is not isotropic")
    if kernel.order() % 2 == 0:
        raise ValueError("kernel must have odd order")
    if graph.rank > 19:
        raise ValueError("total rank exceeds 19")
    essential = []
    for c, blk in enumerate(form.blocks):
        if any(any(x[i] for i in blk) for x in kernel.elements):
            essential.append(c)
    return Configuration(graph, kernel, tuple(essential))


def trivial_kernel(graph: DynkinGraph) -> Subgroup:
    return Subgroup.trivial(graph_discr(graph))


# ---------------------------------------------------------------------------
# symmetry search


def _block_matrix(t: ADEType, internal: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    return component_discr_matrices(t)[internal]


def _search_symmetries(c: Configuration, stable: bool) -> List[GraphSymmetry]:
    graph = c.graph
    form = graph_discr(graph)
    comps = graph.components
    m = len(comps)
    blocks = form.blocks
    orders = form.orders
    kelems = list(c.kernel.elements)
    kset = c.kernel._set

    if stable:
        kperp = orthogonal_complement(form, c.kernel)
        buckets: List[List[Tuple[int, ...]]] = [[] for _ in range(m)]
        for z in kperp.elements:
            sup = [ci for ci, blk in enumerate(blocks) if any(z[i] for i in blk)]
            if sup:
                buckets[max(sup)].append(z)

    autos_of = {t: component_automorphisms(t) for t in set(comps)}
    mats_of = {t: component_discr_matrices(t) for t in set(comps)}

    def blk_vec(x: Tuple[int, ...], ci: int) -> Tuple[int, ...]:
        return tuple(x[i] for i in blocks[ci])

    def map_block(vec: Tuple[int, ...], mat, dst: int) -> Tuple[int, ...]:
        w = len(blocks[dst])
        out = [0] * w
        for a, va in enumerate(vec):
            if va:
                row = mat[a]
                for b in range(w):
                    out[b] = out[b] + va * row[b]
        dords = [orders[i] for i in blocks[dst]]
        return tuple(o % d for o, d in zip(out, dords))

    results: List[GraphSymmetry] = []
    pi = [-1] * m
    used = [False] * m
    internals: List[Optional[Tuple[int, ...]]] = [None] * m

    def image_of(z: Tuple[int, ...], upto: int) -> Tuple[int, ...]:
        # support of z must lie within components 0..upto
        img = [0] * form.rank
        for ci in range(upto + 1):
            vec = blk_vec(z, ci)
            if any(vec):
                mapped = map_block(vec, mats_of[comps[ci]][internals[ci]], pi[ci])
                for val, i in zip(mapped, blocks[pi[ci]]):
                    img[i] = val
        return tuple(img)

    def descend(ci: int, cands: List[List[Tuple[int, ...]]]):
        if ci == m:
            if not stable:
                for x, cs in zip(kelems, cands):
                    img = image_of(x, m - 1)
                    if img not in kset:
                        return
            perm = list(range(graph.rank))
            for cc in range(m):
                off, toff = graph.offsets[cc], graph.offsets[pi[cc]]
                for i, j in enumerate(internals[cc]):
                    perm[off + i] = toff + j
            results.append(GraphSymmetry(tuple(perm)))
            return
        t = comps[ci]
        for target in range(m):
            if used[target] or comps[target] != t:
                continue
            for internal in autos_of[t]:
                mat = mats_of[t][internal]
                pi[ci] = target
                internals[ci] = internal
                used[target] = True
                ok = True
                # kernel-image consistency on the assigned prefix
                new_cands = []
                for x, cs in zip(kelems, cands):
                    img = map_block(blk_vec(x, ci), mat, target)
                    nc = [y for y in cs if blk_vec(y, target) == img]
                    if not nc:
                        ok = False
                        break
                    new_cands.append(nc)
                if ok and stable:
                    for z in buckets[ci]:
                        if form.sub(image_of(z, ci), z) not in kset:
                            ok = False
                            break
                if ok:
                    descend(ci + 1, new_cands)
                used[target] = False
        pi[ci] = -1
        internals[ci] = None

    descend(0, [kelems] * len(kelems))
    results.sort(key=lambda s: s.perm)
    return results


def sym_config(c: Configuration) -> SymmetryGroup:
    """All graph symmetries whose discriminant action preserves the kernel."""
    els = _search_symmetries(c, stable=False)
    return SymmetryGroup(tuple(els), len(els), c.graph.rank)


# ---------------------------------------------------------------------------
# group identification


def _element_orders(perms: Sequence[Tuple[int, ...]]) -> List[int]:
    ident = tuple(range(len(perms[0])))
    out = []
    for p in perms:
        q, n = p, 1
        while q != ident:
            q = _perm_mul(p, q)
            n += 1
        out.append(n)
    return out


def _is_abelian(perms: Sequence[Tuple[int, ...]]) -> bool:
    return all(
        _perm_mul(a, b) == _perm_mul(b, a)
        for a, b in itertools.combinations(perms, 2)
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
    perms = [e.perm for e in elements]
    n = len(perms)
    if n == 1:
        return "trivial"
    if n == 2:
        return "Z2"
    if n == 3:
        return "Z3"
    ab = _is_abelian(perms)
    ords = _element_orders(perms)
    if n == 4:
        return "Z4" if 4 in ords else "Z2xZ2"
    if n == 6:
        return "Z6" if ab else "S3"
    if n == 18 and not ab:
        # generalized dihedral group of Z3 x Z3: normal Sylow 3-subgroup of
        # exponent 3, every involution acting by inversion
        sylow3 = [p for p, o in zip(perms, ords) if o in (1, 3)]
        invs = [p for p, o in zip(perms, ords) if o == 2]
        s3set = set(sylow3)
        if len(sylow3) == 9 and len(invs) == 9:
            closed = all(
                _perm_mul(a, b) in s3set for a, b in itertools.product(sylow3, sylow3)
            )
            inverting = all(
                _perm_mul(s, _perm_mul(t, s)) == _perm_inv(t)
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


def _kappa(c: Configuration, elements: Sequence[GraphSymmetry]):
    """Action of each symmetry on the kernel, as images of kernel generators."""
    form = graph_discr(c.graph)
    gens = c.kernel.generators(form)
    table = {}
    for s in elements:
        a = discr_action(c.graph, s)
        table[s.perm] = tuple(a.apply(form, g) for g in gens)
    return table


def _component_orbits(c: Configuration, elements: Sequence[GraphSymmetry]) -> Tuple[Tuple[int, ...], ...]:
    graph = c.graph
    parent = list(range(len(graph.components)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s in elements:
        for ci in range(len(graph.components)):
            a, b = find(ci), find(graph.component_of(s(graph.offsets[ci])))
            if a != b:
                parent[a] = b
    orbits: Dict[int, List[int]] = {}
    for ci in range(len(graph.components)):
        orbits.setdefault(find(ci), []).append(ci)
    return tuple(sorted(tuple(sorted(v)) for v in orbits.values()))


def sym_stable(c: Configuration) -> StableGroupReport:
    els = _search_symmetries(c, stable=True)
    kap = _kappa(c, els)
    images = set(kap.values())
    return StableGroupReport(
        elements=tuple(els),
        order=len(els),
        label=identify_group(els),
        kappa_order=len(images),
        kappa_faithful=len(images) == len(els),
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
    form = graph_discr(graph)
    if rank == 0:
        return [KernelOrbit(Subgroup.trivial(form), 1)]
    if p is None:
        raise ValueError("a kernel of positive rank needs a prime p")
    space = torsion_space(form, p)
    hit = set(space.coord_block)
    if hit != set(range(len(form.blocks))):
        return []
    enc = subgroup_codes(form, space, isotropic_subspaces(space, rank, full_support=True))
    n_sub = len(enc)
    if n_sub == 0:
        return []
    keys = form.row_keys(enc)
    targets = []
    for g in graph_symmetries(graph).generators:
        image = discr_action(graph, g).code_table(form)[enc]
        image.sort(axis=1)
        gkeys = form.row_keys(image)
        del image  # 9A2's image rows take 120 MB; free them before the next
        pos = np.searchsorted(keys, gkeys)
        if not np.array_equal(keys[np.minimum(pos, n_sub - 1)], gkeys):
            raise AssertionError("symmetry does not permute the kernel set")
        targets.append(pos)
    moves = np.array(targets, dtype=np.intp).reshape(len(targets), n_sub)

    # orbits by closure under the generators, each from its least row index;
    # a finite group's orbit is the forward closure under its generators
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
        out.append(KernelOrbit(Subgroup(form.decode(enc[rep])), size))
    out.sort(key=lambda o: o.representative.elements)
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
    form = graph_discr(graph)
    rows = []
    for orb in orbits:
        c = configuration(graph, orb.representative)
        rep = sym_stable(c)
        gens = tuple(orb.representative.generators(form))
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

    specs = families if families is not None else catalog_families()
    out = []
    for fam in specs:
        out.append(
            classify_family(fam.essential, fam.tag, fam.kernel_spec, fam.expected_group)
        )
    return out
