"""Skeletons of trigonal curves: bipartite genus-0 combinatorial maps,
their singular-fiber content, monodromy component counts, and the
elementary-transformation bookkeeping.

Every fiber is typed by one rule, simple_fiber, Kodaira's simple fiber of
Euler number e: a skeleton's faces and unstable vertices, weierstrass'
classes, elementary_transform's twist (e -> e + 6) and table1's isotrivial
companions (e -> 12 - e) all read it.

A skeleton is held as two permutations of its black darts: the rotation
succ (sigma, the counterclockwise dart order at each black vertex) and the
involution partner, which swaps the two black darts at each bivalent white
vertex and fixes the one at each univalent white vertex.  The pair is the
whole map (Lando and Zvonkin, Graphs on Surfaces and Their Applications,
2004, ch. 1).  Every edge has one black dart, so the edge count is the
number of black darts, the degree of the j-map (12 for curves in the
second Hirzebruch surface).  The black vertices are the cycles of succ and
the white ones the orbits of partner.  The full map phi = sigma alpha sends
a black dart d to a white dart and that one to succ(partner(d)), and every
white dart follows a black one, so the faces are the cycles of
psi(d) = succ(partner(d)), each listed as its black darts.  The full
bipartite map, with a white dart beside each black one, is only walked
(_walk, for the isomorphism tests) and printed (to_json, for the reports).

Enumeration fixes the black vertices (b3 trivalent, then b2 bivalent, then
b1 univalent, darts numbered consecutively), picks the pendant darts and
then a perfect matching of the other black darts, both in lexicographic
order, and keeps the first candidate of each isomorphism class.  Two
candidates with the same valencies are isomorphic exactly when an element
of G maps one to the other, where G permutes black vertices of equal
valency and rotates each vertex; so the kept candidate is the
lexicographically least member of its G-orbit, and its pendant set is the
least of its own G-orbit.  Call a black vertex untouched when no earlier
choice (an earlier pendant, or for a pair also any pendant or dart in an
earlier pair) lies on it.  A least pendant set never puts a pendant on an
untouched vertex other than the first untouched vertex of that valency,
at its first dart; nor does a least matching pair a dart into such a
vertex.  Otherwise the element of G that swaps the two vertices (or only
rotates the vertex, if it is the first one), rotated to send that dart to
the first one, fixes every earlier choice and sends this one lower, so
the image is lexicographically smaller (an image pendant set holds, below
that dart, every earlier pendant and one more).  The pendant and matching
generators skip every such branch, so they build far fewer candidates and
keep the same representatives in the same order (McKay, Isomorph-free
exhaustive generation, J. Algorithms 26, 1998).

A candidate is checked for connectivity and genus 0 on the same two arrays
before it becomes a Skeleton.  V is the number of rotations plus one white
vertex per orbit of partner, E the number of black darts and F the number
of cycles of psi.  A white vertex hangs on one black vertex or joins the
two black vertices of its pair, so the map is connected exactly when succ
and partner act transitively on the black darts, and the candidate is a
sphere exactly when it is connected and V - E + F = 2.

A sphere candidate is then walked once from a dart at its last black
vertex, one of least valency.  A walk from a given start is a complete
invariant and isomorphisms map least-valency starts onto each other, so
the candidate repeats a kept skeleton of its vertex datum exactly when its
walk is among their start codes (the walks from every least-valency dart).
Only a new class becomes a Skeleton; its canonical form, the least start
code, is built once, to sort the list.  The mirror test is one walk too.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .exactcore import orbits

# ---------------------------------------------------------------------------
# fiber types


class _FiberFields(NamedTuple):
    family: str  # A | D | E | J
    index: int
    stars: int = 0  # A0*, A0**, A1*, A2* carry 1 or 2 stars


class FiberType(_FiberFields):
    __slots__ = ()

    def __new__(cls, family: str, index: int, stars: int = 0):
        ok = (
            (family == "A" and index >= 1 and stars == 0)
            or (family == "A" and (index, stars) in ((0, 1), (0, 2), (1, 1), (2, 1)))
            or (family == "D" and index >= 4 and stars == 0)
            or (family == "E" and index in (6, 7, 8) and stars == 0)
            or (family == "J" and stars == 0)  # NonSimple marker
        )
        if not ok:
            raise ValueError(f"invalid fiber type {family}{index}{'*' * stars}")
        return tuple.__new__(cls, (family, index, stars))

    def label(self) -> str:
        if self.family == "J":
            return "NonSimple"
        if self.stars:
            return f"{self.family}{self.index}" + "*" * self.stars
        return f"{self.family}{self.index}~"

    @property
    def is_stable(self) -> bool:
        return not (self.family == "A" and self.stars and (self.index, self.stars) != (0, 1))

    def milnor(self) -> int:
        """The Milnor number: the index of every simple type."""
        if self.family == "J":
            raise ValueError("Milnor number undefined for non-simple fibers")
        return self.index

    def discriminant_degree(self) -> int:
        """The Euler number, this fiber's share of deg Delta: mu + 1 for the
        multiplicative fibers (the stable A types) and mu + 2 otherwise."""
        return self.milnor() + (1 if self.family == "A" and self.is_stable else 2)


NON_SIMPLE = FiberType("J", 0)


def simple_fiber(e: int, multiplicative: bool, dihedral: bool = False) -> FiberType:
    """The simple fiber of Euler number e (Kodaira, On compact analytic
    surfaces II, Ann. Math. 77, 1963): I_e = A_(e-1) (A0* for e = 1) if
    multiplicative; else II, III, IV = A0**, A1*, A2* for e <= 4, and past
    them I*_(e-6) = D_(e-2) if dihedral, else E_(e-2).  An e that no fiber
    of that kind has raises ValueError."""
    if multiplicative:
        return FiberType("A", 0, 1) if e == 1 else FiberType("A", e - 1)
    if e <= 4:
        return FiberType("A", e - 2, 2 if e == 2 else 1)
    return FiberType("D" if dihedral else "E", e - 2)


_FAMILY_ORDER = {"E": 0, "D": 1, "A": 2, "J": 3}


def fiber_multiset_sorted(fibers: Iterable[FiberType]) -> Tuple[FiberType, ...]:
    return tuple(sorted(fibers, key=lambda f: (_FAMILY_ORDER[f.family], -f.index, f.stars)))


def print_fibers(fibers: Sequence[FiberType]) -> str:
    terms = []
    for f, grp in itertools.groupby(fiber_multiset_sorted(fibers)):
        c = len(list(grp))
        terms.append((str(c) if c > 1 else "") + f.label())
    return "+".join(terms)


# ---------------------------------------------------------------------------
# skeletons


class _SkeletonFields(NamedTuple):
    succ: Tuple[int, ...]  # per black dart: the next one counterclockwise at its vertex
    partner: Tuple[int, ...]  # per black dart: the other one at its white vertex, or itself


class Skeleton(_SkeletonFields):
    """A skeleton as its black rotation and partner involution (see the
    module docstring), with its black vertices, faces and start codes
    each computed at most once, on first use (held in the instance __dict__
    that this subclass of a record keeps).  No black darts, a succ that is
    no permutation of them, a black vertex of valency above 3 or a partner
    that is no involution raises ValueError."""

    def __new__(cls, succ: Sequence[int], partner: Sequence[int]):
        succ, partner = tuple(succ), tuple(partner)
        darts = list(range(len(succ)))
        if not darts:
            raise ValueError("no black darts")
        if sorted(succ) != darts:
            raise ValueError("succ is not a permutation of the black darts")
        if sorted(partner) != darts or any(partner[p] != d for d, p in enumerate(partner)):
            raise ValueError("partner is not an involution of the black darts")
        self = tuple.__new__(cls, (succ, partner))
        if any(len(c) > 3 for c in self.black):
            raise ValueError("black valency above 3")
        return self

    @cached_property
    def black(self) -> Tuple[Tuple[int, ...], ...]:
        """The black vertices: the cycles of succ."""
        return tuple(map(tuple, orbits(len(self.succ), [self.succ])))

    @cached_property
    def faces(self) -> Tuple[Tuple[int, ...], ...]:
        """The faces, each as its black darts: the cycles of psi = succ partner."""
        succ = self.succ
        return tuple(map(tuple, orbits(len(succ), [[succ[p] for p in self.partner]])))

    @cached_property
    def start_codes(self) -> FrozenSet[bytes]:
        """The walks from every dart at a black vertex of least valency (see
        the module docstring)."""
        least = min(map(len, self.black))
        return frozenset(_walk(self.succ, self.partner, d) for c in self.black if len(c) == least for d in c)

    def canonical_form(self) -> Tuple:
        """The least start code as (sig, alp, col), the colors read off the
        walk: the start is black, alpha flips the color and sigma keeps it.
        The result depends only on the isomorphism class."""
        code = min(self.start_codes)
        n = len(code) // 2
        sig, alp, col = code[:n], code[n:], ["b"] * n
        for i in range(n):  # label i > 0 was reached from a lower label
            col[sig[i]], col[alp[i]] = col[i], "w" if col[i] == "b" else "b"
        return tuple(sig), tuple(alp), tuple(col)

    def is_mirror_symmetric(self) -> bool:
        """Whether the mirror (succ^-1, partner) is isomorphic to this skeleton."""
        inv = sorted(range(len(self.succ)), key=self.succ.__getitem__)  # succ^-1
        return _walk(inv, self.partner, min(self.black, key=len)[0]) in self.start_codes

    def to_json(self) -> dict:
        """The full map as the reports print it, white darts numbered after
        the black ones: a bivalent white (w w+1) per matched pair, in order
        of its least dart, then a univalent white per pendant, ascending."""
        nb, partner = len(self.succ), self.partner
        whites = [(d, p) for d, p in enumerate(partner) if d < p] + [(d,) for d, p in enumerate(partner) if d == p]
        cycles, alpha, w = [list(c) for c in self.black], [0] * nb, nb
        for ends in whites:
            cycles.append(list(range(w, w + len(ends))))
            for d in ends:
                alpha[d], w = w, w + 1
        return {
            "darts": 2 * nb,
            "sigma": cycles,
            "alpha": [[d, a] for d, a in enumerate(alpha)],
            "color": {str(c[0]): "b" if c[0] < nb else "w" for c in cycles},
        }


# ---------------------------------------------------------------------------
# enumeration


def enumerate_skeletons(k: int, max_unstable: int) -> List[Skeleton]:
    """All genus-0 skeletons for curves in the k-th Hirzebruch surface with
    at most max_unstable unstable vertices, up to orientation-preserving
    isomorphism.  2k = b1 + 2 b2 + b3 + w1 over the vertex valencies."""
    if k not in (1, 2):
        raise ValueError("only k = 1 and k = 2 are supported")
    kept: List[Skeleton] = []
    for b1 in range(2 * k + 1):
        for b2 in range((2 * k - b1) // 2 + 1):
            for w1 in range(2 * k - b1 - 2 * b2 + 1):
                b3 = 2 * k - b1 - 2 * b2 - w1
                if b1 + b2 + w1 > max_unstable:
                    continue
                vals = [3] * b3 + [2] * b2 + [1] * b1  # black valencies, darts numbered consecutively
                rot = [tuple(range(s, s + val)) for s, val in zip(itertools.accumulate([0] + vals), vals)]
                ndarts = sum(vals)
                if ndarts < w1 or (ndarts - w1) % 2 != 0:
                    continue
                vertex = [v for v, cyc in enumerate(rot) for _ in cyc]
                succ = [cyc[(i + 1) % len(cyc)] for cyc in rot for i in range(len(cyc))]  # sigma on the black darts
                codes: Set[bytes] = set()  # the start codes of the classes kept for this datum
                for pend in _orbit_pendants(list(range(ndarts)), w1, rot, vertex, frozenset()):
                    rest = [d for d in range(ndarts) if d not in pend]
                    touched = frozenset(vertex[d] for d in pend)
                    for matching in _orbit_matchings(rest, rot, vertex, touched):
                        partner = list(range(ndarts))  # a pendant is its own partner
                        for a, b in matching:
                            partner[a], partner[b] = b, a
                        if _is_sphere(succ, partner, len(rot)) and _walk(succ, partner, rot[-1][0]) not in codes:
                            sk = Skeleton(succ, partner)
                            codes |= sk.start_codes
                            kept.append(sk)
    return sorted(kept, key=Skeleton.canonical_form)


def _walk(succ: Sequence[int], partner: Sequence[int], start: int) -> bytes:
    """The full map relabeled breadth-first from the black dart start, as
    bytes(sig + alp): white dart nb + d lies beside black dart d, alpha swaps
    the two and sigma sends nb + d to nb + partner(d).  A reached dart takes
    the next label, sigma's image before alpha's."""
    nb = len(succ)
    lab = [-1] * (2 * nb)
    lab[start], order, sig, alp, m = 0, [start], [], [], 1  # m darts are labeled
    for d in order:  # order grows as darts are reached
        if d < nb:
            s, a = succ[d], d + nb
        else:
            s, a = nb + partner[d - nb], d - nb
        x, y = lab[s], lab[a]  # of opposite colors, so s != a
        if x < 0:
            x = lab[s] = m
            m += 1
            order.append(s)
        if y < 0:
            y = lab[a] = m
            m += 1
            order.append(a)
        sig.append(x)
        alp.append(y)
    return bytes(sig + alp)


def _is_sphere(succ: Sequence[int], partner: Sequence[int], v: int) -> bool:
    """Whether the skeleton of the black rotation succ, the partner
    involution and v black vertices is connected and of genus 0, read off
    the black darts alone (see the module docstring)."""
    nb = len(succ)
    if len(orbits(nb, [succ, partner])) != 1:
        return False
    faces = len(orbits(nb, [[succ[d] for d in partner]]))  # psi(d) = sigma(partner(d))
    # V - E + F over V = v + one white per orbit of partner and E = black darts
    return v + sum(d <= p for d, p in enumerate(partner)) - nb + faces == 2


def _orbit_pendants(darts: List[int], w: int, rot: Sequence[Tuple[int, ...]], vertex: Sequence[int],
                    touched: FrozenSet[int]) -> Iterable[List[int]]:
    """w-sets of darts, each ascending, in lexicographic order, skipping
    those that cannot be the least of their black-vertex symmetry orbit
    (see the module docstring): a pendant enters an untouched vertex, one
    not in touched, only at the first untouched vertex of that valency and
    at its first dart.  touched holds the vertices of the earlier pendants."""
    if not w:
        yield []
        return
    entered = set()  # valencies whose first untouched vertex has been tried
    for i, d in enumerate(darts[: len(darts) - w + 1]):
        v = vertex[d]
        if v not in touched:
            if len(rot[v]) in entered:
                continue
            entered.add(len(rot[v]))
        for sub in _orbit_pendants(darts[i + 1 :], w - 1, rot, vertex, touched | {v}):
            yield [d] + sub


def _orbit_matchings(darts: List[int], rot: Sequence[Tuple[int, ...]], vertex: Sequence[int],
                     touched: FrozenSet[int]) -> Iterable[List[Tuple[int, int]]]:
    """Perfect matchings of darts in lexicographic order, skipping those
    that cannot be the least of their black-vertex symmetry orbit (see the
    module docstring): a dart is paired into an untouched vertex, one not
    in touched, only at the first untouched vertex of that valency and at
    its first dart.  touched holds the vertices of the pendants and of
    the darts already paired."""
    if not darts:
        yield []
        return
    first, rest = darts[0], darts[1:]
    touched = touched | {vertex[first]}
    entered = set()  # valencies whose first untouched vertex has been tried
    for i, other in enumerate(rest):
        v = vertex[other]
        if v not in touched:
            if len(rot[v]) in entered:
                continue
            entered.add(len(rot[v]))
        for sub in _orbit_matchings(rest[:i] + rest[i + 1 :], rot, vertex, touched | {v}):
            yield [(first, other)] + sub


# ---------------------------------------------------------------------------
# fibers of a skeleton


def fiber_multiset(s: Skeleton) -> Tuple[FiberType, ...]:
    # I_n per face of n black darts; an additive fiber per unstable vertex:
    # a black one of valency 1 or 2, and a univalent white one (a pendant)
    fibers = [simple_fiber(len(face), True) for face in s.faces]
    fibers += [simple_fiber(2 * len(c), False) for c in s.black if len(c) <= 2]
    fibers += [simple_fiber(3, False) for d, p in enumerate(s.partner) if d == p]
    return fiber_multiset_sorted(fibers)


def component_count(s: Skeleton) -> int:
    """Number of irreducible components of a trigonal curve with this
    skeleton, from the monodromy of the induced 3-sheeted cover: the orbits
    of the two sheet moves on the points 3 e + sheet, over the edges e, each
    numbered by its black dart."""
    # sheets permuted by (123) around 0 and (12) around 1
    move0 = [3 * e + t for e in s.succ for t in (1, 2, 0)]
    move1 = [3 * e + t for e in s.partner for t in (1, 0, 2)]
    return len(orbits(len(move0), [move0, move1]))


# ---------------------------------------------------------------------------
# elementary transformations and the stable-maximal table


def elementary_transform(fibers: Sequence[FiberType], target: FiberType) -> Tuple[FiberType, ...]:
    """Contract one copy of target, an A-fiber of Euler number e, into its
    quadratic twist: the additive fiber of Euler number e + 6, dihedral
    exactly when target is stable (I_m <-> I_m*, II <-> IV*, III <-> III*
    and IV <-> II*)."""
    fibers = list(fiber_multiset_sorted(fibers))
    if target not in fibers:
        raise ValueError(f"fiber {target.label()} not present")
    if target.family != "A":
        raise ValueError(f"fiber {target.label()} cannot be contracted")
    fibers.remove(target)
    fibers.append(simple_fiber(target.discriminant_degree() + 6, False, target.is_stable))
    return fiber_multiset_sorted(fibers)


class Table1Row(NamedTuple):
    fibers: Tuple[FiberType, ...]
    irreducible: bool
    isotrivial_degeneration: Optional[Tuple[FiberType, ...]]


def table1(skeletons: Optional[Callable[[int, int], List[Skeleton]]] = None) -> List[Table1Row]:
    """Fiber multisets of stable maximal trigonal curves in the second
    Hirzebruch surface, with irreducibility flags.  skeletons(k,
    max_unstable) lists the skeletons (enumerate_skeletons by default)."""
    skeletons = skeletons or enumerate_skeletons
    rows: Dict[Tuple[FiberType, ...], Table1Row] = {}

    def add(fibers, irreducible):
        fibers = fiber_multiset_sorted(fibers)
        # curves with an E-type fiber (and only these) degenerate
        # isotrivially, to the two-fiber set E~n plus its companion
        degen = None
        for f in fibers:
            if f.family == "E":
                degen = fiber_multiset_sorted([f, simple_fiber(12 - f.discriminant_degree(), False)])
        if fibers not in rows:
            rows[fibers] = Table1Row(fibers, irreducible, degen)
        elif rows[fibers].irreducible != irreducible:
            raise AssertionError("conflicting irreducibility for one multiset")

    for sk in skeletons(2, 0):
        add(fiber_multiset(sk), component_count(sk) == 1)
    for sk in skeletons(1, 1):
        fibers = fiber_multiset(sk)
        irr = component_count(sk) == 1
        unstable = [f for f in fibers if not f.is_stable]
        if unstable:
            add(elementary_transform(fibers, unstable[0]), irr)
        else:
            for target in sorted(set(fibers)):
                add(elementary_transform(fibers, target), irr)
    out = list(rows.values())
    out.sort(key=lambda r: r.fibers)
    return out
