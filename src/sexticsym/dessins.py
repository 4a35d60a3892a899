"""Skeletons of trigonal curves: bipartite genus-0 combinatorial maps,
their singular-fiber content, monodromy component counts, and the
elementary-transformation bookkeeping.

A skeleton is stored as a full bipartite map: rotation sigma (counter-
clockwise dart order at each vertex), pairing alpha (fixed-point-free
involution matching the two darts of each edge), and a color per dart
(the vertex it is based at).  Bivalent white vertices on black-black
adjacencies are always materialized, so the edge count equals the degree
of the j-map (12 for curves in the second Hirzebruch surface).

Enumeration fixes the black vertices (b3 trivalent, then b2 bivalent, then
b1 univalent, darts numbered consecutively), picks the pendant darts and
then a perfect matching of the other black darts, both in lexicographic
order, and keeps the first candidate of each canonical form.  Two
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

A candidate is checked for connectivity and genus 0 on these reduced data,
before its full map is built.  Every edge of the full map has one black
dart, so E is the number of black darts, and V is the number of rotations
plus one white vertex per matched pair and per pendant.  A white vertex
hangs on one black vertex or joins the two black vertices of its pair, so
the map is connected exactly when the matched pairs join all the black
vertices.  Let partner(d) be the other dart of d's pair, or d itself for a
pendant.  In the full map phi = sigma alpha sends a black dart d to a white
dart and that one to sigma(partner(d)), and every white dart follows a
black one, so the faces are the cycles of psi(d) = sigma(partner(d)) on the
black darts: F is their number, and the candidate is a sphere exactly when
it is connected and V - E + F = 2.  validate() still checks the full map of
every kept skeleton.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple


# ---------------------------------------------------------------------------
# fiber types


@dataclass(frozen=True, order=True)
class FiberType:
    family: str  # A | D | E | J
    index: int
    stars: int = 0  # A0*, A0**, A1*, A2* carry 1 or 2 stars

    def __post_init__(self):
        ok = (
            (self.family == "A" and self.index >= 1 and self.stars == 0)
            or (self.family == "A" and (self.index, self.stars) in ((0, 1), (0, 2), (1, 1), (2, 1)))
            or (self.family == "D" and self.index >= 4 and self.stars == 0)
            or (self.family == "E" and self.index in (6, 7, 8) and self.stars == 0)
            or (self.family == "J" and self.stars == 0)  # NonSimple marker
        )
        if not ok:
            raise ValueError(f"invalid fiber type {self.family}{self.index}{'*' * self.stars}")

    def label(self) -> str:
        if self.family == "J":
            return "NonSimple"
        if self.stars:
            return f"{self.family}{self.index}" + "*" * self.stars
        return f"{self.family}{self.index}~"

    @property
    def is_stable(self) -> bool:
        return not (self.family == "A" and self.stars and (self.index, self.stars) != (0, 1))

    def discriminant_degree(self) -> int:
        if self.family == "A":
            if self.stars:
                return {(0, 1): 1, (0, 2): 2, (1, 1): 3, (2, 1): 4}[(self.index, self.stars)]
            return self.index + 1
        if self.family == "D":
            return self.index + 2
        if self.family == "E":
            return self.index + 2
        raise ValueError("no degree for non-simple fibers")

    def milnor(self) -> int:
        if self.family == "A":
            if self.stars:
                return {(0, 1): 0, (0, 2): 0, (1, 1): 1, (2, 1): 2}[(self.index, self.stars)]
            return self.index
        if self.family in ("D", "E"):
            return self.index
        raise ValueError("Milnor number undefined for non-simple fibers")


NON_SIMPLE = FiberType("J", 0)

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


@dataclass(frozen=True)
class Skeleton:
    """A map, with its vertex cycles, faces and canonical form each computed
    at most once, on first use."""

    sigma: Tuple[int, ...]
    alpha: Tuple[int, ...]
    color: Tuple[str, ...]  # per dart: 'b' or 'w'

    @property
    def n_darts(self) -> int:
        return len(self.sigma)

    def validate(self) -> None:
        n = self.n_darts
        if sorted(self.sigma) != list(range(n)):
            raise ValueError("sigma is not a permutation")
        for d in range(n):
            if self.alpha[d] == d or self.alpha[self.alpha[d]] != d:
                raise ValueError("alpha is not a fixed-point-free involution")
            if self.color[d] == self.color[self.alpha[d]]:
                raise ValueError("an edge joins two vertices of one color")
        for cyc in self.vertex_cycles():
            if len({self.color[d] for d in cyc}) != 1:
                raise ValueError("vertex with mixed dart colors")
            if self.color[cyc[0]] == "b" and len(cyc) > 3:
                raise ValueError("black valency above 3")
            if self.color[cyc[0]] == "w" and len(cyc) > 2:
                raise ValueError("white valency above 2")
        if not self.is_connected():
            raise ValueError("skeleton not connected")
        v = len(self.vertex_cycles())
        e = self.n_darts // 2
        f = len(self.faces())
        if v - e + f != 2:
            raise ValueError("skeleton not of genus 0")

    @cached_property
    def _vertex_cycles(self) -> Tuple[Tuple[int, ...], ...]:
        return _cycles(self.sigma)

    @cached_property
    def _faces(self) -> Tuple[Tuple[int, ...], ...]:
        sigma, alpha = self.sigma, self.alpha
        return _cycles([sigma[a] for a in alpha])

    @cached_property
    def key(self) -> Tuple:
        """canonical_form(), the enumeration's deduplication key."""
        return self.canonical_form()

    def vertex_cycles(self) -> Tuple[Tuple[int, ...], ...]:
        return self._vertex_cycles

    def is_connected(self) -> bool:
        n = self.n_darts
        if n == 0:
            return False
        seen = {0}
        stack = [0]
        while stack:
            d = stack.pop()
            for e in (self.sigma[d], self.alpha[d]):
                if e not in seen:
                    seen.add(e)
                    stack.append(e)
        return len(seen) == n

    def faces(self) -> Tuple[Tuple[int, ...], ...]:
        """Orbits of sigma composed with alpha."""
        return self._faces

    def unstable_vertices(self) -> List[Tuple[str, int]]:
        """(kind, valency) of each unstable vertex: black of valency <= 2
        or white of valency 1."""
        out = []
        for cyc in self.vertex_cycles():
            col, val = self.color[cyc[0]], len(cyc)
            if col == "b" and val <= 2:
                out.append(("b", val))
            elif col == "w" and val == 1:
                out.append(("w", val))
        return out

    def canonical_form(self) -> Tuple:
        """Lexicographically minimal breadth-first relabeling (sig, alp, col),
        over the starting darts at black vertices (orientation preserving).

        A start at a black vertex of valency 1, 2 or 3 gives sig = (0, ...),
        (1, 0, ...) or (1, 3, ...), so only the vertices of least valency
        can give the least relabeling.  sig[i] is known once the dart
        labeled i is reached, so a start is dropped as soon as its sig
        prefix exceeds the best one, before col is built."""
        n, sigma, alpha, color = self.n_darts, self.sigma, self.alpha, self.color
        black = [c for c in self.vertex_cycles() if color[c[0]] == "b"]
        least = min((len(c) for c in black), default=0)
        best = best_sig = None
        for start in (d for c in black if len(c) == least for d in c):
            lab, order, sig, alp = [-1] * n, [start], [], []
            lab[start], m = 0, 1  # m darts are labeled
            tie = best is not None  # sig is a prefix of best's
            for i, d in enumerate(order):  # order grows as darts are reached
                s, a = sigma[d], alpha[d]  # of opposite colors, so s != a
                x, y = lab[s], lab[a]
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
                if tie and x != best_sig[i]:
                    if x > best_sig[i]:
                        break
                    tie = False
            else:
                cand = (tuple(sig), tuple(alp), tuple([color[d] for d in order]))
                if best is None or cand < best:
                    best, best_sig = cand, cand[0]
        return best

    def mirror(self) -> "Skeleton":
        inv = [0] * self.n_darts
        for d in range(self.n_darts):
            inv[self.sigma[d]] = d
        return Skeleton(tuple(inv), self.alpha, self.color)

    def is_mirror_symmetric(self) -> bool:
        return self.key == self.mirror().canonical_form()

    def to_json(self) -> dict:
        cycles = self.vertex_cycles()
        return {
            "darts": self.n_darts,
            "sigma": [list(c) for c in cycles],
            "alpha": sorted([d, a] for d, a in enumerate(self.alpha) if d < a),
            "color": {str(c[0]): self.color[c[0]] for c in cycles},
        }


def _cycles(perm: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    seen = [False] * len(perm)
    out = []
    for d in range(len(perm)):
        if seen[d]:
            continue
        cyc = []
        e = d
        while not seen[e]:
            seen[e] = True
            cyc.append(e)
            e = perm[e]
        out.append(tuple(cyc))
    return tuple(out)


# ---------------------------------------------------------------------------
# enumeration


def _reduced_to_skeleton(rot: List[Tuple[int, ...]], matching: List[Tuple[int, int]],
                         pendants: List[int]) -> Skeleton:
    """Build the full bipartite map from black rotations, a matching of
    black darts (edges through implicit bivalent whites) and pendant black
    darts (edges to 1-valent whites)."""
    nb = sum(len(c) for c in rot)
    # white darts appended after the black ones
    sigma = [0] * nb
    color = ["b"] * nb
    alpha = [0] * nb
    for cyc in rot:
        for i, d in enumerate(cyc):
            sigma[d] = cyc[(i + 1) % len(cyc)]
    nxt = nb
    sig_extra: List[int] = []
    for a, b in matching:
        wa, wb = nxt, nxt + 1
        nxt += 2
        sig_extra.extend([wb, wa])  # bivalent white: (wa wb)
        alpha[a] = wa
        alpha[b] = wb
        alpha.extend([0, 0])
        alpha[wa] = a
        alpha[wb] = b
        color.extend(["w", "w"])
    for d in pendants:
        w = nxt
        nxt += 1
        sig_extra.append(w)  # univalent white: fixed by sigma
        alpha[d] = w
        alpha.append(d)
        color.append("w")
    return Skeleton(tuple(sigma + sig_extra), tuple(alpha), tuple(color))


def enumerate_skeletons(k: int, max_unstable: int) -> List[Skeleton]:
    """All genus-0 skeletons for curves in the k-th Hirzebruch surface with
    at most max_unstable unstable vertices, up to orientation-preserving
    isomorphism.  2k = b1 + 2 b2 + b3 + w1 over the vertex valencies."""
    if k not in (1, 2):
        raise ValueError("only k = 1 and k = 2 are supported")
    results: Dict[Tuple, Skeleton] = {}
    for b1 in range(2 * k + 1):
        for b2 in range((2 * k - b1) // 2 + 1):
            for w1 in range(2 * k - b1 - 2 * b2 + 1):
                b3 = 2 * k - b1 - 2 * b2 - w1
                if b1 + b2 + w1 > max_unstable:
                    continue
                if b1 + b2 + b3 == 0:
                    continue
                # black darts, valency-grouped
                rot: List[Tuple[int, ...]] = []
                pos = 0
                for val, cnt in ((3, b3), (2, b2), (1, b1)):
                    for _ in range(cnt):
                        rot.append(tuple(range(pos, pos + val)))
                        pos += val
                ndarts = pos
                if ndarts < w1 or (ndarts - w1) % 2 != 0:
                    continue
                vertex = [v for v, cyc in enumerate(rot) for _ in cyc]
                for pend in _orbit_pendants(list(range(ndarts)), w1, rot, vertex, frozenset()):
                    rest = [d for d in range(ndarts) if d not in pend]
                    touched = frozenset(vertex[d] for d in pend)
                    for matching in _orbit_matchings(rest, rot, vertex, touched):
                        if not _is_sphere(rot, vertex, matching, pend):
                            continue
                        sk = _reduced_to_skeleton(rot, matching, pend)
                        if sk.key not in results:
                            sk.validate()
                            results[sk.key] = sk
    return [results[key] for key in sorted(results)]


def _is_sphere(rot: Sequence[Tuple[int, ...]], vertex: Sequence[int], matching: Sequence[Tuple[int, int]],
               pendants: Sequence[int]) -> bool:
    """Whether the map _reduced_to_skeleton builds from these data is
    connected and of genus 0, read off the black darts alone (see the
    module docstring)."""
    nb = len(vertex)
    partner = list(range(nb))  # a pendant is its own partner
    root = list(range(len(rot)))  # union-find over the black vertices
    joins = 0
    for a, b in matching:
        partner[a], partner[b] = b, a
        x, y = vertex[a], vertex[b]
        while root[x] != x:
            x = root[x]
        while root[y] != y:
            y = root[y]
        if x != y:
            root[x] = y
            joins += 1
    if joins != len(rot) - 1:
        return False
    succ = [0] * nb  # sigma on the black darts
    for cyc in rot:
        for d, e in zip(cyc, cyc[1:] + cyc[:1]):
            succ[d] = e
    seen, faces = [False] * nb, 0
    for d in range(nb):  # the cycles of psi(d) = sigma(partner(d))
        if not seen[d]:
            faces += 1
            while not seen[d]:
                seen[d] = True
                d = succ[partner[d]]
    # V - E + F over V = rotations + pairs + pendants and E = black darts
    return len(rot) + len(matching) + len(pendants) - nb + faces == 2


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
    fibers: List[FiberType] = []
    for face in s.faces():
        p = sum(1 for d in face if s.color[d] == "b")
        fibers.append(FiberType("A", 0, 1) if p == 1 else FiberType("A", p - 1))
    for kind, val in s.unstable_vertices():
        if kind == "b" and val == 1:
            fibers.append(FiberType("A", 0, 2))
        elif kind == "b" and val == 2:
            fibers.append(FiberType("A", 2, 1))
        else:
            fibers.append(FiberType("A", 1, 1))
    return fiber_multiset_sorted(fibers)


def component_count(s: Skeleton) -> int:
    """Number of irreducible components of a trigonal curve with this
    skeleton, from the monodromy of the induced 3-sheeted cover: the orbits
    of the two sheet moves on the points 3 e + sheet, over the edges e."""
    sigma, alpha, color = s.sigma, s.alpha, s.color
    # edges = alpha-orbits; index by the black-based dart
    black = [d for d in range(s.n_darts) if color[d] == "b"]
    edge = [-1] * s.n_darts
    for i, d in enumerate(black):
        edge[d] = i
    g_w = list(range(len(black)))
    for cyc in s.vertex_cycles():
        if len(cyc) == 2 and color[cyc[0]] == "w":
            a, b = edge[alpha[cyc[0]]], edge[alpha[cyc[1]]]
            g_w[a], g_w[b] = b, a
    # sheets permuted by (123) around 0 and (12) around 1
    move0 = [3 * edge[sigma[d]] + t for d in black for t in (1, 2, 0)]
    move1 = [3 * e + t for e in g_w for t in (1, 0, 2)]
    seen = [False] * len(move0)
    orbits = 0
    for x in range(len(move0)):
        if seen[x]:
            continue
        orbits += 1
        seen[x] = True
        stack = [x]
        while stack:
            y = stack.pop()
            z = move0[y]
            if not seen[z]:
                seen[z] = True
                stack.append(z)
            z = move1[y]
            if not seen[z]:
                seen[z] = True
                stack.append(z)
    return orbits


# ---------------------------------------------------------------------------
# elementary transformations and the stable-maximal table


_CONTRACTION = {
    FiberType("A", 0, 1): FiberType("D", 5),
    FiberType("A", 0, 2): FiberType("E", 6),
    FiberType("A", 1, 1): FiberType("E", 7),
    FiberType("A", 2, 1): FiberType("E", 8),
}


def elementary_transform(fibers: Sequence[FiberType], target: FiberType) -> Tuple[FiberType, ...]:
    """Contract one copy of target: stable A-fibers gain four Milnor units
    and become D-fibers, unstable fibers become E-fibers."""
    fibers = list(fiber_multiset_sorted(fibers))
    if target not in fibers:
        raise ValueError(f"fiber {target.label()} not present")
    if target in _CONTRACTION:
        repl = _CONTRACTION[target]
    elif target.family == "A" and target.stars == 0:
        repl = FiberType("D", 4 + target.index + 1)
    else:
        raise ValueError(f"fiber {target.label()} cannot be contracted")
    fibers.remove(target)
    fibers.append(repl)
    return fiber_multiset_sorted(fibers)


_ISOTRIVIAL_DEGENERATION = {
    FiberType("E", 8): FiberType("A", 0, 2),
    FiberType("E", 7): FiberType("A", 1, 1),
    FiberType("E", 6): FiberType("A", 2, 1),
}


@dataclass(frozen=True)
class Table1Row:
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
            if f in _ISOTRIVIAL_DEGENERATION:
                degen = fiber_multiset_sorted([f, _ISOTRIVIAL_DEGENERATION[f]])
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
