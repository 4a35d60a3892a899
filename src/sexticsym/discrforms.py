"""Finite quadratic forms of even nondegenerate lattices.

A form lives on a finite abelian group written as a fixed direct sum of
cyclic groups Z_{d_i}; elements are integer coordinate tuples reduced mod
the orders.  Bilinear values are Fractions reduced into [0, 1), quadratic
values into [0, 2).  Subgroups are stored as explicitly sorted element
tuples, which makes equality and hashing trivial at the group sizes that
occur here (<= 3^9).

Bulk computations use one integer code per element, the mixed-radix number
whose digits are the coordinates (last coordinate fastest); codes therefore
sort exactly as the coordinate tuples do.  Only FiniteQuadraticForm knows
the radix (encode/decode, and block_codes/block_weights for the split of a
code into the codes of its direct summands); everything else goes through
it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .exactcore import (
    IntMatrix,
    _snf_extended,
    det,
    lattice_basis,
    mat_vec,
    rational_inverse,
    solve_integer,
)


def _mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


def _mod2(x: Fraction) -> Fraction:
    f = x / 2
    return 2 * (f - (f.numerator // f.denominator))


@dataclass(frozen=True)
class FiniteQuadraticForm:
    """Finite abelian group with Q/Z bilinear and Q/2Z quadratic form.

    blocks partitions the coordinate indices by originating component
    (one block per direct summand); a single-component form has one block.
    """

    orders: Tuple[int, ...]
    bilinear: Tuple[Tuple[Fraction, ...], ...]
    quadratic: Tuple[Fraction, ...]
    blocks: Tuple[Tuple[int, ...], ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.blocks is None:
            object.__setattr__(self, "blocks", (tuple(range(len(self.orders))),))

    @property
    def rank(self) -> int:
        return len(self.orders)

    def order(self) -> int:
        n = 1
        for d in self.orders:
            n *= d
        return n

    def reduce(self, x: Sequence[int]) -> Tuple[int, ...]:
        return tuple(int(c) % d for c, d in zip(x, self.orders))

    def zero(self) -> Tuple[int, ...]:
        return (0,) * self.rank

    def add(self, x, y) -> Tuple[int, ...]:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.orders))

    def neg(self, x) -> Tuple[int, ...]:
        return tuple((-a) % d for a, d in zip(x, self.orders))

    def sub(self, x, y) -> Tuple[int, ...]:
        return tuple((a - b) % d for a, b, d in zip(x, y, self.orders))

    def elements(self) -> Iterable[Tuple[int, ...]]:
        return itertools.product(*(range(d) for d in self.orders))

    @cached_property
    def weights(self) -> np.ndarray:
        """Radix weights: the code of x is sum_i x_i * weights[i]."""
        return np.array([math.prod(self.orders[i + 1:]) for i in range(self.rank)], dtype=np.int64)

    @cached_property
    def element_array(self) -> np.ndarray:
        """All elements as an (order, rank) array; row c is the element of code c."""
        codes = np.arange(self.order(), dtype=np.int64)[:, None]
        return codes // self.weights % np.array(self.orders, dtype=np.int64)

    def encode(self, x) -> np.ndarray:
        """Codes of coordinate vectors x of shape (..., rank), reduced first."""
        x = np.asarray(x, dtype=np.int64) % np.array(self.orders, dtype=np.int64)
        return x @ self.weights

    def decode(self, codes) -> Tuple[Tuple[int, ...], ...]:
        """Coordinate tuples of a 1-D sequence of codes, in the same order."""
        return tuple(map(tuple, self.element_array[codes].tolist()))

    @cached_property
    def code_dtype(self) -> np.dtype:
        """The narrowest unsigned type that holds every code."""
        return np.min_scalar_type(self.order() - 1)

    @cached_property
    def block_orders(self) -> np.ndarray:
        """Order of each block's summand."""
        return np.array([math.prod(self.orders[i] for i in blk) for blk in self.blocks], dtype=np.int64)

    @cached_property
    def block_weights(self) -> np.ndarray:
        """The code of x is the sum over blocks of its block code (the code
        of x's coordinates in that block, in the summand's own form) times
        the block's weight."""
        sizes = self.block_orders.tolist()
        return np.array([math.prod(sizes[c + 1:]) for c in range(len(sizes))], dtype=np.int64)

    def block_codes(self, codes) -> np.ndarray:
        """The (len(codes), number of blocks) array of block codes."""
        return np.asarray(codes, dtype=np.int64)[:, None] // self.block_weights % self.block_orders

    def row_keys(self, codes: np.ndarray) -> np.ndarray:
        """One key per row of a 2-D code array: its codes as big-endian
        digits of the narrowest unsigned type, so keys order as the rows
        do lexicographically."""
        digit = self.code_dtype.newbyteorder(">")
        row = np.dtype((np.void, digit.itemsize * codes.shape[1]))
        return np.ascontiguousarray(codes, dtype=digit).view(row).ravel()

    def b(self, x, y) -> Fraction:
        acc = Fraction(0)
        for i, xi in enumerate(x):
            if xi:
                row = self.bilinear[i]
                for j, yj in enumerate(y):
                    if yj:
                        acc += xi * yj * row[j]
        return _mod1(acc)

    def q(self, x) -> Fraction:
        acc = Fraction(0)
        for i, xi in enumerate(x):
            if xi:
                acc += xi * xi * self.quadratic[i]
                row = self.bilinear[i]
                for j in range(i + 1, len(x)):
                    if x[j]:
                        acc += 2 * xi * x[j] * row[j]
        return _mod2(acc)

    def validate(self) -> None:
        for i, d in enumerate(self.orders):
            if d < 2:
                raise ValueError("orders must be >= 2")
            for j in range(self.rank):
                if self.bilinear[i][j] != self.bilinear[j][i]:
                    raise ValueError("bilinear form not symmetric")
                if _mod1(d * self.bilinear[i][j]) != 0:
                    raise ValueError("bilinear value incompatible with order")
            if _mod1(self.quadratic[i]) != _mod1(self.bilinear[i][i]):
                raise ValueError("q(e_i) must lift b(e_i, e_i)")


def _adjoin(form: FiniteQuadraticForm, have: set, g: Tuple[int, ...]) -> set:
    """The subgroup generated by the subgroup `have` and the reduced element g.

    With j the least k >= 1 such that k*g lies in `have`, the cosets
    h + k*g (h in have, 0 <= k < j) are distinct and exhaust the result.
    """
    multiples = [form.zero()]
    x = g
    while x not in have:
        multiples.append(x)
        x = form.add(x, g)
    return {form.add(h, m) for h in have for m in multiples}


@dataclass(frozen=True)
class Subgroup:
    """Subgroup stored as its sorted tuple of elements."""

    elements: Tuple[Tuple[int, ...], ...]

    @classmethod
    def spanned(cls, form: FiniteQuadraticForm, gens: Iterable[Sequence[int]]) -> "Subgroup":
        have = {form.zero()}
        for g in gens:
            have = _adjoin(form, have, form.reduce(g))
        return cls(tuple(sorted(have)))

    @classmethod
    def trivial(cls, form: FiniteQuadraticForm) -> "Subgroup":
        return cls((form.zero(),))

    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x) -> bool:
        return tuple(x) in self._set

    @property
    def _set(self):
        s = getattr(self, "_cached_set", None)
        if s is None:
            s = frozenset(self.elements)
            object.__setattr__(self, "_cached_set", s)
        return s

    def generators(self, form: FiniteQuadraticForm) -> List[Tuple[int, ...]]:
        """A small generating set: each element, in sorted order, that is
        not yet in the span of the ones taken before it."""
        gens: List[Tuple[int, ...]] = []
        have = {form.zero()}
        for x in self.elements:
            if x not in have:
                gens.append(x)
                have = _adjoin(form, have, x)
                if len(have) == len(self.elements):
                    break
        return gens

    def is_subgroup_of(self, form: FiniteQuadraticForm) -> bool:
        s = self._set
        if form.zero() not in s:
            return False
        for x in s:
            if form.neg(x) not in s:
                return False
            for y in s:
                if form.add(x, y) not in s:
                    return False
        return True


@dataclass(frozen=True)
class Automorphism:
    """Automorphism given by generator images (rows: image of e_i)."""

    images: Tuple[Tuple[int, ...], ...]

    def apply(self, form: FiniteQuadraticForm, x: Sequence[int]) -> Tuple[int, ...]:
        acc = form.zero()
        for xi, im in zip(x, self.images):
            if xi:
                acc = form.add(acc, tuple((xi * c) % d for c, d in zip(im, form.orders)))
        return acc

    def code_table(self, form: FiniteQuadraticForm) -> np.ndarray:
        """Entry c is the code of the image of the element with code c."""
        mat = np.array(self.images, dtype=np.int64).reshape(form.rank, form.rank)
        return form.encode(form.element_array @ mat)

    def compose(self, form: FiniteQuadraticForm, other: "Automorphism") -> "Automorphism":
        """self after other."""
        return Automorphism(tuple(self.apply(form, im) for im in other.images))

    def is_identity(self, form: FiniteQuadraticForm) -> bool:
        return all(self.apply(form, g) == g for g in _generators(form))

    def preserves_form(self, form: FiniteQuadraticForm) -> bool:
        gens = _generators(form)
        for i, g in enumerate(gens):
            if form.q(self.apply(form, g)) != form.q(g):
                return False
            for h in gens[i:]:
                if form.b(self.apply(form, g), self.apply(form, h)) != form.b(g, h):
                    return False
        return True


def _generators(form: FiniteQuadraticForm) -> List[Tuple[int, ...]]:
    n = form.rank
    return [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]


def identity_automorphism(form: FiniteQuadraticForm) -> Automorphism:
    return Automorphism(tuple(_generators(form)))


def minus_identity(form: FiniteQuadraticForm) -> Automorphism:
    return Automorphism(tuple(form.neg(g) for g in _generators(form)))


def apply_automorphism(form: FiniteQuadraticForm, a: Automorphism, x):
    """Image of an element or Subgroup under a."""
    if isinstance(x, Subgroup):
        return Subgroup(tuple(sorted(a.apply(form, e) for e in x.elements)))
    return a.apply(form, x)


# ---------------------------------------------------------------------------
# discriminant form of an even lattice


@dataclass(frozen=True)
class DiscriminantData:
    """discriminant form plus the coordinate maps.

    proj: rows of the projection Z^n (dual-basis coords) -> canonical coords.
    lifts: representative dual-coordinate vectors of the canonical generators.
    """

    form: FiniteQuadraticForm
    proj: Tuple[Tuple[int, ...], ...]
    lifts: Tuple[Tuple[int, ...], ...]

    def project(self, x: Sequence[int]) -> Tuple[int, ...]:
        return self.form.reduce(mat_vec([list(r) for r in self.proj], list(x)))


def discriminant_form(gram: IntMatrix) -> DiscriminantData:
    """Discriminant quadratic form of an even nondegenerate Gram matrix."""
    n = len(gram)
    for i in range(n):
        if gram[i][i] % 2 != 0:
            raise ValueError("Gram matrix must be even")
        for j in range(n):
            if gram[i][j] != gram[j][i]:
                raise ValueError("Gram matrix must be symmetric")
    if det(gram) == 0:
        raise ValueError("Gram matrix must be nondegenerate")

    d, u, _, uinv, _ = _snf_extended(gram)
    ginv = rational_inverse(gram)
    nontrivial = [i for i in range(n) if d[i][i] > 1]
    orders = tuple(d[i][i] for i in nontrivial)
    proj = tuple(tuple(u[i][j] for j in range(n)) for i in nontrivial)
    lifts = tuple(tuple(uinv[r][i] for r in range(n)) for i in nontrivial)

    def pair(x, y) -> Fraction:
        acc = Fraction(0)
        for i in range(n):
            if x[i]:
                row = ginv[i]
                for j in range(n):
                    if y[j]:
                        acc += x[i] * row[j] * y[j]
        return acc

    bil = tuple(
        tuple(_mod1(pair(lifts[i], lifts[j])) for j in range(len(orders)))
        for i in range(len(orders))
    )
    quad = tuple(_mod2(pair(lifts[i], lifts[i])) for i in range(len(orders)))
    form = FiniteQuadraticForm(orders, bil, quad)
    form.validate()
    return DiscriminantData(form, proj, lifts)


def direct_sum(parts: Sequence[FiniteQuadraticForm]) -> FiniteQuadraticForm:
    """Orthogonal direct sum; each summand becomes one coordinate block."""
    orders: List[int] = []
    blocks: List[Tuple[int, ...]] = []
    for p in parts:
        start = len(orders)
        orders.extend(p.orders)
        blocks.append(tuple(range(start, start + p.rank)))
    n = len(orders)
    bil = [[Fraction(0)] * n for _ in range(n)]
    quad: List[Fraction] = []
    for p, blk in zip(parts, blocks):
        for a, i in enumerate(blk):
            quad.append(p.quadratic[a])
            for b, j in enumerate(blk):
                bil[i][j] = p.bilinear[a][b]
    return FiniteQuadraticForm(
        tuple(orders), tuple(tuple(r) for r in bil), tuple(quad), tuple(blocks)
    )


# ---------------------------------------------------------------------------
# subgroup operations


def orthogonal_complement(form: FiniteQuadraticForm, h: Subgroup) -> Subgroup:
    if not h.is_subgroup_of(form):
        raise ValueError("h is not closed under the group law")
    # b scaled by the common denominator L = lcm(orders) is an integer matrix
    m = form.rank
    lcm = math.lcm(*form.orders)
    bint = np.array(
        [[int(form.bilinear[i][j] * lcm) for j in range(m)] for i in range(m)],
        dtype=np.int64,
    )
    elems = form.element_array
    mask = np.ones(len(elems), dtype=bool)
    for g in h.generators(form):
        col = bint @ np.array(g, dtype=np.int64) % lcm
        mask &= (elems @ col) % lcm == 0
    return Subgroup(form.decode(np.nonzero(mask)[0]))


def is_isotropic(form: FiniteQuadraticForm, k: Subgroup) -> bool:
    return all(form.q(x) == 0 for x in k.elements)


@dataclass(frozen=True)
class QuotientData:
    """Quadratic form on K^perp/K with ambient representatives of its generators."""

    form: FiniteQuadraticForm
    reps: Tuple[Tuple[int, ...], ...]


def quotient_form(form: FiniteQuadraticForm, k: Subgroup) -> QuotientData:
    if not is_isotropic(form, k):
        raise ValueError("kernel subgroup is not isotropic")
    n = form.rank
    kperp = orthogonal_complement(form, k)
    dvecs = [[form.orders[i] if j == i else 0 for j in range(n)] for i in range(n)]
    a = lattice_basis([list(g) for g in kperp.generators(form)] + dvecs, n)
    bmat = lattice_basis([list(g) for g in k.generators(form)] + dvecs, n)
    # c = a^{-1} b, integral since K subset of K^perp
    ct = [solve_integer(a, [bmat[i][j] for i in range(n)]) for j in range(n)]
    c = [[ct[j][i] for j in range(n)] for i in range(n)]
    d, _, _, uinv, _ = _snf_extended(c)
    nontrivial = tuple(i for i in range(n) if d[i][i] > 1)
    orders = tuple(d[i][i] for i in nontrivial)
    reps = []
    for i in nontrivial:
        vec = [sum(a[r][t] * uinv[t][i] for t in range(n)) for r in range(n)]
        reps.append(form.reduce(vec))
    bil = tuple(
        tuple(_mod1(form.b(reps[i], reps[j])) for j in range(len(reps)))
        for i in range(len(reps))
    )
    quad = tuple(form.q(r) for r in reps)
    qf = FiniteQuadraticForm(orders, bil, quad)
    qf.validate()
    expected = form.order() // (k.order() ** 2)
    if qf.order() != expected:
        raise AssertionError("quotient order mismatch")
    return QuotientData(qf, tuple(reps))


# ---------------------------------------------------------------------------
# isotropic (Z_p)^rank subgroups with full support


@dataclass(frozen=True)
class TorsionSpace:
    """The p-torsion of a form as an F_p quadratic space.

    basis[i] is the ambient element (order p) behind coordinate i;
    qvec[i] in F_p encodes q(basis[i]) = 2*qvec[i]/p mod 2 (p odd);
    bmat[i][j] in F_p encodes b as p*b(basis[i], basis[j]) mod p.
    """

    p: int
    basis: Tuple[Tuple[int, ...], ...]
    qvec: Tuple[int, ...]
    bmat: Tuple[Tuple[int, ...], ...]
    coord_block: Tuple[int, ...]  # block index of each torsion coordinate


def torsion_space(form: FiniteQuadraticForm, p: int) -> TorsionSpace:
    if p == 2:
        raise ValueError("only odd p supported (kernels are free of 2-torsion)")
    idx = [i for i in range(form.rank) if form.orders[i] % p == 0]
    basis = []
    for i in idx:
        v = [0] * form.rank
        v[i] = form.orders[i] // p
        basis.append(tuple(v))
    inv2 = pow(2, -1, p)
    qvec = []
    for t in basis:
        qv = form.q(t)  # = 2a/p mod 2 for some a
        a = (qv * p / 2)
        if a.denominator != 1:
            raise AssertionError("unexpected q denominator on p-torsion")
        qvec.append(a.numerator % p)
    bmat = []
    for t in basis:
        row = []
        for s in basis:
            bv = form.b(t, s) * p
            if bv.denominator != 1:
                raise AssertionError("unexpected b denominator on p-torsion")
            row.append(bv.numerator % p)
        bmat.append(tuple(row))
    block_of = {}
    for bi, blk in enumerate(form.blocks):
        for i in blk:
            block_of[i] = bi
    return TorsionSpace(p, tuple(basis), tuple(qvec), tuple(bmat), tuple(block_of[i] for i in idx))


def _rref_mod_p(rows: np.ndarray, p: int) -> np.ndarray:
    a = rows.copy() % p
    r = 0
    nrows, ncols = a.shape
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if a[i, c]:
                piv = i
                break
        if piv is None:
            continue
        a[[r, piv]] = a[[piv, r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, p)) % p
        for i in range(nrows):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        r += 1
        if r == nrows:
            break
    return a


def _chains(C: np.ndarray, k: int) -> np.ndarray:
    """All index tuples (t_0, ..., t_{k-1}) with C[t_i, t_j] for every i < j,
    as a (N, k) array in lexicographic order.

    The later entries of a tuple starting at t all lie in row t of C, so
    its tails are the (k-1)-tuples of C restricted to that row's indices.
    """
    if k <= 2:
        return np.arange(len(C))[:, None] if k == 1 else np.argwhere(C)
    parts = [np.empty((0, k), dtype=np.intp)]
    for t in range(len(C)):
        nbrs = np.flatnonzero(C[t])
        tails = nbrs[_chains(C[np.ix_(nbrs, nbrs)], k - 1)]
        parts.append(np.column_stack([np.full(len(tails), t), tails]))
    return np.concatenate(parts)


def isotropic_subspaces(space: TorsionSpace, rank: int, full_support: bool = True) -> np.ndarray:
    """All totally isotropic rank-dim F_p subspaces, as RREF basis matrices.

    Returns an array of shape (N, rank, m).  With full_support, every block
    of the ambient form must receive a nonzero projection.

    A subspace is its RREF basis: isotropic vectors t_0, ..., t_{rank-1}
    with leading coefficient 1, pivots increasing, each zero at the pivots
    of the others, pairwise orthogonal.  Every condition is on a pair of
    rows, so one boolean matrix C over the normalized isotropic vectors
    holds them all, and the bases are the index tuples that C allows
    pairwise.  They are enumerated level by level with whole-array steps
    (_chains): the last level is one np.argwhere over a submatrix of C,
    and each level above it restricts C to the vectors its first entry
    allows.  Rows come out in lexicographic order of the index tuples,
    which is the order of the bases' rows as vectors.
    """
    p, m = space.p, len(space.basis)
    if rank == 0:
        return np.zeros((1, 0, m), dtype=np.int64)
    if m < rank:
        return np.zeros((0, rank, m), dtype=np.int64)
    # all of F_p^m in itertools.product order (last coordinate fastest)
    vecs = np.arange(p**m, dtype=np.int64)[:, None] // p ** np.arange(m - 1, -1, -1) % p
    B = np.array(space.bmat, dtype=np.int64)
    # x B x^T = 2*Q(x) mod p  (B symmetric, diag 2q_i), so Q(x) = 0 iff it is 0
    iso = ((vecs @ B) * vecs).sum(axis=1) % p == 0
    nonzero = vecs != 0
    piv = nonzero.argmax(axis=1)
    cand = iso & nonzero.any(axis=1) & (vecs[np.arange(len(vecs)), piv] == 1)
    I, Ipiv = vecs[cand], piv[cand]

    # C[a, b]: t_b may follow t_a in an RREF basis of an isotropic subspace;
    # built in row chunks so the Gram product stays small
    C = np.empty((len(I), len(I)), dtype=bool)
    IB = I @ B % p
    for lo in range(0, len(I), 1024):
        a = slice(lo, lo + 1024)
        C[a] = (
            (Ipiv[None, :] > Ipiv[a, None])
            & (I[:, Ipiv[a]].T == 0)
            & (I[a][:, Ipiv] == 0)
            & (IB[a] @ I.T % p == 0)
        )

    front = _chains(C, rank)
    if full_support:
        coord_block = np.array(space.coord_block, dtype=np.int64)
        bits = np.bitwise_or.reduce(np.where(I != 0, 1 << coord_block, 0), axis=1)
        support = np.bitwise_or.reduce(bits[front], axis=1)
        front = front[support == (1 << (int(coord_block.max()) + 1)) - 1]
    return I[front]


def subgroup_codes(form: FiniteQuadraticForm, space: TorsionSpace,
                   bases: np.ndarray) -> np.ndarray:
    """The subgroups spanned by F_p subspaces of space, as code rows.

    bases is an (N, rank, m) array of basis matrices (isotropic_subspaces).
    Row i of the (N, p^rank) result holds the sorted element codes of the
    subgroup of bases[i]; rows are in lexicographic order, which is the
    order of the subgroups' sorted element tuples.
    """
    p = space.p
    n_sub, rank, m = bases.shape
    combos = np.array(list(itertools.product(range(p), repeat=rank)), dtype=np.int64)
    # each torsion basis vector sits on its own ambient coordinate, with a
    # digit below that coordinate's order, so codes are linear in the
    # reduced torsion coordinates
    basis_codes = form.encode(np.array(space.basis, dtype=np.int64).reshape(m, form.rank))
    enc = np.empty((n_sub, len(combos)), dtype=form.code_dtype)
    # chunked: 9A2's 555,520 bases at once would make a (555520, 27, 9)
    # int64 coordinate array of ~1 GB; a chunk of 16,384 keeps it at ~30 MB
    chunk = 16384
    for lo in range(0, n_sub, chunk):
        tcoords = combos @ bases[lo:lo + chunk] % p
        enc[lo:lo + chunk] = np.sort(tcoords @ basis_codes, axis=1)
    return enc[np.argsort(form.row_keys(enc))]


def isotropic_subgroups(form: FiniteQuadraticForm, p: int, rank: int,
                        full_support: bool = True) -> List[Subgroup]:
    """All isotropic (Z_p)^rank subgroups, optionally with full block support.

    Deterministic order (sorted by element lists).  For very large searches
    prefer working with isotropic_subspaces directly.
    """
    space = torsion_space(form, p)
    if rank >= 1 and full_support:
        hit = set(space.coord_block)
        if hit != set(range(len(form.blocks))):
            return []
    bases = isotropic_subspaces(space, rank, full_support=full_support)
    return [Subgroup(form.decode(row)) for row in subgroup_codes(form, space, bases)]
