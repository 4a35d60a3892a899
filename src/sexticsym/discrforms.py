"""Finite quadratic forms of even nondegenerate lattices.

A form lives on a finite abelian group written as a fixed direct sum of
cyclic groups Z_{d_i}.  Bilinear values are Fractions reduced into [0, 1),
quadratic values into [0, 2).

Elements, subgroups and automorphisms are held as integer codes: the code
of an element is the mixed-radix number whose digits are its coordinates
(last coordinate fastest), so codes sort exactly as the coordinate tuples
do.  A subgroup is its sorted tuple of codes, and an automorphism is its
code table (entry c is the code of the image of code c).  Only
FiniteQuadraticForm knows the radix (encode/decode, add_codes, and
block_codes/block_weights for the split of a code into the codes of its
direct summands).  Coordinate tuples appear only at the boundary: callers'
generators, exact q and b evaluation, and the lattice step of
quotient_form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

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

    def add_codes(self, x, y) -> np.ndarray:
        """Code of the sum of the elements of codes x and y (broadcast)."""
        return self.encode(self.element_array[x] + self.element_array[y])

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


def _adjoin(form: FiniteQuadraticForm, have: np.ndarray, g: int) -> np.ndarray:
    """The subgroup generated by the subgroup `have` (sorted codes) and the
    element of code g, as sorted codes.

    With j the least k >= 1 such that k*g lies in `have`, the cosets
    h + k*g (h in have, 0 <= k < j) are distinct and exhaust the result.
    """
    multiples = [0]
    x = g
    while x not in have:
        multiples.append(x)
        x = int(form.add_codes(x, g))
    return np.sort(form.add_codes(have[:, None], multiples), axis=None)


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of a form, stored as its sorted tuple of element codes."""

    form: FiniteQuadraticForm = field(repr=False, hash=False)
    codes: Tuple[int, ...]

    @classmethod
    def spanned(cls, form: FiniteQuadraticForm, gens: Iterable[Sequence[int]]) -> "Subgroup":
        """The subgroup generated by the coordinate vectors gens."""
        have = np.zeros(1, dtype=np.int64)
        for g in gens:
            have = _adjoin(form, have, int(form.encode(g)))
        return cls(form, tuple(have.tolist()))

    @classmethod
    def trivial(cls, form: FiniteQuadraticForm) -> "Subgroup":
        return cls(form, (0,))

    def order(self) -> int:
        return len(self.codes)

    def __contains__(self, x) -> bool:
        """Whether the coordinate vector x lies in the subgroup."""
        return int(self.form.encode(x)) in self.codes

    @property
    def elements(self) -> Tuple[Tuple[int, ...], ...]:
        """The elements as coordinate tuples, in sorted order."""
        return self.form.decode(list(self.codes))

    def generators(self) -> List[Tuple[int, ...]]:
        """A small generating set, as coordinate tuples: each element, in
        sorted order, that is not yet in the span of the ones taken before it."""
        gens: List[int] = []
        have = np.zeros(1, dtype=np.int64)
        for x in self.codes:
            if len(have) == len(self.codes):
                break
            if x not in have:
                gens.append(x)
                have = _adjoin(self.form, have, x)
        return list(self.form.decode(gens))

    def is_subgroup_of(self, form: FiniteQuadraticForm) -> bool:
        """Whether the codes are a subgroup of form: strictly increasing,
        in range, and closed under addition (which suffices for a finite
        nonempty subset)."""
        c = np.array(self.codes, dtype=np.int64)
        if self.form != form or len(c) == 0 or c[0] < 0 or c[-1] >= form.order():
            return False
        return bool((np.diff(c) > 0).all() and np.isin(form.add_codes(c[:, None], c), c).all())


def preserves_form(form: FiniteQuadraticForm, table: np.ndarray) -> bool:
    """Whether the automorphism with this code table is an isometry.

    q determines b, so comparing q on every element suffices.
    """
    q = [form.q(x) for x in form.elements()]  # in code order
    return all(q[t] == qc for t, qc in zip(table.tolist(), q))


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

    def project(self, x: Sequence[int]) -> int:
        """Code of the class of the dual-coordinate vector x."""
        return int(self.form.encode(mat_vec([list(r) for r in self.proj], list(x))))


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
    ).reshape(m, m)
    elems = form.element_array
    mask = (elems @ bint @ elems[list(h.codes)].T % lcm == 0).all(axis=1)
    return Subgroup(form, tuple(np.flatnonzero(mask).tolist()))


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
    a = lattice_basis([list(g) for g in kperp.generators()] + dvecs, n)
    bmat = lattice_basis([list(g) for g in k.generators()] + dvecs, n)
    # c = a^{-1} b, integral since K subset of K^perp
    ct = [solve_integer(a, [bmat[i][j] for i in range(n)]) for j in range(n)]
    c = [[ct[j][i] for j in range(n)] for i in range(n)]
    d, _, _, uinv, _ = _snf_extended(c)
    nontrivial = tuple(i for i in range(n) if d[i][i] > 1)
    orders = tuple(d[i][i] for i in nontrivial)
    vecs = [[sum(a[r][t] * uinv[t][i] for t in range(n)) for r in range(n)] for i in nontrivial]
    reps = form.decode(form.encode(np.array(vecs, dtype=np.int64).reshape(len(vecs), n)))
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
    bmat[i][j] in F_p encodes b as p*b(basis[i], basis[j]) mod p, so its
    diagonal is 2q (p odd).  n_blocks is the number of blocks of the form,
    including those without p-torsion.
    """

    p: int
    basis: Tuple[Tuple[int, ...], ...]
    bmat: Tuple[Tuple[int, ...], ...]
    coord_block: Tuple[int, ...]  # block index of each torsion coordinate
    n_blocks: int


def torsion_space(form: FiniteQuadraticForm, p: int) -> TorsionSpace:
    if p == 2:
        raise ValueError("only odd p supported (kernels are free of 2-torsion)")
    idx = [i for i in range(form.rank) if form.orders[i] % p == 0]
    basis = []
    for i in idx:
        v = [0] * form.rank
        v[i] = form.orders[i] // p
        basis.append(tuple(v))
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
    return TorsionSpace(p, tuple(basis), tuple(bmat), tuple(block_of[i] for i in idx),
                        len(form.blocks))


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

    Returns an array of shape (N, rank, m).  With full_support and rank >= 1,
    every block of the ambient form must receive a nonzero projection, so
    a block without p-torsion leaves no subspace.

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
        front = front[support == (1 << space.n_blocks) - 1]
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
    bases = isotropic_subspaces(space, rank, full_support=full_support)
    return [Subgroup(form, tuple(row.tolist())) for row in subgroup_codes(form, space, bases)]
