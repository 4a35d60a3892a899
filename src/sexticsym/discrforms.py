"""Finite quadratic forms of even nondegenerate lattices.

A form lives on a finite abelian group written as a fixed direct sum of
cyclic groups Z_{d_i}, and the form is one integer Gram matrix G over
the level N = lcm(d_i): b(x, y) = x G y^T / N mod 1 and q(x) = x G x^T / N
mod 2, with off-diagonal entries of G reduced mod N and diagonal entries
mod 2N.  b and q return Fractions reduced into [0, 1) and [0, 2).

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

from .exactcore import IntMatrix, lattice_basis, smith_normal_form, solve_integer


@dataclass(frozen=True)
class FiniteQuadraticForm:
    """Finite abelian group with Q/Z bilinear and Q/2Z quadratic form.

    gram is an integer matrix over the level N = lcm(orders): b(x, y) =
    x gram y^T / N mod 1 and q(x) = x gram x^T / N mod 2.  Off-diagonal
    entries are reduced mod N and diagonal entries mod 2N.
    blocks partitions the coordinate indices by originating component
    (one block per direct summand); a single-component form has one block.
    """

    orders: Tuple[int, ...]
    gram: Tuple[Tuple[int, ...], ...]
    blocks: Tuple[Tuple[int, ...], ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.blocks is None:
            object.__setattr__(self, "blocks", (tuple(range(len(self.orders))),))

    @property
    def rank(self) -> int:
        return len(self.orders)

    @cached_property
    def level(self) -> int:
        return math.lcm(*self.orders)

    @cached_property
    def gram_array(self) -> np.ndarray:
        """gram as an (rank, rank) int64 array."""
        return np.array(self.gram, dtype=np.int64).reshape(self.rank, self.rank)

    def order(self) -> int:
        n = 1
        for d in self.orders:
            n *= d
        return n

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

    def _pair(self, x, y) -> int:
        """x gram y^T, with Python-int products."""
        return sum(int(xi) * sum(g * int(yj) for g, yj in zip(row, y))
                   for xi, row in zip(x, self.gram) if xi)

    def b(self, x, y) -> Fraction:
        return Fraction(self._pair(x, y), self.level) % 1

    def q(self, x) -> Fraction:
        return Fraction(self._pair(x, x), self.level) % 2

    def validate(self) -> None:
        """q(e_i) lifts b(e_i, e_i) by construction: both read gram[i][i]."""
        for i, d in enumerate(self.orders):
            if d < 2:
                raise ValueError("orders must be >= 2")
            for j in range(self.rank):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("bilinear form not symmetric")
                if d * self.gram[i][j] % self.level != 0:
                    raise ValueError("bilinear value incompatible with order")


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
        proj = np.array(self.proj, dtype=np.int64).reshape(len(self.proj), len(x))
        return int(self.form.encode(proj @ np.asarray(x, dtype=np.int64)))


def discriminant_form(gram: IntMatrix) -> DiscriminantData:
    """Discriminant quadratic form of an even nondegenerate Gram matrix."""
    n = len(gram)
    for i in range(n):
        if gram[i][i] % 2 != 0:
            raise ValueError("Gram matrix must be even")
        for j in range(n):
            if gram[i][j] != gram[j][i]:
                raise ValueError("Gram matrix must be symmetric")
    d, u, v, uinv = smith_normal_form(gram)
    if any(d[i][i] == 0 for i in range(n)):
        raise ValueError("Gram matrix must be nondegenerate")

    nontrivial = [i for i in range(n) if d[i][i] > 1]
    orders = tuple(d[i][i] for i in nontrivial)
    proj = tuple(tuple(u[i][j] for j in range(n)) for i in nontrivial)
    lifts = tuple(tuple(uinv[r][i] for r in range(n)) for i in nontrivial)
    # gram^-1 = v d^-1 u and u * lift_j = e_j, so
    # lift_i . gram^-1 . lift_j = (uinv^T v)[i][j] / d_j
    pair = [[Fraction(sum(uinv[r][i] * v[r][j] for r in range(n)), d[j][j]) for j in nontrivial]
            for i in nontrivial]
    return DiscriminantData(_form_of_pairing(orders, pair), proj, lifts)


def _form_of_pairing(orders: Tuple[int, ...], pair) -> FiniteQuadraticForm:
    """The form on Z_{orders} whose b(e_i, e_j) is pair[i][j] mod 1 and
    whose q(e_i) is pair[i][i] mod 2; every value must be a multiple of
    1/level."""
    n = math.lcm(*orders)
    gram = []
    for i, row in enumerate(pair):
        scaled = [x * n for x in row]
        if any(x.denominator != 1 for x in scaled):
            raise ValueError("pairing value is not a multiple of 1/level")
        gram.append(tuple(x.numerator % (2 * n if i == j else n) for j, x in enumerate(scaled)))
    form = FiniteQuadraticForm(orders, tuple(gram))
    form.validate()
    return form


def direct_sum(parts: Sequence[FiniteQuadraticForm]) -> FiniteQuadraticForm:
    """Orthogonal direct sum; each summand becomes one coordinate block.

    The gram is block-diagonal, each part's gram scaled to the common level."""
    orders = tuple(d for p in parts for d in p.orders)
    n = math.lcm(*orders)
    gram = [[0] * len(orders) for _ in orders]
    blocks: List[Tuple[int, ...]] = []
    start = 0
    for p in parts:
        blocks.append(tuple(range(start, start + p.rank)))
        for a, row in enumerate(p.gram):
            gram[start + a][start:start + p.rank] = [g * (n // p.level) for g in row]
        start += p.rank
    return FiniteQuadraticForm(orders, tuple(map(tuple, gram)), tuple(blocks))


# ---------------------------------------------------------------------------
# subgroup operations


def orthogonal_complement(form: FiniteQuadraticForm, h: Subgroup) -> Subgroup:
    if not h.is_subgroup_of(form):
        raise ValueError("h is not closed under the group law")
    elems = form.element_array
    mask = (elems @ form.gram_array @ elems[list(h.codes)].T % form.level == 0).all(axis=1)
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
    d, _, _, uinv = smith_normal_form(solve_integer(a, bmat))
    nontrivial = tuple(i for i in range(n) if d[i][i] > 1)
    orders = tuple(d[i][i] for i in nontrivial)
    vecs = [[sum(a[r][t] * uinv[t][i] for t in range(n)) for r in range(n)] for i in nontrivial]
    reps = form.decode(form.encode(np.array(vecs, dtype=np.int64).reshape(len(vecs), n)))
    pair = [[form.q(x) if i == j else form.b(x, y) for j, y in enumerate(reps)]
            for i, x in enumerate(reps)]
    qf = _form_of_pairing(orders, pair)
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
    t = np.array(basis, dtype=np.int64).reshape(len(basis), form.rank)
    pb = p * t @ form.gram_array @ t.T  # level * p * b(basis[i], basis[j])
    if (pb % form.level).any():
        raise AssertionError("unexpected b denominator on p-torsion")
    bmat = tuple(map(tuple, (pb // form.level % p).tolist()))
    block_of = {i: bi for bi, blk in enumerate(form.blocks) for i in blk}
    return TorsionSpace(p, tuple(basis), bmat, tuple(block_of[i] for i in idx),
                        len(form.blocks))


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


def isotropic_subspaces(space: TorsionSpace, rank: int) -> np.ndarray:
    """All totally isotropic rank-dim F_p subspaces with full support, as
    RREF basis matrices.

    Returns an array of shape (N, rank, m).  For rank >= 1, every block of
    the ambient form must receive a nonzero projection, so a block without
    p-torsion leaves no subspace.

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
    coord_block = np.array(space.coord_block, dtype=np.int64)
    bits = np.bitwise_or.reduce(np.where(I != 0, 1 << coord_block, 0), axis=1)
    support = np.bitwise_or.reduce(bits[front], axis=1)
    return I[front[support == (1 << space.n_blocks) - 1]]


def subgroup_codes(form: FiniteQuadraticForm, space: TorsionSpace,
                   bases: np.ndarray) -> np.ndarray:
    """The subgroups spanned by F_p subspaces of space, as code rows.

    bases is an (N, rank, m) array of RREF basis matrices
    (isotropic_subspaces).  Row i of the (N, p^rank) result holds the
    sorted element codes of the subgroup of bases[i]; rows are in
    lexicographic order, which is the order of the subgroups' sorted
    element tuples.

    With pivots increasing and each basis vector zero at the others'
    pivots, the elements sum c_i t_i come out in ascending code order when
    the coefficient vector c runs in product order (c_0 slowest), so the
    rows need no sort of their own.
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
        enc[lo:lo + chunk] = (combos @ bases[lo:lo + chunk] % p) @ basis_codes
    return enc[np.argsort(subgroup_keys(form, p, enc))]


def subgroup_keys(form: FiniteQuadraticForm, p: int, codes: np.ndarray) -> np.ndarray:
    """One int64 key per row of an (N, p^rank) array of sorted code rows of
    (Z_p)^rank subgroups, ordered as the rows are lexicographically.

    Column p^k of a sorted row is the least element outside the span of
    the columns before it, so columns 1, p, ..., p^(rank-1) determine the
    row, and two rows first differ at one of them.
    """
    width = codes.shape[1]
    cols = [codes[:, p**i] for i in range(width.bit_length()) if p**i < width]
    return np.ravel_multi_index(cols, (form.order(),) * len(cols))
