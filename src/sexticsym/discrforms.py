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
code table (entry c is the code of the image of code c).  A family of
(Z_p)^r subgroups, as isotropic_subspaces returns it, is an (N, p^r) array
of such rows in lexicographic order.  Only
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


def greedy_generators(form: FiniteQuadraticForm, codes: Iterable[int]) -> Tuple[List[int], np.ndarray]:
    """Each code, in the order given, that the ones taken before it do not
    span, and the sorted codes of the subgroup they generate.

    With j the least k >= 1 such that k*g lies in the span S so far, the
    cosets s + k*g (s in S, 0 <= k < j) are distinct and exhaust <S, g>.
    """
    gens: List[int] = []
    span = np.zeros(1, dtype=np.int64)
    have = {0}
    for g in map(int, codes):
        if g in have:
            continue
        gens.append(g)
        multiples, x = [0], g
        while x not in have:
            multiples.append(x)
            x = int(form.add_codes(x, g))
        span = form.add_codes(span[:, None], multiples).ravel()
        have = set(span.tolist())
    return gens, np.sort(span)


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of a form, stored as its sorted tuple of element codes."""

    form: FiniteQuadraticForm = field(repr=False, hash=False)
    codes: Tuple[int, ...]

    @classmethod
    def spanned(cls, form: FiniteQuadraticForm, gens: Iterable[Sequence[int]]) -> "Subgroup":
        """The subgroup generated by the coordinate vectors gens."""
        gens = list(gens)
        vecs = np.array(gens, dtype=np.int64).reshape(len(gens), form.rank)
        return cls(form, tuple(greedy_generators(form, form.encode(vecs))[1].tolist()))

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
        return list(self.form.decode(greedy_generators(self.form, self.codes)[0]))

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
    gens = h.generators()
    gens = np.array(gens, dtype=np.int64).reshape(len(gens), form.rank)
    mask = (form.element_array @ (form.gram_array @ gens.T) % form.level == 0).all(axis=1)
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


@dataclass(frozen=True, eq=False)
class TorsionSpace:
    """The p-torsion of a form as the F_p quadratic space F_p^m, with all
    of its vectors listed once.

    basis (m, rank): row i is the ambient element (order p) behind
    coordinate i; bmat (m, m) encodes b as p*b(basis[i], basis[j]) mod p,
    so its diagonal is 2q (p odd).  vecs (p^m, m) is F_p^m in
    itertools.product order (last coordinate fastest), codes[i] the code
    of vecs[i] @ basis and isotropic[i] whether q of it is 0.  Each basis
    element sits on its own ambient coordinate with a digit below that
    coordinate's order, so codes = vecs @ basis_codes and codes ascend.
    """

    p: int
    basis: np.ndarray
    bmat: np.ndarray
    basis_codes: np.ndarray
    vecs: np.ndarray
    codes: np.ndarray
    isotropic: np.ndarray


def torsion_space(form: FiniteQuadraticForm, p: int) -> TorsionSpace:
    if p == 2:
        raise ValueError("only odd p supported (kernels are free of 2-torsion)")
    axes = [i for i, d in enumerate(form.orders) if d % p == 0]
    m = len(axes)
    basis = np.zeros((m, form.rank), dtype=np.int64)
    basis[np.arange(m), axes] = [form.orders[i] // p for i in axes]
    pb = p * basis @ form.gram_array @ basis.T  # level * p * b(basis[i], basis[j])
    if (pb % form.level).any():
        raise AssertionError("unexpected b denominator on p-torsion")
    bmat = pb // form.level % p
    basis_codes = form.encode(basis)
    vecs = np.arange(p**m, dtype=np.int64)[:, None] // p ** np.arange(m - 1, -1, -1) % p
    # x bmat x^T = 2 q(x) mod p, so q(x) = 0 iff it is 0
    isotropic = ((vecs @ bmat) * vecs).sum(axis=1) % p == 0
    return TorsionSpace(p, basis, bmat, basis_codes, vecs, vecs @ basis_codes, isotropic)


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


def isotropic_subspaces(form: FiniteQuadraticForm, p: int, rank: int) -> np.ndarray:
    """All totally isotropic (Z_p)^rank subgroups of form with full
    support (rank >= 1), as an (N, p^rank) array in form.code_dtype: row i
    holds one subgroup's sorted element codes, and the rows are in
    lexicographic order.  Full support means every block of the form
    receives a nonzero projection, so a block without p-torsion leaves no
    subgroup.

    A subgroup is the span of its RREF basis in the p-torsion space:
    isotropic vectors t_0, ..., t_{rank-1} with leading coefficient 1,
    pivots increasing, each zero at the pivots of the others, pairwise
    orthogonal.  Every condition is on a pair of vectors, so one boolean
    matrix C over the normalized isotropic vectors I holds them all, and
    the bases are the index tuples that C allows pairwise.  _chains lists
    them level by level with whole-array steps: the last level is one
    np.argwhere over a submatrix of C, and each level above it restricts
    C to the vectors its first entry allows.

    Order: C takes pivots decreasing, so _chains lists each basis
    backwards, (t_{rank-1}, ..., t_0), in lexicographic order of the
    index tuples.  I's index order is code order, since each torsion
    coordinate is one ambient digit.  With the coefficients c running in
    product order, the elements sum c_i t_i come out in ascending code
    order, so column p^k of a row is the code of t_{rank-1-k}.  Those
    columns fix a row and order the rows, so the rows come out sorted with
    no sort of their own.

    The command line does not call this: kernel orbits are built on
    representatives (stability.admissible_kernels).  This is the
    exhaustive reference the kernel-orbit tests compare against.
    """
    space = torsion_space(form, p)
    combos = np.array(list(itertools.product(range(p), repeat=rank)), dtype=np.int64)
    if len(space.basis) < rank:
        return np.zeros((0, len(combos)), dtype=form.code_dtype)
    vecs, B, basis_codes = space.vecs, space.bmat, space.basis_codes
    nonzero = vecs != 0
    piv = nonzero.argmax(axis=1)
    cand = space.isotropic & nonzero.any(axis=1) & (vecs[np.arange(len(vecs)), piv] == 1)
    I, Ipiv = vecs[cand], piv[cand]

    # C[a, b]: t_b may precede t_a in an RREF basis of an isotropic
    # subspace, so b may follow a in a listed tuple; built in row chunks
    # so the Gram product stays small
    C = np.empty((len(I), len(I)), dtype=bool)
    IB = I @ B % p
    for lo in range(0, len(I), 1024):
        a = slice(lo, lo + 1024)
        C[a] = (
            (Ipiv[None, :] < Ipiv[a, None])
            & (I[:, Ipiv[a]].T == 0)
            & (I[a][:, Ipiv] == 0)
            & (IB[a] @ I.T % p == 0)
        )

    # bit i of reach[j]: I[j] projects to block i nonzero
    nb = len(form.blocks)
    reach = (form.block_codes(I @ basis_codes) != 0) @ (1 << np.arange(nb))
    tuples = _chains(C, rank)
    tuples = tuples[np.bitwise_or.reduce(reach[tuples], axis=1) == (1 << nb) - 1]
    out = np.empty((len(tuples), len(combos)), dtype=form.code_dtype)
    # chunked: 9A2's 555,520 subgroups at once would make a (555520, 27, 9)
    # int64 coordinate array of ~1 GB; a chunk of 4,096 keeps it at ~8 MB
    chunk = 4096
    for lo in range(0, len(tuples), chunk):
        out[lo:lo + chunk] = (combos @ I[tuples[lo:lo + chunk, ::-1]] % p) @ basis_codes
    return out

