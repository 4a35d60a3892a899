"""Finite quadratic forms of even nondegenerate lattices.

A form lives on a finite abelian group written as a fixed direct sum of
cyclic groups Z_{d_i}, and the form is one integer Gram matrix G over
the level N = lcm(d_i): b(x, y) = x G y^T / N mod 1 and q(x) = x G x^T / N
mod 2, with off-diagonal entries of G reduced mod N and diagonal entries
mod 2N.  Each value is read as the integer x G y^T (_pair) over N.

Elements, subgroups and automorphisms are held as integer codes: the code
of an element is the mixed-radix number whose digits are its coordinates
(last coordinate fastest), so codes sort exactly as the coordinate tuples
do.  A subgroup is its sorted tuple of codes, and an automorphism is its
code table (entry c is the code of the image of code c); codes are
plain ints.  Only FiniteQuadraticForm knows the radix (encode/decode,
add_codes, and block_codes/block_weights for the split of a code into the
codes of its direct summands).  Coordinate tuples appear only at the
boundary: a kernel's generators as a report prints them, the pairing
x G y^T, and the lattice step of quotient_form.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from functools import cached_property, lru_cache
from typing import Iterable, List, NamedTuple, Sequence, Tuple

from .exactcore import IntMatrix, lattice_basis, smith_normal_form, solve_integer


class _FormFields(NamedTuple):
    orders: Tuple[int, ...]
    gram: Tuple[Tuple[int, ...], ...]
    blocks: Tuple[Tuple[int, ...], ...]


class FiniteQuadraticForm(_FormFields):
    """Finite abelian group with Q/Z bilinear and Q/2Z quadratic form.

    gram is an integer matrix over the level N = lcm(orders): b(x, y) =
    x gram y^T / N mod 1 and q(x) = x gram x^T / N mod 2.  Off-diagonal
    entries are reduced mod N and diagonal entries mod 2N.
    blocks partitions the coordinate indices by originating component
    (one block per direct summand); a single-component form has one block,
    the default.  The cached properties live in the instance __dict__.
    """

    def __new__(cls, orders: Tuple[int, ...], gram: Tuple[Tuple[int, ...], ...], blocks=None):
        return tuple.__new__(cls, (orders, gram, (tuple(range(len(orders))),) if blocks is None else blocks))

    @property
    def rank(self) -> int:
        return len(self.orders)

    @cached_property
    def level(self) -> int:
        return math.lcm(*self.orders)

    def order(self) -> int:
        return math.prod(self.orders)

    @cached_property
    def weights(self) -> Tuple[int, ...]:
        """Radix weights: the code of x is sum_i x_i * weights[i]."""
        return tuple(math.prod(self.orders[i + 1:]) for i in range(self.rank))

    def encode(self, x: Sequence[int]) -> int:
        """Code of the coordinate vector x, reduced first."""
        return sum(xi % d * w for xi, d, w in zip(x, self.orders, self.weights))

    def decode(self, code: int) -> Tuple[int, ...]:
        """Coordinate tuple of a code."""
        return tuple(code // w % d for w, d in zip(self.weights, self.orders))

    def add_codes(self, x: int, y: int) -> int:
        """Code of the sum of the elements of codes x and y."""
        return self.encode([a + b for a, b in zip(self.decode(x), self.decode(y))])

    @cached_property
    def block_orders(self) -> Tuple[int, ...]:
        """Order of each block's summand."""
        return tuple(math.prod(self.orders[i] for i in blk) for blk in self.blocks)

    @cached_property
    def block_weights(self) -> Tuple[int, ...]:
        """The code of x is the sum over blocks of its block code (the code
        of x's coordinates in that block, in the summand's own form) times
        the block's weight."""
        sizes = self.block_orders
        return tuple(math.prod(sizes[c + 1:]) for c in range(len(sizes)))

    def block_codes(self, code: int) -> Tuple[int, ...]:
        """The block codes of a code, one per block."""
        return tuple(code // w % d for w, d in zip(self.block_weights, self.block_orders))

    def _pair(self, x, y) -> int:
        """x gram y^T, with Python-int products."""
        return sum(int(xi) * sum(g * int(yj) for g, yj in zip(row, y))
                   for xi, row in zip(x, self.gram) if xi)

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


def greedy_generators(form: FiniteQuadraticForm, codes: Iterable[int]) -> Tuple[List[int], Tuple[int, ...]]:
    """Each code, in the order given, that the ones taken before it do not
    span, and the sorted codes of the subgroup they generate.

    With j the least k >= 1 such that k*g lies in the span S so far, the
    cosets s + k*g (s in S, 0 <= k < j) are distinct and exhaust <S, g>.
    """
    gens: List[int] = []
    span = [0]
    have = {0}
    for g in codes:
        if g in have:
            continue
        gens.append(g)
        multiples, x = [0], g
        while x not in have:
            multiples.append(x)
            x = form.add_codes(x, g)
        span = [form.add_codes(s, k) for s in span for k in multiples]
        have = set(span)
    return gens, tuple(sorted(span))


class _SubgroupFields(NamedTuple):
    form: FiniteQuadraticForm
    codes: Tuple[int, ...]


class Subgroup(_SubgroupFields):
    """Subgroup of a form, stored as its sorted tuple of element codes."""

    @classmethod
    def trivial(cls, form: FiniteQuadraticForm) -> "Subgroup":
        return cls(form, (0,))

    def order(self) -> int:
        return len(self.codes)

    @property
    def elements(self) -> Tuple[Tuple[int, ...], ...]:
        """The elements as coordinate tuples, in sorted order."""
        return tuple(map(self.form.decode, self.codes))

    @cached_property
    def greedy_span(self) -> Tuple[List[int], Tuple[int, ...]]:
        """greedy_generators of the codes in sorted order, computed once:
        the generators' codes and the sorted codes they span."""
        return greedy_generators(self.form, self.codes)

    def generators(self) -> List[Tuple[int, ...]]:
        """A small generating set, as coordinate tuples: each element, in
        sorted order, that is not yet in the span of the ones taken before it."""
        return [self.form.decode(g) for g in self.greedy_span[0]]

    def is_subgroup_of(self, form: FiniteQuadraticForm) -> bool:
        """Whether the codes are a subgroup of form: strictly increasing,
        in range, and closed (which suffices for a finite nonempty subset),
        that is, the span of their greedy generators."""
        c = self.codes
        if self.form != form or not c or c[0] < 0 or c[-1] >= form.order():
            return False
        return all(a < b for a, b in zip(c, c[1:])) and self.greedy_span[1] == c


# ---------------------------------------------------------------------------
# discriminant form of an even lattice


class DiscriminantData(NamedTuple):
    """discriminant form plus the coordinate maps.

    proj: rows of the projection Z^n (dual-basis coords) -> canonical coords.
    lifts: representative dual-coordinate vectors of the canonical generators.
    inverse: N G^-1, an integer matrix, N the form's level.
    """

    form: FiniteQuadraticForm
    proj: Tuple[Tuple[int, ...], ...]
    lifts: Tuple[Tuple[int, ...], ...]
    inverse: Tuple[Tuple[int, ...], ...]

    def project(self, x: Sequence[int]) -> int:
        """Code of the class of the dual-coordinate vector x."""
        return self.form.encode([sum(a * b for a, b in zip(row, x)) for row in self.proj])


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
    level = math.lcm(*orders)  # d[k][k] divides it for every k
    proj = tuple(tuple(u[i][j] for j in range(n)) for i in nontrivial)
    lifts = tuple(tuple(uinv[r][i] for r in range(n)) for i in nontrivial)
    # gram^-1 = v d^-1 u and u * lift_j = e_j, so
    # N lift_i . gram^-1 . lift_j = (uinv^T v)[i][j] N / d_j
    pair = [[sum(uinv[r][i] * v[r][j] for r in range(n)) * (level // d[j][j]) for j in nontrivial]
            for i in nontrivial]
    scaled = [[level // d[k][k] * x for x in u[k]] for k in range(n)]  # N d^-1 u
    inverse = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*scaled)) for row in v)
    return DiscriminantData(_form_of_pairing(orders, pair, level), proj, lifts, inverse)


def _form_of_pairing(orders: Tuple[int, ...], pair: Sequence[Sequence[int]], den: int) -> FiniteQuadraticForm:
    """The form on Z_{orders} whose b(e_i, e_j) is pair[i][j] / den mod 1
    and whose q(e_i) is pair[i][i] / den mod 2: its Gram is pair * N / den,
    N the level, which must be integral."""
    n = math.lcm(*orders)
    gram = []
    for i, row in enumerate(pair):
        scaled = [x * n for x in row]
        if any(x % den for x in scaled):
            raise ValueError("pairing value is not a multiple of 1/level")
        gram.append(tuple(x // den % (2 * n if i == j else n) for j, x in enumerate(scaled)))
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


def zero_sum_codes(choices: Sequence[Sequence[Tuple[int, Tuple[int, ...]]]], m: int) -> List[int]:
    """Every sum of one (code, key) choice per position whose keys (tuples
    of one length, entries in 0..m-1) add to 0 mod m entrywise, ascending.
    Each position's choices ascend by code, and codes add without carry,
    earlier positions on more significant digits, so the sums over the
    leading half of the positions ascend in product order, as do those over
    the rest.  A leading sum with key k meets the trailing sums with key
    -k: the work is about the square root of the number of choice tuples,
    plus one step per result.

    A key is packed into one int, one lane of bits per entry, wide enough
    for a sum over all positions, so partial sums add as ints; the lanes
    are reduced mod m (negated for the leading half) only when a half is
    grouped, once per distinct packed key."""
    if not choices:
        return [0]
    bits = (len(choices) * (m - 1)).bit_length()
    shifts, mask = [bits * j for j in range(len(choices[0][0][1]))], (1 << bits) - 1

    def sums(part, sign):
        out = [(0, 0)]
        for opts in part:
            packed = [(c, sum(a << s for a, s in zip(key, shifts))) for c, key in opts]
            out = [(c + d, k + l) for c, k in out for d, l in packed]
        lanes = {k: sum(sign * (k >> s & mask) % m << s for s in shifts) for k in {k for _, k in out}}
        return [(c, lanes[k]) for c, k in out]

    trailing = defaultdict(list)
    for code, key in sums(choices[len(choices) // 2:], 1):
        trailing[key].append(code)
    return [c + d for c, key in sums(choices[:len(choices) // 2], -1) for d in trailing[key]]


def kernel_perp(form: FiniteQuadraticForm, k: Subgroup) -> Tuple[int, ...]:
    """Generators of K-perp, the x with phi(x) = x G g^T = 0 mod N for the
    generators g of the subgroup k (its closure is not checked again), as
    an echelon over the coordinates: for every coordinate i, those
    supported on coordinates 0..i generate every element of K-perp
    supported there.

    With phi(x) at most |K| values, the least t >= 1 with -t phi(e_i)
    reached from coordinates < i gives the one generator ending at
    coordinate i, t e_i plus such an element, and K-perp gains a factor
    d_i / t there: |K-perp| = prod_i d_i / t_i.  A degenerate form fails
    |K-perp| |K| = |D| and is refused."""
    n, kvecs = form.level, [form.decode(g) for g in k.greedy_span[0]]
    # phi(e_i) for each coordinate i; phi(x) = sum_i x_i phi(e_i) mod N
    phis = [tuple(sum(a * b for a, b in zip(row, v)) % n for v in kvecs) for row in form.gram]
    zero = (0,) * len(kvecs)
    reach, gens, order = {zero: 0}, [], 1  # phi(x) -> code of one such x on coordinates < i
    for phi, d, w in zip(phis, form.orders, form.weights):
        t = next(t for t in range(1, d + 1) if tuple(-t * f % n for f in phi) in reach)
        if t < d:
            gens.append(t * w + reach[tuple(-t * f % n for f in phi)])
        order *= d // t
        reach = {tuple((a + x * f) % n for a, f in zip(key, phi)): c + x * w
                 for key, c in reach.items() for x in range(t)}
    if order * k.order() != form.order():
        raise ValueError("the form is degenerate: |K-perp| |K| is not |D|")
    return tuple(gens)


def is_isotropic(form: FiniteQuadraticForm, k: Subgroup) -> bool:
    """q(x) = x G x^T / N mod 2 vanishes on every element of the subgroup k:
    since q(x + y) = q(x) + q(y) + 2 b(x, y) mod 2, exactly when q vanishes
    on its greedy generators and b(x, y) = x G y^T / N mod 1 on their pairs."""
    gens, n = k.generators(), form.level
    return (all(form._pair(x, x) % (2 * n) == 0 for x in gens)
            and all(form._pair(x, y) % n == 0 for x, y in itertools.combinations(gens, 2)))


class QuotientData(NamedTuple):
    """Quadratic form on K^perp/K with ambient representatives of its generators."""

    form: FiniteQuadraticForm
    reps: Tuple[Tuple[int, ...], ...]


def quotient_form(form: FiniteQuadraticForm, k: Subgroup) -> QuotientData:
    """The form on K-perp/K (kernel_perp refuses a degenerate form): its
    representatives' pairings x G y^T, rescaled to the quotient's level."""
    if not k.is_subgroup_of(form):
        raise ValueError("kernel subgroup is not closed under the group law")
    if not is_isotropic(form, k):
        raise ValueError("kernel subgroup is not isotropic")
    n = form.rank
    dvecs = [[form.orders[i] if j == i else 0 for j in range(n)] for i in range(n)]
    a = lattice_basis([form.decode(z) for z in kernel_perp(form, k)] + dvecs, n)
    bmat = lattice_basis(k.generators() + dvecs, n)
    # c = a^{-1} b, integral since K subset of K^perp
    d, _, _, uinv = smith_normal_form(solve_integer(a, bmat))
    nontrivial = tuple(i for i in range(n) if d[i][i] > 1)
    orders = tuple(d[i][i] for i in nontrivial)
    vecs = [[sum(a[r][t] * uinv[t][i] for t in range(n)) for r in range(n)] for i in nontrivial]
    reps = [form.decode(form.encode(v)) for v in vecs]
    qf = _form_of_pairing(orders, [[form._pair(x, y) for y in reps] for x in reps], form.level)
    if qf.order() != form.order() // (k.order() ** 2):
        raise AssertionError("quotient order mismatch")
    return QuotientData(qf, tuple(reps))


# ---------------------------------------------------------------------------
# isotropic (Z_p)^rank subgroups with full support


class TorsionSpace:
    """The p-torsion of a form as the F_p quadratic space F_p^m.

    basis[i] (a coordinate tuple) is the ambient element of order p behind
    coordinate i, and basis_codes[i] its code; bmat[i][j] is
    p*b(basis[i], basis[j]) mod p, so its diagonal is 2q (p odd).  Each
    basis element has its own ambient coordinate, so c in F_p^m has the code
    sum_i c_i basis_codes[i], and codes ascend in itertools.product order.
    For an ADE graph at odd p, bmat is diagonal: a component has at most
    one coordinate of odd torsion (A_n: Z_{n+1}, E6: Z3; D_n, E7 and E8
    none), and components are orthogonal."""

    __slots__ = ("p", "basis", "bmat", "basis_codes")  # == and hash by identity

    def __init__(self, p: int, basis: Tuple[Tuple[int, ...], ...], bmat: Tuple[Tuple[int, ...], ...],
                 basis_codes: Tuple[int, ...]):
        self.p, self.basis, self.bmat, self.basis_codes = p, basis, bmat, basis_codes


def split_tables(parts: Sequence[Sequence[int]]) -> Tuple[List[int], List[int]]:
    """The sums of one entry of each part, in itertools.product order (last
    part fastest), as one table over the leading half of the parts and one
    over the rest: the sum at index i is hi[i // len(lo)] + lo[i % len(lo)].
    Every split table is built here, one part per component."""
    half, tables = len(parts) // 2, [[0], [0]]  # hi, then lo
    for k, part in enumerate(parts):
        tables[k >= half] = [a + d for a in tables[k >= half] for d in part]
    return tables[0], tables[1]


@lru_cache(maxsize=None)  # graph_discr is cached too, so a graph builds its space once per p
def torsion_space(form: FiniteQuadraticForm, p: int) -> TorsionSpace:
    if p == 2:
        raise ValueError("only odd p supported (kernels are free of 2-torsion)")
    basis = tuple(tuple(d // p if j == i else 0 for j in range(form.rank))
                  for i, d in enumerate(form.orders) if d % p == 0)
    bmat = []
    for x in basis:
        pb = [p * form._pair(x, y) for y in basis]  # level * p * b(x, y)
        if any(v % form.level for v in pb):
            raise AssertionError("unexpected b denominator on p-torsion")
        bmat.append(tuple(v // form.level % p for v in pb))
    return TorsionSpace(p, basis, tuple(bmat), tuple(map(form.encode, basis)))


def _chains(C, k: int):
    """All index tuples (t_0, ..., t_{k-1}) with C[t_i, t_j] for every i < j,
    for a square boolean array C, as an (N, k) array in lexicographic order.

    The later entries of a tuple starting at t all lie in row t of C, so
    its tails are the (k-1)-tuples of C restricted to that row's indices.
    """
    import numpy as np
    if k <= 2:
        return np.arange(len(C))[:, None] if k == 1 else np.argwhere(C)
    parts = [np.empty((0, k), dtype=np.intp)]
    for t in range(len(C)):
        nbrs = np.flatnonzero(C[t])
        tails = nbrs[_chains(C[np.ix_(nbrs, nbrs)], k - 1)]
        parts.append(np.column_stack([np.full(len(tails), t), tails]))
    return np.concatenate(parts)


def isotropic_subspaces(form: FiniteQuadraticForm, p: int, rank: int):
    """All totally isotropic (Z_p)^rank subgroups of form with full
    support (rank >= 1), as an (N, p^rank) numpy array in the narrowest
    unsigned type that holds every code: row i holds one subgroup's sorted
    element codes, and the rows are in lexicographic order.  Full support
    means every block of the form receives a nonzero projection, so a
    block without p-torsion leaves no subgroup.

    A subgroup is the span of its RREF basis in the p-torsion space F_p^m,
    listed whole in product order (TorsionSpace): isotropic vectors t_0,
    ..., t_{rank-1} with leading coefficient 1, pivots increasing, each
    zero at the pivots of the others, pairwise orthogonal.  Every condition is on a pair of vectors, so one boolean
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
    import numpy as np
    space = torsion_space(form, p)
    m, dtype = len(space.basis), np.min_scalar_type(form.order() - 1)
    combos = np.array(list(itertools.product(range(p), repeat=rank)), dtype=np.int64)
    if m < rank:
        return np.zeros((0, len(combos)), dtype=dtype)
    vecs = np.arange(p**m, dtype=np.int64)[:, None] // p ** np.arange(m - 1, -1, -1) % p
    B = np.array(space.bmat, dtype=np.int64).reshape(m, m)
    basis_codes = np.array(space.basis_codes, dtype=np.int64)
    # x B x^T = 2 q(x) mod p, so q(x) = 0 iff it is 0
    isotropic = ((vecs @ B) * vecs).sum(axis=1) % p == 0
    nonzero = vecs != 0
    piv = nonzero.argmax(axis=1)
    cand = isotropic & nonzero.any(axis=1) & (vecs[np.arange(len(vecs)), piv] == 1)
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
    reach = np.array([sum(1 << i for i, b in enumerate(form.block_codes(int(x))) if b)
                      for x in I @ basis_codes], dtype=np.int64)
    tuples = _chains(C, rank)
    tuples = tuples[np.bitwise_or.reduce(reach[tuples], axis=1) == (1 << len(form.blocks)) - 1]
    out = np.empty((len(tuples), len(combos)), dtype=dtype)
    # chunked: 9A2's 555,520 subgroups at once would make a (555520, 27, 9)
    # int64 coordinate array of ~1 GB; a chunk of 4,096 keeps it at ~8 MB
    chunk = 4096
    for lo in range(0, len(tuples), chunk):
        out[lo:lo + chunk] = (combos @ I[tuples[lo:lo + chunk, ::-1]] % p) @ basis_codes
    return out

