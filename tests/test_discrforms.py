import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sexticsym import catalog
from sexticsym.discrforms import (
    Subgroup,
    _form_of_pairing,
    direct_sum,
    discriminant_form,
    greedy_generators,
    is_isotropic,
    isotropic_subspaces,
    orthogonal_complement,
    quotient_form,
    torsion_space,
)
from sexticsym.rootsystems import (
    ADEType,
    DynkinGraph,
    component_discr,
    graph_discr,
    parse_singularities,
)

from helpers import assert_q_lifts_b, elements, preserves_form, subgroup_keys


def _mod2(x: F) -> F:
    return x % 2


def q_multiset(form):
    return sorted(form.q(x) for x in elements(form))


def cyclic_q_multiset(n: int, alpha: F):
    """q-values of Z_n with q(g) = alpha."""
    return sorted(_mod2(alpha * k * k) for k in range(n))


def klein_q_multiset(beta: F):
    """q-values of Z2 x Z2 with spinor classes of value beta; the vector
    class always has q = 1."""
    return sorted([F(0), _mod2(beta), _mod2(beta), F(1)])


# ---------------------------------------------------------------------------
# closed forms of the ADE discriminant forms


@pytest.mark.parametrize("p", range(1, 20))
def test_a_series_closed_form(p):
    form = component_discr(ADEType("A", p)).form
    assert form.order() == p + 1
    assert form.orders == (p + 1,)
    gen = (1,)
    assert form.q(gen) == _mod2(F(-p, p + 1))
    assert q_multiset(form) == cyclic_q_multiset(p + 1, F(-p, p + 1))


@pytest.mark.parametrize("r", range(4, 20))
def test_d_series_closed_form(r):
    form = component_discr(ADEType("D", r)).form
    assert form.order() == 4
    if r % 2 == 0:
        assert sorted(form.orders) == [2, 2]
        assert q_multiset(form) == klein_q_multiset(_mod2(F(-r, 4)))
    else:
        assert form.orders == (4,)
        assert q_multiset(form) == cyclic_q_multiset(4, _mod2(F(-r, 4)))


def test_e_series_closed_form():
    e6 = component_discr(ADEType("E", 6)).form
    assert e6.orders == (3,)
    assert q_multiset(e6) == cyclic_q_multiset(3, _mod2(F(-4, 3)))
    e7 = component_discr(ADEType("E", 7)).form
    assert e7.orders == (2,)
    assert q_multiset(e7) == cyclic_q_multiset(2, _mod2(F(-3, 2)))
    e8 = component_discr(ADEType("E", 8)).form
    assert e8.order() == 1
    assert e8.rank == 0


def test_d4_all_involutions_look_alike():
    # the three nonzero classes of discr D4 all have q = 1
    form = component_discr(ADEType("D", 4)).form
    assert sorted(form.q(x) for x in elements(form) if any(x)) == [1, 1, 1]
    xs = [x for x in elements(form) if any(x)]
    for x, y in itertools.combinations(xs, 2):
        assert form.b(x, y) == F(1, 2)


# ---------------------------------------------------------------------------
# generic form axioms


@pytest.mark.parametrize("gram, order", [
    ([[-2]], 2),
    ([[-2, 1], [1, -2]], 3),
    ([[0, 1], [1, 0]], 1),
    ([[-2, 1, 0], [1, -2, 1], [0, 1, -2]], 4),
    ([[-4]], 4),
])
def test_discriminant_form_order(gram, order):
    data = discriminant_form(gram)
    assert data.form.order() == order
    data.form.validate()


def test_discriminant_form_rejects_singular():
    with pytest.raises(ValueError):
        discriminant_form([[2, 0], [0, 0]])


@st.composite
def even_grams(draw):
    n = draw(st.integers(1, 5))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * draw(st.integers(-4, 4))
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(st.integers(-5, 5))
    return g


@settings(max_examples=60, deadline=None)
@given(even_grams())
def test_discriminant_form_matches_sympy_inverse(gram):
    g = sympy.Matrix(gram)
    assume(g.det() != 0)
    ginv = g.inv()
    data = discriminant_form(gram)
    form = data.form
    assert form.order() == abs(g.det())

    def pair(x, y):
        r = (sympy.Matrix([x]) * ginv * sympy.Matrix(y))[0, 0]
        return F(int(r.p), int(r.q))

    units = [tuple(int(i == j) for j in range(form.rank)) for i in range(form.rank)]
    for i, x in enumerate(data.lifts):
        assert form.q(units[i]) == pair(x, x) % 2
        for j, y in enumerate(data.lifts):
            assert form.b(units[i], units[j]) == pair(x, y) % 1


@pytest.mark.parametrize("types", [
    (ADEType("A", 5), ADEType("A", 2)),
    (ADEType("D", 5),),
    (ADEType("E", 6), ADEType("A", 2)),
])
def test_q_b_compatibility(types):
    form = graph_discr(DynkinGraph(types))
    form.validate()
    negs = form.decode(form.encode(-form.element_array))
    for x, nx in zip(elements(form), negs):
        assert _mod2(form.q(x)) == form.q(x)
        assert form.q(nx) == form.q(x)
    assert_q_lifts_b(form)


@settings(max_examples=60, deadline=None)
@given(st.lists(even_grams(), min_size=1, max_size=3))
def test_direct_sum_keeps_each_summand_on_its_block(grams):
    parts = []
    for gram in grams:
        assume(sympy.Matrix(gram).det() != 0)
        parts.append(discriminant_form(gram).form)
    s = direct_sum(parts)
    n = s.level
    assert n == math.lcm(*s.orders)
    for i, row in enumerate(s.gram):
        for j, g in enumerate(row):
            assert 0 <= g < (2 * n if i == j else n)

    def embed(blk, x):
        v = [0] * s.rank
        for i, xi in zip(blk, x):
            v[i] = xi
        return v

    for part, blk in zip(parts, s.blocks):
        ones = (1,) * part.rank
        assert s.q(embed(blk, ones)) == part.q(ones)
        units = np.eye(part.rank, dtype=int).tolist()
        for x in units:
            assert s.q(embed(blk, x)) == part.q(x)
            for y in units:
                assert s.b(embed(blk, x), embed(blk, y)) == part.b(x, y)
    units = np.eye(s.rank, dtype=int).tolist()
    for bi, bj in itertools.permutations(s.blocks, 2):
        for i, j in itertools.product(bi, bj):
            assert s.b(units[i], units[j]) == 0


def test_form_of_pairing_refuses_values_off_the_level():
    # level 3: 1/2 is not a multiple of 1/3
    with pytest.raises(ValueError):
        _form_of_pairing((3,), [[F(1, 2)]])
    assert _form_of_pairing((3,), [[F(-4, 3)]]).gram == ((2,),)


def test_direct_sum_blocks_and_order():
    a2 = component_discr(ADEType("A", 2)).form
    e7 = component_discr(ADEType("E", 7)).form
    e8 = component_discr(ADEType("E", 8)).form
    s = direct_sum([a2, e7, e8])
    assert s.order() == 6
    # E8 contributes an empty block, still tracked for support bookkeeping
    assert len(s.blocks) == 3
    assert s.blocks[2] == ()
    assert s.q((1, 0)) == a2.q((1,))
    assert s.q((0, 1)) == e7.q((1,))
    assert s.b((1, 1), (1, 0)) == a2.b((1,), (1,))


# ---------------------------------------------------------------------------
# subgroups, complements, quotients


def three_e6():
    return graph_discr(DynkinGraph((ADEType("E", 6),) * 3))


def test_subgroup_spanned():
    form = three_e6()
    k = Subgroup.spanned(form, [(1, 1, 1)])
    assert k.order() == 3
    assert int(form.encode((2, 2, 2))) in k.codes
    assert int(form.encode((1, 2, 0))) not in k.codes
    assert k.is_subgroup_of(form)
    assert Subgroup.trivial(form).order() == 1


def brute_span(form, codes):
    """The subgroup the codes generate, sorted: {0} closed under adding
    each of them."""
    span = {0}
    while True:
        more = span | {int(form.add_codes(x, c)) for x in span for c in codes}
        if more == span:
            return sorted(span)
        span = more


SPAN_FORMS = [graph_discr(parse_singularities(t)) for t in ("3E6", "A3+A2+A1", "2A3", "A8", "D4", "2E8")]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_greedy_generators_match_closure(data):
    form = data.draw(st.sampled_from(SPAN_FORMS))
    codes = data.draw(st.lists(st.integers(0, form.order() - 1), max_size=6))
    gens, span = greedy_generators(form, codes)
    assert span.tolist() == brute_span(form, codes)
    # each code, in the order given, is taken iff the ones taken before it
    # do not span it
    taken = []
    for c in codes:
        if c not in brute_span(form, taken):
            taken.append(c)
    assert gens == taken


def test_subgroup_holds_sorted_codes():
    form = three_e6()
    k = Subgroup.spanned(form, [(2, 2, 2)])
    assert k.codes == (0, 13, 26)  # (1, 1, 1) has code 9 + 3 + 1
    assert k.elements == ((0, 0, 0), (1, 1, 1), (2, 2, 2))
    assert k.generators() == [(1, 1, 1)]
    assert k == Subgroup(form, (0, 13, 26))
    # the input check rejects codes that are not closed, not sorted, out of
    # range, or of another form
    assert not Subgroup(form, (0, 13)).is_subgroup_of(form)
    assert not Subgroup(form, (0, 26, 13)).is_subgroup_of(form)
    assert not Subgroup(form, (0, 27)).is_subgroup_of(form)
    assert not k.is_subgroup_of(graph_discr(parse_singularities("3A2")))
    with pytest.raises(ValueError):
        orthogonal_complement(form, Subgroup(form, (0, 13)))


def test_isotropy_and_complement_3e6():
    form = three_e6()
    k = Subgroup.spanned(form, [(1, 1, 1)])
    assert is_isotropic(form, k)
    perp = orthogonal_complement(form, k)
    assert perp.order() == 9
    for x in k.elements:
        # isotropic subgroups sit inside their complement
        assert int(form.encode(x)) in perp.codes
    assert not is_isotropic(form, Subgroup.spanned(form, [(1, 0, 0)]))


def test_quotient_form_orders():
    form = three_e6()
    k = Subgroup.spanned(form, [(1, 1, 1)])
    quo = quotient_form(form, k)
    assert quo.form.order() == form.order() // k.order()**2  # 27 / 9
    quo.form.validate()
    # quotient of the trivial kernel is the form itself
    quo0 = quotient_form(form, Subgroup.trivial(form))
    assert quo0.form.order() == 27
    assert q_multiset(quo0.form) == q_multiset(form)


def test_quotient_a17_is_order_two():
    form = graph_discr(DynkinGraph((ADEType("A", 17),)))
    assert form.orders == (18,)
    k = Subgroup.spanned(form, [(6,)])
    assert k.order() == 3 and is_isotropic(form, k)
    quo = quotient_form(form, k)
    assert quo.form.order() == 2
    gen = next(x for x in elements(quo.form) if any(x))
    assert quo.form.q(gen) == F(3, 2)


def test_quotient_rejects_anisotropic_kernel():
    form = three_e6()
    with pytest.raises(ValueError):
        quotient_form(form, Subgroup.spanned(form, [(1, 0, 0)]))


# ---------------------------------------------------------------------------
# automorphisms


def test_minus_identity_preserves_form():
    # an automorphism is its code table: entry c is the code of the image
    form = three_e6()
    ident = np.arange(form.order())
    m = form.encode(-form.element_array)
    assert preserves_form(form, m)
    assert not np.array_equal(m, ident)
    assert np.array_equal(m[m], ident)
    assert form.decode([m[form.encode((1, 2, 0))]]) == ((2, 1, 0),)
    assert preserves_form(form, ident)


def test_automorphism_must_preserve_form():
    form = graph_discr(DynkinGraph((ADEType("A", 4),)))  # Z5, q = -4/5
    # multiplication by 2 sends q(g) = -4/5 to -16/5 != -4/5 mod 2
    bad = form.encode(2 * form.element_array)
    assert not preserves_form(form, bad)
    # multiplication by -1 is fine
    assert preserves_form(form, form.encode(4 * form.element_array))


# ---------------------------------------------------------------------------
# torsion spaces and isotropic subgroup enumeration


def test_torsion_space_3e6():
    form = three_e6()
    sp = torsion_space(form, 3)
    assert len(sp.basis) == 3
    # one torsion coordinate in each of the three blocks
    assert form.blocks == ((0,), (1,), (2,))
    assert [np.flatnonzero(t).tolist() for t in sp.basis] == [[0], [1], [2]]
    # q(e) = 2/3, so p*b(e, e) = 3*2/3 = 2: bmat's diagonal is 2q
    assert [sp.bmat[i][i] for i in range(3)] == [2, 2, 2]
    with pytest.raises(ValueError):
        torsion_space(form, 2)


@pytest.mark.parametrize("fam", [f for f in catalog.families() if f.kernel_spec[0]],
                         ids=lambda f: f.essential)
def test_torsion_space_bmat_is_p_times_b(fam):
    p = fam.kernel_spec[0]
    form = graph_discr(parse_singularities(fam.essential))
    sp = torsion_space(form, p)
    assert len(sp.basis) > 0
    for t, row in zip(sp.basis, sp.bmat):
        for s, v in zip(sp.basis, row):
            pb = p * form.b(t, s)
            assert pb.denominator == 1 and v == pb.numerator % p


@pytest.mark.parametrize("fam", [f for f in catalog.families() if f.kernel_spec[0]],
                         ids=lambda f: f.essential)
def test_torsion_space_lists_f_p_m_in_code_order(fam):
    p = fam.kernel_spec[0]
    form = graph_discr(parse_singularities(fam.essential))
    sp = torsion_space(form, p)
    m = len(sp.basis)
    assert sp.vecs.tolist() == [list(v) for v in itertools.product(range(p), repeat=m)]
    assert (np.diff(sp.codes) > 0).all()
    assert np.array_equal(sp.codes, form.encode(sp.vecs @ sp.basis))
    assert np.array_equal(sp.basis_codes, form.encode(sp.basis))
    qs = [form.q(x) for x in form.decode(sp.codes)]
    assert sp.isotropic.tolist() == [q == 0 for q in qs]


def test_isotropic_subgroups_3e6():
    form = three_e6()
    enc = isotropic_subspaces(form, 3, 1)
    assert enc.shape == (4, 3)  # four subgroups of order 3
    assert (enc == int(form.encode((1, 1, 1)))).any()
    for row in enc:
        assert is_isotropic(form, Subgroup(form, tuple(row.tolist())))


def test_isotropic_subgroups_3a2_rank2_empty():
    # a^2+b^2+c^2 on F_3^3 has no totally isotropic plane
    form = graph_discr(DynkinGraph((ADEType("A", 2),) * 3))
    assert isotropic_subspaces(form, 3, 2).shape == (0, 9)
    assert isotropic_subspaces(form, 3, 1).shape == (4, 3)


def test_isotropic_subgroups_3a6():
    form = graph_discr(DynkinGraph((ADEType("A", 6),) * 3))
    enc = isotropic_subspaces(form, 7, 1)
    assert len(enc) == 8
    assert (enc == int(form.encode((1, 2, 3)))).any()


def test_isotropic_subgroups_no_torsion():
    form = graph_discr(parse_singularities("2E8+A3"))
    assert len(isotropic_subspaces(form, 3, 1)) == 0


def test_full_support_needs_every_block():
    # the A1 block has no 3-torsion, so no subspace projects onto it
    form = graph_discr(parse_singularities("3A2+A1"))
    assert form.blocks == ((0,), (1,), (2,), (3,))
    assert len(torsion_space(form, 3).basis) == 3
    assert isotropic_subspaces(form, 3, 1).shape == (0, 3)


def test_isotropic_subgroups_deterministic():
    form = three_e6()
    a = isotropic_subspaces(form, 3, 1)
    b = isotropic_subspaces(form, 3, 1)
    assert np.array_equal(a, b)


def brute_isotropic_subspaces(form, p, rank):
    """Reference for isotropic_subspaces at rank 1 or 2: span every tuple
    of isotropic vectors of the p-torsion space, keep the totally isotropic
    spans of order p^rank, deduplicate them, keep those that reach every
    block, and return their sorted code rows in lexicographic order.  An
    element's code is that of its ambient coordinates, the span
    coordinates taken through the torsion basis.
    """
    assert rank in (1, 2)
    space = torsion_space(form, p)
    m = len(space.basis)
    bmat = np.array(space.bmat, dtype=np.int64)
    vecs = np.array(list(itertools.product(range(p), repeat=m)), dtype=np.int64)[1:]
    iso = vecs[((vecs @ bmat) * vecs).sum(axis=1) % p == 0]
    if rank == 1:
        tuples = np.arange(len(iso))[:, None]
    else:
        # pairs with b(x, y) != 0 span no isotropic plane; dropping them
        # early keeps the arrays small
        tuples = np.argwhere(np.triu(iso @ bmat @ iso.T % p == 0, 1))
    rows = iso[tuples]
    combos = np.array(list(itertools.product(range(p), repeat=rank)))
    digits = p ** np.arange(m - 1, -1, -1)
    spans, isotropic = [], np.ones(len(rows), dtype=bool)
    for c in combos:
        elem = np.einsum("r,nrm->nm", c, rows) % p
        isotropic &= ((elem @ bmat) * elem).sum(axis=1) % p == 0
        spans.append(elem @ digits)
    spans = np.sort(np.stack(spans, axis=1), axis=1)
    keep = isotropic & (np.diff(spans, axis=1) != 0).all(axis=1)
    _, first = np.unique(spans[keep], axis=0, return_index=True)
    # the elements of each distinct span, in ambient coordinates
    basis = np.array(space.basis, dtype=np.int64).reshape(m, form.rank)
    ambient = (np.einsum("cr,nrm->ncm", combos, rows[keep][first]) % p) @ basis
    ambient %= np.array(form.orders)
    reached = np.stack([ambient[:, :, list(blk)].any(axis=(1, 2)) for blk in form.blocks], axis=1)
    codes = np.sort(form.encode(ambient[reached.all(axis=1)]), axis=1)
    return codes[np.lexsort(codes.T[::-1])].astype(form.code_dtype)


@pytest.mark.parametrize("text", ["6A2", "2A5+4A2", "E6+6A2", "8A2"])
@pytest.mark.parametrize("rank", [1, 2])
def test_isotropic_subspaces_match_brute_force(text, rank):
    form = graph_discr(parse_singularities(text))
    got = isotropic_subspaces(form, 3, rank)
    assert got.dtype == form.code_dtype
    assert np.array_equal(got, brute_isotropic_subspaces(form, 3, rank))


@pytest.fixture(scope="module")
def nine_a2():
    """9A2's rank-3 kernel rows and the tracemalloc peak, in bytes, of
    computing them."""
    form = graph_discr(parse_singularities("9A2"))
    tracemalloc.start()
    try:
        enc = isotropic_subspaces(form, 3, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return form, enc, peak


def test_isotropic_subspaces_9a2_pinned(nine_a2):
    # recorded from the separate basis-then-codes enumeration this
    # function replaced
    _, enc, _ = nine_a2
    assert enc.shape == (555520, 27) and enc.dtype == np.uint16
    assert hashlib.sha256(enc.tobytes()).hexdigest() == (
        "107f1ae92898d03925596320ed203ceb458eecc0d9b57da314e0c065eeffa871"
    )


def test_isotropic_subspaces_9a2_memory(nine_a2):
    # 204 MiB when all 555,520 bases (114 MiB) were built before their codes
    _, _, peak = nine_a2
    assert peak < 120 * 2**20


@pytest.mark.parametrize("text, n, digest", [
    ("E6+6A2", 640, "ba9f223872ad4f9f181e30583ae344ad6c47df4ecc3afcfcf9b1d94ca8883747"),
    ("8A2", 35840, "bde397fca1adc6f17b46da8885023ecc4410e8f5e7e17771a2a22e4bff513f35"),
    ("A5+7A2", 15680, "ba8aa14c40e1d9617866e36ea6df196b8a391e2a9dd5bb3d6f0d35d6bfb3ab1b"),
])
def test_isotropic_subspaces_rank3_pinned(text, n, digest):
    # recorded from the separate basis-then-codes enumeration
    form = graph_discr(parse_singularities(text))
    enc = isotropic_subspaces(form, 3, 3)
    assert enc.shape == (n, 27) and enc.dtype == np.uint16
    assert hashlib.sha256(enc.tobytes()).hexdigest() == digest
    check_kernel_rows(form, 3, enc)


def test_isotropic_subspaces_use_the_form_code_dtype():
    form = graph_discr(parse_singularities("6A2"))
    assert form.code_dtype == np.uint16  # codes below 3^6
    enc = isotropic_subspaces(form, 3, 2)
    assert enc.dtype == form.code_dtype
    # columns 1 and p of a row generate its subgroup
    for row in enc:
        assert Subgroup.spanned(form, form.decode(row[[1, 3]])).codes == tuple(row.tolist())


def test_block_codes_split_codes_by_summand():
    g = parse_singularities("E6+A5+A2")
    form = graph_discr(g)
    codes = np.arange(form.order())
    blocks = form.block_codes(codes)
    assert np.array_equal(blocks @ form.block_weights, codes)
    for ci, t in enumerate(g.components):
        coords = form.element_array[:, list(form.blocks[ci])]
        assert np.array_equal(blocks[:, ci], component_discr(t).form.encode(coords))


def check_kernel_rows(form, p, enc):
    # each row lists its subgroup's codes in increasing order
    assert (np.diff(enc.astype(np.int64), axis=1) > 0).all()
    # the short key orders shuffled rows exactly as the full rows do
    shuffled = enc[np.random.default_rng(0).permutation(len(enc))]
    assert np.array_equal(
        np.argsort(subgroup_keys(form, p, shuffled), kind="stable"),
        np.lexsort(shuffled.T[::-1]),
    )


@pytest.mark.parametrize("text, rank", [("6A2", 1), ("6A2", 2), ("8A2", 2)])
def test_subgroup_code_rows_and_keys(text, rank):
    form = graph_discr(parse_singularities(text))
    enc = isotropic_subspaces(form, 3, rank)
    assert len(enc) > 0
    check_kernel_rows(form, 3, enc)


def test_subgroup_code_rows_and_keys_9a2(nine_a2):
    form, enc, _ = nine_a2
    check_kernel_rows(form, 3, enc)
