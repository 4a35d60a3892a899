import hashlib
import itertools
from fractions import Fraction as F

import numpy as np
import pytest

from sexticsym.discrforms import (
    Subgroup,
    _rref_mod_p,
    direct_sum,
    discriminant_form,
    is_isotropic,
    isotropic_subgroups,
    isotropic_subspaces,
    orthogonal_complement,
    preserves_form,
    quotient_form,
    subgroup_codes,
    torsion_space,
)
from sexticsym.rootsystems import (
    ADEType,
    DynkinGraph,
    component_discr,
    graph_discr,
    parse_singularities,
)


def _mod2(x: F) -> F:
    return x % 2


def q_multiset(form):
    return sorted(form.q(x) for x in form.elements())


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
    assert sorted(form.q(x) for x in form.elements() if any(x)) == [1, 1, 1]
    xs = [x for x in form.elements() if any(x)]
    for x, y in itertools.combinations(xs, 2):
        assert form.b(x, y) == F(1, 2)


# ---------------------------------------------------------------------------
# generic form axioms


@pytest.mark.parametrize(
    "gram, order",
    [
        ([[-2]], 2),
        ([[-2, 1], [1, -2]], 3),
        ([[0, 1], [1, 0]], 1),
        ([[-2, 1, 0], [1, -2, 1], [0, 1, -2]], 4),
        ([[-4]], 4),
    ],
)
def test_discriminant_form_order(gram, order):
    data = discriminant_form(gram)
    assert data.form.order() == order
    data.form.validate()


def test_discriminant_form_rejects_singular():
    with pytest.raises(ValueError):
        discriminant_form([[2, 0], [0, 0]])


@pytest.mark.parametrize(
    "types",
    [
        (ADEType("A", 5), ADEType("A", 2)),
        (ADEType("D", 5),),
        (ADEType("E", 6), ADEType("A", 2)),
    ],
)
def test_q_b_compatibility(types):
    form = graph_discr(DynkinGraph(types))
    form.validate()
    # element i of form.elements() is the element of code i
    els = list(form.elements())
    negs = form.decode(form.encode(-form.element_array))
    for x, nx in zip(els, negs):
        assert _mod2(form.q(x)) == form.q(x)
        assert form.q(nx) == form.q(x)
    for (i, x), (j, y) in itertools.product(enumerate(els), repeat=2):
        lhs = _mod2(form.q(els[int(form.add_codes(i, j))]) - form.q(x) - form.q(y))
        assert lhs == _mod2(2 * form.b(x, y))


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
    assert (2, 2, 2) in k
    assert (1, 2, 0) not in k
    assert k.is_subgroup_of(form)
    assert Subgroup.trivial(form).order() == 1


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
        assert x in perp  # isotropic subgroups sit inside their complement
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
    gen = next(x for x in quo.form.elements() if any(x))
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
    assert sp.coord_block == (0, 1, 2)
    assert sp.n_blocks == 3
    # q(e) = 2/3, so p*b(e, e) = 3*2/3 = 2: bmat's diagonal is 2q
    assert [sp.bmat[i][i] for i in range(3)] == [2, 2, 2]
    with pytest.raises(ValueError):
        torsion_space(form, 2)


def test_isotropic_subgroups_3e6():
    form = three_e6()
    subs = isotropic_subgroups(form, 3, 1)
    assert len(subs) == 4
    gens = {min(x for x in s.elements if any(x)) for s in subs}
    assert (1, 1, 1) in {g for g in gens} or any((1, 1, 1) in s for s in subs)
    for s in subs:
        assert s.order() == 3
        assert is_isotropic(form, s)
    # without the support constraint, partial-support subgroups appear too
    assert len(isotropic_subgroups(form, 3, 1, full_support=False)) == 4


def test_isotropic_subgroups_3a2_rank2_empty():
    # a^2+b^2+c^2 on F_3^3 has no totally isotropic plane
    form = graph_discr(DynkinGraph((ADEType("A", 2),) * 3))
    assert isotropic_subgroups(form, 3, 2) == []
    assert len(isotropic_subgroups(form, 3, 1)) == 4


def test_isotropic_subgroups_3a6():
    form = graph_discr(DynkinGraph((ADEType("A", 6),) * 3))
    subs = isotropic_subgroups(form, 7, 1)
    assert len(subs) == 8
    assert any((1, 2, 3) in s for s in subs)


def test_isotropic_subgroups_no_torsion():
    form = graph_discr(
        DynkinGraph((ADEType("E", 8), ADEType("E", 8), ADEType("A", 3)))
    )
    assert isotropic_subgroups(form, 3, 1) == []


def test_full_support_needs_every_block():
    # the A1 block has no 3-torsion, so no subspace projects onto it
    form = graph_discr(parse_singularities("3A2+A1"))
    space = torsion_space(form, 3)
    assert space.coord_block == (0, 1, 2) and space.n_blocks == 4
    assert isotropic_subspaces(space, 1).shape == (0, 1, 3)
    assert len(isotropic_subspaces(space, 1, full_support=False)) == 4
    assert isotropic_subgroups(form, 3, 1) == []
    assert len(isotropic_subgroups(form, 3, 1, full_support=False)) == 4


def test_isotropic_subgroups_deterministic():
    form = three_e6()
    a = isotropic_subgroups(form, 3, 1)
    b = isotropic_subgroups(form, 3, 1)
    assert a == b


def brute_isotropic_subspaces(space, rank):
    """Reference for isotropic_subspaces at rank 1 or 2: span every tuple
    of isotropic vectors, keep the totally isotropic spans of dimension
    rank, deduplicate them and take each one's RREF basis.

    Returns the subspaces without and with the full-support condition.
    """
    assert rank in (1, 2)
    p, m = space.p, len(space.basis)
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
    digits = p ** np.arange(m - 1, -1, -1)
    spans, isotropic = [], np.ones(len(rows), dtype=bool)
    for c in itertools.product(range(p), repeat=rank):
        elem = np.einsum("r,nrm->nm", np.array(c), rows) % p
        isotropic &= ((elem @ bmat) * elem).sum(axis=1) % p == 0
        spans.append(elem @ digits)
    spans = np.sort(np.stack(spans, axis=1), axis=1)
    keep = isotropic & (np.diff(spans, axis=1) != 0).all(axis=1)
    spans = spans[keep]
    # deduplicate on each span's element set, as one bytes value per row
    keys = np.ascontiguousarray(spans).view(np.dtype((np.void, spans.itemsize * spans.shape[1])))
    _, first = np.unique(keys.ravel(), return_index=True)
    rrefs = sorted(
        (_rref_mod_p(basis, p) for basis in rows[keep][first]),
        key=lambda a: a.ravel().tolist(),
    )
    subs = np.array(rrefs, dtype=np.int64).reshape(len(rrefs), rank, m)
    blocks = np.array(space.coord_block)
    support = [np.unique(blocks[s.any(axis=0)]).size for s in subs]
    full = np.array(support, dtype=np.int64) == space.n_blocks
    return subs, subs[full]


@pytest.mark.parametrize("text", ["6A2", "2A5+4A2", "E6+6A2", "8A2"])
@pytest.mark.parametrize("rank", [1, 2])
def test_isotropic_subspaces_match_brute_force(text, rank):
    space = torsion_space(graph_discr(parse_singularities(text)), 3)
    every, full = brute_isotropic_subspaces(space, rank)
    for want, full_support in ((every, False), (full, True)):
        got = isotropic_subspaces(space, rank, full_support=full_support)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


def test_isotropic_subspaces_9a2_pinned():
    # recorded from the depth-first enumeration this function replaced
    space = torsion_space(graph_discr(parse_singularities("9A2")), 3)
    subs = isotropic_subspaces(space, 3)
    assert subs.shape == (555520, 3, 9) and subs.dtype == np.int64
    assert hashlib.sha256(subs.tobytes()).hexdigest() == (
        "31dfeab4b489780f24585073739c37e317afc2a2f0c472b41b12e917c82c6ac9"
    )


def test_subgroup_codes_use_the_form_code_dtype():
    form = graph_discr(parse_singularities("6A2"))
    assert form.code_dtype == np.uint16  # codes below 3^6
    space = torsion_space(form, 3)
    bases = isotropic_subspaces(space, 2)
    enc = subgroup_codes(form, space, bases)
    assert enc.dtype == form.code_dtype
    basis = np.array(space.basis)
    want = sorted(Subgroup.spanned(form, (b @ basis).tolist()).elements for b in bases)
    assert [form.decode(row) for row in enc] == want


def test_block_codes_split_codes_by_summand():
    g = parse_singularities("E6+A5+A2")
    form = graph_discr(g)
    codes = np.arange(form.order())
    blocks = form.block_codes(codes)
    assert np.array_equal(blocks @ form.block_weights, codes)
    for ci, t in enumerate(g.components):
        coords = form.element_array[:, list(form.blocks[ci])]
        assert np.array_equal(blocks[:, ci], component_discr(t).form.encode(coords))
