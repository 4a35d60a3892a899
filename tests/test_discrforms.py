import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sexticsym import catalog
from sexticsym.discrforms import (
    FiniteQuadraticForm,
    Subgroup,
    _form_of_pairing,
    direct_sum,
    discriminant_form,
    greedy_generators,
    is_isotropic,
    isotropic_subspaces,
    kernel_perp,
    quotient_form,
    split_tables,
    torsion_space,
    zero_sum_codes,
)
from sexticsym.rootsystems import (
    ADEType,
    DynkinGraph,
    component_discr,
    component_gram,
    graph_discr,
    parse_singularities,
)

from helpers import (
    affine_tables,
    assert_q_lifts_b,
    brute_perp,
    catalog_kernels,
    elements,
    form_b,
    form_q,
    multiplication_table,
    preserves_form,
    signed_tables,
    spanned,
    subgroup_keys,
)


ALL_TYPES = ([ADEType("A", n) for n in range(1, 20)] + [ADEType("D", n) for n in range(4, 20)]
             + [ADEType("E", n) for n in (6, 7, 8)])


def _mod2(x: F) -> F:
    return x % 2


def code_dtype(form):
    """The narrowest unsigned type that holds every code of form."""
    return np.min_scalar_type(form.order() - 1)


def q_multiset(form):
    return sorted(form_q(form, x) for x in elements(form))


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
    assert form_q(form, gen) == _mod2(F(-p, p + 1))
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
    assert sorted(form_q(form, x) for x in elements(form) if any(x)) == [1, 1, 1]
    xs = [x for x in elements(form) if any(x)]
    for x, y in itertools.combinations(xs, 2):
        assert form_b(form, x, y) == F(1, 2)


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

    assert sympy.Matrix(data.inverse) == form.level * ginv
    units = [tuple(int(i == j) for j in range(form.rank)) for i in range(form.rank)]
    for i, x in enumerate(data.lifts):
        assert form_q(form, units[i]) == pair(x, x) % 2
        for j, y in enumerate(data.lifts):
            assert form_b(form, units[i], units[j]) == pair(x, y) % 1


@pytest.mark.parametrize("types", [
    (ADEType("A", 5), ADEType("A", 2)),
    (ADEType("D", 5),),
    (ADEType("E", 6), ADEType("A", 2)),
])
def test_q_b_compatibility(types):
    form = graph_discr(DynkinGraph(types))
    form.validate()
    negs = [form.decode(c) for c in multiplication_table(form, -1)]
    for x, nx in zip(elements(form), negs):
        assert _mod2(form_q(form, x)) == form_q(form, x)
        assert form_q(form, nx) == form_q(form, x)
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
        assert form_q(s, embed(blk, ones)) == form_q(part, ones)
        units = np.eye(part.rank, dtype=int).tolist()
        for x in units:
            assert form_q(s, embed(blk, x)) == form_q(part, x)
            for y in units:
                assert form_b(s, embed(blk, x), embed(blk, y)) == form_b(part, x, y)
    units = np.eye(s.rank, dtype=int).tolist()
    for bi, bj in itertools.permutations(s.blocks, 2):
        for i, j in itertools.product(bi, bj):
            assert form_b(s, units[i], units[j]) == 0


def test_form_of_pairing_refuses_values_off_the_level():
    # level 3: 1/2 is not a multiple of 1/3
    with pytest.raises(ValueError, match="multiple of 1/level"):
        _form_of_pairing((3,), [[1]], 2)
    # -4/3 = 2/3 mod 2, and -8/6 the same value over 6
    assert _form_of_pairing((3,), [[-4]], 3).gram == ((2,),)
    assert _form_of_pairing((3,), [[-8]], 6).gram == ((2,),)


def test_direct_sum_blocks_and_order():
    a2 = component_discr(ADEType("A", 2)).form
    e7 = component_discr(ADEType("E", 7)).form
    e8 = component_discr(ADEType("E", 8)).form
    s = direct_sum([a2, e7, e8])
    assert s.order() == 6
    # E8 contributes an empty block, still tracked for support bookkeeping
    assert len(s.blocks) == 3
    assert s.blocks[2] == ()
    assert form_q(s, (1, 0)) == form_q(a2, (1,))
    assert form_q(s, (0, 1)) == form_q(e7, (1,))
    assert form_b(s, (1, 1), (1, 0)) == form_b(a2, (1,), (1,))


# ---------------------------------------------------------------------------
# subgroups, complements, quotients


def three_e6():
    return graph_discr(DynkinGraph((ADEType("E", 6),) * 3))


def test_subgroup_spanned():
    form = three_e6()
    k = spanned(form, [(1, 1, 1)])
    assert k.order() == 3
    assert form.encode((2, 2, 2)) in k.codes
    assert form.encode((1, 2, 0)) not in k.codes
    assert k.is_subgroup_of(form)
    assert Subgroup.trivial(form).order() == 1


def brute_span(form, codes):
    """The subgroup the codes generate, sorted: {0} closed under adding
    each of them."""
    span = {0}
    while True:
        more = span | {form.add_codes(x, c) for x in span for c in codes}
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
    assert list(span) == brute_span(form, codes)
    # each code, in the order given, is taken iff the ones taken before it
    # do not span it
    taken = []
    for c in codes:
        if c not in brute_span(form, taken):
            taken.append(c)
    assert gens == taken


def test_subgroup_holds_sorted_codes():
    form = three_e6()
    k = spanned(form, [(2, 2, 2)])
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


def test_isotropy_and_complement_3e6():
    form = three_e6()
    k = spanned(form, [(1, 1, 1)])
    assert is_isotropic(form, k)
    perp = greedy_generators(form, kernel_perp(form, k))[1]
    assert len(perp) == 9
    for x in k.elements:
        # isotropic subgroups sit inside their complement
        assert form.encode(x) in perp
    assert not is_isotropic(form, spanned(form, [(1, 0, 0)]))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_is_isotropic_matches_fraction_q(data):
    # the integer test is q(x) = 0 in Q/2Z, with q a Fraction
    if data.draw(st.booleans()):
        form = data.draw(st.sampled_from(SPAN_FORMS))
    else:
        gram = data.draw(even_grams())
        assume(sympy.Matrix(gram).det() != 0)
        form = discriminant_form(gram).form
    codes = data.draw(st.lists(st.integers(0, form.order() - 1), max_size=3))
    k = Subgroup(form, greedy_generators(form, codes)[1])
    assert is_isotropic(form, k) == all(form_q(form, x) == 0 for x in k.elements)


def test_quotient_form_refuses_a_degenerate_form():
    # b is 0 on all of Z3, so K-perp is all of D and |K-perp| |K| = 9 != 3
    form = FiniteQuadraticForm((3,), ((0,),))
    with pytest.raises(ValueError, match="degenerate"):
        quotient_form(form, Subgroup(form, (0, 1, 2)))


def assert_perp_matches_b(form, k):
    """kernel_perp(form, k) against K-perp found from b: an echelon whose
    generators supported on coordinates 0..i span K-perp's elements there,
    for every i, all of K-perp at the last; or, where |K-perp| |K| is not
    |D|, a refusal.  The refusal compares prod d_i / t_i times |K| with
    |D|, so where the form passes, the product is |K-perp|."""
    want = brute_perp(form, k)
    if len(want) * k.order() != form.order():
        with pytest.raises(ValueError, match="degenerate"):
            kernel_perp(form, k)
        return
    gens = kernel_perp(form, k)
    for w in form.weights:  # supported on coordinates 0..i: a multiple of weights[i]
        span = greedy_generators(form, [z for z in gens if z % w == 0])[1]
        assert list(span) == [x for x in want if x % w == 0]


@st.composite
def any_forms(draw):
    """A form on up to four cyclic factors of orders up to 27, with b drawn
    at random and so often degenerate; |D| <= 2,000."""
    orders = draw(st.lists(st.sampled_from([2, 3, 4, 5, 9, 15, 25, 27]), min_size=1, max_size=4))
    assume(math.prod(orders) <= 2000)
    n = math.lcm(*orders)
    gram = [[0] * len(orders) for _ in orders]
    for i, a in enumerate(orders):
        for j in range(i, len(orders)):
            # a multiple of N / d_i and of N / d_j, so b(e_i, e_j) is killed by both orders
            g = draw(st.integers(0, 2 * n)) * math.lcm(n // a, n // orders[j]) % (2 * n if i == j else n)
            gram[i][j] = gram[j][i] = g
    form = FiniteQuadraticForm(tuple(orders), tuple(map(tuple, gram)))
    form.validate()
    return form


# cyclic factors of exponent above their prime: Z9, Z25, Z27
DEEP_FORMS = [direct_sum([component_discr(ADEType("A", n)).form for n in ns]) for ns in ((26, 8, 2), (24, 4), (8, 8))]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_perp_matches_brute_force(data):
    # nondegenerate forms (catalog-like, lattice discriminants and deep
    # cyclic factors) and forms with random b, each with a random subgroup
    # of odd order (every generator multiplied by the 2-part of N)
    source = data.draw(st.sampled_from(["span", "deep", "lattice", "any"]))
    if source == "span":
        form = data.draw(st.sampled_from(SPAN_FORMS))
    elif source == "deep":
        form = data.draw(st.sampled_from(DEEP_FORMS))
    elif source == "lattice":
        gram = data.draw(even_grams())
        assume(sympy.Matrix(gram).det() != 0)
        form = discriminant_form(gram).form
    else:
        form = data.draw(any_forms())
    two = form.level & -form.level
    codes = data.draw(st.lists(st.integers(0, form.order() - 1), max_size=3))
    odd = [form.encode([two * c for c in form.decode(x)]) for x in codes]
    k = Subgroup(form, greedy_generators(form, odd)[1])
    assert k.order() % 2 == 1
    assert_perp_matches_b(form, k)


@pytest.mark.parametrize("form, gens", [
    (DEEP_FORMS[0], [(1, 0, 0)]),        # Z27 itself: exponent 27
    (DEEP_FORMS[0], [(3, 1, 0)]),        # order 9 across Z27 and Z9
    (DEEP_FORMS[0], [(9, 3, 1), (0, 1, 0)]),
    (DEEP_FORMS[1], [(5, 1)]),           # order 5 in Z25 + Z5
    (DEEP_FORMS[1], [(1, 0)]),           # Z25 itself
    (DEEP_FORMS[2], [(1, 1)]),           # order 9, diagonal in Z9 + Z9
    (DEEP_FORMS[2], [(1, 3), (3, 0)]),
], ids=["Z27", "9-mixed", "27-two-gens", "5-in-25", "Z25", "9-diagonal", "9x3"])
def test_perp_matches_brute_force_above_exponent_p(form, gens):
    assert_perp_matches_b(form, spanned(form, gens))


def test_perp_refuses_a_degenerate_form():
    # as quotient_form does: b is 0 on all of Z3
    form = FiniteQuadraticForm((3,), ((0,),))
    with pytest.raises(ValueError, match="degenerate"):
        kernel_perp(form, Subgroup(form, (0, 1, 2)))


@st.composite
def zero_sum_problems(draw):
    """Choices per position of a mixed radix (last position fastest), each
    a nonempty ascending set of that position's digits with random keys
    mod m of one width."""
    m = draw(st.integers(1, 5))
    width = draw(st.integers(0, 2))
    radices = draw(st.lists(st.integers(1, 4), max_size=5))
    choices = []
    for i, r in enumerate(radices):
        digits = sorted(draw(st.sets(st.integers(0, r - 1), min_size=1)))
        w = math.prod(radices[i + 1:])
        choices.append([(d * w, tuple(draw(st.lists(st.integers(0, m - 1), min_size=width, max_size=width))))
                        for d in digits])
    return choices, m


@settings(max_examples=200, deadline=None)
@given(zero_sum_problems())
# every key entry m - 1 = 4: each entry's sum over the 5 positions, 20,
# needs all 5 bits of its lane
@example(([[(0, (4, 4, 4)), (3 ** (4 - i), (4, 4, 4))] for i in range(5)], 5))
def test_zero_sum_codes_match_brute_force(problem):
    # every tuple of choices in product order, which is ascending code order,
    # kept when each key entry sums to 0 mod m
    choices, m = problem
    want = [sum(c for c, _ in combo) for combo in itertools.product(*choices)
            if all(sum(col) % m == 0 for col in zip(*(k for _, k in combo)))]
    assert zero_sum_codes(choices, m) == want


def test_quotient_form_orders():
    form = three_e6()
    k = spanned(form, [(1, 1, 1)])
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
    k = spanned(form, [(6,)])
    assert k.order() == 3 and is_isotropic(form, k)
    quo = quotient_form(form, k)
    assert quo.form.order() == 2
    gen = next(x for x in elements(quo.form) if any(x))
    assert form_q(quo.form, gen) == F(3, 2)


def test_quotient_rejects_anisotropic_kernel():
    form = three_e6()
    with pytest.raises(ValueError):
        quotient_form(form, spanned(form, [(1, 0, 0)]))


def test_isotropy_refuses_isotropic_generators_that_pair():
    # the discriminant form of U(3): both generators have q = 0, but b pairs
    # them to 1/3, so q((1, 1)) = 2/3 and their span is not isotropic
    form = discriminant_form(((0, 3), (3, 0))).form
    k = Subgroup(form, tuple(range(form.order())))
    gens = k.generators()
    assert len(gens) == 2 and all(form_q(form, g) == 0 for g in gens)
    assert not is_isotropic(form, k)
    with pytest.raises(ValueError, match="not isotropic"):
        quotient_form(form, k)


def test_quotient_form_refuses_an_unclosed_kernel():
    # (1, 1, 1) of 3E6 is isotropic, but {0, (1, 1, 1)} is no subgroup
    form = three_e6()
    with pytest.raises(ValueError, match="not closed"):
        quotient_form(form, Subgroup(form, (0, 13)))


@pytest.mark.parametrize("fam", catalog.families(), ids=lambda f: f.essential)
def test_quotient_form_on_catalog_kernels(fam):
    # K = 0 and every reported orbit's kernel: |K-perp/K| = |D| / |K|^2,
    # and each Gram entry over the quotient's level is b (off the
    # diagonal) or q (on it) of the representatives
    form, kernels = catalog_kernels(fam)
    for k in kernels:
        quo = quotient_form(form, k)
        qf = quo.form
        assert qf.order() == form.order() // k.order() ** 2
        qf.validate()
        assert len(quo.reps) == qf.rank
        for i, x in enumerate(quo.reps):
            for j, y in enumerate(quo.reps):
                want = form_q(form, x) if i == j else form_b(form, x, y)
                assert F(qf.gram[i][j], qf.level) == want


def test_discriminant_and_quotient_forms_build_no_fraction(monkeypatch):
    # every ADE type of rank <= 19 and every catalog kernel orbit, on
    # integers only: any Fraction built fails the test
    cases = [catalog_kernels(fam) for fam in catalog.families()]
    grams = [[list(row) for row in component_gram(t)] for t in ALL_TYPES]

    def refused(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(F, "__new__", refused)
    for gram in grams:
        discriminant_form(gram)
    for form, kernels in cases:
        for k in kernels:
            quotient_form(form, k)


# ---------------------------------------------------------------------------
# automorphisms


def test_minus_identity_preserves_form():
    # an automorphism is its code table: entry c is the code of the image
    form = three_e6()
    ident = tuple(range(form.order()))
    m = multiplication_table(form, -1)
    assert preserves_form(form, m)
    assert m != ident
    assert tuple(m[x] for x in m) == ident
    assert form.decode(m[form.encode((1, 2, 0))]) == (2, 1, 0)
    assert preserves_form(form, ident)


def test_automorphism_must_preserve_form():
    form = graph_discr(DynkinGraph((ADEType("A", 4),)))  # Z5, q = -4/5
    # multiplication by 2 sends q(g) = -4/5 to -16/5 != -4/5 mod 2
    bad = multiplication_table(form, 2)
    assert not preserves_form(form, bad)
    # multiplication by -1 is fine
    assert preserves_form(form, multiplication_table(form, 4))


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
            pb = p * form_b(form, t, s)
            assert pb.denominator == 1 and v == pb.numerator % p


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19])
def test_each_component_has_at_most_one_odd_torsion_coordinate(p):
    # so the p-torsion of a graph's form has one coordinate per component
    # at most, the components are orthogonal, and bmat is diagonal
    for t in ALL_TYPES:
        orders = component_discr(t).form.orders
        assert sum(d % p == 0 for d in orders) == (t.family == "A" and (t.rank + 1) % p == 0
                                                   or t == ADEType("E", 6) and p == 3)


@pytest.mark.parametrize("fam", [f for f in catalog.families() if f.kernel_spec[0]],
                         ids=lambda f: f.essential)
def test_torsion_space_lists_f_p_m_in_code_order(fam):
    p = fam.kernel_spec[0]
    form = graph_discr(parse_singularities(fam.essential))
    sp = torsion_space(form, p)
    m = len(sp.basis)
    # F_p^m in product order; each vector's code is read off basis_codes
    vecs = list(itertools.product(range(p), repeat=m))
    codes = [sum(c * b for c, b in zip(v, sp.basis_codes)) for v in vecs]
    assert all(a < b for a, b in zip(codes, codes[1:]))
    assert codes == [form.encode([sum(c * t[j] for c, t in zip(v, sp.basis)) for j in range(form.rank)])
                     for v in vecs]
    assert list(sp.basis_codes) == [form.encode(t) for t in sp.basis]
    # bmat is diagonal, so 2q(v) = sum_k v_k^2 bmat[k][k] mod p
    qs = [form_q(form, form.decode(x)) for x in codes]
    assert [sum(c * c * sp.bmat[k][k] for k, c in enumerate(v)) % p == 0 for v in vecs] == [q == 0 for q in qs]


@pytest.mark.parametrize("fam", [f for f in catalog.families() if f.kernel_spec[0]],
                         ids=lambda f: f.essential)
def test_affine_tables_match_coordinatewise_codes(fam):
    # the marking reference's tables (helpers.child_orbits_by_marking): index
    # i of x in product order maps to the code of c x + w, each coordinate
    # reduced mod p
    p = fam.kernel_spec[0]
    sp = torsion_space(graph_discr(parse_singularities(fam.essential)), p)
    vecs = list(itertools.product(range(p), repeat=len(sp.basis)))
    for wv in (vecs[0], vecs[len(vecs) // 3], vecs[-1]):
        w = sum(a * b for a, b in zip(wv, sp.basis_codes))
        for c in range(p):
            hi, lo = affine_tables(sp, c, w)
            assert [hi[i // len(lo)] + lo[i % len(lo)] for i in range(len(vecs))] == [
                sum((c * x + y) % p * b for x, y, b in zip(v, wv, sp.basis_codes)) for v in vecs]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(-50, 50), min_size=1, max_size=4), max_size=5))
@example([])
@example([[7]])
@example([[0, 3], [1, 1, 2], [5]])
def test_split_tables_match_product_sums(parts):
    # index i of itertools.product(*parts), last part fastest, maps to the
    # sum of its choices; no parts leave the one empty sum, 0
    hi, lo = split_tables(parts)
    sums = [sum(choice) for choice in itertools.product(*parts)]
    assert len(hi) * len(lo) == len(sums)
    assert [hi[i // len(lo)] + lo[i % len(lo)] for i in range(len(sums))] == sums


def test_signed_tables_read_sources():
    # the marking reference's tables (helpers.child_orbits_by_marking) for
    # w, not an involution: (w x)[0] = x[1], (w x)[1] = -x[2], (w x)[2] = x[0]
    # on 3A4's F_5^3; a table built from targets instead of sources would
    # apply w^-1, which differs here
    p = 5
    sp = torsion_space(graph_discr(parse_singularities("3A4")), p)
    w = ((1, 1), (2, -1), (0, 1))
    hi, lo = signed_tables(sp, w)
    vecs = list(itertools.product(range(p), repeat=3))
    assert len(vecs) == len(hi) * len(lo) == 125
    assert [hi[i // len(lo)] + lo[i % len(lo)] for i in range(len(vecs))] == [
        sum(e * x[k] % p * b for (k, e), b in zip(w, sp.basis_codes)) for x in vecs]


def test_isotropic_subgroups_3e6():
    form = three_e6()
    enc = isotropic_subspaces(form, 3, 1)
    assert enc.shape == (4, 3)  # four subgroups of order 3
    assert (enc == form.encode((1, 1, 1))).any()
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
    assert (enc == form.encode((1, 2, 3))).any()


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
    codes = np.sort(ambient[reached.all(axis=1)] @ np.array(form.weights), axis=1)
    return codes[np.lexsort(codes.T[::-1])].astype(code_dtype(form))


@pytest.mark.parametrize("text", ["6A2", "2A5+4A2", "E6+6A2", "8A2"])
@pytest.mark.parametrize("rank", [1, 2])
def test_isotropic_subspaces_match_brute_force(text, rank):
    form = graph_discr(parse_singularities(text))
    got = isotropic_subspaces(form, 3, rank)
    assert got.dtype == code_dtype(form)
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
    assert code_dtype(form) == np.uint16  # codes below 3^6
    enc = isotropic_subspaces(form, 3, 2)
    assert enc.dtype == code_dtype(form)
    # columns 1 and p of a row generate its subgroup
    for row in enc:
        assert spanned(form, map(form.decode, row[[1, 3]].tolist())).codes == tuple(row.tolist())


def test_block_codes_split_codes_by_summand():
    g = parse_singularities("E6+A5+A2")
    form = graph_discr(g)
    for code, x in enumerate(elements(form)):
        blocks = form.block_codes(code)
        assert sum(b * w for b, w in zip(blocks, form.block_weights)) == code
        for ci, t in enumerate(g.components):
            assert blocks[ci] == component_discr(t).form.encode([x[i] for i in form.blocks[ci]])


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
