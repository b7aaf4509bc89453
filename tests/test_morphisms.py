"""Structural morphisms: evaluation, biproduct equations, the checker."""

from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from symalg.spaces import (
    UNIT, ZERO, UNIT_IX, base, sym, tensor, direct_sum, monomial, GenIx, MonIx,
    SumIx, TensorIx, Sum, enumerate_basis, terms, factors, split_pair, join_pair,
    is_basis_vector, order_key,
)
from symalg.elements import (
    Element, SpaceMismatchError, element, singleton, zero_element, elem_add, elem_scale,
    elem_tensor,
)
from symalg.tangent import kleisli_map
from symalg import morphisms, spaces
from symalg.morphisms import (
    MorExpr, Id, Compose, TensorM, Add, ZeroM, Sigma, Matrix, TableNu, Verdict,
    LinearMap, SymF, Eta, Mu, Mult, Deriv, RULES, apply, apply_basis, check_equal, compose,
    linear_map_from_matrix, sum_map, inj, proj, EndpointMismatchError,
)

B1 = base("x", 1)
B2 = base("y", 2)
B3 = base("z", 3)


class TestEndpoints:
    def test_compose_requires_matching_middle(self):
        with pytest.raises(EndpointMismatchError):
            Compose(Id(B2), Id(B3))

    def test_linear_map_requires_full_coverage(self):
        with pytest.raises(EndpointMismatchError):
            linear_map_from_matrix(B2, B1, ((1,),))

    def test_linear_map_requires_one_image_per_basis_vector(self):
        e = singleton(B1, GenIx(0), 1)
        with pytest.raises(EndpointMismatchError):
            LinearMap(B1, B1, ((GenIx(0), e), (GenIx(0), elem_scale(5, e))))
        with pytest.raises(EndpointMismatchError):
            kleisli_map(B1, B1, [(GenIx(0), singleton(sym(B1), monomial([]), 1))] * 2)

    def test_linear_map_images_hold_only_basis_vectors_of_the_codomain(self):
        # Unchecked, an image in the declared space with a foreign key is
        # accepted, and composing the map with itself fails to evaluate.  The
        # public constructors refuse a foreign key, so those images are built
        # as raw Elements.
        foreign = Element(B2, ((GenIx(7), 1),))
        with pytest.raises(EndpointMismatchError, match="not an element of"):
            LinearMap(B2, B2, ((GenIx(0), foreign), (GenIx(1), foreign)))
        with pytest.raises(EndpointMismatchError, match="not an element of"):
            kleisli_map(base("e", 1), B1, {GenIx(0): Element(sym(B1), ((MonIx((GenIx(5),)), 1),))})
        with pytest.raises(EndpointMismatchError, match="not an element of"):
            LinearMap(B1, B1, ((GenIx(0), singleton(B2, GenIx(0))),))

    def test_check_equal_requires_same_endpoints(self):
        with pytest.raises(EndpointMismatchError):
            check_equal(Id(B2), Id(B3), 1)

    def test_check_equal_rejects_a_negative_bound(self):
        with pytest.raises(ValueError):
            check_equal(Id(B2), Id(B2), -1)

    @pytest.mark.parametrize("bound", [True, False])
    @pytest.mark.parametrize("run", [lambda b: enumerate_basis(B2, b),
                                     lambda b: check_equal(Id(B2), Id(B2), b)],
                             ids=["enumerate_basis", "check_equal"])
    def test_weight_bound_is_a_plain_int(self, run, bound):
        # range() rejects a float bound by itself, but not a bool.
        with pytest.raises(TypeError):
            run(bound)

    def test_memoized_bound_is_still_a_plain_int(self):
        # True == 1, so (l, r, True) finds the key (l, r, 1): the type check
        # must run before the lookup.
        assert check_equal(Id(B2), Id(B2), 1).ok
        with pytest.raises(TypeError):
            check_equal(Id(B2), Id(B2), True)

    def test_repeated_mismatch_still_raises(self):
        for _ in range(2):
            with pytest.raises(EndpointMismatchError):
                check_equal(Id(B2), Id(B3), 1)

    @pytest.mark.parametrize("build", [inj, proj])
    @pytest.mark.parametrize("index", [2, -1])
    def test_biproduct_index_out_of_range(self, build, index):
        with pytest.raises(EndpointMismatchError):
            build(index, (B1, B2))


class TestLinearity:
    @given(st.lists(st.tuples(st.integers(0, 2),
                              st.integers(-5, 5)), max_size=4))
    def test_apply_is_linear(self, items):
        f = linear_map_from_matrix(B3, B2, ((1, 0, 2), (0, -1, 1)))
        e = element(B3, [(GenIx(i), Fraction(c)) for i, c in items])
        want = zero_element(B2)
        for bv, c in e.coeffs:
            want = elem_add(want, elem_scale(c, apply_basis(f, bv)))
        assert apply(f, e) == want

    # A raw Element skips the constructors' check, so apply itself must
    # refuse its space or a key, before anything is memoized or shared.
    @pytest.mark.parametrize("m, space, bv", [
        (Id(B2), B2, GenIx(7)),
        (Mu(B2), sym(sym(B2)), GenIx(0)),
        (Id(direct_sum(B1, B2)), direct_sum(B1, B2), SumIx(2, GenIx(0))),
        (Id(tensor(B2, B3)), tensor(B2, B3), TensorIx((GenIx(0),) * 3)),
        (Id(sym(B2)), sym(B2), MonIx((GenIx(1), GenIx(0)))),
        (Id(B2), B1, GenIx(0)),
    ], ids=["generator", "mu", "branch", "parts", "unsorted-monomial", "other-space"])
    def test_apply_rejects_a_vector_outside_the_domain(self, m, space, bv):
        from symalg import elements
        memo = {n: dict(images) for n, images in morphisms._MEMO.items()}
        shared = {s: dict(images) for s, images in elements._SHARED.items()}
        with pytest.raises(SpaceMismatchError, match="is not an element of"):
            apply(m, Element(space, ((bv, 1),)))
        assert {n: dict(images) for n, images in morphisms._MEMO.items()} == memo
        assert {s: dict(images) for s, images in elements._SHARED.items()} == shared


class TestSymmetryAndBiproducts:
    def test_sigma_involution(self):
        s = compose(Sigma(B2, B3), Sigma(B3, B2))
        assert check_equal(s, Id(tensor(B2, B3)), 1).ok

    def test_sigma_on_sym_halves(self):
        a, b = sym(B1), sym(B2)
        s = compose(Sigma(a, b), Sigma(b, a))
        assert check_equal(s, Id(tensor(a, b)), 3).ok

    def test_proj_inj_identities(self):
        blocks = (B1, B2, B3)
        total = direct_sum(*blocks)
        for i in range(3):
            for j in range(3):
                c = compose(inj(j, blocks), proj(i, blocks))
                if i == j:
                    assert check_equal(c, Id(blocks[i]), 1).ok
                else:
                    assert check_equal(c, ZeroM(blocks[j], blocks[i]), 1).ok
        total_id = Add(Add(compose(proj(0, blocks), inj(0, blocks)),
                           compose(proj(1, blocks), inj(1, blocks))),
                       compose(proj(2, blocks), inj(2, blocks)))
        assert check_equal(total_id, Id(total), 1).ok

    def test_matrix_equals_sum_of_paths(self):
        f = linear_map_from_matrix(B1, B2, ((1,), (2,)))
        g = linear_map_from_matrix(B2, B2, ((0, 1), (1, 0)))
        blocks_in = (B1, B2)
        m = Matrix(((f, g),))
        manual = Add(compose(proj(0, blocks_in), f),
                     compose(proj(1, blocks_in), g))
        assert check_equal(m, manual, 1).ok

    def test_sum_map_acts_blockwise(self):
        f = linear_map_from_matrix(B1, B1, ((3,),))
        g = linear_map_from_matrix(B2, B2, ((0, 1), (1, 0)))
        s = sum_map(f, g)
        blocks = (B1, B2)
        for i, h in [(0, f), (1, g)]:
            lhs = compose(inj(i, blocks), s)
            rhs = compose(h, inj(i, blocks))
            assert check_equal(lhs, rhs, 1).ok


class TestComposeSharing:
    """Compose returns g's image of w itself when f sends bv to 1*w."""

    def test_unit_coefficient_image_is_shared(self):
        f = Sigma(B2, B3)
        g = linear_map_from_matrix(tensor(B3, B2), B1, ((1, 2, 3, 4, 5, 6),))
        for bv in enumerate_basis(f.dom(), 0):
            ((w, c),) = apply_basis(f, bv).coeffs
            assert c == 1
            assert apply_basis(Compose(g, f), bv) is apply_basis(g, w)

    @pytest.mark.parametrize("column", [(3, 0), (0, 0), (1, -2)],
                             ids=["coefficient-3", "zero-image", "two-terms"])
    def test_other_images_go_through_apply(self, column):
        f = linear_map_from_matrix(B1, B2, tuple((c,) for c in column))
        g = linear_map_from_matrix(B2, B3, ((1, 2), (0, 5), (7, 0)))
        got = apply_basis(Compose(g, f), GenIx(0))
        assert got == apply(g, apply_basis(f, GenIx(0)))
        assert got.space == B3


def _embed(blocks, j, x):
    """x, a basis vector of blocks[j], as one of direct_sum(*blocks)."""
    if not isinstance(direct_sum(*blocks), Sum):
        return x
    offset = sum(len(terms(b)) for b in blocks[:j])
    if isinstance(blocks[j], Sum):
        return SumIx(offset + x.branch, x.inner)
    return SumIx(offset, x)


def _matrix_reference(m, bound):
    """{domain basis vector: image}, built block by block from the entries."""
    dom_blocks = [entry.dom() for entry in m.entries[0]]
    cod_blocks = [row[0].cod() for row in m.entries]
    out = {}
    for j, dblock in enumerate(dom_blocks):
        for x in enumerate_basis(dblock, bound):
            image = {_embed(cod_blocks, i, y): c
                     for i, row in enumerate(m.entries)
                     for y, c in apply_basis(row[j], x).coeffs}
            out[_embed(dom_blocks, j, x)] = element(m.cod(), image)
    return out


S1 = direct_sum(UNIT, B2)  # a Sum block
T1 = tensor(direct_sum(B1, B2), B3)  # a Sum block of tensor terms
DENSE = Matrix((  # every entry nonzero; the first cod block has weight-1 images
    (Eta(B2), compose(linear_map_from_matrix(S1, B2, ((1, 2, 0), (0, 1, 3))), Eta(B2)),
     compose(linear_map_from_matrix(T1, B2, ((1, 0) * 4 + (1,), (0, 3) * 4 + (0,))), Eta(B2))),
    (linear_map_from_matrix(B2, S1, ((1, 2), (3, 0), (0, -1))), Id(S1),
     linear_map_from_matrix(T1, S1, ((1,) * 9, (0, 2) * 4 + (0,), (5,) + (0,) * 8)))))


class TestMatrixShape:
    def test_blocks_come_from_row_0_and_column_0(self):
        assert Matrix.__match_args__ == ("entries",)
        assert DENSE.dom() == direct_sum(B2, S1, T1)
        assert DENSE.cod() == direct_sum(sym(B2), S1)

    @pytest.mark.parametrize("entries, message", [
        (((Id(B1), ZeroM(B2, B1)), (ZeroM(B1, B2),)), "column count"),
        (((Id(B1),), (ZeroM(B2, B2),)), r"\(1,0\) domain"),
        (((Id(B1), ZeroM(B2, B2)),), r"\(0,1\) codomain"),
        ((), "a row and a column"),
        (((),), "a row and a column"),
    ], ids=["ragged-row", "entry-domain", "entry-codomain", "no-row", "no-column"])
    def test_bad_shape_rejected(self, entries, message):
        with pytest.raises(EndpointMismatchError, match=message):
            Matrix(entries)


class TestMatrixLayout:
    @pytest.mark.parametrize("m", [
        inj(0, (S1, T1)), inj(1, (S1, T1)), inj(1, (B1, sym(B2), S1)),
        proj(0, (S1, T1)), proj(1, (S1, T1)), proj(2, (B1, sym(B2), S1)),
        sum_map(Id(S1), Sigma(direct_sum(B1, B2), B3)),
        sum_map(linear_map_from_matrix(B1, B2, ((1,), (2,))), Id(sym(B2))),
        DENSE,
    ], ids=["inj0", "inj1", "inj-sym", "proj0", "proj1", "proj-sym",
            "sum-sigma", "sum-sym", "dense-2x3"])
    def test_equals_blockwise_reference(self, m):
        want = _matrix_reference(m, 2)
        assert sorted(want, key=lambda bv: bv.key()) == enumerate_basis(m.dom(), 2)
        for bv, image in want.items():
            got = apply_basis(m, bv)
            assert got.space == m.cod()
            assert got.coeffs == image.coeffs

    @pytest.mark.parametrize("m, bv", [
        (inj(0, (S1, T1)), SumIx(2, GenIx(0))),
        (proj(1, (S1, T1)), SumIx(9, GenIx(0))),
        (DENSE, SumIx(6, GenIx(0))),
    ])
    def test_out_of_range_branch_raises(self, m, bv):
        with pytest.raises(ValueError):
            apply_basis(m, bv)


def _spaces(atoms):
    """Spaces of one or two terms; a term is Unit or one or two atoms."""
    term = st.one_of(st.just(UNIT), st.lists(st.sampled_from(atoms), min_size=1, max_size=2)
                     .map(lambda fs: tensor(*fs)))
    return st.lists(term, min_size=1, max_size=2).map(lambda ts: direct_sum(*ts))


SPACES = _spaces((B1, B2, sym(B1)))
SYM_FREE = _spaces((B1, B2))


@st.composite
def _dense_maps(draw):
    dom, cod = draw(SYM_FREE), draw(SYM_FREE)
    n, k = len(enumerate_basis(dom, 0)), len(enumerate_basis(cod, 0))
    nonzero = st.sampled_from((-2, -1, 1, 2, 3))
    rows = draw(st.lists(st.lists(nonzero, min_size=n, max_size=n), min_size=k, max_size=k))
    return linear_map_from_matrix(dom, cod, rows)


#: Maps whose images have several terms: dense tables, Deriv, and
#: block matrices that copy or project a biproduct.
MAPS = st.one_of(
    _dense_maps(),
    st.sampled_from((B1, B2, direct_sum(UNIT, B1))).map(Deriv),
    SPACES.map(lambda s: Add(inj(0, (s, s)), inj(1, (s, s)))),
    st.tuples(SPACES, SPACES).map(lambda blocks: proj(1, blocks)),
)

#: Sum on both sides of the map and of the Id factor.
SUM_MAP = linear_map_from_matrix(direct_sum(UNIT, B2), direct_sum(B1, B2),
                                 ((1, 2, -1), (3, 1, 2), (-2, 1, 1)))
SUM_SPACE = direct_sum(UNIT, tensor(B2, sym(B1)))


def _factors(m):
    """The two factors of the domain of a TensorM or Sigma node."""
    return (m.a, m.b) if isinstance(m, Sigma) else (m.f.dom(), m.g.dom())


def _assert_matches_reference(m, bound=3):
    """m's image of every basis vector up to bound equals split_pair then
    elem_tensor of the factors' images, with strictly sorted keys of m.cod()."""
    a, b = _factors(m)
    for bv in enumerate_basis(m.dom(), bound):
        x, y = split_pair(bv, a, b)
        if isinstance(m, Sigma):
            want = elem_tensor(singleton(b, y), singleton(a, x))
        else:
            want = elem_tensor(apply_basis(m.f, x), apply_basis(m.g, y))
        got = apply_basis(m, bv)
        assert got.space == m.cod()
        assert got.coeffs == element(m.cod(), dict(want.coeffs)).coeffs
        keys = [order_key(w) for w, _ in got.coeffs]
        assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))
        assert all(is_basis_vector(w, m.cod()) for w, _ in got.coeffs)


def _foreign_vectors(space):
    """Vectors shaped like space's but not in it: a branch past the last
    term, and a TensorIx with one part too many."""
    out = []
    basis = enumerate_basis(space, 1)
    if isinstance(space, Sum):
        out.append(SumIx(len(space.summands), basis[0].inner))
    for bv in basis:
        inner = bv.inner if isinstance(space, Sum) else bv
        if isinstance(inner, TensorIx):
            wide = TensorIx(inner.parts + inner.parts[:1])
            out.append(SumIx(bv.branch, wide) if isinstance(space, Sum) else wide)
            break
    return out


@pytest.mark.hash_order
class TestTermPartLayouts:
    """Whiskerings f (x) Id(b), Id(a) (x) g and Sigma(a, b) work on term parts;
    they must agree with splitting the vector and tensoring the images."""

    @settings(max_examples=40, deadline=None)
    @given(f=MAPS, b=SPACES)
    @example(f=SUM_MAP, b=SUM_SPACE)
    def test_right_whisker_matches_reference(self, f, b):
        _assert_matches_reference(TensorM(f, Id(b)))

    @settings(max_examples=40, deadline=None)
    @given(a=SPACES, g=MAPS)
    @example(a=SUM_SPACE, g=SUM_MAP)
    def test_left_whisker_matches_reference(self, a, g):
        _assert_matches_reference(TensorM(Id(a), g))

    @settings(max_examples=40, deadline=None)
    @given(a=SPACES, b=SPACES)
    @example(a=direct_sum(UNIT, B2), b=SUM_SPACE)
    def test_sigma_matches_reference(self, a, b):
        _assert_matches_reference(Sigma(a, b))

    @settings(max_examples=40, deadline=None)
    @given(f=MAPS, b=SPACES)
    @example(f=SUM_MAP, b=SUM_SPACE)
    def test_foreign_vectors_raise_value_error(self, f, b):
        # The rules read the domain's shape from their layouts: a branch past
        # the last term or a wrong number of factors still raises, from the
        # rule itself, under the checked apply_basis.
        for m in (TensorM(f, Id(b)), TensorM(Id(b), f), TensorM(f, f), Sigma(f.dom(), b)):
            for bv in _foreign_vectors(m.dom()):
                with pytest.raises(ValueError):
                    split_pair(bv, *_factors(m))
                with pytest.raises(ValueError):
                    RULES[TensorM if isinstance(m, TensorM) else Sigma](m, bv)
                with pytest.raises(ValueError):
                    apply_basis(m, bv)
        # A Matrix reads only the term of the vector, which picks its block.
        for m in (sum_map(f, f), inj(0, (f.dom(), b)), proj(1, (b, f.dom()))):
            for bv in _foreign_vectors(m.dom()):
                if type(bv) is SumIx and bv.branch == len(m.dom().summands):
                    with pytest.raises(ValueError):
                        RULES[Matrix](m, bv)
                with pytest.raises(ValueError):
                    apply_basis(m, bv)


class TestCheckedApplyBasis:
    """apply_basis refuses a vector that is not a basis vector of the map's
    domain before it evaluates anything, so no rule memoizes or shares an
    image of it."""

    @pytest.mark.parametrize("m, bv", [
        (Id(B2), GenIx(7)),
        (inj(0, (B2, B1)), GenIx(9)),
        (Eta(B2), MonIx(())),
        (Deriv(B2), GenIx(0)),
        (Mu(B2), MonIx((GenIx(0),))),
        (SymF(linear_map_from_matrix(B2, B2, ((1, 2), (0, 1)))), GenIx(0)),
    ], ids=["Id", "inj", "Eta", "Deriv", "Mu", "SymF"])
    def test_foreign_vector_raises_and_leaves_the_memos_alone(self, m, bv):
        from symalg import elements
        memo = {n: dict(images) for n, images in morphisms._MEMO.items()}
        shared = {s: dict(images) for s, images in elements._SHARED.items()}
        with pytest.raises(SpaceMismatchError):
            apply_basis(m, bv)
        assert {n: dict(images) for n, images in morphisms._MEMO.items()} == memo
        assert {s: dict(images) for s, images in elements._SHARED.items()} == shared


class TestTensorInterchange:
    """TensorM(f, g) with no Id side is split_pair then elem_tensor, which is
    also what _assert_matches_reference compares against; the interchange
    law checks it against two composites of whiskerings, which take the
    term-part path instead."""

    @settings(max_examples=60, deadline=None)
    @given(f=MAPS, g=MAPS)
    @example(f=SUM_MAP, g=SUM_MAP)
    def test_equals_both_whiskered_composites(self, f, g):
        m = TensorM(f, g)
        for other in (compose(TensorM(f, Id(g.dom())), TensorM(Id(f.cod()), g)),
                      compose(TensorM(Id(f.dom()), g), TensorM(f, Id(g.cod())))):
            assert check_equal(m, other, 2).ok


def _row_major(a, bva, b, bvb):
    """The basis vector of tensor(a, b) for bva (x) bvb, from terms() and
    factors() alone: term i of a times term j of b is term i * (terms of b) + j,
    indexed by bva's factor indices followed by bvb's."""
    def split(s, bv):
        i, inner = (bv.branch, bv.inner) if isinstance(s, Sum) else (0, bv)
        n = len(factors(terms(s)[i]))
        return i, inner.parts if n >= 2 else (inner,) if n == 1 else ()

    (i, pa), (j, pb) = split(a, bva), split(b, bvb)
    k = i * len(terms(b)) + j
    big = tensor(a, b)
    assert factors(terms(big)[k]) == factors(terms(a)[i]) + factors(terms(b)[j])
    parts = pa + pb
    inner = TensorIx(parts) if len(parts) >= 2 else parts[0] if parts else UNIT_IX
    return SumIx(k, inner) if isinstance(big, Sum) else inner


@pytest.mark.hash_order
class TestBranchRule:
    """join_pair and split_pair against a row-major reference of their own:
    the law registry cannot see a consistent relabelling of tensor branches,
    since both sides of every law go through the same rule."""

    @settings(max_examples=60, deadline=None)
    @given(a=SPACES, b=SPACES)
    @example(a=direct_sum(UNIT, tensor(B2, sym(B1))), b=direct_sum(tensor(sym(B1), B1), UNIT))
    @example(a=direct_sum(B1, tensor(B2, B1)), b=direct_sum(UNIT, sym(B1)))
    def test_join_and_split_match_row_major_reference(self, a, b):
        for bva in enumerate_basis(a, 2):
            for bvb in enumerate_basis(b, 2):
                want = _row_major(a, bva, b, bvb)
                assert is_basis_vector(want, tensor(a, b))
                assert join_pair(a, bva, b, bvb) is want
                assert split_pair(want, a, b) == (bva, bvb)


class TestChecker:
    def test_counterexample_reports_first_witness(self):
        f = linear_map_from_matrix(B2, B2, ((1, 0), (0, 1)))
        g = linear_map_from_matrix(B2, B2, ((1, 0), (0, 2)))
        v = check_equal(f, g, 1)
        assert not v.ok
        assert v.witness == GenIx(1)
        assert v.lhs_value != v.rhs_value

    def test_equal_reports_tested_count(self):
        v = check_equal(Id(sym(B2)), Id(sym(B2)), 2)
        assert v.ok
        assert v.tested_count == len(enumerate_basis(sym(B2), 2))

    @pytest.mark.parametrize("entry", [1, 2], ids=["equal", "counterexample"])
    def test_repeated_equation_returns_the_same_verdict(self, entry):
        f = linear_map_from_matrix(B2, B2, ((1, 0), (0, 1)))
        g = linear_map_from_matrix(B2, B2, ((1, 0), (0, entry)))
        v = check_equal(f, g, 2)
        assert v.ok == (entry == 1)
        assert check_equal(f, g, 2) is v

    def test_zero_map_annihilates(self):
        z = ZeroM(sym(B2), B1)
        for bv in enumerate_basis(sym(B2), 2):
            assert apply_basis(z, bv).is_zero()

    def test_add_of_maps_pointwise(self):
        f = linear_map_from_matrix(B2, B1, ((1, 2),))
        v = check_equal(Add(f, f), linear_map_from_matrix(B2, B1, ((2, 4),)), 1)
        assert v.ok

    def test_sym_free_basis_is_walked_to_weight_0_only(self):
        # A Sym-free space's whole basis has weight 0: a huge bound must not
        # walk (and cache) one empty level per weight up to it.
        before = spaces._level.cache_info().currsize
        v = check_equal(Id(B2), Id(B2), 10 ** 5)
        assert spaces._level.cache_info().currsize - before <= 1
        assert (v.ok, v.tested_count, v.weight_bound) == (True, 2, 10 ** 5)


class TestVerdictShape:
    def test_fields_are_what_was_enumerated_and_the_witness(self):
        assert [f.name for f in fields(Verdict)] == [
            "tested_count", "weight_bound", "witness", "lhs_value", "rhs_value"]

    def test_status_follows_the_witness(self):
        equal = Verdict(2, 1)
        assert (equal.ok, equal.status) == (True, "equal")
        bad = Verdict(1, 1, witness=GenIx(0), lhs_value=zero_element(B1),
                      rhs_value=singleton(B1, GenIx(0)))
        assert (bad.ok, bad.status) == (False, "counterexample")
        # repr shows what was enumerated, or the witness and both sides.
        assert repr(equal) == "Verdict(equal, tested=2, bound=1)"
        assert repr(bad) == ("Verdict(counterexample at GenIx(index=0), "
                             "lhs=Element(0), rhs=Element(1*GenIx(index=0)))")


class TestTableNuShape:
    def test_carrier_is_the_units_space(self):
        one = singleton(B1, GenIx(0))
        nu = TableNu(((one,),), one)
        assert TableNu.__match_args__ == ("mult_table", "unit_elem")
        assert (nu.dom(), nu.cod()) == (sym(B1), B1)


class TestRuleTable:
    def test_every_node_class_has_a_rule(self):
        classes = [c for c in vars(morphisms).values()
                   if isinstance(c, type) and issubclass(c, MorExpr) and c is not MorExpr]
        assert len(classes) >= 17  # the scan sees the node classes
        assert [c.__name__ for c in classes if c not in RULES] == []

    def test_unregistered_class_raises_type_error(self):
        class Unregistered(MorExpr):
            space: object

            def _endpoints(self):
                return self.space, self.space

        with pytest.raises(TypeError, match="no evaluation rule for Unregistered"):
            apply_basis(Unregistered(B1), GenIx(0))
