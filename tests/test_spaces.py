"""Space normalization and basis enumeration, checked against counting
oracles computed independently (binomial coefficients, brute-force
products)."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from symalg import spaces
from symalg.spaces import (
    UNIT, ZERO, base, tensor, direct_sum, sym,
    Sum, Tensor, Sym, Base, Unit, Zero,
    GenIx, MonIx, SumIx, TensorIx, UnitIx, UNIT_IX,
    monomial, weight, enumerate_basis, rank, is_sym_free, has_finite_basis,
    decompose_sum, build_sum, split_pair, join_pair,
)

B1 = base("x", 1)
B2 = base("y", 2)
B3 = base("z", 3)


def multiset_count(n, k):
    """Monomials of degree exactly k in n generators."""
    return math.comb(n + k - 1, k)


# -- a brute-force reference: generate everything, filter, sort -------------

def _reference_weight(bv) -> int:
    if isinstance(bv, MonIx):
        return sum(1 + _reference_weight(p) for p in bv.parts)
    if isinstance(bv, TensorIx):
        return sum(map(_reference_weight, bv.parts))
    if isinstance(bv, SumIx):
        return _reference_weight(bv.inner)
    return 0


def _reference_key(bv) -> tuple:
    """The graded order, weight first, restated from the paper's definition."""
    def structure(v):
        if isinstance(v, UnitIx):
            return (0,)
        if isinstance(v, GenIx):
            return (1, v.index)
        if isinstance(v, TensorIx):
            return (2, tuple(map(_reference_key, v.parts)))
        if isinstance(v, SumIx):
            return (3, v.branch, _reference_key(v.inner))
        return (4, tuple(map(_reference_key, v.parts)))
    return (_reference_weight(bv),) + structure(bv)


def _naive(space, bound) -> list:
    """Every basis vector of weight <= bound, in no particular order."""
    if isinstance(space, Base):
        return [GenIx(k) for k in range(space.rank)]
    if isinstance(space, Unit):
        return [UNIT_IX]
    if isinstance(space, Sum):
        return [SumIx(i, bv) for i, t in enumerate(space.summands) for bv in _naive(t, bound)]
    if isinstance(space, Tensor):
        return [TensorIx(parts) for parts in itertools.product(
                    *(_naive(f, bound) for f in space.factors))
                if sum(map(_reference_weight, parts)) <= bound]
    if isinstance(space, Sym):
        inner = sorted(_naive(space.inner, bound - 1), key=_reference_key) if bound else []
        return [MonIx(parts) for k in range(bound + 1)
                for parts in itertools.combinations_with_replacement(inner, k)
                if sum(1 + _reference_weight(p) for p in parts) <= bound]
    return []


_small_spaces = st.recursive(
    st.sampled_from([UNIT, ZERO, B1, B2]),
    lambda sub: (st.tuples(sub, sub).map(lambda ab: tensor(*ab))
                 | st.tuples(sub, sub).map(lambda ab: direct_sum(*ab))
                 | sub.map(sym)),
    max_leaves=4)


class TestNormalization:
    def test_unit_is_tensor_identity(self):
        assert tensor(UNIT, B2) == B2
        assert tensor(B2, UNIT, UNIT) == B2

    def test_zero_annihilates_tensor(self):
        assert tensor(B2, ZERO) == ZERO
        assert direct_sum(B2, ZERO) == B2

    def test_tensor_distributes_over_sum(self):
        s = tensor(direct_sum(B1, B2), B3)
        assert isinstance(s, Sum)
        assert len(s.summands) == 2
        # row-major order: B1 (x) B3 first
        assert s.summands[0] == tensor(B1, B3)

    def test_tensor_flat_and_associative(self):
        assert tensor(tensor(B1, B2), B3) == tensor(B1, tensor(B2, B3))

    def test_sum_flat_and_associative(self):
        assert (direct_sum(direct_sum(B1, B2), B3)
                == direct_sum(B1, direct_sum(B2, B3)))


class TestRank:
    def test_rank_oracle(self):
        assert rank(UNIT) == 1
        assert rank(ZERO) == 0
        assert rank(tensor(B2, B3)) == 6
        assert rank(direct_sum(B2, B3)) == 5
        assert rank(tensor(direct_sum(B1, B2), B3)) == 9
        with pytest.raises(ValueError):
            rank(direct_sum(B1, tensor(B2, sym(B3))))

    def test_sym_free(self):
        assert is_sym_free(tensor(B2, B3))
        assert not is_sym_free(tensor(B2, sym(B3)))

    def test_finite_basis_has_every_sym_over_zero(self):
        # Sym(ZERO)'s basis is the empty monomial alone; Sym of anything else,
        # Sym(Sym(ZERO)) included, has a basis vector of every weight.
        for s in (B2, ZERO, sym(ZERO), tensor(B2, sym(ZERO)), direct_sum(UNIT, sym(ZERO))):
            assert has_finite_basis(s)
            assert enumerate_basis(s, 6) == enumerate_basis(s, 0)
        for s in (sym(B1), sym(sym(ZERO)), direct_sum(B2, sym(UNIT)), tensor(B2, sym(B3))):
            assert not has_finite_basis(s)
            assert enumerate_basis(s, 3) != enumerate_basis(s, 2)


class TestEnumeration:
    def test_base_counts(self):
        assert len(enumerate_basis(B2, 0)) == 2
        assert len(enumerate_basis(B3, 5)) == 3

    def test_sym_counts_against_binomial_oracle(self):
        for n, space in [(1, B1), (2, B2), (3, B3)]:
            for bound in range(4):
                want = sum(multiset_count(n, k) for k in range(bound + 1))
                assert len(enumerate_basis(sym(space), bound)) == want

    def test_tensor_counts_are_products_of_slices(self):
        # basis of S(B2) (x) B1 at bound w: monomials of weight <= w times 1
        for w in range(4):
            got = len(enumerate_basis(tensor(sym(B2), B1), w))
            want = sum(multiset_count(2, k) for k in range(w + 1))
            assert got == want

    def test_nested_sym_count(self):
        # weight of an outer monomial counts its factors plus their weights
        assert len(enumerate_basis(sym(sym(B1)), 2)) == 4

    def test_prefix_stability(self):
        for space in [sym(B2), tensor(sym(B1), sym(B2)),
                      sym(direct_sum(B1, B2))]:
            prev = enumerate_basis(space, 2)
            nxt = enumerate_basis(space, 3)
            assert nxt[:len(prev)] == prev

    def test_sorted_by_graded_key(self):
        for space in [sym(B2), sym(sym(B1))]:
            bs = enumerate_basis(space, 3)
            keys = [bv.key() for bv in bs]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)

    def test_zero_space_empty(self):
        assert enumerate_basis(ZERO, 5) == []
        assert enumerate_basis(sym(ZERO), 5) == [MonIx(())]

    def test_returned_list_is_the_callers_own(self):
        space = tensor(sym(B2), B1)
        first = enumerate_basis(space, 2)
        want = list(first)
        first.reverse()
        first.append(GenIx(7))
        again = enumerate_basis(space, 2)
        assert type(again) is list
        assert again == want
        assert again is not first

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            enumerate_basis(B2, -1)

    @settings(max_examples=60, deadline=None)
    @given(_small_spaces, st.integers(0, 4))
    def test_levels_match_a_sorted_brute_force(self, space, bound):
        basis = enumerate_basis(space, bound)
        assert basis == sorted(_naive(space, bound), key=_reference_key)
        assert len(set(basis)) == len(basis)
        # Strictly increasing within each weight level, and from one to the next.
        keys = [_reference_key(bv) for bv in basis]
        assert all(a < b for a, b in zip(keys, keys[1:]))

    @pytest.mark.parametrize("inner", [B1, UNIT], ids=["rank-1", "unit"])
    def test_rank_1_sym_walks_far_past_the_recursion_limit(self, inner):
        # One monomial of each degree; a walk that recursed once per factor
        # raised RecursionError near weight 1,000.
        basis = enumerate_basis(sym(inner), 1500)
        assert len(basis) == 1501
        assert [weight(bv) for bv in basis] == list(range(1501))
        assert basis[-1] is MonIx((enumerate_basis(inner, 0)[0],) * 1500)

    def test_sym_walk_asks_a_finite_inner_basis_for_level_0_only(self, monkeypatch):
        # A finite basis is all of weight 0, so walking S(B) to weight 40
        # needs B's level 0 and none of its empty levels 1..39.
        inner = base("walked", 2)
        asked, level = [], spaces._level

        def recorded(space, w):
            asked.append((space, w))
            return level(space, w)

        monkeypatch.setattr(spaces, "_level", recorded)
        basis = enumerate_basis(sym(inner), 40)
        assert len(basis) == sum(multiset_count(2, d) for d in range(41))
        assert {w for space, w in asked if space is inner} == {0}



class TestWeight:
    def test_weight_recurrence(self):
        x = GenIx(0)
        assert weight(x) == 0
        assert weight(UNIT_IX) == 0
        m = MonIx((x, x))
        assert weight(m) == 2
        assert weight(MonIx((m,))) == 3  # one factor plus its weight

    def test_monomial_sorts_factors(self):
        a, b = GenIx(0), GenIx(1)
        assert monomial([b, a]) == monomial([a, b])


class TestStructuralHelpers:
    def test_sum_roundtrip(self):
        s = direct_sum(B2, B3)
        for bv in enumerate_basis(s, 0):
            k, inner = decompose_sum(bv, s)
            assert build_sum(s, k, inner) == bv

    def test_build_sum_rejects_a_branch_out_of_range(self):
        s = direct_sum(base("a", 1), base("b", 1))
        assert build_sum(s, 1, GenIx(0)) is SumIx(1, GenIx(0))
        for index in (2, -1):
            with pytest.raises(ValueError):
                build_sum(s, index, GenIx(0))
        with pytest.raises(ValueError):
            build_sum(B2, 1, GenIx(0))
        # SumIx(1, GenIx(0)) is interned now; a bool branch must not find it.
        with pytest.raises(TypeError):
            build_sum(s, True, GenIx(0))

    @pytest.mark.parametrize("space", [B2, UNIT], ids=["base", "unit"])
    @pytest.mark.parametrize("branch", [False, 0.0])
    def test_build_sum_branch_is_a_plain_int_on_every_space(self, space, branch):
        # On a space with one term, branch 0 is the only one; False and 0.0
        # equal it under == but are not ints.
        with pytest.raises(TypeError):
            build_sum(space, branch, GenIx(0) if space is B2 else UNIT_IX)

    def test_pair_roundtrip(self):
        a, b = sym(B1), sym(B2)
        big = tensor(a, b)
        for bv in enumerate_basis(big, 2):
            p, q = split_pair(bv, a, b)
            assert join_pair(a, p, b, q) == bv

    @given(st.lists(st.integers(0, 1), max_size=4),
           st.lists(st.integers(0, 2), max_size=4))
    def test_pair_join_split_random(self, ps, qs):
        a, b = sym(B2), sym(B3)
        p = monomial([GenIx(i) for i in ps])
        q = monomial([GenIx(i) for i in qs])
        bv = join_pair(a, p, b, q)
        assert split_pair(bv, a, b) == (p, q)


# Terms with 0, 1 and 2 factors on both sides of the pair.
A_MULTI = direct_sum(UNIT, B1, tensor(B1, sym(B2)))
B_MULTI = direct_sum(UNIT, sym(B1), tensor(B2, B1))


class TestPairLayouts:
    def test_roundtrip_over_multi_term_spaces(self):
        a, b = A_MULTI, B_MULTI
        big = enumerate_basis(tensor(a, b), 2)
        for bv in big:
            p, q = split_pair(bv, a, b)
            assert join_pair(a, p, b, q) == bv
        # join_pair is a bijection from the pairs of total weight <= 2 onto
        # the weight-2 truncation of tensor(a, b).
        joined = [join_pair(a, p, b, q)
                  for p in enumerate_basis(a, 2) for q in enumerate_basis(b, 2)
                  if weight(p) + weight(q) <= 2]
        assert len(set(joined)) == len(joined)
        assert set(joined) == set(big)

    def test_term_index_is_row_major(self):
        # Term 2 of a is x (x) S(y), term 2 of b is y (x) x; b has 3 terms.
        p = SumIx(2, TensorIx((GenIx(0), MonIx((GenIx(1),)))))
        q = SumIx(2, TensorIx((GenIx(1), GenIx(0))))
        want = SumIx(8, TensorIx((GenIx(0), MonIx((GenIx(1),)), GenIx(1), GenIx(0))))
        assert join_pair(A_MULTI, p, B_MULTI, q) == want
        assert split_pair(want, A_MULTI, B_MULTI) == (p, q)
        # Unit terms contribute no factors.
        assert join_pair(A_MULTI, SumIx(0, UNIT_IX), B_MULTI, SumIx(0, UNIT_IX)) \
            == SumIx(0, UNIT_IX)
        assert join_pair(A_MULTI, SumIx(1, GenIx(0)), B_MULTI, SumIx(0, UNIT_IX)) \
            == SumIx(3, GenIx(0))

    # The vectors are built inside pytest.raises: a negative branch is
    # already rejected by the SumIx constructor.
    @pytest.mark.parametrize("bv", [
        pytest.param(lambda: GenIx(0), id="not-SumIx"),
        pytest.param(lambda: SumIx(8, TensorIx((GenIx(0), GenIx(0)))), id="too-few-parts"),
        pytest.param(lambda: SumIx(0, GenIx(0)), id="unit-term-not-UnitIx"),
        pytest.param(lambda: SumIx(9, UNIT_IX), id="branch-too-large"),
        pytest.param(lambda: SumIx(-1, UNIT_IX), id="branch-negative"),
    ])
    def test_split_rejects_malformed_vectors(self, bv):
        with pytest.raises(ValueError):
            split_pair(bv(), A_MULTI, B_MULTI)

    @pytest.mark.parametrize("p, q", [
        pytest.param(lambda: GenIx(0), lambda: SumIx(1, MonIx(())), id="not-SumIx"),
        pytest.param(lambda: SumIx(2, TensorIx((GenIx(0),) * 3)), lambda: SumIx(1, MonIx(())),
                     id="too-many-parts"),
        pytest.param(lambda: SumIx(3, GenIx(0)), lambda: SumIx(1, MonIx(())),
                     id="a-branch-too-large"),
        pytest.param(lambda: SumIx(1, GenIx(0)), lambda: SumIx(3, MonIx(())),
                     id="b-branch-too-large"),
        pytest.param(lambda: SumIx(-1, GenIx(0)), lambda: SumIx(1, MonIx(())),
                     id="a-branch-negative"),
        pytest.param(lambda: SumIx(1, GenIx(0)), lambda: SumIx(-1, MonIx(())),
                     id="b-branch-negative"),
    ])
    def test_join_rejects_malformed_vectors(self, p, q):
        with pytest.raises(ValueError):
            join_pair(A_MULTI, p(), B_MULTI, q())

    def test_zero_factor_has_no_basis_vectors(self):
        with pytest.raises(ValueError):
            split_pair(UNIT_IX, B1, ZERO)
        with pytest.raises(ValueError):
            join_pair(B1, GenIx(0), ZERO, UNIT_IX)
