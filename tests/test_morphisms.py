"""Structural morphisms: evaluation, biproduct equations, the checker."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from symalg.spaces import (
    node, UNIT, ZERO, base, sym, tensor, direct_sum, monomial, GenIx, MonIx,
    enumerate_basis,
)
from symalg.elements import element, singleton, zero_element, elem_add, elem_scale
from symalg.tangent import kleisli_map
from symalg import morphisms
from symalg.morphisms import (
    MorExpr, Id, Compose, TensorM, Add, ZeroM, Sigma, Matrix,
    LinearMap, SymF, Eta, Mult, RULES, apply, apply_basis, check_equal, compose,
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

    def test_check_equal_requires_same_endpoints(self):
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
        blocks_out = (B2,)
        m = Matrix(entries=((f, g),), dom_blocks=blocks_in,
                   cod_blocks=blocks_out)
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

    def test_zero_map_annihilates(self):
        z = ZeroM(sym(B2), B1)
        for bv in enumerate_basis(sym(B2), 2):
            assert apply_basis(z, bv).is_zero()

    def test_add_of_maps_pointwise(self):
        f = linear_map_from_matrix(B2, B1, ((1, 2),))
        v = check_equal(Add(f, f), linear_map_from_matrix(B2, B1, ((2, 4),)), 1)
        assert v.ok


class TestRuleTable:
    def test_every_node_class_has_a_rule(self):
        classes = [c for c in vars(morphisms).values()
                   if isinstance(c, type) and issubclass(c, MorExpr) and c is not MorExpr]
        assert len(classes) >= 17  # the scan sees the node classes
        assert [c.__name__ for c in classes if c not in RULES] == []

    def test_unregistered_class_raises_type_error(self):
        @node
        class Unregistered(MorExpr):
            space: object

            def _endpoints(self):
                return self.space, self.space

        with pytest.raises(TypeError, match="no evaluation rule for Unregistered"):
            apply_basis(Unregistered(B1), GenIx(0))
