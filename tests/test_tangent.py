"""Tangent structure and the Kleisli differential, against symbolic
differentiation oracles."""

from fractions import Fraction

import pytest
import sympy

from symalg.spaces import (
    base, sym, tensor, direct_sum, enumerate_basis, monomial, build_sum,
    join_pair, GenIx, MonIx,
)
from symalg.elements import singleton, elem_add, element
from symalg.morphisms import (
    Add, apply, apply_basis, check_equal, sum_map,
)
from symalg.derivations import (
    rational_algebra, dual_numbers, square_zero_extension, builtin_algebras,
    formal_derivative, zero_derivation, chain_rule_axioms,
)
from symalg.arrow import decide_equations
from symalg.tangent import (
    tangent_structure_map, tangent_algebra, tangent_derivation,
    tangent_module_action, multiplication_table,
    kleisli_map, kleisli_diff, monomial_power_map, xy_map,
)
from symalg.laws import power_rule


def coeff_rows(table):
    return [[tuple(c for _, c in e.coeffs) for e in row] for row in table]


class TestTangentAlgebra:
    @pytest.mark.parametrize("alg", builtin_algebras(),
                             ids=lambda a: a.name)
    def test_doubled_structure_map_is_an_algebra(self, alg):
        # validation happens inside the factory
        tan = tangent_algebra(alg)
        from symalg.spaces import rank
        assert rank(tan.carrier) == 2 * rank(alg.carrier)

    def test_rank1_tangent_is_dual_numbers(self):
        tan = tangent_algebra(rational_algebra())
        got = coeff_rows(multiplication_table(tan))
        want = coeff_rows(multiplication_table(dual_numbers()))
        assert got == want

    def test_dual_tangent_second_copy_squares_to_zero(self):
        tan = tangent_algebra(dual_numbers())
        tab = multiplication_table(tan)
        for i in (2, 3):
            for j in (2, 3):
                assert tab[i][j].is_zero()

    def test_first_component_restricts_to_base_nu(self):
        alg = dual_numbers()
        a = alg.carrier
        aa = direct_sum(a, a)
        nub = tangent_structure_map(alg)
        # monomials in first-copy generators evaluate by the base nu
        for mono in enumerate_basis(sym(a), 2):
            lifted = MonIx(tuple(build_sum(aa, 0, g) for g in mono.parts))
            got = apply_basis(nub, lifted)
            want = apply_basis(alg.nu, mono)
            lifted_want = element(aa, {build_sum(aa, 0, bv): c
                                       for bv, c in want.coeffs})
            assert got == lifted_want


class TestTangentDerivation:
    def test_lift_is_diagonal(self):
        d = formal_derivative()
        td = tangent_derivation(d)
        assert check_equal(td.d, sum_map(d.d, d.d), 3).ok

    def test_lift_satisfies_chain_rule(self):
        for d in [formal_derivative(), zero_derivation(rational_algebra())]:
            eqs = chain_rule_axioms(tangent_derivation(d))
            assert decide_equations(eqs.values(), 2).ok

    def test_dual_component_action_on_samples(self):
        # D[eps](a + b eps) = D(a) + D(b) eps, checked on x^2 + x^3 eps
        d = formal_derivative()
        td = tangent_derivation(d)
        aa = td.algebra.carrier
        x2 = MonIx((GenIx(0),) * 2)
        x3 = MonIx((GenIx(0),) * 3)
        sample = elem_add(singleton(aa, build_sum(aa, 0, x2)),
                          singleton(aa, build_sum(aa, 1, x3)))
        out = apply(td.d, sample)
        x1 = MonIx((GenIx(0),))
        want = elem_add(singleton(aa, build_sum(aa, 0, x1), 2),
                        singleton(aa, build_sum(aa, 1, x2), 3))
        assert out == want

    def test_module_action_is_dual_numbers_rule(self):
        # (a, b) . (m, n) = (a m, a n + b m) on basis samples
        d = zero_derivation(dual_numbers())
        alb = tangent_module_action(d.module)
        a = d.algebra.carrier
        aa = direct_sum(a, a)
        mm = aa  # module carrier doubles too
        for i in range(2):
            for j in range(2):
                lhs = join_pair(aa, build_sum(aa, i, GenIx(0)),
                                mm, build_sum(mm, j, GenIx(0)))
                out = apply_basis(alb, lhs)
                if i == 0:
                    want = singleton(mm, build_sum(mm, j, GenIx(0)))
                elif j == 0:
                    want = singleton(mm, build_sum(mm, 1, GenIx(0)))
                else:
                    want = None  # eps . eps dies
                if want is None:
                    assert out.is_zero()
                else:
                    assert out == want


class TestKleisli:
    def test_power_rule_against_sympy(self):
        x = sympy.Symbol("x")
        for k in range(1, 5):
            df = kleisli_diff(monomial_power_map(k))
            img = apply_basis(df, GenIx(0))
            bb = df.cod().inner
            x1 = build_sum(bb, 0, GenIx(0))
            x2 = build_sum(bb, 1, GenIx(0))
            # expected: k * x1^(k-1) * x2, per d(x^k)/dx = k x^(k-1)
            want_coeff = sympy.diff(x ** k, x).coeff(x, k - 1)
            mono = monomial([x1] * (k - 1) + [x2])
            assert dict(img.coeffs) == {mono: Fraction(int(want_coeff))}

    def test_linear_map_differentiates_to_second_copy(self):
        e = base("e", 1)
        b = base("x", 1)
        lin = kleisli_map(e, b, {GenIx(0): singleton(sym(b), MonIx((GenIx(0),)))})
        df = kleisli_diff(lin)
        bb = df.cod().inner
        want = singleton(sym(bb), MonIx((build_sum(bb, 1, GenIx(0)),)))
        assert apply_basis(df, GenIx(0)) == want

    def test_two_variable_product_rule(self):
        df = kleisli_diff(xy_map())
        img = apply_basis(df, GenIx(0))
        bb = df.cod().inner
        x1, y1 = build_sum(bb, 0, GenIx(0)), build_sum(bb, 0, GenIx(1))
        x2, y2 = build_sum(bb, 1, GenIx(0)), build_sum(bb, 1, GenIx(1))
        want = {monomial([y1, x2]): Fraction(1), monomial([x1, y2]): Fraction(1)}
        assert dict(img.coeffs) == want

    def test_additivity(self):
        f, g = monomial_power_map(2), monomial_power_map(3)
        assert check_equal(kleisli_diff(Add(f, g)),
                           Add(kleisli_diff(f), kleisli_diff(g)), 1).ok

    def test_apply_is_linear_extension(self):
        f = monomial_power_map(2)
        e = f.dom()
        v = element(e, {GenIx(0): Fraction(3, 2)})
        out = apply(f, v)
        assert out == element(sym(base("x", 1)),
                              {MonIx((GenIx(0),) * 2): Fraction(3, 2)})

    def test_images_must_cover_domain(self):
        e = base("e", 2)
        b = base("x", 1)
        with pytest.raises(ValueError):
            kleisli_map(e, b, {GenIx(0): singleton(sym(b), MonIx(()))})

    def test_power_rule_check_rejects_a_wrong_coefficient(self):
        assert check_equal(*power_rule(3, 3), 2).ok
        v = check_equal(*power_rule(3, 4), 2)
        assert not v.ok
        assert v.witness == GenIx(0)
        assert v.lhs_value != v.rhs_value
