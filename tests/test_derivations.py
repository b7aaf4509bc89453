"""Algebras, derivations, and the two dictionaries with their round trips."""

from fractions import Fraction

import pytest
import sympy

from symalg.spaces import base, sym, GenIx, MonIx, enumerate_basis
from symalg.elements import singleton, zero_element, element
from symalg.morphisms import (
    Id, ZeroM, Sigma, TensorM, SymF, Mult, apply, apply_basis, check_equal,
    compose, linear_map_from_matrix, Add,
)
from symalg.arrow import ArrowObj
from symalg.derivations import (
    InvalidStructureError, SAlgebra, ArrowMonoid,
    s_algebra, free_algebra, table_algebra, a_module, derivation,
    induced_monoid, is_s_derivation,
    sbar_algebra, sbar_algebra_aux_checks,
    algebra_to_derivation, derivation_to_algebra,
    roundtrip_alpha, roundtrip_nu1,
    derivation_morphism_checks, sbar_morphism_checks,
    derivation_to_monoid, monoid_to_derivation, monoid_checks, m2_redundancy,
    rational_algebra, dual_numbers, square_zero_extension,
    builtin_algebras, builtin_derivations,
    formal_derivative, deriving_map_derivation, zero_derivation,
)

B1 = base("x", 1)


class TestAlgebras:
    def test_builtins_validate(self):
        names = [a.name for a in builtin_algebras()]
        assert names == ["rationals", "dual-numbers", "square-zero"]

    def test_free_algebra_induced_monoid_is_mult(self):
        alg = free_algebra(B1)
        m, u = induced_monoid(alg)
        assert check_equal(m, Mult(B1), 2).ok

    def test_dual_numbers_nilpotent(self):
        alg = dual_numbers()
        eps = MonIx((GenIx(1), GenIx(1)))
        assert apply_basis(alg.nu, eps).is_zero()

    def test_rank1_nu_is_evaluation_at_one(self):
        alg = rational_algebra()
        for k in range(4):
            out = apply_basis(alg.nu, MonIx((GenIx(0),) * k))
            assert out == singleton(alg.carrier, GenIx(0))

    def test_bad_table_rejected(self):
        d = base("bad", 2)
        one = singleton(d, GenIx(0))
        eps = singleton(d, GenIx(1))
        # the declared unit does not act as a unit
        table = ((eps, eps), (eps, zero_element(d)))
        with pytest.raises(InvalidStructureError) as exc:
            table_algebra("bad", d, table, one)
        assert "unit" in exc.value.diagram

    def test_broken_structure_map_rejected(self):
        from symalg.spaces import ZERO, UNIT
        from symalg.morphisms import Chi0Inv, Deriv
        # linear part of a polynomial, doubled: fails the unit diagram
        eval_at_zero = compose(SymF(ZeroM(B1, ZERO)), Chi0Inv())
        linear_part = compose(Deriv(B1), TensorM(eval_at_zero, Id(B1)))
        with pytest.raises(InvalidStructureError) as exc:
            s_algebra("broken", B1, Add(linear_part, linear_part))
        assert exc.value.diagram == "algebra.unit"


class TestDerivations:
    def test_builtins_are_chain_rule_derivations(self):
        for d in builtin_derivations():
            assert is_s_derivation(d, 3).ok

    def test_formal_derivative_matches_sympy(self):
        d = formal_derivative()
        x = sympy.Symbol("x")
        for k in range(5):
            out = apply_basis(d.d, MonIx((GenIx(0),) * k))
            got = sum(c * x ** len(bv.parts) for bv, c in out.coeffs)
            assert sympy.expand(got - sympy.diff(x ** k, x)) == 0

    def test_leibniz_violation_rejected(self):
        alg = free_algebra(B1)
        module = a_module(alg, sym(B1), Mult(B1))
        # squaring-degree map is not a derivation
        bad = SymF(linear_map_from_matrix(B1, B1, ((2,),)))
        with pytest.raises(InvalidStructureError) as exc:
            derivation(alg, module, bad)
        assert exc.value.diagram in ("derivation.constant", "derivation.leibniz")

    def test_zero_derivation_passes_trivially(self):
        d = zero_derivation(rational_algebra())
        assert is_s_derivation(d, 3).ok

    def test_deriving_map_is_chain_rule_derivation(self):
        d = deriving_map_derivation(base("v", 2))
        assert is_s_derivation(d, 3).ok


class TestAlgebraDictionary:
    def test_round_trips_on_builtins(self):
        for d in builtin_derivations():
            assert roundtrip_alpha(d, 2).ok
            sba = derivation_to_algebra(d)
            assert roundtrip_nu1(sba, 2).ok

    def test_aux_diagrams_hold(self):
        for d in builtin_derivations():
            sba = derivation_to_algebra(d)
            for name, v in sbar_algebra_aux_checks(sba, 2):
                assert v.ok, name

    def test_non_derivation_rejected(self):
        alg = free_algebra(B1)
        module = a_module(alg, sym(B1), Mult(B1))
        from symalg.derivations import Derivation
        fake = Derivation(alg, module, Id(sym(B1)))  # identity is not a derivation
        with pytest.raises(InvalidStructureError):
            derivation_to_algebra(fake)

    def test_dictionary_preserves_morphism_squares(self):
        d = formal_derivative()
        sba = derivation_to_algebra(d)
        sv = sym(B1)
        double = linear_map_from_matrix(B1, B1, ((2,),))
        cases = [
            ("identity", Id(sv), Id(sv), True),
            ("rescale-x", SymF(double), Add(SymF(double), SymF(double)), True),
            ("wrong-second-leg", SymF(double), SymF(double), False),
        ]
        for name, f0, f1, expect in cases:
            der = all(v.ok for _, v in
                      derivation_morphism_checks(d, d, f0, f1, 2))
            alg = all(v.ok for _, v in
                      sbar_morphism_checks(sba, sba, f0, f1, 2))
            assert der == alg == expect, name


class TestMonoidDictionary:
    def test_six_diagrams_pass(self):
        for d in builtin_derivations():
            mon = derivation_to_monoid(d)
            for name, v in monoid_checks(mon, 2):
                assert v.ok, name

    def test_round_trip_is_identity(self):
        for d in builtin_derivations():
            mon = derivation_to_monoid(d)
            back = monoid_to_derivation(mon, d.algebra)
            assert check_equal(back.d, d.d, 2).ok
            assert check_equal(back.module.alpha, d.module.alpha, 2).ok

    def test_m2_redundancy_holds(self):
        for d in builtin_derivations():
            assert m2_redundancy(derivation_to_monoid(d), 2).ok

    def test_mutated_m2_rejected_naming_the_diagram(self):
        d = formal_derivative()
        mon = derivation_to_monoid(d)
        bad = ArrowMonoid(mon.obj, mon.m0, mon.m1,
                          ZeroM(mon.m2.dom(), mon.m2.cod()), mon.u0)
        from symalg.derivations import arrow_monoid
        with pytest.raises(InvalidStructureError) as exc:
            arrow_monoid(bad.obj, bad.m0, bad.m1, bad.m2, bad.u0)
        assert "m2-redundancy" in exc.value.diagram or "monoid" in exc.value.diagram

    def test_chain_rule_implies_leibniz_on_samples(self):
        # the stronger condition always comes with the plain one
        for d in builtin_derivations():
            if is_s_derivation(d, 2).ok:
                alg, mod = d.algebra, d.module
                a = alg.carrier
                leib = Add(compose(TensorM(Id(a), d.d), mod.alpha),
                           compose(Sigma(a, a), TensorM(Id(a), d.d), mod.alpha))
                assert check_equal(compose(alg.mult(), d.d), leib, 2).ok
