"""Algebras, derivations, and the two dictionaries with their round trips."""

from dataclasses import fields
from fractions import Fraction

import pytest
import sympy

from symalg.spaces import base, sym, GenIx, MonIx, enumerate_basis
from symalg.elements import Element, singleton, zero_element, element
from symalg.morphisms import (
    Id, ZeroM, TensorM, SymF, Mult, TableNu, apply, apply_basis, check_equal,
    compose, linear_map_from_matrix, Add, EndpointMismatchError,
)
from symalg.arrow import ArrowMor
from symalg.derivations import (
    VALIDATE_BOUND, InvalidStructureError, SAlgebra, AModule, Derivation,
    SBarAlgebra, ArrowMonoid, arrow_monoid,
    s_algebra, free_algebra, table_algebra, a_module, derivation,
    sbar_algebra, algebra_to_derivation, derivation_to_algebra,
    derivation_to_monoid, monoid_to_derivation,
    decide_all, decide_equations, table_axioms, algebra_axioms, module_axioms, derivation_axioms,
    chain_rule_axioms,
    derivation_map_axioms, sbar_axioms, sbar_aux_axioms, sbar_map_axioms, monoid_axioms,
    rational_algebra, dual_numbers, square_zero_extension,
    builtin_algebras, builtin_derivations,
    formal_derivative, deriving_map_derivation, zero_derivation,
)

B1 = base("x", 1)


def holds(equations, bound):
    return all(v.ok for _, v in decide_all(equations, bound))


def chain_rule(d, bound):
    return holds(chain_rule_axioms(d), bound)


class TestDecideEquations:
    """The one fold behind Law.run, decide_all and the factories."""

    S = sym(B1)
    BAD = (Id(S), ZeroM(S, S))
    MISMATCHED = (Id(S), Id(B1))  # deciding it raises EndpointMismatchError

    def test_first_failure_is_returned_and_the_rest_not_decided(self):
        with pytest.raises(EndpointMismatchError):
            decide_equations([self.MISMATCHED], 2)
        assert decide_equations([self.BAD, self.MISMATCHED], 2) is check_equal(*self.BAD, 2)

    def test_holding_equations_sum_their_tests_at_the_law_bound(self):
        s = self.S
        v = decide_equations([(Id(s), Id(s)), (Id(B1), Id(B1)), (Id(s), Id(s), -1)], 3)
        # S(B1) has 4 monomials of degree <= 3 and 3 of degree <= 2; B1 has 1 vector.
        assert (v.ok, v.tested_count, v.weight_bound) == (True, 4 + 1 + 3, 3)

    def test_an_offset_is_floored_at_bound_1(self):
        s = self.S
        v = decide_equations([(Id(s), Id(s), -1)], 1)
        assert (v.tested_count, v.weight_bound) == (2, 1)  # degrees 0 and 1, not 0 alone

    def test_an_arrow_equation_is_decided_f0_then_f1(self):
        (l0, r0), (l1, r1) = self.BAD, self.MISMATCHED
        f0_fails = (ArrowMor(l0, l1), ArrowMor(r0, r1))
        assert decide_equations([f0_fails], 2) is check_equal(*self.BAD, 2)
        f1_fails = (ArrowMor(Id(B1), l0), ArrowMor(Id(B1), r0))
        assert decide_equations([f1_fails], 2) is check_equal(*self.BAD, 2)
        holds = decide_equations([(ArrowMor(Id(B1), l0), ArrowMor(Id(B1), l0))], 2)
        assert (holds.ok, holds.tested_count) == (True, 1 + 3)


class TestAlgebras:
    def test_builtins_validate(self):
        names = [a.name for a in builtin_algebras()]
        assert names == ["rationals", "dual-numbers", "square-zero"]

    def test_free_algebra_induced_monoid_is_mult(self):
        alg = free_algebra(B1)
        m, u = alg.mult(), alg.unit()
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
            table_algebra("bad", table, one)
        assert "unit" in exc.value.diagram

    def test_table_entries_and_unit_must_be_elements_of_the_carrier(self):
        # Unchecked, a foreign unit fails as 'algebra.assoc', and a table entry
        # off the carrier's basis raises a bare KeyError during validation.
        # singleton refuses a key off the basis, so that entry is a raw Element.
        q = base("q", 1)
        one = singleton(q, GenIx(0))
        with pytest.raises(EndpointMismatchError, match="not an element of"):
            table_algebra("q", ((one,),), singleton(base("r", 1), GenIx(0)))
        with pytest.raises(EndpointMismatchError, match="not an element of"):
            table_algebra("q", ((Element(q, ((GenIx(3), 1),)),),), one)

    def test_broken_structure_map_rejected(self):
        from symalg.spaces import ZERO, UNIT
        from symalg.morphisms import Chi0Inv, Deriv
        # linear part of a polynomial, doubled: fails the unit diagram
        eval_at_zero = compose(SymF(ZeroM(B1, ZERO)), Chi0Inv())
        linear_part = compose(Deriv(B1), TensorM(eval_at_zero, Id(B1)))
        with pytest.raises(InvalidStructureError) as exc:
            s_algebra("broken", Add(linear_part, linear_part))
        assert exc.value.diagram == "algebra.unit"


class TestSAlgebraShape:
    def test_carrier_is_the_structure_maps_codomain(self):
        alg = free_algebra(B1)
        assert [f.name for f in fields(SAlgebra)] == ["name", "nu"]
        assert alg.carrier is alg.nu.cod()


class TestAModuleShape:
    def test_carrier_is_the_actions_codomain(self):
        module = a_module(free_algebra(B1), Mult(B1))
        assert [f.name for f in fields(AModule)] == ["algebra", "alpha"]
        assert module.carrier is module.alpha.cod()


class TestDerivations:
    def test_builtins_are_chain_rule_derivations(self):
        for d in builtin_derivations():
            assert chain_rule(d, 3)

    def test_formal_derivative_matches_sympy(self):
        d = formal_derivative()
        x = sympy.Symbol("x")
        for k in range(5):
            out = apply_basis(d.d, MonIx((GenIx(0),) * k))
            got = sum(c * x ** len(bv.parts) for bv, c in out.coeffs)
            assert sympy.expand(got - sympy.diff(x ** k, x)) == 0

    def test_leibniz_violation_rejected(self):
        alg = free_algebra(B1)
        module = a_module(alg, Mult(B1))
        # squaring-degree map is not a derivation
        bad = SymF(linear_map_from_matrix(B1, B1, ((2,),)))
        with pytest.raises(InvalidStructureError) as exc:
            derivation(module, bad)
        assert exc.value.diagram in ("derivation.constant", "derivation.leibniz")

    def test_zero_derivation_passes_trivially(self):
        d = zero_derivation(rational_algebra())
        assert chain_rule(d, 3)
        sba = derivation_to_algebra(d)
        assert holds({**sbar_axioms(sba), **sbar_aux_axioms(sba)}, 3)

    def test_algebra_is_the_modules(self):
        module = a_module(free_algebra(B1), Mult(B1))
        d = derivation(module, ZeroM(sym(B1), sym(B1)))
        assert d.algebra is module.algebra
        assert Derivation.__match_args__ == ("module", "d")

    def test_deriving_map_is_chain_rule_derivation(self):
        d = deriving_map_derivation(base("v", 2))
        assert chain_rule(d, 3)


class TestAlgebraDictionary:
    def test_round_trips_on_builtins(self):
        for d in builtin_derivations():
            sba = derivation_to_algebra(d)
            back = algebra_to_derivation(sba)
            assert check_equal(back.module.alpha, d.module.alpha, 2).ok
            assert check_equal(derivation_to_algebra(back).nu1, sba.nu1, 2).ok

    def test_aux_diagrams_hold(self):
        for d in builtin_derivations():
            sba = derivation_to_algebra(d)
            for name, v in decide_all({**sbar_axioms(sba), **sbar_aux_axioms(sba)}, 2):
                assert v.ok, name

    def test_non_derivation_rejected(self):
        alg = free_algebra(B1)
        module = a_module(alg, Mult(B1))
        fake = Derivation(module, Id(sym(B1)))  # identity is not a derivation
        with pytest.raises(InvalidStructureError) as exc:
            derivation_to_algebra(fake)
        assert exc.value.diagram == "derivation.chain-rule"

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
            der = holds(derivation_map_axioms(d, d, f0, f1), 2)
            alg = holds(sbar_map_axioms(sba, sba, f0, f1), 2)
            assert der == alg == expect, name


class TestMonoidDictionary:
    def test_six_diagrams_pass(self):
        for d in builtin_derivations():
            mon = derivation_to_monoid(d)
            for name, v in decide_all(monoid_axioms(mon), 2):
                assert v.ok, name

    def test_round_trip_is_identity(self):
        for d in builtin_derivations():
            mon = derivation_to_monoid(d)
            back = monoid_to_derivation(mon, d.algebra)
            assert check_equal(back.d, d.d, 2).ok
            assert check_equal(back.module.alpha, d.module.alpha, 2).ok

    def test_m2_redundancy_holds(self):
        for d in builtin_derivations():
            assert decide_equations(
                [monoid_axioms(derivation_to_monoid(d))["monoid.m2-redundancy"]], 2).ok

    def test_mutated_m2_rejected_naming_the_diagram(self):
        d = formal_derivative()
        mon = derivation_to_monoid(d)
        bad = ArrowMonoid(mon.obj, mon.m0, mon.m1,
                          ZeroM(mon.m2.dom(), mon.m2.cod()), mon.u0)
        with pytest.raises(InvalidStructureError) as exc:
            arrow_monoid(bad.obj, bad.m0, bad.m1, bad.m2, bad.u0)
        assert exc.value.diagram == "monoid.square.mult"

    def test_chain_rule_implies_leibniz_on_samples(self):
        # the stronger condition always comes with the plain one
        for d in builtin_derivations():
            if chain_rule(d, 2):
                assert decide_equations([derivation_axioms(d)["derivation.leibniz"]], 2).ok


# ---------------------------------------------------------------------------
# Each validating factory names the first failing equation of its table
# ---------------------------------------------------------------------------
# A case returns (call, table): the factory call on a broken input, and the
# equations that factory validates, in its order.

def _doubled(f):
    return Add(f, f)


def _case_table_algebra():
    d = base("bad", 2)
    one, eps = singleton(d, GenIx(0)), singleton(d, GenIx(1))
    table = ((eps, eps), (eps, zero_element(d)))
    alg = SAlgebra("bad", TableNu(table, one))
    return (lambda: table_algebra("bad", table, one),
            {**table_axioms(alg), **algebra_axioms(alg)})


def _case_s_algebra():
    from symalg.spaces import ZERO
    from symalg.morphisms import Chi0Inv, Deriv
    eval_at_zero = compose(SymF(ZeroM(B1, ZERO)), Chi0Inv())
    nu = _doubled(compose(Deriv(B1), TensorM(eval_at_zero, Id(B1))))
    return (lambda: s_algebra("broken", nu),
            algebra_axioms(SAlgebra("broken", nu)))


def _case_a_module():
    alg = free_algebra(B1)
    alpha = _doubled(Mult(B1))
    return (lambda: a_module(alg, alpha),
            module_axioms(AModule(alg, alpha)))


def _case_derivation():
    alg = free_algebra(B1)
    module = a_module(alg, Mult(B1))
    bad = SymF(linear_map_from_matrix(B1, B1, ((2,),)))
    return (lambda: derivation(module, bad),
            derivation_axioms(Derivation(module, bad)))


def _case_sbar_algebra():
    sba = derivation_to_algebra(formal_derivative())
    nu1 = _doubled(sba.nu1)
    return (lambda: sbar_algebra(sba.obj, sba.nu0, nu1),
            sbar_axioms(SBarAlgebra(sba.obj, sba.nu0, nu1)))


def _m2_dropped(mon):
    return ArrowMonoid(mon.obj, mon.m0, mon.m1, ZeroM(mon.m2.dom(), mon.m2.cod()), mon.u0)


def _case_arrow_monoid():
    bad = _m2_dropped(derivation_to_monoid(formal_derivative()))
    return (lambda: arrow_monoid(bad.obj, bad.m0, bad.m1, bad.m2, bad.u0),
            monoid_axioms(bad))


def _case_monoid_to_derivation():
    d = formal_derivative()
    m2_dropped = _m2_dropped(derivation_to_monoid(d))
    bad = ArrowMonoid(m2_dropped.obj, _doubled(m2_dropped.m0), m2_dropped.m1,
                      m2_dropped.m2, m2_dropped.u0)
    alg = d.algebra
    module = AModule(alg, bad.m1)
    table = {"monoid.matches-mult": (alg.mult(), bad.m0),
             "monoid.matches-unit": (alg.unit(), bad.u0),
             "monoid.m2-redundancy": monoid_axioms(bad)["monoid.m2-redundancy"],
             **module_axioms(module), **derivation_axioms(Derivation(module, bad.obj))}
    return lambda: monoid_to_derivation(bad, alg), table


FACTORY_CASES = {
    "table_algebra": _case_table_algebra,
    "s_algebra": _case_s_algebra,
    "a_module": _case_a_module,
    "derivation": _case_derivation,
    "sbar_algebra": _case_sbar_algebra,
    "arrow_monoid": _case_arrow_monoid,
    "monoid_to_derivation": _case_monoid_to_derivation,
}


@pytest.mark.parametrize("factory", list(FACTORY_CASES))
def test_factory_raises_first_failing_key_of_its_table(factory):
    call, table = FACTORY_CASES[factory]()
    failing = [name for name, v in decide_all(table, VALIDATE_BOUND) if not v.ok]
    assert len(failing) >= 2  # so the table order decides which one is named
    with pytest.raises(InvalidStructureError) as exc:
        call()
    assert exc.value.diagram == failing[0]
