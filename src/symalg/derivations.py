"""Algebras, modules and derivations for the symmetric-algebra monad.

An algebra is a structure map nu: S(A) -> A; it induces a commutative
monoid on its carrier.  A derivation D: A -> M into a module satisfies the
Leibniz rule; the stronger chain-rule condition makes it compatible with
nu on all of S(A).  Chain-rule derivations are the same thing as algebras
of the lifted monad on the arrow category, and plain derivations are the
same thing as commutative monoids for the box product; both dictionaries
are implemented here with their round-trip checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spaces import UNIT, ZERO, SpaceExpr, base, tensor, sym, GenIx
from .elements import Element, singleton, zero_element
from .morphisms import (
    MorExpr, Id, Compose, TensorM, Add, ZeroM, Sigma, Matrix,
    SymF, Eta, Mu, Mult, UnitM, Deriv, TableNu,
    Verdict, check_equal, compose, linear_map_from_matrix,
)
from .arrow import (
    ArrowObj, ArrowMor, id_arrow, compose_arrow,
    boxtimes_obj, boxtimes_mor, boxtimes_sigma, boxtimes_unit, arrow_check,
)

#: Weight bound used by the validating factories below.
VALIDATE_BOUND = 2


class InvalidStructureError(ValueError):
    """A defining diagram failed; carries the diagram name and verdict."""

    def __init__(self, diagram: str, verdict: Verdict):
        super().__init__(f"diagram {diagram!r} fails at witness {verdict.witness}")
        self.diagram = diagram
        self.verdict = verdict


def _require(diagram: str, lhs: MorExpr, rhs: MorExpr, bound: int) -> None:
    v = check_equal(lhs, rhs, bound)
    if not v.ok:
        raise InvalidStructureError(diagram, v)


# ---------------------------------------------------------------------------
# Algebras
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SAlgebra:
    name: str
    carrier: SpaceExpr
    nu: MorExpr

    def mult(self) -> MorExpr:
        """Induced multiplication A (x) A -> A."""
        a = self.carrier
        return compose(TensorM(Eta(a), Eta(a)), Mult(a), self.nu)

    def unit(self) -> MorExpr:
        """Induced unit I -> A."""
        return compose(UnitM(self.carrier), self.nu)


def induced_monoid(alg: SAlgebra):
    return alg.mult(), alg.unit()


def s_algebra(name: str, carrier: SpaceExpr, nu: MorExpr,
              bound: int = VALIDATE_BOUND) -> SAlgebra:
    _require("algebra.unit", compose(Eta(carrier), nu), Id(carrier), bound)
    _require("algebra.assoc", compose(Mu(carrier), nu), compose(SymF(nu), nu), bound)
    return SAlgebra(name, carrier, nu)


def free_algebra(v: SpaceExpr, name: str = "free",
                 bound: int = VALIDATE_BOUND) -> SAlgebra:
    return s_algebra(name, sym(v), Mu(v), bound=bound)


def table_algebra(name: str, carrier: SpaceExpr, mult_table, unit_elem: Element,
                  bound: int = VALIDATE_BOUND) -> SAlgebra:
    """Algebra presented by a rank x rank multiplication table.

    The structure map folds the table over a monomial's factors.  The
    table must be commutative, associative and unital; this is checked
    exhaustively (the carrier is finite rank) along with the algebra
    diagrams.
    """
    nu = TableNu(carrier, tuple(tuple(r) for r in mult_table), unit_elem)
    alg = SAlgebra(name, nu.carrier, nu)
    m, u = alg.mult(), alg.unit()
    a = alg.carrier
    _require("table.comm", compose(Sigma(a, a), m), m, bound)
    _require("table.unit", compose(TensorM(u, Id(a)), m), Id(a), bound)
    _require("table.assoc",
             compose(TensorM(m, Id(a)), m),
             compose(TensorM(Id(a), m), m), bound)
    return s_algebra(name, a, nu, bound=bound)


# ---------------------------------------------------------------------------
# Modules and derivations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AModule:
    algebra: SAlgebra
    carrier: SpaceExpr
    alpha: MorExpr  # A (x) M -> M


def a_module(algebra: SAlgebra, carrier: SpaceExpr, alpha: MorExpr,
             bound: int = VALIDATE_BOUND) -> AModule:
    a = algebra.carrier
    m, u = algebra.mult(), algebra.unit()
    _require("module.unit",
             compose(TensorM(u, Id(carrier)), alpha), Id(carrier), bound)
    _require("module.assoc",
             compose(TensorM(m, Id(carrier)), alpha),
             compose(TensorM(Id(a), alpha), alpha), bound)
    return AModule(algebra, carrier, alpha)


@dataclass(frozen=True)
class Derivation:
    algebra: SAlgebra
    module: AModule
    d: MorExpr  # A -> M


def derivation(algebra: SAlgebra, module: AModule, d: MorExpr,
               bound: int = VALIDATE_BOUND) -> Derivation:
    """Validate the constant rule and the Leibniz rule."""
    a, mcar = algebra.carrier, module.carrier
    m, u = algebra.mult(), algebra.unit()
    al = module.alpha
    _require("derivation.constant", compose(u, d), ZeroM(UNIT, mcar), bound)
    leib = Add(compose(TensorM(Id(a), d), al),
               compose(Sigma(a, a), TensorM(Id(a), d), al))
    _require("derivation.leibniz", compose(m, d), leib, bound)
    return Derivation(algebra, module, d)


def is_s_derivation(d: Derivation, weight_bound: int) -> Verdict:
    """Chain-rule diagram: D . nu = alpha . (nu (x) D) . d on S(A)."""
    a = d.algebra.carrier
    lhs = compose(d.algebra.nu, d.d)
    rhs = compose(Deriv(a), TensorM(d.algebra.nu, d.d), d.module.alpha)
    return check_equal(lhs, rhs, weight_bound)


# ---------------------------------------------------------------------------
# Algebras of the lifted monad <-> chain-rule derivations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SBarAlgebra:
    obj: ArrowObj
    nu0: MorExpr  # S(A0) -> A0
    nu1: MorExpr  # S(A0) (x) A1 -> A1


def _mubar_style(a0: SpaceExpr, a1: SpaceExpr, tail: MorExpr) -> MorExpr:
    """(tail (x) 1) . (mu (x) 1 (x) 1) with tail: S (x) S -> S-like."""
    return compose(TensorM(Mu(a0), Id(tensor(sym(a0), a1))),
                   TensorM(tail, Id(a1)))


def sbar_algebra(obj: ArrowObj, nu0: MorExpr, nu1: MorExpr,
                 bound: int = VALIDATE_BOUND) -> SBarAlgebra:
    a0, a1 = obj.a0, obj.a1
    phi = obj.phi
    _require("sbar.square",
             compose(Deriv(a0), TensorM(Id(sym(a0)), phi), nu1),
             compose(nu0, phi), bound)
    _require("sbar.unit0", compose(Eta(a0), nu0), Id(a0), bound)
    _require("sbar.unit1", compose(TensorM(UnitM(a0), Id(a1)), nu1), Id(a1), bound)
    _require("sbar.assoc0", compose(Mu(a0), nu0), compose(SymF(nu0), nu0), bound)
    _require("sbar.assoc1",
             compose(_mubar_style(a0, a1, Mult(a0)), nu1),
             compose(TensorM(SymF(nu0), nu1), nu1), bound)
    return SBarAlgebra(obj, nu0, nu1)


def sbar_algebra_aux_checks(sba: SBarAlgebra, weight_bound: int):
    """Two derived diagrams every valid algebra of the lifted monad obeys."""
    a0, a1 = sba.obj.a0, sba.obj.a1
    nu0, nu1 = sba.nu0, sba.nu1
    sa = sym(a0)
    aux1 = check_equal(
        compose(TensorM(nu0, Id(a1)), TensorM(Eta(a0), Id(a1)), nu1),
        nu1, weight_bound)
    aux2 = check_equal(
        compose(TensorM(Mult(a0), Id(a1)), nu1),
        compose(TensorM(Id(sa), nu1), nu1), weight_bound)
    return [("sbar.aux.evaluated-unit", aux1), ("sbar.aux.mult-action", aux2)]


def algebra_to_derivation(sba: SBarAlgebra, bound: int = VALIDATE_BOUND) -> Derivation:
    """Read an algebra of the lifted monad as a chain-rule derivation."""
    obj = sba.obj
    alg = s_algebra("from-sbar", obj.a0, sba.nu0, bound=bound)
    alpha = compose(TensorM(Eta(obj.a0), Id(obj.a1)), sba.nu1)
    module = a_module(alg, obj.a1, alpha, bound=bound)
    return derivation(alg, module, obj.phi, bound=bound)


def derivation_to_algebra(d: Derivation, bound: int = VALIDATE_BOUND) -> SBarAlgebra:
    """Read a chain-rule derivation as an algebra of the lifted monad."""
    v = is_s_derivation(d, bound)
    if not v.ok:
        raise InvalidStructureError("derivation.chain-rule", v)
    a, mcar = d.algebra.carrier, d.module.carrier
    nu1 = compose(TensorM(d.algebra.nu, Id(mcar)), d.module.alpha)
    return sbar_algebra(ArrowObj(d.d), d.algebra.nu, nu1, bound=bound)


def roundtrip_alpha(d: Derivation, weight_bound: int) -> Verdict:
    """alpha survives the derivation -> algebra -> derivation round trip."""
    back = algebra_to_derivation(derivation_to_algebra(d, bound=weight_bound),
                                 bound=weight_bound)
    return check_equal(back.module.alpha, d.module.alpha, weight_bound)


def roundtrip_nu1(sba: SBarAlgebra, weight_bound: int) -> Verdict:
    """nu1 survives the algebra -> derivation -> algebra round trip."""
    back = derivation_to_algebra(algebra_to_derivation(sba, bound=weight_bound),
                                 bound=weight_bound)
    return check_equal(back.nu1, sba.nu1, weight_bound)


def derivation_morphism_checks(src: Derivation, dst: Derivation,
                               f0: MorExpr, f1: MorExpr, weight_bound: int):
    """The three squares making (f0, f1) a map of chain-rule derivations."""
    a, a2 = src.algebra.carrier, dst.algebra.carrier
    m1, m2 = src.module.carrier, dst.module.carrier
    return [
        ("dermor.algebra",
         check_equal(compose(src.algebra.nu, f0),
                     compose(SymF(f0), dst.algebra.nu), weight_bound)),
        ("dermor.module",
         check_equal(compose(src.module.alpha, f1),
                     compose(TensorM(f0, f1), dst.module.alpha), weight_bound)),
        ("dermor.square",
         check_equal(compose(src.d, f1), compose(f0, dst.d), weight_bound)),
    ]


def sbar_morphism_checks(src: SBarAlgebra, dst: SBarAlgebra,
                         f0: MorExpr, f1: MorExpr, weight_bound: int):
    """The squares making (f0, f1) a map of lifted-monad algebras."""
    return [
        ("sbarmor.nu0",
         check_equal(compose(src.nu0, f0),
                     compose(SymF(f0), dst.nu0), weight_bound)),
        ("sbarmor.nu1",
         check_equal(compose(src.nu1, f1),
                     compose(TensorM(SymF(f0), f1), dst.nu1), weight_bound)),
        ("sbarmor.square",
         check_equal(compose(src.obj.phi, f1),
                     compose(f0, dst.obj.phi), weight_bound)),
    ]


# ---------------------------------------------------------------------------
# Box-product monoids <-> plain derivations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArrowMonoid:
    obj: ArrowObj
    m0: MorExpr  # A0 (x) A0 -> A0
    m1: MorExpr  # A0 (x) A1 -> A1
    m2: MorExpr  # A1 (x) A0 -> A1
    u0: MorExpr  # I -> A0

    def mult_mor(self) -> ArrowMor:
        src = boxtimes_obj(self.obj, self.obj)
        a0, a1 = self.obj.a0, self.obj.a1
        f1 = Matrix(entries=((self.m1, self.m2),),
                    dom_blocks=(tensor(a0, a1), tensor(a1, a0)),
                    cod_blocks=(a1,))
        return ArrowMor(src, self.obj, self.m0, f1)

    def unit_mor(self) -> ArrowMor:
        return ArrowMor(boxtimes_unit(), self.obj,
                        self.u0, ZeroM(ZERO, self.obj.a1))


def monoid_checks(mon: ArrowMonoid, weight_bound: int):
    """The six commutative-monoid diagrams for a box-product monoid."""
    o = mon.obj
    a0, a1 = o.a0, o.a1
    mm, um = mon.mult_mor(), mon.unit_mor()
    square_m = check_equal(Compose(mm.f1, mm.src.phi),
                           Compose(o.phi, mm.f0), weight_bound)
    square_u = check_equal(Compose(um.f1, um.src.phi),
                           Compose(o.phi, um.f0), weight_bound)
    one = id_arrow(o)
    checks = [("monoid.square.mult", square_m), ("monoid.square.unit", square_u)]
    pairs = [
        ("monoid.assoc",
         compose_arrow(mm, boxtimes_mor(mm, one)),
         compose_arrow(mm, boxtimes_mor(one, mm))),
        ("monoid.unit.l", compose_arrow(mm, boxtimes_mor(um, one)), one),
        ("monoid.unit.r", compose_arrow(mm, boxtimes_mor(one, um)), one),
        ("monoid.comm", compose_arrow(mm, boxtimes_sigma(o, o)), mm),
    ]
    for name, lhs, rhs in pairs:
        v0, v1 = arrow_check(lhs, rhs, weight_bound)
        checks.append((name + ".0", v0))
        checks.append((name + ".1", v1))
    return checks


def m2_redundancy(mon: ArrowMonoid, weight_bound: int) -> Verdict:
    """m2 is forced: it must equal m1 after the symmetry swap."""
    a0, a1 = mon.obj.a0, mon.obj.a1
    return check_equal(mon.m2, compose(Sigma(a1, a0), mon.m1), weight_bound)


def arrow_monoid(obj: ArrowObj, m0: MorExpr, m1: MorExpr, m2: MorExpr,
                 u0: MorExpr, bound: int = VALIDATE_BOUND) -> ArrowMonoid:
    mon = ArrowMonoid(obj, m0, m1, m2, u0)
    for name, v in monoid_checks(mon, bound):
        if not v.ok:
            raise InvalidStructureError(name, v)
    v = m2_redundancy(mon, bound)
    if not v.ok:
        raise InvalidStructureError("monoid.m2-redundancy", v)
    return mon


def derivation_to_monoid(d: Derivation, bound: int = VALIDATE_BOUND) -> ArrowMonoid:
    """A plain derivation is a commutative monoid for the box product."""
    a, mcar = d.algebra.carrier, d.module.carrier
    alpha = d.module.alpha
    return arrow_monoid(ArrowObj(d.d),
                        d.algebra.mult(),
                        alpha,
                        compose(Sigma(mcar, a), alpha),
                        d.algebra.unit(),
                        bound=bound)


def monoid_to_derivation(mon: ArrowMonoid, algebra: SAlgebra,
                         bound: int = VALIDATE_BOUND) -> Derivation:
    """Read a box-product monoid over a compatible algebra as a derivation.

    The monoid only carries the induced multiplication and unit, so the
    caller names the algebra; its induced monoid must match (m0, u0).
    """
    _require("monoid.matches-mult", algebra.mult(), mon.m0, bound)
    _require("monoid.matches-unit", algebra.unit(), mon.u0, bound)
    v = m2_redundancy(mon, bound)
    if not v.ok:
        raise InvalidStructureError("monoid.m2-redundancy", v)
    module = a_module(algebra, mon.obj.a1, mon.m1, bound=bound)
    return derivation(algebra, module, mon.obj.phi, bound=bound)


# ---------------------------------------------------------------------------
# Built-in instances
# ---------------------------------------------------------------------------

def rational_algebra() -> SAlgebra:
    """Rank 1: the rationals with nu = evaluate every monomial at 1."""
    q = base("q", 1)
    e = singleton(q, GenIx(0))
    return table_algebra("rationals", q, ((e,),), e)


def dual_numbers() -> SAlgebra:
    """Rank 2: basis (1, eps) with eps * eps = 0."""
    d = base("dual", 2)
    one = singleton(d, GenIx(0))
    eps = singleton(d, GenIx(1))
    zero = zero_element(d)
    table = ((one, eps), (eps, zero))
    return table_algebra("dual-numbers", d, table, one)


def square_zero_extension() -> SAlgebra:
    """Rank 3: scalars plus a rank-2 ideal whose products all vanish."""
    c = base("sqz", 3)
    one = singleton(c, GenIx(0))
    s = singleton(c, GenIx(1))
    t = singleton(c, GenIx(2))
    zero = zero_element(c)
    table = ((one, s, t), (s, zero, zero), (t, zero, zero))
    return table_algebra("square-zero", c, table, one)


def builtin_algebras():
    return [rational_algebra(), dual_numbers(), square_zero_extension()]


def formal_derivative(bound: int = VALIDATE_BOUND) -> Derivation:
    """d/dx on polynomials in one variable, acting into themselves."""
    v = base("x", 1)
    alg = free_algebra(v, name="poly-x", bound=bound)
    module = a_module(alg, sym(v), Mult(v), bound=bound)
    counit = linear_map_from_matrix(v, UNIT, ((1,),))
    d = compose(Deriv(v), TensorM(Id(sym(v)), counit))
    return derivation(alg, module, d, bound=bound)


def deriving_map_derivation(v: SpaceExpr, bound: int = VALIDATE_BOUND) -> Derivation:
    """The deriving map itself, as a derivation into S(V) (x) V."""
    alg = free_algebra(v, name="free", bound=bound)
    module = a_module(alg, tensor(sym(v), v),
                      TensorM(Mult(v), Id(v)), bound=bound)
    return derivation(alg, module, Deriv(v), bound=bound)


def zero_derivation(alg: SAlgebra, bound: int = VALIDATE_BOUND) -> Derivation:
    """The zero map, a derivation of any algebra into itself."""
    a = alg.carrier
    module = a_module(alg, a, compose(TensorM(Eta(a), Eta(a)), Mult(a), alg.nu),
                      bound=bound)
    return derivation(alg, module, ZeroM(a, a), bound=bound)


def builtin_derivations(bound: int = VALIDATE_BOUND):
    return [
        formal_derivative(bound=bound),
        deriving_map_derivation(base("x", 1), bound=bound),
        zero_derivation(rational_algebra(), bound=bound),
        zero_derivation(dual_numbers(), bound=bound),
    ]
