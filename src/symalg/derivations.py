"""Algebras, modules and derivations for the symmetric-algebra monad.

An algebra is its structure map nu: S(A) -> A, and a module is its action
alpha: A (x) M -> M, so a carrier is a codomain; an algebra induces a
commutative monoid on its carrier.  A derivation D: A -> M into a module
satisfies the constant and Leibniz rules; the stronger chain rule makes it
compatible with nu on all of S(A).  Chain-rule derivations are the same
thing as algebras of the lifted monad on the arrow category, and plain
derivations are the same thing as commutative monoids for the box product;
both dictionaries are implemented here with their round-trip checks.

Each structure states its axioms once, as an ordered table ``{diagram name:
(lhs, rhs)}`` that the law registry decides and the factories validate
whole, never filtered: ``derivation`` validates ``derivation_axioms``
(constant, Leibniz), and ``derivation_to_algebra`` validates
``chain_rule_axioms``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .spaces import UNIT, ZERO, SpaceExpr, base, sym, GenIx
from .elements import Element, singleton, zero_element
from .morphisms import (
    MorExpr, Id, TensorM, Add, ZeroM, Sigma, Matrix,
    SymF, Eta, Mu, Mult, UnitM, Deriv, TableNu,
    Verdict, InvalidStructureError, check_equal, compose, linear_map_from_matrix,
)
from .arrow import (
    VALIDATE_BOUND, ArrowMor, _components, id_arrow, compose_arrow, commuting_square,
    sbar_spaces, sbar_obj, boxtimes_obj, boxtimes_mor, boxtimes_sigma, boxtimes_unit,
)


# ---------------------------------------------------------------------------
# Deciding equations: each side is a map, or both are arrow morphisms
# ---------------------------------------------------------------------------

def decide_equations(equations, bound: int) -> Verdict:
    """Decide map equations in order, each (lhs, rhs) or (lhs, rhs, offset).

    An arrow equation is its f0 equation, then its f1 equation; an offset
    decides at max(1, bound + offset).  The first failure is returned as it
    is, without deciding the rest; else one verdict at bound over all their tests."""
    tested = 0
    for lhs, rhs, *offset in equations:
        b = max(1, bound + offset[0]) if offset else bound
        for l, r in _components(lhs, rhs):
            v = check_equal(l, r, b)
            if not v.ok:
                return v
            tested += v.tested_count
    return Verdict(tested, bound)


def decide_all(equations: dict, bound: int):
    """(name, verdict) of each equation, in table order, lazily: lhs = rhs as
    maps, or componentwise as arrow morphisms."""
    for name, (lhs, rhs) in equations.items():
        yield name, decide_equations([(lhs, rhs)], bound)


def _validate(equations: dict, bound: int) -> None:
    """Raise InvalidStructureError naming the first equation that fails."""
    for name, v in decide_all(equations, bound):
        if not v.ok:
            raise InvalidStructureError(name, v)


# ---------------------------------------------------------------------------
# Algebras
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SAlgebra:
    name: str
    nu: MorExpr  # S(A) -> A

    @property
    def carrier(self) -> SpaceExpr:
        return self.nu.cod()

    def mult(self) -> MorExpr:
        """Induced multiplication A (x) A -> A."""
        a = self.carrier
        return compose(TensorM(Eta(a), Eta(a)), Mult(a), self.nu)

    def unit(self) -> MorExpr:
        """Induced unit I -> A."""
        return compose(UnitM(self.carrier), self.nu)


def table_axioms(alg: SAlgebra) -> dict:
    """The induced multiplication is commutative, unital and associative."""
    a, m, u = alg.carrier, alg.mult(), alg.unit()
    return {
        "table.comm": (compose(Sigma(a, a), m), m),
        "table.unit": (compose(TensorM(u, Id(a)), m), Id(a)),
        "table.assoc": (compose(TensorM(m, Id(a)), m), compose(TensorM(Id(a), m), m)),
    }


def algebra_axioms(alg: SAlgebra) -> dict:
    a, nu = alg.carrier, alg.nu
    return {
        "algebra.unit": (compose(Eta(a), nu), Id(a)),
        "algebra.assoc": (compose(Mu(a), nu), compose(SymF(nu), nu)),
    }


def s_algebra(name: str, nu: MorExpr, bound: int = VALIDATE_BOUND) -> SAlgebra:
    alg = SAlgebra(name, nu)
    _validate(algebra_axioms(alg), bound)
    return alg


def free_algebra(v: SpaceExpr, name: str = "free",
                 bound: int = VALIDATE_BOUND) -> SAlgebra:
    return s_algebra(name, Mu(v), bound=bound)


def table_algebra(name: str, mult_table, unit_elem: Element,
                  bound: int = VALIDATE_BOUND) -> SAlgebra:
    """Algebra presented by a rank x rank multiplication table over the
    unit's space.

    The structure map folds the table over a monomial's factors.  The
    table must be commutative, associative and unital; this is checked
    exhaustively (the carrier is finite rank) before the algebra diagrams.
    """
    alg = SAlgebra(name, TableNu(tuple(tuple(r) for r in mult_table), unit_elem))
    _validate({**table_axioms(alg), **algebra_axioms(alg)}, bound)
    return alg


# ---------------------------------------------------------------------------
# Modules and derivations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AModule:
    algebra: SAlgebra
    alpha: MorExpr  # A (x) M -> M

    @property
    def carrier(self) -> SpaceExpr:
        return self.alpha.cod()


def module_axioms(module: AModule) -> dict:
    a, c, al = module.algebra.carrier, module.carrier, module.alpha
    m, u = module.algebra.mult(), module.algebra.unit()
    return {
        "module.unit": (compose(TensorM(u, Id(c)), al), Id(c)),
        "module.assoc": (compose(TensorM(m, Id(c)), al), compose(TensorM(Id(a), al), al)),
    }


def a_module(algebra: SAlgebra, alpha: MorExpr, bound: int = VALIDATE_BOUND) -> AModule:
    module = AModule(algebra, alpha)
    _validate(module_axioms(module), bound)
    return module


@dataclass(frozen=True)
class Derivation:
    module: AModule
    d: MorExpr  # A -> M

    @property
    def algebra(self) -> SAlgebra:
        return self.module.algebra


def derivation_axioms(d: Derivation) -> dict:
    """The constant and Leibniz rules."""
    a, al = d.algebra.carrier, d.module.alpha
    leibniz = Add(compose(TensorM(Id(a), d.d), al),
                  compose(Sigma(a, a), TensorM(Id(a), d.d), al))
    return {
        "derivation.constant": (compose(d.algebra.unit(), d.d), ZeroM(UNIT, d.module.carrier)),
        "derivation.leibniz": (compose(d.algebra.mult(), d.d), leibniz),
    }


def chain_rule_axioms(d: Derivation) -> dict:
    """The chain rule, which makes D compatible with nu on all of S(A):
    D . nu = alpha . (nu (x) D) . d."""
    a, nu = d.algebra.carrier, d.algebra.nu
    return {"derivation.chain-rule": (compose(nu, d.d),
                                      compose(Deriv(a), TensorM(nu, d.d), d.module.alpha))}


def derivation(module: AModule, d: MorExpr, bound: int = VALIDATE_BOUND) -> Derivation:
    """A derivation of module's algebra into module; validates derivation_axioms."""
    der = Derivation(module, d)
    _validate(derivation_axioms(der), bound)
    return der


def derivation_map_axioms(src: Derivation, dst: Derivation, f0: MorExpr, f1: MorExpr) -> dict:
    """The three squares making (f0, f1) a map of chain-rule derivations."""
    return {
        "dermor.algebra": (compose(src.algebra.nu, f0), compose(SymF(f0), dst.algebra.nu)),
        "dermor.module": (compose(src.module.alpha, f1),
                          compose(TensorM(f0, f1), dst.module.alpha)),
        "dermor.square": commuting_square(src.d, dst.d, ArrowMor(f0, f1)),
    }


# ---------------------------------------------------------------------------
# Algebras of the lifted monad <-> chain-rule derivations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SBarAlgebra:
    obj: MorExpr  # the arrow object phi: A0 -> A1
    nu0: MorExpr  # S(A0) -> A0
    nu1: MorExpr  # S(A0) (x) A1 -> A1


def sbar_axioms(sba: SBarAlgebra) -> dict:
    """The five defining diagrams of an algebra of the lifted monad."""
    a0, a1, phi = sba.obj.dom(), sba.obj.cod(), sba.obj
    nu0, nu1 = sba.nu0, sba.nu1
    sa1 = sbar_spaces(a0, a1)[1]
    return {
        "sbar.square": commuting_square(sbar_obj(phi), phi, ArrowMor(nu0, nu1)),
        "sbar.unit0": (compose(Eta(a0), nu0), Id(a0)),
        "sbar.unit1": (compose(TensorM(UnitM(a0), Id(a1)), nu1), Id(a1)),
        "sbar.assoc0": (compose(Mu(a0), nu0), compose(SymF(nu0), nu0)),
        "sbar.assoc1": (compose(TensorM(Mu(a0), Id(sa1)),
                                TensorM(Mult(a0), Id(a1)), nu1),
                        compose(TensorM(SymF(nu0), nu1), nu1)),
    }


def sbar_aux_axioms(sba: SBarAlgebra) -> dict:
    """Two derived diagrams that every valid algebra of the lifted monad obeys."""
    a0, a1, nu0, nu1 = sba.obj.dom(), sba.obj.cod(), sba.nu0, sba.nu1
    return {
        "sbar.aux.evaluated-unit": (compose(TensorM(nu0, Id(a1)), TensorM(Eta(a0), Id(a1)), nu1),
                                    nu1),
        "sbar.aux.mult-action": (compose(TensorM(Mult(a0), Id(a1)), nu1),
                                 compose(TensorM(Id(sym(a0)), nu1), nu1)),
    }


def sbar_algebra(obj: MorExpr, nu0: MorExpr, nu1: MorExpr,
                 bound: int = VALIDATE_BOUND) -> SBarAlgebra:
    sba = SBarAlgebra(obj, nu0, nu1)
    _validate(sbar_axioms(sba), bound)
    return sba


def sbar_map_axioms(src: SBarAlgebra, dst: SBarAlgebra, f0: MorExpr, f1: MorExpr) -> dict:
    """The squares making (f0, f1) a map of lifted-monad algebras."""
    return {
        "sbarmor.nu0": (compose(src.nu0, f0), compose(SymF(f0), dst.nu0)),
        "sbarmor.nu1": (compose(src.nu1, f1), compose(TensorM(SymF(f0), f1), dst.nu1)),
        "sbarmor.square": commuting_square(src.obj, dst.obj, ArrowMor(f0, f1)),
    }


def algebra_to_derivation(sba: SBarAlgebra, bound: int = VALIDATE_BOUND) -> Derivation:
    """Read an algebra of the lifted monad as a chain-rule derivation."""
    phi = sba.obj
    alg = s_algebra("from-sbar", sba.nu0, bound=bound)
    alpha = compose(TensorM(Eta(phi.dom()), Id(phi.cod())), sba.nu1)
    module = a_module(alg, alpha, bound=bound)
    return derivation(module, phi, bound=bound)


def derivation_to_algebra(d: Derivation, bound: int = VALIDATE_BOUND) -> SBarAlgebra:
    """Read a chain-rule derivation as an algebra of the lifted monad."""
    _validate(chain_rule_axioms(d), bound)
    nu1 = compose(TensorM(d.algebra.nu, Id(d.module.carrier)), d.module.alpha)
    return sbar_algebra(d.d, d.algebra.nu, nu1, bound=bound)


# ---------------------------------------------------------------------------
# Box-product monoids <-> plain derivations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArrowMonoid:
    obj: MorExpr  # the arrow object phi: A0 -> A1
    m0: MorExpr  # A0 (x) A0 -> A0
    m1: MorExpr  # A0 (x) A1 -> A1
    m2: MorExpr  # A1 (x) A0 -> A1
    u0: MorExpr  # I -> A0


def monoid_axioms(mon: ArrowMonoid) -> dict:
    """The multiplication mm and unit um are arrow morphisms, the
    commutative-monoid diagrams, and m2 is m1 after the symmetry swap."""
    o = mon.obj
    a0, a1 = o.dom(), o.cod()
    mm = ArrowMor(mon.m0, Matrix(((mon.m1, mon.m2),)))
    um = ArrowMor(mon.u0, ZeroM(ZERO, a1))
    one = id_arrow(a0, a1)
    return {
        "monoid.square.mult": commuting_square(boxtimes_obj(o, o), o, mm),
        "monoid.square.unit": commuting_square(boxtimes_unit(), o, um),
        "monoid.assoc": (compose_arrow(mm, boxtimes_mor(mm, one)),
                         compose_arrow(mm, boxtimes_mor(one, mm))),
        "monoid.unit.l": (compose_arrow(mm, boxtimes_mor(um, one)), one),
        "monoid.unit.r": (compose_arrow(mm, boxtimes_mor(one, um)), one),
        "monoid.comm": (compose_arrow(mm, boxtimes_sigma(a0, a1, a0, a1)), mm),
        "monoid.m2-redundancy": (mon.m2, compose(Sigma(a1, a0), mon.m1)),
    }


def arrow_monoid(obj: MorExpr, m0: MorExpr, m1: MorExpr, m2: MorExpr,
                 u0: MorExpr, bound: int = VALIDATE_BOUND) -> ArrowMonoid:
    mon = ArrowMonoid(obj, m0, m1, m2, u0)
    _validate(monoid_axioms(mon), bound)
    return mon


def derivation_to_monoid(d: Derivation, bound: int = VALIDATE_BOUND) -> ArrowMonoid:
    """A plain derivation is a commutative monoid for the box product."""
    a, mcar = d.algebra.carrier, d.module.carrier
    alpha = d.module.alpha
    return arrow_monoid(d.d,
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
    _validate({"monoid.matches-mult": (algebra.mult(), mon.m0),
               "monoid.matches-unit": (algebra.unit(), mon.u0),
               "monoid.m2-redundancy": monoid_axioms(mon)["monoid.m2-redundancy"]}, bound)
    module = a_module(algebra, mon.m1, bound=bound)
    return derivation(module, mon.obj, bound=bound)


# ---------------------------------------------------------------------------
# Built-in instances
# ---------------------------------------------------------------------------

# The built-in table algebras are fixed: each is built and validated once
# per process.

@cache
def rational_algebra() -> SAlgebra:
    """Rank 1: the rationals with nu = evaluate every monomial at 1."""
    q = base("q", 1)
    e = singleton(q, GenIx(0))
    return table_algebra("rationals", ((e,),), e)


@cache
def dual_numbers() -> SAlgebra:
    """Rank 2: basis (1, eps) with eps * eps = 0."""
    d = base("dual", 2)
    one = singleton(d, GenIx(0))
    eps = singleton(d, GenIx(1))
    zero = zero_element(d)
    table = ((one, eps), (eps, zero))
    return table_algebra("dual-numbers", table, one)


@cache
def square_zero_extension() -> SAlgebra:
    """Rank 3: scalars plus a rank-2 ideal whose products all vanish."""
    c = base("sqz", 3)
    one = singleton(c, GenIx(0))
    s = singleton(c, GenIx(1))
    t = singleton(c, GenIx(2))
    zero = zero_element(c)
    table = ((one, s, t), (s, zero, zero), (t, zero, zero))
    return table_algebra("square-zero", table, one)


def builtin_algebras():
    return [rational_algebra(), dual_numbers(), square_zero_extension()]


def formal_derivative(bound: int = VALIDATE_BOUND) -> Derivation:
    """d/dx on polynomials in one variable, acting into themselves."""
    v = base("x", 1)
    alg = free_algebra(v, name="poly-x", bound=bound)
    module = a_module(alg, Mult(v), bound=bound)
    counit = linear_map_from_matrix(v, UNIT, ((1,),))
    d = compose(Deriv(v), TensorM(Id(sym(v)), counit))
    return derivation(module, d, bound=bound)


def deriving_map_derivation(v: SpaceExpr, bound: int = VALIDATE_BOUND) -> Derivation:
    """The deriving map itself, as a derivation into S(V) (x) V."""
    alg = free_algebra(v, name="free", bound=bound)
    module = a_module(alg, TensorM(Mult(v), Id(v)), bound=bound)
    return derivation(module, Deriv(v), bound=bound)


def zero_derivation(alg: SAlgebra, bound: int = VALIDATE_BOUND) -> Derivation:
    """The zero map, a derivation of any algebra into itself."""
    a = alg.carrier
    module = a_module(alg, alg.mult(), bound=bound)
    return derivation(module, ZeroM(a, a), bound=bound)


def builtin_derivations(bound: int = VALIDATE_BOUND):
    return [
        formal_derivative(bound=bound),
        deriving_map_derivation(base("x", 1), bound=bound),
        zero_derivation(rational_algebra(), bound=bound),
        zero_derivation(dual_numbers(), bound=bound),
    ]
