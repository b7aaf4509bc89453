"""Named law registry: every algebraic law is one entry of the ordered table ``_LAWS``.

Each entry has a stable name, an anchor, ``instances(bound, ctx)`` giving its
``(instance_name, x)`` pairs and ``equations(x, ctx)`` listing the map
equations of one of them, each ``(lhs, rhs)`` or ``(lhs, rhs, bound offset)``:
two maps, or two arrow morphisms compared componentwise.  ``Law.run`` decides
an instance's equations in order with ``derivations.decide_equations``, which
stops at the first failure.  A law that is one equation is ``_eq(name,
anchor, instances, build)``, where ``build(x, ctx)`` returns ``(lhs, rhs)``.
The structure laws take their equations from an axiom table of
derivations.py, over derivations that a ``LawContext`` builds, with their
S-bar algebras and box monoids, once per run and bound.
Deep laws, whose domain nests the symmetric algebra twice or more, run one
bound lower, since their basis grows quickly.

Mutation names accepted by the checks (each breaks one construction on
purpose, to prove the checks are not vacuous):

- ``leibniz-drop``: drop one summand of the Leibniz law's right side.
- ``dbar-twist-skip``: omit the symmetry twist in the lifted deriving map
  (applied on endomorphism arrows, where the wrong map is still typed).
- ``mubar-mult-skip``: replace the multiplication step of the lifted
  monad multiplication by evaluation at zero.
- ``m2-drop``: zero out the redundant second multiplication component of
  a box-product monoid.
- ``chi-split-swap``: swap the two tensor factors of the Seely inverse
  (applied when both halves coincide, where the wrong map is typed).
"""

from __future__ import annotations

import random
from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

from .spaces import (
    UNIT, ZERO, GenIx, base, tensor, direct_sum, sym, monomial, build_sum, rank,
)
from .elements import singleton
from .morphisms import (
    Id, Compose, TensorM, Add, ZeroM, Sigma, Matrix, SymF, Eta, Mu, Mult, UnitM,
    Deriv, Chi, ChiInv, Chi0Inv, compose,
    linear_map_from_matrix,
)
from .arrow import (
    id_arrow, zero_arrow, compose_arrow, add_arrow,
    sbar_spaces, sbar_obj, sbar_mor, etabar, mubar,
    box_spaces, boxtimes_obj, boxtimes_mor, boxtimes_sigma, boxtimes_unit,
    mbar, ubar, dbar, arrow_seely, arrow_seely_inv, arrow_seely0,
)
from .derivations import (
    SAlgebra, Derivation, decide_equations, algebra_axioms, derivation_axioms,
    chain_rule_axioms, sbar_aux_axioms, monoid_axioms, builtin_algebras, builtin_derivations,
    derivation_to_algebra, algebra_to_derivation, derivation_to_monoid,
    monoid_to_derivation, rational_algebra, dual_numbers,
)
from .tangent import (
    tangent_structure_map, tangent_algebra, tangent_derivation,
    kleisli_map, kleisli_diff, monomial_power_map,
)

#: Law families expected to fail under each mutation.
MUTATION_TARGETS = {
    "leibniz-drop": ("D2",),
    "dbar-twist-skip": ("arrow.D2", "arrow.D5"),
    "mubar-mult-skip": ("arrow.monad.unit.l",),
    "m2-drop": ("monoid.m2-redundancy",),
    "chi-split-swap": ("seely.iso.l", "seely.iso.r"),
}

#: The mutation names, in order.  A tuple, not the dict: a config's raw
#: "mutate" value may be unhashable, and `in` on a tuple compares by ==.
MUTATIONS = tuple(MUTATION_TARGETS)

#: Instance names of `builtin_derivations`, in its order.
BUILTIN_DERIVATIONS = ("d/dx", "deriving-map", "zero(Q)", "zero(dual)")


@dataclass(frozen=True)
class _Derived:
    """A derivation validated at `bound`, and what the dictionaries make of it, built once."""
    d: Derivation
    bound: int
    mutation: str | None

    @cached_property
    def sba(self):
        return derivation_to_algebra(self.d, bound=self.bound)

    @cached_property
    def mon(self):
        return derivation_to_monoid(self.d, bound=self.bound)

    @cached_property
    def box(self):
        """mon as the box-monoid laws see it: m2-drop zeroes its forced m2."""
        if self.mutation != "m2-drop":
            return self.mon
        return replace(self.mon, m2=ZeroM(self.mon.m2.dom(), self.mon.m2.cod()))


@dataclass
class LawContext:
    mutation: str | None = None
    seed: int = 0
    extra_algebras: tuple = ()    # (SAlgebra, ...) from a user config
    extra_derivations: tuple = () # ((name, Derivation), ...) from a user config
    derived: dict = field(default_factory=dict, init=False, repr=False)  # bound -> family

    def rng(self) -> random.Random:
        return random.Random(self.seed)


@dataclass(frozen=True)
class Law:
    name: str
    anchor: str
    instances: Callable  # (bound, ctx) -> [(instance_name, x)]
    equations: Callable  # (x, ctx) -> [(lhs, rhs) or (lhs, rhs, bound offset)]
    deep: bool = False

    def run(self, bound: int, ctx: LawContext):
        b = max(1, bound - 1) if self.deep else bound
        return [(n, decide_equations(self.equations(x, ctx), b))
                for n, x in self.instances(b, ctx)]


def _eq(name, anchor, instances, build, deep=False) -> Law:
    """The law lhs = rhs on every instance x, where build(x, ctx) = (lhs, rhs)."""
    return Law(name, anchor, instances, lambda x, ctx: [build(x, ctx)], deep)


#: Two objects a law takes together: base spaces (Seely) or arrows (box).
_Pair = namedtuple("_Pair", "p q")


def _bases(bound, ctx):
    return [("B1", base("a", 1)), ("B2", base("b", 2)), ("B3", base("c", 3))]


def _seeded_maps(bound, ctx):
    """Random maps with entries in -2..2, drawn from one rng in instance order."""
    rng = ctx.rng()
    b1, b2 = base("a", 1), base("b", 2)
    out = []
    for n, x, y in [("f:B1->B2", b1, b2), ("f:B2->B2", b2, b2)]:
        entries = [[rng.randint(-2, 2) for _ in range(rank(x))] for _ in range(rank(y))]
        out.append((n, linear_map_from_matrix(x, y, entries)))
    return out


def _seely_pairs(bound, ctx):
    b1, b2 = base("a", 1), base("b", 2)
    return [("(B1,B1)", _Pair(b1, b1)), ("(B1,B2)", _Pair(b1, b2)),
            ("(B2,B2)", _Pair(b2, b2))]


def _arrows(bound, ctx):
    b1, b2 = base("a", 1), base("b", 2)
    return [
        ("id(B1)", Id(b1)),
        ("id(B2)", Id(b2)),
        ("zero(B1,B2)", ZeroM(b1, b2)),
        ("swap(B2)", linear_map_from_matrix(b2, b2, ((0, 1), (1, 0)))),
        ("rect(B2,B1)", linear_map_from_matrix(b2, b1, ((1, 2),))),
    ]


def _ends(*maps):
    """The spaces the maps run between, in order: A0, A1, B0, B1, ..."""
    return tuple(s for m in maps for s in (m.dom(), m.cod()))


#: The lifted monoid of an arrow o: the spaces of sbar(o), multiplication and unit.
_LiftedMonoid = namedtuple("_LiftedMonoid", "sb m u")


def _lifted_monoids(bound, ctx):
    return [(n, _LiftedMonoid(sbar_spaces(*_ends(o)), mbar(*_ends(o)), ubar(*_ends(o))))
            for n, o in _arrows(bound, ctx)]


def _box_pairs(bound, ctx):
    arrows = dict(_arrows(bound, ctx))
    return [("(id1,swap)", _Pair(arrows["id(B1)"], arrows["swap(B2)"])),
            ("(rect,id1)", _Pair(arrows["rect(B2,B1)"], arrows["id(B1)"])),
            ("(zero,zero)", _Pair(arrows["zero(B1,B2)"], arrows["zero(B1,B2)"]))]


def _derivations(bound, ctx):
    """The built-in derivations, then the config's, built once per run and bound."""
    if bound not in ctx.derived:
        ders = [*zip(BUILTIN_DERIVATIONS, builtin_derivations(bound=bound)),
                *ctx.extra_derivations]
        ctx.derived[bound] = [(n, _Derived(d, bound, ctx.mutation)) for n, d in ders]
    return ctx.derived[bound]


def _d2_rhs(a, drop: bool):
    sa = sym(a)
    mstep = TensorM(Mult(a), Id(a))
    t1 = compose(TensorM(Id(sa), Deriv(a)), mstep)
    t2 = compose(TensorM(Deriv(a), Id(sa)), TensorM(Id(sa), Sigma(a, sa)), mstep)
    return t1 if drop else Add(t1, t2)


def _chi_inv(pair, ctx):
    inv = ChiInv(pair.p, pair.q)
    if ctx.mutation == "chi-split-swap" and pair.p == pair.q:
        inv = compose(inv, Sigma(sym(pair.p), sym(pair.q)))
    return inv


def _dbar(a0, a1, ctx):
    d = dbar(a0, a1)
    if ctx.mutation == "dbar-twist-skip" and a0 == a1:
        # The second row without its symmetry twist: typed only when A0 = A1.
        (row1,), (row2,) = d.f1.entries
        return replace(d, f1=Matrix(((row1,), (row2.f,))))
    return d


def _mubar(o, ctx):
    mu = mubar(o)
    if ctx.mutation == "mubar-mult-skip":
        # Discard the second Sym factor by evaluating it at zero, S(A0) -> I,
        # instead of multiplying.
        drop = compose(SymF(ZeroM(o.dom(), ZERO)), Chi0Inv())
        step = TensorM(Id(sym(o.dom())), TensorM(drop, Id(o.cod())))
        return replace(mu, f1=Compose(step, mu.f1.f))
    return mu


def _arrow_d2(o, ctx):
    a = _ends(o)
    sb = sbar_spaces(*a)
    d = _dbar(*a, ctx)
    t1 = boxtimes_mor(id_arrow(*sb), d)
    t2 = compose_arrow(boxtimes_mor(id_arrow(*sb), boxtimes_sigma(*a, *sb)),
                       boxtimes_mor(d, id_arrow(*sb)))
    rhs = compose_arrow(boxtimes_mor(mbar(*a), id_arrow(*a)), add_arrow(t1, t2))
    return compose_arrow(d, mbar(*a)), rhs


def _arrow_d5(o, ctx):
    a = _ends(o)
    d = _dbar(*a, ctx)
    inner = compose_arrow(boxtimes_mor(d, id_arrow(*a)), d)
    lhs = compose_arrow(boxtimes_mor(id_arrow(*sbar_spaces(*a)), boxtimes_sigma(*a, *a)), inner)
    return lhs, inner


def _dual_table(x, ctx):
    tan = tangent_algebra(rational_algebra())
    dual = dual_numbers()
    j = linear_map_from_matrix(tan.carrier, dual.carrier, ((1, 0), (0, 1)))
    return compose(tan.mult(), j), compose(TensorM(j, j), dual.mult())


def _dict_roundtrip(x, ctx):
    back = monoid_to_derivation(x.mon, x.d.algebra, bound=x.bound)
    return [(back.d, x.d.d), (back.module.alpha, x.d.module.alpha)]


def _tangent_algebra(alg, ctx):
    """Unit law at the law's bound; the associativity law nests S twice, so one lower."""
    eqs = algebra_axioms(SAlgebra("tangent-" + alg.name, tangent_structure_map(alg)))
    return [eqs["algebra.unit"], (*eqs["algebra.assoc"], -1)]


def power_rule(k: int, coeff):
    """The differential of e |-> x^k and e |-> coeff * x1^(k-1) x2, where x1
    and x2 are the two copies of x; the power rule says they agree for coeff = k."""
    df = kleisli_diff(monomial_power_map(k))
    bb = df.cod().inner
    x1, x2 = build_sum(bb, 0, GenIx(0)), build_sum(bb, 1, GenIx(0))
    return df, kleisli_map(df.dom(), bb, {
        GenIx(0): singleton(sym(bb), monomial([x1] * (k - 1) + [x2]), coeff)})


_LAWS = (
    _eq("D1", "derivative of the constant monomial vanishes", _bases,
        lambda a, ctx: (compose(UnitM(a), Deriv(a)), ZeroM(UNIT, tensor(sym(a), a)))),
    _eq("D2", "Leibniz product rule for the deriving map", _bases,
        lambda a, ctx: (compose(Mult(a), Deriv(a)),
                        _d2_rhs(a, ctx.mutation == "leibniz-drop"))),
    _eq("D3", "derivative of a generator is the generator", _bases,
        lambda a, ctx: (compose(Eta(a), Deriv(a)), TensorM(UnitM(a), Id(a)))),
    _eq("D4", "chain rule: derivative commutes with substitution", _bases,
        lambda a, ctx: (compose(Mu(a), Deriv(a)),
                        compose(Deriv(sym(a)), TensorM(Mu(a), Deriv(a)),
                                TensorM(Mult(a), Id(a)))), deep=True),
    _eq("D5", "interchange: the two mixed second derivatives agree", _bases,
        lambda a, ctx: (compose(Deriv(a), TensorM(Deriv(a), Id(a)),
                                TensorM(Id(sym(a)), Sigma(a, a))),
                        compose(Deriv(a), TensorM(Deriv(a), Id(a))))),
    _eq("monad.unit.l", "substitution after the outer unit is the identity", _bases,
        lambda a, ctx: (compose(Eta(sym(a)), Mu(a)), Id(sym(a)))),
    _eq("monad.unit.r", "substitution after the inner unit is the identity", _bases,
        lambda a, ctx: (compose(SymF(Eta(a)), Mu(a)), Id(sym(a)))),
    _eq("monad.assoc", "substitution is associative", _bases,
        lambda a, ctx: (compose(SymF(Mu(a)), Mu(a)), compose(Mu(sym(a)), Mu(a))),
        deep=True),
    _eq("monoid.assoc", "polynomial multiplication is associative", _bases,
        lambda a, ctx: (compose(TensorM(Mult(a), Id(sym(a))), Mult(a)),
                        compose(TensorM(Id(sym(a)), Mult(a)), Mult(a)))),
    _eq("monoid.unit.l", "multiplying by the empty monomial on the left", _bases,
        lambda a, ctx: (compose(TensorM(UnitM(a), Id(sym(a))), Mult(a)), Id(sym(a)))),
    _eq("monoid.unit.r", "multiplying by the empty monomial on the right", _bases,
        lambda a, ctx: (compose(TensorM(Id(sym(a)), UnitM(a)), Mult(a)), Id(sym(a)))),
    _eq("monoid.comm", "polynomial multiplication is commutative", _bases,
        lambda a, ctx: (compose(Sigma(sym(a), sym(a)), Mult(a)), Mult(a))),
    _eq("monoidmorph.mult", "substitution preserves multiplication", _bases,
        lambda a, ctx: (compose(Mult(sym(a)), Mu(a)),
                        compose(TensorM(Mu(a), Mu(a)), Mult(a))), deep=True),
    _eq("monoidmorph.unit", "substitution preserves the unit", _bases,
        lambda a, ctx: (compose(UnitM(sym(a)), Mu(a)), UnitM(a)), deep=True),

    _eq("nat.eta", "the degree-1 embedding is natural", _seeded_maps,
        lambda f, ctx: (compose(f, Eta(f.cod())), compose(Eta(f.dom()), SymF(f)))),
    _eq("nat.mu", "substitution is natural", _seeded_maps,
        lambda f, ctx: (compose(Mu(f.dom()), SymF(f)), compose(SymF(SymF(f)), Mu(f.cod()))),
        deep=True),
    _eq("nat.m", "multiplication is natural", _seeded_maps,
        lambda f, ctx: (compose(Mult(f.dom()), SymF(f)),
                        compose(TensorM(SymF(f), SymF(f)), Mult(f.cod())))),
    _eq("nat.u", "the unit is natural", _seeded_maps,
        lambda f, ctx: (compose(UnitM(f.dom()), SymF(f)), UnitM(f.cod()))),
    _eq("nat.d", "the deriving map is natural", _seeded_maps,
        lambda f, ctx: (compose(Deriv(f.dom()), TensorM(SymF(f), f)),
                        compose(SymF(f), Deriv(f.cod())))),

    _eq("seely.iso.l", "merging then splitting monomials is the identity", _seely_pairs,
        lambda pair, ctx: (compose(Chi(pair.p, pair.q), _chi_inv(pair, ctx)),
                           Id(tensor(sym(pair.p), sym(pair.q))))),
    _eq("seely.iso.r", "splitting then merging monomials is the identity", _seely_pairs,
        lambda pair, ctx: (compose(_chi_inv(pair, ctx), Chi(pair.p, pair.q)),
                           Id(sym(direct_sum(pair.p, pair.q))))),
    _eq("seely0.iso.l", "the empty-space comparison is invertible, one way",
        lambda bound, ctx: [("I", None)],
        lambda x, ctx: (compose(UnitM(ZERO), Chi0Inv()), Id(UNIT))),
    _eq("seely0.iso.r", "the empty-space comparison is invertible, other way",
        lambda bound, ctx: [("S(0)", None)],
        lambda x, ctx: (compose(Chi0Inv(), UnitM(ZERO)), Id(sym(ZERO)))),

    _eq("arrow.monad.unit.l", "lifted monad: outer unit then multiplication", _arrows,
        lambda o, ctx: (compose_arrow(_mubar(o, ctx), etabar(sbar_obj(o))),
                        id_arrow(*sbar_spaces(*_ends(o))))),
    _eq("arrow.monad.unit.r", "lifted monad: inner unit then multiplication", _arrows,
        lambda o, ctx: (compose_arrow(_mubar(o, ctx), sbar_mor(etabar(o))),
                        id_arrow(*sbar_spaces(*_ends(o))))),
    _eq("arrow.monad.assoc", "lifted monad: multiplication is associative", _arrows,
        lambda o, ctx: (compose_arrow(_mubar(o, ctx), sbar_mor(_mubar(o, ctx))),
                        compose_arrow(_mubar(o, ctx), _mubar(sbar_obj(o), ctx))),
        deep=True),
    _eq("arrow.monoid.assoc", "lifted multiplication is associative", _lifted_monoids,
        lambda x, ctx: (compose_arrow(x.m, boxtimes_mor(x.m, id_arrow(*x.sb))),
                        compose_arrow(x.m, boxtimes_mor(id_arrow(*x.sb), x.m)))),
    _eq("arrow.monoid.unit.l", "lifted multiplication: left unit", _lifted_monoids,
        lambda x, ctx: (compose_arrow(x.m, boxtimes_mor(x.u, id_arrow(*x.sb))), id_arrow(*x.sb))),
    _eq("arrow.monoid.unit.r", "lifted multiplication: right unit", _lifted_monoids,
        lambda x, ctx: (compose_arrow(x.m, boxtimes_mor(id_arrow(*x.sb), x.u)), id_arrow(*x.sb))),
    _eq("arrow.monoid.comm", "lifted multiplication is commutative", _lifted_monoids,
        lambda x, ctx: (compose_arrow(x.m, boxtimes_sigma(*x.sb, *x.sb)), x.m)),
    _eq("arrow.monoidmorph.mult", "lifted substitution preserves multiplication", _arrows,
        lambda o, ctx: (compose_arrow(mbar(*_ends(o)), boxtimes_mor(mubar(o), mubar(o))),
                        compose_arrow(mubar(o), mbar(*sbar_spaces(*_ends(o))))), deep=True),
    _eq("arrow.monoidmorph.unit", "lifted substitution preserves the unit", _arrows,
        lambda o, ctx: (compose_arrow(mubar(o), ubar(*sbar_spaces(*_ends(o)))), ubar(*_ends(o))),
        deep=True),
    _eq("arrow.D1", "lifted derivative of the constant vanishes", _arrows,
        lambda o, ctx: (compose_arrow(_dbar(*_ends(o), ctx), ubar(*_ends(o))),
                        zero_arrow(UNIT, ZERO, *box_spaces(*sbar_spaces(*_ends(o)), *_ends(o))))),
    _eq("arrow.D2", "lifted Leibniz product rule", _arrows, _arrow_d2),
    _eq("arrow.D3", "lifted derivative of a generator", _arrows,
        lambda o, ctx: (compose_arrow(_dbar(*_ends(o), ctx), etabar(o)),
                        boxtimes_mor(ubar(*_ends(o)), id_arrow(*_ends(o))))),
    _eq("arrow.D4", "lifted chain rule", _arrows,
        lambda o, ctx: (compose_arrow(_dbar(*_ends(o), ctx), mubar(o)),
                        compose_arrow(boxtimes_mor(mbar(*_ends(o)), id_arrow(*_ends(o))),
                                      compose_arrow(boxtimes_mor(mubar(o), _dbar(*_ends(o), ctx)),
                                                    _dbar(*sbar_spaces(*_ends(o)), ctx)))),
        deep=True),
    _eq("arrow.D5", "lifted interchange of second derivatives", _arrows, _arrow_d5),

    _eq("arrow.box.assoc", "box product is strictly associative", _box_pairs,
        lambda pair, ctx: (boxtimes_obj(boxtimes_obj(pair.p, pair.q), pair.p),
                           boxtimes_obj(pair.p, boxtimes_obj(pair.q, pair.p)))),
    _eq("arrow.box.unit.l", "box product: strict left unit", _box_pairs,
        lambda pair, ctx: (boxtimes_obj(boxtimes_unit(), pair.q), pair.q)),
    _eq("arrow.box.unit.r", "box product: strict right unit", _box_pairs,
        lambda pair, ctx: (boxtimes_obj(pair.p, boxtimes_unit()), pair.p)),
    _eq("arrow.box.sym.invol", "box symmetry is an involution", _box_pairs,
        lambda pair, ctx: (compose_arrow(boxtimes_sigma(*_ends(pair.q, pair.p)),
                                         boxtimes_sigma(*_ends(*pair))),
                           id_arrow(*box_spaces(*_ends(*pair))))),
    _eq("arrow.seely.iso.l", "lifted storage comparison, merge then split", _box_pairs,
        lambda pair, ctx: (compose_arrow(arrow_seely(*_ends(*pair)),
                                         arrow_seely_inv(*_ends(*pair))),
                           id_arrow(*sbar_spaces(direct_sum(pair.p.dom(), pair.q.dom()),
                                                 direct_sum(pair.p.cod(), pair.q.cod()))))),
    _eq("arrow.seely.iso.r", "lifted storage comparison, split then merge", _box_pairs,
        lambda pair, ctx: (compose_arrow(arrow_seely_inv(*_ends(*pair)),
                                         arrow_seely(*_ends(*pair))),
                           id_arrow(*box_spaces(*sbar_spaces(*_ends(pair.p)),
                                                *sbar_spaces(*_ends(pair.q)))))),
    _eq("arrow.seely0", "lifted nullary comparison equals the lifted unit",
        lambda bound, ctx: [("0", None)],
        lambda x, ctx: (arrow_seely0(), ubar(ZERO, ZERO))),

    _eq("deriv.chain-rule", "built-in derivations satisfy the chain rule", _derivations,
        lambda x, ctx: chain_rule_axioms(x.d)["derivation.chain-rule"]),
    _eq("deriv.implies.leibniz", "every chain-rule derivation obeys the plain Leibniz rule",
        _derivations, lambda x, ctx: derivation_axioms(x.d)["derivation.leibniz"]),
    _eq("deriv.roundtrip.alpha", "module action survives derivation -> algebra -> derivation",
        _derivations, lambda x, ctx: (algebra_to_derivation(x.sba, bound=x.bound).module.alpha,
                                      x.d.module.alpha)),
    _eq("deriv.roundtrip.nu1", "evaluation survives algebra -> derivation -> algebra",
        _derivations, lambda x, ctx: (derivation_to_algebra(algebra_to_derivation(
            x.sba, bound=x.bound), bound=x.bound).nu1, x.sba.nu1)),
    _eq("sbar.aux.evaluated-unit", "derived diagram: evaluate, re-embed, act equals act",
        _derivations, lambda x, ctx: sbar_aux_axioms(x.sba)["sbar.aux.evaluated-unit"]),
    _eq("sbar.aux.mult-action", "derived diagram: acting by a product equals acting twice",
        _derivations, lambda x, ctx: sbar_aux_axioms(x.sba)["sbar.aux.mult-action"]),
    _eq("boxmonoid.assoc", "box monoid from a derivation: associativity", _derivations,
        lambda x, ctx: monoid_axioms(x.box)["monoid.assoc"]),
    _eq("boxmonoid.unit.l", "box monoid from a derivation: left unit", _derivations,
        lambda x, ctx: monoid_axioms(x.box)["monoid.unit.l"]),
    _eq("boxmonoid.unit.r", "box monoid from a derivation: right unit", _derivations,
        lambda x, ctx: monoid_axioms(x.box)["monoid.unit.r"]),
    _eq("boxmonoid.comm", "box monoid from a derivation: commutativity", _derivations,
        lambda x, ctx: monoid_axioms(x.box)["monoid.comm"]),
    Law("boxmonoid.squares", "box monoid structure maps are arrow morphisms", _derivations,
        lambda x, ctx: [monoid_axioms(x.box)[k]
                        for k in ("monoid.square.mult", "monoid.square.unit")]),
    _eq("monoid.m2-redundancy", "the second multiplication component is forced by symmetry",
        _derivations, lambda x, ctx: monoid_axioms(x.box)["monoid.m2-redundancy"]),
    Law("monoid.dict.roundtrip", "derivation -> monoid -> derivation is the identity",
        _derivations, _dict_roundtrip),

    Law("tangent.algebra", "the doubled structure map is again an algebra",
        lambda bound, ctx: [(alg.name, alg)
                            for alg in [*builtin_algebras(), *ctx.extra_algebras]],
        _tangent_algebra),
    _eq("tangent.dual-table", "tangent of the rank-1 algebra is exactly dual numbers",
        lambda bound, ctx: [("rank-1", None)], _dual_table),
    _eq("tangent.chain-rule", "the doubled derivation satisfies the chain rule",
        lambda bound, ctx: [(n, x) for n, x in _derivations(bound, ctx)
                            if n in ("d/dx", "zero(Q)")],
        lambda x, ctx: chain_rule_axioms(tangent_derivation(x.d, bound=x.bound))[
            "derivation.chain-rule"], deep=True),
    _eq("kleisli.power-rule", "the Kleisli differential reproduces the power rule",
        lambda bound, ctx: [(f"x^{k}", k) for k in range(1, 5)],
        lambda k, ctx: power_rule(k, k)),
    _eq("kleisli.additivity", "the Kleisli differential is additive",
        lambda bound, ctx: [("x^2+x^3", None)],
        lambda x, ctx: (kleisli_diff(Add(monomial_power_map(2), monomial_power_map(3))),
                        Add(kleisli_diff(monomial_power_map(2)),
                            kleisli_diff(monomial_power_map(3))))),
)


def registry():
    """All laws, keyed by stable name, in a stable order."""
    out = {}
    for law in _LAWS:
        if law.name in out:
            raise ValueError(f"duplicate law name {law.name}")
        out[law.name] = law
    return out


def list_laws():
    return [(law.name, law.anchor) for law in registry().values()]
