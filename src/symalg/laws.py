"""Named law registry: every algebraic law as a checkable obligation.

Each law has a stable string name, a human-readable anchor, and a runner
that returns one verdict per instance.  Laws whose domain nests the
symmetric algebra twice (or worse) are flagged deep and run at a reduced
bound, since their basis grows quickly.

Mutation names accepted by the runners (each breaks one construction on
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
from dataclasses import dataclass

from .spaces import (
    UNIT, ZERO, GenIx, base, tensor, direct_sum, sym, monomial, build_sum, rank,
)
from .elements import singleton
from .morphisms import (
    Id, TensorM, Add, ZeroM, Sigma, SymF, Eta, Mu, Mult, UnitM,
    Deriv, Chi, ChiInv, Chi0Inv, Verdict, check_equal, compose,
    linear_map_from_matrix,
)
from .arrow import (
    ArrowObj, id_arrow, zero_arrow, compose_arrow, add_arrow,
    arrow_check, sum_obj, zero_obj, sbar_obj, sbar_mor, etabar, mubar,
    boxtimes_obj, boxtimes_mor, boxtimes_sigma, boxtimes_unit,
    mbar, ubar, dbar, arrow_seely, arrow_seely_inv, arrow_seely0,
)
from .derivations import (
    ArrowMonoid, builtin_algebras, builtin_derivations, is_s_derivation,
    roundtrip_alpha, roundtrip_nu1, derivation_to_algebra,
    derivation_to_monoid, monoid_to_derivation, monoid_checks, m2_redundancy,
    sbar_algebra_aux_checks, formal_derivative, zero_derivation,
    rational_algebra, dual_numbers,
)
from .tangent import (
    tangent_structure_map, tangent_algebra, tangent_derivation,
    kleisli_map, kleisli_diff, monomial_power_map,
)

MUTATIONS = ("leibniz-drop", "dbar-twist-skip", "mubar-mult-skip",
             "m2-drop", "chi-split-swap")

#: Law families expected to fail under each mutation.
MUTATION_TARGETS = {
    "leibniz-drop": ("D2",),
    "dbar-twist-skip": ("arrow.D2", "arrow.D5"),
    "mubar-mult-skip": ("arrow.monad.unit.l",),
    "m2-drop": ("monoid.m2-redundancy",),
    "chi-split-swap": ("seely.iso.l", "seely.iso.r"),
}


@dataclass
class LawContext:
    mutation: str | None = None
    seed: int = 0
    extra_algebras: tuple = ()    # (SAlgebra, ...) from a user config
    extra_derivations: tuple = () # ((name, Derivation), ...) from a user config

    def rng(self) -> random.Random:
        return random.Random(self.seed)


@dataclass(frozen=True)
class Law:
    name: str
    anchor: str
    deep: bool
    runner: object  # (bound, ctx) -> list[(instance_name, Verdict)]

    def run(self, bound: int, ctx: LawContext):
        b = max(1, bound - 1) if self.deep else bound
        return self.runner(b, ctx)


def default_base_spaces():
    return [("B1", base("a", 1)), ("B2", base("b", 2)), ("B3", base("c", 3))]


def default_arrows():
    b1, b2 = base("a", 1), base("b", 2)
    return [
        ("id(B1)", ArrowObj(Id(b1))),
        ("id(B2)", ArrowObj(Id(b2))),
        ("zero(B1,B2)", ArrowObj(ZeroM(b1, b2))),
        ("swap(B2)", ArrowObj(linear_map_from_matrix(b2, b2, ((0, 1), (1, 0))))),
        ("rect(B2,B1)", ArrowObj(linear_map_from_matrix(b2, b1, ((1, 2),)))),
    ]


def _random_map(rng, a, b):
    entries = [[rng.randint(-2, 2) for _ in range(rank(a))] for _ in range(rank(b))]
    return linear_map_from_matrix(a, b, entries)


def _on_bases(fn):
    def run(bound, ctx):
        return [(n, fn(a, bound, ctx)) for n, a in default_base_spaces()]
    return run


def _d2_rhs(a, drop: bool):
    sa = sym(a)
    mstep = TensorM(Mult(a), Id(a))
    t1 = compose(TensorM(Id(sa), Deriv(a)), mstep)
    t2 = compose(TensorM(Deriv(a), Id(sa)), TensorM(Id(sa), Sigma(a, sa)), mstep)
    return t1 if drop else Add(t1, t2)


def base_laws():
    laws = []

    def law(name, anchor, fn, deep=False):
        laws.append(Law(name, anchor, deep, fn))

    law("D1", "derivative of the constant monomial vanishes",
        _on_bases(lambda a, b, c: check_equal(
            compose(UnitM(a), Deriv(a)), ZeroM(UNIT, tensor(sym(a), a)), b)))

    def d2(a, b, ctx):
        lhs = compose(Mult(a), Deriv(a))
        rhs = _d2_rhs(a, ctx.mutation == "leibniz-drop")
        return check_equal(lhs, rhs, b)
    law("D2", "Leibniz product rule for the deriving map", _on_bases(d2))

    law("D3", "derivative of a generator is the generator",
        _on_bases(lambda a, b, c: check_equal(
            compose(Eta(a), Deriv(a)), TensorM(UnitM(a), Id(a)), b)))

    law("D4", "chain rule: derivative commutes with substitution",
        _on_bases(lambda a, b, c: check_equal(
            compose(Mu(a), Deriv(a)),
            compose(Deriv(sym(a)), TensorM(Mu(a), Deriv(a)),
                    TensorM(Mult(a), Id(a))), b)), deep=True)

    law("D5", "interchange: the two mixed second derivatives agree",
        _on_bases(lambda a, b, c: check_equal(
            compose(Deriv(a), TensorM(Deriv(a), Id(a)),
                    TensorM(Id(sym(a)), Sigma(a, a))),
            compose(Deriv(a), TensorM(Deriv(a), Id(a))), b)))

    law("monad.unit.l", "substitution after the outer unit is the identity",
        _on_bases(lambda a, b, c: check_equal(
            compose(Eta(sym(a)), Mu(a)), Id(sym(a)), b)))
    law("monad.unit.r", "substitution after the inner unit is the identity",
        _on_bases(lambda a, b, c: check_equal(
            compose(SymF(Eta(a)), Mu(a)), Id(sym(a)), b)))
    law("monad.assoc", "substitution is associative",
        _on_bases(lambda a, b, c: check_equal(
            compose(SymF(Mu(a)), Mu(a)), compose(Mu(sym(a)), Mu(a)), b)),
        deep=True)

    def monoid(a):
        sa = sym(a)
        return sa, Mult(a), UnitM(a)

    law("monoid.assoc", "polynomial multiplication is associative",
        _on_bases(lambda a, b, c: (lambda sa, m, u: check_equal(
            compose(TensorM(m, Id(sa)), m),
            compose(TensorM(Id(sa), m), m), b))(*monoid(a))))
    law("monoid.unit.l", "multiplying by the empty monomial on the left",
        _on_bases(lambda a, b, c: (lambda sa, m, u: check_equal(
            compose(TensorM(u, Id(sa)), m), Id(sa), b))(*monoid(a))))
    law("monoid.unit.r", "multiplying by the empty monomial on the right",
        _on_bases(lambda a, b, c: (lambda sa, m, u: check_equal(
            compose(TensorM(Id(sa), u), m), Id(sa), b))(*monoid(a))))
    law("monoid.comm", "polynomial multiplication is commutative",
        _on_bases(lambda a, b, c: (lambda sa, m, u: check_equal(
            compose(Sigma(sa, sa), m), m, b))(*monoid(a))))

    law("monoidmorph.mult", "substitution preserves multiplication",
        _on_bases(lambda a, b, c: check_equal(
            compose(Mult(sym(a)), Mu(a)),
            compose(TensorM(Mu(a), Mu(a)), Mult(a)), b)), deep=True)
    law("monoidmorph.unit", "substitution preserves the unit",
        _on_bases(lambda a, b, c: check_equal(
            compose(UnitM(sym(a)), Mu(a)), UnitM(a), b)), deep=True)

    def nat(name, anchor, square, deep=False):
        def run(bound, ctx):
            rng = ctx.rng()
            b1, b2 = base("a", 1), base("b", 2)
            out = []
            for iname, (x, y) in [("f:B1->B2", (b1, b2)), ("f:B2->B2", (b2, b2))]:
                f = _random_map(rng, x, y)
                out.append((iname, square(f, x, y, bound)))
            return out
        law(name, anchor, run, deep=deep)

    nat("nat.eta", "the degree-1 embedding is natural",
        lambda f, x, y, b: check_equal(
            compose(f, Eta(y)), compose(Eta(x), SymF(f)), b))
    nat("nat.mu", "substitution is natural",
        lambda f, x, y, b: check_equal(
            compose(Mu(x), SymF(f)), compose(SymF(SymF(f)), Mu(y)), b),
        deep=True)
    nat("nat.m", "multiplication is natural",
        lambda f, x, y, b: check_equal(
            compose(Mult(x), SymF(f)),
            compose(TensorM(SymF(f), SymF(f)), Mult(y)), b))
    nat("nat.u", "the unit is natural",
        lambda f, x, y, b: check_equal(
            compose(UnitM(x), SymF(f)), UnitM(y), b))
    nat("nat.d", "the deriving map is natural",
        lambda f, x, y, b: check_equal(
            compose(Deriv(x), TensorM(SymF(f), f)),
            compose(SymF(f), Deriv(y)), b))

    def seely_pairs():
        b1, b2 = base("a", 1), base("b", 2)
        return [("(B1,B1)", b1, b1), ("(B1,B2)", b1, b2), ("(B2,B2)", b2, b2)]

    def chi_inv(a, bb, ctx):
        inv = ChiInv(a, bb)
        if ctx.mutation == "chi-split-swap" and a == bb:
            inv = compose(inv, Sigma(sym(a), sym(bb)))
        return inv

    def seely_l(bound, ctx):
        out = []
        for n, a, bb in seely_pairs():
            v = check_equal(compose(Chi(a, bb), chi_inv(a, bb, ctx)),
                            Id(tensor(sym(a), sym(bb))), bound)
            out.append((n, v))
        return out

    def seely_r(bound, ctx):
        out = []
        for n, a, bb in seely_pairs():
            v = check_equal(compose(chi_inv(a, bb, ctx), Chi(a, bb)),
                            Id(sym(direct_sum(a, bb))), bound)
            out.append((n, v))
        return out

    law("seely.iso.l", "merging then splitting monomials is the identity", seely_l)
    law("seely.iso.r", "splitting then merging monomials is the identity", seely_r)
    law("seely0.iso.l", "the empty-space comparison is invertible, one way",
        lambda bound, ctx: [("I", check_equal(
            compose(UnitM(ZERO), Chi0Inv()), Id(UNIT), bound))])
    law("seely0.iso.r", "the empty-space comparison is invertible, other way",
        lambda bound, ctx: [("S(0)", check_equal(
            compose(Chi0Inv(), UnitM(ZERO)), Id(sym(ZERO)), bound))])
    return laws


# ---------------------------------------------------------------------------
# Arrow-level laws
# ---------------------------------------------------------------------------

def _merge(v0: Verdict, v1: Verdict) -> Verdict:
    """An arrow law passes iff both component verdicts pass."""
    bad = v0 if not v0.ok else v1
    if not bad.ok:
        return bad
    return Verdict("equal", v0.tested_count + v1.tested_count, v0.weight_bound)


def _on_arrows(fn):
    def run(bound, ctx):
        return [(n, _merge(*fn(o, bound, ctx))) for n, o in default_arrows()]
    return run


def _dbar(o, ctx):
    if ctx.mutation == "dbar-twist-skip" and o.a0 == o.a1:
        return dbar(o, twist=False)
    return dbar(o)


def _mubar(o, ctx):
    return mubar(o, skip_mult=(ctx.mutation == "mubar-mult-skip"))


def arrow_laws():
    laws = []

    def law(name, anchor, fn, deep=False):
        laws.append(Law(name, anchor, deep, fn))

    law("arrow.monad.unit.l", "lifted monad: outer unit then multiplication",
        _on_arrows(lambda o, b, c: arrow_check(
            compose_arrow(_mubar(o, c), etabar(sbar_obj(o))),
            id_arrow(sbar_obj(o)), b)))
    law("arrow.monad.unit.r", "lifted monad: inner unit then multiplication",
        _on_arrows(lambda o, b, c: arrow_check(
            compose_arrow(_mubar(o, c), sbar_mor(etabar(o))),
            id_arrow(sbar_obj(o)), b)))
    law("arrow.monad.assoc", "lifted monad: multiplication is associative",
        _on_arrows(lambda o, b, c: arrow_check(
            compose_arrow(_mubar(o, c), sbar_mor(_mubar(o, c))),
            compose_arrow(_mubar(o, c), _mubar(sbar_obj(o), c)), b)),
        deep=True)

    def with_monoid(fn):
        def g(o, b, c):
            sb = sbar_obj(o)
            return fn(o, sb, mbar(o), ubar(o), b, c)
        return g

    law("arrow.monoid.assoc", "lifted multiplication is associative",
        _on_arrows(with_monoid(lambda o, sb, m, u, b, c: arrow_check(
            compose_arrow(m, boxtimes_mor(m, id_arrow(sb))),
            compose_arrow(m, boxtimes_mor(id_arrow(sb), m)), b))))
    law("arrow.monoid.unit.l", "lifted multiplication: left unit",
        _on_arrows(with_monoid(lambda o, sb, m, u, b, c: arrow_check(
            compose_arrow(m, boxtimes_mor(u, id_arrow(sb))),
            id_arrow(sb), b))))
    law("arrow.monoid.unit.r", "lifted multiplication: right unit",
        _on_arrows(with_monoid(lambda o, sb, m, u, b, c: arrow_check(
            compose_arrow(m, boxtimes_mor(id_arrow(sb), u)),
            id_arrow(sb), b))))
    law("arrow.monoid.comm", "lifted multiplication is commutative",
        _on_arrows(with_monoid(lambda o, sb, m, u, b, c: arrow_check(
            compose_arrow(m, boxtimes_sigma(sb, sb)), m, b))))

    law("arrow.monoidmorph.mult",
        "lifted substitution preserves multiplication",
        _on_arrows(lambda o, b, c: arrow_check(
            compose_arrow(mbar(o), boxtimes_mor(mubar(o), mubar(o))),
            compose_arrow(mubar(o), mbar(sbar_obj(o))), b)), deep=True)
    law("arrow.monoidmorph.unit", "lifted substitution preserves the unit",
        _on_arrows(lambda o, b, c: arrow_check(
            compose_arrow(mubar(o), ubar(sbar_obj(o))), ubar(o), b)),
        deep=True)

    law("arrow.D1", "lifted derivative of the constant vanishes",
        _on_arrows(lambda o, b, c: arrow_check(
            compose_arrow(_dbar(o, c), ubar(o)),
            zero_arrow(boxtimes_unit(), boxtimes_obj(sbar_obj(o), o)), b)))

    def ad2(o, b, c):
        sb = sbar_obj(o)
        d = _dbar(o, c)
        t1 = boxtimes_mor(id_arrow(sb), d)
        t2 = compose_arrow(boxtimes_mor(id_arrow(sb), boxtimes_sigma(o, sb)),
                           boxtimes_mor(d, id_arrow(sb)))
        rhs = compose_arrow(boxtimes_mor(mbar(o), id_arrow(o)),
                            add_arrow(t1, t2))
        return arrow_check(compose_arrow(d, mbar(o)), rhs, b)
    law("arrow.D2", "lifted Leibniz product rule", _on_arrows(ad2))

    law("arrow.D3", "lifted derivative of a generator",
        _on_arrows(lambda o, b, c: arrow_check(
            compose_arrow(_dbar(o, c), etabar(o)),
            boxtimes_mor(ubar(o), id_arrow(o)), b)))

    def ad4(o, b, c):
        d = _dbar(o, c)
        lhs = compose_arrow(d, mubar(o))
        rhs = compose_arrow(
            boxtimes_mor(mbar(o), id_arrow(o)),
            compose_arrow(boxtimes_mor(mubar(o), d), _dbar(sbar_obj(o), c)))
        return arrow_check(lhs, rhs, b)
    law("arrow.D4", "lifted chain rule", _on_arrows(ad4), deep=True)

    def ad5(o, b, c):
        sb = sbar_obj(o)
        d = _dbar(o, c)
        inner = compose_arrow(boxtimes_mor(d, id_arrow(o)), d)
        lhs = compose_arrow(
            boxtimes_mor(id_arrow(sb), boxtimes_sigma(o, o)), inner)
        return arrow_check(lhs, inner, b)
    law("arrow.D5", "lifted interchange of second derivatives", _on_arrows(ad5))

    def box_samples():
        arrows = dict(default_arrows())
        return [("(id1,swap)", arrows["id(B1)"], arrows["swap(B2)"]),
                ("(rect,id1)", arrows["rect(B2,B1)"], arrows["id(B1)"]),
                ("(zero,zero)", arrows["zero(B1,B2)"], arrows["zero(B1,B2)"])]

    def box_assoc(bound, ctx):
        out = []
        for n, p, q in box_samples():
            r = p
            lhs = boxtimes_obj(boxtimes_obj(p, q), r).phi
            rhs = boxtimes_obj(p, boxtimes_obj(q, r)).phi
            out.append((n, check_equal(lhs, rhs, bound)))
        return out
    law("arrow.box.assoc", "box product is strictly associative", box_assoc)

    def box_unit(side):
        def run(bound, ctx):
            out = []
            for n, p, q in box_samples():
                if side == "l":
                    lhs = boxtimes_obj(boxtimes_unit(), q).phi
                    rhs = q.phi
                else:
                    lhs = boxtimes_obj(p, boxtimes_unit()).phi
                    rhs = p.phi
                out.append((n, check_equal(lhs, rhs, bound)))
            return out
        return run
    law("arrow.box.unit.l", "box product: strict left unit", box_unit("l"))
    law("arrow.box.unit.r", "box product: strict right unit", box_unit("r"))

    def box_invol(bound, ctx):
        out = []
        for n, p, q in box_samples():
            lhs = compose_arrow(boxtimes_sigma(q, p), boxtimes_sigma(p, q))
            out.append((n, _merge(*arrow_check(
                lhs, id_arrow(boxtimes_obj(p, q)), bound))))
        return out
    law("arrow.box.sym.invol", "box symmetry is an involution", box_invol)

    def arrow_seely_law(direction):
        def run(bound, ctx):
            out = []
            for n, p, q in box_samples():
                chi = arrow_seely(p, q)
                inv = arrow_seely_inv(p, q)
                if direction == "l":
                    lhs = compose_arrow(chi, inv)
                    rhs = id_arrow(sbar_obj(sum_obj(p, q)))
                else:
                    lhs = compose_arrow(inv, chi)
                    rhs = id_arrow(boxtimes_obj(sbar_obj(p), sbar_obj(q)))
                out.append((n, _merge(*arrow_check(lhs, rhs, bound))))
            return out
        return run
    law("arrow.seely.iso.l", "lifted storage comparison, merge then split",
        arrow_seely_law("l"))
    law("arrow.seely.iso.r", "lifted storage comparison, split then merge",
        arrow_seely_law("r"))
    law("arrow.seely0", "lifted nullary comparison equals the lifted unit",
        lambda bound, ctx: [("0", _merge(*arrow_check(
            arrow_seely0(), ubar(zero_obj()), bound)))])
    return laws


# ---------------------------------------------------------------------------
# Derivation, monoid-dictionary and tangent laws
# ---------------------------------------------------------------------------

#: Instance names of `builtin_derivations`, in its order.
BUILTIN_DERIVATIONS = ("d/dx", "deriving-map", "zero(Q)", "zero(dual)")


def _builtin_ders(bound, ctx=None):
    out = list(zip(BUILTIN_DERIVATIONS, builtin_derivations(bound=bound)))
    if ctx is not None:
        out.extend(ctx.extra_derivations)
    return out


def structure_laws():
    laws = []

    def law(name, anchor, fn, deep=False):
        laws.append(Law(name, anchor, deep, fn))

    law("deriv.chain-rule", "built-in derivations satisfy the chain rule",
        lambda b, c: [(n, is_s_derivation(d, b)) for n, d in _builtin_ders(b, c)])

    def leibniz_of(d, b):
        alg, mod = d.algebra, d.module
        a = alg.carrier
        m = alg.mult()
        leib = Add(compose(TensorM(Id(a), d.d), mod.alpha),
                   compose(Sigma(a, a), TensorM(Id(a), d.d), mod.alpha))
        return check_equal(compose(m, d.d), leib, b)

    def implication(b, c):
        out = []
        for n, d in _builtin_ders(b, c):
            strong = is_s_derivation(d, b)
            if strong.ok:
                out.append((n, leibniz_of(d, b)))
            else:
                out.append((n, strong))
        return out
    law("deriv.implies.leibniz",
        "every chain-rule derivation obeys the plain Leibniz rule",
        implication)

    law("deriv.roundtrip.alpha",
        "module action survives derivation -> algebra -> derivation",
        lambda b, c: [(n, roundtrip_alpha(d, b)) for n, d in _builtin_ders(b, c)])
    law("deriv.roundtrip.nu1",
        "evaluation survives algebra -> derivation -> algebra",
        lambda b, c: [(n, roundtrip_nu1(derivation_to_algebra(d, bound=b), b))
                      for n, d in _builtin_ders(b, c)])

    def aux(which):
        def run(b, c):
            out = []
            for n, d in _builtin_ders(b, c):
                sba = derivation_to_algebra(d, bound=b)
                checks = dict(sbar_algebra_aux_checks(sba, b))
                out.append((n, checks[which]))
            return out
        return run
    law("sbar.aux.evaluated-unit",
        "derived diagram: evaluate, re-embed, act equals act", aux("sbar.aux.evaluated-unit"))
    law("sbar.aux.mult-action",
        "derived diagram: acting by a product equals acting twice", aux("sbar.aux.mult-action"))

    def mon_of(d, c, b):
        mon = derivation_to_monoid(d, bound=b)
        if c.mutation == "m2-drop":
            mon = ArrowMonoid(mon.obj, mon.m0, mon.m1,
                              ZeroM(mon.m2.dom(), mon.m2.cod()), mon.u0)
        return mon

    def monoid_family(check_name):
        def run(b, c):
            out = []
            for n, d in _builtin_ders(b, c):
                mon = mon_of(d, c, b)
                checks = dict(monoid_checks(mon, b))
                v0 = checks[check_name + ".0"]
                v1 = checks[check_name + ".1"]
                out.append((n, _merge(v0, v1)))
            return out
        return run
    for check_name, anchor in [
        ("monoid.assoc", "box monoid from a derivation: associativity"),
        ("monoid.unit.l", "box monoid from a derivation: left unit"),
        ("monoid.unit.r", "box monoid from a derivation: right unit"),
        ("monoid.comm", "box monoid from a derivation: commutativity"),
    ]:
        law("boxmonoid." + check_name.split(".", 1)[1], anchor,
            monoid_family(check_name))

    def monoid_squares(b, c):
        out = []
        for n, d in _builtin_ders(b, c):
            mon = mon_of(d, c, b)
            checks = dict(monoid_checks(mon, b))
            out.append((n, _merge(checks["monoid.square.mult"],
                                  checks["monoid.square.unit"])))
        return out
    law("boxmonoid.squares",
        "box monoid structure maps are arrow morphisms", monoid_squares)

    law("monoid.m2-redundancy",
        "the second multiplication component is forced by symmetry",
        lambda b, c: [(n, m2_redundancy(mon_of(d, c, b), b))
                      for n, d in _builtin_ders(b, c)])

    def dict_roundtrip(b, c):
        out = []
        for n, d in _builtin_ders(b, c):
            mon = derivation_to_monoid(d, bound=b)
            back = monoid_to_derivation(mon, d.algebra, bound=b)
            v = _merge(check_equal(back.d, d.d, b),
                       check_equal(back.module.alpha, d.module.alpha, b))
            out.append((n, v))
        return out
    law("monoid.dict.roundtrip",
        "derivation -> monoid -> derivation is the identity", dict_roundtrip)

    def tangent_alg_law(b, c):
        out = []
        for alg in list(builtin_algebras()) + list(c.extra_algebras):
            nub = tangent_structure_map(alg)
            aa = direct_sum(alg.carrier, alg.carrier)
            v = _merge(check_equal(compose(Eta(aa), nub), Id(aa), b),
                       check_equal(compose(Mu(aa), nub),
                                   compose(SymF(nub), nub), max(1, b - 1)))
            out.append((alg.name, v))
        return out
    law("tangent.algebra",
        "the doubled structure map is again an algebra", tangent_alg_law)

    def tangent_table(b, c):
        tan = tangent_algebra(rational_algebra()).tangent
        dual = dual_numbers()
        j = linear_map_from_matrix(tan.carrier, dual.carrier, ((1, 0), (0, 1)))
        return [("rank-1", check_equal(compose(tan.mult(), j),
                                       compose(TensorM(j, j), dual.mult()), b))]
    law("tangent.dual-table",
        "tangent of the rank-1 algebra is exactly dual numbers", tangent_table)

    def tangent_chain(b, c):
        out = []
        for n, d in [("d/dx", formal_derivative(bound=b)),
                     ("zero(Q)", zero_derivation(rational_algebra(), bound=b))]:
            out.append((n, is_s_derivation(tangent_derivation(d, bound=b), b)))
        return out
    law("tangent.chain-rule",
        "the doubled derivation satisfies the chain rule", tangent_chain, deep=True)

    law("kleisli.power-rule",
        "the Kleisli differential reproduces the power rule",
        lambda b, c: [(f"x^{k}", power_rule_check(k, k, b)) for k in range(1, 5)])

    def additivity(b, c):
        f, g = monomial_power_map(2), monomial_power_map(3)
        return [("x^2+x^3", check_equal(kleisli_diff(Add(f, g)),
                                         Add(kleisli_diff(f), kleisli_diff(g)), b))]
    law("kleisli.additivity", "the Kleisli differential is additive", additivity)
    return laws


def power_rule_check(k: int, coeff, bound: int) -> Verdict:
    """Compare the differential of e |-> x^k with e |-> coeff * x1^(k-1) x2,
    where x1 and x2 are the two copies of x; the power rule says coeff = k."""
    df = kleisli_diff(monomial_power_map(k))
    bb = df.cod().inner
    x1, x2 = build_sum(bb, 0, GenIx(0)), build_sum(bb, 1, GenIx(0))
    want = kleisli_map(df.dom(), bb, {
        GenIx(0): singleton(sym(bb), monomial([x1] * (k - 1) + [x2]), coeff)})
    return check_equal(df, want, bound)


def registry():
    """All laws, keyed by stable name, in a stable order."""
    laws = base_laws() + arrow_laws() + structure_laws()
    out = {}
    for law in laws:
        if law.name in out:
            raise ValueError(f"duplicate law name {law.name}")
        out[law.name] = law
    return out


def list_laws():
    return [(law.name, law.anchor) for law in registry().values()]
