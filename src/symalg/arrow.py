"""The arrow category: lifted monad, box monoidal product, lifted modality.

Objects are maps phi: A0 -> A1 of the base category; morphisms are
commuting squares (f0, f1).  The lifted functor sends phi to
(1 (x) phi) . d, its monad structure is built from the chain rule, and the
box product is the pushout product over the zero object.  All arrow-level
laws are pairs of base-level diagram checks, one per component.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spaces import UNIT, ZERO, SpaceExpr, tensor, direct_sum, sym
from .morphisms import (
    MorExpr, Id, Compose, TensorM, Add, ZeroM, Sigma,
    Matrix, SymF, Eta, Mu, Mult, UnitM, Deriv, Chi, ChiInv,
    check_equal, compose, sum_map, inj, proj,
)

#: Weight bound at which constructions validate their defining equations:
#: commuting squares here, structure axioms in derivations.py.
VALIDATE_BOUND = 2


class InvalidArrowError(ValueError):
    def __init__(self, message, verdict=None):
        super().__init__(message)
        self.verdict = verdict


@dataclass(frozen=True)
class ArrowObj:
    phi: MorExpr

    @property
    def a0(self) -> SpaceExpr:
        return self.phi.dom()

    @property
    def a1(self) -> SpaceExpr:
        return self.phi.cod()


@dataclass(frozen=True)
class ArrowMor:
    src: ArrowObj
    dst: ArrowObj
    f0: MorExpr
    f1: MorExpr


def arrow_mor(src: ArrowObj, dst: ArrowObj, f0: MorExpr, f1: MorExpr) -> ArrowMor:
    """Build an arrow morphism, validating the commuting square."""
    if f0.dom() != src.a0 or f0.cod() != dst.a0:
        raise InvalidArrowError("f0 endpoints do not match the arrow objects")
    if f1.dom() != src.a1 or f1.cod() != dst.a1:
        raise InvalidArrowError("f1 endpoints do not match the arrow objects")
    m = ArrowMor(src, dst, f0, f1)
    v = check_equal(*commuting_square(m), VALIDATE_BOUND)
    if not v.ok:
        raise InvalidArrowError(f"square does not commute at {v.witness}", v)
    return m


def commuting_square(m: ArrowMor):
    """The equation making m an arrow morphism: f1 . src.phi = dst.phi . f0."""
    return Compose(m.f1, m.src.phi), Compose(m.dst.phi, m.f0)


def id_arrow(o: ArrowObj) -> ArrowMor:
    return ArrowMor(o, o, Id(o.a0), Id(o.a1))


def zero_arrow(src: ArrowObj, dst: ArrowObj) -> ArrowMor:
    return ArrowMor(src, dst, ZeroM(src.a0, dst.a0), ZeroM(src.a1, dst.a1))


def compose_arrow(m2: ArrowMor, m1: ArrowMor) -> ArrowMor:
    """m2 after m1.  Middle objects must agree at the space level."""
    if (m1.dst.a0, m1.dst.a1) != (m2.src.a0, m2.src.a1):
        raise InvalidArrowError("arrow composition endpoint mismatch")
    return ArrowMor(m1.src, m2.dst, Compose(m2.f0, m1.f0), Compose(m2.f1, m1.f1))


def add_arrow(m: ArrowMor, n: ArrowMor) -> ArrowMor:
    if (m.src.a0, m.src.a1, m.dst.a0, m.dst.a1) != (n.src.a0, n.src.a1, n.dst.a0, n.dst.a1):
        raise InvalidArrowError("arrow sum endpoint mismatch")
    return ArrowMor(m.src, m.dst, Add(m.f0, n.f0), Add(m.f1, n.f1))


def arrow_check(lhs: ArrowMor, rhs: ArrowMor, weight_bound: int):
    """Check an arrow-level equation componentwise."""
    if (lhs.src.a0, lhs.src.a1) != (rhs.src.a0, rhs.src.a1):
        raise InvalidArrowError("arrow check source mismatch")
    if (lhs.dst.a0, lhs.dst.a1) != (rhs.dst.a0, rhs.dst.a1):
        raise InvalidArrowError("arrow check target mismatch")
    return (check_equal(lhs.f0, rhs.f0, weight_bound),
            check_equal(lhs.f1, rhs.f1, weight_bound))


# ---------------------------------------------------------------------------
# Pointwise biproduct structure
# ---------------------------------------------------------------------------

def sum_obj(p: ArrowObj, q: ArrowObj) -> ArrowObj:
    return ArrowObj(sum_map(p.phi, q.phi))


def zero_obj() -> ArrowObj:
    return ArrowObj(ZeroM(ZERO, ZERO))


# ---------------------------------------------------------------------------
# The lifted monad
# ---------------------------------------------------------------------------

def sbar_obj(o: ArrowObj) -> ArrowObj:
    """S(A0) --d--> S(A0) (x) A0 --1 (x) phi--> S(A0) (x) A1."""
    a0 = o.a0
    return ArrowObj(compose(Deriv(a0), TensorM(Id(sym(a0)), o.phi)))


def sbar_mor(m: ArrowMor) -> ArrowMor:
    return ArrowMor(sbar_obj(m.src), sbar_obj(m.dst),
                    SymF(m.f0), TensorM(SymF(m.f0), m.f1))


def etabar(o: ArrowObj) -> ArrowMor:
    a0, a1 = o.a0, o.a1
    return arrow_mor(o, sbar_obj(o), Eta(a0), TensorM(UnitM(a0), Id(a1)))


def mubar(o: ArrowObj) -> ArrowMor:
    """Monad multiplication; the second component substitutes then multiplies."""
    a0, a1 = o.a0, o.a1
    sa = sym(a0)
    f0 = Mu(a0)
    sub = TensorM(Mu(a0), Id(tensor(sa, a1)))  # SS (x) S (x) A1 -> S (x) S (x) A1
    f1 = Compose(TensorM(Mult(a0), Id(a1)), sub)
    src = sbar_obj(sbar_obj(o))
    return arrow_mor(src, sbar_obj(o), f0, f1)


# ---------------------------------------------------------------------------
# Box monoidal product
# ---------------------------------------------------------------------------

def boxtimes_unit() -> ArrowObj:
    return ArrowObj(ZeroM(UNIT, ZERO))


def _box_blocks(p: ArrowObj, q: ArrowObj):
    return (tensor(p.a0, q.a1), tensor(p.a1, q.a0))


def boxtimes_obj(p: ArrowObj, q: ArrowObj) -> ArrowObj:
    blocks = _box_blocks(p, q)
    col = Matrix(
        entries=((TensorM(Id(p.a0), q.phi),),
                 (TensorM(p.phi, Id(q.a0)),)),
        dom_blocks=(tensor(p.a0, q.a0),),
        cod_blocks=blocks,
    )
    return ArrowObj(col)


def boxtimes_mor(m: ArrowMor, n: ArrowMor) -> ArrowMor:
    src = boxtimes_obj(m.src, n.src)
    dst = boxtimes_obj(m.dst, n.dst)
    sb = _box_blocks(m.src, n.src)
    db = _box_blocks(m.dst, n.dst)
    f1 = Matrix(
        entries=((TensorM(m.f0, n.f1), ZeroM(sb[1], db[0])),
                 (ZeroM(sb[0], db[1]), TensorM(m.f1, n.f0))),
        dom_blocks=sb,
        cod_blocks=db,
    )
    return ArrowMor(src, dst, TensorM(m.f0, n.f0), f1)


def boxtimes_sigma(p: ArrowObj, q: ArrowObj) -> ArrowMor:
    src = boxtimes_obj(p, q)
    dst = boxtimes_obj(q, p)
    sb = _box_blocks(p, q)
    db = _box_blocks(q, p)
    f1 = Matrix(
        entries=((ZeroM(sb[0], db[0]), Sigma(p.a1, q.a0)),
                 (Sigma(p.a0, q.a1), ZeroM(sb[1], db[1]))),
        dom_blocks=sb,
        cod_blocks=db,
    )
    return ArrowMor(src, dst, Sigma(p.a0, q.a0), f1)


# ---------------------------------------------------------------------------
# The lifted algebra modality and deriving transformation
# ---------------------------------------------------------------------------

def mbar(o: ArrowObj) -> ArrowMor:
    a0, a1 = o.a0, o.a1
    sa = sym(a0)
    sb = sbar_obj(o)
    src = boxtimes_obj(sb, sb)
    blocks = _box_blocks(sb, sb)  # (S (x) S (x) A1, S (x) A1 (x) S)
    entry1 = TensorM(Mult(a0), Id(a1))
    entry2 = Compose(TensorM(Mult(a0), Id(a1)),
                     TensorM(Id(sa), Sigma(a1, sa)))
    f1 = Matrix(entries=((entry1, entry2),),
                dom_blocks=blocks,
                cod_blocks=(tensor(sa, a1),))
    return ArrowMor(src, sb, Mult(a0), f1)


def ubar(o: ArrowObj) -> ArrowMor:
    sb = sbar_obj(o)
    return ArrowMor(boxtimes_unit(), sb,
                    UnitM(o.a0), ZeroM(ZERO, tensor(sym(o.a0), o.a1)))


def dbar(o: ArrowObj) -> ArrowMor:
    """Deriving transformation on the arrow category."""
    a0, a1 = o.a0, o.a1
    sa = sym(a0)
    sb = sbar_obj(o)
    dst = boxtimes_obj(sb, o)
    blocks = _box_blocks(sb, o)  # (S (x) A1, S (x) A1 (x) A0)
    row1 = Id(tensor(sa, a1))
    row2 = Compose(TensorM(Id(sa), Sigma(a0, a1)),
                   TensorM(Deriv(a0), Id(a1)))
    f1 = Matrix(entries=((row1,), (row2,)),
                dom_blocks=(tensor(sa, a1),),
                cod_blocks=blocks)
    return ArrowMor(sb, dst, Deriv(a0), f1)


# ---------------------------------------------------------------------------
# Arrow-level Seely maps
# ---------------------------------------------------------------------------

def arrow_seely(p: ArrowObj, q: ArrowObj) -> ArrowMor:
    a0, a1, b0, b1 = p.a0, p.a1, q.a0, q.a1
    sp, sq = sbar_obj(p), sbar_obj(q)
    src = boxtimes_obj(sp, sq)
    dst = sbar_obj(sum_obj(p, q))
    blocks = _box_blocks(sp, sq)
    entry1 = TensorM(Chi(a0, b0), inj(1, (a1, b1)))
    entry2 = Compose(TensorM(Chi(a0, b0), inj(0, (a1, b1))),
                     TensorM(Id(sym(a0)), Sigma(a1, sym(b0))))
    f1 = Matrix(entries=((entry1, entry2),),
                dom_blocks=blocks,
                cod_blocks=(tensor(sym(direct_sum(a0, b0)), direct_sum(a1, b1)),))
    return ArrowMor(src, dst, Chi(a0, b0), f1)


def arrow_seely_inv(p: ArrowObj, q: ArrowObj) -> ArrowMor:
    a0, a1, b0, b1 = p.a0, p.a1, q.a0, q.a1
    sp, sq = sbar_obj(p), sbar_obj(q)
    src = sbar_obj(sum_obj(p, q))
    dst = boxtimes_obj(sp, sq)
    blocks = _box_blocks(sp, sq)
    sab = sym(direct_sum(a0, b0))
    g1 = compose(TensorM(Id(sab), proj(1, (a1, b1))),
                 TensorM(ChiInv(a0, b0), Id(b1)),
                 inj(0, blocks))
    g2 = compose(TensorM(Id(sab), proj(0, (a1, b1))),
                 TensorM(ChiInv(a0, b0), Id(a1)),
                 TensorM(Id(sym(a0)), Sigma(sym(b0), a1)),
                 inj(1, blocks))
    return ArrowMor(src, dst, ChiInv(a0, b0), Add(g1, g2))


def arrow_seely0() -> ArrowMor:
    dst = sbar_obj(zero_obj())
    return ArrowMor(boxtimes_unit(), dst, UnitM(ZERO), ZeroM(ZERO, ZERO))
