"""The arrow category: lifted monad, box monoidal product, lifted modality.

An object is its map phi: A0 -> A1 of the base category, a plain MorExpr
whose dom() and cod() are A0 and A1.  A morphism is its two components
(f0, f1); commuting_square(src, dst, m) names the two maps it relates.
The lifted functor sends phi to (1 (x) phi) . d, its monad structure is
built from the chain rule, and the box product is the pushout product over
the zero object.  All arrow-level laws are pairs of base-level diagram
checks, one per component.

Constructions that read only spaces take them, (A0, A1) or (A0, A1, B0,
B1); sbar_spaces and box_spaces give a lifted object's spaces.  Block maps
between biproducts are Matrix nodes, whose entries fix their blocks.  A
component whose spaces do not fit raises EndpointMismatchError from the
node or check that reads it; InvalidStructureError with the diagram
"arrow.square" means a square that does not commute.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spaces import UNIT, ZERO, SpaceExpr, tensor, direct_sum, sym
from .morphisms import (
    MorExpr, Id, Compose, TensorM, Add, ZeroM, Sigma,
    Matrix, SymF, Eta, Mu, Mult, UnitM, Deriv, Chi, ChiInv,
    InvalidStructureError, check_equal, compose, sum_map, inj, proj,
)

#: Weight bound at which constructions validate their defining equations:
#: commuting squares here, structure axioms in derivations.py.
VALIDATE_BOUND = 2


@dataclass(frozen=True)
class ArrowMor:
    """Its two components, f0: A0 -> B0 and f1: A1 -> B1.  It is a morphism
    src -> dst when commuting_square(src, dst, m) holds; only arrow_mor checks."""

    f0: MorExpr
    f1: MorExpr


def arrow_mor(src: MorExpr, dst: MorExpr, f0: MorExpr, f1: MorExpr) -> ArrowMor:
    """Build an arrow morphism, validating the commuting square; a component
    whose spaces do not fit is rejected by the square's nodes or check."""
    m = ArrowMor(f0, f1)
    v = check_equal(*commuting_square(src, dst, m), VALIDATE_BOUND)
    if not v.ok:
        raise InvalidStructureError("arrow.square", v)
    return m


def commuting_square(src: MorExpr, dst: MorExpr, m: ArrowMor):
    """The equation making m an arrow morphism src -> dst: f1 . src = dst . f0."""
    return Compose(m.f1, src), Compose(dst, m.f0)


def id_arrow(a0: SpaceExpr, a1: SpaceExpr) -> ArrowMor:
    return ArrowMor(Id(a0), Id(a1))


def zero_arrow(a0: SpaceExpr, a1: SpaceExpr, b0: SpaceExpr, b1: SpaceExpr) -> ArrowMor:
    return ArrowMor(ZeroM(a0, b0), ZeroM(a1, b1))


def compose_arrow(m2: ArrowMor, m1: ArrowMor) -> ArrowMor:
    """m2 after m1, componentwise; Compose rejects mismatched middle spaces."""
    return ArrowMor(Compose(m2.f0, m1.f0), Compose(m2.f1, m1.f1))


def add_arrow(m: ArrowMor, n: ArrowMor) -> ArrowMor:
    return ArrowMor(Add(m.f0, n.f0), Add(m.f1, n.f1))


def _components(lhs, rhs) -> tuple:
    """The map equations of lhs = rhs: f0's then f1's for arrow morphisms."""
    return ((lhs.f0, rhs.f0), (lhs.f1, rhs.f1)) if isinstance(lhs, ArrowMor) else ((lhs, rhs),)


def arrow_check(lhs: ArrowMor, rhs: ArrowMor, weight_bound: int):
    """Check an arrow-level equation componentwise."""
    return tuple(check_equal(l, r, weight_bound) for l, r in _components(lhs, rhs))


# ---------------------------------------------------------------------------
# The lifted monad
# ---------------------------------------------------------------------------

def sbar_spaces(a0: SpaceExpr, a1: SpaceExpr):
    """The spaces of sbar_obj(phi) for phi: A0 -> A1: S(A0) and S(A0) (x) A1."""
    return sym(a0), tensor(sym(a0), a1)


def sbar_obj(o: MorExpr) -> MorExpr:
    """S(A0) --d--> S(A0) (x) A0 --1 (x) phi--> S(A0) (x) A1."""
    a0 = o.dom()
    return compose(Deriv(a0), TensorM(Id(sym(a0)), o))


def sbar_mor(m: ArrowMor) -> ArrowMor:
    return ArrowMor(SymF(m.f0), TensorM(SymF(m.f0), m.f1))


def etabar(o: MorExpr) -> ArrowMor:
    a0, a1 = o.dom(), o.cod()
    return arrow_mor(o, sbar_obj(o), Eta(a0), TensorM(UnitM(a0), Id(a1)))


def mubar(o: MorExpr) -> ArrowMor:
    """Monad multiplication; the second component substitutes then multiplies."""
    a0, a1 = o.dom(), o.cod()
    f1 = compose(TensorM(Mu(a0), Id(sbar_spaces(a0, a1)[1])), TensorM(Mult(a0), Id(a1)))
    return arrow_mor(sbar_obj(sbar_obj(o)), sbar_obj(o), Mu(a0), f1)


# ---------------------------------------------------------------------------
# Box monoidal product
# ---------------------------------------------------------------------------

def boxtimes_unit() -> MorExpr:
    return ZeroM(UNIT, ZERO)


def _box_blocks(a0: SpaceExpr, a1: SpaceExpr, b0: SpaceExpr, b1: SpaceExpr):
    """The two summands of the box product's second space: A0 (x) B1, A1 (x) B0."""
    return (tensor(a0, b1), tensor(a1, b0))


def box_spaces(a0: SpaceExpr, a1: SpaceExpr, b0: SpaceExpr, b1: SpaceExpr):
    """The spaces of boxtimes_obj(p, q): A0 (x) B0 and (A0 (x) B1) (+) (A1 (x) B0)."""
    return tensor(a0, b0), direct_sum(*_box_blocks(a0, a1, b0, b1))


def boxtimes_obj(p: MorExpr, q: MorExpr) -> MorExpr:
    return Matrix(((TensorM(Id(p.dom()), q),),
                   (TensorM(p, Id(q.dom())),)))


def boxtimes_mor(m: ArrowMor, n: ArrowMor) -> ArrowMor:
    return ArrowMor(TensorM(m.f0, n.f0), sum_map(_box_block(m.f0, n.f1), _box_block(m.f1, n.f0)))


def _box_block(f: MorExpr, g: MorExpr) -> MorExpr:
    """f (x) g as a block of a box product; a ZeroM when its domain is ZERO,
    where no basis vector reaches it."""
    dom = tensor(f.dom(), g.dom())
    return ZeroM(dom, tensor(f.cod(), g.cod())) if dom is ZERO else TensorM(f, g)


def boxtimes_sigma(a0: SpaceExpr, a1: SpaceExpr, b0: SpaceExpr, b1: SpaceExpr) -> ArrowMor:
    """The symmetry p (x) q -> q (x) p for any p: A0 -> A1 and q: B0 -> B1."""
    s, t = Sigma(a1, b0), Sigma(a0, b1)
    f1 = Matrix(((ZeroM(t.dom(), s.cod()), s),
                 (t, ZeroM(s.dom(), t.cod()))))
    return ArrowMor(Sigma(a0, b0), f1)


# ---------------------------------------------------------------------------
# The lifted algebra modality and deriving transformation
# ---------------------------------------------------------------------------

def mbar(a0: SpaceExpr, a1: SpaceExpr) -> ArrowMor:
    sa = sym(a0)
    entry1 = TensorM(Mult(a0), Id(a1))
    entry2 = Compose(entry1, TensorM(Id(sa), Sigma(a1, sa)))
    return ArrowMor(Mult(a0), Matrix(((entry1, entry2),)))


def ubar(a0: SpaceExpr, a1: SpaceExpr) -> ArrowMor:
    return ArrowMor(UnitM(a0), ZeroM(ZERO, sbar_spaces(a0, a1)[1]))


def dbar(a0: SpaceExpr, a1: SpaceExpr) -> ArrowMor:
    """Deriving transformation on the arrow category."""
    sa, sa1 = sbar_spaces(a0, a1)
    row2 = Compose(TensorM(Id(sa), Sigma(a0, a1)),
                   TensorM(Deriv(a0), Id(a1)))
    return ArrowMor(Deriv(a0), Matrix(((Id(sa1),), (row2,))))


# ---------------------------------------------------------------------------
# Arrow-level Seely maps
# ---------------------------------------------------------------------------

def arrow_seely(a0: SpaceExpr, a1: SpaceExpr, b0: SpaceExpr, b1: SpaceExpr) -> ArrowMor:
    entry1 = TensorM(Chi(a0, b0), inj(1, (a1, b1)))
    entry2 = Compose(TensorM(Chi(a0, b0), inj(0, (a1, b1))),
                     TensorM(Id(sym(a0)), Sigma(a1, sym(b0))))
    return ArrowMor(Chi(a0, b0), Matrix(((entry1, entry2),)))


def arrow_seely_inv(a0: SpaceExpr, a1: SpaceExpr, b0: SpaceExpr, b1: SpaceExpr) -> ArrowMor:
    sa, sa1 = sbar_spaces(a0, a1)
    sb, sb1 = sbar_spaces(b0, b1)
    blocks = _box_blocks(sa, sa1, sb, sb1)
    sab = sym(direct_sum(a0, b0))
    g1 = compose(TensorM(Id(sab), proj(1, (a1, b1))),
                 TensorM(ChiInv(a0, b0), Id(b1)),
                 inj(0, blocks))
    g2 = compose(TensorM(Id(sab), proj(0, (a1, b1))),
                 TensorM(ChiInv(a0, b0), Id(a1)),
                 TensorM(Id(sa), Sigma(sb, a1)),
                 inj(1, blocks))
    return ArrowMor(ChiInv(a0, b0), Add(g1, g2))


def arrow_seely0() -> ArrowMor:
    return ArrowMor(UnitM(ZERO), ZeroM(ZERO, ZERO))
