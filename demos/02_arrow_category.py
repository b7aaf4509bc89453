"""The category of linear maps, and the lifted symmetric-algebra monad.

Objects are linear maps phi : A0 -> A1; morphisms are commuting squares.
The lift sends phi to (1 (x) phi) o d : S(A0) -> S(A0) (x) A1, i.e. a
polynomial together with its phi-twisted derivative.  The lifted unit,
multiplication, and differential make the lift a differential modality
on this category.

Run with:  python3 demos/02_arrow_category.py
"""

from symalg import base, sym, tensor, GenIx, MonIx, TensorIx
from symalg import Id, apply_basis, linear_map_from_matrix
from symalg.arrow import (
    arrow_mor, id_arrow, compose_arrow, arrow_check,
    sbar_spaces, sbar_obj, sbar_mor, etabar, mubar, dbar,
    boxtimes_mor, boxtimes_sigma,
)

B1 = base("x", 1)
B2 = base("y", 2)

# ----------------------------------------------------------------------
# Objects are linear maps; the lift differentiates through them
# ----------------------------------------------------------------------
o = Id(B1)
lifted = sbar_obj(o)
x = GenIx(0)
print("lift of id on x, applied to x^2:",
      apply_basis(lifted, MonIx((x, x))))

swap = linear_map_from_matrix(B2, B2, ((0, 1), (1, 0)))
print("lift of the swap map has domain", sbar_obj(swap).dom())

# ----------------------------------------------------------------------
# Morphisms are validated commuting squares
# ----------------------------------------------------------------------
double = linear_map_from_matrix(B2, B2, ((2, 0), (0, 2)))
sq = arrow_mor(swap, swap, double, double)
print("\nscaling commutes with swap:", sq is not None)

# ----------------------------------------------------------------------
# Monad laws, checked exhaustively on both components
# ----------------------------------------------------------------------
for name, lhs, rhs in [
    ("left unit ", compose_arrow(mubar(o), etabar(lifted)), id_arrow(*sbar_spaces(B1, B1))),
    ("right unit", compose_arrow(mubar(o), sbar_mor(etabar(o))),
     id_arrow(*sbar_spaces(B1, B1))),
]:
    v0, v1 = arrow_check(lhs, rhs, 2)
    print(name, "holds on both components:", v0.ok and v1.ok,
          f"({v0.tested_count}+{v1.tested_count} basis vectors)")

# ----------------------------------------------------------------------
# The lifted differential and its interchange law
# ----------------------------------------------------------------------
d = dbar(B1, B1)
inner = compose_arrow(boxtimes_mor(d, id_arrow(B1, B1)), d)
twisted = compose_arrow(
    boxtimes_mor(id_arrow(*sbar_spaces(B1, B1)), boxtimes_sigma(B1, B1, B1, B1)), inner)
v0, v1 = arrow_check(twisted, inner, 2)
print("\nsecond derivatives commute:", v0.ok and v1.ok)
