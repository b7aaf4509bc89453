"""Tangent algebras (dual-number doubling) and the Kleisli differential.

Doubling an algebra A to A (+) A with multiplication
(a, b)(a', b') = (aa', ab' + a'b) is the algebra of tangent vectors;
derivations lift diagonally and still satisfy the chain rule.  On the
polynomial side, a Kleisli map e_i |-> f_i(x) differentiates to a map
into polynomials over two copies of the variables, recovering the usual
power and product rules with exact integer coefficients.

Run with:  python3 demos/04_tangent_and_kleisli.py
"""

from symalg import (
    base, sym, GenIx, MonIx, build_sum, singleton, elem_add, apply, apply_basis,
)
from symalg.derivations import formal_derivative, dual_numbers, rational_algebra
from symalg.tangent import (
    tangent_algebra, tangent_derivation, multiplication_table,
    kleisli_diff, monomial_power_map, xy_map,
)

# ----------------------------------------------------------------------
# The tangent algebra of the rationals is the dual numbers
# ----------------------------------------------------------------------
tan = tangent_algebra(rational_algebra())
print("tangent multiplication table:")
for row in multiplication_table(tan):
    print("  ", [str(e) for e in row])

# ----------------------------------------------------------------------
# Derivations lift to tangent algebras: D[eps](a + b eps) = Da + Db eps
# ----------------------------------------------------------------------
d = formal_derivative()
lift = tangent_derivation(d)
aa = lift.algebra.carrier
x2 = MonIx((GenIx(0),) * 2)
x3 = MonIx((GenIx(0),) * 3)
sample = elem_add(singleton(aa, build_sum(aa, 0, x2)),
                  singleton(aa, build_sum(aa, 1, x3)))
print("\nD[eps](x^2 + x^3 eps) =", apply(lift.d, sample))

# ----------------------------------------------------------------------
# Kleisli differentiation: power rule and product rule
# ----------------------------------------------------------------------
for k in (2, 3, 4):
    df = kleisli_diff(monomial_power_map(k))
    print(f"\nD[x^{k}] sends the generator to:", apply_basis(df, GenIx(0)))

df = kleisli_diff(xy_map())
print("\nD[x*y] sends the generator to:", apply_basis(df, GenIx(0)))
