"""Algebras, derivations, and the two structure dictionaries.

A derivation D on a commutative algebra A with values in a module M
satisfies D(1) = 0 and the Leibniz rule.  The package ships exact
translations in both directions:

  * chain-rule derivations  <->  algebra structures on the lifted monad
  * chain-rule derivations  <->  commutative monoids in the arrow category

and validates every diagram on construction, so an invalid structure
is rejected with the name of the first failing diagram and a concrete
counterexample basis vector.

Run with:  python3 demos/03_derivations_dictionaries.py
"""

from symalg import check_equal
from symalg.morphisms import InvalidStructureError
from symalg.derivations import (
    builtin_derivations, formal_derivative, dual_numbers,
    derivation_to_algebra, algebra_to_derivation,
    derivation_to_monoid, monoid_to_derivation, monoid_axioms, decide_all,
    table_algebra,
)
from symalg import base, GenIx, singleton, zero_element

# ----------------------------------------------------------------------
# Built-in derivations, all validated on construction
# ----------------------------------------------------------------------
for d in builtin_derivations():
    print("derivation:", d.algebra.name)

# ----------------------------------------------------------------------
# Derivation -> algebra -> derivation is the identity
# ----------------------------------------------------------------------
d = formal_derivative()
sba = derivation_to_algebra(d)
back = algebra_to_derivation(sba)
print("\nround trip through algebras:",
      check_equal(back.module.alpha, d.module.alpha, 2).ok)
print("round trip through derivations:",
      check_equal(derivation_to_algebra(back).nu1, sba.nu1, 2).ok)

# ----------------------------------------------------------------------
# Derivation -> monoid -> derivation is the identity
# ----------------------------------------------------------------------
mon = derivation_to_monoid(d)
verdicts = dict(decide_all(monoid_axioms(mon), 2))
m2 = verdicts.pop("monoid.m2-redundancy")
print("\nmonoid diagrams:", all(v.ok for v in verdicts.values()))
print("the mixed component is forced by symmetry:", m2.ok)
back = monoid_to_derivation(mon, d.algebra)
print("returns the original derivation:",
      check_equal(back.d, d.d, 2).ok)

# ----------------------------------------------------------------------
# Invalid structures are rejected with a diagram name and witness
# ----------------------------------------------------------------------
bad = base("bad", 2)
one = singleton(bad, GenIx(0))
eps = singleton(bad, GenIx(1))
try:
    table_algebra("bad", ((eps, eps), (eps, zero_element(bad))), one)
except InvalidStructureError as exc:
    print("\nrejected table:", exc.diagram,
          "witness =", exc.verdict.witness)
