"""Finitely supported exact-rational elements of a space.

Coefficients are exact rationals: an `int` when integral, a
`fractions.Fraction` otherwise; there is no floating point.  Zero
coefficients are never stored, so structural equality of elements is
semantic equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .spaces import SpaceExpr, BasisVector, join_pair, tensor, order_key


class SpaceMismatchError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Element:
    space: SpaceExpr
    # sorted ((BasisVector, c), ...), no zeros; c is an exact rational:
    # an int when integral, a Fraction otherwise, never a float
    coeffs: tuple

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "Element(0)"
        body = " + ".join(f"{c}*{bv}" for bv, c in self.coeffs)
        return f"Element({body})"


def _coeff(c):
    """c as a canonical exact rational: an int when integral, else a Fraction.
    Any other type, float, bool, str or Decimal, raises TypeError."""
    if type(c) is Fraction:
        return c.numerator if c.denominator == 1 else c
    if type(c) is int:
        return c
    raise TypeError(f"coefficients must be int or Fraction, got {type(c).__name__} {c!r}")


def element(space: SpaceExpr, coeffs) -> Element:
    """Build an element from a {basis vector: coefficient} mapping or from
    (basis vector, coefficient) pairs, which are summed."""
    if not isinstance(coeffs, dict):
        pairs, coeffs = coeffs, {}
        for bv, c in pairs:
            coeffs[bv] = coeffs.get(bv, 0) + _coeff(c)
    items = []
    for bv in sorted(coeffs, key=order_key):
        c = coeffs[bv]
        if type(c) is not int:
            c = _coeff(c)
        if c:
            items.append((bv, c))
    return Element(space, tuple(items))


def zero_element(space: SpaceExpr) -> Element:
    return Element(space, ())


def singleton(space: SpaceExpr, bv: BasisVector, c=1) -> Element:
    c = _coeff(c)
    return Element(space, ((bv, c),) if c else ())


def elem_add(a: Element, b: Element) -> Element:
    return elem_sum(a.space, (a, b))


def elem_scale(c, a: Element) -> Element:
    if type(c) is not int:
        c = _coeff(c)
    return element(a.space, {bv: c * x for bv, x in a.coeffs})


def elem_sum(space: SpaceExpr, elems) -> Element:
    return elem_combination(space, ((1, e) for e in elems))


def elem_combination(space: SpaceExpr, pairs) -> Element:
    """The sum of c * e over the (c, e) pairs, accumulated in one dict."""
    out = {}
    for c, e in pairs:
        if e.space != space:
            raise SpaceMismatchError(f"summand in {e.space!r}, expected {space!r}")
        for bv, x in e.coeffs:
            old = out.get(bv)
            out[bv] = c * x if old is None else old + c * x
    return element(space, out)


def elem_tensor(a: Element, b: Element) -> Element:
    """Bilinear tensor product, landing in the normalized tensor space."""
    # join_pair is injective, so no two pairs land on the same basis vector.
    return element(tensor(a.space, b.space),
                   {join_pair(a.space, bva, b.space, bvb): ca * cb
                    for bva, ca in a.coeffs for bvb, cb in b.coeffs})
