"""Finitely supported exact-rational elements of a space.

Coefficients are exact rationals: an `int` when integral, a
`fractions.Fraction` otherwise; there is no floating point.  Zero
coefficients are never stored, so structural equality of elements is
semantic equality.  The zero of each space and each basis vector with
coefficient 1 are one shared `Element` each (`_SHARED`).  `element` and
`singleton` refuse a key that is not a basis vector of the space; the
evaluator's rules and the arithmetic here, whose keys are valid by
construction, build through the unchecked `_element` and `_singleton`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .spaces import (
    SpaceExpr, BasisVector, pair_layout, split_term, join_term, order_key, is_basis_vector,
)


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


_set_space, _set_coeffs = Element.space.__set__, Element.coeffs.__set__


def _new(space: SpaceExpr, coeffs: tuple) -> Element:
    """Element(space, coeffs), built by setting its two slots, which skips
    the frozen dataclass's __init__."""
    e = object.__new__(Element)
    _set_space(e, space)
    _set_coeffs(e, coeffs)
    return e


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
    (basis vector, coefficient) pairs, which are summed.  A key that is not a
    basis vector of space raises SpaceMismatchError."""
    if not isinstance(coeffs, dict):
        pairs, coeffs = coeffs, {}
        for bv, c in pairs:
            coeffs[bv] = coeffs.get(bv, 0) + _coeff(c)
    for bv in coeffs:
        _require_basis_vector(space, bv)
    return _element(space, coeffs)


def _require_basis_vector(space: SpaceExpr, bv) -> None:
    if not is_basis_vector(bv, space):
        raise SpaceMismatchError(f"{bv!r} is not a basis vector of {space!r}")


def _element(space: SpaceExpr, coeffs: dict) -> Element:
    """`element` from a {basis vector: coefficient} dict whose keys are basis
    vectors of space, unchecked: for callers whose keys come from elements of
    space or from its structure."""
    items = []
    for bv in sorted(coeffs, key=order_key):
        c = coeffs[bv]
        if type(c) is not int:
            c = _coeff(c)
        if c:
            items.append((bv, c))
    return _from_items(space, tuple(items))


#: The shared images, owned by this module: {space: {None: the zero of the
#: space, basis vector: that vector with coefficient 1}}.  Its keys are
#: interned nodes, which the intern table already keeps, so it holds at most
#: one entry per (space, basis vector) pair built; like the intern table it
#: lives as long as the process.
_SHARED = {}


def _from_items(space: SpaceExpr, items: tuple) -> Element:
    """The element with these coefficients, which must be strictly sorted by
    order key, nonzero and canonical; the shared object when it is zero or
    one basis vector with coefficient 1."""
    if len(items) > 1 or items and items[0][1] != 1:
        return _new(space, items)
    shared = _SHARED.get(space) or _SHARED.setdefault(space, {})
    key = items[0][0] if items else None
    return shared.get(key) or shared.setdefault(key, _new(space, items))


def zero_element(space: SpaceExpr) -> Element:
    return _from_items(space, ())


def singleton(space: SpaceExpr, bv: BasisVector, c=1) -> Element:
    """c times bv; a bv that is not a basis vector of space raises
    SpaceMismatchError."""
    _require_basis_vector(space, bv)
    c = _coeff(c)
    return _from_items(space, ((bv, c),) if c else ())


def _singleton(space: SpaceExpr, bv: BasisVector) -> Element:
    """bv with coefficient 1, unchecked, for a bv known to be a basis vector
    of space: the shared object."""
    return _from_items(space, ((bv, 1),))


def elem_add(a: Element, b: Element) -> Element:
    return elem_sum(a.space, (a, b))


def elem_scale(c, a: Element) -> Element:
    if type(c) is not int:
        c = _coeff(c)
    return _element(a.space, {bv: c * x for bv, x in a.coeffs})


def elem_sum(space: SpaceExpr, elems) -> Element:
    return elem_combination(space, ((1, e) for e in elems))


def elem_combination(space: SpaceExpr, pairs) -> Element:
    """The sum of c * e over the (c, e) pairs; each e must lie in space."""
    pairs = tuple(pairs)
    for _, e in pairs:
        if e.space != space:
            raise SpaceMismatchError(f"summand in {e.space!r}, expected {space!r}")
    return _combination(space, pairs)


def _combination(space: SpaceExpr, pairs) -> Element:
    """elem_combination for elements known to lie in space, unchecked: the
    sum accumulated in one dict."""
    out = {}
    for c, e in pairs:
        for bv, x in e.coeffs:
            old = out.get(bv)
            out[bv] = c * x if old is None else old + c * x
    return _element(space, out)


def elem_tensor(a: Element, b: Element) -> Element:
    """Bilinear tensor product, landing in the normalized tensor space."""
    return _tensor_with(pair_layout(a.space, b.space), a, b)


def _tensor_with(layout: tuple, a: Element, b: Element) -> Element:
    """elem_tensor, where layout is the pair layout of a's and b's spaces.
    Each side's terms are split into factor parts once, then every pair
    joined."""
    big, lab, _, branch, la, lb = layout
    left = [(split_term(bv, la), c) for bv, c in a.coeffs]
    right = [(split_term(bv, lb), c) for bv, c in b.coeffs]
    # Joining is injective, so no two pairs land on the same basis vector.
    return _element(big, {join_term(lab, branch[i][j], pa + pb): ca * cb
                          for (i, pa), ca in left for (j, pb), cb in right})
