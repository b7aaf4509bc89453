"""Exact element arithmetic: vector-space axioms, bilinearity and the
canonical coefficient types."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from symalg.spaces import (
    UNIT, base, sym, tensor, direct_sum, monomial, join_pair, enumerate_basis, GenIx,
)
from symalg.elements import (
    Element, SpaceMismatchError, element, zero_element, singleton,
    elem_add, elem_scale, elem_sum, elem_combination, elem_tensor,
)
from symalg.morphisms import linear_map_from_matrix
from symalg import elements

B2 = base("y", 2)
S2 = sym(B2)

monos = st.lists(st.integers(0, 1), max_size=3).map(
    lambda ix: monomial([GenIx(i) for i in ix]))
rationals = st.builds(Fraction, st.integers(-9, 9),
                      st.integers(1, 9))
elems = st.dictionaries(monos, rationals, max_size=4).map(
    lambda d: element(S2, d))
scalars = st.integers(-9, 9) | rationals
raw = st.dictionaries(monos, scalars, max_size=4)


class TestInvariants:
    def test_no_zero_coefficients_stored(self):
        e = element(S2, {monomial([GenIx(0)]): Fraction(0)})
        assert e.is_zero()
        assert e == zero_element(S2)

    def test_coeffs_sorted(self):
        a = monomial([GenIx(0)])
        b = monomial([GenIx(0), GenIx(1)])
        e = element(S2, {b: 1, a: 1})
        keys = [bv.key() for bv, _ in e.coeffs]
        assert keys == sorted(keys)

    def test_space_mismatch_raises(self):
        with pytest.raises(SpaceMismatchError):
            elem_add(singleton(S2, monomial([])), singleton(B2, GenIx(0)))

    def test_constructors_refuse_a_key_off_the_basis(self):
        before = {s: dict(images) for s, images in elements._SHARED.items()}
        with pytest.raises(SpaceMismatchError, match="not a basis vector"):
            singleton(B2, GenIx(5))
        with pytest.raises(SpaceMismatchError, match="not a basis vector"):
            element(B2, {GenIx(7): 3})
        with pytest.raises(SpaceMismatchError, match="not a basis vector"):
            element(S2, [(GenIx(0), 1)])  # a generator is not a monomial
        assert {s: dict(images) for s, images in elements._SHARED.items()} == before


class TestSharedImages:
    """A space's zero and each of its basis vectors with coefficient 1 are one
    shared Element each; elements with another coefficient or more terms are
    built anew."""

    def test_zero_is_one_object_per_space(self):
        x = monomial([GenIx(0)])
        zero = zero_element(S2)
        assert zero is zero_element(S2)
        assert element(S2, {}) is zero and element(S2, {x: 0}) is zero
        assert singleton(S2, x, 0) is zero
        assert elem_add(singleton(S2, x), singleton(S2, x, -1)) is zero
        assert elem_tensor(zero, singleton(S2, x)) is zero_element(tensor(S2, S2))
        assert zero_element(B2) is not zero and zero_element(B2) == Element(B2, ())

    def test_coefficient_one_singleton_is_shared(self):
        x = monomial([GenIx(0)])
        one = singleton(S2, x)
        assert singleton(S2, x, Fraction(2, 2)) is one
        assert element(S2, {x: 1}) is one and element(S2, [(x, 2), (x, -1)]) is one
        assert elem_scale(Fraction(1, 2), singleton(S2, x, 2)) is one
        assert elem_tensor(one, one) is singleton(tensor(S2, S2), join_pair(S2, x, S2, x))
        two = singleton(S2, x, 2)
        assert two is not singleton(S2, x, 2) and two == singleton(S2, x, 2)
        assert singleton(S2, x, -1) is not singleton(S2, x, -1)
        # == stays structural: a shared element equals a freshly made one.
        assert one == Element(S2, ((x, 1),)) and one is not Element(S2, ((x, 1),))


class TestVectorSpace:
    @given(elems, elems)
    def test_add_commutes(self, a, b):
        assert elem_add(a, b) == elem_add(b, a)

    @given(elems, elems, elems)
    def test_add_associates(self, a, b, c):
        assert elem_add(elem_add(a, b), c) == elem_add(a, elem_add(b, c))

    @given(elems)
    def test_zero_is_neutral(self, a):
        assert elem_add(a, zero_element(S2)) == a

    @given(elems)
    def test_scale_by_minus_one_cancels(self, a):
        assert elem_add(a, elem_scale(-1, a)) == zero_element(S2)

    @given(elems, rationals, rationals)
    def test_scale_distributes(self, a, c, d):
        assert (elem_scale(c + d, a)
                == elem_add(elem_scale(c, a), elem_scale(d, a)))


class TestTensor:
    @given(elems, elems, elems)
    def test_bilinear_left(self, a, b, c):
        lhs = elem_tensor(elem_add(a, b), c)
        rhs = elem_add(elem_tensor(a, c), elem_tensor(b, c))
        assert lhs == rhs

    @given(elems, elems, rationals)
    def test_scalars_slide_across(self, a, b, c):
        assert (elem_tensor(elem_scale(c, a), b)
                == elem_scale(c, elem_tensor(a, b)))

    def test_lands_in_normalized_space(self):
        e = elem_tensor(singleton(S2, monomial([])), singleton(S2, monomial([])))
        assert e.space == tensor(S2, S2)


def _reference(pairs) -> dict:
    """The sum of (basis vector, coefficient) pairs on Fractions only, zeros dropped."""
    out = {}
    for bv, c in pairs:
        out[bv] = out.get(bv, Fraction(0)) + Fraction(c)
    return {bv: c for bv, c in out.items() if c}


def _scaled(c, d: dict) -> list:
    return [(bv, Fraction(c) * Fraction(x)) for bv, x in d.items()]


def _check(e: Element, want: dict) -> None:
    assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for _, c in e.coeffs)
    assert dict(e.coeffs) == want


class TestCoefficients:
    """Stored coefficients are ints when integral and Fractions otherwise."""

    @given(raw, raw, scalars, scalars)
    def test_canonical_and_exact(self, d1, d2, c1, c2):
        p1, p2 = list(d1.items()), list(d2.items())
        a, b = element(S2, d1), element(S2, p2)
        _check(a, _reference(p1))
        _check(b, _reference(p2))
        _check(element(S2, p1 + p2), _reference(p1 + p2))
        _check(elem_add(a, b), _reference(p1 + p2))
        _check(elem_sum(S2, (a, b, a)), _reference(p1 + p2 + p1))
        _check(elem_scale(c1, a), _reference(_scaled(c1, d1)))
        _check(elem_combination(S2, ((c1, a), (c2, b))),
               _reference(_scaled(c1, d1) + _scaled(c2, d2)))
        _check(elem_tensor(a, b),
               _reference((join_pair(S2, p, S2, q), Fraction(x) * Fraction(y))
                          for p, x in p1 for q, y in p2))

    def test_integral_results_are_stored_as_int(self):
        x = monomial([GenIx(0)])
        half = elem_scale(Fraction(1, 2), singleton(S2, x, 2))
        assert half.coeffs == ((x, 1),) and type(half.coeffs[0][1]) is int
        f = linear_map_from_matrix(B2, B2, [[Fraction(3, 1), Fraction(1, 2)],
                                            [0, Fraction(5, 7)]])
        (_, col), _ = f.images
        assert col.coeffs == ((GenIx(0), 3),) and type(col.coeffs[0][1]) is int

    @pytest.mark.parametrize("c", [1, -3, Fraction(4, 2), Fraction(1, 3), 0])
    def test_singleton_equals_element(self, c):
        x = monomial([GenIx(0)])
        e, want = singleton(S2, x, c), element(S2, {x: c})
        # An int and an integral Fraction compare equal: compare types too.
        assert [(bv, k, type(k)) for bv, k in e.coeffs] == \
            [(bv, k, type(k)) for bv, k in want.coeffs]

    @pytest.mark.parametrize("c", [0.1, 1.0, True, "1/2", Decimal("0.1")],
                             ids=["float", "integral-float", "bool", "str", "decimal"])
    def test_only_int_and_fraction_are_coefficients(self, c):
        x = monomial([GenIx(0)])
        with pytest.raises(TypeError):
            element(S2, {x: c})
        with pytest.raises(TypeError):
            element(S2, [(x, c)])
        with pytest.raises(TypeError):
            singleton(S2, x, c)
        with pytest.raises(TypeError):
            elem_scale(c, singleton(S2, x))
        with pytest.raises(TypeError):
            linear_map_from_matrix(B2, B2, [[c, 0], [0, 1]])


#: Spaces of mixed weight: sums, tensors and Sym layers, nested.
MIXED = (B2, S2, direct_sum(UNIT, B2), direct_sum(B2, S2), tensor(B2, S2),
         sym(direct_sum(UNIT, B2)), tensor(direct_sum(UNIT, S2), B2))
nonzero = st.integers(-3, 3).filter(bool) | rationals.filter(bool)


@st.composite
def mixed_elements(draw, max_size):
    space = draw(st.sampled_from(MIXED))
    basis = enumerate_basis(space, 2)
    return element(space, draw(st.dictionaries(st.sampled_from(basis), nonzero,
                                                min_size=1, max_size=max_size)))


class TestTensorOneTermSide:
    """elem_tensor of a one-term and a many-term element, either way round."""

    @given(mixed_elements(1), mixed_elements(5))
    def test_matches_the_sorted_reference(self, one, many):
        for a, b in ((one, many), (many, one)):
            pairs = [(join_pair(a.space, p, b.space, q), Fraction(x) * Fraction(y))
                     for p, x in a.coeffs for q, y in b.coeffs]
            got = elem_tensor(a, b)
            assert got.space == tensor(a.space, b.space)
            assert got.coeffs == element(got.space, dict(pairs)).coeffs  # same order
            _check(got, _reference(pairs))

    def test_integral_product_of_fractions_is_an_int(self):
        x = monomial([GenIx(0)])
        half = singleton(S2, x, Fraction(1, 2))
        two = elem_add(singleton(B2, GenIx(0), 2), singleton(B2, GenIx(1), 4))
        got = elem_tensor(half, two)
        assert [c for _, c in got.coeffs] == [1, 2]
        assert all(type(c) is int for _, c in got.coeffs)
