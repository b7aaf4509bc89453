"""Semantics of the symmetric-algebra operations, cross-checked against an
independent symbolic oracle (sympy polynomials)."""

from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from symalg.spaces import (
    base, sym, tensor, direct_sum, monomial, enumerate_basis,
    GenIx, MonIx, SumIx, TensorIx, split_pair, decompose_sum,
)
from symalg.elements import singleton, element
from symalg.morphisms import (
    Id, TensorM, SymF, Eta, Mu, Mult, UnitM, Deriv, Chi, ChiInv,
    Chi0Inv, apply, apply_basis, check_equal, compose,
    linear_map_from_matrix,
)

B1 = base("x", 1)
B2 = base("y", 2)

XS = sympy.symbols("x0 x1 x2")
YS = sympy.symbols("y0 y1 y2")


def mono_expr(mono: MonIx, syms=XS):
    out = sympy.Integer(1)
    for g in mono.parts:
        out *= syms[g.index]
    return out


def sym_elem_expr(e, syms=XS):
    """Element of S(A) as a sympy polynomial."""
    out = sympy.Integer(0)
    for bv, c in e.coeffs:
        out += sympy.Rational(c.numerator, c.denominator) * mono_expr(bv, syms)
    return sympy.expand(out)


def deriv_elem_expr(e, space, n):
    """Element of S(A) (x) A as sum_i p_i * t_i with fresh right symbols."""
    ts = sympy.symbols(f"t0:{n}")
    out = sympy.Integer(0)
    sa = sym(base_space_of(space))
    for bv, c in e.coeffs:
        m, g = split_pair(bv, space.factors[0], space.factors[1])
        out += (sympy.Rational(c.numerator, c.denominator)
                * mono_expr(m) * ts[g.index])
    return sympy.expand(out), ts


def base_space_of(t):
    return t.factors[1]


monos1 = st.lists(st.just(0), max_size=4).map(
    lambda ix: monomial([GenIx(i) for i in ix]))
monos2 = st.lists(st.integers(0, 1), max_size=4).map(
    lambda ix: monomial([GenIx(i) for i in ix]))


class TestDeriv:
    def test_constant_has_zero_derivative(self):
        assert apply_basis(Deriv(B2), MonIx(())).is_zero()

    def test_square_gets_multiplicity_two(self):
        x = GenIx(0)
        out = apply_basis(Deriv(B1), MonIx((x, x)))
        assert out.coeffs == ((TensorIx((MonIx((x,)), x)), Fraction(2)),)

    def test_mixed_product_two_terms(self):
        x, y = GenIx(0), GenIx(1)
        out = apply_basis(Deriv(B2), MonIx((x, y)))
        assert dict(out.coeffs) == {
            TensorIx((MonIx((y,)), x)): Fraction(1),
            TensorIx((MonIx((x,)), y)): Fraction(1),
        }

    @given(monos2)
    @settings(max_examples=40)
    def test_against_partial_derivative_oracle(self, mono):
        out = apply_basis(Deriv(B2), mono)
        dom = tensor(sym(B2), B2)
        got, ts = deriv_elem_expr(out, dom, 2)
        p = mono_expr(mono)
        want = sympy.expand(sum(sympy.diff(p, XS[i]) * ts[i] for i in range(2)))
        assert got == want


class TestMuMult:
    @given(st.lists(monos2, max_size=3))
    @settings(max_examples=40)
    def test_mu_is_product_of_factors(self, inners):
        outer = monomial(inners)
        out = apply_basis(Mu(B2), outer)
        got = sym_elem_expr(out)
        want = sympy.expand(sympy.prod([mono_expr(m) for m in inners], start=sympy.Integer(1)))
        assert got == want

    @given(monos2, monos2)
    @settings(max_examples=40)
    def test_mult_is_polynomial_product(self, p, q):
        from symalg.spaces import join_pair
        sa = sym(B2)
        bv = join_pair(sa, p, sa, q)
        out = apply_basis(Mult(B2), bv)
        assert sym_elem_expr(out) == sympy.expand(mono_expr(p) * mono_expr(q))

    def test_unit_is_empty_monomial(self):
        from symalg.spaces import UNIT_IX
        assert apply_basis(UnitM(B2), UNIT_IX) == singleton(sym(B2), MonIx(()))

    def test_eta_is_degree_one(self):
        assert (apply_basis(Eta(B2), GenIx(1))
                == singleton(sym(B2), MonIx((GenIx(1),))))


class TestSymF:
    @given(monos2, st.lists(st.integers(-2, 2), min_size=4, max_size=4))
    @settings(max_examples=40)
    def test_against_substitution_oracle(self, mono, flat):
        rows = [flat[:2], flat[2:]]
        f = linear_map_from_matrix(B2, B2, rows)
        out = apply_basis(SymF(f), mono)
        got = sym_elem_expr(out, YS)
        subs = {XS[j]: sum(rows[i][j] * YS[i] for i in range(2))
                for j in range(2)}
        want = sympy.expand(mono_expr(mono).subs(subs, simultaneous=True))
        assert got == want

    def test_functorial_on_identity(self):
        assert check_equal(SymF(Id(B2)), Id(sym(B2)), 3).ok

    def test_functorial_on_composites(self):
        f = linear_map_from_matrix(B2, B2, ((0, 1), (1, 1)))
        g = linear_map_from_matrix(B2, B1, ((1, -1),))
        lhs = SymF(compose(f, g))
        rhs = compose(SymF(f), SymF(g))
        assert check_equal(lhs, rhs, 3).ok


class TestSeely:
    def test_merge_embeds_generators(self):
        from symalg.spaces import join_pair, build_sum
        ab = direct_sum(B1, B2)
        x = monomial([GenIx(0)])
        y = monomial([GenIx(1)])
        bv = join_pair(sym(B1), x, sym(B2), y)
        out = apply_basis(Chi(B1, B2), bv)
        want = monomial([build_sum(ab, 0, GenIx(0)), build_sum(ab, 1, GenIx(1))])
        assert out == singleton(sym(ab), want)

    def test_split_of_empty_monomial(self):
        out = apply_basis(ChiInv(B1, B2), MonIx(()))
        assert len(out.coeffs) == 1
        bv, c = out.coeffs[0]
        assert c == 1 and bv == TensorIx((MonIx(()), MonIx(())))

    def test_round_trips_at_bound_three(self):
        for a, b in [(B1, B1), (B1, B2), (B2, B1), (B2, B2)]:
            lhs = compose(Chi(a, b), ChiInv(a, b))
            assert check_equal(lhs, Id(tensor(sym(a), sym(b))), 3).ok
            rhs = compose(ChiInv(a, b), Chi(a, b))
            assert check_equal(rhs, Id(sym(direct_sum(a, b))), 3).ok

    def test_nullary_comparison(self):
        from symalg.spaces import UNIT, ZERO, UNIT_IX
        assert apply_basis(UnitM(ZERO), UNIT_IX) == singleton(sym(ZERO), MonIx(()))
        assert check_equal(compose(UnitM(ZERO), Chi0Inv()), Id(UNIT), 1).ok
        assert check_equal(compose(Chi0Inv(), UnitM(ZERO)), Id(sym(ZERO)), 3).ok
