"""Semantics of the symmetric-algebra operations, cross-checked against an
independent symbolic oracle (sympy polynomials)."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from symalg.spaces import (
    UNIT, ZERO, base, sym, tensor, direct_sum, monomial, enumerate_basis, order_key,
    GenIx, MonIx, SumIx, TensorIx, split_pair, decompose_sum, build_sum, terms,
    is_basis_vector,
)
from symalg.elements import singleton, element, elem_sum, elem_tensor
from symalg.morphisms import (
    Id, TensorM, SymF, Eta, Mu, Mult, UnitM, Deriv, Chi, ChiInv,
    Chi0Inv, ZeroM, apply, apply_basis, check_equal, compose,
    linear_map_from_matrix,
)
from symalg import morphisms

B1 = base("x", 1)
B2 = base("y", 2)
B3 = base("z", 3)

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


def symf_reference(f, mono):
    """S(f) on a monomial by the ordered-tuple expansion: one term per
    sequence of image basis vectors, merged into monomials only at the end.
    An inner S(g) is expanded the same way."""
    acc = {(): 1}
    for p in mono.parts:
        img = symf_reference(f.f, p) if isinstance(f, SymF) else apply_basis(f, p)
        nxt = {}
        for prefix, c in acc.items():
            for fbv, fc in img.coeffs:
                key = prefix + (fbv,)
                nxt[key] = nxt.get(key, 0) + c * fc
        acc = nxt
    out = {}
    for parts, c in acc.items():
        mono = monomial(parts)
        out[mono] = out.get(mono, 0) + c
    return element(sym(f.cod()), out)


def assert_canonical_sym_element(e):
    """Sorted by order_key without repeats, no zero coefficient, an int
    wherever the value is integral, and every monomial the interned one."""
    keys = [order_key(bv) for bv, _ in e.coeffs]
    assert keys == sorted(set(keys))
    for bv, c in e.coeffs:
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)
        assert bv is monomial(bv.parts)


SPACES = {1: B1, 2: B2, 3: B3}
_entries = st.integers(-2, 2) | st.fractions(-2, 2, max_denominator=3)
_shapes = st.sampled_from([(2, 2), (2, 3), (3, 1), (1, 2)])  # (dom rank, cod rank)


@st.composite
def _dense_map(draw):
    n, k = draw(_shapes)
    rows = draw(st.lists(st.lists(_entries, min_size=n, max_size=n),
                         min_size=k, max_size=k))
    return linear_map_from_matrix(SPACES[n], SPACES[k], rows)


def _monomials(n, max_size):
    return st.lists(st.integers(0, n - 1), max_size=max_size).map(
        lambda ix: monomial([GenIx(i) for i in ix]))


@st.composite
def _map_and_monomial(draw):
    f = draw(_dense_map())
    return f, draw(_monomials(f.dom().rank, 6))


@st.composite
def _map_and_nested_monomial(draw):
    f = draw(_dense_map())
    inner = _monomials(f.dom().rank, 3)
    return f, draw(st.lists(inner, max_size=3).map(monomial))


ZERO_23 = linear_map_from_matrix(B2, B3, [[0, 0]] * 3)
CANCEL = linear_map_from_matrix(B2, B2, [[1, 1], [1, -1]])  # y0+y1, y0-y1
DEG6 = monomial([GenIx(0)] * 3 + [GenIx(1)] * 3)


class TestSymF:
    @given(_map_and_monomial())
    @settings(max_examples=60, deadline=None)
    @example((ZERO_23, DEG6))
    @example((ZERO_23, MonIx(())))
    @example((CANCEL, DEG6))
    @example((linear_map_from_matrix(B3, B1, [[Fraction(1, 2), -1, Fraction(2, 3)]]),
              monomial([GenIx(0), GenIx(1), GenIx(1), GenIx(2), GenIx(2), GenIx(2)])))
    def test_multiset_expansion_matches_ordered_tuples(self, case):
        f, mono = case
        got = apply_basis(SymF(f), mono)
        assert got == symf_reference(f, mono)
        assert_canonical_sym_element(got)

    @given(_map_and_nested_monomial())
    @settings(max_examples=30, deadline=None)
    def test_nested_expansion_matches_ordered_tuples(self, case):
        f, mono = case
        got = apply_basis(SymF(SymF(f)), mono)
        assert got == symf_reference(SymF(f), mono)
        assert_canonical_sym_element(got)
        for bv, _ in got.coeffs:
            assert all(p is monomial(p.parts) for p in bv.parts)

    def test_zero_map_kills_all_but_the_empty_monomial(self):
        for f in (ZERO_23, ZeroM(B2, B3)):
            assert apply_basis(SymF(f), DEG6).is_zero()
            assert apply_basis(SymF(f), MonIx(())) == singleton(sym(B3), MonIx(()))

    def test_cross_terms_cancel(self):
        # (y0 + y1)(y0 - y1) = y0^2 - y1^2
        y0, y1 = GenIx(0), GenIx(1)
        got = apply_basis(SymF(CANCEL), MonIx((y0, y1)))
        assert got.coeffs == ((MonIx((y0, y0)), 1), (MonIx((y1, y1)), -1))

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

    def test_cold_degree_12_matches_substitution_oracle(self):
        rows = [[3, -4], [5, 7]]
        f = linear_map_from_matrix(B2, B2, rows)
        mono = monomial([GenIx(0)] * 5 + [GenIx(1)] * 7)
        assert SymF(f) not in morphisms._MEMO
        out = apply_basis(SymF(f), mono)
        subs = {XS[j]: sum(rows[i][j] * YS[i] for i in range(2)) for j in range(2)}
        want = sympy.expand(mono_expr(mono).subs(subs, simultaneous=True))
        assert sym_elem_expr(out, YS) == want
        assert_canonical_sym_element(out)
        # Every prefix was evaluated on the way and stays in the memo.
        assert set(morphisms._MEMO[SymF(f)]) == {monomial(mono.parts[:k]) for k in range(1, 13)}

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


# -- references: each rule as split_pair, singleton, elem_tensor and elem_sum --

def _ref_mult(m, bv):
    p, q = split_pair(bv, sym(m.a), sym(m.a))
    return singleton(sym(m.a), monomial(p.parts + q.parts))


def _ref_deriv(m, bv):
    return elem_sum(tensor(sym(m.a), m.a), [
        elem_tensor(singleton(sym(m.a), MonIx(bv.parts[:i] + bv.parts[i + 1:])),
                    singleton(m.a, factor))
        for i, factor in enumerate(bv.parts)])


def _ref_chi_inv(m, bv):
    ab, off = direct_sum(m.a, m.b), len(terms(m.a))
    pa, pb = [], []
    for g in bv.parts:
        k, inner = decompose_sum(g, ab)
        if k < off:
            pa.append(build_sum(m.a, k, inner))
        else:
            pb.append(build_sum(m.b, k - off, inner))
    return elem_tensor(singleton(sym(m.a), monomial(pa)), singleton(sym(m.b), monomial(pb)))


def _ref_tensor(m, bv):
    x, y = split_pair(bv, m.f.dom(), m.g.dom())
    return elem_tensor(apply_basis(m.f, x), apply_basis(m.g, y))


#: Spaces with Sum and Tensor parts.
S12 = direct_sum(B1, B2)
T21 = tensor(B2, B1)
MIXED = direct_sum(UNIT, tensor(B2, B1))
#: Maps between sums, with several terms in most images.
F = linear_map_from_matrix(S12, direct_sum(UNIT, B2), ((1, 2, 0), (0, 1, -1), (3, 0, 1)))
G = linear_map_from_matrix(direct_sum(UNIT, B1), S12, ((1, 2), (0, 1), (-1, 3)))


@pytest.mark.hash_order
class TestRulesAgainstReferences:
    """Mult, Deriv, ChiInv and TensorM with no Id side read their layouts
    from their node; on every basis vector up to bound 3 they must agree
    with a formulation that splits and joins through split_pair,
    singleton, elem_tensor and elem_sum."""

    @staticmethod
    def _check(m, ref, bound=3):
        basis = enumerate_basis(m.dom(), bound)
        assert basis
        for bv in basis:
            got, want = apply_basis(m, bv), ref(m, bv)
            assert got.space == m.cod()
            assert got.coeffs == element(m.cod(), dict(want.coeffs)).coeffs
            keys = [order_key(w) for w, _ in got.coeffs]
            assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))
            assert all(is_basis_vector(w, m.cod()) for w, _ in got.coeffs)

    @pytest.mark.parametrize("a", [B2, S12, T21, MIXED, ZERO],
                             ids=["B2", "B1+B2", "B2xB1", "1+B2xB1", "0"])
    def test_mult(self, a):
        self._check(Mult(a), _ref_mult)

    @pytest.mark.parametrize("a", [B2, S12, T21, MIXED, direct_sum(UNIT, sym(B1))],
                             ids=["B2", "B1+B2", "B2xB1", "1+B2xB1", "1+S(B1)"])
    def test_deriv(self, a):
        self._check(Deriv(a), _ref_deriv)

    @pytest.mark.parametrize("a, b", [(S12, B2), (B2, S12), (T21, MIXED), (MIXED, S12),
                                      (ZERO, B1), (B1, ZERO)],
                             ids=["B1+B2,B2", "B2,B1+B2", "B2xB1,1+B2xB1", "1+B2xB1,B1+B2",
                                  "0,B1", "B1,0"])
    def test_chi_inv(self, a, b):
        self._check(ChiInv(a, b), _ref_chi_inv)

    @pytest.mark.parametrize("m", [
        TensorM(SymF(F), G), TensorM(G, SymF(F)), TensorM(F, G), TensorM(G, F),
        TensorM(Deriv(S12), Mult(B1)), TensorM(SymF(G), Deriv(MIXED)),
    ], ids=["S(F)xG", "GxS(F)", "FxG", "GxF", "d(B1+B2)xm(B1)", "S(G)xd(1+B2xB1)"])
    def test_tensor_with_no_id_side(self, m):
        self._check(m, _ref_tensor)
