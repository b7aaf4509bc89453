"""Arrow category: squares, functoriality, monad, box product, lifted
modality."""

from itertools import combinations_with_replacement

import pytest

from symalg.spaces import UNIT, ZERO, base, sym, tensor, direct_sum, GenIx, MonIx, TensorIx
from symalg.elements import singleton
from symalg import laws
from symalg.morphisms import (
    Id, ZeroM, Sigma, EndpointMismatchError, InvalidStructureError, apply_basis, check_equal,
    compose, linear_map_from_matrix, sum_map,
)
from symalg.arrow import (
    ArrowMor, arrow_mor, commuting_square, id_arrow, zero_arrow,
    compose_arrow, add_arrow, arrow_check,
    sbar_spaces, sbar_obj, sbar_mor, etabar, mubar,
    box_spaces, boxtimes_obj, boxtimes_mor, boxtimes_sigma, boxtimes_unit,
    mbar, ubar, dbar, arrow_seely, arrow_seely_inv, arrow_seely0,
)

B1 = base("x", 1)
B2 = base("y", 2)

ID1 = Id(B1)
ID2 = Id(B2)
SWAP = linear_map_from_matrix(B2, B2, ((0, 1), (1, 0)))
RECT = linear_map_from_matrix(B2, B1, ((1, 2),))
ZERO12 = ZeroM(B1, B2)
SAMPLES = [ID1, ID2, SWAP, RECT, ZERO12]

ends = laws._ends


class TestSquares:
    def test_valid_square_accepted(self):
        f = linear_map_from_matrix(B2, B2, ((2, 0), (0, 2)))
        m = arrow_mor(SWAP, SWAP, f, f)
        assert isinstance(m, ArrowMor)

    def test_broken_square_rejected(self):
        f = linear_map_from_matrix(B2, B2, ((1, 0), (0, 2)))
        with pytest.raises(InvalidStructureError) as exc:
            arrow_mor(SWAP, SWAP, f, f)
        assert exc.value.diagram == "arrow.square"
        assert exc.value.verdict.witness is not None

    def test_endpoint_mismatch_rejected(self):
        # ID1 -> ID1 with one component endpoint moved to B2: the square's
        # Compose nodes or its check reject each of the four.
        for f0, f1, message in [(ZeroM(B2, B1), ID1, "^domain mismatch"),  # f0 dom
                                (ZeroM(B1, B2), ID1, "^compose mismatch"),  # f0 cod
                                (ID1, ZeroM(B2, B1), "^compose mismatch"),  # f1 dom
                                (ID1, ZeroM(B1, B2), "^codomain mismatch")]:  # f1 cod
            with pytest.raises(EndpointMismatchError, match=message):
                arrow_mor(ID1, ID1, f0, f1)

    # (ID1, ID2) differ in both components; (RECT, ID2) only in the second.
    @pytest.mark.parametrize("p,q", [(ID1, ID2), (RECT, ID2)])
    def test_mismatched_components_rejected(self, p, q):
        # A morphism is its components, so each operation is rejected by the
        # component node or check that its spaces do not fit.
        with pytest.raises(EndpointMismatchError):
            compose_arrow(id_arrow(*ends(q)), id_arrow(*ends(p)))
        with pytest.raises(EndpointMismatchError):
            add_arrow(id_arrow(*ends(p)), id_arrow(*ends(q)))
        with pytest.raises(EndpointMismatchError):
            arrow_check(id_arrow(*ends(p)), id_arrow(*ends(q)), 2)

    def test_constructions_are_squares_between_their_objects(self):
        # Every construction that does not validate itself, and etabar and
        # mubar that do, against the source and target objects it relates.
        f = arrow_mor(ID2, SWAP, SWAP, Id(B2))
        g = arrow_mor(SWAP, ID2, Id(B2), SWAP)
        squares = [("seely0", boxtimes_unit(), sbar_obj(ZeroM(ZERO, ZERO)), arrow_seely0()),
                   ("sbar_mor(f)", sbar_obj(ID2), sbar_obj(SWAP), sbar_mor(f)),
                   ("sbar_mor(g)", sbar_obj(SWAP), sbar_obj(ID2), sbar_mor(g)),
                   ("f box g", boxtimes_obj(ID2, SWAP), boxtimes_obj(SWAP, ID2),
                    boxtimes_mor(f, g))]
        for i, o in enumerate(SAMPLES):
            sb = sbar_obj(o)
            squares += [(f"sbar_mor(id {i})", sb, sb, sbar_mor(id_arrow(*ends(o)))),
                        (f"etabar({i})", o, sb, etabar(o)),
                        (f"mubar({i})", sbar_obj(sb), sb, mubar(o)),
                        (f"mbar({i})", boxtimes_obj(sb, sb), sb, mbar(*ends(o))),
                        (f"ubar({i})", boxtimes_unit(), sb, ubar(*ends(o))),
                        (f"dbar({i})", sb, boxtimes_obj(sb, o), dbar(*ends(o)))]
        for i, j in combinations_with_replacement(range(len(SAMPLES)), 2):
            p, q = SAMPLES[i], SAMPLES[j]
            pq, sbox = boxtimes_obj(p, q), boxtimes_obj(sbar_obj(p), sbar_obj(q))
            ssum = sbar_obj(sum_map(p, q))
            squares += [(f"id {i} box id {j}", pq, pq,
                         boxtimes_mor(id_arrow(*ends(p)), id_arrow(*ends(q)))),
                        (f"sigma({i}, {j})", pq, boxtimes_obj(q, p), boxtimes_sigma(*ends(p, q))),
                        (f"seely({i}, {j})", sbox, ssum, arrow_seely(*ends(p, q))),
                        (f"seely_inv({i}, {j})", ssum, sbox, arrow_seely_inv(*ends(p, q)))]
        assert len(squares) == 94
        bad = [name for name, src, dst, m in squares
               if not check_equal(*commuting_square(src, dst, m), 2).ok]
        assert bad == []

    def test_lifted_object_endpoints(self):
        # The spaces of a lifted object follow from those of the maps it is
        # built from; sbar_spaces and box_spaces give them without building it.
        for p in SAMPLES:
            a0, a1 = p.dom(), p.cod()
            sb = sbar_obj(p)
            assert (sb.dom(), sb.cod()) == (sym(a0), tensor(sym(a0), a1))
            assert sbar_spaces(a0, a1) == (sb.dom(), sb.cod())
            for q in SAMPLES:
                b0, b1 = q.dom(), q.cod()
                pq = boxtimes_obj(p, q)
                assert pq.dom() == tensor(a0, b0)
                assert pq.cod() == direct_sum(tensor(a0, b1), tensor(a1, b0))
                assert box_spaces(a0, a1, b0, b1) == (pq.dom(), pq.cod())
        assert boxtimes_unit() == ZeroM(UNIT, ZERO)


class TestLiftedFunctor:
    def test_sbar_on_identity_object_is_one_tensor_phi_after_d(self):
        # applying the lifted identity arrow to x^2 gives 2x (x) x
        sb = sbar_obj(ID1)
        out = apply_basis(sb, MonIx((GenIx(0), GenIx(0))))
        want = singleton(tensor(sym(B1), B1),
                         TensorIx((MonIx((GenIx(0),)), GenIx(0))), 2)
        assert out == want

    def test_sbar_of_zero_arrow_is_zero_postcomposition(self):
        sb = sbar_obj(ZERO12)
        for mono in [MonIx(()), MonIx((GenIx(0),)), MonIx((GenIx(0),) * 2)]:
            assert apply_basis(sb, mono).is_zero()

    def test_functor_preserves_identity(self):
        m = sbar_mor(id_arrow(*ends(SWAP)))
        v0, v1 = arrow_check(m, id_arrow(*sbar_spaces(*ends(SWAP))), 2)
        assert v0.ok and v1.ok

    def test_functor_preserves_composition(self):
        f = arrow_mor(ID2, SWAP, SWAP, Id(B2))
        g = arrow_mor(SWAP, ID2, Id(B2), SWAP)
        lhs = sbar_mor(compose_arrow(g, f))
        rhs = compose_arrow(sbar_mor(g), sbar_mor(f))
        v0, v1 = arrow_check(lhs, rhs, 2)
        assert v0.ok and v1.ok


class TestMonad:
    @pytest.mark.parametrize("o", SAMPLES)
    def test_unit_laws(self, o):
        sb = sbar_obj(o)
        for lhs in [compose_arrow(mubar(o), etabar(sb)),
                    compose_arrow(mubar(o), sbar_mor(etabar(o)))]:
            v0, v1 = arrow_check(lhs, id_arrow(*ends(sb)), 2)
            assert v0.ok and v1.ok

    @pytest.mark.parametrize("o", SAMPLES)
    def test_associativity(self, o):
        lhs = compose_arrow(mubar(o), sbar_mor(mubar(o)))
        rhs = compose_arrow(mubar(o), mubar(sbar_obj(o)))
        v0, v1 = arrow_check(lhs, rhs, 1)
        assert v0.ok and v1.ok

    def test_mubar_second_component_substitutes_then_multiplies(self):
        # {{x}} (x) {x} (x) a1 -> x^2 (x) a1
        o = ID1
        m = mubar(o)
        x = GenIx(0)
        from symalg.spaces import join_pair
        ssa, rest = sym(sym(B1)), tensor(sym(B1), B1)
        outer = MonIx((MonIx((x,)),))
        inner = join_pair(sym(B1), MonIx((x,)), B1, x)
        bv = join_pair(ssa, outer, rest, inner)
        out = apply_basis(m.f1, bv)
        want = singleton(tensor(sym(B1), B1),
                         TensorIx((MonIx((x, x)), x)))
        assert out == want


class TestBoxProduct:
    def test_sigma_involution(self):
        for p, q in [(ID1, SWAP), (RECT, ZERO12)]:
            lhs = compose_arrow(boxtimes_sigma(*ends(q, p)), boxtimes_sigma(*ends(p, q)))
            v0, v1 = arrow_check(lhs, id_arrow(*box_spaces(*ends(p, q))), 2)
            assert v0.ok and v1.ok

    def test_strict_associativity_and_units(self):
        p, q, r = ID1, SWAP, RECT
        lhs = boxtimes_obj(boxtimes_obj(p, q), r)
        rhs = boxtimes_obj(p, boxtimes_obj(q, r))
        # strict on spaces, equal as maps
        assert (lhs.dom(), lhs.cod()) == (rhs.dom(), rhs.cod())
        assert check_equal(lhs, rhs, 2).ok
        for u in [boxtimes_obj(boxtimes_unit(), q),
                  boxtimes_obj(q, boxtimes_unit())]:
            assert (u.dom(), u.cod()) == (q.dom(), q.cod())
            assert check_equal(u, q, 2).ok

    def test_bifunctoriality(self):
        f = arrow_mor(ID2, SWAP, SWAP, Id(B2))
        g = arrow_mor(SWAP, ID2, Id(B2), SWAP)
        h = id_arrow(*ends(ID1))
        lhs = boxtimes_mor(compose_arrow(g, f), h)
        rhs = compose_arrow(boxtimes_mor(g, h), boxtimes_mor(f, h))
        v0, v1 = arrow_check(lhs, rhs, 2)
        assert v0.ok and v1.ok

    def test_sigma_naturality(self):
        f = arrow_mor(ID2, SWAP, SWAP, Id(B2))
        h = id_arrow(*ends(ID1))
        lhs = compose_arrow(boxtimes_sigma(*ends(SWAP, ID1)), boxtimes_mor(f, h))
        rhs = compose_arrow(boxtimes_mor(h, f), boxtimes_sigma(*ends(ID2, ID1)))
        v0, v1 = arrow_check(lhs, rhs, 2)
        assert v0.ok and v1.ok

    def test_object_column_duplicates_on_identities(self):
        o = boxtimes_obj(ID1, ID1)
        from symalg.spaces import join_pair, build_sum
        bv = join_pair(B1, GenIx(0), B1, GenIx(0))
        out = apply_basis(o, bv)
        assert len(out.coeffs) == 2
        assert all(c == 1 for _, c in out.coeffs)


class TestLiftedModality:
    @pytest.mark.parametrize("o", SAMPLES)
    def test_monoid_laws(self, o):
        sb = sbar_spaces(*ends(o))
        m, u = mbar(*ends(o)), ubar(*ends(o))
        one = id_arrow(*sb)
        cases = [
            (compose_arrow(m, boxtimes_mor(u, one)), one),
            (compose_arrow(m, boxtimes_mor(one, u)), one),
            (compose_arrow(m, boxtimes_mor(m, one)),
             compose_arrow(m, boxtimes_mor(one, m))),
            (compose_arrow(m, boxtimes_sigma(*sb, *sb)), m),
        ]
        for lhs, rhs in cases:
            v0, v1 = arrow_check(lhs, rhs, 2)
            assert v0.ok and v1.ok

    @pytest.mark.parametrize("o", SAMPLES)
    def test_d_axioms(self, o):
        sb = sbar_spaces(*ends(o))
        d = dbar(*ends(o))
        # constant rule
        v0, v1 = arrow_check(
            compose_arrow(d, ubar(*ends(o))),
            zero_arrow(UNIT, ZERO, *box_spaces(*sb, *ends(o))), 2)
        assert v0.ok and v1.ok
        # linear rule
        v0, v1 = arrow_check(
            compose_arrow(d, etabar(o)),
            boxtimes_mor(ubar(*ends(o)), id_arrow(*ends(o))), 2)
        assert v0.ok and v1.ok
        # interchange
        inner = compose_arrow(boxtimes_mor(d, id_arrow(*ends(o))), d)
        lhs = compose_arrow(
            boxtimes_mor(id_arrow(*sb), boxtimes_sigma(*ends(o, o))), inner)
        v0, v1 = arrow_check(lhs, inner, 2)
        assert v0.ok and v1.ok

    def test_dbar_first_component_is_base_derivative(self):
        d = dbar(B1, B1)
        x = GenIx(0)
        out = apply_basis(d.f0, MonIx((x, x)))
        assert out == singleton(tensor(sym(B1), B1),
                                TensorIx((MonIx((x,)), x)), 2)

    def test_mutated_dbar_fails_interchange(self):
        o = ID2
        d = laws.LawContext(mutation="dbar-twist-skip").made("dbar", dbar, *ends(o))
        assert d.f1 != dbar(*ends(o)).f1
        sb = sbar_spaces(*ends(o))
        inner = compose_arrow(boxtimes_mor(d, id_arrow(*ends(o))), d)
        lhs = compose_arrow(
            boxtimes_mor(id_arrow(*sb), boxtimes_sigma(*ends(o, o))), inner)
        v0, v1 = arrow_check(lhs, inner, 2)
        assert v0.ok and not v1.ok
        assert v1.witness is not None


class TestArrowSeely:
    @pytest.mark.parametrize("p,q", [(ID1, ID1), (ID1, SWAP), (RECT, ZERO12)])
    def test_round_trips(self, p, q):
        chi = arrow_seely(*ends(p, q))
        inv = arrow_seely_inv(*ends(p, q))
        v0, v1 = arrow_check(compose_arrow(inv, chi),
                             id_arrow(*box_spaces(*sbar_spaces(*ends(p)),
                                                  *sbar_spaces(*ends(q)))), 2)
        assert v0.ok and v1.ok
        v0, v1 = arrow_check(compose_arrow(chi, inv),
                             id_arrow(*ends(sbar_obj(sum_map(p, q)))), 2)
        assert v0.ok and v1.ok

    def test_nullary_equals_lifted_unit(self):
        v0, v1 = arrow_check(arrow_seely0(), ubar(ZERO, ZERO), 3)
        assert v0.ok and v1.ok
