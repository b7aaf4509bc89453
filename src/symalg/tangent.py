"""Tangent structure on algebras and derivations, and the Kleisli differential.

The tangent bundle of an algebra doubles the carrier and equips A (+) A
with a dual-numbers multiplication: the second copy squares to zero.  A
derivation D lifts to diag(D, D) between doubled carriers.  For Kleisli
maps A -> S(B) the differential combinator produces a map A -> S(B (+) B)
whose second-copy-linear part is the derivative.
"""

from __future__ import annotations

from .spaces import (
    SpaceExpr, base, direct_sum, tensor, sym, enumerate_basis, join_pair,
    GenIx, MonIx,
)
from .elements import singleton
from .morphisms import (
    MorExpr, Id, TensorM, ZeroM, Matrix, LinearMap,
    SymF, Eta, Deriv, Chi, _apply_basis, compose, sum_map, proj,
)
from .derivations import (
    SAlgebra, AModule, Derivation, VALIDATE_BOUND, s_algebra, a_module, derivation,
)


def tangent_structure_map(alg: SAlgebra) -> MorExpr:
    """The column [nu . S(p1) ; mult . (nu (x) 1) . (S(p1) (x) p2) . d]."""
    a = alg.carrier
    aa = direct_sum(a, a)
    p1 = proj(0, (a, a))
    p2 = proj(1, (a, a))
    first = compose(SymF(p1), alg.nu)
    second = compose(Deriv(aa),
                     TensorM(SymF(p1), p2),
                     TensorM(alg.nu, Id(a)),
                     alg.mult())
    return Matrix(((first,), (second,)))


def tangent_algebra(alg: SAlgebra, bound: int = VALIDATE_BOUND) -> SAlgebra:
    return s_algebra("tangent-" + alg.name, tangent_structure_map(alg), bound=bound)


def tangent_module_action(module: AModule) -> MorExpr:
    """Dual-numbers action on M (+) M.

    Over the distributed order (A1 (x) M1, A1 (x) M2, A2 (x) M1, A2 (x) M2)
    the action is [[alpha, 0, 0, 0], [0, alpha, alpha, 0]]: the first copy
    acts on both components, the second copy feeds the first component
    into the second and annihilates the rest.
    """
    a, m, al = module.algebra.carrier, module.carrier, module.alpha
    z = ZeroM(tensor(a, m), m)
    return Matrix(((al, z, z, z), (z, al, al, z)))


def tangent_derivation(d: Derivation, bound: int = VALIDATE_BOUND) -> Derivation:
    """diag(D, D) between the doubled algebra and the doubled module."""
    tan = tangent_algebra(d.algebra, bound=bound)
    module = a_module(tan, tangent_module_action(d.module), bound=bound)
    return derivation(module, sum_map(d.d, d.d), bound=bound)


def multiplication_table(alg: SAlgebra):
    """The induced multiplication evaluated on all generator pairs."""
    a = alg.carrier
    gens = enumerate_basis(a, 0)
    m = alg.mult()
    return tuple(tuple(_apply_basis(m, join_pair(a, g, a, h)) for h in gens)
                 for g in gens)


# ---------------------------------------------------------------------------
# Kleisli maps and the differential combinator
# ---------------------------------------------------------------------------

def kleisli_map(dom: SpaceExpr, cod_base: SpaceExpr, images) -> LinearMap:
    """A map A -> S(B) given by generator images; A must be Sym-free."""
    pairs = images.items() if isinstance(images, dict) else images
    return LinearMap(dom, sym(cod_base), tuple(pairs))


def kleisli_diff(f: MorExpr) -> MorExpr:
    """Differential combinator: postcompose with chi . (1 (x) eta) . d.

    The result maps A into S(B (+) B); first-copy generators carry the
    point, the single second-copy generator in each monomial carries the
    derivative direction.
    """
    b = f.cod().inner
    return compose(f, Deriv(b), TensorM(Id(sym(b)), Eta(b)), Chi(b, b))


def monomial_power_map(k: int) -> LinearMap:
    """e1 |-> x^k as a Kleisli map on one generator."""
    e = base("e", 1)
    x = base("x", 1)
    return kleisli_map(e, x, {GenIx(0): singleton(sym(x), MonIx((GenIx(0),) * k))})


def xy_map() -> LinearMap:
    """e1 |-> x * y as a Kleisli map into two generators."""
    e = base("e", 1)
    b = base("xy", 2)
    mono = MonIx((GenIx(0), GenIx(1)))
    return kleisli_map(e, b, {GenIx(0): singleton(sym(b), mono)})
