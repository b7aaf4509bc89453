"""Exact symmetric-algebra calculus with a commuting-diagram checker.

Everything is pure and immutable: spaces, basis vectors, elements over the
rationals, and morphism expressions evaluated exactly per basis vector.
"""

from .spaces import (
    SpaceExpr, Base, Unit, Zero, Tensor, Sum, Sym, UNIT, ZERO,
    BasisVector, UnitIx, GenIx, TensorIx, SumIx, MonIx, UNIT_IX,
    base, tensor, direct_sum, sym, weight, monomial,
    enumerate_basis, rank, is_sym_free,
    build_sum, decompose_sum, join_pair, split_pair,
)
from .elements import (
    Element, SpaceMismatchError, element, zero_element, singleton,
    elem_add, elem_scale, elem_tensor, elem_sum,
)
from .morphisms import (
    MorExpr, Id, Compose, TensorM, Add, ZeroM, Sigma,
    Matrix, LinearMap, SymF, Eta, Mu, Mult, UnitM, Deriv,
    Chi, ChiInv, Chi0Inv, TableNu,
    Verdict, EndpointMismatchError,
    apply, apply_basis, check_equal, compose, linear_map_from_matrix,
    sum_map, inj, proj,
)

from . import arrow, derivations, tangent, laws, harness  # noqa: E402,F401

__version__ = "0.1.0"
