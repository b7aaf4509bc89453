"""Basis-vector semantics of the symmetric-algebra modality.

Monomials are multisets of basis vectors of the underlying space.  The
monad unit embeds a vector as a degree-1 monomial, the monad
multiplication multiplies out a monomial of monomials, the monoid
multiplication merges multisets, and the deriving map sends a monomial to
the sum of its partial derivatives (with integer multiplicities for
repeated factors).  S(f) expands over multisets: it keys each product of
image vectors by a count vector, so a degree-d monomial into a rank-n space
makes at most C(n+d-1, d) states, not the n^d ordered tuples.
"""

from __future__ import annotations

from itertools import chain, repeat

from .spaces import (
    MonIx, TensorIx, UNIT_IX, _mon_ix, monomial, terms, decompose_sum, build_sum,
    pair_parts, join_pair, order_key,
)
from .elements import element, singleton, elem_combination
from .morphisms import (
    SymF, Eta, Mu, Mult, UnitM, Deriv, ChiInv, Chi0Inv, TableNu,
    RULES, apply_basis,
)


def _mu(m, bv):
    """A monomial of monomials multiplies out to one merged monomial."""
    merged = []
    for inner in bv.parts:
        merged.extend(inner.parts)
    return singleton(m.cod(), monomial(merged))


def _mult(m, bv):
    _, (p, q) = pair_parts(bv, m._layout)
    return singleton(m.cod(), monomial(p.parts + q.parts))


def _symf(m, bv):
    """S(f) on a monomial: apply f to each factor and expand multilinearly,
    keying each product by its count vector over the distinct image vectors."""
    images = [apply_basis(m.f, p).coeffs for p in bv.parts]
    vecs = sorted({fbv for img in images for fbv, _ in img}, key=order_key)
    slot = {v: i for i, v in enumerate(vecs)}
    acc = {(0,) * len(vecs): 1}
    for img in images:
        steps = [(slot[fbv], fc) for fbv, fc in img]
        nxt = {}
        for counts, c in acc.items():
            for i, fc in steps:
                key = counts[:i] + (counts[i] + 1,) + counts[i + 1:]
                x = c * fc
                old = nxt.get(key)
                nxt[key] = x if old is None else old + x
        acc = nxt  # empty when any factor image is zero
    return element(m.cod(), {_mon_ix(tuple(chain.from_iterable(map(repeat, vecs, k)))): c
                             for k, c in acc.items()})


def _deriv(m, bv):
    """d on {b_1,...,b_k} = sum_i ({...without b_i}) (x) b_i, equal terms summed."""
    parts = bv.parts
    return element(m.cod(), [(join_pair(m.dom(), _mon_ix(parts[:i] + parts[i + 1:]), m.a, b), 1)
                             for i, b in enumerate(parts)])


def _chi_inv(m, bv):
    """Split a monomial over a (+) b into its a-part (x) b-part: one tensor term."""
    ab = m.dom().inner
    off = len(terms(m.a))
    pa, pb = [], []
    for g in bv.parts:
        k, inner = decompose_sum(g, ab)
        if k < off:
            pa.append(build_sum(m.a, k, inner))
        else:
            pb.append(build_sum(m.b, k - off, inner))
    return singleton(m.cod(), TensorIx((monomial(pa), monomial(pb))))


def _table_fold(m, bv):
    """nu on a monomial: fold the multiplication table over the factors."""
    index = m._layout  # the index of each generator, made with the node
    carrier = m.cod()
    acc = m.unit_elem
    for factor in bv.parts:
        col = index[factor]
        acc = elem_combination(carrier, ((c, m.mult_table[index[g]][col])
                                         for g, c in acc.coeffs))
    return acc


RULES.update({
    Eta: lambda m, bv: singleton(m.cod(), MonIx((bv,))),
    UnitM: lambda m, bv: singleton(m.cod(), MonIx(())),
    Mu: _mu,
    Mult: _mult,
    SymF: _symf,
    Deriv: _deriv,
    ChiInv: _chi_inv,
    Chi0Inv: lambda m, bv: singleton(m.cod(), UNIT_IX),
    TableNu: _table_fold,
})
