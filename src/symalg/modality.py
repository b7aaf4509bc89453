"""Basis-vector semantics of the symmetric-algebra modality.

Monomials are multisets of basis vectors of the underlying space.  The
monad unit embeds a vector as a degree-1 monomial, the monad
multiplication multiplies out a monomial of monomials, the monoid
multiplication merges multisets, and the deriving map sends a monomial to
the sum of its partial derivatives (with integer multiplicities for
repeated factors).  S(f) is a dynamic program over the memo: a monomial's
image is its prefix's image times f of its last factor, each product
monomial built by inserting one image vector into the prefix monomial's
sorted parts.  The prefixes are walked shortest first, so the rule's
nesting grows with log2 of the degree, not with the degree.
"""

from __future__ import annotations

from bisect import bisect_right

from .spaces import (
    MonIx, TensorIx, UNIT_IX, _mon_ix, monomial, terms, decompose_sum, build_sum,
    split_term, join_pair, order_key,
)
from .elements import _combination, _element, _singleton
from .morphisms import (
    SymF, Eta, Mu, Mult, UnitM, Deriv, ChiInv, Chi0Inv, TableNu,
    RULES, _apply_basis,
)


def _mu(m, bv):
    """A monomial of monomials multiplies out to one merged monomial."""
    merged = []
    for inner in bv.parts:
        merged.extend(inner.parts)
    return _singleton(m.cod(), monomial(merged))


def _mult(m, bv):
    _, (p, q) = split_term(bv, m._layout)
    return _singleton(m.cod(), monomial(p.parts + q.parts))


def _symf(m, bv):
    """S(f) on p_1...p_d: the image of the prefix p_1...p_{d-1} times
    f(p_d).  Each product monomial is a prefix monomial with one image vector
    inserted into its sorted parts; equal monomials are summed in one dict.

    The prefix image comes through `_apply_basis`, after the prefixes of
    length d - 2^j for falling j, so shortest first.  A prefix that misses
    runs this rule with at most half the gap to the prefixes already in the
    memo, so a cold degree-d monomial nests about log2(d) rules deep, not d,
    and a warm one costs about log2(d) memo hits."""
    parts = bv.parts
    if not parts:
        return _singleton(m.cod(), bv)
    d = len(parts)
    prefix = ((MonIx(()), 1),)
    for j in reversed(range((d - 1).bit_length())):
        prefix = _apply_basis(m, _mon_ix(parts[:d - (1 << j)])).coeffs
    last = _apply_basis(m.f, parts[-1]).coeffs
    acc = {}
    for mono, c in prefix:
        ps = mono.parts
        for v, fc in last:
            i = bisect_right(ps, v._key, key=order_key)
            key = _mon_ix(ps[:i] + (v,) + ps[i:])
            x = c * fc
            old = acc.get(key)
            acc[key] = x if old is None else old + x
    return _element(m.cod(), acc)


def _deriv(m, bv):
    """d on {b_1,...,b_k} = sum_i ({...without b_i}) (x) b_i, equal terms summed."""
    parts = bv.parts
    out = {}
    for i, b in enumerate(parts):
        key = join_pair(m.dom(), _mon_ix(parts[:i] + parts[i + 1:]), m.a, b)
        out[key] = out.get(key, 0) + 1
    return _element(m.cod(), out)


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
    return _singleton(m.cod(), TensorIx((monomial(pa), monomial(pb))))


def _table_fold(m, bv):
    """nu on a monomial: fold the multiplication table over the factors."""
    index = m._layout  # the index of each generator, made with the node
    carrier = m.cod()
    acc = m.unit_elem
    for factor in bv.parts:
        col = index[factor]
        acc = _combination(carrier, ((c, m.mult_table[index[g]][col])
                                     for g, c in acc.coeffs))
    return acc


RULES.update({
    Eta: lambda m, bv: _singleton(m.cod(), MonIx((bv,))),
    UnitM: lambda m, bv: _singleton(m.cod(), MonIx(())),
    Mu: _mu,
    Mult: _mult,
    SymF: _symf,
    Deriv: _deriv,
    ChiInv: _chi_inv,
    Chi0Inv: lambda m, bv: _singleton(m.cod(), UNIT_IX),
    TableNu: _table_fold,
})
