"""Symbolic spaces and their canonical bases.

A space expression is kept in a distributed normal form: a direct sum of
tensor terms, where every tensor factor is atomic (a base space or a Sym
layer).  Under this normal form the monoidal structure is strict: tensoring
is associative/unital on the nose and distributes over direct sums, so the
strict-biproduct bookkeeping needed by the diagram checker holds
definitionally.

Basis vectors are recursive indices.  Sym layers index by canonically
sorted multisets of inner basis vectors.  The basis is generated one weight
level at a time, each already in the graded global order (weight first,
then structure), so truncations are prefix-stable by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import FrozenInstanceError, dataclass, fields
from functools import lru_cache
from operator import attrgetter


# ---------------------------------------------------------------------------
# Hash-consed nodes
# ---------------------------------------------------------------------------

def node(cls):
    """Dataclass form of every expression node: slotted, with its fields,
    `__match_args__` and `dataclasses.replace`, but no generated methods.
    `Interned.__call__` builds the node and `Node` gives the repr and the
    frozen guard; eq=False keeps object's identity __eq__ and __hash__, which
    interning makes exact.  Per class this stores each field's slot setter in
    order (`_setters`), and the positions of the fields annotated `int`
    (`_int_fields`), which the intern table checks on a hit."""
    cls = dataclass(init=False, repr=False, eq=False, slots=True)(cls)
    cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__match_args__)
    cls._int_fields = tuple(i for i, f in enumerate(fields(cls)) if f.type in ("int", int))
    return cls

# The intern table: (class, *fields) -> the one node with those fields.  It
# lives as long as the process.
_TABLE = {}


class Interned(type):
    """Metaclass of hash-consed nodes.

    Constructing a node whose class and fields equal an existing node's
    returns that existing node, so equal nodes are identical.
    Keyword arguments are put in field order first, so the lookup builds
    no node.  Keys compare with ==, under which `(SumIx, True, x)` finds
    `(SumIx, 1, x)`, so a hit returns the node only if every `int` field got
    a plain int; otherwise the call goes on as a miss, where the class's
    checks reject it.

    The miss is the one place a node is built: check the number of fields,
    `object.__new__`, set each field through its slot, run `__post_init__`
    (the class's checks and stored structure), then intern.  A call that
    raises leaves the table unchanged.  `dict.setdefault` keeps equal nodes
    identical when two threads build the same node.

    The evaluator's hot loops skip this call for the basis vectors they
    build most (`_sum_ix`, `_tensor_ix`, `_mon_ix`): those probe `_TABLE`
    with the exact key and call the public constructor only on a miss, so
    every new node is still checked and interned here.  They skip the hit
    check too, so they stay private: only callers passing ints they computed
    may use them.
    """

    def __call__(cls, *args, **kwargs):
        if kwargs:
            names = cls.__match_args__[len(args):]
            if kwargs.keys() != set(names):
                raise TypeError(f"{cls.__name__}() expects keywords {list(names)} after "
                                f"{len(args)} positional arguments, got {sorted(kwargs)}")
            args += tuple(kwargs[n] for n in names)
        key = (cls, *args)
        found = _TABLE.get(key)
        if found is not None and (not cls._int_fields
                                  or all(type(args[i]) is int for i in cls._int_fields)):
            return found
        setters = cls._setters
        if len(args) != len(setters):
            raise TypeError(f"{cls.__name__}() takes {len(setters)} arguments "
                            f"{list(cls.__match_args__)}, got {len(args)}")
        self = object.__new__(cls)
        for set_field, value in zip(setters, args):
            set_field(self, value)
        self.__post_init__()
        return _TABLE.setdefault(key, self)


class Node(metaclass=Interned):
    """Base of expression nodes, which are interned.

    Every constructor, copy and pickle goes through the intern table, so
    equal nodes are one object: nodes hash and compare by identity, with
    object's __hash__ and __eq__, in C.  `__post_init__` runs once, when the
    node is built; the default does nothing.

    The repr is the dataclass one, `Class(field=value, ...)`, over the
    fields in order; witness reprs in the reports depend on it.  Fields are
    set once, when the node is built: assigning or deleting an attribute
    raises `FrozenInstanceError`.
    """

    __slots__ = ()
    _setters = ()
    _int_fields = ()

    def __post_init__(self):
        pass

    def __repr__(self):
        return (f"{type(self).__qualname__}("
                f"{', '.join([f'{n}={getattr(self, n)!r}' for n in self.__match_args__])})")

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)


# ---------------------------------------------------------------------------
# Space expressions
# ---------------------------------------------------------------------------

class SpaceExpr(Node):
    """Base class for space expressions.

    Every SpaceExpr is in normal form: Tensor, Sum and Sym nodes are built
    only by `tensor`, `direct_sum` and `sym`, and reject other shapes.
    """

    __slots__ = ()


def _require_int(x, what: str, low: int) -> None:
    """Interning compares fields with ==, under which 1, 1.0 and True are one
    key; only a plain int is accepted, so no other type enters the table."""
    if type(x) is not int:
        raise TypeError(f"{what} must be an int, got {x!r}")
    if x < low:
        raise ValueError(f"{what} must be >= {low}, got {x}")


def _require_normal(ok: bool, s: SpaceExpr) -> None:
    if not ok:
        raise ValueError(f"{s!r} is not in normal form; "
                         "build spaces with tensor, direct_sum and sym")


@node
class Unit(SpaceExpr):
    pass


@node
class Zero(SpaceExpr):
    pass


@node
class Base(SpaceExpr):
    name: str
    rank: int

    def __post_init__(self):
        if type(self.name) is not str:
            raise TypeError(f"base space name must be a str, got {self.name!r}")
        _require_int(self.rank, "base space rank", 1)


@node
class Tensor(SpaceExpr):
    factors: tuple  # atoms only, length >= 2

    def __post_init__(self):
        _require_normal(len(self.factors) >= 2
                        and all(isinstance(f, (Base, Sym)) for f in self.factors), self)


@node
class Sum(SpaceExpr):
    summands: tuple  # tensor terms only, length >= 2

    def __post_init__(self):
        _require_normal(len(self.summands) >= 2
                        and all(isinstance(t, (Unit, Base, Sym, Tensor))
                                for t in self.summands), self)


@node
class Sym(SpaceExpr):
    inner: SpaceExpr

    def __post_init__(self):
        if not isinstance(self.inner, SpaceExpr):
            raise TypeError(f"not a SpaceExpr: {self.inner!r}")


UNIT = Unit()
ZERO = Zero()


def terms(s: SpaceExpr) -> tuple:
    """The direct-sum terms of a normalized space (empty for Zero)."""
    if isinstance(s, Zero):
        return ()
    if isinstance(s, Sum):
        return s.summands
    return (s,)


def factors(term: SpaceExpr) -> tuple:
    """The tensor factors of a single term (empty for Unit)."""
    if isinstance(term, Unit):
        return ()
    if isinstance(term, Tensor):
        return term.factors
    return (term,)


def _make_term(atoms) -> SpaceExpr:
    atoms = tuple(atoms)
    if not atoms:
        return UNIT
    if len(atoms) == 1:
        return atoms[0]
    return Tensor(atoms)


def _make_sum(ts) -> SpaceExpr:
    ts = tuple(ts)
    if not ts:
        return ZERO
    if len(ts) == 1:
        return ts[0]
    return Sum(ts)


@lru_cache(maxsize=None)
def tensor(*spaces: SpaceExpr) -> SpaceExpr:
    """Monoidal product, distributed over direct sums (row-major order)."""
    if any(isinstance(x, Zero) for x in spaces):
        return ZERO
    out = []
    for combo in itertools.product(*(terms(x) for x in spaces)):
        atoms = []
        for t in combo:
            atoms.extend(factors(t))
        out.append(_make_term(atoms))
    return _make_sum(out)


@lru_cache(maxsize=None)
def direct_sum(*spaces: SpaceExpr) -> SpaceExpr:
    """Biproduct; nested sums flatten and Zero summands vanish."""
    out = []
    for x in spaces:
        out.extend(terms(x))
    return _make_sum(out)


def sym(s: SpaceExpr) -> SpaceExpr:
    return Sym(s)


def base(name: str, rank: int) -> SpaceExpr:
    return Base(name, rank)


def is_sym_free(s: SpaceExpr) -> bool:
    return not _sym_atoms(s)


def has_finite_basis(s: SpaceExpr) -> bool:
    """Whether s has a finite basis, which is then all of weight 0: every Sym
    in s is over ZERO, whose one basis vector is the empty monomial."""
    return all(x.inner is ZERO for x in _sym_atoms(s))


def _sym_atoms(s: SpaceExpr) -> list:
    """The Sym factors of the terms of a normalized space."""
    return [f for t in terms(s) for f in factors(t) if isinstance(f, Sym)]


def rank(s: SpaceExpr) -> int:
    """Dimension of a Sym-free space, whose basis is all of weight 0."""
    if not is_sym_free(s):
        raise ValueError(f"rank undefined for {s!r}")
    return len(_level(s, 0))


# ---------------------------------------------------------------------------
# Basis vectors
# ---------------------------------------------------------------------------

class BasisVector(Node):
    """A basis vector; its graded order key is stored at construction, and
    its weight is the key's first entry."""

    __slots__ = ("_key",)

    def _order(self, weight: int, skey: tuple) -> None:
        object.__setattr__(self, "_key", (weight,) + skey)

    def key(self):
        """Graded global order key: weight first, then structure."""
        return self._key


#: Sort key for basis vectors, read without a Python-level call.
order_key = attrgetter("_key")


@node
class UnitIx(BasisVector):
    def __post_init__(self):
        self._order(0, (0,))


@node
class GenIx(BasisVector):
    index: int  # 0-based generator index

    def __post_init__(self):
        _require_int(self.index, "generator index", 0)
        self._order(0, (1, self.index))


@node
class TensorIx(BasisVector):
    parts: tuple

    def __post_init__(self):
        self._order(sum(p._key[0] for p in self.parts),
                    (2, tuple(p._key for p in self.parts)))


@node
class SumIx(BasisVector):
    branch: int
    inner: BasisVector

    def __post_init__(self):
        _require_int(self.branch, "sum branch", 0)
        self._order(self.inner._key[0], (3, self.branch, self.inner._key))


@node
class MonIx(BasisVector):
    """A monomial: canonically sorted multiset of inner basis vectors.

    Its weight counts each factor once plus the factor's own weight.
    """

    parts: tuple

    def __post_init__(self):
        self._order(len(self.parts) + sum(p._key[0] for p in self.parts),
                    (4, tuple(p._key for p in self.parts)))


UNIT_IX = UnitIx()


def _sum_ix(branch: int, inner: BasisVector) -> SumIx:
    return _TABLE.get((SumIx, branch, inner)) or SumIx(branch, inner)


def _tensor_ix(parts: tuple) -> TensorIx:
    return _TABLE.get((TensorIx, parts)) or TensorIx(parts)


def _mon_ix(parts: tuple) -> MonIx:
    return _TABLE.get((MonIx, parts)) or MonIx(parts)


def monomial(parts) -> MonIx:
    return _mon_ix(tuple(sorted(parts, key=order_key)))


def weight(bv: BasisVector) -> int:
    return bv._key[0]


# -- structural helpers tying basis vectors to normalized spaces ------------

def decompose_sum(bv: BasisVector, space: SpaceExpr):
    """Split a basis vector of a normalized space into (term index, inner)."""
    if isinstance(space, Sum):
        if not isinstance(bv, SumIx):
            raise ValueError(f"expected SumIx for {space!r}, got {bv!r}")
        return bv.branch, bv.inner
    if isinstance(space, Zero):
        raise ValueError("Zero space has no basis vectors")
    return 0, bv


def build_sum(space: SpaceExpr, index: int, inner: BasisVector) -> BasisVector:
    if isinstance(space, Sum):
        if type(index) is int and 0 <= index < len(space.summands):
            return _sum_ix(index, inner)
    elif type(index) is int and index == 0:
        return inner
    _require_int(index, "sum branch", 0)
    raise ValueError(f"branch {index} out of range for {space!r}")


@lru_cache(maxsize=None)
def pair_layout(a: SpaceExpr, b: SpaceExpr):
    """What split_pair and join_pair need, computed once per pair of spaces.

    Returns (tensor(a, b), number of terms of b, rows), where row k is
    (i, j, term_a, term_b, term_k, number of factors of term_a) for term k of
    tensor(a, b), the product of term i of a and term j of b.
    """
    big = tensor(a, b)
    pairs = itertools.product(enumerate(terms(a)), enumerate(terms(b)))
    rows = tuple((i, j, ta, tb, tk, len(factors(ta)))
                 for ((i, ta), (j, tb)), tk in zip(pairs, terms(big)))
    return big, len(terms(b)), rows


def term_parts(bv: BasisVector, term: SpaceExpr) -> tuple:
    """Split a term-level basis vector into one index per tensor factor."""
    if isinstance(term, Tensor):
        if isinstance(bv, TensorIx) and len(bv.parts) == len(term.factors):
            return bv.parts
    elif not isinstance(term, Unit):
        return (bv,)
    elif isinstance(bv, UnitIx):
        return ()
    raise ValueError(f"{bv!r} is not a basis vector of the term {term!r}")


def term_vector(parts: tuple) -> BasisVector:
    """The term-level basis vector with one index per factor."""
    if len(parts) >= 2:
        return _tensor_ix(parts)
    return parts[0] if parts else UNIT_IX


def pair_parts(bv: BasisVector, layout):
    """Split a basis vector of tensor(a, b), where layout is pair_layout(a, b),
    into its row of the layout and its index per tensor factor."""
    big, _, rows = layout
    k, inner = decompose_sum(bv, big)
    if k >= len(rows):
        raise ValueError(f"branch {k} out of range for {big!r}")
    row = rows[k]
    return row, term_parts(inner, row[4])


def join_parts(layout, i: int, parts_a: tuple, j: int, parts_b: tuple) -> BasisVector:
    """The basis vector of tensor(a, b), where layout is pair_layout(a, b), of
    term i of a joined with term j of b, given one index per tensor factor.

    The terms of tensor(a, b) are row-major: term i of a times term j of b is
    term i * (number of terms of b) + j.
    """
    big, nb, _ = layout
    inner = term_vector(parts_a + parts_b)
    return _sum_ix(i * nb + j, inner) if isinstance(big, Sum) else inner


def split_pair(bv: BasisVector, a: SpaceExpr, b: SpaceExpr):
    """Split a basis vector of tensor(a, b) into basis vectors of a and b."""
    (i, j, _, _, _, na), parts = pair_parts(bv, pair_layout(a, b))
    bva, bvb = term_vector(parts[:na]), term_vector(parts[na:])
    return (_sum_ix(i, bva) if isinstance(a, Sum) else bva,
            _sum_ix(j, bvb) if isinstance(b, Sum) else bvb)


def join_pair(a: SpaceExpr, bva: BasisVector, b: SpaceExpr, bvb: BasisVector) -> BasisVector:
    """Inverse of split_pair."""
    layout = pair_layout(a, b)
    _, nb, rows = layout
    i, inner_a = decompose_sum(bva, a)
    j, inner_b = decompose_sum(bvb, b)
    k = i * nb + j  # the layout row that names the two terms
    if j >= nb or k >= len(rows):
        raise ValueError(f"branches ({i}, {j}) out of range for {a!r} and {b!r}")
    _, _, term_a, term_b, _, _ = rows[k]
    return join_parts(layout, i, term_parts(inner_a, term_a), j, term_parts(inner_b, term_b))


def is_basis_vector(bv: BasisVector, space: SpaceExpr) -> bool:
    """Whether bv is a basis vector of space, of any weight."""
    if isinstance(space, Sum):
        return (isinstance(bv, SumIx) and bv.branch < len(space.summands)
                and is_basis_vector(bv.inner, space.summands[bv.branch]))
    if isinstance(space, Tensor):
        return (isinstance(bv, TensorIx) and len(bv.parts) == len(space.factors)
                and all(map(is_basis_vector, bv.parts, space.factors)))
    if isinstance(space, Sym):
        return (isinstance(bv, MonIx)
                and all(is_basis_vector(p, space.inner) for p in bv.parts)
                and all(p._key <= q._key for p, q in zip(bv.parts, bv.parts[1:])))
    if isinstance(space, Base):
        return isinstance(bv, GenIx) and bv.index < space.rank
    return isinstance(space, Unit) and bv is UNIT_IX


# ---------------------------------------------------------------------------
# Truncated basis enumeration
# ---------------------------------------------------------------------------

def enumerate_basis(space: SpaceExpr, weight_bound: int):
    """All basis vectors of weight <= weight_bound, in global order."""
    _require_int(weight_bound, "weight_bound", 0)
    return list(_basis_upto(space, weight_bound))


def _basis_upto(space: SpaceExpr, weight_bound: int):
    """The basis vectors of weight <= weight_bound, level by level, lazily.
    A finite basis is all of weight 0, so only level 0 is walked, however
    large the bound."""
    top = 0 if has_finite_basis(space) else weight_bound
    return itertools.chain.from_iterable(_level(space, w) for w in range(top + 1))


@lru_cache(maxsize=None)
def _level(space: SpaceExpr, w: int) -> tuple:
    """The basis vectors of weight exactly w, in global order.  Every order
    key starts with the weight, so levels 0..bound concatenated are the
    basis up to bound in order."""
    if isinstance(space, Sum):
        return tuple(_sum_ix(i, bv) for i, t in enumerate(space.summands)
                     for bv in _level(t, w))
    if isinstance(space, Tensor):
        return tuple(map(_tensor_ix, _products(space.factors, w)))
    if isinstance(space, Sym):
        # Each multiset element costs 1 + its own weight.
        inner = list(_basis_upto(space.inner, w - 1)) if w else []
        return tuple(map(_mon_ix, _multisets(inner, w)))
    if isinstance(space, Base):
        return tuple(map(GenIx, range(space.rank))) if w == 0 else ()
    if isinstance(space, Unit):
        return (UNIT_IX,) if w == 0 else ()
    if isinstance(space, Zero):
        return ()
    raise TypeError(f"not a SpaceExpr: {space!r}")


def _products(fs: tuple, w: int) -> list:
    """Part tuples of weight w, one part per factor: by the first factor's
    weight, then its level, then the rest likewise."""
    if not fs:
        return [()] if w == 0 else []
    out = []
    for v in range(w + 1):
        tails = _products(fs[1:], w - v)
        out.extend((bv,) + tail for bv in _level(fs[0], v) for tail in tails)
    return out


def _multisets(inner: list, w: int):
    """Non-decreasing part tuples from inner of total cost w, in lexicographic
    order; inner is in global order, so by weight, and costs never fall.  A
    depth-first walk with an explicit stack of picked indices, so a monomial
    of any degree needs no recursion."""
    costs = [1 + bv._key[0] for bv in inner]
    picked = []  # indices into inner, non-decreasing
    i, rest = 0, w
    while True:
        if rest == 0:
            yield tuple(inner[k] for k in picked)
        elif i < len(costs) and costs[i] <= rest:
            picked.append(i)
            rest -= costs[i]
            continue
        # Nothing from i on fits: move the last pick to the next index.
        if not picked:
            return
        i = picked.pop()
        rest += costs[i]
        i += 1
