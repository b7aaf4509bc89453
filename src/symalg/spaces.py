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
from dataclasses import FrozenInstanceError
from functools import lru_cache
from operator import attrgetter, itemgetter


# ---------------------------------------------------------------------------
# Hash-consed nodes
# ---------------------------------------------------------------------------

# The intern table: (class, *fields) -> the one node with those fields.  It
# lives as long as the process.
_TABLE = {}


class Interned(type):
    """Metaclass of hash-consed nodes.

    A class body that declares `__slots__` is a base.  Any other declares a
    node class, whose annotations, in order, are its fields: its `__slots__`
    and `__match_args__`.  A node class keeps its fields' slot setters
    (`_setters`) and the positions of its `int` fields (`_int_fields`), which
    the intern table checks on a hit.

    Constructing a node whose class and fields equal an existing node's
    returns that existing node, so equal nodes are identical.
    Keyword arguments are put in field order first, so the lookup builds
    no node.  Keys compare with ==, under which `(SumIx, True, x)` finds
    `(SumIx, 1, x)`, so a hit returns the node only if every `int` field got
    a plain int; otherwise the call goes on as a miss, where the class's
    checks reject it.

    The miss is the one place a node is built, `_build`: after the call
    checks the number of fields, it does `object.__new__`, sets each field
    through its slot, runs `__post_init__` (the class's checks and stored
    structure), then interns.  A call that raises leaves the table
    unchanged.  `dict.setdefault` keeps equal nodes identical when two
    threads build the same node.

    The evaluator's hot loops skip this call for the basis vectors they
    build most (`_sum_ix`, `_tensor_ix`, `_mon_ix`): those probe `_TABLE`
    with the exact key and call `_build` themselves on a miss, so every new
    node is still checked and interned there.  They skip the hit check too,
    so they stay private: only callers passing ints they computed may use
    them.
    """

    def __new__(mcls, name, bases, namespace):
        if "__slots__" in namespace:
            return super().__new__(mcls, name, bases, namespace)
        types = namespace.get("__annotations__", {})
        namespace["__slots__"] = namespace["__match_args__"] = tuple(types)
        cls = super().__new__(mcls, name, bases, namespace)
        cls._setters = tuple(cls.__dict__[field].__set__ for field in types)
        cls._int_fields = tuple(i for i, t in enumerate(types.values()) if t in ("int", int))
        return cls

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
        if len(args) != len(cls._setters):
            raise TypeError(f"{cls.__name__}() takes {len(cls._setters)} arguments "
                            f"{list(cls.__match_args__)}, got {len(args)}")
        return _build(cls, key, args)


def _build(cls, key: tuple, args: tuple):
    """The intern miss: build the node of class cls with fields args, one per
    field, run its checks and intern it under key, which is (cls, *args)."""
    self = object.__new__(cls)
    for set_field, value in zip(cls._setters, args):
        set_field(self, value)
    self.__post_init__()
    return _TABLE.setdefault(key, self)


class Node(metaclass=Interned):
    """Base of expression nodes, which are interned.

    Every constructor, copy and pickle goes through the intern table, so
    equal nodes are one object: nodes hash and compare by identity, with
    object's __hash__ and __eq__, in C.  `__post_init__` runs once, when the
    node is built; the default does nothing.

    The repr is the dataclass format, `Class(field=value, ...)`, over the
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


class Unit(SpaceExpr):
    pass


class Zero(SpaceExpr):
    pass


class Base(SpaceExpr):
    name: str
    rank: int

    def __post_init__(self):
        if type(self.name) is not str:
            raise TypeError(f"base space name must be a str, got {self.name!r}")
        _require_int(self.rank, "base space rank", 1)


class Tensor(SpaceExpr):
    factors: tuple  # atoms only, length >= 2

    def __post_init__(self):
        _require_normal(len(self.factors) >= 2
                        and all(isinstance(f, (Base, Sym)) for f in self.factors), self)


class Sum(SpaceExpr):
    summands: tuple  # tensor terms only, length >= 2

    def __post_init__(self):
        _require_normal(len(self.summands) >= 2
                        and all(isinstance(t, (Unit, Base, Sym, Tensor))
                                for t in self.summands), self)


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


@lru_cache(maxsize=None)
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

    def key(self):
        """Graded global order key: weight first, then structure."""
        return self._key


#: Sets a basis vector's order key, once, in its __post_init__.
_set_key = BasisVector._key.__set__
#: Sort key for basis vectors, read without a Python-level call.
order_key = attrgetter("_key")
_weight_of_key = itemgetter(0)


class UnitIx(BasisVector):
    def __post_init__(self):
        _set_key(self, (0, 0))


class GenIx(BasisVector):
    index: int  # 0-based generator index

    def __post_init__(self):
        _require_int(self.index, "generator index", 0)
        _set_key(self, (0, 1, self.index))


class TensorIx(BasisVector):
    parts: tuple

    def __post_init__(self):
        keys = tuple(map(order_key, self.parts))
        _set_key(self, (sum(map(_weight_of_key, keys)), 2, keys))


class SumIx(BasisVector):
    branch: int
    inner: BasisVector

    def __post_init__(self):
        _require_int(self.branch, "sum branch", 0)
        key = self.inner._key
        _set_key(self, (key[0], 3, self.branch, key))


class MonIx(BasisVector):
    """A monomial: canonically sorted multiset of inner basis vectors.

    Its weight counts each factor once plus the factor's own weight.
    """

    parts: tuple

    def __post_init__(self):
        keys = tuple(map(order_key, self.parts))
        _set_key(self, (len(keys) + sum(map(_weight_of_key, keys)), 4, keys))


UNIT_IX = UnitIx()


def _sum_ix(branch: int, inner: BasisVector) -> SumIx:
    key = (SumIx, branch, inner)
    return _TABLE.get(key) or _build(SumIx, key, (branch, inner))


def _tensor_ix(parts: tuple) -> TensorIx:
    key = (TensorIx, parts)
    return _TABLE.get(key) or _build(TensorIx, key, (parts,))


def _mon_ix(parts: tuple) -> MonIx:
    key = (MonIx, parts)
    return _TABLE.get(key) or _build(MonIx, key, (parts,))


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
def term_layout(s: SpaceExpr) -> tuple:
    """What split_term and join_term need of s, computed once per space:
    (whether s is a Sum, the number of tensor factors of each of its terms)."""
    return isinstance(s, Sum), tuple(len(factors(t)) for t in terms(s))


def split_term(bv: BasisVector, layout: tuple) -> tuple:
    """Split a basis vector of a space whose term_layout is layout into
    (its term index, one index per tensor factor of that term).  A vector
    of another shape raises ValueError."""
    is_sum, counts = layout
    if is_sum:
        if type(bv) is not SumIx:
            raise ValueError(f"expected a SumIx, got {bv!r}")
        k, bv = bv.branch, bv.inner
    else:
        k = 0
    if k < len(counts):
        n = counts[k]
        if n >= 2:
            if type(bv) is TensorIx and len(bv.parts) == n:
                return k, bv.parts
        elif n:
            return k, (bv,)
        elif bv is UNIT_IX:
            return k, ()
    raise ValueError(f"{bv!r} is not a basis vector of term {k} "
                     f"of a space with {len(counts)} terms")


def join_term(layout: tuple, k: int, parts: tuple) -> BasisVector:
    """Inverse of split_term: the basis vector of term k of a space whose
    term_layout is layout, with one index per tensor factor of the term."""
    inner = _tensor_ix(parts) if len(parts) >= 2 else parts[0] if parts else UNIT_IX
    return _sum_ix(k, inner) if layout[0] else inner


@lru_cache(maxsize=None)
def pair_layout(a: SpaceExpr, b: SpaceExpr) -> tuple:
    """What splitting and joining basis vectors of tensor(a, b) needs, computed
    once per pair of spaces.

    Returns (tensor(a, b), its term_layout, rows, branch, term_layout(a),
    term_layout(b)).  The terms of tensor(a, b) are row-major: term i of a
    times term j of b is term branch[i][j] = i * (number of terms of b) + j.
    Row k is (i, j, split) for that term k, whose first split factors are
    term i's.
    """
    big = tensor(a, b)
    la, lb = term_layout(a), term_layout(b)
    nb = len(lb[1])
    branch = tuple(tuple(i * nb + j for j in range(nb)) for i in range(len(la[1])))
    rows = [None] * len(terms(big))
    for i, ks in enumerate(branch):
        for j, k in enumerate(ks):
            rows[k] = (i, j, la[1][i])
    return big, term_layout(big), tuple(rows), branch, la, lb


def split_pair(bv: BasisVector, a: SpaceExpr, b: SpaceExpr):
    """Split a basis vector of tensor(a, b) into basis vectors of a and b."""
    _, lab, rows, _, la, lb = pair_layout(a, b)
    k, parts = split_term(bv, lab)
    i, j, split = rows[k]
    return join_term(la, i, parts[:split]), join_term(lb, j, parts[split:])


def join_pair(a: SpaceExpr, bva: BasisVector, b: SpaceExpr, bvb: BasisVector) -> BasisVector:
    """Inverse of split_pair."""
    _, lab, _, branch, la, lb = pair_layout(a, b)
    i, parts_a = split_term(bva, la)
    j, parts_b = split_term(bvb, lb)
    return join_term(lab, branch[i][j], parts_a + parts_b)


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
    weight, then its level, then the rest likewise.  An empty level of the
    first factor, such as a base space's above weight 0, needs no tails."""
    out = []
    rest = fs[1:]
    for v in range(w + 1):
        heads = _level(fs[0], v)
        if not heads:
            continue
        if len(rest) == 1:
            out.extend(itertools.product(heads, _level(rest[0], w - v)))
        else:
            tails = _products(rest, w - v)
            out.extend((bv,) + tail for bv in heads for tail in tails)
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
