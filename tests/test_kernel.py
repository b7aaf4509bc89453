"""The hash-consed expression kernel: interning on every construction path,
the one place a node is built, the frozen guard, stored order keys, and
identity hashing and equality."""

import copy
import dataclasses
import pickle
import sys
import threading

import pytest

from symalg.spaces import (
    Node, SpaceExpr, Base, Sum, Sym, Tensor, UNIT, ZERO, UNIT_IX, base, tensor, direct_sum,
    sym, enumerate_basis, decompose_sum, BasisVector, UnitIx, GenIx, TensorIx, SumIx, MonIx,
    monomial, _TABLE, _sum_ix, _tensor_ix, _mon_ix,
)
from symalg.morphisms import (
    Add, Chi0Inv, ChiInv, Compose, Deriv, Eta, Id, Matrix, MorExpr, Mu, Mult, Sigma, SymF,
    TensorM, UnitM, ZeroM, compose, inj, linear_map_from_matrix,
)
from symalg.derivations import rational_algebra

B1 = base("x", 1)
B2 = base("y", 2)


def subclasses(root):
    """root and every class below it."""
    seen, todo = [], [root]
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


def node_examples():
    """One node of every node class."""
    f = linear_map_from_matrix(B2, B2, ((1, 2), (0, 1)))
    return [
        UNIT, ZERO, B2, tensor(B1, B2), direct_sum(B1, B2), sym(B1),
        UNIT_IX, GenIx(0), TensorIx((GenIx(0), GenIx(1))), SumIx(1, GenIx(0)),
        MonIx((GenIx(0), GenIx(0))),
        Id(B1), Compose(f, f), TensorM(Id(B1), f), Add(f, f), ZeroM(B1, B2), Sigma(B1, B2),
        inj(0, (B1, B2)), f, SymF(f), Eta(B1), Mu(B1), Mult(B1), UnitM(B1), Deriv(B2),
        ChiInv(B1, B2), Chi0Inv(), rational_algebra().nu,
    ]


def dataclass_repr(x):
    """x's repr as a dataclass with x's class name and fields would print it."""
    names = list(x.__match_args__)
    reference = dataclasses.make_dataclass(type(x).__qualname__, names)
    return repr(reference(*(getattr(x, n) for n in names)))


def reference_weight(bv):
    """The weight recurrence, computed from the structure every time."""
    if isinstance(bv, (UnitIx, GenIx)):
        return 0
    if isinstance(bv, (TensorIx, MonIx)):
        extra = len(bv.parts) if isinstance(bv, MonIx) else 0
        return extra + sum(reference_weight(p) for p in bv.parts)
    return reference_weight(bv.inner)


def reference_key(bv):
    """The graded order key, (weight,) + structural key, built from scratch."""
    if isinstance(bv, UnitIx):
        skey = (0,)
    elif isinstance(bv, GenIx):
        skey = (1, bv.index)
    elif isinstance(bv, TensorIx):
        skey = (2, tuple(reference_key(p) for p in bv.parts))
    elif isinstance(bv, SumIx):
        skey = (3, bv.branch, reference_key(bv.inner))
    else:
        skey = (4, tuple(reference_key(p) for p in bv.parts))
    return (reference_weight(bv),) + skey


class TestInterning:
    def test_equal_basis_vectors_are_identical(self):
        assert GenIx(0) is GenIx(0)
        assert GenIx(0) is not GenIx(1)

    def test_space_constructors_return_one_instance(self):
        assert tensor(B1, B2) is tensor(B1, B2)
        assert direct_sum(B1, sym(B2)) is direct_sum(B1, sym(B2))
        assert sym(B2) is sym(B2)
        assert base("y", 2) is B2

    def test_equal_monomial_parts_share_one_instance(self):
        parts = (GenIx(0), GenIx(1))
        assert MonIx(parts) is MonIx(tuple(list(parts)))
        assert monomial([GenIx(1), GenIx(0)]) is MonIx(parts)

    def test_keyword_construction_interns(self):
        assert Base(name="y", rank=2) is B2
        assert SumIx(branch=1, inner=GenIx(0)) is SumIx(1, GenIx(0))

    def test_keyword_lookup_builds_no_node(self, monkeypatch):
        m = inj(0, (B1, B2))
        calls = []
        real = Matrix._endpoints
        monkeypatch.setattr(Matrix, "_endpoints", lambda self: calls.append(1) or real(self))
        again = Matrix(entries=m.entries)
        assert again is m and again is inj(0, (B1, B2))
        assert calls == []

    def test_hot_path_constructors_return_the_interned_node(self):
        # _sum_ix, _tensor_ix and _mon_ix probe the intern table themselves
        # and build the node directly on a miss.  What they build must be
        # what the public constructor builds: the same class, fields and
        # order key.  The check takes the node out of the table for one
        # public build and puts it back.
        for private, public, new, old in (
                (_sum_ix, SumIx, (5, GenIx(9001)), (1, GenIx(0))),
                (_tensor_ix, TensorIx, ((GenIx(9002), GenIx(9003)),), ((GenIx(0), GenIx(1)),)),
                (_mon_ix, MonIx, ((GenIx(9004), GenIx(9004)),), ((GenIx(0), GenIx(1)),))):
            key = (public, *new)
            assert key not in _TABLE
            built = private(*new)
            assert type(built) is public and _TABLE[key] is built and built is public(*new)
            del _TABLE[key]
            try:
                twin = public(*new)
            finally:
                _TABLE[key] = built
            assert twin is not built and type(twin) is public
            assert repr(twin) == repr(built) and twin._key == built._key
            assert private(*new) is built
            known = public(*old)
            assert private(*old) is known

    def test_bad_keywords_raise_type_error(self):
        with pytest.raises(TypeError):
            Base(nme="y", rank=2)
        with pytest.raises(TypeError):
            Base(name="y")
        with pytest.raises(TypeError):
            Base("y", name="y")

    def test_morphisms_intern(self):
        f = linear_map_from_matrix(B2, B2, ((1, 2), (0, 1)))
        g = linear_map_from_matrix(B2, B2, ((1, 2), (0, 1)))
        assert f is g
        assert compose(SymF(SymF(f)), Mu(B2)) is compose(SymF(SymF(g)), Mu(B2))
        assert TensorM(Id(B1), f).dom() is tensor(B1, B2)

    def test_copy_and_pickle_return_the_interned_node(self):
        f = linear_map_from_matrix(B2, B1, ((1, 2),))
        for x in (tensor(sym(B1), B2), MonIx((GenIx(0), GenIx(0))), compose(f, Id(B1))):
            assert copy.deepcopy(x) is x
            assert pickle.loads(pickle.dumps(x)) is x

    def test_non_normal_nodes_rejected(self):
        with pytest.raises(ValueError):
            Tensor((B1,))
        with pytest.raises(ValueError):
            Sum((direct_sum(B1, B2), B2))

    def test_every_construction_path_interns(self):
        f = linear_map_from_matrix(B2, B1, ((1, 2),))
        for x in (MonIx((GenIx(0), GenIx(0))), tensor(sym(B1), B2), compose(f, Id(B1))):
            assert isinstance(x, (MonIx, Tensor, Compose))
            fields = {name: getattr(x, name) for name in x.__match_args__}
            assert type(x)(*fields.values()) is x
            assert type(x)(**fields) is x
            assert copy.copy(x) is x
            assert copy.deepcopy(x) is x
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(x, protocol)) is x

    def test_nodes_hash_and_compare_in_c(self):
        # Interning makes identity exact; a Python-level __hash__ or __eq__
        # (say from a dataclass with eq=True) would only slow every lookup.
        seen = subclasses(Node)
        assert {GenIx, Tensor, Compose, Mu, SymF}.issubset(seen)
        for cls in seen:
            assert cls.__hash__ is object.__hash__, cls
            assert cls.__eq__ is object.__eq__, cls

    def test_racing_threads_get_one_instance(self):
        n_threads, n_nodes = 8, 300
        seen = [[] for _ in range(n_threads)]
        start = threading.Barrier(n_threads)

        def build(out):
            start.wait()
            for i in range(n_nodes):
                out.append(MonIx((GenIx(10_000 + i), GenIx(20_000 + i))))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(out,)) for out in seen]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for i in range(n_nodes):
            assert len({id(out[i]) for out in seen}) == 1


class TestConstruction:
    """A node is built only in the intern miss, with no per-class methods."""

    def test_examples_cover_every_node_class(self):
        node_classes = {cls for cls in subclasses(Node)
                        if "__match_args__" in vars(cls) and cls.__module__.startswith("symalg.")}
        assert {type(x) for x in node_examples()} == node_classes
        assert len(node_classes) == 28

    def test_repr_is_the_dataclass_format(self):
        for x in node_examples():
            assert repr(x) == dataclass_repr(x)
        assert repr(SumIx(1, GenIx(0))) == "SumIx(branch=1, inner=GenIx(index=0))"

    def test_no_class_has_its_own_generated_methods(self):
        for cls in subclasses(Node)[1:]:
            for name in ("__init__", "__repr__", "__setattr__", "__delattr__"):
                assert name not in cls.__dict__, (cls, name)

    def test_the_metaclass_declares_every_node_class(self):
        # A class body with __slots__ is a base; any other is a node class
        # whose annotations, in order, are its slots and match args.
        classes = [cls for cls in subclasses(Node) if cls.__module__.startswith("symalg.")]
        bases = [cls for cls in classes if "__match_args__" not in vars(cls)]
        assert set(bases) == {Node, SpaceExpr, BasisVector, MorExpr}
        assert all("__slots__" in vars(cls) for cls in bases)
        nodes = [cls for cls in classes if cls not in bases]
        assert len(nodes) == 28
        for cls in nodes:
            names = tuple(vars(cls).get("__annotations__", {}))
            assert cls.__slots__ == cls.__match_args__ == names, cls
            expected = {Base: (1,), GenIx: (0,), SumIx: (0,)}.get(cls, ())
            assert cls._int_fields == expected, cls

    def test_a_node_class_without_endpoints_cannot_be_built(self):
        class Bare(MorExpr):
            space: object

        before = len(_TABLE)
        with pytest.raises(NotImplementedError):
            Bare(B1)
        assert len(_TABLE) == before

    @pytest.mark.parametrize("call, args, error, message", [
        (Base, (7, 1), TypeError, "base space name must be a str"),
        (Sym, (5,), TypeError, "not a SpaceExpr"),
        (decompose_sum, (GenIx(0), direct_sum(B1, B2)), ValueError, "expected SumIx"),
        (decompose_sum, (UNIT_IX, ZERO), ValueError, "Zero space has no basis vectors"),
        (enumerate_basis, (5, 1), TypeError, "not a SpaceExpr"),
    ], ids=["Base-name", "Sym-inner", "decompose-non-SumIx", "decompose-Zero",
            "enumerate-non-space"])
    def test_rejected_call_interns_nothing(self, call, args, error, message):
        # Every operand is built before the table is measured, so the class
        # checks must run in the intern miss and leave the table unchanged.
        before = len(_TABLE)
        with pytest.raises(error, match=message):
            call(*args)
        assert len(_TABLE) == before

    @pytest.mark.parametrize("args", [(), (1, 2)])
    def test_wrong_arity_raises_and_interns_nothing(self, args):
        before = len(_TABLE)
        with pytest.raises(TypeError):
            GenIx(*args)
        assert len(_TABLE) == before

    @pytest.mark.parametrize("x", [
        tensor(B1, sym(B2)), SumIx(1, MonIx((GenIx(0), GenIx(1)))), TensorM(Id(B1), Mu(B2)),
    ], ids=["SpaceExpr", "BasisVector", "MorExpr"])
    def test_frozen_guard(self, x):
        # Every slot: the fields, then what __post_init__ stored (_key, _dom, ...).
        slots = [n for c in type(x).__mro__ for n in c.__dict__.get("__slots__", ())]
        state = {n: getattr(x, n) for n in slots}
        for name in (*slots, "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(x, name)
        assert {n: getattr(x, n) for n in slots} == state
        fields = [getattr(x, n) for n in x.__match_args__]
        assert type(x)(*fields) is x
        assert _TABLE[(type(x), *fields)] is x


class TestStoredOrder:
    @pytest.mark.parametrize("space", [
        sym(B2), sym(sym(B1)), tensor(sym(B1), direct_sum(B1, B2)),
        sym(direct_sum(B1, tensor(B2, B2))),
    ])
    def test_key_matches_reference(self, space):
        basis = enumerate_basis(space, 3)
        assert basis
        for bv in basis:
            assert isinstance(bv, BasisVector)
            assert bv.key() == reference_key(bv)
        assert [bv.key() for bv in basis] == sorted(reference_key(bv) for bv in basis)
