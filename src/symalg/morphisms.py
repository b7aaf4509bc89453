"""Morphism expressions, the exact evaluator, and the diagram checker.

A MorExpr is a composable expression tree with a declared domain and
codomain.  Evaluation interprets the tree one basis vector at a time and
extends linearly; it is exact and total (no truncation happens during
evaluation -- the weight bound only limits which test points a diagram
check enumerates).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .spaces import (
    Node, SpaceExpr, BasisVector, UNIT, ZERO, Sum, SumIx, _sum_ix,
    tensor, direct_sum, sym, terms, is_sym_free, rank, enumerate_basis, _basis_upto,
    pair_layout, term_layout, split_term, join_term, is_basis_vector, _require_int,
)
from .elements import (
    Element, SpaceMismatchError, element, zero_element,
    _combination, _element, _from_items, _singleton, _tensor_with,
)


class MorExpr(Node):
    """A morphism expression, hash-consed like spaces and basis vectors.

    When a node is first built it runs its class's checks and computes its
    domain and codomain once (`_endpoints`).  A node whose evaluation rule
    reads more structure computes that too, in the same step, and keeps it
    as its layout (`_layout`, None for the other nodes).
    """

    __slots__ = ("_dom", "_cod", "_layout")

    def __post_init__(self):
        dom, cod, *layout = self._endpoints()
        object.__setattr__(self, "_dom", dom)
        object.__setattr__(self, "_cod", cod)
        object.__setattr__(self, "_layout", layout[0] if layout else None)

    def _endpoints(self) -> tuple:
        """Check the fields; return (domain, codomain), or (domain, codomain,
        layout) for a node whose rule reads a layout."""
        raise NotImplementedError

    def dom(self) -> SpaceExpr:
        return self._dom

    def cod(self) -> SpaceExpr:
        return self._cod


class EndpointMismatchError(ValueError):
    pass


def _require(cond, msg):
    if not cond:
        raise EndpointMismatchError(msg)


def _require_elements(elems, space, what):
    """Each of elems lies in space and holds only basis vectors of it."""
    for e in elems:
        _require(e.space == space and all(is_basis_vector(bv, space) for bv, _ in e.coeffs),
                 f"{what} {e!r} in {e.space!r} is not an element of {space!r}")


# ---------------------------------------------------------------------------
# Structural constructors
# ---------------------------------------------------------------------------

class Id(MorExpr):
    space: SpaceExpr

    def _endpoints(self):
        return self.space, self.space


class Compose(MorExpr):
    """g after f."""

    g: MorExpr
    f: MorExpr

    def _endpoints(self):
        if self.f.cod() != self.g.dom():
            raise EndpointMismatchError(
                f"compose mismatch: cod {self.f.cod()!r} != dom {self.g.dom()!r}")
        return self.f.dom(), self.g.cod()


class TensorM(MorExpr):
    f: MorExpr
    g: MorExpr

    def _endpoints(self):
        # Layout: (side, pair_layout of the domain pair, of the codomain
        # pair); side is "f" for f (x) Id(b), "g" for Id(a) (x) g, else None.
        side = "f" if isinstance(self.g, Id) else "g" if isinstance(self.f, Id) else None
        dom = pair_layout(self.f.dom(), self.g.dom())
        cod = pair_layout(self.f.cod(), self.g.cod())
        return dom[0], cod[0], (side, dom, cod)


class Add(MorExpr):
    f: MorExpr
    g: MorExpr

    def _endpoints(self):
        _require(self.f.dom() == self.g.dom() and self.f.cod() == self.g.cod(),
                 "added maps must share endpoints")
        return self.f.dom(), self.f.cod()


class ZeroM(MorExpr):
    dom_space: SpaceExpr
    cod_space: SpaceExpr

    def _endpoints(self):
        return self.dom_space, self.cod_space


class Sigma(MorExpr):
    """Symmetry a (x) b -> b (x) a."""

    a: SpaceExpr
    b: SpaceExpr

    def _endpoints(self):
        # Layout: pair_layout of the domain pair and of the codomain pair.
        dom, cod = pair_layout(self.a, self.b), pair_layout(self.b, self.a)
        return dom[0], cod[0], (dom, cod)


class Matrix(MorExpr):
    """Block matrix over biproducts: entry (i, j) maps dom block j to cod block i.
    Row 0 fixes the domain blocks and column 0 the codomain blocks."""

    entries: tuple  # rows of tuples of MorExpr

    def _endpoints(self):
        # Layout: (whether the domain is a Sum, where, columns, whether the
        # codomain is a Sum).  where[k] is (j, t) for term k of the domain,
        # term t of dom block j, with t None when the block is one term.
        # columns[j] is (direct, entries): entries lists (entry, whether its
        # block is a Sum, offset of the block's first term in the codomain)
        # for the nonzero entries of column j, and direct says the column has
        # one, whose block is the codomain.
        _require(self.entries and self.entries[0], "a matrix needs a row and a column")
        dom_blocks = tuple(entry.dom() for entry in self.entries[0])
        cod_blocks = []
        columns = tuple([] for _ in dom_blocks)
        offset = 0
        for i, row in enumerate(self.entries):
            _require(len(row) == len(dom_blocks), "matrix column count mismatch")
            block = row[0].cod()
            cod_blocks.append(block)
            for j, entry in enumerate(row):
                _require(entry.dom() == dom_blocks[j],
                         f"matrix entry ({i},{j}) domain mismatch")
                _require(entry.cod() == block,
                         f"matrix entry ({i},{j}) codomain mismatch")
                if not isinstance(entry, ZeroM):
                    columns[j].append((entry, block, offset))
            offset += len(terms(block))
        dom, cod = direct_sum(*dom_blocks), direct_sum(*cod_blocks)
        where = tuple((j, t if isinstance(block, Sum) else None)
                      for j, block in enumerate(dom_blocks)
                      for t in range(len(terms(block))))
        columns = tuple((len(column) == 1 and column[0][1] is cod,
                         tuple((entry, isinstance(block, Sum), offset)
                               for entry, block, offset in column))
                        for column in columns)
        return dom, cod, (isinstance(dom, Sum), where, columns, isinstance(cod, Sum))


class LinearMap(MorExpr):
    """Explicit table of basis-vector images; Sym-free domain only."""

    dom_space: SpaceExpr
    cod_space: SpaceExpr
    images: tuple  # ((BasisVector, Element), ...) covering the whole basis

    def _endpoints(self):
        _require(is_sym_free(self.dom_space), "LinearMap requires a Sym-free domain")
        table = dict(self.images)  # the layout: the image of each domain basis vector
        full = set(enumerate_basis(self.dom_space, 0))
        _require(len(table) == len(self.images) and table.keys() == full,
                 "LinearMap needs exactly one image per domain basis vector")
        _require_elements(table.values(), self.cod_space, "LinearMap image")
        return self.dom_space, self.cod_space, table


# ---------------------------------------------------------------------------
# Sym-modality primitives (semantics in modality.py)
# ---------------------------------------------------------------------------

class SymF(MorExpr):
    """Functor action S(f)."""

    f: MorExpr

    def _endpoints(self):
        return sym(self.f.dom()), sym(self.f.cod())


class Eta(MorExpr):
    a: SpaceExpr

    def _endpoints(self):
        return self.a, sym(self.a)


class Mu(MorExpr):
    a: SpaceExpr

    def _endpoints(self):
        return sym(sym(self.a)), sym(self.a)


class Mult(MorExpr):
    a: SpaceExpr

    def _endpoints(self):
        # Layout: the term_layout of the domain, S(a) (x) S(a).
        dom = pair_layout(sym(self.a), sym(self.a))[0]
        return dom, sym(self.a), term_layout(dom)


class UnitM(MorExpr):
    a: SpaceExpr

    def _endpoints(self):
        return UNIT, sym(self.a)


class Deriv(MorExpr):
    a: SpaceExpr

    def _endpoints(self):
        return sym(self.a), tensor(sym(self.a), self.a)


class ChiInv(MorExpr):
    a: SpaceExpr
    b: SpaceExpr

    def _endpoints(self):
        return sym(direct_sum(self.a, self.b)), tensor(sym(self.a), sym(self.b))


class Chi0Inv(MorExpr):
    def _endpoints(self):
        return sym(ZERO), UNIT


class TableNu(MorExpr):
    """Structure map of a multiplication-table algebra: fold of the table
    over a monomial, with the unit element on the empty monomial.  The
    carrier is the unit's space."""

    mult_table: tuple  # rank x rank of Element
    unit_elem: Element

    def _endpoints(self):
        carrier = self.unit_elem.space
        _require(is_sym_free(carrier), "table algebra carrier must be Sym-free")
        n = rank(carrier)
        _require(len(self.mult_table) == n and all(len(r) == n for r in self.mult_table),
                 "mult_table must be rank x rank")
        _require_elements((*chain.from_iterable(self.mult_table), self.unit_elem),
                          carrier, "table algebra entry or unit")
        # Layout: the index of each generator of the carrier.
        index = {g: i for i, g in enumerate(enumerate_basis(carrier, 0))}
        return sym(carrier), carrier, index


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def apply(m: MorExpr, v: Element) -> Element:
    """Evaluate m on v, exactly."""
    if v.space != m.dom() or not all(is_basis_vector(bv, v.space) for bv, _ in v.coeffs):
        raise SpaceMismatchError(
            f"{v!r} in {v.space!r} is not an element of {m.dom()!r}")
    return _apply(m, v)


def _apply(m, v):
    """apply for an element already known to lie in m's domain."""
    images = _MEMO.get(m, _NO_IMAGES)
    pairs = []
    for bv, c in v.coeffs:
        img = images.get(bv)
        pairs.append((c, _apply_basis(m, bv) if img is None else img))
    return _combination(m.cod(), pairs)


#: The two memos of the evaluator, owned by this module.  _MEMO is
#: _apply_basis's, {node: {basis vector: image}}; _VERDICTS is check_equal's,
#: {(lhs, rhs, weight_bound): Verdict}.  Nodes are interned and evaluation
#: is pure, so a key's value never changes.  Both live as long as the
#: process, so runs in one process share them.
_MEMO = {}
_VERDICTS = {}
#: What a rule reads for a node with no memo entry yet; never written.
_NO_IMAGES = {}


def apply_basis(m: MorExpr, bv: BasisVector) -> Element:
    """Image of a single domain basis vector; always a finite element.  A bv
    that is not a basis vector of m.dom() raises SpaceMismatchError."""
    if not is_basis_vector(bv, m.dom()):
        raise SpaceMismatchError(f"{bv!r} is not a basis vector of {m.dom()!r}")
    return _apply_basis(m, bv)


def _apply_basis(m, bv):
    """apply_basis for a bv already known to be a basis vector of m.dom(),
    unchecked: the memo, or on a miss the node's rule."""
    images = _MEMO.get(m)
    if images is not None:
        img = images.get(bv)
        if img is not None:
            return img
    fn = RULES.get(type(m))
    if fn is None:
        raise TypeError(f"no evaluation rule for {type(m).__name__}")
    img = fn(m, bv)
    if images is None:  # the rule may have made m's dict (SymF asks for prefixes)
        images = _MEMO.setdefault(m, {})
    images[bv] = img
    return img


def _compose(m, bv):
    img = _apply_basis(m.f, bv)
    coeffs = img.coeffs
    if len(coeffs) == 1 and coeffs[0][1] == 1:
        return _apply_basis(m.g, coeffs[0][0])  # g's image of it is shared, not rebuilt
    return _apply(m.g, img)


def _tensor(m, bv):
    side, dom, cod = m._layout
    _, ldom, rows, _, fdom, gdom = dom
    k, parts = split_term(bv, ldom)
    i, j, split = rows[k]
    x, y = parts[:split], parts[split:]
    if side is None:
        return _tensor_with(cod, _apply_basis(m.f, join_term(fdom, i, x)),
                            _apply_basis(m.g, join_term(gdom, j, y)))
    # A whiskering: evaluate the acting side's factor only and put the Id
    # side's parts back beside each term of its image.  With one side fixed
    # the codomain's order follows the image's, so no sort is needed.
    big, lcod, _, branch, fcod, gcod = cod
    items = []
    if side == "f":
        for w, c in _apply_basis(m.f, join_term(fdom, i, x)).coeffs:
            r, own = split_term(w, fcod)
            items.append((join_term(lcod, branch[r][j], own + y), c))
    else:
        for w, c in _apply_basis(m.g, join_term(gdom, j, y)).coeffs:
            r, own = split_term(w, gcod)
            items.append((join_term(lcod, branch[i][r], x + own), c))
    return _from_items(big, tuple(items))


def _sigma(m, bv):
    (_, ldom, rows, _, _, _), (big, lcod, _, branch, _, _) = m._layout
    k, parts = split_term(bv, ldom)
    i, j, split = rows[k]
    return _singleton(big, join_term(lcod, branch[j][i], parts[split:] + parts[:split]))


def _matrix(m, bv):
    dom_sum, where, columns, cod_sum = m._layout
    if dom_sum:
        if type(bv) is not SumIx:
            raise ValueError(f"expected a SumIx, got {bv!r}")
        k, inner = bv.branch, bv.inner
    else:
        k, inner = 0, bv
    if k >= len(where):
        raise ValueError("term index out of range for block structure")
    j, t = where[k]
    x = inner if t is None else _sum_ix(t, inner)
    direct, column = columns[j]
    if direct:  # already an element of the codomain
        return _apply_basis(column[0][0], x)
    # Each row writes only into its own block of codomain terms, so no two
    # rows write the same basis vector, and shifting one block's branches
    # keeps their order.
    items = []
    for entry, block_sum, offset in column:
        for w, c in _apply_basis(entry, x).coeffs:
            if block_sum:
                w = _sum_ix(offset + w.branch, w.inner)
            elif cod_sum:
                w = _sum_ix(offset, w)
            items.append((w, c))
    cod = m.cod()
    return _from_items(cod, tuple(items)) if len(column) == 1 else _element(cod, dict(items))


def _add(m, bv):
    return _combination(m.cod(), ((1, _apply_basis(m.f, bv)), (1, _apply_basis(m.g, bv))))


def _linear_map(m, bv):
    img = m._layout.get(bv)
    if img is not None:
        return img
    raise ValueError(f"basis vector {bv!r} missing from LinearMap table")


#: The evaluation rule of each node class: RULES[type(m)](m, bv) is the
#: image of the basis vector bv under m.  modality.py adds the rules of the
#: Sym primitives.
RULES = {
    Id: lambda m, bv: _singleton(m.space, bv),
    Compose: _compose,
    ZeroM: lambda m, bv: zero_element(m.cod_space),
    Add: _add,
    TensorM: _tensor,
    Sigma: _sigma,
    Matrix: _matrix,
    LinearMap: _linear_map,
}


# ---------------------------------------------------------------------------
# Diagram checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Verdict:
    """What check_equal enumerated, and the first basis vector on which the
    two sides differ, if any: a verdict without a witness is equal."""

    tested_count: int
    weight_bound: int
    witness: BasisVector | None = None
    lhs_value: Element | None = None
    rhs_value: Element | None = None

    @property
    def ok(self) -> bool:
        return self.witness is None

    @property
    def status(self) -> str:
        return "equal" if self.ok else "counterexample"

    def __repr__(self):
        if self.ok:
            return f"Verdict(equal, tested={self.tested_count}, bound={self.weight_bound})"
        return (f"Verdict(counterexample at {self.witness}, "
                f"lhs={self.lhs_value}, rhs={self.rhs_value})")


class InvalidStructureError(ValueError):
    """A defining diagram failed, such as "arrow.square"; carries its name and verdict."""

    def __init__(self, diagram: str, verdict: Verdict):
        super().__init__(f"diagram {diagram!r} fails at witness {verdict.witness}")
        self.diagram = diagram
        self.verdict = verdict


def check_equal(lhs: MorExpr, rhs: MorExpr, weight_bound: int) -> Verdict:
    """Compare two maps on every domain basis vector of weight <= bound.

    Both sides are linear, so agreement on the enumerated basis certifies
    equality on its whole span -- exact, not probabilistic.  Verdicts are
    memoized in _VERDICTS: a repeated equation returns the same Verdict
    object without enumerating again.
    """
    if lhs.dom() != rhs.dom():
        raise EndpointMismatchError(f"domain mismatch: {lhs.dom()!r} vs {rhs.dom()!r}")
    if lhs.cod() != rhs.cod():
        raise EndpointMismatchError(f"codomain mismatch: {lhs.cod()!r} vs {rhs.cod()!r}")
    # Checked before the lookup: a True bound equals the key's 1.
    _require_int(weight_bound, "weight_bound", 0)
    key = (lhs, rhs, weight_bound)
    verdict = _VERDICTS.get(key)
    if verdict is not None:
        return verdict
    n = 0
    for n, bv in enumerate(_basis_upto(lhs.dom(), weight_bound), 1):
        lv = _apply_basis(lhs, bv)
        rv = _apply_basis(rhs, bv)
        if lv is not rv and lv != rv:  # images are often one shared object
            verdict = Verdict(n, weight_bound, witness=bv, lhs_value=lv, rhs_value=rv)
            break
    else:
        verdict = Verdict(n, weight_bound)
    _VERDICTS[key] = verdict
    return verdict


# ---------------------------------------------------------------------------
# Convenience builders
# ---------------------------------------------------------------------------

def compose(*ms: MorExpr) -> MorExpr:
    """Compose left-to-right in diagram order: compose(f, g) = g after f."""
    out = ms[0]
    for m in ms[1:]:
        out = Compose(m, out)
    return out


def sum_map(f: MorExpr, g: MorExpr) -> Matrix:
    """Pointwise biproduct of maps, f (+) g, as a block-diagonal matrix."""
    return Matrix(((f, ZeroM(g.dom(), f.cod())),
                   (ZeroM(f.dom(), g.cod()), g)))


def inj(i: int, summands: tuple) -> Matrix:
    """Injection of summands[i] into direct_sum(*summands): a column matrix."""
    _require(0 <= i < len(summands), "injection index out of range")
    s = summands[i]
    return Matrix(tuple((Id(s) if k == i else ZeroM(s, t),)
                        for k, t in enumerate(summands)))


def Chi(a: SpaceExpr, b: SpaceExpr) -> MorExpr:
    """The Seely map S(a) (x) S(b) -> S(a (+) b): embed the generators of
    each factor, then multiply the two monomials."""
    return compose(TensorM(SymF(inj(0, (a, b))), SymF(inj(1, (a, b)))),
                   Mult(direct_sum(a, b)))


def proj(i: int, summands: tuple) -> Matrix:
    """Projection of direct_sum(*summands) onto summands[i]: a row matrix."""
    _require(0 <= i < len(summands), "projection index out of range")
    s = summands[i]
    return Matrix((tuple(Id(s) if k == i else ZeroM(t, s)
                         for k, t in enumerate(summands)),))


def linear_map_from_matrix(dom: SpaceExpr, cod: SpaceExpr, entries) -> LinearMap:
    """Columns are images of the domain basis vectors, in global order."""
    _require(is_sym_free(dom) and is_sym_free(cod),
             "matrix presentation needs Sym-free endpoints")
    dbasis = enumerate_basis(dom, 0)
    cbasis = enumerate_basis(cod, 0)
    rows = [list(r) for r in entries]
    if len(rows) != len(cbasis) or any(len(r) != len(dbasis) for r in rows):
        raise EndpointMismatchError(
            f"need a {len(cbasis)}x{len(dbasis)} matrix, got "
            f"{len(rows)}x{len(rows[0]) if rows else 0}")
    images = []
    for j, dbv in enumerate(dbasis):
        col = {cbasis[i]: rows[i][j] for i in range(len(cbasis))}
        images.append((dbv, element(cod, col)))
    return LinearMap(dom, cod, tuple(images))

