"""Finite atom posets with top and bottom, products, and monotone maps.

Posets are interned: building the same poset twice (same element order, same
order relation) returns the same object, so ``is`` is a valid "same poset"
test everywhere else in the package.  Element order is part of the identity.
A poset's elements and order never change.  Two fields fill in later: the
dual map on first use, and the factors, which :func:`product` attaches to a
poset that was already interned without them (resetting the dual map).  The
intern table relies on the GIL for consistency, which is fine for CPython.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Optional


class NotAPartialOrder(ValueError):
    """The relation has a cycle, so its closure violates antisymmetry."""


class NoTopOrBottom(ValueError):
    """The poset lacks a maximum or a minimum element."""


class UnknownPoset(ValueError):
    """Name does not denote a builtin poset."""


class SupremumUndefined(ValueError):
    """A requested join does not exist in the poset."""


_UNSET = object()

_INTERN: dict[tuple, "AtomPoset"] = {}


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class AtomPoset:
    """A finite partial order on named elements, with top and bottom.

    The order is stored as dense upward bitmask rows after transitive
    closure, so ``le`` is O(1).  Use :func:`make_poset`, :func:`builtin`,
    or :func:`product` to build instances; the constructor is internal.
    """

    __slots__ = ("elements", "top", "bot", "_index", "_up", "_row_index",
                 "_components", "_dual")

    def __init__(self, elements: tuple[str, ...], up: tuple[int, ...],
                 top: str, bot: str):
        self.elements = elements
        self._index = {e: i for i, e in enumerate(elements)}
        self._up = up
        # up-rows are distinct, since the order is antisymmetric
        self._row_index = {row: i for i, row in enumerate(up)}
        self.top = top
        self.bot = bot
        self._components = None
        self._dual = _UNSET

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        b = builtin_name(self)
        if b is not None:
            return f"AtomPoset({b})"
        return f"AtomPoset({len(self.elements)} elements)"

    def le(self, x: str, y: str) -> bool:
        """Return whether x <= y."""
        return bool(self._up[self._index[x]] >> self._index[y] & 1)

    def join2(self, x: str, y: str) -> str:
        """Least upper bound of x and y.

        Their upper bounds are the AND of their up-rows, and that set has a
        least element exactly when it is that element's up-row.
        """
        up, index = self._up, self._index
        i = self._row_index.get(up[index[x]] & up[index[y]])
        if i is None:
            raise SupremumUndefined(f"join of {x!r} and {y!r} does not exist")
        return self.elements[i]

    def is_lattice(self) -> bool:
        if self._components is not None:   # joins are taken componentwise
            return all(f.is_lattice() for f in self._components)
        rows = self._row_index
        return all(a & b in rows for a in self._up for b in self._up)

    @property
    def components(self) -> Optional[tuple["AtomPoset", "AtomPoset"]]:
        """The two factors of a product poset, or None for any other."""
        return self._components

    def pair(self, x: str, y: str) -> str:
        """Element name of (x, y) in a product poset."""
        if self._components is None:
            raise ValueError("not a product poset")
        a, b = self._components
        return self.elements[a._index[x] * len(b) + b._index[y]]

    def split(self, name: str) -> tuple[str, str]:
        if self._components is None:
            raise ValueError("not a product poset")
        a, b = self._components
        i, j = divmod(self._index[name], len(b))
        return a.elements[i], b.elements[j]

    def dual_atom_map(self) -> Optional[dict[str, str]]:
        """An order-reversing involution, or None if the search fails.

        The search is deliberately simple: swap top and bottom, keep every
        other element fixed, and for products recurse componentwise.  This
        covers Bool, P3, P4, antichain posets, and their products; posets
        that are self-dual only under a nontrivial relabeling come back None.
        """
        if self._dual is _UNSET:
            self._dual = self._find_dual()
        return self._dual

    def _find_dual(self) -> Optional[dict[str, str]]:
        if self._components is not None:
            a, b = self._components
            da, db = a.dual_atom_map(), b.dual_atom_map()
            if da is None or db is None:
                return None
            return {self.pair(x, y): self.pair(da[x], db[y])
                    for x in a.elements for y in b.elements}
        cand = {e: e for e in self.elements}
        cand[self.top] = self.bot
        cand[self.bot] = self.top
        for x in self.elements:
            for y in self.elements:
                if self.le(x, y) != self.le(cand[y], cand[x]):
                    return None
        return cand


def make_poset(elements: Iterable[str], le: Iterable[tuple[str, str]]) -> AtomPoset:
    """Build (or intern) a poset from elements and a generating relation.

    The reflexive-transitive closure is computed here; ``le`` may be any
    generating set of pairs.  Raises NotAPartialOrder on cycles and
    NoTopOrBottom when a maximum or minimum is missing.
    """
    elements = tuple(elements)
    if not elements:
        raise NoTopOrBottom("empty poset")
    if len(set(elements)) != len(elements):
        raise ValueError("duplicate element names")
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    up = [1 << i for i in range(n)]
    for x, y in le:
        if x not in index or y not in index:
            raise ValueError(f"relation mentions unknown element {x!r} or {y!r}")
        up[index[x]] |= 1 << index[y]
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    for i in range(n):
        for j in _bits(up[i]):
            if j != i and up[j] >> i & 1:
                raise NotAPartialOrder(
                    f"{elements[i]!r} and {elements[j]!r} are in a cycle")
    tops = [i for i in range(n) if all(up[j] >> i & 1 for j in range(n))]
    bots = [i for i in range(n) if up[i] == (1 << n) - 1]
    if len(tops) != 1 or len(bots) != 1:
        raise NoTopOrBottom("poset must have a unique top and bottom")
    return _intern(elements, tuple(up), elements[tops[0]], elements[bots[0]])


def _intern(elements, up, top, bot) -> AtomPoset:
    key = (elements, up)
    have = _INTERN.get(key)
    if have is None:
        have = AtomPoset(elements, up, top, bot)
        _INTERN[key] = have
    return have


_BUILTIN = {
    "Bool": make_poset(("bot", "top"), (("bot", "top"),)),
    "P3": make_poset(("bot", "a", "top"), (("bot", "a"), ("a", "top"))),
    "P4": make_poset(("bot", "a", "b", "top"),
                     (("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top"))),
}


def builtin(name: str) -> AtomPoset:
    """One of the builtin posets: Bool, P3 (chain), P4 (diamond)."""
    if not isinstance(name, str) or name not in _BUILTIN:
        raise UnknownPoset(f"unknown builtin poset {name!r}")
    return _BUILTIN[name]


def builtin_name(poset: AtomPoset) -> Optional[str]:
    for name, p in _BUILTIN.items():
        if p is poset:
            return name
    return None


def antichain_poset(n: int) -> AtomPoset:
    """Top, bottom, and n pairwise incomparable atoms a1..an."""
    atoms = [f"a{i}" for i in range(1, n + 1)]
    le = [("bot", x) for x in atoms] + [(x, "top") for x in atoms]
    le.append(("bot", "top"))
    return make_poset(["bot", *atoms, "top"], le)


@cache
def product(a: AtomPoset, b: AtomPoset) -> AtomPoset:
    """Componentwise product, cached on the pair of factors.

    Element (x, y) is named "(x,y)" and numbered x-major, at index
    i * len(b) + j for x = a.elements[i] and y = b.elements[j]; ``pair``,
    ``split`` and compiled payoff tables read that order.
    """
    elements = tuple(f"({x},{y})" for x in a.elements for y in b.elements)
    nb = len(b.elements)
    up = []
    for arow in a._up:
        # the row of (x, y) is brow shifted to the block of each element of
        # x's up-set; blocks are nb bits wide, so one product places them all
        spread = sum(1 << i * nb for i in _bits(arow))
        up.extend(brow * spread for brow in b._up)
    p = _intern(elements, tuple(up),
                f"({a.top},{b.top})", f"({a.bot},{b.bot})")
    if p._components is None:
        p._components = (a, b)
        p._dual = _UNSET
    return p


# A few bytes of nested products ask for exponentially many elements, so a
# product read from a file is capped (at P4^6) before it is built.
MAX_READ_PRODUCT = 4096


def read_product(a: AtomPoset, b: AtomPoset) -> AtomPoset:
    """product(a, b) for a poset read from a file; ValueError past the cap."""
    size = len(a) * len(b)
    if size > MAX_READ_PRODUCT:
        raise ValueError(f"a product of {size} elements exceeds the cap of "
                         f"{MAX_READ_PRODUCT} for a poset read from a file")
    return product(a, b)


def poset_to_json(p: AtomPoset) -> dict:
    name = builtin_name(p)
    if name is not None:
        return {"builtin": name}
    if p.components is not None:
        return {"product": [poset_to_json(f) for f in p.components]}
    le = []
    for i, x in enumerate(p.elements):
        for j in _bits(p._up[i]):
            if j != i:
                le.append([x, p.elements[j]])
    return {"elements": list(p.elements), "le": le}


def poset_from_json(obj) -> AtomPoset:
    if not isinstance(obj, dict):
        raise ValueError("poset must be a JSON object")
    if "builtin" in obj:
        return builtin(obj["builtin"])
    if "product" in obj:
        factors = obj["product"]
        if not (isinstance(factors, list) and len(factors) == 2):
            raise ValueError("poset 'product' must be a list of two posets")
        return read_product(*map(poset_from_json, factors))
    if "elements" not in obj:
        raise ValueError(
            "poset object needs 'builtin', 'product' or 'elements'")
    elements, le = obj["elements"], obj.get("le", [])
    if not (isinstance(elements, list)
            and all(isinstance(e, str) for e in elements)):
        raise ValueError("poset elements must be a list of strings")
    if not (isinstance(le, list)
            and all(isinstance(pr, list) and len(pr) == 2
                    and all(isinstance(e, str) for e in pr) for pr in le)):
        raise ValueError("poset 'le' must be a list of [lower, upper] pairs")
    return make_poset(elements, [tuple(pr) for pr in le])


class MonotoneFn:
    """A monotone map between atom posets, given by an explicit table.

    Totality and monotonicity are checked at construction time.
    """

    __slots__ = ("domain", "codomain", "table")

    def __init__(self, domain: AtomPoset, codomain: AtomPoset,
                 table: dict[str, str]):
        for x in domain.elements:
            if x not in table:
                raise ValueError(f"table is missing {x!r}")
            if table[x] not in codomain:
                raise ValueError(f"table value {table[x]!r} not in codomain")
        if len(table) != len(domain.elements):
            raise ValueError("table mentions elements outside the domain")
        for i, x in enumerate(domain.elements):
            fx = table[x]
            for j in _bits(domain._up[i]):
                if not codomain.le(fx, table[domain.elements[j]]):
                    raise ValueError(
                        f"not monotone: {x!r} <= {domain.elements[j]!r} but "
                        f"{fx!r} !<= {table[domain.elements[j]]!r}")
        self.domain = domain
        self.codomain = codomain
        self.table = dict(table)

    def __call__(self, x: str) -> str:
        return self.table[x]

    def __repr__(self) -> str:
        return f"MonotoneFn({len(self.domain)} -> {len(self.codomain)})"


@cache
def projector_f(a: AtomPoset) -> MonotoneFn:
    """P3 x A -> A: top goes to top, bot to bot, and 'a' selects the A part."""
    p3 = builtin("P3")
    dom = product(p3, a)
    table = {}
    for x in p3.elements:
        for y in a.elements:
            table[dom.pair(x, y)] = (
                a.top if x == "top" else a.bot if x == "bot" else y)
    return MonotoneFn(dom, a, table)


@cache
def projector_g(a: AtomPoset) -> MonotoneFn:
    """(P4 x A) x A -> A: top/bot are absorbing; 'a' picks the first A
    component and 'b' the second."""
    p4 = builtin("P4")
    inner = product(p4, a)
    dom = product(inner, a)
    table = {}
    for x in p4.elements:
        for y in a.elements:
            for z in a.elements:
                name = dom.pair(inner.pair(x, y), z)
                table[name] = (a.top if x == "top" else
                               a.bot if x == "bot" else
                               y if x == "a" else z)
    return MonotoneFn(dom, a, table)


@cache
def identity_fn(a: AtomPoset) -> MonotoneFn:
    return MonotoneFn(a, a, {e: e for e in a.elements})
