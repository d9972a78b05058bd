"""Monotone set coloring games: payoffs, positions, evaluation, combinators.

A board is a finite carrier of named cells plus a monotone payoff mapping
final colorings (every cell black or white) into an atom poset.  The value
of a position is computed by the usual recursion: the left options color
one empty cell black, the right options color one white, and exhausted
boards score by the payoff.  A composition whose children read disjoint
cells is valued from its children's values, as the image of their sum
(algebra.map_sum), and one whose children overlap from the values of its
groups of children that share cells, so the recursion runs only on the
other nodes and on those groups (see eval_position).  Positions are
written as strings over '1' (black), '0' (white) and '.' (empty), indexed by cell order; the
aliases ●/⊤ (black), ○/◦/⊥ (white) and ⋆/* (empty) are accepted on input.

Payoffs are expression trees rather than bare tables, so boards are
stored and written compactly: a constant, a threshold family (per atom,
an antichain of required-black cell sets), composition along a monotone
function, or dualization.  Composition is how gadget boards act on
sub-boards; the children's cell embeddings may overlap, which the shared
choice construction exploits to keep carriers small.  A payoff is scored
one way, by restriction to a position: ``compiled(n, black, white)``
compiles the tree bottom-up into a flat list of the payoff at every
coloring of the empty cells, each outcome given by its index in the
poset's element order; ``value_at`` names the one entry of a finished
coloring.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, reduce
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .algebra import GadgetKind, map_sum
from .games import (
    Game,
    NoDualityMap,
    PosetMismatch,
    SolverContext,
    atomic,
    composite,
    dual,
)
from .games import simplify as simplify_game
from .poset import (
    AtomPoset,
    MonotoneFn,
    SupremumUndefined,
    builtin,
    identity_fn,
    poset_from_json,
    poset_to_json,
    product,
    projector_f,
    projector_g,
    read_product,
)


class CarrierTooLarge(ValueError):
    """The requested computation is exponential in the carrier size."""


class BoardFormatError(ValueError):
    """Malformed board JSON."""


DEFAULT_EVAL_CAP = 16


def normalize_position(text: str) -> str:
    out = []
    for ch in text:
        if ch in "1●⊤":
            out.append("1")
        elif ch in "0○◦⊥":
            out.append("0")
        elif ch in ".⋆*":
            out.append(".")
        elif ch.isspace():
            continue
        else:
            raise ValueError(f"bad position character {ch!r}")
    return "".join(out)


def _position_masks(position: str, n: int) -> tuple[int, int]:
    """The masks of the black and the white cells of a position on n cells."""
    p = normalize_position(position)
    if len(p) != n:
        raise ValueError("position length differs from carrier size")
    black = sum(1 << i for i, c in enumerate(p) if c == "1")
    white = sum(1 << i for i, c in enumerate(p) if c == "0")
    return black, white


# -- payoff expressions -------------------------------------------------------

def value_at(payoff: PayoffExpr, black: int, n: int) -> str:
    """The outcome, by name, of the coloring of n cells whose black cells
    are the mask black: the one-entry restriction of the payoff."""
    white = ((1 << n) - 1) & ~black
    return payoff.poset.elements[payoff.compiled(n, black, white)[0]]


@dataclass(frozen=True)
class Const:
    """Constant payoff; fits any carrier, including the empty one."""

    poset: AtomPoset
    atom: str

    def __post_init__(self):
        if self.atom not in self.poset:
            raise ValueError(f"atom {self.atom!r} not in poset")

    def fits(self, n: int) -> bool:
        return True

    value_at = value_at

    def compiled(self, n: int, black: int = 0, white: int = 0) -> list[int]:
        empty = n - (black | white).bit_count()
        return [self.poset._index[self.atom]] * (1 << empty)


def pattern_masks(patterns, n: int) -> tuple[int, ...]:
    """Masks of a list of n-character '0'/'1' strings, character i being
    bit i; '1' marks a cell required black.  The required sets must form
    an antichain, so a condition has one spelling.  Raises ValueError."""
    if not isinstance(patterns, (list, tuple)):
        raise ValueError(f"patterns must be a list of strings, "
                         f"not {patterns!r}")
    masks: list[int] = []
    for s in patterns:
        if not isinstance(s, str) or len(s) != n or set(s) - {"0", "1"}:
            raise ValueError(f"bad pattern {s!r} for {n} cells")
        m = sum(1 << i for i, c in enumerate(s) if c == "1")
        if any(m & o in (m, o) for o in masks):
            raise ValueError("patterns are not an antichain")
        masks.append(m)
    return tuple(masks)


def mask_pattern(mask: int, n: int) -> str:
    """The pattern string of a mask over n cells; inverse of pattern_masks."""
    return "".join("1" if mask >> i & 1 else "0" for i in range(n))


@dataclass(frozen=True)
class Threshold:
    """Per-atom antichains of required-black cell sets.

    The value of a coloring is the join of all atoms whose requirement is
    met by some listed set.  Restricted to lattice posets so the join is
    total; the board posets in actual use (Bool, the 3-chain, the diamond,
    bounded antichains, and their products) all qualify.
    """

    poset: AtomPoset
    n: int
    sets: dict[str, tuple[str, ...]] = field(default_factory=dict)
    _masks: tuple[tuple[str, tuple[int, ...]], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.poset.is_lattice():
            raise SupremumUndefined(
                "threshold payoffs need a lattice poset; use composition "
                "for anything else")
        masks = []
        for a, patterns in self.sets.items():
            if a not in self.poset:
                raise ValueError(f"atom {a!r} not in poset")
            try:
                masks.append((a, pattern_masks(patterns, self.n)))
            except ValueError as e:
                raise ValueError(f"patterns for {a!r}: {e}") from None
        object.__setattr__(self, "sets",
                           {a: tuple(ps) for a, ps in self.sets.items()})
        object.__setattr__(self, "_masks", tuple(masks))

    def fits(self, n: int) -> bool:
        return n == self.n

    value_at = value_at

    def compiled(self, n: int, black: int = 0, white: int = 0) -> list[int]:
        # requirements meeting a white cell are dropped and the rest read on
        # the empty cells, closed up; they need not stay an antichain
        free = [i for i in range(n) if not (black | white) >> i & 1]
        table = [self.poset.bot] * (1 << len(free))
        for a, masks in self._masks:
            reqs = [sum(1 << j for j, i in enumerate(free) if req >> i & 1)
                    for req in masks if not req & white]
            for s in range(len(table)):
                if any(req & s == req for req in reqs):
                    table[s] = self.poset.join2(table[s], a)
        index = self.poset._index
        return [index[v] for v in table]


@dataclass(frozen=True)
class Compose:
    """A monotone function applied to sub-payoffs on embedded cells.

    children is a tuple of (payoff, cell-index tuple); the function's
    domain must be the left-folded product of the children's posets.
    Embeddings are injective per child but may overlap across children.
    """

    fn: MonotoneFn
    children: tuple[tuple["PayoffExpr", tuple[int, ...]], ...]

    def __post_init__(self):
        if not self.children:
            raise ValueError("composition needs at least one child")
        doms = [child.poset for child, _ in self.children]
        if reduce(product, doms) is not self.fn.domain:
            raise PosetMismatch(
                "function domain is not the product of the children")
        for child, emb in self.children:
            if len(set(emb)) != len(emb):
                raise ValueError("child embedding repeats a cell")
            if not child.fits(len(emb)):
                raise ValueError("child payoff does not fit its embedding")

    @property
    def poset(self) -> AtomPoset:
        return self.fn.codomain

    def fits(self, n: int) -> bool:
        return all(all(0 <= i < n for i in emb) for _, emb in self.children)

    value_at = value_at

    def compiled(self, n: int, black: int = 0, white: int = 0) -> list[int]:
        # each child is restricted through its embedding; spread[s] is the
        # child's coloring of its empty cells at the carrier's coloring s of
        # its own, built by doubling over the carrier's empty cells (a cell
        # the child does not read repeats it), so any injective embedding
        # reads right, overlapping ones too; the children's values are then
        # paired pointwise, (x, y) at x * len(child poset) + y, which is how
        # product numbers them
        free = [i for i in range(n) if not (black | white) >> i & 1]
        element = None
        for child, emb in self.children:
            reads = [i for i in emb if not (black | white) >> i & 1]
            bit_of = {i: 1 << j for j, i in enumerate(reads)}
            table = child.compiled(len(emb), *_child_masks(emb, black, white))
            spread = [0]
            for i in free:
                bit = bit_of.get(i)
                spread += [s | bit for s in spread] if bit else spread
            if element is None:
                element = [table[s] for s in spread]
            else:
                k = len(child.poset)
                element = [x * k + table[s] for x, s in zip(element, spread)]
        index, fn = self.poset._index, self.fn.table
        image = [index[fn[x]] for x in self.fn.domain.elements]
        return [image[x] for x in element]


@dataclass(frozen=True)
class Dual:
    """Order-reverse of the child payoff at the color-swapped position."""

    child: "PayoffExpr"

    def __post_init__(self):
        if self.child.poset.dual_atom_map() is None:
            raise NoDualityMap("poset has no order-reversing self-map")

    @property
    def poset(self) -> AtomPoset:
        return self.child.poset

    def fits(self, n: int) -> bool:
        return self.child.fits(n)

    value_at = value_at

    def compiled(self, n: int, black: int = 0, white: int = 0) -> list[int]:
        # the child sees the fixed cells with their colors swapped, and the
        # swapped coloring of entry s is full & ~s, i.e. full - s
        poset = self.poset
        dual = poset.dual_atom_map()
        swap = [poset._index[dual[x]] for x in poset.elements]
        table = self.child.compiled(n, white, black)
        return [swap[v] for v in reversed(table)]


# Each payoff class scores colorings one way: compiled(n, black, white), for
# disjoint masks of cells fixed black and white, lists element indices into
# poset.elements over the other cells, entry s coloring the j-th by bit j.
# Each class binds value_at in its own dict, where perfbench/spans.py's trace
# hooks look for it.
PayoffExpr = Const | Threshold | Compose | Dual


# -- boards -------------------------------------------------------------------

@dataclass(frozen=True)
class SetColoringGame:
    poset: AtomPoset
    cells: tuple[str, ...]
    payoff: PayoffExpr

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        if len(set(self.cells)) != len(self.cells):
            raise ValueError("duplicate cell names")
        if self.payoff.poset is not self.poset:
            raise PosetMismatch("payoff lands in a different poset")
        if not self.payoff.fits(len(self.cells)):
            raise ValueError("payoff does not fit the carrier")

    @property
    def size(self) -> int:
        return len(self.cells)

    def __repr__(self) -> str:
        return (f"SetColoringGame({len(self.cells)} cells over "
                f"{self.poset!r})")


def payoff_eval(S: SetColoringGame, position: str) -> str:
    """Score a finished coloring (no empty cells allowed): the payoff's
    ``value_at``, its one-entry restriction."""
    black, white = _position_masks(position, S.size)
    if (black | white).bit_count() != S.size:
        raise ValueError("position still has empty cells")
    return S.payoff.value_at(black, S.size)


# blocks of 2, 4 and 8 bytes are taken every other one by a strided view
_UNIT_FORMAT = {2: "H", 4: "I", 8: "Q"}


@cache
def _split_plan(size: int, width: int) -> tuple[tuple, ...]:
    """How to split a coded table of this many bytes, one step per cell.

    Step i takes the blocks of 2^i entries (``block`` bytes) whose cell-i
    bit is 1 (black) and 0 (white), as a triple (black, white, fmt):
    slice objects when fmt is None, a unit format to cast a memoryview to
    and take every other unit of when fmt is a letter, and itemgetters of
    the block slices, whose results are joined, when fmt is "".  One slice
    is enough for blocks of one byte and for the top cell; the strided
    view serves 2-, 4- and 8-byte blocks with more than two to a half.
    Plans are built once per process and shared.
    """
    steps = []
    block = width
    while block < size:
        span = 2 * block
        if block == 1:
            step = (slice(1, None, 2), slice(0, None, 2), None)
        elif span == size:
            step = (slice(block, None), slice(None, block), None)
        elif block in _UNIT_FORMAT and size > 2 * span:
            step = (None, None, _UNIT_FORMAT[block])
        else:
            step = (itemgetter(*[slice(j, j + block)
                                 for j in range(block, size, span)]),
                    itemgetter(*[slice(j, j + block)
                                 for j in range(0, size, span)]), "")
        steps.append(step)
        block = span
    return tuple(steps)


def eval_board(ctx: SolverContext, S: SetColoringGame,
               simplify: bool = True,
               max_cells: int = DEFAULT_EVAL_CAP) -> Game:
    """The combinatorial value of the empty board: eval_position at the
    all-empty position, so a disjoint composition is valued from its
    children, and only thresholds, constants, groups of children that
    share cells, and compositions that leave a cell unread are
    brute-forced, each under max_cells.

    With simplify=True (the default) every position's value is simplified
    as it is built, which keeps the games small; simplify=False returns the
    raw value tree, which the structural sum/map identities hold for
    exactly.
    """
    return eval_position(ctx, S, "." * S.size, simplify, max_cells)


def eval_position(ctx: SolverContext, S: SetColoringGame, position: str,
                  simplify: bool = True,
                  max_cells: int = DEFAULT_EVAL_CAP) -> Game:
    """Value of an arbitrary partial coloring of the board.

    The payoff tree, restricted to the position, is valued by these
    structural rules before anything is brute-forced:

    - A ``Compose`` whose children's empty cells are pairwise disjoint
      and together are the position's empty cells, in any order, has the
      value ``map_game(fn, sum_games of the child values, folded from the
      left)``, each child valued at its restriction of the position.
      ``algebra.map_sum`` builds that image straight from the tuples of
      the children's positions, so the sum is never interned; with
      simplify=True the image is simplified once.
    - A ``Compose`` whose children together read every empty cell but
      share some, such as a shared choice, with more than _GROUP_ABOVE
      empty cells, is split at the connected components of its children,
      two children being joined when they read a common empty cell.  A
      component of one child is valued alone, by these rules; a larger
      one is a part, a ``Compose`` under ``identity_fn`` of its
      children's product on the union of their cells.  The node's value
      is the image, under fn read through that regrouping, of the sum of
      the components' values.  A shared choice's two gadget cells, and
      any sub-board no other child reads, thus leave the part.
    - A ``Dual`` has the ``games.dual`` of its child's value at the
      color-swapped position.
    - Every other node (a ``Threshold``, a ``Const``, a ``Compose`` that
      leaves an empty cell unread, or one whose children all hang
      together or have few empty cells) is a part, brute-forced on its
      residual payoff table (see _eval_part); max_cells caps each part's
      empty cells, not the carrier.  A part's value is kept for the
      process, keyed on its poset, simplify and residual table, and read
      back by every later evaluation whatever its context.

    The rules are exact on raw trees.  Every move colors one empty cell,
    which one child reads, so it moves that child's restricted position
    and no other: the position is the sum of its children's positions,
    scored through fn at the end, and by induction on the empty cells its
    left (right) options are the images under fn of the sums with one
    child's left (right) option, which is the tree map_game(fn, sum_games
    ...) builds, leaf for leaf.  The component rule is the same argument
    with components in place of children: each empty cell is read by the
    children of exactly one component, so a move moves that component's
    restricted position and no other, and a component's children, read
    together under identity_fn, give the product of their outcomes, which
    the regrouped fn maps as fn maps the children's.  Option sets are
    deduplicated and sorted by uid, so the trees are the same interned
    objects wherever the children's cells sit in the carrier, and the
    image of a tuple of the children's positions is the image of their
    sum's position, node for node (see map_sum).  A ``Dual`` board's black
    move is its child's white move and its outcomes are reversed, which
    is how games.dual rebuilds the child's value.  A part's value depends
    on its poset and residual table alone, and the kept value is exact for the
    reason ``Game.simple`` is: expanding the same table again in the same
    process meets only games that already exist, in the same order, so
    it returns the same object.  With simplify=True each value
    is equivalent to its raw one: every value in play is passable (board
    positions are monotone, hence passable, and simplification keeps
    passability); sums respect equivalence of passable summands (P.
    Selinger, *On the combinatorial value of Hex positions*, 2021; tested
    in criterion 9), and so does map_game
    (test_map_respects_equivalence_of_passable_games), by congruence; dual
    reverses the order, so it respects equivalence too.

    A cell is dead in a part's table when its two colorings leave the same
    table (Björnsson, Hayward, Johanson and van Rijswijck, *Dead cell
    analysis in Hex and the Shannon game*, 2007; Selinger 2021).  With
    simplify=True a table with a dead cell takes the value of its filled
    table, the table left by its first dead cell, and no node is built for
    it.  This is sound up to equivalence.  Let P' be P with its dead cell
    c filled.  A cell other than c is dead in P iff it is dead in P', and
    c stays dead in every option of P, so by induction each option of P
    that colors a cell d other than c is equivalent to the option of P'
    that colors d, and by option congruence P is equivalent to {P', P'^L
    | P', P'^R}.  That game is equivalent to P': in the clauses of leq,
    both ways, every option of P' is matched with itself (leq is
    reflexive), and the two added options P' need tri(P', P'), which
    holds because P' is passable: every payoff class is monotone by
    construction, and a monotone position is passable.  The memoized
    simplified evaluator already rests on option congruence, so this
    assumes nothing more.  With simplify=False the reduction is off, so a
    dead cell's two options share one value but stay in the tree: the
    structural sum and map identities hold for the raw trees exactly.

    ``ctx.stats["eval_parts"]`` grows by the number of parts brute-forced,
    ``ctx.stats["eval_groups"]`` by the number of compositions split at
    their components, and ``ctx.stats["eval_flat_cells"]`` is the most
    empty cells of any part, a running maximum.
    ``ctx.stats["eval_residuals"]`` grows by the number of distinct tables
    expanded into a node (the one-entry tables included), and
    ``ctx.stats["eval_dead"]`` by the number settled by a dead cell.  A
    part read back from the process counts in ``ctx.stats["eval_reused"]``
    and adds the residual and dead counts of its first expansion, so no
    count depends on what ran before.  A negative max_cells raises
    ValueError.
    """
    if max_cells < 0:
        raise ValueError(f"max_cells must be 0 or more, not {max_cells}")
    black, white = _position_masks(position, S.size)
    return _value(ctx, S.payoff, S.cells, black, white, simplify, max_cells)


def _child_masks(emb: tuple[int, ...], black: int,
                 white: int) -> tuple[int, int]:
    """The black and white masks a child reads through its embedding."""
    return (sum(1 << j for j, i in enumerate(emb) if black >> i & 1),
            sum(1 << j for j, i in enumerate(emb) if white >> i & 1))


# A composition whose children overlap is split at its groups of children
# that share cells only when it has more empty cells than this: below it
# the glue (the image of the groups' sum, a simplify) costs more than the
# brute force it saves.  Measured with the image built by map_sum, on
# sc_shared_choice boards of two random P4 threshold boards, 60 boards a
# size, a fresh context and no kept part values a board, Python 3.11 on a
# 2-core host: brute force against split, in ms a board, was 0.27-0.29
# against 0.46 at 5 cells, 0.53-0.55 against 0.87-1.1 at 6, 0.94 against
# 1.1-1.3 at 7, 2.1 against 2.2-2.8 at 8, and 4.1-4.7 against 4.1 at 9
# and 12.6-13.1 against 11.4-11.5 at 10.  The realize_verify benchmark
# timed guards of 4, 5, 6 and 8 alike (539-600 ops/s, three runs each).
# Splitting at every size made it 20% slower when the sum was built
# before its image.
_GROUP_ABOVE = 6


def _value(ctx: SolverContext, payoff: PayoffExpr, cells: tuple[str, ...],
           black: int, white: int, simplify: bool, max_cells: int) -> Game:
    """The value of the payoff on these cells at the position (black,
    white), by eval_position's structural rules."""
    if isinstance(payoff, Dual):
        return dual(_value(ctx, payoff.child, cells, white, black, simplify,
                           max_cells))
    if isinstance(payoff, Compose):
        fixed = black | white
        reads = [[i for i in emb if not fixed >> i & 1]
                 for _, emb in payoff.children]
        read = sorted(i for r in reads for i in r)
        empty = [i for i in range(len(cells)) if not fixed >> i & 1]
        if read != empty:   # the children overlap or leave a cell unread
            if (len(empty) <= _GROUP_ABOVE or len(set(read)) != len(empty)
                    or len(groups := _overlap_groups(reads)) == 1):
                return _eval_part(ctx, payoff, cells, black, white, simplify,
                                  max_cells)
            ctx.stats["eval_groups"] += 1
            payoff = _regroup(payoff, groups)
        parts = [_value(ctx, child, tuple(cells[i] for i in emb),
                        *_child_masks(emb, black, white), simplify, max_cells)
                 for child, emb in payoff.children]
        g = map_sum(payoff.fn, parts, {})
        return simplify_game(ctx, g) if simplify else g
    return _eval_part(ctx, payoff, cells, black, white, simplify, max_cells)


def _overlap_groups(reads: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """The connected components of the children, two children being joined
    when they read a common cell: tuples of child indices, each in order,
    ordered by their first child."""
    groups: list[tuple[set[int], list[int]]] = []
    for k, r in enumerate(reads):
        cells, members, apart = set(r), [k], []
        for group in groups:
            if group[0] & cells:
                cells |= group[0]
                members += group[1]
            else:
                apart.append(group)
        groups = apart + [(cells, members)]
    return tuple(sorted(tuple(sorted(m)) for _, m in groups))


def _regroup(payoff: Compose, groups: tuple[tuple[int, ...], ...]) -> Compose:
    """The same payoff with each group of children as one child.

    A group of one child keeps it; a larger group becomes a ``Compose``
    under ``identity_fn`` of its children's product, on the union of their
    cells, in carrier order.  The function is payoff.fn read through the
    regrouping (_regrouped_fn).
    """
    children = []
    for group in groups:
        if len(group) == 1:
            children.append(payoff.children[group[0]])
            continue
        kids = [payoff.children[k] for k in group]
        cells = sorted({i for _, emb in kids for i in emb})
        at = {i: j for j, i in enumerate(cells)}
        dom = reduce(product, [child.poset for child, _ in kids])
        children.append((Compose(identity_fn(dom), tuple(
            (child, tuple(at[i] for i in emb)) for child, emb in kids)),
            tuple(cells)))
    fn = _regrouped_fn(payoff.fn, tuple(c.poset for c, _ in payoff.children),
                       groups)
    return Compose(fn, tuple(children))


@cache
def _regrouped_fn(fn: MonotoneFn, posets: tuple[AtomPoset, ...],
                  groups: tuple[tuple[int, ...], ...]) -> MonotoneFn:
    """fn on the product of the groups' products, each folded from the left.

    A product numbers its elements x-major (poset.product), so an element
    of a left-folded product is a mixed-radix number whose last factor
    varies fastest.  Each element of the new domain is taken apart into
    its groups' elements, those into their children's, and fn reads the
    children in their own order.  Built once per function and grouping.
    """
    sizes = [len(p) for p in posets]
    group_doms = [reduce(product, [posets[k] for k in g]) for g in groups]
    dom = reduce(product, group_doms)
    table = {}
    for e, name in enumerate(dom.elements):
        digit = [0] * len(posets)
        for group, gd in zip(reversed(groups), reversed(group_doms)):
            e, x = divmod(e, len(gd))
            for k in reversed(group):
                x, digit[k] = divmod(x, sizes[k])
        orig = 0
        for size, d in zip(sizes, digit):
            orig = orig * size + d
        table[name] = fn.table[fn.domain.elements[orig]]
    return MonotoneFn(dom, fn.codomain, table)


# Every part's value, kept for the process like Game.simple and exact for
# the same reason: (poset, simplify, residual table) -> (value, tables
# expanded, tables a dead cell settled).
_PARTS: dict[tuple[AtomPoset, bool, bytes], tuple[Game, int, int]] = {}


def _eval_part(ctx: SolverContext, payoff: PayoffExpr,
               cells: tuple[str, ...], black: int, white: int,
               simplify: bool, max_cells: int) -> Game:
    """The value of one part, by brute force over its residual tables.

    A position's value depends only on the payoff restricted to its empty
    cells, so positions are memoized by that table: entry s is the payoff
    when the empty cells are colored by the bits of s (bit j for the j-th
    empty cell), each outcome written big-endian as its element index, in
    as many bytes as the poset's largest index needs.  Coloring the i-th
    remaining cell keeps every other block of 2^i entries: the odd blocks
    when it goes black, the even ones when it goes white.  The payoff is
    compiled once per call, restricted to the position's colored cells, so
    the table has 2^(empty cells) entries.  The one-entry tables seed the
    memo with the outcome atoms, in order of first appearance, and each
    option's table is looked up in the memo before it is recursed into.
    The steps that take a table apart are planned once per table size (see
    _split_plan).  Options are visited black then white, from the first
    empty cell up, so games are interned in the same order on every run.
    With simplify=True a table is split at its empty cells before any
    option is recursed into, and a table with a dead cell takes the value
    of its filled table (eval_position's docstring has the proof).  The
    value is kept in _PARTS, and a table met again in the process is read
    back from there, after the cap is checked.
    """
    n = len(cells)
    empty = [c for i, c in enumerate(cells) if not (black | white) >> i & 1]
    if len(empty) > max_cells:
        raise CarrierTooLarge(f"{len(empty)} empty cells exceeds the cap of "
                              f"{max_cells} in the part on "
                              f"{' '.join(empty)}")
    stats = ctx.stats
    stats["eval_parts"] += 1
    stats["eval_flat_cells"] = max(stats["eval_flat_cells"], len(empty))
    pay = payoff.compiled(n, black, white)
    poset = payoff.poset
    width = ((len(poset) - 1).bit_length() + 7) // 8 or 1
    table = b"".join([v.to_bytes(width, "big") for v in pay])
    key = (poset, simplify, table)
    hit = _PARTS.get(key)
    if hit is not None:
        out, residuals, dead = hit
        stats["eval_reused"] += 1
        stats["eval_residuals"] += residuals
        stats["eval_dead"] += dead
        return out
    memo: dict[bytes, Game] = {
        v.to_bytes(width, "big"): atomic(poset.elements[v], poset)
        for v in dict.fromkeys(pay)}
    known = memo.get

    plans = {width << k: _split_plan(width << k, width)
             for k in range(len(empty) + 1)}
    join = b"".join
    dead = 0

    def rec(t: bytes) -> Game:
        """The value of a table not yet in the memo."""
        nonlocal dead
        halves = []
        for on, off, fmt in plans[len(t)]:
            if fmt is None:
                black, white = t[on], t[off]
            elif fmt:
                units = memoryview(t).cast(fmt)
                black, white = units[1::2].tobytes(), units[0::2].tobytes()
            else:
                black, white = join(on(t)), join(off(t))
            if simplify and black == white:
                g = known(black) or rec(black)
                memo[t] = g
                dead += 1
                return g
            halves.append((black, white))
        lefts, rights = [], []
        for black, white in halves:
            lefts.append(known(black) or rec(black))
            rights.append(known(white) or rec(white))
        g = composite(lefts, rights, poset)
        if simplify:
            g = simplify_game(ctx, g)
        memo[t] = g
        return g

    out = known(table) or rec(table)
    _PARTS[key] = out, len(memo) - dead, dead
    stats["eval_residuals"] += len(memo) - dead
    stats["eval_dead"] += dead
    # rec reaches itself through its closure; clearing the name breaks that
    # cycle, so the memo is freed on return, not at a later full collection
    del rec
    return out


def check_payoff_monotone(S: SetColoringGame) -> bool:
    """Exhaustively verify the payoff respects the coloring order, on its
    compiled table.  The cap is the one eval_board puts on each part, so
    every board it brute-forces whole can be checked.

    It is enough to compare colorings across single white-to-black flips;
    those generate the pointwise order.
    """
    n = S.size
    if n > DEFAULT_EVAL_CAP:
        raise CarrierTooLarge(f"{n} cells exceeds the check cap of "
                              f"{DEFAULT_EVAL_CAP}")
    pay = S.payoff.compiled(n)
    up = S.poset._up
    for black in range(1 << n):
        for i in range(n):
            if not black >> i & 1:
                if not up[pay[black]] >> pay[black | 1 << i] & 1:
                    return False
    return True


# -- fixed gadget boards ------------------------------------------------------

# The hand-verified gadget payoffs: their boards' values match the
# constructors in the algebra module applied to the marked atoms.
_GADGETS = {
    GadgetKind.LEFT_FORCE: Threshold(builtin("P3"), 1, {"a": ("0",),
                                                        "top": ("1",)}),
    GadgetKind.RIGHT_FORCE: Threshold(builtin("P3"), 1, {"a": ("1",)}),
    GadgetKind.CHOICE: Threshold(builtin("P4"), 2, {"a": ("01",),
                                                    "b": ("10",)}),
    GadgetKind.COUPLING: Threshold(builtin("P4"), 5, {
        "a": ("00011", "10101", "11000"),
        "b": ("00100", "01010"),
    }),
}


def sc_base(kind: GadgetKind) -> SetColoringGame:
    """The gadget board of this kind, on cells c1..cn."""
    t = _GADGETS[kind]
    return SetColoringGame(t.poset, tuple(f"c{i}" for i in range(1, t.n + 1)),
                           t)


# -- combinators ---------------------------------------------------------------

def sc_const(a: str, poset: AtomPoset) -> SetColoringGame:
    return SetColoringGame(poset, (), Const(poset, a))


def _prefixed(prefix: str, cells: Iterable[str]) -> list[str]:
    return [f"{prefix}{c}" for c in cells]


def sc_sum(S: SetColoringGame, T: SetColoringGame) -> SetColoringGame:
    """Disjoint union of carriers; the value is the sum of the values,
    as raw game trees, not just up to equivalence."""
    pr = product(S.poset, T.poset)
    cells = _prefixed("l.", S.cells) + _prefixed("r.", T.cells)
    p = S.size
    payoff = Compose(identity_fn(pr), (
        (S.payoff, tuple(range(p))),
        (T.payoff, tuple(range(p, p + T.size))),
    ))
    return SetColoringGame(pr, tuple(cells), payoff)


def sc_map(f: MonotoneFn, S: SetColoringGame) -> SetColoringGame:
    """Same carrier, payoff post-composed with f."""
    if f.domain is not S.poset:
        raise PosetMismatch("function domain differs from the board poset")
    payoff = Compose(f, ((S.payoff, tuple(range(S.size))),))
    return SetColoringGame(f.codomain, S.cells, payoff)


def sc_dual(S: SetColoringGame) -> SetColoringGame:
    return SetColoringGame(S.poset, S.cells, Dual(S.payoff))


def _fresh_cell(taken: Sequence[str]) -> str:
    """The first name g0, g1, ... not among the taken cells."""
    have = set(taken)
    i = 0
    while f"g{i}" in have:
        i += 1
    return f"g{i}"


def _wire(kind: GadgetKind, cells: Sequence[str],
          *args: tuple[SetColoringGame, int]) -> SetColoringGame:
    """A board on the cells: the gadget of this kind on the first ones, its
    marked atoms replaced (by projector_f or projector_g) with the argument
    boards, each read from its start cell on; arguments may overlap."""
    poset = args[0][0].poset
    if any(S.poset is not poset for S, _ in args):
        raise PosetMismatch("boards live over different posets")
    gadget = _GADGETS[kind]
    project = projector_f if len(args) == 1 else projector_g
    children = [(gadget, tuple(range(gadget.n)))]
    children += [(S.payoff, tuple(range(start, start + S.size)))
                 for S, start in args]
    return SetColoringGame(poset, tuple(cells),
                           Compose(project(poset), tuple(children)))


def _forced(kind: GadgetKind, S: SetColoringGame) -> SetColoringGame:
    return _wire(kind, (_fresh_cell(S.cells),) + S.cells, (S, 1))


def sc_force_left(S: SetColoringGame) -> SetColoringGame:
    """One extra cell turns the board B into a board for {top|B}."""
    return _forced(GadgetKind.LEFT_FORCE, S)


def sc_force_right(S: SetColoringGame) -> SetColoringGame:
    """One extra cell turns the board B into a board for {B|bot}."""
    return _forced(GadgetKind.RIGHT_FORCE, S)


def sc_shared_choice(SG: SetColoringGame,
                     SH: SetColoringGame) -> SetColoringGame:
    """Choice between two boards that share one pool of playing cells.

    Two fresh cells decide which board the pool is scored as; the pool has
    max(p, q) cells and both payoffs read it positionally from the start.
    Overlap is sound here: an extra move made on the not-chosen board only
    ever hands the mover's opponent a harmless option.
    """
    pool = max(SG.size, SH.size)
    cells = ["g0", "g1"] + [f"p{i}" for i in range(pool)]
    out = _wire(GadgetKind.CHOICE, cells, (SG, 2), (SH, 2))
    assert out.size == pool + 2
    return out


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length() if n >= 1 else 0


def _choice_tree(boards: Sequence[SetColoringGame],
                 force: Callable[[SetColoringGame], SetColoringGame]
                 ) -> SetColoringGame:
    """Near-halving shared choice over the boards, each leaf forced.

    Carrier: max board size plus 2*ceil(log2 n) + 1 cells.
    """
    boards = list(boards)
    if not boards:
        raise ValueError("need at least one board")
    if len(boards) == 1:
        out = force(boards[0])
    else:
        k = (len(boards) + 1) // 2
        out = sc_shared_choice(_choice_tree(boards[:k], force),
                               _choice_tree(boards[k:], force))
    biggest = max(b.size for b in boards)
    assert out.size <= biggest + 2 * _ceil_log2(len(boards)) + 1
    return out


def sc_one_sided_choice(boards: Sequence[SetColoringGame]) -> SetColoringGame:
    """A board for {G_1,...,G_n | bot}: the choice tree with sc_force_right
    leaves."""
    return _choice_tree(boards, sc_force_right)


def sc_one_sided_choice_dual(
        boards: Sequence[SetColoringGame]) -> SetColoringGame:
    """A board for {top | H_1,...,H_m}: the same tree with sc_force_left
    leaves, so it needs no duality map."""
    return _choice_tree(boards, sc_force_left)


def sc_coupling(SG: SetColoringGame,
                SH: SetColoringGame) -> SetColoringGame:
    """The five-cell gadget board wired to two disjoint sub-boards.

    Realizes {G, {top|H} | {G|bot}, H}.  The carriers must not overlap
    here: unlike choice, both sub-boards stay live in every line of play.
    """
    p, q = SG.size, SH.size
    cells = (["k1", "k2", "k3", "k4", "k5"]
             + _prefixed("l.", SG.cells) + _prefixed("r.", SH.cells))
    out = _wire(GadgetKind.COUPLING, cells, (SG, 5), (SH, 5 + p))
    assert out.size == p + q + 5
    return out


def random_threshold_board(rng, poset: AtomPoset, n: int) -> SetColoringGame:
    """A random threshold board, with at most 3 sets an atom; used by the
    property tests."""
    sets = {}
    for a in poset.elements:
        if a == poset.bot:
            continue
        masks: list[int] = []
        for _ in range(rng.randint(0, 3)):
            m = rng.getrandbits(n) if n else 0
            if any(x & m == x or x & m == m for x in masks):
                continue
            masks.append(m)
        if masks:
            sets[a] = tuple(mask_pattern(m, n) for m in masks)
    return SetColoringGame(
        poset, tuple(f"c{i}" for i in range(n)), Threshold(poset, n, sets))


# -- JSON ----------------------------------------------------------------------

def payoff_to_json(expr: PayoffExpr) -> dict:
    if isinstance(expr, Const):
        return {"const": expr.atom}
    if isinstance(expr, Threshold):
        return {"threshold": {a: list(ps) for a, ps in expr.sets.items()}}
    if isinstance(expr, Dual):
        return {"dual": payoff_to_json(expr.child)}
    if isinstance(expr, Compose):
        # the named forms abbreviate exactly the gadget shape, tested before
        # any projector is built; anything else (e.g. a mapped board, whose
        # single child spans the whole product domain) spells its function out
        cod = expr.fn.codomain
        kids = [c.poset for c, _ in expr.children]
        if kids == [builtin("P3"), cod] and expr.fn is projector_f(cod):
            fn = "projector_f"
        elif (kids == [builtin("P4"), cod, cod]
              and expr.fn is projector_g(cod)):
            fn = "projector_g"
        else:
            fn = {
                "domains": [poset_to_json(c.poset)
                            for c, _ in expr.children],
                "codomain": poset_to_json(expr.fn.codomain),
                "table": dict(expr.fn.table),
            }
        return {"compose": {
            "fn": fn,
            "children": [{"payoff": payoff_to_json(c), "cells": list(emb)}
                         for c, emb in expr.children],
        }}
    raise TypeError(f"not a payoff expression: {expr!r}")


def payoff_from_json(obj, poset: AtomPoset, n: int) -> PayoffExpr:
    """Parse an expression on n cells expected to land in the given poset.

    Child posets are directed by the expected codomain: the named
    projector functions fix them (P3 or P4 for the gadget child, the
    ambient poset for the others), and the table form spells them out.
    """
    if not isinstance(obj, dict) or len(obj) != 1:
        raise BoardFormatError("payoff must be a one-key object")
    (key, body), = obj.items()
    if key == "const":
        return Const(poset, body)
    if key == "threshold":
        if not isinstance(body, dict):
            raise BoardFormatError("threshold body must be an object")
        return Threshold(poset, n, body)
    if key == "dual":
        return Dual(payoff_from_json(body, poset, n))
    if key == "compose":
        if not isinstance(body, dict):
            raise BoardFormatError("compose body must be an object")
        fn_spec = body.get("fn")
        kids = body.get("children")
        if not isinstance(kids, list) or not kids:
            raise BoardFormatError("compose needs a children list")
        # a named form's domain passes the file cap before it is built
        if fn_spec == "projector_f":
            child_posets = [builtin("P3"), poset]
            reduce(read_product, child_posets)
            fn = projector_f(poset)
        elif fn_spec == "projector_g":
            child_posets = [builtin("P4"), poset, poset]
            reduce(read_product, child_posets)
            fn = projector_g(poset)
        elif isinstance(fn_spec, dict):
            domains = fn_spec.get("domains")
            if not isinstance(domains, list) or not domains:
                raise BoardFormatError("function table needs a domains list")
            child_posets = [poset_from_json(p) for p in domains]
            codomain = poset_from_json(fn_spec["codomain"])
            fn = MonotoneFn(reduce(read_product, child_posets), codomain,
                            fn_spec["table"])
            if codomain is not poset:
                raise BoardFormatError("composed payoff lands in the "
                                       "wrong poset")
        else:
            raise BoardFormatError(f"unknown function spec {fn_spec!r}")
        if len(kids) != len(child_posets):
            raise BoardFormatError(
                f"expected {len(child_posets)} children, got {len(kids)}")
        children = []
        for kid, kp in zip(kids, child_posets):
            emb = kid.get("cells", []) if isinstance(kid, dict) else None
            if not (isinstance(emb, list)
                    and all(type(i) is int for i in emb)):
                raise BoardFormatError("a compose child is an object whose "
                                       "cells are a list of cell indices")
            children.append(
                (payoff_from_json(kid["payoff"], kp, len(emb)), tuple(emb)))
        return Compose(fn, tuple(children))
    raise BoardFormatError(f"unknown payoff kind {key!r}")


def board_to_json(S: SetColoringGame) -> dict:
    return {
        "poset": poset_to_json(S.poset),
        "cells": list(S.cells),
        "payoff": payoff_to_json(S.payoff),
    }


def board_from_json(obj) -> SetColoringGame:
    if not isinstance(obj, dict):
        raise BoardFormatError("board must be a JSON object")
    try:
        poset = poset_from_json(obj["poset"])
        cells = obj["cells"]
        if not (isinstance(cells, list)
                and all(isinstance(c, str) for c in cells)):
            raise BoardFormatError("board cells must be a list of strings")
        payoff = payoff_from_json(obj["payoff"], poset, len(cells))
        return SetColoringGame(poset, tuple(cells), payoff)
    except BoardFormatError:
        raise
    except KeyError as e:
        raise BoardFormatError(f"bad board JSON: missing key {e}") from e
    except (TypeError, ValueError) as e:
        raise BoardFormatError(f"bad board JSON: {e}") from e


def save_board(S: SetColoringGame, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(board_to_json(S), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_board(path) -> SetColoringGame:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise BoardFormatError(f"not JSON: {e}") from e
    return board_from_json(obj)


def shipped_board(name: str) -> SetColoringGame:
    """Load one of the boards distributed with the package."""
    from importlib.resources import files

    path = files("scgames").joinpath("data", name)
    return board_from_json(json.loads(path.read_text(encoding="utf-8")))
