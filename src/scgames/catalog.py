"""Census of threshold-board values over the two-atom diamond.

A monotone payoff on n cells over P4 is a pair of monotone boolean
conditions, one per middle atom; the value of a coloring is the join of
the atoms whose condition holds.  Monotone conditions are in bijection
with antichains of required-black cell sets, so the n-cell boards are
exactly the antichain pairs: M(n)^2 of them, where M runs
2, 3, 6, 20, 168, 7581 (the Dedekind numbers); board_at(n, i) is the
i-th, and each census layer is a list in that index order.

Coloring one cell of a threshold board leaves a threshold board on the
other cells, so the census is a dynamic program over cell counts:
layer_values takes each n-cell board's value from the values of its 2n
one-cell restrictions in the (n-1)-cell layer, found through per-antichain
restriction tables, with no payoff table or position sweep.  Most boards
repeat an earlier board's pair of option sets (717 distinct pairs among
the 2,435 boards valued through 4 cells), so a memo that lives for one
layer_values call values each pair once.  New pairs are met in board
order, so the games interned, and the order they are interned in, are
those of valuing every board on its own.  Permuting
the cells of a board permutes its restrictions, so by induction every
board of an orbit under the cell permutations has the same interned
value.  build_catalog therefore fills the layers below n in full and
values only the smallest board of each orbit in the top layer (558,801
of the 57,471,561 five-cell boards), keeping one representative per
value class together with the first witness board at the minimal count.
Only the n-1 swaps of neighbouring cells are imaged from the masks; the
table of any other cell permutation, including each cyclic shift that
brings a cell to the top for the restriction tables, composes swap tables.
Every dedupe by equivalence goes through ValueIndex, which buckets
representatives by their atom signature (the atoms below and above them,
shared by equivalent games), so a value is checked with equiv only
against the representatives it could be equivalent to.  The shipped
table (data/appendix_p4.json) lists the values through five cells the way
a printed table would: explicit entries per cell count, with the forced
forms <top|G> and <G|bot> and the dual / a-b-swap images left implicit.
The table is P4-only, and each entry loads once, as its board and its
parsed value: expand_fixture rebuilds the full value set from the values,
and verify_appendix re-evaluates every board against its value.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import tee
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .algebra import force_left, force_right
from .games import (Game, PosetMismatch, SolverContext, atomic, composite,
                    dual, equiv, simplify, swap_ab, to_notation)
from .notation import parse_game
from .poset import _bits, builtin, poset_to_json
from .setcolor import (CarrierTooLarge, SetColoringGame, Threshold,
                       board_to_json, eval_board, mask_pattern)


class FixtureParseError(ValueError):
    """The value-table file does not have the expected shape."""


# Antichain counts of the n-cube for n = 0..5; the census goes this far.
DEDEKIND = (2, 3, 6, 20, 168, 7581)

# The one poset of the census, the value table and every board here.
P4 = builtin("P4")


# -- enumeration ---------------------------------------------------------------

@lru_cache(maxsize=None)
def antichains(n: int) -> tuple[tuple[int, ...], ...]:
    """All antichains of subsets of an n-set, as sorted mask tuples.

    Canonical DFS order: each antichain extends its prefix with a
    numerically larger mask incomparable to everything chosen, so the
    list is stable across runs.
    """
    out: list[tuple[int, ...]] = []

    def rec(start: int, chosen: list[int]) -> None:
        out.append(tuple(chosen))
        for m in range(start, 1 << n):
            if all((m & c) != m and (m & c) != c for c in chosen):
                chosen.append(m)
                rec(m + 1, chosen)
                chosen.pop()
    rec(0, [])
    return tuple(out)


@lru_cache(maxsize=None)
def _patterns(n: int) -> tuple[tuple[str, ...], ...]:
    return tuple(tuple(mask_pattern(m, n) for m in ac) for ac in antichains(n))


def _threshold_board(n: int, a, b) -> SetColoringGame:
    """The P4 threshold board on cells c0..c(n-1) with these a- and
    b-patterns; Threshold refuses patterns that do not fit."""
    return SetColoringGame(P4, tuple(f"c{i}" for i in range(n)),
                           Threshold(P4, n, {"a": a, "b": b}))


def board_at(n: int, index: int) -> SetColoringGame:
    """The n-cell board at this index: M(n)^2 boards, ordered by the
    a-antichain, then the b-antichain, each in the order of antichains(n).
    """
    pats = _patterns(n)
    pa, pb = divmod(index, len(pats))
    return _threshold_board(n, pats[pa], pats[pb])


@lru_cache(maxsize=None)
def _neighbour_swaps(n: int) -> tuple[list[int], ...]:
    """For each i < n-1, the antichains(n) index of the image of each
    antichain when cells i and i+1 swap, imaged from the masks."""
    acs = antichains(n)
    index = {ac: j for j, ac in enumerate(acs)}
    swaps = []
    for i in range(n - 1):
        # a mask whose bits i and i+1 differ has both flipped
        image = [m ^ (m >> i ^ m >> i + 1) % 2 * (3 << i)
                 for m in range(1 << n)].__getitem__
        swaps.append([index[tuple(sorted(map(image, ac)))] for ac in acs])
    return tuple(swaps)


# -- the restriction DP --------------------------------------------------------

@lru_cache(maxsize=None)
def _restrictions(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each n-cell antichain and each cell i, the indices in the
    (n-1)-cell antichain list of the condition left with i black, and
    with i white.

    With i black a required set is met once its other cells are, so bit i
    drops from every mask and only the minimal masks remain; with i white
    the masks that need i can no longer be met.  Either way bit i is then
    squeezed out, so cell j > i becomes cell j-1.  That is the top cell's
    restriction of the image under the cyclic shift that moves cell i to
    the top, so only the top cell is restricted here.
    """
    index = {ac: j for j, ac in enumerate(antichains(n - 1))}
    low = (1 << n - 1) - 1
    top = []
    for ac in antichains(n):
        met = {m & low for m in ac}
        black = tuple(sorted(m for m in met
                             if not any(o != m and o & m == o for o in met)))
        top.append((index[black], index[tuple(m for m in ac if m <= low)]))
    # shift i is the swap of cells i and i+1 followed by shift i+1
    shift, columns = range(len(top)), [top]
    for swap in reversed(_neighbour_swaps(n)):
        shift = list(map(shift.__getitem__, swap))
        columns.append(list(map(top.__getitem__, shift)))
    return tuple(zip(*reversed(columns)))


def layer_values(ctx: SolverContext, n: int, below: Optional[list[Game]],
                 indices: Optional[Iterable[int]] = None) -> Iterator[Game]:
    """Values of the n-cell boards at these board_at(n) indices.

    Coloring cell i of an n-cell threshold board leaves the (n-1)-cell
    threshold board of the restricted conditions, so a board's value is
    simplify({V(a|i=1, b|i=1)... | V(a|i=0, b|i=0)...}) with V looked up
    in ``below``, the values of the whole (n-1)-cell layer in
    board_at index order.  This is the value eval_board gives, interned
    object included.  The 0-cell boards are atoms and need no ``below``.

    Most boards repeat an earlier board's pair of option sets, so the
    distinct objects of ``below`` are numbered, a board's left and right
    options become two bitmasks over those numbers, and a memo that lives
    for this call maps the pair to its value.  Only a new pair builds its
    composite and simplifies it.  A repeat would have found its composite
    already interned and its simplified form on it (``Game.simple``), so
    skipping it interns nothing, and new pairs are met in board order: every uid and
    every value is what the per-board composite gives.  ctx.stats counts
    the boards valued here in "layer_boards" and the pairs simplified in
    "layer_pairs".
    """
    count = len(antichains(n))
    if indices is None:
        indices = range(count * count)
    if n == 0:
        for idx in indices:
            yield atomic(board_at(0, idx).payoff.value_at(0, 0), P4)
        return
    rows = _restrictions(n)
    stride = len(antichains(n - 1))
    # games hash by identity; grid[a][b] is the bit of below[a * stride + b]
    distinct = list(dict.fromkeys(below))
    bit = {v: 1 << i for i, v in enumerate(distinct)}
    grid = [[bit[v] for v in below[i:i + stride]]
            for i in range(0, len(below), stride)]
    width = len(distinct)
    memo: dict[int, Game] = {}
    stats = ctx.stats
    for idx in indices:
        pa, pb = divmod(idx, count)
        left = right = 0
        for (la, ra), (lb, rb) in zip(rows[pa], rows[pb]):
            left |= grid[la][lb]
            right |= grid[ra][rb]
        key = left << width | right     # right keeps the low width bits
        value = memo.get(key)
        if value is None:
            stats["layer_pairs"] += 1
            value = memo[key] = simplify(ctx, composite(
                [distinct[i] for i in _bits(left)],
                [distinct[i] for i in _bits(right)], P4))
        stats["layer_boards"] += 1
        yield value


def census_layers(ctx: SolverContext, n: int) -> list[list[Game]]:
    """The values of every board of 0..n cells, one list per cell count,
    each in board_at index order."""
    layers: list[list[Game]] = []
    for k in range(n + 1):
        layers.append(list(layer_values(ctx, k,
                                        layers[-1] if layers else None)))
    return layers


def _cell_permutations(n: int) -> dict[tuple[int, ...], list[int]]:
    """For each permutation p of the n cells, keyed by (p(0), ..., p(n-1)),
    the antichains(n) index of the image of each antichain.

    A breadth-first walk from the identity reaches each permutation as a
    neighbour swap followed by one already built, whose table is then the
    two tables composed by one C-level map.
    """
    walk = [tuple(range(n))]
    tables = {walk[0]: list(range(len(antichains(n))))}
    for p in walk:
        for i, swap in enumerate(_neighbour_swaps(n)):
            q = p[:i] + (p[i + 1], p[i]) + p[i + 2:]
            if q not in tables:
                tables[q] = list(map(tables[p].__getitem__, swap))
                walk.append(q)
    return tables


def orbit_representatives(n: int) -> Iterator[int]:
    """Ascending board_at(n) indices of the smallest board in each orbit
    of the n-cell boards under permutations of the cells.

    An index pa * M + pb is the smallest of its orbit exactly when pa is
    the smallest of its antichain orbit and pb the smallest of its orbit
    under the permutations that fix pa.  Those stabilizer orbits are
    marked as the b-antichains are walked in order.  The tables are held
    as 16-bit arrays while the caller values the boards: at 5 cells that
    is 1.8 MB where lists would hold 7.3 MB of slots.
    """
    tables = [array("H", t) for t in _cell_permutations(n).values()]
    count = len(antichains(n))
    for pa in range(count):
        if any(t[pa] < pa for t in tables):
            continue
        stab = [t for t in tables if t[pa] == pa]
        seen = bytearray(count)
        base = pa * count
        for pb in range(count):
            if not seen[pb]:
                yield base + pb
                for t in stab:
                    seen[t[pb]] = 1


# -- the catalog ---------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    value: Game               # simplified representative
    board: SetColoringGame    # first witness, at the minimal cell count
    cells: int


@dataclass(frozen=True)
class ValueCatalog:
    """Pairwise-inequivalent values with their smallest witness boards."""
    entries: tuple[CatalogEntry, ...]

    def values(self) -> list[Game]:
        return [e.value for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


class ValueIndex:
    """One representative per equivalence class, in the order filed.

    A value whose uid was seen before is filed already.  Any other is
    checked with equiv only against the representatives with its atom
    signature ``(masks[2], masks[0])``, the atoms below it and the atoms
    above it: by L1 and L2 of the games module, equivalent games share
    them, passable or not.  So ``add`` answers as a scan over every
    representative would, with no more equiv calls, and counts them in
    ctx.stats["index_equiv"].  The first value of a class stays its
    representative, so callers feed values in witness order.  All values
    must live over one poset.
    """

    def __init__(self, ctx: SolverContext):
        self.ctx = ctx
        self.values: list[Game] = []
        self._seen: set[int] = set()
        self._buckets: dict[tuple[int, int], list[Game]] = {}

    def add(self, value: Game) -> bool:
        """File a simplified value; True when it opens a new class."""
        if value.uid in self._seen:
            return False
        if self.values and value.poset is not self.values[0].poset:
            raise PosetMismatch("index values live over different posets")
        self._seen.add(value.uid)
        m = value.masks
        bucket = self._buckets.setdefault((m[2], m[0]), [])
        ctx = self.ctx
        stats = ctx.stats
        for v in bucket:
            stats["index_equiv"] += 1
            if equiv(ctx, value, v):
                return False
        self.values.append(value)
        bucket.append(value)
        return True


def build_catalog(ctx: SolverContext, n: int) -> ValueCatalog:
    """Value every board with at most n cells and dedup the values.

    Boards are filed in increasing cell count, so the recorded witness is
    at the minimal count and ties go to the first board enumerated.  The
    top layer is valued only on orbit_representatives: every other board
    has the value of the smaller board that represents its orbit.
    """
    cap = len(DEDEKIND) - 1
    if n > cap:
        raise CarrierTooLarge(f"census of {n} cells exceeds the cap of "
                              f"{cap}")
    if n < 0:
        raise ValueError(f"census of {n} cells: the count must be 0 or more")
    index = ValueIndex(ctx)
    entries = []

    def file(k: int, indices: Iterable[int], values: Iterable[Game]) -> None:
        for i, v in zip(indices, values):
            if index.add(v):
                entries.append(CatalogEntry(v, board_at(k, i), k))

    below = None
    for k, values in enumerate(census_layers(ctx, n - 1)):
        file(k, range(len(values)), values)
        below = values
    reps, todo = tee(orbit_representatives(n))
    file(n, reps, layer_values(ctx, n, below, todo))
    return ValueCatalog(tuple(entries))


def dedupe_values(ctx: SolverContext, games) -> list[Game]:
    """One simplified representative per equivalence class, first seen wins."""
    index = ValueIndex(ctx)
    for g in games:
        index.add(simplify(ctx, g))
    return index.values


def catalog_to_json(cat: ValueCatalog) -> dict:
    return {
        "poset": poset_to_json(P4),
        "entries": [{"value": to_notation(e.value),
                     "cells": e.cells,
                     "board": board_to_json(e.board)} for e in cat.entries],
    }


# -- the shipped value table ---------------------------------------------------

@dataclass(frozen=True)
class FixtureEntry:
    value: str                # the claimed value's notation, as listed
    game: Game                # that value, parsed
    board: SetColoringGame    # the listed board


@dataclass(frozen=True)
class FixtureSection:
    cells: int
    closure_forms: bool       # section also implies <top|G>, <G|bot> forms
    entries: tuple[FixtureEntry, ...]


def fixture_from_json(obj) -> tuple[FixtureSection, ...]:
    """The table's sections, one per cell count from 0."""
    if not isinstance(obj, dict) or "poset" not in obj or "sections" not in obj:
        raise FixtureParseError("expected an object with poset and sections")
    if obj["poset"] != "P4":
        raise FixtureParseError(f"the table's poset must be 'P4', not "
                                f"{obj['poset']!r}")
    if not isinstance(obj["sections"], list):
        raise FixtureParseError("sections must be a list")
    sections = []
    for idx, sec in enumerate(obj["sections"]):
        if not (isinstance(sec, dict) and type(sec.get("cells")) is int
                and sec["cells"] == idx):
            raise FixtureParseError("sections must run consecutively from "
                                    "0 cells")
        rows = sec.get("entries", [])
        if not isinstance(rows, list):
            raise FixtureParseError(f"section {idx}: entries must be a list")
        entries = []
        for e in rows:
            if not isinstance(e, dict) or not {"value", "a", "b"} <= set(e):
                raise FixtureParseError(f"section {idx}: entry needs value, "
                                        "a and b")
            where = f"section {idx}, {e['value']!r}"
            if not isinstance(e["value"], str):
                raise FixtureParseError(f"{where}: value must be notation")
            try:
                entries.append(FixtureEntry(
                    e["value"], parse_game(e["value"], P4),
                    _threshold_board(idx, e["a"], e["b"])))
            except ValueError as err:   # GameSyntaxError is one
                raise FixtureParseError(f"{where}: {err}") from None
        sections.append(FixtureSection(idx, bool(sec.get("closure_forms")),
                                       tuple(entries)))
    return tuple(sections)


def load_fixture(path=None) -> tuple[FixtureSection, ...]:
    """Load a value table; the default is the one shipped with the package."""
    if path is None:
        text = (resources.files("scgames") / "data"
                / "appendix_p4.json").read_text()
    else:
        text = Path(path).read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise FixtureParseError(f"not valid JSON: {e}") from None
    return fixture_from_json(obj)


def expand_fixture(fixture: tuple[FixtureSection, ...], n: int,
                   ctx: SolverContext) -> set[Game]:
    """The full value set through n cells that the table implies.

    Each section contributes its explicit entries; sections flagged with
    closure_forms also contribute <top|G> and <G|bot> for every value
    already obtained on fewer cells.  Everything is closed under dual
    and the a/b swap and deduplicated by equivalence.
    """
    if not 0 <= n < len(fixture):
        raise ValueError(f"table has no section for {n} cells")
    index = ValueIndex(ctx)

    def add(g: Game) -> None:
        g = simplify(ctx, g)
        d = dual(g)
        for img in (g, d, swap_ab(g), swap_ab(d)):
            index.add(simplify(ctx, img))

    for k in range(n + 1):
        sec = fixture[k]
        if sec.closure_forms:
            for g in list(index.values):   # snapshot: the smaller values
                add(force_left(g))
                add(force_right(g))
        for e in sec.entries:
            add(e.game)
    return set(index.values)


# -- re-checking the printed boards ---------------------------------------------

@dataclass(frozen=True)
class AppendixCheck:
    cells: int
    claimed: str     # value notation as listed
    got: str         # what the printed board evaluates to
    ok: bool


def verify_appendix(ctx: SolverContext, fixture: tuple[FixtureSection, ...]
                    ) -> tuple[AppendixCheck, ...]:
    """Evaluate every explicit board in the table against its listed value."""
    checks = []
    for sec in fixture:
        for e in sec.entries:
            got = eval_board(ctx, e.board)
            checks.append(AppendixCheck(sec.cells, e.value, to_notation(got),
                                        equiv(ctx, got, e.game)))
    return tuple(checks)
