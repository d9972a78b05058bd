"""Board evaluation against hand tables, a naive oracle, and the algebra.

The payoff tables for the fixed gadget boards are spelled out by hand here,
so the compiled threshold masks and the evaluator are checked against
independent arithmetic, not against themselves.
"""

import gc
import json
import os
import random
import resource
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from functools import partial, reduce
from pathlib import Path

import pytest

import scgames

from scgames.algebra import (
    GadgetKind,
    choice,
    coupling,
    force_left,
    force_right,
    gadget_game,
    map_game,
    sum_games,
)
from scgames.catalog import antichains, expand_fixture, load_fixture
from scgames.games import SolverContext, atomic, composite, equiv, \
    is_monotone, is_passable
from scgames.poset import (
    MonotoneFn,
    SupremumUndefined,
    antichain_poset,
    builtin,
    identity_fn,
    make_poset,
    product,
    projector_f,
)
from scgames import setcolor
from scgames.realize import realize
from scgames.sampling import random_passable_game
from scgames.setcolor import (
    BoardFormatError,
    CarrierTooLarge,
    Compose,
    DEFAULT_EVAL_CAP,
    Const,
    Dual,
    SetColoringGame,
    Threshold,
    board_from_json,
    board_to_json,
    check_payoff_monotone,
    eval_board,
    eval_position,
    load_board,
    mask_pattern,
    normalize_position,
    pattern_masks,
    payoff_eval,
    random_threshold_board,
    save_board,
    sc_base,
    sc_const,
    sc_coupling,
    sc_dual,
    sc_force_left,
    sc_force_right,
    sc_map,
    sc_one_sided_choice,
    sc_one_sided_choice_dual,
    sc_shared_choice,
    sc_sum,
    shipped_board,
    _eval_part,
    _position_masks,
    _split_plan,
)
from conftest import BOOL, P3, P4, parse
from reference import ref_eval, ref_value_at


# -- payoff tables by hand -----------------------------------------------------

def test_force_left_payoff_table():
    S = sc_base(GadgetKind.LEFT_FORCE)
    assert payoff_eval(S, "1") == "top"
    assert payoff_eval(S, "0") == "a"


def test_force_right_payoff_table():
    S = sc_base(GadgetKind.RIGHT_FORCE)
    assert payoff_eval(S, "1") == "a"
    assert payoff_eval(S, "0") == "bot"


def test_choice_payoff_table():
    S = sc_base(GadgetKind.CHOICE)
    assert payoff_eval(S, "00") == "bot"
    assert payoff_eval(S, "10") == "b"
    assert payoff_eval(S, "01") == "a"
    assert payoff_eval(S, "11") == "top"


def test_coupling_payoff_spot_checks():
    S = sc_base(GadgetKind.COUPLING)
    # the three pinned final positions
    assert payoff_eval(S, "01011") == "top"
    assert payoff_eval(S, "11001") == "a"
    assert payoff_eval(S, "10001") == "bot"
    # listed sets achieve their atom; 10101 covers {c3} so it gets b too
    assert payoff_eval(S, "00011") == "a"
    assert payoff_eval(S, "10101") == "top"
    assert payoff_eval(S, "11000") == "a"
    assert payoff_eval(S, "00100") == "b"
    assert payoff_eval(S, "01010") == "b"
    assert payoff_eval(S, "00000") == "bot"
    assert payoff_eval(S, "11111") == "top"


def test_payoff_eval_accepts_unicode_aliases():
    S = sc_base(GadgetKind.COUPLING)
    assert payoff_eval(S, "◦●◦●●") == payoff_eval(S, "01011")
    assert payoff_eval(S, "●●◦◦●") == payoff_eval(S, "11001")
    assert normalize_position("⊤⊥*") == "10."


def test_payoff_eval_rejects_partial_positions():
    S = sc_base(GadgetKind.CHOICE)
    with pytest.raises(ValueError):
        payoff_eval(S, "1.")
    with pytest.raises(ValueError):
        payoff_eval(S, "1")


def test_normalize_position_rejects_junk():
    with pytest.raises(ValueError):
        normalize_position("1x0")


# -- base board values ---------------------------------------------------------

def test_base_boards_evaluate_to_the_gadget_values(ctx):
    a3 = atomic("a", P3)
    a4, b4 = atomic("a", P4), atomic("b", P4)
    cases = [
        (GadgetKind.LEFT_FORCE, force_left(a3)),
        (GadgetKind.RIGHT_FORCE, force_right(a3)),
        (GadgetKind.CHOICE, choice(a4, b4)),
        (GadgetKind.COUPLING, coupling(a4, b4)),
    ]
    for kind, want in cases:
        got = eval_board(ctx, sc_base(kind))
        assert got is want, kind


def test_example_board_positions(ctx):
    S = sc_base(GadgetKind.COUPLING)
    assert eval_position(ctx, S, "◦●◦●●") is atomic("top", P4)
    assert eval_position(ctx, S, "●●◦◦●") is atomic("a", P4)
    assert eval_position(ctx, S, "●◦◦◦●") is atomic("bot", P4)


def test_hex_2x2_is_a_first_player_win(ctx):
    S = shipped_board("hex2x2.scg")
    assert S.poset is BOOL
    assert S.cells == ("a1", "a2", "b1", "b2")
    assert check_payoff_monotone(S)
    assert eval_board(ctx, S) is parse("{top|bot}", BOOL)


def test_board_repr():
    assert repr(sc_base(GadgetKind.COUPLING)) == (
        "SetColoringGame(5 cells over AtomPoset(P4))")
    assert repr(sc_const("a", P3)) == (
        "SetColoringGame(0 cells over AtomPoset(P3))")


def test_empty_carrier_const(ctx):
    S = sc_const("a", P4)
    assert S.size == 0
    assert eval_board(ctx, S) is atomic("a", P4)


# -- evaluator vs the naive oracle ---------------------------------------------

def test_raw_eval_matches_reference_on_random_boards(ctx):
    rng = random.Random(3001)
    for _ in range(25):
        n = rng.randint(0, 4)
        S = random_threshold_board(rng, P4, n)
        assert eval_board(ctx, S, simplify=False) is ref_eval(S)


def _small_board(rng, max_cells):
    return random_threshold_board(rng, P4, rng.randint(0, max_cells))


def test_raw_eval_matches_reference_on_composed_boards(ctx):
    rng = random.Random(3014)
    boards = []
    for _ in range(4):
        # overlapping embeddings: both payoffs read the shared pool
        boards.append(sc_shared_choice(_small_board(rng, 2),
                                       _small_board(rng, 2)))
        # Dual payoffs around shared choices
        boards.append(sc_dual(sc_shared_choice(_small_board(rng, 2),
                                               _small_board(rng, 2))))
        # disjoint children beside the five gadget cells
        boards.append(sc_coupling(_small_board(rng, 1), sc_const("b", P4)))
    for S in boards:
        assert S.size <= 6
        assert eval_board(ctx, S, simplify=False) is ref_eval(S)


def _scrambled_json_board():
    """Five cells; compose children read cells [2, 0] and [4, 1, 2]
    (permuted, non-contiguous, overlapping on cell 2, cell 3 unread) plus a
    Const on [], through the table form of ((x,y),z) -> x|z if y is top
    else x, which tells its arguments apart."""
    xy = product(P4, P4)
    dom = product(xy, P4)
    table = {dom.pair(xy.pair(x, y), z): P4.join2(x, z) if y == "top" else x
             for x in P4.elements for y in P4.elements for z in P4.elements}
    return board_from_json({
        "poset": {"builtin": "P4"},
        "cells": ["c0", "c1", "c2", "c3", "c4"],
        "payoff": {"compose": {
            "fn": {"domains": [{"builtin": "P4"}] * 3,
                   "codomain": {"builtin": "P4"}, "table": table},
            "children": [
                {"payoff": {"threshold": {"a": ["10"], "b": ["01"]}},
                 "cells": [2, 0]},
                {"payoff": {"threshold": {"top": ["110", "011"],
                                          "a": ["001"]}},
                 "cells": [4, 1, 2]},
                {"payoff": {"const": "b"}, "cells": []},
            ]}},
    })


def test_raw_eval_position_matches_reference(ctx):
    rng = random.Random(3015)
    boards = [sc_base(GadgetKind.COUPLING),
              sc_shared_choice(_small_board(rng, 2), _small_board(rng, 2)),
              sc_dual(sc_shared_choice(_small_board(rng, 3),
                                       sc_const("a", P4))),
              _scrambled_json_board()]
    for S in boards:
        for _ in range(12):
            p = "".join(rng.choice("01..") for _ in range(S.size))
            assert eval_position(ctx, S, p, simplify=False) is ref_eval(S, p)


def _memo_eval(S, positions):
    """Raw values of positions by the textbook recursion, memoized on the
    position string: exhausted positions score by ref_value_at, the options
    color one empty cell black (left) or white (right)."""
    n = S.size
    memo = {}

    def rec(p):
        g = memo.get(p)
        if g is None:
            if "." not in p:
                black = sum(1 << i for i, c in enumerate(p) if c == "1")
                g = atomic(ref_value_at(S.payoff, black, n), S.poset)
            else:
                empty = [i for i, c in enumerate(p) if c == "."]
                g = composite([rec(p[:i] + "1" + p[i + 1:]) for i in empty],
                              [rec(p[:i] + "0" + p[i + 1:]) for i in empty],
                              S.poset)
            memo[p] = g
        return g

    return [rec(p) for p in positions]


def test_raw_eval_matches_memoized_recursion_on_eight_and_nine_cells(ctx):
    # wide enough for every kind of split step; shared-choice and coupling
    # boards have dead cells, whose two colorings leave one table
    rng = random.Random(3016)
    boards = [random_threshold_board(rng, P4, n) for n in (8, 8, 9, 9)]
    boards += [sc_shared_choice(random_threshold_board(rng, P4, 6),
                                random_threshold_board(rng, P4, k))
               for k in (3, 7)]
    boards += [sc_coupling(random_threshold_board(rng, P4, 2),
                           random_threshold_board(rng, P4, 2)),
               sc_coupling(random_threshold_board(rng, P4, 3),
                           sc_const("b", P4))]
    for S in boards:
        assert S.size in (8, 9)
        positions = ["." * S.size]
        positions += ["".join(rng.choice("01...") for _ in range(S.size))
                      for _ in range(4)]
        want = _memo_eval(S, positions)
        for p, w in zip(positions, want):
            assert eval_position(ctx, S, p, simplify=False) is w


def _split_step(step, t):
    """Apply one step of a split plan, as the evaluator does."""
    on, off, fmt = step
    if fmt is None:
        return t[on], t[off]
    if fmt:
        units = memoryview(t).cast(fmt)
        return units[1::2].tobytes(), units[0::2].tobytes()
    return b"".join(on(t)), b"".join(off(t))


@pytest.mark.parametrize("width", [1, 2])
def test_split_plans_take_the_entries_by_cell_bit(width):
    # every step of every plan up to 2^14 bytes keeps, in order, the
    # entries whose cell-i bit is 1 (black) and 0 (white); entries are
    # told apart by their index, in as many tables as that needs.  A plan
    # is built once per size and width, and shared
    for k in range(1, 15):
        size = 1 << k
        if size < width:
            continue
        entries = size // width
        if width == 1:
            codes = [lambda j: j & 255, lambda j: j >> 8]
        else:
            codes = [lambda j: j]
        plan = _split_plan(size, width)
        assert _split_plan(size, width) is plan
        assert len(plan) == entries.bit_length() - 1
        for code in codes:
            t = b"".join(code(j).to_bytes(width, "big")
                         for j in range(entries))
            for i, step in enumerate(plan):
                want = [b"".join(code(j).to_bytes(width, "big")
                                 for j in range(entries) if j >> i & 1 == bit)
                        for bit in (1, 0)]
                assert list(_split_step(step, t)) == want, (size, i)


def _spread(s, cells):
    """The mask that colors the j-th of the cells black by bit j of s."""
    return sum(1 << i for j, i in enumerate(cells) if s >> j & 1)


def _table(S, p):
    """The payoffs over the empty cells of p, scored one coloring at a time
    by ref_value_at: entry s colors the j-th empty cell by bit j of s."""
    empty = [i for i, c in enumerate(p) if c == "."]
    black = sum(1 << i for i, c in enumerate(p) if c == "1")
    return tuple(ref_value_at(S.payoff, black | _spread(s, empty), S.size)
                 for s in range(1 << len(empty)))


def _walk_counts(S):
    """How many distinct residual tables the simplified evaluator expands
    into a node, and how many a dead cell settles, by a walk over
    positions: a table with a dead cell, one whose two colorings leave the
    same table, goes on into the table with its first dead cell filled;
    any other table (the one-entry tables too) goes on into all its
    options."""
    kinds = {}
    todo = ["." * S.size]
    while todo:
        p = todo.pop()
        t = _table(S, p)
        if t in kinds:
            continue
        options = [(p[:i] + "1" + p[i + 1:], p[:i] + "0" + p[i + 1:])
                   for i, c in enumerate(p) if c == "."]
        dead = [b for b, w in options if _table(S, b) == _table(S, w)]
        if dead:
            kinds[t] = "dead"
            todo.append(dead[0])
        else:
            kinds[t] = "residual"
            todo += [q for pair in options for q in pair]
    return Counter(kinds.values())


def test_eval_counts_distinct_residual_tables():
    # positions with the same payoff over their empty cells share a value,
    # so the evaluator visits each distinct residual table once; a table
    # with a dead cell is settled by its filled table, with no node, but
    # raw trees keep a node for every table of every position
    for S in (sc_base(GadgetKind.COUPLING), shipped_board("hex2x2.scg")):
        n = S.size
        want = _walk_counts(S)
        assert want["dead"] > 0
        ctx = SolverContext()
        eval_board(ctx, S)
        assert ctx.stats["eval_residuals"] == want["residual"]
        assert ctx.stats["eval_dead"] == want["dead"]
        every = {_table(S, "".join("01."[k // 3 ** i % 3] for i in range(n)))
                 for k in range(3 ** n)}
        assert want["residual"] + want["dead"] <= len(every) < 3 ** n
        ctx = SolverContext()
        eval_board(ctx, S, simplify=False)
        assert ctx.stats["eval_residuals"] == len(every)
        assert ctx.stats["eval_dead"] == 0


def _planted_board(rng, poset, n):
    """A random threshold board on n cells, one of which is in no required
    set, so it is dead in every position."""
    T = random_threshold_board(rng, poset, n - 1).payoff
    c = rng.randrange(n)
    sets = {a: tuple(s[:c] + "0" + s[c:] for s in ps)
            for a, ps in T.sets.items()}
    return SetColoringGame(poset, tuple(f"c{i}" for i in range(n)),
                           Threshold(poset, n, sets))


def _dead_cells(S):
    """The cells whose color never changes the payoff."""
    n = S.size
    return [i for i in range(n)
            if all(ref_value_at(S.payoff, b, n)
                   == ref_value_at(S.payoff, b | 1 << i, n)
                   for b in range(1 << n) if not b >> i & 1)]


def _planted_boards(rng):
    """Seeded threshold and composed boards of at most 8 cells, each with
    a dead cell."""
    wide = product(product(BOOL, BOOL), BOOL)
    f = MonotoneFn(BOOL, wide, {"bot": wide.bot, "top": wide.top})
    boards = [_planted_board(rng, poset, rng.randint(1, 6))
              for poset in (P4, P4, P4, BOOL, BOOL, P3) for _ in range(2)]
    boards += [
        sc_sum(_planted_board(rng, P4, 3), _small_board(rng, 2)),
        sc_coupling(_planted_board(rng, P4, 2), _small_board(rng, 1)),
        sc_dual(_planted_board(rng, P4, 5)),
        sc_force_left(_planted_board(rng, P4, 4)),
        sc_shared_choice(_planted_board(rng, P4, 4), _small_board(rng, 2)),
        sc_map(f, _planted_board(rng, BOOL, 5)),
    ]
    return boards


def test_dead_cell_reduction_is_exact_on_planted_boards(ctx):
    # a position with a dead cell empty has the very value of the
    # position with it filled, either color
    rng = random.Random(3018)
    for S in _planted_boards(rng):
        n = S.size
        dead = _dead_cells(S)
        assert n <= 8 and dead, S
        for _ in range(6):
            c = rng.choice(dead)
            p = [rng.choice("01...") for _ in range(n)]
            p[c] = "."
            got = eval_position(ctx, S, "".join(p))
            for fill in "10":
                p[c] = fill
                assert eval_position(ctx, S, "".join(p)) is got


def test_simplified_eval_is_equivalent_to_raw(ctx):
    rng = random.Random(3002)
    boards = [random_threshold_board(rng, P4, rng.randint(1, 4))
              for _ in range(25)]
    for S in boards + _planted_boards(random.Random(3019)):
        raw = eval_board(ctx, S, simplify=False)
        assert equiv(ctx, eval_board(ctx, S), raw)


def test_eval_position_agrees_with_eval_board(ctx):
    rng = random.Random(3003)
    for _ in range(10):
        S = random_threshold_board(rng, P4, 3)
        assert eval_position(ctx, S, "...") is eval_board(ctx, S)


def test_eval_position_caps_the_empty_cells_not_the_carrier(ctx):
    # 13 of 25 cells colored leave 12 empty; each requirement takes one
    # colored cell and two empty ones.  The hand-restricted board keeps,
    # per atom, the minimal requirements that meet no white cell, less
    # their black cells, renumbered over the empty cells
    rng = random.Random(3017)
    n = 25
    colored = rng.sample(range(n), 13)
    black, white = set(colored[:7]), set(colored[7:])
    free = [i for i in range(n) if i not in black | white]
    sets = {a: [{rng.choice(colored), *rng.sample(free, 2)} for _ in range(4)]
            for a in ("a", "b", "top")}
    S = SetColoringGame(P4, tuple(f"c{i}" for i in range(n)), Threshold(
        P4, n, {a: tuple({"".join("1" if i in req else "0"
                                  for i in range(n))
                          for req in reqs}) for a, reqs in sets.items()}))
    position = "".join("1" if i in black else "0" if i in white else "."
                       for i in range(n))
    restricted = {}
    for a, reqs in sets.items():
        kept = {frozenset(set(req) - black) for req in reqs
                if not white & set(req)}
        kept = {r for r in kept if not any(o < r for o in kept)}
        if kept:
            restricted[a] = tuple("".join("1" if i in r else "0"
                                          for i in free) for r in kept)
    small = SetColoringGame(P4, tuple(f"c{i}" for i in free),
                            Threshold(P4, len(free), restricted))
    got = eval_position(ctx, S, position)
    assert got is eval_board(ctx, small)
    assert not got.is_atomic
    with pytest.raises(CarrierTooLarge):
        eval_board(ctx, S)
    with pytest.raises(CarrierTooLarge):
        eval_board(ctx, random_threshold_board(rng, P4, DEFAULT_EVAL_CAP + 1))


def test_eval_position_at_full_coloring_is_the_payoff(ctx):
    S = sc_base(GadgetKind.COUPLING)
    rng = random.Random(3004)
    for _ in range(10):
        p = "".join(rng.choice("01") for _ in range(5))
        assert eval_position(ctx, S, p) is atomic(payoff_eval(S, p), P4)


def test_board_position_games_are_monotone(ctx):
    rng = random.Random(3005)
    for _ in range(15):
        S = random_threshold_board(rng, P4, rng.randint(1, 4))
        assert is_monotone(ctx, eval_board(ctx, S, simplify=False))
        assert is_passable(ctx, eval_board(ctx, S))


def test_simplified_value_can_leave_the_monotone_class(ctx):
    # simplification preserves the value, not the tree class: this value
    # of a monotone four-cell board keeps a left option that is no
    # longer good, so only passability survives
    g = parse("{b,{top|a}|bot}")
    assert is_passable(ctx, g)
    assert not is_monotone(ctx, g)


def _bool_power(k):
    """Bool^k, folded from the left as sc_sum folds its posets."""
    return reduce(product, [BOOL] * k)


def test_eval_codes_more_than_256_outcomes_in_two_bytes(ctx):
    # one threshold over Bool^9 whose unit atom k needs cell k: every
    # coloring scores its own element, and the board is one part, so its
    # residual tables take two bytes an entry.  Its value is the sum of
    # nine one-cell values, summed from the left as product folds
    wide = _bool_power(9)
    assert len(wide) == 512
    units = [reduce(lambda x, y: f"({x},{y})",
                    ["top" if j == k else "bot" for j in range(9)])
             for k in range(9)]
    S = SetColoringGame(wide, tuple(f"c{k}" for k in range(9)), Threshold(
        wide, 9, {u: ("0" * k + "1" + "0" * (8 - k),)
                  for k, u in enumerate(units)}))
    cell = SetColoringGame(BOOL, ("c",), Threshold(BOOL, 1, {"top": ("1",)}))
    one = eval_board(ctx, cell, simplify=False)
    parts = ctx.stats["eval_parts"]
    assert eval_board(ctx, S, simplify=False) is \
        reduce(partial(sum_games, ctx), [one] * 9)
    assert ctx.stats["eval_parts"] == parts + 1
    # a colored cell contributes its atom to the sum, an empty one the cell
    part = {".": one, "1": atomic("top", BOOL), "0": atomic("bot", BOOL)}
    for position in ("1........", "........0", "...1.0..."):
        want = reduce(partial(sum_games, ctx), [part[c] for c in position])
        assert eval_position(ctx, S, position, simplify=False) is want


def test_eval_codes_few_outcomes_of_a_wide_poset_in_two_bytes(ctx):
    # threshold boards over Bool^9 with three atoms: a few outcomes, but
    # 512 elements, so every entry of a residual table takes two bytes
    wide = _bool_power(9)
    rng = random.Random(3017)
    for _ in range(6):
        n = rng.randint(3, 4)
        sets = {a: (mask_pattern(rng.randrange(1, 1 << n), n),)
                for a in rng.sample(
                    [x for x in wide.elements if x != wide.bot], 3)}
        S = SetColoringGame(wide, tuple(f"c{i}" for i in range(n)),
                            Threshold(wide, n, sets))
        for k in range(3 ** n):
            position = "".join("01."[k // 3 ** i % 3] for i in range(n))
            got = eval_position(ctx, S, position, simplify=False)
            assert got is ref_eval(S, position), position


def test_eval_leaves_no_garbage_cycle(ctx):
    # the residual memo is freed when the evaluation returns, not held by
    # a reference cycle until a full collection
    S = random_threshold_board(random.Random(5), P4, 6)
    gc.collect()
    gc.disable()
    try:
        eval_board(ctx, S)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_eval_cap(ctx):
    S = random_threshold_board(random.Random(0), P4, 5)
    with pytest.raises(CarrierTooLarge):
        eval_board(ctx, S, max_cells=4)
    with pytest.raises(CarrierTooLarge):
        eval_position(ctx, S, ".....", max_cells=4)


def test_a_negative_cap_is_refused_up_front(ctx):
    # a plain ValueError naming the cap, not a CarrierTooLarge from a part
    S = sc_const("a", P4)
    for run in (partial(eval_board, ctx, S),
                partial(eval_position, ctx, S, "")):
        with pytest.raises(ValueError) as e:
            run(max_cells=-1)
        assert e.type is ValueError
        assert str(e.value) == "max_cells must be 0 or more, not -1"


def _compiled_boards():
    rng = random.Random(3016)
    yield from (sc_base(kind) for kind in GadgetKind)
    for n in range(6):
        yield random_threshold_board(rng, P4, n)
    yield sc_dual(sc_shared_choice(_small_board(rng, 3), _small_board(rng, 2)))
    both = sc_sum(random_threshold_board(rng, P3, 2), _small_board(rng, 3))
    yield both
    yield sc_map(projector_f(P4), both)
    wide = sc_sum(both, _small_board(rng, 2))
    yield wide
    yield sc_map(identity_fn(wide.poset), wide)
    mctx, realized = SolverContext(), 0
    while realized < 20:
        G = random_passable_game(mctx, rng, P4, max_depth=2, max_branch=2)
        board = realize(mctx, G, verify_value=False).board
        if board.size <= 12:
            realized += 1
            yield board
    yield _scrambled_json_board()
    yield sc_const("a", P4)


def test_compiled_payoff_is_ref_value_at_every_coloring():
    for S in _compiled_boards():
        n = S.size
        names = S.poset.elements
        assert [names[v] for v in S.payoff.compiled(n)] == [
            ref_value_at(S.payoff, b, n) for b in range(1 << n)]


# -- restriction ---------------------------------------------------------------

def _sliced(table, n, black, white):
    """The full table with the colored cells taken off, from the highest
    down: coloring cell i keeps every other block of 2^i entries, the odd
    blocks when it is black and the even ones when it is white."""
    for i in reversed(range(n)):
        if (black | white) >> i & 1:
            block = 1 << i
            table = [v for j in range(block if black >> i & 1 else 0,
                                      len(table), 2 * block)
                     for v in table[j:j + block]]
    return table


def _restriction_boards():
    """Seeded boards of every payoff class over P4, P3, Bool and a
    product, bare and combined: overlapping (shared choice), disjoint
    (coupling, sum), mapped and dualized."""
    rng = random.Random(3029)
    square = product(BOOL, BOOL)
    for poset in (P4, P3, BOOL, square):
        n = rng.randint(3, 6)
        yield SetColoringGame(poset, tuple(f"c{i}" for i in range(n)),
                              Const(poset, poset.elements[1]))
        T = random_threshold_board(rng, poset, n)
        yield T
        yield sc_dual(T)
        yield sc_map(identity_fn(poset), random_threshold_board(rng, poset, 4))
        yield sc_shared_choice(random_threshold_board(rng, poset, 3),
                               random_threshold_board(rng, poset, 4))
        yield sc_coupling(random_threshold_board(rng, poset, 2),
                          sc_dual(random_threshold_board(rng, poset, 2)))
    yield sc_sum(random_threshold_board(rng, P3, 3), _small_board(rng, 4))
    yield sc_dual(sc_shared_choice(_small_board(rng, 4),
                                   sc_force_left(_small_board(rng, 3))))
    yield _scrambled_json_board()


def test_restricted_payoff_is_the_sliced_full_table():
    rng = random.Random(3030)
    boards = list(_restriction_boards())
    assert {type(S.payoff) for S in boards} == {Const, Threshold, Compose,
                                                Dual}
    for S in boards:
        n, names = S.size, S.poset.elements
        full = S.payoff.compiled(n)
        for _ in range(12):
            colors = [rng.choice("01.") for _ in range(n)]
            black = sum(1 << i for i, c in enumerate(colors) if c == "1")
            white = sum(1 << i for i, c in enumerate(colors) if c == "0")
            empty = [i for i, c in enumerate(colors) if c == "."]
            got = S.payoff.compiled(n, black, white)
            assert got == _sliced(full, n, black, white), (S, colors)
            assert [names[v] for v in got] == [
                ref_value_at(S.payoff, black | _spread(s, empty), n)
                for s in range(1 << len(empty))], (S, colors)


def test_value_at_is_ref_value_at_every_coloring():
    for S in _restriction_boards():
        n = S.size
        assert [S.payoff.value_at(b, n) for b in range(1 << n)] == [
            ref_value_at(S.payoff, b, n) for b in range(1 << n)], S


def test_restricted_thresholds_need_not_be_antichains():
    # with cell 0 black, "110" and "011" restrict to {1} and {1, 2}, one
    # inside the other; with cells 0 and 1 black, "110" is met outright
    T = Threshold(P4, 3, {"a": ("110", "011"), "b": ("101",)})
    names = P4.elements
    assert [names[v] for v in T.compiled(3, 0b001, 0)] == [
        "bot", "a", "b", "top"]
    assert [names[v] for v in T.compiled(3, 0b011, 0)] == ["a", "top"]
    assert [names[v] for v in T.compiled(3, 0b001, 0b100)] == ["bot", "a"]
    assert [names[v] for v in T.compiled(3, 0, 0b111)] == ["bot"]


class _Spy:
    """A payoff that hands out its inner payoff's tables and records how
    many entries each one has."""

    def __init__(self, inner):
        self.inner, self.poset, self.sizes = inner, inner.poset, []

    def fits(self, n):
        return self.inner.fits(n)

    def compiled(self, n, *masks):
        table = self.inner.compiled(n, *masks)
        self.sizes.append(len(table))
        return table


def test_eval_position_compiles_only_the_empty_cells(ctx):
    rng = random.Random(3031)
    S = sc_coupling(_small_board(rng, 3), sc_dual(_small_board(rng, 3)))
    spy = _Spy(S.payoff)
    T = SetColoringGame(S.poset, S.cells, spy)
    for k in (0, 1, 2, 4, S.size):
        cells = rng.sample(range(S.size), k)
        p = "".join("." if i in cells else rng.choice("01")
                    for i in range(S.size))
        spy.sizes.clear()
        assert eval_position(ctx, T, p) is eval_position(ctx, S, p)
        assert spy.sizes == [1 << k], p


# -- structural homomorphisms --------------------------------------------------

def test_sum_board_is_structurally_the_sum(ctx):
    rng = random.Random(3006)
    for _ in range(10):
        S = random_threshold_board(rng, P4, rng.randint(0, 3))
        T = random_threshold_board(rng, P3, rng.randint(0, 2))
        both = sc_sum(S, T)
        assert both.size == S.size + T.size
        got = eval_board(ctx, both, simplify=False)
        want = sum_games(ctx, eval_board(ctx, S, simplify=False),
                         eval_board(ctx, T, simplify=False))
        assert got is want


def test_sum_of_consts_is_the_paired_atom(ctx):
    S = sc_sum(sc_const("a", P4), sc_const("b", P4))
    v = eval_board(ctx, S)
    assert v.is_atomic and v.atom == "(a,b)"


def test_map_board_is_structurally_the_map(ctx):
    rng = random.Random(3007)
    f = projector_f(P4)
    for _ in range(10):
        S = random_threshold_board(rng, P3, rng.randint(0, 2))
        T = random_threshold_board(rng, P4, rng.randint(0, 2))
        board = sc_map(f, sc_sum(S, T))
        assert board.size == S.size + T.size
        got = eval_board(ctx, board, simplify=False)
        want = map_game(f, eval_board(ctx, sc_sum(S, T), simplify=False))
        assert got is want


# -- structural evaluation -----------------------------------------------------

def _flat(ctx, S, position=None):
    """The raw value of the board brute-forced whole, as one part."""
    return _eval_part(ctx, S.payoff, S.cells,
                      *_position_masks(position or "." * S.size, S.size),
                      False, DEFAULT_EVAL_CAP)


def _criterion_6_boards(ctx):
    """The distinct boards that criterion 6 realizes, plain synthesizer."""
    curated = sorted(expand_fixture(load_fixture(), 3, ctx),
                     key=lambda g: g.uid)
    curated += [gadget_game(k) for k in GadgetKind]
    curated.append(parse("{top|bot}"))
    rng = random.Random(9006)
    randoms = [random_passable_game(ctx, rng, P4, 2, 2) for _ in range(100)]
    boards = {}
    for g in curated + randoms:
        S = realize(ctx, g, verify_value=False).board
        boards[id(S)] = S
    return list(boards.values())


def test_structural_eval_is_the_flat_eval_on_criterion_6_boards(ctx):
    # raw, the structural value is the very tree the whole board gives
    # brute-forced; simplified, it is equivalent.  The boards of 13 and 14
    # cells are left to the slow test below
    boards = [S for S in _criterion_6_boards(ctx) if S.size <= 12]
    assert len(boards) == 31
    assert sum(isinstance(S.payoff, Compose) for S in boards) >= 20
    for S in boards:
        raw = _flat(ctx, S)
        assert eval_board(ctx, S, simplify=False) is raw
        assert equiv(ctx, eval_board(ctx, S), raw)


@pytest.mark.slow
def test_structural_eval_is_the_flat_eval_on_criterion_6_large_boards(ctx):
    # the six boards of 13 and 14 cells, each in fresh contexts: raw, a
    # coupling's image is built at every triple of its children's
    # positions, so they take some 5 s structural and 5 s flat in all
    boards = [S for S in _criterion_6_boards(ctx) if 12 < S.size <= 14]
    assert len(boards) == 6
    for S in boards:
        assert eval_board(SolverContext(), S, simplify=False) \
            is _flat(SolverContext(), S)


def _sum_with(S, T, left, right):
    """S and T side by side, read through the given embeddings."""
    pr = product(S.poset, T.poset)
    cells = tuple(f"c{i}" for i in range(S.size + T.size))
    return SetColoringGame(pr, cells, Compose(
        identity_fn(pr), ((S.payoff, left), (T.payoff, right))))


def _layouts(S, T):
    """S and T read disjointly out of carrier order: S reversed, then S on
    the even cells and T on the others (T has at least S.size - 1 cells)."""
    p, q = S.size, T.size
    evens = tuple(range(0, 2 * p, 2))
    return [
        _sum_with(S, T, tuple(reversed(range(p))), tuple(range(p, p + q))),
        _sum_with(S, T, evens, tuple(sorted(set(range(p + q)) - set(evens)))),
    ]


def _structured_boards(rng):
    """Seeded sums, maps, forced and coupled boards of at most 9 cells,
    and sums laid out reversed and interleaved."""
    f = projector_f(P4)
    boards = [
        sc_sum(_small_board(rng, 3), _small_board(rng, 3)),
        sc_sum(sc_sum(_small_board(rng, 2), sc_const("a", P4)),
               sc_dual(_small_board(rng, 3))),
        sc_map(f, sc_sum(random_threshold_board(rng, P3, 2),
                         _small_board(rng, 3))),
        sc_force_left(_small_board(rng, 4)),
        sc_force_right(sc_dual(_small_board(rng, 4))),
        sc_coupling(_small_board(rng, 2), _small_board(rng, 2)),
        sc_coupling(sc_force_left(_small_board(rng, 1)),
                    sc_shared_choice(_small_board(rng, 1),
                                     _small_board(rng, 2))),
    ]
    S, T = (random_threshold_board(rng, P4, 3) for _ in range(2))
    return boards + _layouts(S, T)


def test_structural_eval_is_the_flat_eval_on_composed_boards(ctx):
    rng = random.Random(3032)
    for S in _structured_boards(rng):
        assert S.size <= 9
        positions = ["." * S.size]
        positions += ["".join(rng.choice("01..") for _ in range(S.size))
                      for _ in range(5)]
        for p in positions:
            raw = _flat(ctx, S, p)
            assert eval_position(ctx, S, p, simplify=False) is raw
            assert equiv(ctx, eval_position(ctx, S, p), raw)


def test_structural_eval_counts_its_parts():
    # a coupling of a threshold board and a forced one: the gadget, the
    # threshold and the force's one cell are parts, the forced constant
    # a fourth, of no empty cells
    rng = random.Random(3033)
    S = sc_coupling(random_threshold_board(rng, P4, 3),
                    sc_force_left(sc_const("a", P4)))
    ctx = SolverContext()
    eval_board(ctx, S)
    assert (ctx.stats["eval_parts"], ctx.stats["eval_flat_cells"]) == (4, 5)
    # colored cells leave the children; the largest part is a running max
    eval_position(ctx, S, "10." + "." * (S.size - 3))
    assert (ctx.stats["eval_parts"], ctx.stats["eval_flat_cells"]) == (8, 5)
    ctx = SolverContext()
    eval_position(ctx, S, "11111" + "." * (S.size - 5))
    assert (ctx.stats["eval_parts"], ctx.stats["eval_flat_cells"]) == (4, 3)


def test_structural_eval_falls_back_on_shared_or_unread_cells():
    # each board is one part: its children overlap or leave a cell unread;
    # the whole board is brute-forced
    rng = random.Random(3034)
    S, T = _small_board(rng, 2), _small_board(rng, 2)
    while S.size < 2 or T.size < 1:
        S, T = _small_board(rng, 2), _small_board(rng, 2)
    p, q = S.size, T.size
    pr = product(P4, P4)
    boards = [
        sc_shared_choice(S, T),
        SetColoringGame(pr, tuple(f"c{i}" for i in range(p + q + 1)),
                        Compose(identity_fn(pr), (
                            (S.payoff, tuple(range(p))),
                            (T.payoff, tuple(range(p + 1, p + q + 1)))))),
    ]
    for B in boards:
        assert B.size <= 6
        ctx = SolverContext()
        assert eval_board(ctx, B, simplify=False) is ref_eval(B)
        assert ctx.stats["eval_parts"] == 1
        assert ctx.stats["eval_flat_cells"] == B.size
    # the same two boards read disjointly, in order, reversed or
    # interleaved, are valued at their two children
    for B in [sc_sum(S, T), *_layouts(S, T)]:
        ctx = SolverContext()
        assert eval_board(ctx, B, simplify=False) is ref_eval(B)
        assert ctx.stats["eval_parts"] == 2


def _shared_choices(ctx):
    """Shared choices above the group guard: of a 1-cell and a 6-cell
    board, both ways round, and the realized {bot,{a|a}|bot}."""
    one, six = (realize(ctx, parse(t), verify_value=False).board
                for t in ("{b|bot}", "{top|a,{a,bot|bot}}"))
    assert (one.size, six.size) == (1, 6)
    realized = realize(ctx, parse("{bot,{a|a}|bot}"), verify_value=False)
    return [sc_shared_choice(one, six), sc_shared_choice(six, one),
            realized.board]


def test_shared_choices_are_valued_at_their_overlap_groups(ctx):
    # the gadget's two cells leave the part; the pool is brute-forced as
    # one group, and the raw value is still the very tree of the whole
    # board brute-forced, and of the textbook recursion
    for B in _shared_choices(ctx):
        assert B.size > setcolor._GROUP_ABOVE
        fresh = SolverContext()
        raw = eval_board(fresh, B, simplify=False)
        assert raw is _flat(SolverContext(), B) is ref_eval(B)
        assert (fresh.stats["eval_groups"], fresh.stats["eval_parts"],
                fresh.stats["eval_flat_cells"]) == (1, 2, B.size - 2)
        assert equiv(ctx, eval_board(SolverContext(), B),
                     _eval_part(SolverContext(), B.payoff, B.cells, 0, 0,
                                True, DEFAULT_EVAL_CAP))
        assert equiv(ctx, eval_board(SolverContext(), B), raw)


@pytest.mark.parametrize("text", [
    "{top,{a|a}|bot}", "{top|top,{a|a}}", "{{a|a},{top|top}|bot}",
    "{top|{b|b},{top|b}}", "{a,{bot|bot,top}|bot}",
    "{top|bot,{bot|a,bot}}", "{top|{b|bot,top},{top|b,bot}}",
])
def test_realized_boards_split_at_overlap_groups_are_the_flat_eval(ctx,
                                                                    text):
    # realized boards of 10 and 12 cells with a shared choice above the
    # guard: raw, the split value is the whole board brute-forced
    S = realize(ctx, parse(text), verify_value=False).board
    assert S.size in (10, 12)
    fresh = SolverContext()
    raw = eval_board(fresh, S, simplify=False)
    assert fresh.stats["eval_groups"] >= 1
    assert raw is _flat(SolverContext(), S)
    assert equiv(ctx, eval_board(SolverContext(), S), raw)


def test_a_composition_split_out_of_child_order_is_the_flat_eval(ctx):
    # X and Z share a cell and Y reads its own, so the groups are (X, Z)
    # and (Y,): the regrouped function reads its domain out of child
    # order, over factors of three sizes.  A shared choice would not show
    # a mix-up of its two boards, which the choice gadget treats alike
    rng = random.Random(3037)

    def board(poset, n):
        while True:
            S = random_threshold_board(rng, poset, n)
            if len(set(S.payoff.compiled(n))) > 1:
                return S

    X, Y, Z = board(P4, 4), board(BOOL, 3), board(P3, 2)
    dom = reduce(product, [P4, BOOL, P3])
    B = SetColoringGame(dom, tuple(f"c{i}" for i in range(8)), Compose(
        identity_fn(dom), ((X.payoff, (0, 1, 2, 3)), (Y.payoff, (4, 5, 6)),
                           (Z.payoff, (3, 7)))))
    fresh = SolverContext()
    raw = eval_board(fresh, B, simplify=False)
    assert (fresh.stats["eval_groups"], fresh.stats["eval_parts"],
            fresh.stats["eval_flat_cells"]) == (1, 2, 5)
    assert raw is _flat(SolverContext(), B) is ref_eval(B)
    assert equiv(ctx, eval_board(SolverContext(), B), raw)


def test_the_parts_of_a_realized_shared_choice(monkeypatch):
    # {bot,{a|a}|bot} is a shared choice of a 1-cell and an 8-cell board:
    # its largest part falls from the whole 10 cells to the 8-cell pool
    ctx = SolverContext()
    B = _shared_choices(ctx)[-1]
    assert B.size == 10
    reads = [list(emb) for _, emb in B.payoff.children]
    groups = setcolor._overlap_groups(reads)
    assert groups == ((0,), (1, 2))
    pool = setcolor._regroup(B.payoff, groups).children[1]
    assert isinstance(pool[0], Compose)
    assert [B.cells[i] for i in pool[1]] == [f"p{i}" for i in range(8)]
    split = SolverContext()
    value = eval_board(split, B, simplify=False)
    assert (split.stats["eval_parts"], split.stats["eval_flat_cells"]) \
        == (2, 8)
    # with the guard above the board, it is one part of 10 cells
    monkeypatch.setattr(setcolor, "_GROUP_ABOVE", B.size)
    whole = SolverContext()
    assert eval_board(whole, B, simplify=False) is value
    assert (whole.stats["eval_groups"], whole.stats["eval_parts"],
            whole.stats["eval_flat_cells"]) == (0, 1, 10)


def test_a_shared_choice_at_the_group_guard_stays_one_part(ctx):
    # a shared choice of exactly _GROUP_ABOVE cells has the same groups,
    # but too few empty cells to split
    one, four = (realize(ctx, parse(t), verify_value=False).board
                 for t in ("{b|bot}", "{a,{top|a}|bot}"))
    B = sc_shared_choice(one, four)
    assert B.size == setcolor._GROUP_ABOVE
    fresh = SolverContext()
    assert eval_board(fresh, B, simplify=False) is ref_eval(B)
    assert (fresh.stats["eval_groups"], fresh.stats["eval_parts"],
            fresh.stats["eval_flat_cells"]) == (0, 1, B.size)


def test_realized_boards_evaluate_to_one_object_in_fresh_contexts():
    # simplified forms persist on the games, so a second fresh context
    # returns the very objects the first one built
    ctx = SolverContext()
    rng = random.Random(3035)
    boards = []
    while len(boards) < 12:
        g = random_passable_game(ctx, rng, P4, 2, 2)
        S = realize(ctx, g, verify_value=False).board
        if 6 <= S.size <= 12:
            boards.append(S)
    first = [eval_board(SolverContext(), S) for S in boards]
    again = SolverContext()
    assert all(eval_board(again, S) is v for S, v in zip(boards, first))
    assert again.stats["simplify_reused"] > 0


def test_a_part_is_valued_once_a_process():
    # a second evaluation in a fresh context reads every part off the
    # process-wide cache: the same object, and the same counts, as if the
    # parts were expanded again
    counts = ("eval_parts", "eval_residuals", "eval_dead", "eval_flat_cells")
    rng = random.Random(3505)
    S = sc_sum(sc_coupling(random_threshold_board(rng, P4, 4),
                           random_threshold_board(rng, P4, 3)),
               sc_force_left(random_threshold_board(rng, P4, 5)))
    for simplify in (True, False):
        first, again = SolverContext(), SolverContext()
        v = eval_board(first, S, simplify)
        assert eval_board(again, S, simplify) is v
        assert [again.stats[k] for k in counts] == \
            [first.stats[k] for k in counts]
        assert again.stats["eval_reused"] == again.stats["eval_parts"] > 1
        assert again.stats["eval_residuals"] > 0


def test_a_cached_part_still_meets_the_cap(ctx):
    big = random_threshold_board(random.Random(3506), P4, 6)
    eval_board(ctx, big)
    fresh = SolverContext()
    with pytest.raises(CarrierTooLarge, match="6 empty cells exceeds the "
                       "cap of 5"):
        eval_board(fresh, big, max_cells=5)
    assert fresh.stats["eval_reused"] == fresh.stats["eval_parts"] == 0


def test_cached_raw_and_simplified_parts_are_kept_apart():
    # the same residual table in both modes, simplified first: the raw value
    # is still the textbook tree
    rng = random.Random(3507)
    boards = [random_threshold_board(rng, P4, 5) for _ in range(8)]
    differ = 0
    for S in boards:
        simple = eval_board(SolverContext(), S)
        raw = eval_board(SolverContext(), S, simplify=False)
        assert raw is ref_eval(S)
        assert eval_board(SolverContext(), S) is simple
        differ += raw is not simple
    assert differ > 4


def test_sums_of_realized_boards_evaluate_past_the_old_cap(ctx):
    # two 10-cell and two 12-cell boards of coupling roots; each sum's
    # largest brute-forced part is a coupling gadget or a shared choice
    for texts, cells in ((("{{top|b}|b,top}", "{b|b,{bot|bot}}"), 20),
                         (("{a,{top|a,b}|a}", "{top|{a,top|b,top}}"), 24)):
        g, h = (parse(t) for t in texts)
        S, T = (realize(ctx, x, verify_value=False).board for x in (g, h))
        both = sc_sum(S, T)
        assert both.size == cells > DEFAULT_EVAL_CAP
        fresh = SolverContext()
        value = eval_board(fresh, both)
        assert fresh.stats["eval_flat_cells"] <= 10
        assert equiv(ctx, value, sum_games(ctx, eval_board(ctx, S),
                                           eval_board(ctx, T)))
        assert equiv(ctx, value, sum_games(ctx, g, h))


def test_a_part_above_the_cap_names_its_empty_cells(ctx):
    rng = random.Random(3035)
    big = random_threshold_board(rng, P4, DEFAULT_EVAL_CAP + 1)
    S = sc_sum(sc_force_left(sc_const("a", P4)), big)
    with pytest.raises(CarrierTooLarge) as e:
        eval_board(ctx, S)
    names = " ".join(f"r.c{i}" for i in range(DEFAULT_EVAL_CAP + 1))
    assert str(e.value) == (f"{DEFAULT_EVAL_CAP + 1} empty cells exceeds the "
                            f"cap of {DEFAULT_EVAL_CAP} in the part on "
                            f"{names}")
    # the cap is on each part's empty cells: one colored cell of the big
    # part brings it under, and a colored board names only the empty ones
    p = "." + "0" + "." * DEFAULT_EVAL_CAP
    assert equiv(ctx, eval_position(ctx, S, p),
                 sum_games(ctx, parse("{top|a}"),
                           eval_position(ctx, big, p[1:])))
    with pytest.raises(CarrierTooLarge, match="4 empty cells exceeds the "
                       "cap of 3 in the part on r.c13 r.c14 r.c15 r.c16$"):
        eval_position(ctx, S, "." + "1" * 13 + "....", max_cells=3)


def test_map_rejects_wrong_domain():
    from scgames.games import PosetMismatch

    with pytest.raises(PosetMismatch):
        sc_map(projector_f(P4), sc_const("a", P4))


# -- combinators vs the game algebra -------------------------------------------

def test_force_combinators(ctx):
    rng = random.Random(3008)
    for _ in range(8):
        S = random_threshold_board(rng, P4, rng.randint(0, 3))
        g = eval_board(ctx, S)
        L, R = sc_force_left(S), sc_force_right(S)
        assert L.size == S.size + 1 and R.size == S.size + 1
        assert equiv(ctx, eval_board(ctx, L), force_left(g))
        assert equiv(ctx, eval_board(ctx, R), force_right(g))


def test_force_right_of_const_is_the_appendix_board(ctx):
    S = sc_force_right(sc_const("a", P4))
    assert S.size == 1
    assert eval_board(ctx, S) is parse("{a|bot}")


def test_shared_choice_of_consts_is_the_choice_value(ctx):
    S = sc_shared_choice(sc_const("a", P4), sc_const("b", P4))
    assert S.size == 2
    assert eval_board(ctx, S) is choice(atomic("a", P4), atomic("b", P4))


def test_shared_choice_on_random_boards(ctx):
    rng = random.Random(3009)
    for _ in range(8):
        S = random_threshold_board(rng, P4, rng.randint(0, 3))
        T = random_threshold_board(rng, P4, rng.randint(0, 3))
        out = sc_shared_choice(S, T)
        assert out.size == max(S.size, T.size) + 2
        want = choice(eval_board(ctx, S), eval_board(ctx, T))
        assert equiv(ctx, eval_board(ctx, out), want)


def test_shared_choice_with_full_overlap(ctx):
    # same board on both branches: the pool is reused completely
    rng = random.Random(3010)
    for _ in range(5):
        S = random_threshold_board(rng, P4, 3)
        out = sc_shared_choice(S, S)
        assert out.size == 5
        g = eval_board(ctx, S)
        assert equiv(ctx, eval_board(ctx, out), choice(g, g))


def test_one_sided_choice_merges_into_one_left_set(ctx):
    S = sc_one_sided_choice([sc_const("a", P4), sc_const("b", P4)])
    assert S.size == 3
    assert equiv(ctx, eval_board(ctx, S), parse("{a,b|bot}"))


def test_one_sided_choice_size_bound_eight_atoms(ctx):
    A8 = antichain_poset(8)
    boards = [sc_const(a, A8) for a in A8.elements[1:-1]]
    assert len(boards) == 8
    S = sc_one_sided_choice(boards)
    assert S.size == 7
    want = parse("{" + ",".join(A8.elements[1:-1]) + "|bot}", A8)
    assert equiv(ctx, eval_board(ctx, S), want)


def test_one_sided_choice_singleton(ctx):
    S = sc_one_sided_choice([sc_const("a", P4)])
    assert S.size == 1
    assert eval_board(ctx, S) is parse("{a|bot}")


def test_one_sided_choice_dual(ctx):
    S = sc_one_sided_choice_dual([sc_const("a", P4), sc_const("b", P4)])
    assert S.size == 3
    assert equiv(ctx, eval_board(ctx, S), parse("{top|a,b}"))


def test_coupling_combinator(ctx):
    S = sc_coupling(sc_const("a", P4), sc_const("b", P4))
    assert S.size == 5
    assert eval_board(ctx, S) is coupling(atomic("a", P4), atomic("b", P4))


def test_coupling_on_random_boards(ctx):
    rng = random.Random(3011)
    for _ in range(5):
        S = random_threshold_board(rng, P4, rng.randint(0, 2))
        T = random_threshold_board(rng, P4, rng.randint(0, 2))
        out = sc_coupling(S, T)
        assert out.size == S.size + T.size + 5
        want = coupling(eval_board(ctx, S), eval_board(ctx, T))
        assert equiv(ctx, eval_board(ctx, out), want)


def test_dual_board(ctx):
    S = sc_base(GadgetKind.LEFT_FORCE)
    D = sc_dual(S)
    assert eval_board(ctx, D) is force_right(atomic("a", P3))
    # involution at the level of values
    assert eval_board(ctx, sc_dual(D)) is eval_board(ctx, S)


def test_dual_needs_a_self_dual_poset():
    from scgames.games import NoDualityMap

    chain4 = make_poset(
        ["bot", "x", "y", "top"],
        [("bot", "x"), ("x", "y"), ("y", "top")])
    assert chain4.dual_atom_map() is None
    with pytest.raises(NoDualityMap):
        sc_dual(sc_const("x", chain4))


def test_one_sided_choice_dual_needs_no_duality_map(ctx):
    chain4 = make_poset(
        ["bot", "x", "y", "top"],
        [("bot", "x"), ("x", "y"), ("y", "top")])
    x, y = sc_const("x", chain4), sc_const("y", chain4)
    S = sc_one_sided_choice_dual([x, y])
    assert S.size == 3
    assert equiv(ctx, eval_board(ctx, S), parse("{top|x,y}", chain4))


# -- payoff validation ---------------------------------------------------------

def test_threshold_patterns_must_be_antichains():
    with pytest.raises(ValueError):
        Threshold(P4, 3, {"a": ("100", "110")})
    for pats in (["01", "11"], ["11", "01"], ["10", "10"], ["00", "01"]):
        with pytest.raises(ValueError, match="antichain"):
            pattern_masks(pats, 2)
    # mask_pattern inverts pattern_masks on every antichain of 4 cells
    for ac in antichains(4):
        pats = [mask_pattern(m, 4) for m in ac]
        assert pattern_masks(pats, 4) == ac
        assert [mask_pattern(m, 4) for m in pattern_masks(pats, 4)] == pats


def test_threshold_pattern_length_checked():
    with pytest.raises(ValueError):
        Threshold(P4, 3, {"a": ("10",)})
    with pytest.raises(ValueError, match="list of strings"):
        Threshold(P4, 1, {"a": "1"})
    for pats in (["10"], ["1010"], ["1x0"], ["1 0"], [101], ("101", None),
                 "101", {"101": 1}, None):
        with pytest.raises(ValueError):
            pattern_masks(pats, 3)
    assert pattern_masks([], 3) == ()
    assert pattern_masks([""], 0) == (0,)
    assert pattern_masks(("100", "011"), 3) == (1, 6)


def test_threshold_needs_a_lattice():
    # two maximal lower bounds of {x,y} (both p and q), no join of p,q
    awkward = make_poset(
        ["bot", "p", "q", "x", "y", "top"],
        [("bot", "p"), ("bot", "q"), ("p", "x"), ("q", "x"),
         ("p", "y"), ("q", "y"), ("x", "top"), ("y", "top")])
    with pytest.raises(SupremumUndefined):
        Threshold(awkward, 1, {"p": ("1",), "q": ("0",)})


def test_compose_embeddings_checked():
    with pytest.raises(ValueError):
        Compose(projector_f(P4), (
            (Threshold(P3, 1, {"a": ("1",)}), (0, 0)),
            (Const(P4, "a"), ()),
        ))


def test_board_rejects_out_of_range_indices():
    payoff = Compose(projector_f(P4), (
        (Threshold(P3, 1, {"a": ("1",)}), (5,)),
        (Const(P4, "a"), ()),
    ))
    with pytest.raises(ValueError):
        SetColoringGame(P4, ("c1",), payoff)


def test_board_rejects_duplicate_cells():
    with pytest.raises(ValueError):
        SetColoringGame(P4, ("c", "c"), Threshold(P4, 2, {}))


def test_payoff_monotonicity_holds_by_construction():
    # every expression variant preserves monotonicity, so the exhaustive
    # check is a verification, not a filter; it passes across combinators
    S = sc_coupling(sc_dual(sc_base(GadgetKind.CHOICE)),
                    sc_force_left(sc_const("b", P4)))
    assert check_payoff_monotone(S)


@dataclass(frozen=True)
class _TablePayoff:
    """A payoff given by its compiled table alone, monotone or not."""

    poset: object
    table: tuple

    def fits(self, n):
        return len(self.table) == 1 << n

    def compiled(self, n):
        return list(self.table)


def test_payoff_monotonicity_check_reads_the_order():
    # over Bool, element 0 is bot and 1 is top: the one-cell table that
    # scores black below white is the one that fails
    assert BOOL.elements == ("bot", "top")
    up = SetColoringGame(BOOL, ("c",), _TablePayoff(BOOL, (0, 1)))
    down = SetColoringGame(BOOL, ("c",), _TablePayoff(BOOL, (1, 0)))
    assert check_payoff_monotone(up)
    assert not check_payoff_monotone(down)


def test_payoff_monotonicity_check_reaches_the_eval_cap():
    # the default cap is eval_board's: a board on that many cells is
    # checked in full, down to a flip at the last coloring that lowers the
    # score, and one cell more is refused
    n = DEFAULT_EVAL_CAP
    cells = tuple(f"c{i}" for i in range(n + 1))
    majority = tuple(int(2 * m.bit_count() >= n) for m in range(1 << n))
    dip = majority[:-1] + (0,)
    for table, want in ((majority, True), (dip, False)):
        S = SetColoringGame(BOOL, cells[:n], _TablePayoff(BOOL, table))
        assert check_payoff_monotone(S) is want
    S = SetColoringGame(BOOL, cells, _TablePayoff(BOOL, (0,) * (2 << n)))
    with pytest.raises(CarrierTooLarge):
        check_payoff_monotone(S)


def test_random_threshold_boards_are_monotone():
    rng = random.Random(3012)
    for _ in range(30):
        S = random_threshold_board(rng, P4, rng.randint(0, 5))
        assert check_payoff_monotone(S)


# -- JSON ------------------------------------------------------------------------

def test_board_json_round_trip_values(ctx, tmp_path):
    rng = random.Random(3013)
    boards = [
        sc_base(GadgetKind.COUPLING),
        sc_shared_choice(sc_const("a", P4), sc_const("b", P4)),
        sc_coupling(sc_const("a", P4), sc_const("b", P4)),
        sc_one_sided_choice([sc_const("a", P4), sc_const("b", P4),
                             sc_const("top", P4)]),
        sc_dual(sc_base(GadgetKind.CHOICE)),
        sc_map(projector_f(P4),
               sc_sum(random_threshold_board(rng, P3, 2),
                      random_threshold_board(rng, P4, 2))),
    ]
    for i, S in enumerate(boards):
        path = tmp_path / f"b{i}.scg"
        save_board(S, path)
        T = load_board(path)
        assert T.cells == S.cells
        assert T.poset is S.poset
        assert eval_board(ctx, T) is eval_board(ctx, S)


_SAVE_SUM_OF_THREE = """
import json
from scgames.games import SolverContext
from scgames.setcolor import (GadgetKind, board_from_json, board_to_json,
                              eval_board, sc_base, sc_sum)
S = sc_base(GadgetKind.CHOICE)
B = sc_sum(sc_sum(S, S), S)
T = board_from_json(json.loads(json.dumps(board_to_json(B))))
ctx = SolverContext()
print(T.poset is B.poset and eval_board(ctx, T) is eval_board(ctx, B))
"""


def test_saving_a_sum_builds_no_projector_to_compare_with():
    # three 2-cell boards over P4 sum to 6 cells over P4^3; a projector over
    # that codomain would check a 16,384-element domain, so a fresh process
    # that saves the sum and reads it back stays well under a second of CPU
    src = str(Path(scgames.__file__).resolve().parent.parent)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "-c", _SAVE_SUM_OF_THREE],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True\n", "")
    cpu = (after.ru_utime + after.ru_stime
           - before.ru_utime - before.ru_stime)
    assert cpu < 1.0


def test_board_json_is_plain_data():
    S = sc_coupling(sc_const("a", P4), sc_const("b", P4))
    text = json.dumps(board_to_json(S))
    assert board_from_json(json.loads(text)).cells == S.cells


def test_board_json_errors(tmp_path):
    with pytest.raises(BoardFormatError):
        board_from_json(["not", "a", "board"])
    with pytest.raises(BoardFormatError):
        board_from_json({"poset": {"builtin": "P4"}, "cells": ["c"],
                         "payoff": {"mystery": 1}})
    with pytest.raises(BoardFormatError):
        board_from_json({"poset": {"builtin": "P4"}, "cells": []})
    with pytest.raises(BoardFormatError):
        # a bare string is not a pattern list, though iterating it works
        board_from_json({"poset": {"builtin": "P4"}, "cells": ["c"],
                         "payoff": {"threshold": {"a": "1"}}})
    bad = tmp_path / "bad.scg"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(BoardFormatError):
        load_board(bad)


def test_board_json_names_a_missing_key():
    board = {"poset": {"builtin": "P4"}, "cells": [],
             "payoff": {"const": "a"}}
    for key in board:
        obj = {k: v for k, v in board.items() if k != key}
        with pytest.raises(BoardFormatError,
                           match=f"^bad board JSON: missing key '{key}'$"):
            board_from_json(obj)


def test_threshold_json_keeps_patterns():
    S = sc_base(GadgetKind.COUPLING)
    obj = board_to_json(S)
    assert obj["payoff"]["threshold"]["a"] == ["00011", "10101", "11000"]
    assert obj["payoff"]["threshold"]["b"] == ["00100", "01010"]
