"""Synthesis of boards from games: passable game in, verified board out.

The recursion realizes the options, then assembles the node.  Cheap shapes
are pattern-matched first (atoms, and one-sided games, of which a forcing
move is the one-option case); a locally semi-monotone node K = <G*|H*>
becomes the coupling of the one-sided choice boards for the two sides,
which is equivalent to K because the extra options the coupling
introduces are gift horses.  A node
that is passable but not semi-monotone is first extended with a gift
horse manufactured from a good option of its other side, which makes it
semi-monotone without changing its value.  No board is dualized, so
every passable game realizes over every poset.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .algebra import add_gift_horse, force_left, force_right
from .games import (
    Game,
    SolverContext,
    bot,
    equiv,
    is_monotone,
    is_passable,
    leq,
    positions,
    to_notation,
    top,
)
from .setcolor import (
    DEFAULT_EVAL_CAP,
    SetColoringGame,
    _ceil_log2,
    eval_board,
    sc_const,
    sc_coupling,
    sc_one_sided_choice,
    sc_one_sided_choice_dual,
)


class NotPassable(ValueError):
    """The input is outside the class this synthesizer covers."""


class VerificationFailed(RuntimeError):
    """A synthesized board did not evaluate back to its game; a bug."""


class VerifiedHow(enum.Enum):
    """How a realized board was checked.  BRUTE_FORCE means eval_board ran
    on the board, valuing its disjoint compositions structurally and
    brute-forcing every part whose children share cells, and its value is
    equivalent to the game.  COMPOSITIONAL labels a board above the verify
    cap: no check runs on it, and it rests on the construction alone."""

    BRUTE_FORCE = "brute_force"
    COMPOSITIONAL = "compositional"
    SKIPPED = "skipped"


def size_bound(ctx: SolverContext, G: Game) -> int:
    """Worst-case carrier size for the synthesizer on this input.

    (2^d - 1)(4 ceil(lg b) + 7) cells for monotone games and the same
    with 10 in place of 7 for merely passable ones, where d and b bound
    the depth and the per-side option count.
    """
    if not is_passable(ctx, G):
        raise NotPassable(f"not passable: {to_notation(G)}")
    d = G.depth
    if d == 0:
        return 0
    b = max(G.branching, 1)
    per = 4 * _ceil_log2(b) + (7 if is_monotone(ctx, G) else 10)
    return (2 ** d - 1) * per


@dataclass(frozen=True)
class RealizationReport:
    input: Game
    board: SetColoringGame
    carrier_size: int
    bound: int
    verified: VerifiedHow
    good_option_used: dict[int, tuple[str, int]] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "input": to_notation(self.input),
            "cells": list(self.board.cells),
            "carrier_size": self.carrier_size,
            "bound": self.bound,
            "verified": self.verified.value,
            "good_options": {str(uid): list(rec) for uid, rec in
                             sorted(self.good_option_used.items())},
        }


def verify(ctx: SolverContext, board: SetColoringGame, G: Game,
           max_cells: int = DEFAULT_EVAL_CAP) -> bool:
    """Check by eval_board that the board's value is the game, up to
    equiv; every part whose children share cells is brute-forced."""
    return equiv(ctx, eval_board(ctx, board, max_cells=max_cells), G)


def realize(ctx: SolverContext, G: Game, verify_value: bool = True,
            verify_cap: int = DEFAULT_EVAL_CAP) -> RealizationReport:
    """Synthesize a monotone set coloring board whose value is G.

    The report records the board, its carrier size against the size
    bound, how the result was verified (by eval_board under the cap; no
    check runs above it, labelled compositional, or when disabled), and
    which good option manufactured a gift horse at each node that needed
    one.  A negative ``verify_cap`` raises ValueError.
    """
    if verify_cap < 0:
        raise ValueError(f"verify_cap must be 0 or more, not {verify_cap}")
    bound = size_bound(ctx, G)
    board = _realize(ctx, G)
    assert board.size <= bound, "size bound violated"
    if not verify_value:
        how = VerifiedHow.SKIPPED
    elif board.size <= verify_cap:
        if not verify(ctx, board, G, max_cells=verify_cap):
            raise VerificationFailed(
                f"board value differs from {to_notation(G)}")
        how = VerifiedHow.BRUTE_FORCE
    else:
        how = VerifiedHow.COMPOSITIONAL
    log = ctx.realize_good
    used = {g.uid: log[g.uid] for g in positions(G) if g.uid in log}
    return RealizationReport(input=G, board=board, carrier_size=board.size,
                             bound=bound, verified=how,
                             good_option_used=used)


def _realize(ctx: SolverContext, G: Game) -> SetColoringGame:
    """G's board, memoized by uid.  Recursive, not a games.fold: it also
    realizes the options of gift horses, which are not positions of G."""
    hit = ctx.realize.get(G.uid)
    if hit is not None:
        return hit
    board = _synthesize(ctx, G)
    ctx.realize[G.uid] = board
    return board


def _synthesize(ctx: SolverContext, G: Game) -> SetColoringGame:
    poset = G.poset
    if G.is_atomic:
        return sc_const(G.atom, poset)
    if G.right == (bot(poset),):
        return sc_one_sided_choice([_realize(ctx, x) for x in G.left])
    if G.left == (top(poset),):
        return sc_one_sided_choice_dual([_realize(ctx, x) for x in G.right])
    K = _semi_monotonize(ctx, G)
    left_core = sc_one_sided_choice([_realize(ctx, x) for x in K.left])
    right_core = sc_one_sided_choice_dual([_realize(ctx, x)
                                           for x in K.right])
    return sc_coupling(right_core, left_core)


def _semi_monotonize(ctx: SolverContext, G: Game) -> Game:
    """G, or G extended by one gift horse so both sides have a good option.

    A passable game has a good option on at least one side; forcing that
    option manufactures a gift horse for the other side which is itself
    good there.  The first good option in stored order is used, and the
    choice is logged for the report.
    """
    good_left = next((i for i, x in enumerate(G.left)
                      if leq(ctx, G, x)), None)
    good_right = next((j for j, y in enumerate(G.right)
                       if leq(ctx, y, G)), None)
    if good_left is not None and good_right is not None:
        return G
    if good_left is not None:
        horse = force_right(G.left[good_left])
        K = add_gift_horse(ctx, G, horse, side="right")
        record = ("L", good_left)
    elif good_right is not None:
        horse = force_left(G.right[good_right])
        K = add_gift_horse(ctx, G, horse, side="left")
        record = ("R", good_right)
    else:
        raise NotPassable(f"no good option on either side: "
                          f"{to_notation(G)}")
    if not (any(leq(ctx, K, x) for x in K.left)
            and any(leq(ctx, y, K) for y in K.right)):
        raise VerificationFailed(
            f"gift horse did not make {to_notation(G)} semi-monotone")
    ctx.realize_good[G.uid] = record
    return K
