"""Random game generation for equational and property tests.

All samplers take an explicit random.Random so test seeds are recorded at
the call site and runs reproduce exactly.
"""

from __future__ import annotations

import random

from .games import Game, SolverContext, atomic, composite, is_passable
from .poset import AtomPoset


_MAX_TRIES = 100000     # guards random_passable_game against hostile sizes
_P_ATOMIC = 0.35        # chance that a node above the depth bound is an atom


def random_game(rng: random.Random, poset: AtomPoset, max_depth: int,
                max_branch: int) -> Game:
    """A random game tree within hard depth and branching bounds."""
    if max_depth <= 0 or rng.random() < _P_ATOMIC:
        return atomic(rng.choice(poset.elements), poset)
    nl = rng.randint(1, max_branch)
    nr = rng.randint(1, max_branch)
    return composite(
        [random_game(rng, poset, max_depth - 1, max_branch)
         for _ in range(nl)],
        [random_game(rng, poset, max_depth - 1, max_branch)
         for _ in range(nr)],
        poset)


def random_passable_game(ctx: SolverContext, rng: random.Random,
                         poset: AtomPoset, max_depth: int,
                         max_branch: int) -> Game:
    """Rejection-sample until the game is passable at every position.

    Passable games are dense enough at the depths the tests use (roughly a
    fifth of samples at depth 2 over the diamond poset), so rejection is
    cheap; the try cap only guards against pathological parameters.
    """
    for _ in range(_MAX_TRIES):
        g = random_game(rng, poset, max_depth, max_branch)
        if is_passable(ctx, g):
            return g
    raise RuntimeError("no passable game found; parameters too hostile")
