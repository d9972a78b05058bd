"""Sum, map, gift horses, and the gadget constructors.

The sum of games over posets A and B lives over product(A, B); both
players keep their options in either summand.  Mapping a monotone function
over a game relabels its leaves, and map_sum builds the image of a sum
without building the sum.  Composing the two with the projector
functions gives "gadget application": a game X over P3 (or P4) with marked
atom a (and b) acts on games G (and H), and for the four gadget games this
action agrees, up to equivalence, with the corresponding direct constructor
below.

map_sum is the one walk over a sum's positions: sum_games is its image
under the product's identity and keeps its memo in the context
(``ctx.sum``); gadget application and composed boards give it a fresh
memo each call.

Scope warning: the agreement is guaranteed for passable arguments only.
Sum does not respect equivalence of arbitrary games, and the agreement for
the binary gadgets genuinely fails on non-passable inputs (smallest found:
coupling applied to {bot|bot} and {bot|a}).  The unary forcing equations
have no known failures even off the passable class.
"""

from __future__ import annotations

import enum
import random
from functools import reduce
from typing import Iterable, Optional, Sequence

from .games import (
    Game,
    PosetMismatch,
    SolverContext,
    UnknownAtom,
    atomic,
    bot,
    composite,
    equiv,
    rebuild,
    top,
    tri,
)
from .poset import AtomPoset, MonotoneFn, builtin, identity_fn, product, \
    projector_f, projector_g
from .sampling import random_passable_game


class NotAGiftHorse(ValueError):
    """The offered option fails the tri precondition, so adding it could
    change the value."""


class GadgetKind(enum.Enum):
    LEFT_FORCE = "left_force"
    RIGHT_FORCE = "right_force"
    CHOICE = "choice"
    COUPLING = "coupling"


def sum_games(ctx: SolverContext, G: Game, H: Game) -> Game:
    """Disjunctive sum over the product poset: the image of the sum under
    the product's identity, kept in ``ctx.sum`` for the context's life."""
    return map_sum(identity_fn(product(G.poset, H.poset)), (G, H), ctx.sum)


def map_game(f: MonotoneFn, G: Game) -> Game:
    """G with every leaf ``x`` replaced by ``f(x)``, over f's codomain;
    the image is rebuilt on each call and kept in no memo."""
    if f.domain is not G.poset:
        raise PosetMismatch("function domain differs from the game's poset")
    table, cod = f.table, f.codomain
    return rebuild(G, lambda a: atomic(table[a], cod), cod, False)


def map_sum(f: MonotoneFn, parts: Sequence[Game],
            memo: dict[int, Game]) -> Game:
    """``map_game(f, sum_games of the parts, folded from the left)``, built
    from the tuples of the parts' positions; the sum is never interned.

    A position of the sum is a tuple of the parts' positions.  Its left
    (right) options are the tuples with one coordinate moved to one of its
    left (right) options, and a tuple of atoms is the product element whose
    index is the mixed-radix number of the atoms' indices, the first part's
    digit the most significant (poset.product numbers x-major).  So each
    tuple's image is the composite of its options' images, and a tuple of
    atoms maps to its element's entry in f's table: the tree map_game
    rebuilds from the sum, node for node, hence the same interned object.

    Every part's left options come before any right option, parts in
    order, so a sum (the image under the identity) interns its nodes in
    the textbook order: G's options before H's, the left side first.  A
    tuple is keyed on its parts' uids, the k-th part's from bit 32k up
    (exact below games.UID_LIMIT); the key does not name f, so ``memo``
    serves one function: sum_games passes ``ctx.sum``, every other caller
    a fresh dict.  Recursive: one Python frame a level.
    """
    posets = [g.poset for g in parts]
    if f.domain is not reduce(product, posets):
        raise PosetMismatch("function domain differs from the parts' product")
    key = sum(g.uid << 32 * k for k, g in enumerate(parts))
    hit = memo.get(key)
    if hit is not None:
        return hit
    digits = [(len(p), p._index) for p in posets]
    names, table, cod = f.domain.elements, f.table, f.codomain

    def rec(t: tuple[Game, ...], key: int) -> Game:
        # plain loops, one Python frame a level: every part's left options,
        # then every part's right options, parts in order
        sides = []
        for right in (False, True):
            images = []
            for k, g in enumerate(t):
                if g.atom is not None:
                    continue
                shift = 32 * k
                rest = key ^ g.uid << shift
                for x in g.right if right else g.left:
                    u = rest | x.uid << shift
                    s = memo.get(u)
                    images.append(rec(t[:k] + (x,) + t[k + 1:], u)
                                  if s is None else s)
            sides.append(images)
        if sides[0]:
            out = composite(sides[0], sides[1], cod)
        else:           # no part moves: every part is an atom
            i = 0
            for (size, index), g in zip(digits, t):
                i = i * size + index[g.atom]
            out = atomic(table[names[i]], cod)
        memo[key] = out
        return out

    return rec(tuple(parts), key)


def gadget_apply(ctx: SolverContext, X: Game, G: Game) -> Game:
    """X + G collapsed back to G's poset through the P3 projector."""
    if X.poset is not builtin("P3"):
        raise PosetMismatch("gadget must live over P3")
    return map_sum(projector_f(G.poset), (X, G), {})


def gadget_apply2(ctx: SolverContext, X: Game, G: Game, H: Game) -> Game:
    """X + G + H collapsed through the P4 projector; sums associate left."""
    if X.poset is not builtin("P4"):
        raise PosetMismatch("gadget must live over P4")
    if G.poset is not H.poset:
        raise PosetMismatch("the two argument games must share a poset")
    return map_sum(projector_g(G.poset), (X, G, H), {})


# -- the four direct constructors ---------------------------------------------

def force_left(G: Game) -> Game:
    return composite([top(G.poset)], [G])


def force_right(G: Game) -> Game:
    return composite([G], [bot(G.poset)])


def choice(G: Game, H: Game) -> Game:
    return composite([force_left(G), force_left(H)],
                     [force_right(G), force_right(H)])


def coupling(G: Game, H: Game) -> Game:
    return composite([G, force_left(H)], [force_right(G), H])


def gadget_game(kind: GadgetKind) -> Game:
    """The fixed game over P3/P4 whose application realizes the constructor."""
    if kind in (GadgetKind.LEFT_FORCE, GadgetKind.RIGHT_FORCE):
        a = atomic("a", builtin("P3"))
        return force_left(a) if kind is GadgetKind.LEFT_FORCE \
            else force_right(a)
    a, b = atomic("a", builtin("P4")), atomic("b", builtin("P4"))
    return choice(a, b) if kind is GadgetKind.CHOICE else coupling(a, b)


def upl(S: Iterable[Game]) -> Game:
    """A package of left options: one forced entry into the whole set."""
    opts = tuple(S)
    if not opts:
        raise ValueError("need at least one game")
    p = opts[0].poset
    return force_left(composite(opts, [bot(p)], p))


def downr(S: Iterable[Game]) -> Game:
    opts = tuple(S)
    if not opts:
        raise ValueError("need at least one game")
    p = opts[0].poset
    return force_right(composite([top(p)], opts, p))


def add_gift_horse(ctx: SolverContext, G: Game, H: Game, side: str) -> Game:
    """Add an option that is provably harmless, preserving the value.

    A left gift horse needs tri(H, G); a right one needs tri(G, H).  The
    preservation holds for all games, not just passable ones.
    """
    if G.is_atomic:
        raise NotAGiftHorse("atomic games take no extra options")
    if side == "left":
        if not tri(ctx, H, G):
            raise NotAGiftHorse("tri(H, G) fails")
        out = composite(G.left + (H,), G.right, G.poset)
    elif side == "right":
        if not tri(ctx, G, H):
            raise NotAGiftHorse("tri(G, H) fails")
        out = composite(G.left, G.right + (H,), G.poset)
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    assert equiv(ctx, out, G), "gift horse changed the value: bug"
    return out


def substitute_atoms(X: Game, subst: dict[str, Game],
                     poset: AtomPoset) -> Game:
    """Replace marked leaves by whole games; extrema map to extrema.

    Every leaf of X must be top, bottom, or a key of subst; the images all
    live over the target poset.
    """
    for g in subst.values():
        if g.poset is not poset:
            raise PosetMismatch("substitution images over the wrong poset")
    src = X.poset

    def leaf(a: str) -> Game:
        if a == src.top:
            return top(poset)
        if a == src.bot:
            return bot(poset)
        if a in subst:
            return subst[a]
        raise UnknownAtom(f"no substitution image for {a!r}")

    return rebuild(X, leaf, poset, False)


_FALSIFY_TRIALS = 50


def falsify_gadget_game(ctx: SolverContext, X: Game,
                        rng: Optional[random.Random] = None):
    """Search for a witness that X does not act by substitution.

    Random passable games of depth and branching at most 2 over the diamond
    poset are thrown at X, _FALSIFY_TRIALS times; the first G (and H, when
    X is binary over P4) with gadget application inequivalent to literal
    substitution is returned, else None.  Only passable candidates are
    fair: non-passable ones refute even the four true gadgets.  A None
    cannot certify gadget-hood, only fail to refute it.
    """
    if rng is None:
        rng = random.Random(0)
    target = builtin("P4")
    binary = X.poset is builtin("P4")
    if not binary and X.poset is not builtin("P3"):
        raise PosetMismatch("gadget candidates live over P3 or P4")
    apply = gadget_apply2 if binary else gadget_apply
    for _ in range(_FALSIFY_TRIALS):
        args = tuple(random_passable_game(ctx, rng, target, 2, 2)
                     for _ in range(1 + binary))
        if not equiv(ctx, apply(ctx, X, *args),
                     substitute_atoms(X, dict(zip("ab", args)), target)):
            return args
    return None
