"""Games over an atom poset: construction, order, simplification, predicates.

A game is an atomic leaf [a] (a an atom of the poset) or a composite node
with non-empty sets of left and right options.  Nodes are hash-consed into
a global table: structurally equal games are the same object, and every
game carries a small integer ``uid``.  The table keys a leaf on
``(poset, atom)`` and a composite on ``(left, right)``, its uid-sorted
option tuples, which fix its poset; posets and games hash by identity, no
key of one kind equals one of the other, and each key holds the objects
it names.  Memo tables key on uids, which are never reused; a table over
pairs of games (leq, tri) keys on one int, ``G.uid << 32 | H.uid``, and
one over tuples of games (a function's images in
``SolverContext.images``) puts the k-th game's uid at bit 32k.  That
packing is exact while every uid is below 2^32, so interning
a new game past that bound raises :class:`UidOverflow` instead of
wrapping.

The order is a pair of mutually recursive relations.  ``leq(G, H)`` holds
iff every left option of G is ``tri``-below H, G is ``tri``-below every
right option of H, and additionally ``tri(G, H)`` whenever G or H is
atomic.  ``tri(G, H)`` holds iff some right option of G is leq-below H, or
G is leq-below some left option of H, or both are atomic and G's atom is
below H's in the poset.  Equivalence is leq both ways.  leq is reflexive
on all games, by induction on depth: each left option gl of G has
tri(gl, G) through leq(gl, gl), each right option gr has tri(G, gr)
through leq(gr, gr), and an atom has a <= a.  Transitivity through an
atom (L1, L2 and S1 below) is proven for all games, passable or not;
transitivity through a composite game is known on passable games only,
and off them the code never relies on it (see simplify).

Every game carries four atom masks (``G.masks``): bitmasks over the
poset's elements, bit i for the atom a_i, holding ``leq(G, a_i)``,
``tri(G, a_i)``, ``leq(a_i, G)`` and ``tri(a_i, G)``.  An atom's masks are
its up-row twice, then its down-row twice.  Unfolding the clauses above
against an atom gives, for composite G,

    tri(G, .) = OR over right options gr of leq(gr, .)
    leq(G, .) = tri(G, .) AND the AND over left options gl of tri(gl, .)
    tri(., G) = OR over left options gl of leq(., gl)
    leq(., G) = tri(., G) AND the AND over right options gr of tri(., gr)

so a game's masks come from its options' in one pass.  They depend on the
game alone, so every game gets them when it is interned, through a second
process-wide table that hands every game with the same four masks one
shared tuple (few signatures cover many games), together with
its ``depth`` (the longest run of moves to an atom) and its ``branching``
(the most options on either side of any position, 0 for an atom), each
also read off its options' fields.

For all games G and H, over any poset, and every atom a:

    L1  leq(a, G) and leq(G, H)  imply  leq(a, H)
    L2  leq(G, H) and leq(H, a)  imply  leq(G, a)
    L3  leq(a, G) and tri(G, H)  imply  tri(a, H)
    L4  tri(G, H) and leq(H, a)  imply  tri(G, a)
    S1  leq(G, a) and leq(a, H)  imply  leq(G, H)
    S2  leq(G, a) and tri(a, H)  imply  tri(G, H)
    S3  tri(G, a) and leq(a, H)  imply  tri(G, H)

Proof, by induction on depth(G) + depth(H), for all atoms a at once.
Three readings of the clauses are used, for atoms c, d and composite K:
leq(c, d) and tri(c, d) both mean c <= d; leq(c, H) implies tri(c, H)
and tri(c, hr) for every right option hr of H; tri(c, K) means
leq(c, kl) for some left option kl of K.

L1 and L3 together.  L1: each tri(a, hr) follows from leq(G, H)'s
tri(G, hr) by L3 at (G, hr).  For tri(a, H): if G is composite, leq(a, G)
gives a left option gl with leq(a, gl), leq(G, H) gives tri(gl, H), and
L3 at (gl, H) gives tri(a, H).  If G is an atom c, then a <= c and
tri(c, H): for atomic H that is a <= c <= H, and otherwise some left
option hl has leq(c, hl), so L1 at (c, hl) gives leq(a, hl).
L3: if G and H are atoms, a <= G <= H.  If leq(G, hl) for a left option
hl of H, L1 at (G, hl) gives leq(a, hl), so tri(a, H).  If leq(gr, H)
for a right option gr of G, leq(a, G) gives tri(a, gr).  For composite gr
that is leq(a, x) for a left option x of gr; leq(gr, H) gives tri(x, H),
and L3 at (x, H) gives tri(a, H).  For an atom gr, a <= gr, so L1 at
(gr, H) gives leq(a, H), hence tri(a, H).

L2 and L4 are L1 and L3 over the opposite poset, for the dual games
(sides swapped throughout): leq(G, H) iff leq(H*, G*) and tri(G, H) iff
tri(H*, G*), by induction on the clauses.

S1, S2 and S3 together, with L1 and L2 already proven; at each pair S2
and S3 come first, since they use S1 on smaller pairs only.  S3: if G is
composite, leq(gr, a) for some right option gr, S1 at (gr, H) gives
leq(gr, H), hence tri(G, H); if G is an atom c, then c <= a, L1 gives
leq(c, H), hence tri(c, H).  S2: if H is composite, leq(a, hl) for some
left option hl, S1 at (G, hl) gives leq(G, hl), hence tri(G, H); if H is
an atom d, then a <= d, L2 gives leq(G, d), hence tri(G, d).  S1: each
tri(gl, a) gives tri(gl, H) by S3 at (gl, H), each tri(a, hr) gives
tri(G, hr) by S2 at (G, hr), and when G or H is atomic, leq(G, a) holds
tri(G, a), so S3 at (G, H) gives tri(G, H).  No step assumes
transitivity between composite games.

Taken with atom a_i and read from the masks g of G and h of H, the
lemmas decide a pair without looking at its options:

    leq(G, H) is False if g[2] & ~h[2] (L1) or h[0] & ~g[0] (L2),
              is True  if g[0] & h[2] (S1);
    tri(G, H) is False if g[2] & ~h[3] (L3) or h[0] & ~g[1] (L4),
              is True  if g[0] & h[3] (S2) or g[1] & h[2] (S3).

When G is the atom a_i, bit i is set in g[0] and in g[2], so the rules
answer leq by bit i of h[2] and tri by bit i of h[3]; when H is a_i,
likewise by bit i of g[0] or g[1].  A pair with an atomic side is thus
always decided, by the one bit that holds its answer.
The order kernel is one function, ``_leq``, which every leq query goes
through, option pairs included: the rules first, then, for a pair they
leave open (always a composite pair), one lookup in ``ctx.leq``, and on
a miss the clauses.  Both games of a missed pair are composite, so no
tri clause has two atomic sides, and each is the OR of its two leq
disjuncts, which ``_leq`` asks itself, each option pair once, the one at
the other game's options on the same side first: tri(gl, H) holds iff
leq(gl, hl) for some left option hl of H or leq(x, H) for some right
option x of gl, and tri(G, hr) iff leq(gr, hr) for some right option gr
of G or leq(G, y) for some left option y of hr.  So ``_leq`` recurses
only into itself and stores no tri entry.  It answers ``leq(G, G)``
True right after the rules, by reflexivity, before the memo.  The
public :func:`tri` holds the tri rules and ``ctx.tri``, for a query of
tri itself, and asks its two disjuncts through ``_leq``.  So the pair
memos hold only pairs the masks leave open, and never a reflexive leq
pair.

:func:`composite` sorts, deduplicates and checks its options, then hands
them to ``_intern``, the one place a composite node is made.
:func:`simplify`, whose option tuples are already uid-sorted, free of
duplicates, non-empty and over one poset, calls ``_intern`` directly.

:func:`fold` walks positions in post-order on its own stack, at any
depth: simplify, rebuild (so dual, swap_ab, map_game, substitute_atoms),
to_notation and positions use it.  Still recursive, in Python frames a
level: the order kernel, one; is_passable and is_monotone, one plus the
kernel's; algebra.map_sum (so algebra.sum_games), one;
realize._realize, three.

A composite game is locally passable iff tri(G, G), i.e. it has a good
option on at least one side; atomic games are locally passable by fiat.
The global predicates quantify the local ones over all positions.  The
atoms below and above a game, ``(masks[2], masks[0])``, are its atom
signature; by L1 and L2 every game equivalent to it shares them, passable
or not.

A game's simplified form is a field of the game too (``simple``), set by
the first :func:`simplify` that answers it and read by every later one in
the process, whatever its context; ``SolverContext.simp`` is only the
record of one run.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache
from operator import attrgetter
from typing import Callable, Iterable, Optional

from .poset import AtomPoset, MonotoneFn


class UnknownAtom(ValueError):
    """Atom name not present in the poset."""


class EmptyOptionSet(ValueError):
    """Composite games need at least one option on each side."""


class PosetMismatch(ValueError):
    """Operation mixes games (or maps) over different posets."""


class NotAnOption(ValueError):
    """The claimed option is not an option of the game."""


class NoDualityMap(ValueError):
    """The poset has no order-reversing self-map we can find."""


class SimplificationDiverged(RuntimeError):
    """Rewrite pass cap exceeded; indicates a bug, not a hard input."""


class UidOverflow(OverflowError):
    """No uid below UID_LIMIT is left, so packed memo keys would collide."""


_GAMES: dict[tuple, "Game"] = {}
_MASKS: dict[tuple, tuple] = {}     # each signature's one shared masks tuple
_NEXT_UID = [0]
UID_LIMIT = 1 << 32     # packed memo keys are exact only for uids below this


class Game:
    """Interned game node.  Build via :func:`atomic` / :func:`composite`.

    ``atom`` is None for composites; ``left``/``right`` are () for leaves
    and uid-sorted tuples of Games otherwise.  ``masks``, ``depth`` and
    ``branching`` are fixed at interning; see the module docstring.  Games
    with equal masks share one ``masks`` tuple, which only :func:`atomic`
    and ``_intern`` hand out, so build a Game through them alone.
    ``passable`` and ``monotone`` stay None until :func:`is_passable` and
    :func:`is_monotone` first answer them, and ``simple`` until
    :func:`simplify` first does.
    """

    __slots__ = ("poset", "atom", "left", "right", "uid", "masks", "depth",
                 "branching", "passable", "monotone", "simple")

    def __init__(self, poset: AtomPoset, atom: Optional[str],
                 left: tuple["Game", ...], right: tuple["Game", ...],
                 uid: int, masks: tuple[int, int, int, int], depth: int,
                 branching: int):
        self.poset = poset
        self.atom = atom
        self.left = left
        self.right = right
        self.uid = uid
        self.masks = masks
        self.depth = depth
        self.branching = branching
        self.passable: Optional[bool] = None
        self.monotone: Optional[bool] = None
        self.simple: Optional[Game] = None

    @property
    def is_atomic(self) -> bool:
        return self.atom is not None

    def __repr__(self) -> str:
        return to_notation(self)


def atomic(a: str, poset: AtomPoset) -> Game:
    if a not in poset:
        raise UnknownAtom(f"atom {a!r} not in poset")
    key = (poset, a)
    g = _GAMES.get(key)
    if g is None:
        i = poset._index[a]
        up = poset._up[i]
        down = 0
        for j, row in enumerate(poset._up):
            down |= (row >> i & 1) << j
        m = (up, up, down, down)
        g = _GAMES[key] = Game(poset, a, (), (), _new_uid(),
                               _MASKS.setdefault(m, m), 0, 0)
    return g


def composite(lefts: Iterable[Game], rights: Iterable[Game],
              poset: Optional[AtomPoset] = None) -> Game:
    """Interned composite with the given option sets (deduplicated).

    The poset is inferred from the options when not given explicitly.
    """
    ls = _dedup(lefts)
    rs = _dedup(rights)
    if not ls or not rs:
        raise EmptyOptionSet("left and right option sets must be non-empty")
    if poset is None:
        poset = ls[0].poset
    for g in ls + rs:
        if g.poset is not poset:
            raise PosetMismatch("options live over different posets")
    return _intern(poset, ls, rs)


def _intern(poset: AtomPoset, ls: tuple[Game, ...],
            rs: tuple[Game, ...]) -> Game:
    """The interned composite with exactly these option tuples.

    The caller guarantees what :func:`composite` checks: both tuples are
    non-empty, uid-sorted and free of duplicates, and every option lives
    over ``poset``.  Nothing is re-checked here.  The node is keyed on
    ``(ls, rs)`` alone, since the options fix the poset.  A new node's
    masks, depth and branching come from its options' by the module
    docstring's recurrences; its masks tuple is the one shared by every
    game with those masks.
    """
    key = (ls, rs)
    g = _GAMES.get(key)
    if g is None:
        # leq(G, .) starts from the AND over left options, leq(., G) from
        # the AND over right ones; -1 has every bit set
        tri_g = below = depth = 0
        leq_g = leq_b = -1
        branching = max(len(ls), len(rs))
        for x in ls:
            m = x.masks
            leq_g &= m[1]
            below |= m[2]
            if x.depth > depth:
                depth = x.depth
            if x.branching > branching:
                branching = x.branching
        for x in rs:
            m = x.masks
            tri_g |= m[0]
            leq_b &= m[3]
            if x.depth > depth:
                depth = x.depth
            if x.branching > branching:
                branching = x.branching
        m = (tri_g & leq_g, tri_g, below & leq_b, below)
        g = _GAMES[key] = Game(poset, None, ls, rs, _new_uid(),
                               _MASKS.setdefault(m, m), depth + 1, branching)
    return g


def _new_uid() -> int:
    uid = _NEXT_UID[0]
    if uid >= UID_LIMIT:
        raise UidOverflow(f"more than {UID_LIMIT} games interned")
    _NEXT_UID[0] = uid + 1
    return uid


_uid = attrgetter("uid")


def _dedup(games: Iterable[Game]) -> tuple[Game, ...]:
    return tuple(sorted(set(games), key=_uid))


def fold(G: Game, memo: dict, build: Callable[[Game], object],
         settle: Optional[Callable[[Game], object]] = None):
    """``memo[G.uid]``, filled by a post-order walk of G's positions.

    A position in ``memo`` is done; else ``settle(g)``, if given, may
    answer it (None leaves it open); else its left, then right options
    are walked in stored order, each once, and then ``build(g)`` answers
    it.  That is a recursion's order, so games interned on the way get
    the same uids, but on the walk's own stack: no Python frame a level.
    """
    stack = []
    g = G
    while True:
        if g is None:           # the options of the game below are done
            g = stack.pop()
            memo[g.uid] = build(g)
        elif g.uid not in memo:
            v = None if settle is None else settle(g)
            if v is not None:
                memo[g.uid] = v
            else:
                options = g.left + g.right
                for x in options:
                    if x.uid not in memo:
                        stack += (g, None)
                        stack += reversed(options)
                        break
                else:
                    memo[g.uid] = build(g)
        if not stack:
            return memo[G.uid]
        g = stack.pop()


def top(poset: AtomPoset) -> Game:
    return atomic(poset.top, poset)


def bot(poset: AtomPoset) -> Game:
    return atomic(poset.bot, poset)


class SolverContext:
    """The memo tables of one run, confined to one thread.

    What depends on one game alone (its atom masks, depth, branching,
    passability, monotonicity and simplified form) is a field of the
    game, not a memo here, so every later context in the process reuses
    it.  ``simp`` is the run's record of what :func:`simplify` answered,
    whether it built the answer or read it from ``Game.simple``; so
    ``stats["simplify_fallback"]`` counts a fallback only in the first
    context that meets the game.  ``images`` holds every image of a sum
    that algebra.map_sum built (sums, gadget applications, composed
    boards), one table per function.  Every table is a named attribute,
    and ``memo_sizes`` reports them all, ``images`` as its entries across
    all functions.  Images of one game (``dual``, ``swap_ab``,
    ``map_game``) are rebuilt per call and kept in no table.
    """

    __slots__ = ("leq", "tri", "simp", "images", "realize", "realize_good",
                 "stats")

    def __init__(self):
        self.leq: dict[int, bool] = {}      # pairs the masks leave open,
        self.tri: dict[int, bool] = {}      # by G.uid << 32 | H.uid
        self.simp: dict[int, Game] = {}
        self.images: dict = {}              # MonotoneFn -> {key of a tuple
                                            # of games: its image}
        self.realize: dict = {}             # uid -> SetColoringGame
        self.realize_good: dict = {}        # uid -> (side, index) of a good
                                            # option a gift horse came from
        self.stats = defaultdict(int)

    def memo_sizes(self) -> dict[str, int]:
        """Entries in every table of the context."""
        sizes = {name: len(getattr(self, name))
                 for name in self.__slots__ if name != "stats"}
        sizes["images"] = sum(map(len, self.images.values()))
        return sizes


def _check_pair(G: Game, H: Game) -> None:
    if G.poset is not H.poset:
        raise PosetMismatch("games live over different posets")


def leq(ctx: SolverContext, G: Game, H: Game) -> bool:
    """The main order relation; see the module docstring for the clauses."""
    _check_pair(G, H)
    return _leq(ctx, G, H)


def tri(ctx: SolverContext, G: Game, H: Game) -> bool:
    """Companion relation of leq ("less than or confused with").

    The mask rules first, then one lookup in ``ctx.tri``, and on a miss
    the two disjuncts through leq; ``_leq`` asks its tri clauses itself.
    """
    _check_pair(G, H)
    g, h = G.masks, H.masks
    if g[2] & ~h[3] or h[0] & ~g[1]:
        return False
    if g[0] & h[3] or g[1] & h[2]:
        return True
    key = G.uid << 32 | H.uid
    res = ctx.tri.get(key)
    if res is None:
        res = ctx.tri[key] = (any(_leq(ctx, gr, H) for gr in G.right)
                              or any(_leq(ctx, G, hl) for hl in H.left))
    return res


def _leq(ctx: SolverContext, G: Game, H: Game) -> bool:
    # The masks decide the pair when they can, an open pair costs one
    # lookup in ctx.leq, and a miss evaluates the clauses, each tri clause
    # as its two disjuncts, the one at the other game's options on the
    # same side first (module docstring).  Plain loops rather than
    # all()/any() over generators: one Python frame a level.  Keys are
    # G.uid << 32 | H.uid.
    g, h = G.masks, H.masks
    if g[2] & ~h[2] or h[0] & ~g[0]:
        return False
    if g[0] & h[2]:
        return True
    if G is H:      # reflexive (module docstring), so never stored
        return True
    key = G.uid << 32 | H.uid
    res = ctx.leq.get(key)
    if res is None:
        res = True
        for gl in G.left:           # tri(gl, H)
            for hl in H.left:
                if _leq(ctx, gl, hl):
                    break
            else:
                for x in gl.right:
                    if _leq(ctx, x, H):
                        break
                else:
                    res = False
                    break
        else:
            for hr in H.right:      # tri(G, hr)
                for gr in G.right:
                    if _leq(ctx, gr, hr):
                        break
                else:
                    for y in hr.left:
                        if _leq(ctx, G, y):
                            break
                    else:
                        res = False
                        break
        ctx.leq[key] = res
    return res


def equiv(ctx: SolverContext, G: Game, H: Game) -> bool:
    _check_pair(G, H)
    return _leq(ctx, G, H) and _leq(ctx, H, G)


def is_good_left(ctx: SolverContext, G: Game, option: Game) -> bool:
    """A left option is good when moving to it is no loss for Left."""
    if option not in G.left:
        raise NotAnOption("not a left option of the game")
    return _leq(ctx, G, option)


def is_good_right(ctx: SolverContext, G: Game, option: Game) -> bool:
    if option not in G.right:
        raise NotAnOption("not a right option of the game")
    return _leq(ctx, option, G)


def local_class(ctx: SolverContext, G: Game) -> str:
    """Strongest local label: atomic, monotone, semi_monotone, passable, none.

    Its only recursion is the order kernel's, one frame a level.
    """
    if G.is_atomic:
        return "atomic"
    good_l = [_leq(ctx, G, x) for x in G.left]
    good_r = [_leq(ctx, x, G) for x in G.right]
    if all(good_l) and all(good_r):
        return "monotone"
    if any(good_l) and any(good_r):
        return "semi_monotone"
    if any(good_l) or any(good_r):
        return "passable"
    return "none"


def is_passable(ctx: SolverContext, G: Game) -> bool:
    """Every position has a good option (or is atomic); kept on the game.

    Local passability is tri(G, G), which asks its disjuncts through the
    order kernel, one frame a level, so a fold would lift no depth limit;
    this recursion stops at the first failing position, where a fold
    would visit all.
    """
    hit = G.passable
    if hit is not None:
        return hit
    res = tri(ctx, G, G)
    if res:
        for x in G.left + G.right:
            if not is_passable(ctx, x):
                res = False
                break
    G.passable = res
    return res


def is_monotone(ctx: SolverContext, G: Game) -> bool:
    """Every option of every position is good; kept on the game.

    Recursive for the reasons is_passable is.
    """
    hit = G.monotone
    if hit is not None:
        return hit
    res = local_class(ctx, G) in ("atomic", "monotone")
    if res:
        for x in G.left + G.right:
            if not is_monotone(ctx, x):
                res = False
                break
    G.monotone = res
    return res


# -- simplification ----------------------------------------------------------

_SIMPLIFY_PASS_CAP = 1000


def simplify(ctx: SolverContext, G: Game) -> Game:
    """An equivalent, usually smaller game.

    A :func:`fold` into ``ctx.simp``.  A composite equivalent to a single
    atom becomes that atom before its options are simplified (_collapse),
    and otherwise, over its simplified options, we iterate to a fixpoint
    of (1) removing dominated options, which is unconditionally sound by
    the gift-horse argument, and (2) bypassing reversible options whose
    reversing target is composite.  The order relation is not known to be
    transitive on non-passable games, so the atom collapse is tested
    directly against the input, every bypass is committed only after an
    explicit equivalence check against the current node, and the final
    result is checked against the input; if that last check fails we
    return the input unchanged rather than a wrong answer.

    The final check is :func:`equiv`, whose leq asks each tri clause
    first at the other game's options on the same side: most options of
    the result are the simplified forms of the input's, so leq(gl, hl)
    for the matching left option, or leq(gr, hr) for the matching right
    one, is an identical game or a memo hit, set by the check that
    simplified that option.  Only a clause with no such witness goes on
    to its other disjunct, which walks the input's raw positions.

    Pruning compares options with each other only, so the current node is
    interned once both sides are pruned, right before a bypass needs it;
    a node that pruning would change is never interned.  Each round of
    the loop prunes both sides and tries one bypass, and the pass cap
    counts those rounds.

    Every answer is also kept on the game, as ``g.simple``, and a later
    context reads it there instead of simplifying again (counted in
    ``stats["simplify_reused"]``, and still recorded in ``ctx.simp``).  An
    output that has no simplified form yet is kept as its own, since it is
    one: an atom is, and on a composite output pruning is idempotent and
    the last round of the loop found no bypass.  The reuse is exact within one process.
    Which equivalent game the fold returns depends on the order in which
    games were interned, so another process may return another one; but a
    second simplification in the same process meets only games that
    already exist, in the same order, and returns the first answer.
    """
    simp = ctx.simp
    hit = simp.get(G.uid)
    if hit is not None:     # most calls are hits: no fold to set up
        return hit
    stats = ctx.stats
    hit = G.simple
    if hit is not None:
        stats["simplify_reused"] += 1
        simp[G.uid] = hit
        return hit

    def settle(g):
        s = g.simple
        if s is not None:
            stats["simplify_reused"] += 1
            return s
        s = g.simple = _collapse(g)
        return s

    def build(g):
        ls, rs = [], []
        for x in g.left:
            ls.append(simp[x.uid])
        for x in g.right:
            rs.append(simp[x.uid])
        ls, rs = _dedup(ls), _dedup(rs)
        passes = 0
        while True:
            passes += 1
            if passes > _SIMPLIFY_PASS_CAP:
                raise SimplificationDiverged(
                    f"no fixpoint after {passes} passes")
            ls = _prune_dominated(ctx, ls, keep_large=True)
            rs = _prune_dominated(ctx, rs, keep_large=False)
            cur = _intern(g.poset, ls, rs)
            new_ls = _bypass(ctx, cur, ls, left_side=True)
            if new_ls is not None:
                ls = new_ls
                continue
            new_rs = _bypass(ctx, cur, rs, left_side=False)
            if new_rs is not None:
                rs = new_rs
                continue
            break
        if cur is not g and not equiv(ctx, cur, g):
            # only reachable through a transitivity failure; keep the input
            stats["simplify_fallback"] += 1
            cur = g
        g.simple = cur
        if cur.simple is None:
            cur.simple = cur
        return cur

    return fold(G, simp, build, settle)


def _collapse(g: Game) -> Optional[Game]:
    """g if atomic, else the first atom equivalent to g, else None."""
    if g.atom is not None:
        return g
    both = g.masks[0] & g.masks[2]
    if both:
        p = g.poset
        return atomic(p.elements[(both & -both).bit_length() - 1], p)
    return None


def _prune_dominated(ctx, options, keep_large):
    """The options left when dominated ones are dropped until none is.

    For left options larger is better, so X goes when some other Y has
    X <= Y; right options dually.  Equivalent pairs keep the smaller uid.
    The rule is applied one removal at a time, since the relation is not
    trusted to be transitive, and stepwise removal can never empty the set.
    Dropping the first dominated option and rescanning from the start
    would find every earlier option undominated again: each was checked
    against a superset of the options left, and whether Y dominates X
    depends on the pair alone.  So the scan resumes at the dropped
    option's slot, with the same survivors in the same order.
    """
    if len(options) < 2:
        return options
    opts = list(options)
    i = 0
    while i < len(opts):
        x = opts[i]
        for y in opts:
            if y is x:
                continue
            lo, hi = (x, y) if keep_large else (y, x)
            if _leq(ctx, lo, hi) and (y.uid < x.uid or not _leq(ctx, hi, lo)):
                del opts[i]
                break
        else:
            i += 1
    return tuple(opts)


def _bypass(ctx, cur, options, left_side):
    """First committable reversibility bypass on one side, else None.

    A left option X reverses through a right option X^R with X^R <= cur;
    bypass replaces X by the left options of X^R.  Only composite targets
    are bypassed (the atomic case needs canonical-form rules we do not
    claim), and the rewrite is kept only if it verifiably preserves the
    value of the node.
    """
    for x in options:
        if x.atom is not None:
            continue
        targets = x.right if left_side else x.left
        for t in targets:
            if t.atom is not None:
                continue
            ok = _leq(ctx, t, cur) if left_side else _leq(ctx, cur, t)
            if not ok:
                continue
            rest = tuple(o for o in options if o is not x)
            new = _dedup(rest + (t.left if left_side else t.right))
            cand = (_intern(cur.poset, new, cur.right) if left_side
                    else _intern(cur.poset, cur.left, new))
            if equiv(ctx, cand, cur):
                return new
    return None


# -- positions ---------------------------------------------------------------

def positions(G: Game) -> list[Game]:
    """All distinct positions, the reverse of :func:`fold`'s finish order:
    G first, and every position before its options."""
    memo: dict[int, Game] = {}
    fold(G, memo, lambda g: g)
    return list(reversed(memo.values()))


# -- symmetries --------------------------------------------------------------

def dual(G: Game) -> Game:
    """Swap sides recursively and reverse atoms by the poset's duality map."""
    p = G.poset
    dm = p.dual_atom_map()
    if dm is None:
        raise NoDualityMap("poset has no order-reversing self-map")
    return rebuild(G, lambda a: atomic(dm[a], p), True)


def swap_ab(G: Game) -> Game:
    """Relabel the atoms a and b into each other; needs them incomparable."""
    p = G.poset
    m = _ab_swap(p)
    return rebuild(G, lambda a: atomic(m[a], p), False)


@cache
def _ab_swap(p: AtomPoset) -> dict[str, str]:
    """The atom map of swap_ab over p, built and checked once per poset."""
    if "a" not in p or "b" not in p or p.le("a", "b") or p.le("b", "a"):
        raise ValueError("poset has no a/b exchange symmetry")
    m = {e: e for e in p.elements}
    m["a"], m["b"] = "b", "a"
    MonotoneFn(p, p, m)   # a monotone involution is an order automorphism
    return m


def rebuild(G: Game, leaf: Callable[[str], Game], swap_sides: bool) -> Game:
    """G with every leaf replaced by ``leaf(atom)``, rebuilt bottom-up.

    Composites are re-interned over the poset their rebuilt options share,
    which :func:`composite` infers and checks, with left and right options
    exchanged when ``swap_sides``, in :func:`fold`'s finish order.  The
    images live in the fold's memo, which dies with the call.
    """
    memo: dict[int, Game] = {}

    def build(g):
        if g.atom is not None:
            return leaf(g.atom)
        ls = [memo[x.uid] for x in g.left]
        rs = [memo[x.uid] for x in g.right]
        return composite(rs, ls) if swap_sides else composite(ls, rs)

    return fold(G, memo, build)


# -- notation ----------------------------------------------------------------

def to_notation(G: Game, unicode: bool = False) -> str:
    """Braces/bar text form; inverse of notation.parse_game.

    Option lists are printed sorted by their rendered text, so the output
    is stable across construction orders.  Each distinct position is
    rendered once, by a :func:`fold`.
    """
    p = G.poset
    # top goes last, so it names the atom of a one-element poset
    names = {p.bot: "⊥" if unicode else "bot",
             p.top: "⊤" if unicode else "top"}
    memo: dict[int, str] = {}

    def build(g):
        if g.atom is not None:
            return names.get(g.atom, g.atom)
        return ("{" + ",".join(sorted([memo[x.uid] for x in g.left])) + "|"
                + ",".join(sorted([memo[x.uid] for x in g.right])) + "}")

    return fold(G, memo, build)
