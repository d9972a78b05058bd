import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import BOWTIE6, CHAIN4, P3, P4, games_over, parse
from reference import (
    ref_equiv,
    ref_fold,
    ref_is_monotone,
    ref_is_passable,
    ref_leq,
    ref_positions,
    ref_tri,
)
from scgames import games as games_mod
from scgames.algebra import sum_games
from scgames.games import (
    EmptyOptionSet,
    NoDualityMap,
    NotAnOption,
    PosetMismatch,
    UnknownAtom,
    SolverContext,
    atomic,
    bot,
    composite,
    dual,
    equiv,
    fold,
    is_good_left,
    is_good_right,
    is_monotone,
    is_passable,
    leq,
    local_class,
    positions,
    simplify,
    swap_ab,
    to_notation,
    top,
    tri,
    UID_LIMIT,
    UidOverflow,
)
from scgames.notation import MAX_NESTING, GameSyntaxError, parse_game
from scgames.poset import make_poset, product
from scgames.sampling import random_game, random_passable_game

# the running example: the coupling-shaped value over the diamond poset
COUPLING_TEXT = "{a,{top|b}|{a|bot},b}"


# -- construction and interning ----------------------------------------------

def test_atomic_construction():
    g = atomic("a", P4)
    assert g.is_atomic and g.atom == "a" and g.left == ()
    assert g is atomic("a", P4)


def test_atomic_unknown_atom():
    with pytest.raises(UnknownAtom):
        atomic("c", P4)


def test_composite_interning_ignores_order_and_dupes():
    t, b = top(P4), bot(P4)
    assert composite([t, b], [b]) is composite([b, t, b], [b])


def test_games_with_one_signature_share_one_masks_tuple():
    # {t|t} and {{t|t}|t} are two games, each with the masks of the atom
    # t; interning hands all three one tuple, so its ints are held once
    t = top(product(P4, P4))
    g = composite([t], [t])
    h = composite([g], [t])
    assert len({t, g, h}) == 3
    assert g.masks is h.masks is t.masks
    assert games_mod._MASKS[t.masks] is t.masks


def test_composite_empty_side_rejected():
    with pytest.raises(EmptyOptionSet):
        composite([], [top(P4)], P4)
    with pytest.raises(EmptyOptionSet):
        composite([top(P4)], [], P4)


def test_composite_poset_mismatch():
    with pytest.raises(PosetMismatch):
        composite([top(P4)], [bot(P3)])


def test_leq_rejects_mixed_posets(ctx):
    with pytest.raises(PosetMismatch):
        leq(ctx, top(P4), top(P3))


# -- order relation: pinned values -------------------------------------------
# expected values below were worked out by unfolding the defining
# recursion by hand and are cross-checked against reference.py

def test_leq_atoms(ctx):
    assert leq(ctx, bot(P4), top(P4))
    assert not leq(ctx, atomic("a", P4), atomic("b", P4))
    assert leq(ctx, atomic("a", P4), atomic("a", P4))


def test_leq_top_bot_game_reflexive(ctx):
    g = parse("{top|bot}")
    assert leq(ctx, g, g) is True
    assert ref_leq(g, g) is True


def test_tri_is_local_passability(ctx):
    g = parse("{top|bot}")
    assert tri(ctx, g, g) is True
    assert ref_tri(g, g) is True


def test_equiv_top_top_collapses(ctx):
    assert equiv(ctx, parse("{top|top}"), parse("top")) is True
    assert ref_equiv(parse("{top|top}"), parse("top"))


def test_bot_below_everything(ctx):
    for text in ("top", "a", "{top|bot}", COUPLING_TEXT):
        assert leq(ctx, bot(P4), parse(text))
        assert leq(ctx, parse(text), top(P4))


def test_good_options_of_simple_switch(ctx):
    g = parse("{top|bot}")
    assert is_good_left(ctx, g, top(P4)) is True
    assert is_good_right(ctx, g, bot(P4)) is True


def test_good_options_require_membership(ctx):
    g = parse("{top|bot}")
    with pytest.raises(NotAnOption):
        is_good_left(ctx, g, atomic("a", P4))


def test_second_player_win_has_no_good_options(ctx):
    g0 = parse("{top|bot}")
    g = composite([g0], [g0])
    assert not is_good_left(ctx, g, g0)
    assert not is_good_right(ctx, g, g0)
    assert local_class(ctx, g) == "none"
    assert not is_passable(ctx, g)
    assert not ref_is_passable(g)


def test_coupling_good_options(ctx):
    g = parse(COUPLING_TEXT)
    assert is_good_left(ctx, g, parse("{top|b}")) is True
    assert is_good_right(ctx, g, parse("{a|bot}")) is True
    # the bare atom options are not good; that is the point of the shape
    assert not is_good_left(ctx, g, parse("a"))
    assert not is_good_right(ctx, g, parse("b"))
    assert local_class(ctx, g) == "semi_monotone"


def test_local_class_labels(ctx):
    assert local_class(ctx, parse("a")) == "atomic"
    assert local_class(ctx, parse("{top|bot}")) == "monotone"
    g0 = parse("{top|bot}")
    assert local_class(ctx, composite([g0], [g0])) == "none"
    # good option on one side only
    assert local_class(ctx, parse("{top|a,{top|bot}}")) in (
        "monotone", "semi_monotone", "passable")


def test_global_predicates(ctx):
    assert is_passable(ctx, parse("a"))
    assert is_monotone(ctx, parse("{top|bot}"))
    assert is_passable(ctx, parse(COUPLING_TEXT))
    assert not is_monotone(ctx, parse(COUPLING_TEXT))


def test_predicates_are_kept_on_the_game():
    # both answers depend on the game alone: once one context has given
    # them, a fresh context reads them off the game and fills no pair memo.
    # Posets are interned too, so this diamond gets element names no other
    # test uses, and none of its games has been asked before.
    diamond = make_poset(["lo", "a", "b", "hi"],
                         [("lo", "a"), ("lo", "b"), ("a", "hi"), ("b", "hi")])
    g = parse(COUPLING_TEXT, diamond)
    assert (g.passable, g.monotone) == (None, None)
    first = SolverContext()
    assert (is_passable(first, g), is_monotone(first, g)) == (True, False)
    assert first.leq and first.tri
    assert (g.passable, g.monotone) == (True, False)
    again = SolverContext()
    assert (is_passable(again, g), is_monotone(again, g)) == (True, False)
    assert again.leq == {} and again.tri == {}


MASK_POSETS = [(P4, 3), (product(P4, P4), 2), (CHAIN4, 3), (BOWTIE6, 3)]
MASK_IDS = ["P4", "P4xP4", "chain4", "bowtie6"]


def _masks_decide_leq(g, h):
    # the mask rules of the games module docstring, restated
    g, h = g.masks, h.masks
    return bool(g[2] & ~h[2] or h[0] & ~g[0] or g[0] & h[2])


def _masks_decide_tri(g, h):
    g, h = g.masks, h.masks
    return bool(g[2] & ~h[3] or h[0] & ~g[1] or g[0] & h[3] or g[1] & h[2])


@pytest.mark.parametrize("poset, max_depth", MASK_POSETS, ids=MASK_IDS)
def test_transitivity_through_an_atom_by_the_oracle(poset, max_depth):
    # the lemmas behind the order kernel's mask rules (games module
    # docstring), checked with the reference relations alone on samples
    # not filtered for passability, atoms among them
    rng = random.Random(1017)
    atoms = [atomic(e, poset) for e in poset.elements]
    sample = atoms + [random_game(rng, poset, max_depth, 2)
                      for _ in range(60)]
    le = {(g, h): ref_leq(g, h) for g in sample for h in sample}
    tr = {(g, h): ref_tri(g, h) for g in sample for h in sample}
    fired = dict.fromkeys(["L1", "L2", "L3", "L4", "S1", "S2", "S3"], 0)
    for g in sample:
        for h in sample:
            for a in atoms:
                laws = (("L1", le[a, g] and le[g, h], le[a, h]),
                        ("L2", le[g, h] and le[h, a], le[g, a]),
                        ("L3", le[a, g] and tr[g, h], tr[a, h]),
                        ("L4", tr[g, h] and le[h, a], tr[g, a]),
                        ("S1", le[g, a] and le[a, h], le[g, h]),
                        ("S2", le[g, a] and tr[a, h], tr[g, h]),
                        ("S3", tr[g, a] and le[a, h], tr[g, h]))
                for name, premise, conclusion in laws:
                    if premise:
                        assert conclusion, (name, g, h, a)
                        fired[name] += g.atom is None and h.atom is None
    # every lemma was put to work on pairs of composite games
    assert min(fired.values()) > 0, fired


def test_memoized_relations_match_reference_on_random_pairs():
    # unfiltered pairs over every mask poset, one fresh context a poset
    for poset, max_depth in MASK_POSETS:
        ctx = SolverContext()
        rng = random.Random(1001)
        for _ in range(200):
            g = random_game(rng, poset, max_depth, 2)
            h = random_game(rng, poset, max_depth, 2)
            assert leq(ctx, g, h) == ref_leq(g, h)
            assert tri(ctx, g, h) == ref_tri(g, h)
        assert ctx.leq and ctx.tri


def _composite_passable(ctx, rng):
    while True:
        g = random_passable_game(ctx, rng, P4, 2, 3)
        if g.atom is None:
            return g


def test_relations_match_reference_on_sums_in_one_context(ctx):
    # the shape of a session summing many games: sums over P4xP4 of
    # depth-2 passable games, every pair decided in one warm context
    rng = random.Random(1007)
    sums = [sum_games(ctx, _composite_passable(ctx, rng),
                      _composite_passable(ctx, rng))
            for _ in range(200)]
    assert sums[0].poset is product(P4, P4)
    for s, u in zip(sums, sums[1:] + sums[:1]):
        for g, h in ((s, u), (u, s), (s, s)):
            assert leq(ctx, g, h) == ref_leq(g, h)
            assert tri(ctx, g, h) == ref_tri(g, h)


def test_mask_rules_match_reference_at_atomic_options(ctx):
    # the order kernel's mask rules decide each atomic option:
    # sampled pairs of positions, each with atomic options on both sides,
    # of sums of composite passable games, one fresh context a sum
    rng = random.Random(1016)
    gs = [_composite_passable(ctx, rng) for _ in range(31)]
    seen = set()
    for g, h in zip(gs, gs[1:]):
        local = SolverContext()
        s = sum_games(local, g, h)
        mixed = [x for x in positions(s)
                 if any(o.atom is not None for o in x.left)
                 and any(o.atom is not None for o in x.right)]
        for _ in range(30):
            x, y = rng.choice(mixed), rng.choice(mixed)
            got = (leq(local, x, y), tri(local, x, y), equiv(local, x, y))
            assert got == (ref_leq(x, y), ref_tri(x, y), ref_equiv(x, y))
            seen.add(got)
        assert ref_equiv(simplify(local, s), s)
    assert len(seen) == 4       # every consistent outcome occurs


@pytest.mark.parametrize("poset, max_depth", MASK_POSETS, ids=MASK_IDS)
def test_atom_masks_match_reference(poset, max_depth):
    # every (game, atom) pair in both orders, atoms against atoms included
    ctx = SolverContext()
    rng = random.Random(1011)
    atoms = [atomic(e, poset) for e in poset.elements]
    samples = atoms + [random_game(rng, poset, max_depth, 2)
                       for _ in range(40)]
    for g in samples:
        masks = g.masks
        for i, a in enumerate(atoms):
            want = (ref_leq(g, a), ref_tri(g, a), ref_leq(a, g),
                    ref_tri(a, g))
            assert tuple(m >> i & 1 == 1 for m in masks) == want
            assert (leq(ctx, g, a), tri(ctx, g, a), leq(ctx, a, g),
                    tri(ctx, a, g)) == want
    # every query had an atomic side, so none reached the pair memos
    assert not ctx.leq and not ctx.tri


def test_equivalent_games_share_their_atom_signature():
    # L1 and L2: the atoms below and above a game, (masks[2], masks[0]),
    # are the same for any two equivalent games, passable or not; the
    # equivalence index relies on it
    rng = random.Random(5)
    gs = list({g.uid: g for g in (random_game(rng, P4, 2, 2)
                                  for _ in range(150))
               if not g.is_atomic}.values())
    pairs = loose = 0
    for i, g in enumerate(gs):
        for h in gs[i + 1:]:
            if ref_equiv(g, h):
                pairs += 1
                loose += not (ref_is_passable(g) and ref_is_passable(h))
                assert (g.masks[2], g.masks[0]) == (h.masks[2], h.masks[0])
    assert pairs > 50 and loose > 20


@pytest.mark.parametrize("poset, max_depth", MASK_POSETS, ids=MASK_IDS)
def test_simplify_collapses_to_the_first_equivalent_atom(poset, max_depth):
    ctx = SolverContext()
    rng = random.Random(1012)
    atoms = [atomic(e, poset) for e in poset.elements]
    collapsed = 0
    for _ in range(60):
        g = random_game(rng, poset, max_depth, 2)
        for x in positions(g):
            same = [a for a in atoms if ref_equiv(x, a)]
            s = simplify(ctx, x)
            if same:
                assert s is same[0]
                collapsed += x.atom is None
            else:
                assert s.atom is None
    assert collapsed > 0


def test_pair_memos_hold_composite_pairs_only():
    ctx = SolverContext()
    rng = random.Random(1013)
    for _ in range(60):
        s = sum_games(ctx, _composite_passable(ctx, rng),
                      _composite_passable(ctx, rng))
        assert s.poset is product(P4, P4)
        simplify(ctx, s)
        # queries with an atomic side read the masks and add no entry
        size = len(ctx.leq) + len(ctx.tri)
        for e in s.poset.elements:
            x = atomic(e, s.poset)
            leq(ctx, s, x), tri(ctx, s, x), leq(ctx, x, s), tri(ctx, x, s)
        assert len(ctx.leq) + len(ctx.tri) == size
    by_uid = {g.uid: g for g in list(games_mod._GAMES.values())}
    keys = list(ctx.leq) + list(ctx.tri)
    assert keys
    low = UID_LIMIT - 1
    assert not [k for k in keys if by_uid[k >> 32].atom is not None
                or by_uid[k & low].atom is not None]
    # nor any pair the mask rules decide, composite or not
    assert not [k for k in ctx.leq
                if _masks_decide_leq(by_uid[k >> 32], by_uid[k & low])]
    assert not [k for k in ctx.tri
                if _masks_decide_tri(by_uid[k >> 32], by_uid[k & low])]
    # and every entry holds the relation's value on its pair
    assert not [k for k, v in ctx.leq.items()
                if v != ref_leq(by_uid[k >> 32], by_uid[k & low])]
    assert not [k for k, v in ctx.tri.items()
                if v != ref_tri(by_uid[k >> 32], by_uid[k & low])]


@pytest.fixture
def cold_games():
    """Every interned game's kept predicates and simplified form cleared
    for the test, so that it computes them in its own context, then put
    back, and those of games it interned dropped, so that no later test
    reads a field set here."""
    kept = [(g, g.passable, g.monotone, g.simple)
            for g in list(games_mod._GAMES.values())]
    for g, *_ in kept:
        g.passable = g.monotone = g.simple = None
    yield
    for g in list(games_mod._GAMES.values()):
        g.passable = g.monotone = g.simple = None
    for g, passable, monotone, simple in kept:
        g.passable, g.monotone, g.simple = passable, monotone, simple


def test_pair_memos_agree_with_a_fresh_context(cold_games):
    # the 60 sums of test_pair_memos_hold_composite_pairs_only and 140
    # more, with every simplified form computed here: each entry simplify's
    # checks wrote is what a second context answers for the pair, and no
    # leq entry is reflexive.  The order kernel stores no tri entry, so
    # ctx.tri holds the sampler's is_passable checks and tri asked of each
    # sum against its options
    ctx = SolverContext()
    rng = random.Random(1013)
    for _ in range(200):
        s = sum_games(ctx, _composite_passable(ctx, rng),
                      _composite_passable(ctx, rng))
        simplify(ctx, s)
        for x in s.left + s.right:
            tri(ctx, s, x), tri(ctx, x, s)
    assert len(ctx.leq) > 1000 and len(ctx.tri) > 1000
    by_uid = {g.uid: g for g in list(games_mod._GAMES.values())}
    low = UID_LIMIT - 1
    fresh = SolverContext()
    for memo, rel in ((ctx.leq, leq), (ctx.tri, tri)):
        assert not [k for k, v in memo.items()
                    if rel(fresh, by_uid[k >> 32], by_uid[k & low]) != v]
    assert not [k for k in ctx.leq if k >> 32 == k & low]


def test_the_order_kernel_stores_no_tri_entry(cold_games):
    # _leq asks each tri clause as its two disjuncts, through itself, so
    # sums, simplify, leq and equiv store leq entries only, and each is
    # what a second context answers; the games are sampled in another
    # context, since the sampler's is_passable asks tri(G, G)
    rng = random.Random(1014)
    made = SolverContext()
    pairs = [(_composite_passable(made, rng), _composite_passable(made, rng))
             for _ in range(60)]
    ctx = SolverContext()
    for g, h in pairs:
        simplify(ctx, sum_games(ctx, g, h))
        leq(ctx, g, h), leq(ctx, h, g), equiv(ctx, simplify(ctx, g), h)
    assert len(ctx.leq) > 1000 and not ctx.tri
    by_uid = {g.uid: g for g in list(games_mod._GAMES.values())}
    low = UID_LIMIT - 1
    fresh = SolverContext()
    assert not [k for k, v in ctx.leq.items()
                if leq(fresh, by_uid[k >> 32], by_uid[k & low]) != v]


def test_leq_of_a_2000_level_chain_with_itself(ctx):
    # _leq answers a game against itself right after the mask rules, so
    # a chain whose every level the masks leave open compares with itself
    # far past the depth the order kernel's recursion reaches
    assert sys.getrecursionlimit() <= 1000
    a, b = atomic("a", P4), atomic("b", P4)
    g = bot(P4)
    for _ in range(2000):
        g = composite([a, b], [g])      # {a,b|...{a,b|bot}...}
    assert not _masks_decide_leq(g, g)
    assert leq(ctx, g, g) and equiv(ctx, g, g)
    assert not ctx.leq and not ctx.tri


def test_simplify_falls_back_to_its_input_when_the_check_fails(
        monkeypatch, cold_games):
    # a prune that also drops its last survivor changes the value of many
    # nodes, so simplify's final check against the input must catch each
    # one and return the input instead; every answer stays equivalent
    pruned = games_mod._prune_dominated

    def lossy(ctx, options, keep_large):
        out = pruned(ctx, options, keep_large)
        return out[:-1] if len(out) > 1 else out

    monkeypatch.setattr(games_mod, "_prune_dominated", lossy)
    rng = random.Random(5)
    gs = [random_game(rng, P4, 2, 3) for _ in range(400)]
    ctx = SolverContext()
    out = [simplify(ctx, g) for g in gs]
    monkeypatch.undo()
    assert ctx.stats["simplify_fallback"] > 50
    assert sum(s is not g for s, g in zip(out, gs)) > 100
    fresh = SolverContext()
    assert not [g for s, g in zip(out, gs) if not equiv(fresh, s, g)]


def test_leq_decides_chain_of_300_levels():
    # one Python frame per level of the order kernel's recursion, so 300
    # levels fit the default recursion limit; the masks leave every level
    # of these chains open, so each query, in a fresh context, memoizes
    # a leq pair at all but at most one level, and no tri pair
    assert sys.getrecursionlimit() <= 1000
    a, b = atomic("a", P4), atomic("b", P4)

    def chain(n, base):
        g = atomic(base, P4)
        for _ in range(n):
            g = composite([g], [a, b])      # {...{base|a,b}...|a,b}
        return g

    for n in (3, 300):
        lo, hi = chain(n, "bot"), chain(n, "top")
        got, grown = [], []
        for rel, g, h in ((leq, lo, hi), (leq, hi, lo), (tri, hi, lo)):
            local = SolverContext()
            got.append(rel(local, g, h))
            grown.append(len(local.leq))
            if rel is leq:
                assert not local.tri
        if n == 3:
            assert got == [ref_leq(lo, hi), ref_leq(hi, lo), ref_tri(hi, lo)]
        assert got == [True, False, False]
        assert min(grown) >= n - 1


def test_chain_of_400_levels_through_the_order_kernel():
    # the order kernel takes one Python frame per level, so 400 levels fit
    # the default recursion limit in every entry that reaches them; each
    # query gets a fresh context, so no memo answers it from another's
    # recursion, and the answers match the reference on a shallow chain.
    # The masks leave every level of the {a,b|...} chains open, so each
    # query memoizes a leq pair at all but at most one level of the
    # shorter, 399-level chain, and leq and equiv no tri pair.  The masks
    # decide every level of the monotone chain {top|...{top|a}...}, so
    # that arm checks is_monotone's own walk and nothing of the order
    # kernel.  Games keep their predicates, so the deep-chain tests here
    # each ask them of a chain no other test asks them of.
    assert sys.getrecursionlimit() <= 1000
    t, a, b = top(P4), atomic("a", P4), atomic("b", P4)

    def chain(n):
        g = bot(P4)
        for _ in range(n):
            g = composite([a, b], [g])      # {a,b|...{a,b|bot}...}
        return g

    def monotone_chain(n):
        g = a
        for _ in range(n):
            g = composite([t], [g])         # {top|...{top|a}...}
        return g

    g, h = chain(4), chain(3)
    assert (ref_leq(g, h), ref_leq(h, g), ref_equiv(g, h),
            ref_is_passable(g)) == (False, True, False, True)
    assert ref_is_monotone(monotone_chain(4))
    g, h = chain(400), chain(399)
    got, grown = [], []
    for query in (lambda c: leq(c, g, h), lambda c: leq(c, h, g),
                  lambda c: equiv(c, g, h), lambda c: is_passable(c, g)):
        local = SolverContext()
        got.append(query(local))
        grown.append((len(local.leq), len(local.tri)))
    assert got == [False, True, False, True]
    assert min(n for n, _ in grown) >= 398
    assert not [t for _, t in grown[:3] if t]
    assert simplify(SolverContext(), g) is g
    assert is_monotone(SolverContext(), monotone_chain(400))


def test_leq_finds_tri_witnesses_at_the_matching_options():
    # h = {a,b|h'} and g = {a,b|h}: leq(h, g) finds the witnesses of its
    # left clauses at g's own a and b, and that of tri(h, h) at
    # leq(h', h), the same query a level down, so it stores one leq entry
    # a level and no tri entry, however deep the chains
    a, b = atomic("a", P4), atomic("b", P4)

    def chain(n):
        g = bot(P4)
        for _ in range(n):
            g = composite([a, b], [g])      # {a,b|...{a,b|bot}...}
        return g

    for n in (4, 400):
        g, h = chain(n), chain(n - 1)
        local = SolverContext()
        got = leq(local, h, g)
        if n == 4:
            assert got == ref_leq(h, g)
        assert got and len(local.leq) == n - 1 and not local.tri


def test_chain_of_450_levels_through_simplify_and_dedupe(ctx):
    # simplify walks on the fold's stack, but its equivalence checks, like
    # is_passable and the equivalence index, reach the order kernel, one
    # Python frame a level, so 450 levels fit the default limit
    from scgames.catalog import dedupe_values
    assert sys.getrecursionlimit() <= 1000
    t, a, b = top(P4), atomic("a", P4), atomic("b", P4)
    lost, kept = a, t
    for _ in range(450):
        lost = composite([lost], [t])       # {...{a|top}...|top}
        kept = composite([kept], [a, b])    # {...{top|a,b}...|a,b}
    assert not is_passable(ctx, lost) and is_passable(ctx, kept)
    for g in (lost, kept):
        s = simplify(ctx, g)
        assert s is g or equiv(ctx, s, g)
        assert dedupe_values(ctx, [g, s, t]) == [s, t]
        # the index buckets on the atom signature, non-passable games too
        assert (s.masks[2], s.masks[0]) == (g.masks[2], g.masks[0])


def test_chain_of_2000_levels_through_depth_branching_and_masks(ctx):
    # masks, depth and branching are set when a game is interned, from its
    # options' fields, so reading them walks nothing, however deep the
    # game; the masks settle at the second level, where the reference
    # checks them, and size_bound gets as deep as is_passable
    from scgames.realize import size_bound
    assert sys.getrecursionlimit() <= 1000
    a, b = atomic("a", P4), atomic("b", P4)
    atoms = [atomic(e, P4) for e in P4.elements]
    chain = [a]
    for _ in range(2000):
        chain.append(composite([a, b], [chain[-1]]))   # {a,b|...{a,b|a}...}
    g, shallow = chain[2000], chain[2]
    assert g.depth == 2000 and g.branching == 2
    for i, x in enumerate(atoms):
        assert tuple(m >> i & 1 == 1 for m in shallow.masks) == (
            ref_leq(shallow, x), ref_tri(shallow, x), ref_leq(x, shallow),
            ref_tri(x, shallow))
    assert g.masks == shallow.masks
    g = chain[450]
    per = 4 + (7 if is_monotone(ctx, g) else 10)
    assert size_bound(ctx, g) == (2 ** 450 - 1) * per


def test_interning_past_uid_limit_raises():
    # pair memo keys pack two uids into one int, exact below 2^32
    fresh = make_poset(["lo", "uid_probe", "hi"],
                       [("lo", "uid_probe"), ("uid_probe", "hi")])
    saved = games_mod._NEXT_UID[0]
    games_mod._NEXT_UID[0] = UID_LIMIT - 1
    try:
        last = atomic("uid_probe", fresh)
        assert last.uid == UID_LIMIT - 1
        assert games_mod._NEXT_UID[0] == UID_LIMIT
        assert atomic("uid_probe", fresh) is last    # no new uid needed
        with pytest.raises(UidOverflow):
            atomic("hi", fresh)
        with pytest.raises(UidOverflow):
            composite([last], [last])
        assert games_mod._NEXT_UID[0] == UID_LIMIT
    finally:
        games_mod._NEXT_UID[0] = saved


def test_predicates_match_reference_on_random_games(ctx):
    rng = random.Random(1004)
    for _ in range(100):
        g = random_game(rng, P4, max_depth=3, max_branch=2)
        assert is_passable(ctx, g) == ref_is_passable(g)
        assert is_monotone(ctx, g) == ref_is_monotone(g)


def test_preorder_laws_sampled(ctx):
    # reflexivity holds by the definition; transitivity is checked
    # empirically since no proof covers non-passable games
    rng = random.Random(1002)
    violations = []
    for _ in range(500):
        g, h, k = (random_game(rng, P4, max_depth=3, max_branch=2)
                   for _ in range(3))
        if not leq(ctx, g, g):
            violations.append(("refl", g))
        if leq(ctx, g, h) and leq(ctx, h, k) and not leq(ctx, g, k):
            violations.append(("trans", g, h, k))
    assert violations == []


def test_monotone_implies_passable_sampled(ctx):
    rng = random.Random(1005)
    hits = 0
    for _ in range(500):
        g = random_game(rng, P4, max_depth=2, max_branch=2)
        if is_monotone(ctx, g):
            hits += 1
            assert is_passable(ctx, g)
    assert hits > 10  # the sample actually exercises the implication


def test_semi_monotone_positions_are_passable(ctx):
    rng = random.Random(1006)
    for _ in range(300):
        g = random_game(rng, P4, max_depth=2, max_branch=2)
        if local_class(ctx, g) == "semi_monotone":
            assert tri(ctx, g, g)


# -- simplify -----------------------------------------------------------------

def test_simplify_removes_dominated_option(ctx):
    g = parse("{bot,top|bot}")
    assert simplify(ctx, g) is parse("{top|bot}")


def test_simplify_right_domination(ctx):
    g = parse("{top|top,bot}")
    assert simplify(ctx, g) is parse("{top|bot}")


def test_simplify_keeps_value(ctx):
    g = parse("{top|top}")
    s = simplify(ctx, g)
    assert equiv(ctx, s, g)
    assert equiv(ctx, s, top(P4))


def test_simplify_bypasses_reversible_option(ctx):
    # the left option {top|{top|bot}} reverses through its composite
    # right option, which collapses the whole thing to {top|bot}
    g = parse("{{top|{top|bot}}|bot}")
    assert simplify(ctx, g) is parse("{top|bot}")


def test_simplify_idempotent_and_sound(ctx):
    rng = random.Random(1007)
    for _ in range(150):
        g = random_game(rng, P4, max_depth=3, max_branch=2)
        s = simplify(ctx, g)
        assert equiv(ctx, s, g)
        assert simplify(ctx, s) is s
        assert len(positions(s)) <= len(positions(g)) or s is g


def test_simplify_never_grows_on_passable_samples(ctx):
    rng = random.Random(1008)
    for _ in range(60):
        g = random_passable_game(ctx, rng, P4, max_depth=2, max_branch=2)
        s = simplify(ctx, g)
        assert equiv(ctx, s, g)


def _seeded_sums(ctx, seed, count):
    """Sums of consecutive seeded passable games of depth 2 and branching
    3 whose roots are not atoms, over P4 x P4, as the benchmark sums."""
    rng = random.Random(seed)
    gs = []
    while len(gs) < 2 * count:
        g = random_passable_game(ctx, rng, P4, max_depth=2, max_branch=3)
        if not g.is_atomic:
            gs.append(g)
    return [sum_games(ctx, g, h) for g, h in zip(gs[::2], gs[1::2])]


def test_a_fresh_context_reads_simplified_forms_off_the_games():
    ctx = SolverContext()
    sums = _seeded_sums(ctx, 1011, 25)
    first = [simplify(ctx, s) for s in sums]
    assert all(s.simple is v and v.simple is v for s, v in zip(sums, first))
    # a second context returns the same objects and asks the order nothing
    fresh = SolverContext()
    assert all(simplify(fresh, s) is v for s, v in zip(sums, first))
    assert not fresh.leq and not fresh.tri
    assert fresh.simp == {s.uid: v for s, v in zip(sums, first)}
    assert fresh.stats["simplify_reused"] == len(set(sums))


def test_a_simplified_form_is_its_own_with_no_build():
    ctx = SolverContext()
    for v in {simplify(ctx, s) for s in _seeded_sums(ctx, 1012, 10)}:
        fresh = SolverContext()
        assert simplify(fresh, v) is v
        # read off the game: nothing folded, nothing compared
        assert fresh.simp == {v.uid: v}
        assert not fresh.leq and not fresh.tri


def test_simplify_interns_no_discarded_node():
    # over a diamond no other test builds, {top|top} simplifies to top, so
    # the children of {{top|top},s|bot} give {top,s|bot}; s is dominated,
    # and only {top|bot} may be interned, never {top,s|bot}
    p = make_poset(["bot", "s", "t", "top"],
                   [("bot", "s"), ("bot", "t"), ("s", "top"), ("t", "top")])
    g = parse("{{top|top},s|bot}", p)
    before = set(games_mod._GAMES)
    out = simplify(SolverContext(), g)
    assert out is parse("{top|bot}", p)
    added = [games_mod._GAMES[k] for k in set(games_mod._GAMES) - before]
    assert added and set(added) <= set(positions(out))
    # the table keys a composite on its option tuples alone
    pre_prune = (games_mod._dedup([top(p), atomic("s", p)]), (bot(p),))
    assert pre_prune not in games_mod._GAMES
    assert (out.left, out.right) in games_mod._GAMES


def _prune_stepwise(ctx, options, keep_large):
    """The prune rule by its definition: drop the first dominated option,
    then rescan from the start, until no option is dominated."""
    while True:
        for x in options:
            dominated = False
            for y in options:
                if y is x:
                    continue
                lo, hi = (x, y) if keep_large else (y, x)
                if leq(ctx, lo, hi) and (y.uid < x.uid
                                         or not leq(ctx, hi, lo)):
                    dominated = True
                    break
            if dominated:
                options = tuple(o for o in options if o is not x)
                break
        else:
            return options


@pytest.mark.parametrize("poset, max_depth", [(P4, 3), (product(P4, P4), 2)],
                         ids=["P4", "P4xP4"])
def test_prune_in_one_call_equals_the_stepwise_rule(poset, max_depth):
    ctx = SolverContext()
    rng = random.Random(1014)
    pool = [atomic(e, poset) for e in poset.elements]
    for _ in range(30):
        g = random_game(rng, poset, max_depth, 2)
        # a game and its simplified form are equivalent, and usually
        # distinct, so equivalent pairs turn on the smaller uid
        pool += [g, simplify(ctx, g)]
    pool = games_mod._dedup(pool)
    ties = non_passable = 0
    for _ in range(300):
        options = rng.sample(pool, rng.randint(1, 6))
        for opts in (tuple(options), games_mod._dedup(options)):
            for keep_large in (True, False):
                got = games_mod._prune_dominated(ctx, opts, keep_large)
                assert got == _prune_stepwise(ctx, opts, keep_large)
        ties += any(x is not y and ref_equiv(x, y)
                    for x in options for y in options)
        non_passable += not all(is_passable(ctx, x) for x in options)
    assert ties > 0 and non_passable > 0


# -- structural metrics -------------------------------------------------------

def test_depth_branching_positions(ctx):
    assert parse("a").depth == 0
    assert parse("a").branching == 0
    g0 = parse("{top|bot}")
    assert g0.depth == 1 and g0.branching == 1
    assert len(positions(g0)) == 3
    k = parse(COUPLING_TEXT)
    assert k.depth == 2
    assert k.branching == 2
    # the widest position sits in a left option, then in a right one
    for text in ("{{a,b,top|bot}|bot}", "{top|{top|a,b,bot}}"):
        g = parse(text)
        assert (g.depth, g.branching) == (2, 3)
    assert len(positions(k)) == 7
    assert positions(k)[0] is k


def _shared_random_games(seed, count):
    # random games over P4 whose sides share whole sub-games, so the walks
    # below meet positions more than once
    rng = random.Random(seed)
    for _ in range(count):
        x, y, z = (random_game(rng, P4, max_depth=3, max_branch=2)
                   for _ in range(3))
        yield composite([x, y, composite([y], [x, z])], [y, z, x])


@pytest.mark.parametrize("seed", range(3))
def test_fold_finishes_positions_as_a_recursion_does(seed):
    # settle sees every position the fold enters and build every one it
    # builds, each once and in the reference recursion's order; settling a
    # position keeps its options out of both unless reached another way
    hidden = 0
    for g in _shared_random_games(seed, 30):
        for settled in (lambda x: False, lambda x: x.depth == 2):
            entered, built, memo = [], [], {}

            def settle(x):
                entered.append(x)
                return "settled" if settled(x) else None

            def build(x):
                assert all(o.uid in memo for o in x.left + x.right)
                built.append(x)
                return "built"

            assert fold(g, memo, build, settle) == (
                "settled" if settled(g) else "built")
            want_entered, want_built = ref_fold(g, settled)
            assert entered == want_entered
            assert built == want_built
            assert set(memo) == {x.uid for x in want_entered}
            hidden += len(ref_positions(g)) - len(want_entered)
    assert hidden > 0


@pytest.mark.parametrize("seed", range(3))
def test_positions_put_each_position_before_its_options(seed):
    for g in _shared_random_games(seed, 30):
        got = positions(g)
        assert got[0] is g and len(got) == len(set(got))
        assert set(got) == set(ref_positions(g))
        place = {x: i for i, x in enumerate(got)}
        assert all(place[x] < place[o] for x in got
                   for o in x.left + x.right)
        assert got == list(reversed(ref_fold(g, lambda x: False)[1]))


def test_depth_of_nested_chain():
    g = parse("{{{top|bot}|bot}|bot}")
    assert g.depth == 3


# -- symmetries ---------------------------------------------------------------

def test_dual_examples():
    assert dual(parse("{top|a}")) is parse("{a|bot}")
    assert dual(parse("a")) is parse("a")
    assert dual(parse("top")) is parse("bot")


def test_dual_involution_random():
    rng = random.Random(1009)
    for _ in range(100):
        g = random_game(rng, P4, max_depth=3, max_branch=2)
        assert dual(dual(g)) is g


def test_dual_requires_duality_map():
    from scgames.poset import make_poset
    c4 = make_poset(["bot", "u", "v", "top"],
                    [("bot", "u"), ("u", "v"), ("v", "top")])
    with pytest.raises(NoDualityMap):
        dual(atomic("u", c4))


def test_dual_is_order_anti_isomorphism(ctx):
    rng = random.Random(1010)
    for _ in range(200):
        g = random_game(rng, P4, max_depth=2, max_branch=2)
        h = random_game(rng, P4, max_depth=2, max_branch=2)
        assert leq(ctx, g, h) == leq(ctx, dual(h), dual(g))


def test_swap_ab():
    assert swap_ab(parse("a")) is parse("b")
    assert swap_ab(parse(COUPLING_TEXT)) is parse("{b,{top|a}|{b|bot},a}")
    with pytest.raises(ValueError):
        swap_ab(top(P3))
    # a and b are incomparable, but only a has an element between it and top
    lopsided = make_poset(["bot", "a", "b", "c", "top"],
                          [("bot", "a"), ("a", "c"), ("c", "top"),
                           ("bot", "b"), ("b", "top")])
    with pytest.raises(ValueError, match="not monotone"):
        swap_ab(top(lopsided))


# -- notation -----------------------------------------------------------------

def test_parse_simple():
    assert parse("{top|bot}") is composite([top(P4)], [bot(P4)])
    assert parse(" { a , b | bot } ") is parse("{a,b|bot}")
    assert parse("⊤") is top(P4)
    assert parse("{⊤|⊥}") is parse("{top|bot}")


def test_parse_coupling_value():
    g = parse(COUPLING_TEXT)
    assert len(g.left) == 2 and len(g.right) == 2
    assert atomic("a", P4) in g.left


def test_parse_errors():
    with pytest.raises(GameSyntaxError):
        parse("{|a}")
    with pytest.raises(GameSyntaxError):
        parse("{a|b} junk")
    with pytest.raises(GameSyntaxError):
        parse("{a,|b}")
    with pytest.raises(GameSyntaxError):
        parse("")
    with pytest.raises(UnknownAtom):
        parse("zzz")
    err = None
    try:
        parse("{a|$}")
    except GameSyntaxError as e:
        err = e
    assert err is not None and err.position == 3


def test_parser_takes_one_frame_per_level():
    # a fresh interpreter whose recursion limit leaves 60 frames beside
    # the MAX_NESTING levels, which fit only at one frame a level
    code = ("import sys\n"
            "from scgames.notation import MAX_NESTING, parse_game\n"
            "from scgames.poset import builtin\n"
            "text = '{' * MAX_NESTING + 'a' + '|b}' * MAX_NESTING\n"
            "sys.setrecursionlimit(MAX_NESTING + 60)\n"
            "print(parse_game(text, builtin('P4')).depth)\n")
    src = str(Path(games_mod.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(MAX_NESTING)


def test_parse_product_atom_names():
    from scgames.poset import builtin, product
    pr = product(builtin("P3"), P4)
    g = parse_game("{(top,a)|(bot,b)}", pr)
    assert to_notation(g) == "{(top,a)|(bot,b)}"


def test_notation_unicode():
    assert to_notation(parse("{top|a}"), unicode=True) == "{⊤|a}"
    assert to_notation(parse("{top|a}")) == "{top|a}"


@settings(max_examples=200, deadline=None)
@given(games_over(P4))
def test_notation_round_trip(g):
    assert parse_game(to_notation(g), P4) is g
    assert parse_game(to_notation(g, unicode=True), P4) is g


@settings(max_examples=150, deadline=None)
@given(games_over(P4, max_leaves=6))
def test_simplify_equivalence_property(g):
    from scgames.games import SolverContext
    ctx = SolverContext()
    assert equiv(ctx, simplify(ctx, g), g)


@settings(max_examples=150, deadline=None)
@given(games_over(P4, max_leaves=6))
def test_leq_reflexive_property(g):
    # answered by reflexivity, so stored in no pair memo
    local = SolverContext()
    assert leq(local, g, g)
    assert not local.leq and not local.tri
