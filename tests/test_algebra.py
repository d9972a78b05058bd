import inspect
import os
import random
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest

import scgames
from conftest import BOOL, CHAIN4, P3, P4, parse
from reference import ref_sum
from scgames.algebra import (
    GadgetKind,
    NotAGiftHorse,
    add_gift_horse,
    choice,
    coupling,
    falsify_gadget_game,
    force_left,
    force_right,
    gadget_apply,
    gadget_game,
    map_game,
    map_sum,
    substitute_atoms,
    sum_games,
)
from scgames.games import (
    PosetMismatch,
    UnknownAtom,
    atomic,
    bot,
    composite,
    dual,
    equiv,
    is_passable,
    leq,
    local_class,
    positions,
    simplify,
    swap_ab,
    to_notation,
    top,
)
from scgames.poset import MonotoneFn, identity_fn, product, projector_f, \
    projector_g
from scgames.sampling import random_game, random_passable_game


def test_sum_of_atoms_is_atomic_pair(ctx):
    s = sum_games(ctx, atomic("a", P4), atomic("b", P4))
    pr = product(P4, P4)
    assert s is atomic(pr.pair("a", "b"), pr)


def test_sum_with_one_atomic_side(ctx):
    s = sum_games(ctx, parse("{top|bot}"), atomic("b", P4))
    pr = product(P4, P4)
    expect = composite([atomic(pr.pair("top", "b"), pr)],
                       [atomic(pr.pair("bot", "b"), pr)], pr)
    assert s is expect


def test_sum_interleaves_options(ctx):
    g = parse("{top|bot}")
    s = sum_games(ctx, g, g)
    assert len(s.left) == 2 and len(s.right) == 2
    assert s.depth == 2


def test_sum_crosses_posets(ctx):
    s = sum_games(ctx, top(P3), bot(P4))
    pr = product(P3, P4)
    assert s is atomic(pr.pair("top", "bot"), pr)


def test_sum_congruence_for_passable_games(ctx):
    # equal values + equal values stay equal values, given passability;
    # the partner of each sample is itself plus a harmless extra option
    rng = random.Random(2001)
    for _ in range(30):
        g = random_passable_game(ctx, rng, P4, max_depth=2, max_branch=2)
        h = random_passable_game(ctx, rng, P4, max_depth=2, max_branch=2)
        g2 = add_gift_horse(ctx, g, bot(P4), "left") \
            if not g.is_atomic else g
        h2 = add_gift_horse(ctx, h, top(P4), "right") \
            if not h.is_atomic else h
        assert equiv(ctx, sum_games(ctx, g, h), sum_games(ctx, g2, h2))


def test_map_respects_equivalence_of_passable_games(ctx):
    # the lemma under structural board evaluation's simplified values:
    # mapping a monotone function over equivalent passable games gives
    # equivalent images.  The games are sums of seeded passable summands,
    # the shape a composed board's value has before it is mapped
    pp = product(P4, P4)
    join = MonotoneFn(pp, P4, {pp.pair(x, y): P4.join2(x, y)
                               for x in P4.elements for y in P4.elements})
    rng = random.Random(2010)
    for f, posets in ((projector_f(P4), (P3, P4)),
                      (projector_g(P4), (P4, P4, P4)),
                      (join, (P4, P4))):
        nontrivial = 0
        for _ in range(30):
            g = reduce(lambda G, H: sum_games(ctx, G, H),
                       [random_passable_game(ctx, rng, p, 2, 2)
                        for p in posets])
            assert g.poset is f.domain and is_passable(ctx, g)
            s = simplify(ctx, g)
            nontrivial += s is not g
            assert equiv(ctx, map_game(f, g), map_game(f, s))
        assert nontrivial > 10


def test_map_identity_is_identity():
    rng = random.Random(2002)
    for _ in range(20):
        g = random_game(rng, P4, max_depth=3, max_branch=2)
        assert map_game(identity_fn(P4), g) is g


def test_map_applies_table_to_leaves():
    f = projector_f(P4)
    dom = f.domain
    g = atomic(dom.pair("a", "b"), dom)
    assert map_game(f, g) is atomic("b", P4)


def test_map_preserves_shape():
    rng = random.Random(2003)
    f = projector_f(P4)
    for _ in range(20):
        g = random_game(rng, f.domain, max_depth=3, max_branch=2)
        m = map_game(f, g)
        assert m.depth == g.depth
        assert m.branching <= g.branching


def test_map_memo_is_keyed_by_the_function_object():
    # each function is dropped after use, so a fresh one may reuse its
    # address; an image filed under that address would answer with the
    # old map
    g = parse("{a|b}")
    same = {e: e for e in P4.elements}
    swapped = {**same, "a": "b", "b": "a"}
    for i in range(200):
        table, want = ((swapped, parse("{b|a}")) if i % 2 else (same, g))
        assert map_game(MonotoneFn(P4, P4, table), g) is want


def test_memo_sizes_count_the_sum_table(ctx):
    # a sum and a gadget application each reach every pair of positions
    # once, each in its own function's table, and images counts both
    X, G = gadget_game(GadgetKind.LEFT_FORCE), parse("{a,{top|b}|b}")
    pairs = len(positions(X)) * len(positions(G))
    gadget_apply(ctx, X, G)
    sizes = ctx.memo_sizes()
    assert sizes.pop("images") == pairs and set(sizes.values()) == {0}
    sum_games(ctx, X, G)
    sizes = ctx.memo_sizes()
    assert sizes["images"] == 2 * pairs
    assert (sizes["realize"], sizes["realize_good"]) == (0, 0)


def test_sum_games_fills_only_the_identity_table(ctx):
    G, H = parse("{a,{top|b}|b}"), parse("{top|bot}", P3)
    s = sum_games(ctx, G, H)
    fn = identity_fn(product(P4, P3))
    assert list(ctx.images) == [fn]
    assert len(ctx.images[fn]) == len(positions(G)) * len(positions(H))
    assert sum_games(ctx, G, H) is s
    assert list(ctx.images) == [fn]


def _chain(n):
    # {a,b|...{a,b|bot}...}, each level of it kept
    a, b = atomic("a", P4), atomic("b", P4)
    levels = [bot(P4)]
    for _ in range(n):
        levels.append(composite([a, b], [levels[-1]]))
    return levels


def test_chain_of_2000_levels_through_the_fold_walkers(ctx):
    # simplify, the rebuild behind dual, swap_ab, map_game and
    # substitute_atoms, to_notation and positions all walk on the fold's
    # own stack, so depth costs them no Python frames
    assert sys.getrecursionlimit() <= 1000
    a, b = atomic("a", P4), atomic("b", P4)
    g = _chain(2000)[-1]
    assert map_game(identity_fn(P4), g) is g
    assert substitute_atoms(g, {"a": a, "b": b}, P4) is g
    assert dual(dual(g)) is g
    assert swap_ab(swap_ab(g)) is g
    assert simplify(ctx, g) is g
    assert repr(g) == "{a,b|" * 2000 + "bot" + "}" * 2000
    assert len(positions(g)) == 2003


def test_chain_of_600_levels_through_printing_branching_and_sum(ctx):
    # to_notation walks on the fold's stack; sum_games recurses over pairs,
    # one Python frame per level; depth and branching are set at interning
    assert sys.getrecursionlimit() <= 1000
    levels = _chain(2000)
    g = levels[2000]
    assert g.branching == 2
    assert to_notation(g).count("{") == 2000
    assert sum_games(ctx, levels[600], atomic("a", P4)).depth == 600


def test_map_rejects_wrong_domain(ctx):
    with pytest.raises(PosetMismatch):
        map_game(projector_f(P4), top(P4))
    with pytest.raises(PosetMismatch):
        map_sum(ctx, projector_f(P4), (top(P3), top(P3)))


def _ranked_fn(rng, dom, cod=CHAIN4):
    # a seeded monotone map onto a chain: an element's down-set grows with
    # it, and its size is cut at three sorted thresholds
    cuts = sorted(rng.randrange(len(dom) + 1) for _ in range(3))
    table = {}
    for e in dom.elements:
        size = sum(dom.le(d, e) for d in dom.elements)
        table[e] = cod.elements[sum(c < size for c in cuts)]
    return MonotoneFn(dom, cod, table)


def _part(rng, p):
    # a seeded summand over p: an atom one time in four
    return (atomic(rng.choice(p.elements), p) if rng.random() < 0.25
            else random_game(rng, p, 2, 2))


def test_sum_is_the_textbook_sum(ctx):
    # raw trees over mixed posets, atoms among the summands: the walk
    # builds the very tree the definition does, read from ctx.images or not
    rng = random.Random(3601)
    posets = (BOOL, P3, P4)
    for _ in range(150):
        g, h = (_part(rng, rng.choice(posets)) for _ in range(2))
        want = ref_sum(g, h)
        assert sum_games(ctx, g, h) is want
        assert sum_games(ctx, g, h) is want


_INTERN_ORDER = """
import sys
from scgames import games
from scgames.algebra import sum_games
from scgames.notation import parse_game
from scgames.poset import builtin
from reference import ref_sum

G = parse_game("{a,{top|b}|{a|bot},b}", builtin("P4"))
H = parse_game("{{top|a},a|bot,{a|{a|bot}}}", builtin("P3"))
before = len(games._GAMES)
ctx = games.SolverContext()
add = (lambda g, h: sum_games(ctx, g, h)) if sys.argv[1] == "walk" \
    else ref_sum
add(add(G, H), G)
add(H, H)
for g in list(games._GAMES.values())[before:]:
    print(games.to_notation(g))
"""


def test_sum_interns_in_the_textbook_order():
    # what simplify returns among equivalent forms, and so the benchmark's
    # digests, depends on the order games are first interned in: two fresh
    # interpreters, one summing through the walk and one by the definition,
    # must intern the same games in the same order
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(Path(scgames.__file__).parent.parent),
                            str(here)])
    runs = [subprocess.run([sys.executable, "-c", _INTERN_ORDER, how],
                           capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=path))
            for how in ("walk", "reference")]
    for proc in runs:
        assert (proc.returncode, proc.stderr) == (0, "")
    walk, ref = (proc.stdout.splitlines() for proc in runs)
    assert len(walk) > 30 and walk == ref


def test_map_sum_is_the_image_of_the_left_folded_sum(ctx):
    # raw trees over mixed posets, atoms among the parts: the image is built
    # without the sum, and is the same interned object
    rng = random.Random(3501)
    posets = (BOOL, P3, P4)
    for trial in range(120):
        k = 1 + trial % 3
        ps = [posets[rng.randrange(3)] for _ in range(k)]
        parts = [_part(rng, p) for p in ps]
        fn = _ranked_fn(rng, reduce(product, ps))
        want = map_game(fn, reduce(ref_sum, parts))
        assert map_sum(ctx, fn, parts) is want


def test_map_sum_reads_a_regrouped_function(ctx):
    # children (0, 2) and (1,) regrouped: the image of the regrouped sum is
    # the image of the sum in child order
    from scgames.setcolor import _regrouped_fn

    rng = random.Random(3502)
    posets, groups = (BOOL, P3, P4), ((0, 2), (1,))
    for _ in range(40):
        fn = _ranked_fn(rng, reduce(product, posets))
        regrouped = _regrouped_fn(fn, posets, groups)
        g = [random_game(rng, p, 2, 2) for p in posets]
        parts = [ref_sum(g[0], g[2]), g[1]]
        want = map_game(regrouped, reduce(ref_sum, parts))
        assert map_sum(ctx, regrouped, parts) is want
        assert map_sum(ctx, fn, g) is want


def test_map_sum_of_a_400_level_chain_takes_a_frame_a_level(ctx):
    # room for one Python frame a level and some to spare: sum_games and
    # map_sum both fit, and two frames a level would not
    parts = [_chain(400)[-1], parse("{top|bot}", BOOL)]
    fn = _ranked_fn(random.Random(3503), product(P4, BOOL))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 450)
    try:
        want = map_game(fn, sum_games(ctx, *parts))
        got = map_sum(ctx, fn, parts)
    finally:
        sys.setrecursionlimit(limit)
    assert got is want and want.depth == 401


def test_gadget_game_shapes():
    assert gadget_game(GadgetKind.LEFT_FORCE) is parse("{top|a}", P3)
    assert gadget_game(GadgetKind.RIGHT_FORCE) is parse("{a|bot}", P3)
    assert gadget_game(GadgetKind.CHOICE) is \
        parse("{{top|a},{top|b}|{a|bot},{b|bot}}")
    assert gadget_game(GadgetKind.COUPLING) is parse("{a,{top|b}|{a|bot},b}")


def test_constructor_templates():
    a, b = atomic("a", P4), atomic("b", P4)
    assert force_left(a) is parse("{top|a}")
    assert force_right(a) is parse("{a|bot}")
    assert coupling(a, b) is parse("{a,{top|b}|{a|bot},b}")
    assert choice(a, b) is parse("{{top|a},{top|b}|{a|bot},{b|bot}}")


def test_gadget_apply_requires_gadget_poset(ctx):
    with pytest.raises(PosetMismatch):
        gadget_apply(ctx, top(P4), top(P4))
    with pytest.raises(PosetMismatch):
        gadget_apply(ctx, top(P3), top(P4), top(P4))
    with pytest.raises(PosetMismatch, match="share a poset"):
        gadget_apply(ctx, top(P4), top(P4), top(P3))


def _samples(rng, n, **kw):
    return [random_game(rng, P4, kw.get("max_depth", 2), 2) for _ in range(n)]


def test_left_force_equation(ctx):
    x = gadget_game(GadgetKind.LEFT_FORCE)
    rng = random.Random(2004)
    for g in _samples(rng, 50):
        assert equiv(ctx, gadget_apply(ctx, x, g), force_left(g))


def test_right_force_equation(ctx):
    x = gadget_game(GadgetKind.RIGHT_FORCE)
    rng = random.Random(2005)
    for g in _samples(rng, 50):
        assert equiv(ctx, gadget_apply(ctx, x, g), force_right(g))


def test_choice_equation(ctx):
    # scoped to passable arguments; see test_binary_equations_need_passability
    x = gadget_game(GadgetKind.CHOICE)
    rng = random.Random(2006)
    for _ in range(50):
        g = random_passable_game(ctx, rng, P4, 2, 2)
        h = random_passable_game(ctx, rng, P4, 2, 2)
        assert equiv(ctx, gadget_apply(ctx, x, g, h), choice(g, h))


def test_coupling_equation(ctx):
    x = gadget_game(GadgetKind.COUPLING)
    rng = random.Random(2007)
    for _ in range(50):
        g = random_passable_game(ctx, rng, P4, 2, 2)
        h = random_passable_game(ctx, rng, P4, 2, 2)
        assert equiv(ctx, gadget_apply(ctx, x, g, h), coupling(g, h))


def test_gadget_application_is_the_image_of_the_sum(ctx):
    rng = random.Random(3504)
    for kind in GadgetKind:
        x = gadget_game(kind)
        for _ in range(15):
            if x.poset is P3:
                g = random_passable_game(ctx, rng, P4, 2, 2)
                assert gadget_apply(ctx, x, g) is \
                    map_game(projector_f(P4), ref_sum(x, g))
            else:
                g, h = (random_passable_game(ctx, rng, P4, 2, 2)
                        for _ in range(2))
                assert gadget_apply(ctx, x, g, h) is \
                    map_game(projector_g(P4), ref_sum(ref_sum(x, g), h))


def test_binary_equations_need_passability(ctx):
    # smallest counterexamples found by exhausting depth-1 games: the
    # coupling action and the identity action both break when an
    # argument is not passable, so the passable scoping above is not
    # an artifact of weak sampling
    g, h = parse("{bot|bot}"), parse("{bot|a}")
    assert is_passable(ctx, g) and not is_passable(ctx, h)
    xc = gadget_game(GadgetKind.COUPLING)
    assert not equiv(ctx, gadget_apply(ctx, xc, g, h), coupling(g, h))
    xi = parse("{{top|a}|a}", P3)
    assert not equiv(ctx, gadget_apply(ctx, xi, h), h)


def test_non_gadget_still_acts_as_identity(ctx):
    # {{top|a}|a} + G keeps the value of a passable G, yet it is not a
    # gadget game: substitution produces {{top|G}|G}, which can differ
    x = parse("{{top|a}|a}", P3)
    rng = random.Random(2008)
    for _ in range(20):
        g = random_passable_game(ctx, rng, P4, 2, 2)
        assert equiv(ctx, gadget_apply(ctx, x, g), g)
    found = falsify_gadget_game(ctx, x, rng=random.Random(2009))
    assert found is not None
    (g,) = found
    assert not equiv(ctx, gadget_apply(ctx, x, g),
                     substitute_atoms(x, {"a": g}, P4))


def test_falsify_finds_nothing_for_real_gadgets(ctx):
    for kind in (GadgetKind.LEFT_FORCE, GadgetKind.RIGHT_FORCE,
                 GadgetKind.CHOICE, GadgetKind.COUPLING):
        x = gadget_game(kind)
        assert falsify_gadget_game(ctx, x,
                                   rng=random.Random(2010)) is None


def test_falsify_refutes_a_binary_non_gadget(ctx):
    # the binary search draws G then H and substitutes them for a and b
    x = parse("{{top|a}|a}", P4)
    found = falsify_gadget_game(ctx, x, rng=random.Random(2015))
    assert found is not None
    g, h = found
    assert not equiv(ctx, gadget_apply(ctx, x, g, h),
                     substitute_atoms(x, {"a": g, "b": h}, P4))


def test_passability_closure_is_exact(ctx):
    rng = random.Random(2011)
    for _ in range(30):
        g = random_passable_game(ctx, rng, P4, max_depth=2, max_branch=2)
        h = random_passable_game(ctx, rng, P4, max_depth=2, max_branch=2)
        assert is_passable(ctx, force_left(g))
        assert is_passable(ctx, force_right(g))
        assert is_passable(ctx, choice(g, h))
        assert is_passable(ctx, coupling(g, h))


def test_choice_of_forced_merges_option_sets(ctx):
    # {G1..Gk|bot} and {H1..Hm|bot} glued by the choice shape give
    # {G1..Gk,H1..Hm|bot}; this is what the halving synthesis leans on
    rng = random.Random(2012)
    for _ in range(30):
        s = [random_game(rng, P4, 1, 2) for _ in range(rng.randint(1, 2))]
        t = [random_game(rng, P4, 1, 2) for _ in range(rng.randint(1, 2))]
        cs = composite(s, [bot(P4)], P4)
        ct = composite(t, [bot(P4)], P4)
        merged = composite(s + t, [bot(P4)], P4)
        assert equiv(ctx, choice(cs, ct), merged)


def test_locally_monotone_pair_equals_its_coupling(ctx):
    rng = random.Random(2013)
    hits = 0
    for _ in range(200):
        g = random_game(rng, P4, 1, 2)
        h = random_game(rng, P4, 1, 2)
        k = composite([g], [h], P4)
        if local_class(ctx, k) == "monotone":
            hits += 1
            assert equiv(ctx, k, coupling(g, h))
    assert hits > 5


def test_gift_horse_example(ctx):
    g = parse("{top|bot}")
    out = add_gift_horse(ctx, g, bot(P4), "left")
    assert out is parse("{bot,top|bot}")
    assert equiv(ctx, out, g)


def test_gift_horse_rejects_bad_offer(ctx):
    g = parse("{bot|bot}")
    with pytest.raises(NotAGiftHorse):
        add_gift_horse(ctx, g, top(P4), "left")
    with pytest.raises(NotAGiftHorse):
        add_gift_horse(ctx, parse("a"), bot(P4), "left")
    with pytest.raises(ValueError):
        add_gift_horse(ctx, g, bot(P4), "sideways")


def test_gift_horse_semi_monotonization(ctx):
    # a passable game with a good left option G_i tolerates the extra
    # right option {G_i|bot} and becomes locally semi-monotone
    rng = random.Random(2016)
    hits = 0
    for _ in range(60):
        k = random_passable_game(ctx, rng, P4, max_depth=2, max_branch=2)
        if k.is_atomic:
            continue
        good = [x for x in k.left if leq(ctx, k, x)]
        if not good:
            continue
        hits += 1
        k2 = add_gift_horse(ctx, k, force_right(good[0]), "right")
        assert equiv(ctx, k2, k)
        assert local_class(ctx, k2) in ("semi_monotone", "monotone")
    assert hits > 10


def test_substitute_atoms(ctx):
    x = parse("{top|a}", P3)
    g = parse("{a,b|bot}")
    assert substitute_atoms(x, {"a": g}, P4) is composite([top(P4)], [g], P4)
    with pytest.raises(UnknownAtom):
        substitute_atoms(parse("{a|bot}", P3), {}, P4)
    with pytest.raises(PosetMismatch):
        substitute_atoms(x, {"a": top(P3)}, P4)
