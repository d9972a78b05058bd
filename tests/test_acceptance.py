"""Acceptance gate: the nine criteria, one test per criterion.

Every test prints a single summary line when it passes; pytest itself
reports the fail otherwise.  Seeds are fixed so runs reproduce exactly.
"""

import random
import time

import pytest

from scgames.algebra import (GadgetKind, choice, coupling, force_left,
                             force_right, gadget_apply, gadget_apply2,
                             gadget_game, falsify_gadget_game, sum_games,
                             map_game)
from scgames.catalog import (build_catalog, expand_fixture, load_fixture,
                             verify_appendix)
from scgames.games import (SolverContext, atomic, dual, equiv, is_monotone,
                           is_passable, leq, simplify, to_notation)
from scgames.poset import antichain_poset, builtin
from scgames.realize import VerifiedHow, realize, size_bound
from scgames.sampling import random_game, random_passable_game
from scgames.setcolor import (eval_board, projector_f, random_threshold_board,
                              sc_base, sc_map, sc_sum, shipped_board)

from conftest import BOOL, P3, P4, parse
from reference import ref_sum


@pytest.fixture(scope="module")
def ctx():
    return SolverContext()


@pytest.fixture(scope="module")
def fixture():
    return load_fixture()


def report(n, text, t0):
    print(f"\ncriterion {n} PASS: {text} ({time.time() - t0:.1f}s)")


def test_criterion_1_value_table_verification(ctx, fixture):
    t0 = time.time()
    assert [len(s.entries) for s in fixture] == [4, 2, 1, 2, 6, 30]
    checks = verify_appendix(ctx, fixture)
    assert all(c.ok for c in checks), [c for c in checks if not c.ok]
    assert len(checks) == 45
    report(1, "all 45 printed boards evaluate to their listed values", t0)


def test_criterion_2_base_boards_exact(ctx):
    t0 = time.time()
    a3 = atomic("a", P3)
    a4, b4 = atomic("a", P4), atomic("b", P4)
    want = {
        GadgetKind.LEFT_FORCE: force_left(a3),
        GadgetKind.RIGHT_FORCE: force_right(a3),
        GadgetKind.CHOICE: choice(a4, b4),
        GadgetKind.COUPLING: coupling(a4, b4),
    }
    for kind, value in want.items():
        assert eval_board(ctx, sc_base(kind)) is value, kind
    report(2, "the four base boards evaluate to exactly the stated values",
           t0)


def test_criterion_3_hex_2x2(ctx):
    t0 = time.time()
    v = eval_board(ctx, shipped_board("hex2x2.scg"))
    assert equiv(ctx, v, parse("{top|bot}", BOOL))
    report(3, "the 2x2 hex board is a first-player win", t0)


def test_criterion_4_coupling_example_board(ctx):
    t0 = time.time()
    v = eval_board(ctx, sc_base(GadgetKind.COUPLING))
    assert equiv(ctx, v, parse("{a,{top|b}|{a|bot},b}"))
    report(4, "the five-cell example board has the worked-out value", t0)


def test_criterion_5_gadget_equations(ctx):
    t0 = time.time()
    rng = random.Random(9005)
    xl = gadget_game(GadgetKind.LEFT_FORCE)
    xr = gadget_game(GadgetKind.RIGHT_FORCE)
    for _ in range(50):
        g = random_game(rng, P4, max_depth=2, max_branch=2)
        assert equiv(ctx, gadget_apply(ctx, xl, g), force_left(g))
        assert equiv(ctx, gadget_apply(ctx, xr, g), force_right(g))
    # the binary equations hold for passable arguments (and can fail
    # otherwise, so sampling is scoped accordingly)
    xc = gadget_game(GadgetKind.CHOICE)
    xk = gadget_game(GadgetKind.COUPLING)
    for _ in range(50):
        g = random_passable_game(ctx, rng, P4, 2, 2)
        h = random_passable_game(ctx, rng, P4, 2, 2)
        assert equiv(ctx, gadget_apply2(ctx, xc, g, h), choice(g, h))
        assert equiv(ctx, gadget_apply2(ctx, xk, g, h), coupling(g, h))
    # negative control: this game acts as the identity on values, yet it
    # is not a gadget (application differs from literal substitution)
    xi = parse("{{top|a}|a}", P3)
    for _ in range(20):
        g = random_passable_game(ctx, rng, P4, 2, 2)
        assert equiv(ctx, gadget_apply(ctx, xi, g), g)
    assert falsify_gadget_game(ctx, xi, rng=random.Random(9505)) is not None
    report(5, "all four gadget equations on 50 samples each, plus the "
              "identity-acting non-gadget control", t0)


def test_criterion_6_realization_round_trip(ctx, fixture):
    t0 = time.time()
    curated = sorted(expand_fixture(fixture, 3, ctx), key=lambda g: g.uid)
    curated += [gadget_game(k) for k in GadgetKind]
    curated.append(parse("{top|bot}"))
    rng = random.Random(9006)
    randoms = [random_passable_game(ctx, rng, P4, 2, 2) for _ in range(100)]
    modes = {VerifiedHow.BRUTE_FORCE: 0, VerifiedHow.COMPOSITIONAL: 0}
    biggest = 0
    for g in curated + randoms:
        rep = realize(ctx, g, verify_cap=14)    # raises on any mismatch
        assert rep.carrier_size <= rep.bound == size_bound(ctx, g)
        modes[rep.verified] += 1
        biggest = max(biggest, rep.carrier_size)
    assert modes[VerifiedHow.BRUTE_FORCE] >= 100
    report(6, f"{len(curated)} curated + 100 random passable games round "
              f"trip ({modes[VerifiedHow.BRUTE_FORCE]} brute-forced, "
              f"{modes[VerifiedHow.COMPOSITIONAL]} compositional, largest "
              f"carrier {biggest})", t0)


def test_criterion_7_eight_way_choice_on_seven_cells(ctx):
    t0 = time.time()
    A8 = antichain_poset(8)
    g = parse("{" + ",".join(f"a{i}" for i in range(1, 9)) + "|bot}", A8)
    rep = realize(SolverContext(), g, verify_cap=7)
    assert rep.carrier_size == 7
    assert rep.verified is VerifiedHow.BRUTE_FORCE
    report(7, "an eight-way left choice fits on exactly 7 cells, "
              "brute-force checked", t0)


def test_criterion_8_catalog_matches_expanded_table(ctx, fixture):
    t0 = time.time()
    cat = build_catalog(ctx, 3)
    ex = expand_fixture(fixture, 3, ctx)
    got = set(cat.values())
    if got != ex:                      # simplified forms are not canonical
        for g in got:
            assert any(equiv(ctx, g, h) for h in ex), to_notation(g)
        for h in ex:
            assert any(equiv(ctx, h, g) for g in got), to_notation(h)
    assert len(cat) == len(ex) == 22
    report(8, "the 3-cell census reproduces the expanded value table "
              "(22 values)", t0)


def test_criterion_9_property_suites(ctx):
    t0 = time.time()
    # monotone games are passable
    rng = random.Random(9009)
    hits = 0
    for _ in range(500):
        g = random_game(rng, P4, max_depth=2, max_branch=2)
        if is_monotone(ctx, g):
            hits += 1
            assert is_passable(ctx, g)
    assert hits > 10

    # board position games are monotone (the raw tree; simplification
    # preserves the value but can drop out of the monotone tree class)
    for _ in range(100):
        S = random_threshold_board(rng, P4, rng.randint(0, 5))
        assert is_monotone(ctx, eval_board(ctx, S, simplify=False))
        assert is_passable(ctx, eval_board(ctx, S))

    # sum and map are structural homomorphisms on raw values; the
    # projector wants the product carrier, so map runs on a board sum
    f = projector_f(P4)
    for _ in range(100):
        S = random_threshold_board(rng, P4, rng.randint(0, 3))
        T = random_threshold_board(rng, P3, rng.randint(0, 2))
        raw_s = eval_board(ctx, S, simplify=False)
        raw_t = eval_board(ctx, T, simplify=False)
        assert eval_board(ctx, sc_sum(S, T), simplify=False) \
            is ref_sum(raw_s, raw_t)
        both = sc_sum(T, S)
        assert eval_board(ctx, sc_map(f, both), simplify=False) \
            is map_game(f, eval_board(ctx, both, simplify=False))

    # sums respect equivalence of passable summands
    nontrivial = 0
    for _ in range(100):
        g = random_passable_game(ctx, rng, P4, 2, 2)
        h = random_passable_game(ctx, rng, P4, 2, 2)
        g2, h2 = simplify(ctx, g), simplify(ctx, h)
        nontrivial += g2 is not g or h2 is not h
        assert equiv(ctx, sum_games(ctx, g, h), sum_games(ctx, g2, h2))
    assert nontrivial > 10    # the quadruples are not all trivially equal

    # preorder laws on sampled triples; any violation is a failure
    violations = []
    for _ in range(500):
        g, h, k = (random_game(rng, P4, max_depth=3, max_branch=2)
                   for _ in range(3))
        if not leq(ctx, g, g):
            violations.append(("refl", to_notation(g)))
        if leq(ctx, g, h) and leq(ctx, h, k) and not leq(ctx, g, k):
            violations.append(("trans", to_notation(g), to_notation(h),
                               to_notation(k)))
    assert violations == []

    # duality reverses the order
    for _ in range(200):
        g = random_game(rng, P4, max_depth=2, max_branch=2)
        h = random_game(rng, P4, max_depth=2, max_branch=2)
        assert leq(ctx, g, h) == leq(ctx, dual(h), dual(g))

    report(9, "six property suites pass on fixed-seed samples "
              "(500/100/100/100/500/200)", t0)
