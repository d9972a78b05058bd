"""Census, value table expansion, and the printed-board checks."""

import hashlib
import json
import random
from functools import lru_cache
from itertools import permutations

import pytest

from scgames.catalog import (DEDEKIND, FixtureEntry, FixtureParseError,
                             FixtureSection, antichains,
                             board_at, build_catalog, catalog_to_json,
                             census_layers, dedupe_values, expand_fixture,
                             layer_values, ValueIndex, fixture_from_json,
                             load_fixture, orbit_representatives,
                             verify_appendix)
from scgames import catalog as catalog_mod
from scgames import games as games_mod
from scgames.algebra import sum_games
from scgames.games import (SolverContext, bot, composite, equiv, is_passable,
                           simplify, to_notation, top)
from scgames.poset import product
from scgames.sampling import random_passable_game
from scgames.setcolor import (CarrierTooLarge, SetColoringGame, Threshold,
                              board_to_json, eval_board)

from conftest import P4, parse
from reference import (ref_cell_permutations, ref_count_antichains,
                       ref_orbit_minima, ref_restrictions)


@pytest.fixture(scope="module")
def mctx():
    return SolverContext()


@pytest.fixture(scope="module")
def fixture():
    return load_fixture()


# -- antichain enumeration -----------------------------------------------------

def test_antichain_counts_match_brute_force():
    for n in range(4):
        got = sum(1 for _ in antichains(n))
        assert got == ref_count_antichains(n) == DEDEKIND[n]


def test_antichain_stream_is_duplicate_free_and_valid():
    seen = set()
    for ac in antichains(4):
        assert ac not in seen
        seen.add(ac)
        assert list(ac) == sorted(ac)
        for i, x in enumerate(ac):
            for y in ac[i + 1:]:
                assert x & y != x and x & y != y
    assert len(seen) == DEDEKIND[4]


# -- restriction and permutation tables ----------------------------------------

@pytest.mark.parametrize("n", range(1, 6))
def test_restrictions_match_per_cell_restriction(n):
    assert catalog_mod._restrictions(n) == ref_restrictions(n)


@pytest.mark.parametrize("n", range(5))
def test_composed_permutation_tables_match_the_mask_images(n):
    # keyed by the permutation, in the reference's permutations() order
    got, want = catalog_mod._cell_permutations(n), ref_cell_permutations(n)
    assert len(got) == len(want)
    assert [got[p] for p in permutations(range(n))] == want


def test_five_cell_permutation_tables_are_distinct_permutations():
    # the reference would image all 120 permutations from the masks here
    tables = catalog_mod._cell_permutations(5)
    assert len({tuple(t) for t in tables.values()}) == len(tables) == 120
    assert all(sorted(t) == list(range(DEDEKIND[5]))
               for t in tables.values())


# -- catalogs ------------------------------------------------------------------

def test_layer_values_match_eval_board():
    # every board through 3 cells and a fixed stride of the 4-cell layer:
    # the restriction DP must give eval_board's interned value itself
    layers = census_layers(SolverContext(), 4)
    fresh = SolverContext()
    checked = 0
    for n, values in enumerate(layers):
        assert len(values) == DEDEKIND[n] ** 2
        stride = 1 if n < 4 else 23
        for idx in range(0, len(values), stride):
            S = board_at(n, idx)
            assert S.poset is P4 and S.size == n
            assert values[idx] is eval_board(fresh, S), (n, idx)
            checked += 1
    assert checked == 449 + (28224 + 22) // 23


@lru_cache(maxsize=None)
def ref_rows(n):
    return ref_restrictions(n)


def per_board_options(n, below, idx):
    """The left and right options of board idx of n cells, looked up one
    restriction at a time in the values below."""
    rows, stride = ref_rows(n), DEDEKIND[n - 1]
    pairs = list(zip(*(rows[i] for i in divmod(idx, DEDEKIND[n]))))
    return ([below[a * stride + b] for (a, _), (b, _) in pairs],
            [below[a * stride + b] for (_, a), (_, b) in pairs])


def test_layer_values_are_the_per_board_composites():
    # every board of 1 to 4 cells, not only the orbit representatives:
    # the value looked up by the board's pair of option sets is the very
    # object the per-board simplify(composite(lefts, rights)) gives
    ctx = SolverContext()
    layers = census_layers(ctx, 4)
    option_sets = set()
    for n in range(1, 5):
        for idx, value in enumerate(layers[n]):
            lefts, rights = per_board_options(n, layers[n - 1], idx)
            assert value is simplify(ctx, composite(lefts, rights, P4)), \
                (n, idx)
            option_sets.add((n, frozenset(lefts), frozenset(rights)))
    # each distinct pair of option sets went to simplify once
    assert ctx.stats["layer_boards"] == 9 + 36 + 400 + 28224
    assert ctx.stats["layer_pairs"] == len(option_sets) < 1000


@pytest.mark.parametrize("seed", range(3))
def test_layer_values_are_the_per_board_composites_over_any_layer(seed):
    # a layer below drawn from six values repeats option sets in every
    # combination, so two boards whose option sets differ in one value on
    # one side, the left or the right, are met often and must still get
    # their own values
    ctx = SolverContext()
    rng = random.Random(seed)
    pool = rng.sample(list(dict.fromkeys(census_layers(ctx, 2)[2])), 6)
    below = [rng.choice(pool) for _ in range(DEDEKIND[2] ** 2)]
    for idx, value in enumerate(layer_values(ctx, 3, below)):
        lefts, rights = per_board_options(3, below, idx)
        assert value is simplify(ctx, composite(lefts, rights, P4)), idx


def test_catalog_zero_cells(mctx):
    cat = build_catalog(mctx, 0)
    assert {to_notation(e.value) for e in cat.entries} == \
        {"top", "a", "b", "bot"}
    assert all(e.cells == 0 for e in cat.entries)


def test_catalog_one_cell(mctx):
    cat = build_catalog(mctx, 1)
    want = {"top", "a", "b", "bot",
            "{top|a}", "{top|b}", "{a|bot}", "{b|bot}", "{top|bot}"}
    assert {to_notation(e.value) for e in cat.entries} == want
    by_name = {to_notation(e.value): e.cells for e in cat.entries}
    assert by_name["a"] == 0
    assert by_name["{top|a}"] == 1


def test_catalog_entries_pairwise_inequivalent(mctx):
    cat = build_catalog(mctx, 2)
    vals = cat.values()
    for i, g in enumerate(vals):
        for h in vals[i + 1:]:
            assert not equiv(mctx, g, h)


def test_catalog_witnesses_reevaluate_fresh():
    ctx = SolverContext()
    cat = build_catalog(ctx, 2)
    fresh = SolverContext()
    for e in cat.entries:
        assert len(e.board.cells) == e.cells
        assert equiv(fresh, eval_board(fresh, e.board), e.value)


def test_catalog_monotone_in_cell_count(mctx):
    prev = set()
    for n in range(4):
        cur = {e.value.uid for e in build_catalog(mctx, n).entries}
        assert prev <= cur
        prev = cur


def same_values_mod_equiv(ctx, A, B):
    """Set equality up to equivalence; simplified forms are not canonical."""
    A, B = list(A), list(B)
    if {g.uid for g in A} == {g.uid for g in B}:
        return
    for g in A:
        assert any(equiv(ctx, g, h) for h in B), to_notation(g)
    for h in B:
        assert any(equiv(ctx, h, g) for g in A), to_notation(h)


def test_catalog_matches_expanded_table_through_three(mctx, fixture):
    cat = build_catalog(mctx, 3)
    ex = expand_fixture(fixture, 3, mctx)
    same_values_mod_equiv(mctx, cat.values(), ex)
    assert len(cat) == len(ex) == 22


def test_catalog_matches_expanded_table_at_four(mctx, fixture):
    cat = build_catalog(mctx, 4)
    ex = expand_fixture(fixture, 4, mctx)
    same_values_mod_equiv(mctx, cat.values(), ex)
    assert len(cat) == len(ex) == 50


def test_every_interned_game_holds_its_signatures_one_masks_tuple(mctx):
    build_catalog(mctx, 4)
    table = games_mod._MASKS
    assert all(table[g.masks] is g.masks for g in games_mod._GAMES.values())


def test_catalog_rejects_cell_counts_outside_the_table():
    with pytest.raises(CarrierTooLarge, match="cap"):
        build_catalog(SolverContext(), len(DEDEKIND))
    with pytest.raises(ValueError):
        build_catalog(SolverContext(), -1)


# -- orbits under cell permutations ----------------------------------------------

@pytest.mark.parametrize("n", range(5))
def test_orbit_representatives_are_the_naive_orbit_minima(n):
    reps = list(orbit_representatives(n))
    assert reps == sorted(ref_orbit_minima(n))
    assert len(reps) == (4, 9, 26, 125, 1990)[n]


def test_five_cell_orbit_count():
    # the count README gives; the naive orbit minima above stop at 4
    # cells, since at 5 they would scan all 57,471,561 boards
    assert sum(1 for _ in orbit_representatives(5)) == 558_801


@pytest.mark.parametrize("n", range(5))
def test_orbit_build_matches_full_scan(n):
    # every board of every layer filed in board_at order, as before orbits
    ctx = SolverContext()
    index = ValueIndex(ctx)
    full = [(v, board_at(k, i), k)
            for k, layer in enumerate(census_layers(ctx, n))
            for i, v in enumerate(layer) if index.add(v)]
    cat = build_catalog(SolverContext(), n)
    assert len(cat) == len(full)
    for e, (v, board, k) in zip(cat.entries, full):
        assert e.value is v and e.cells == k
        assert board_to_json(e.board) == board_to_json(board)


@pytest.fixture(scope="module")
def five_ctx():
    return SolverContext()


@pytest.fixture(scope="module")
def five(five_ctx):
    return build_catalog(five_ctx, 5)


def test_five_cell_census_counts_boards_and_pairs(five, five_ctx):
    assert five_ctx.stats["layer_boards"] == 587_470
    assert five_ctx.stats["layer_pairs"] == 69_357


def test_catalog_matches_expanded_table_at_five(five, fixture):
    ctx = SolverContext()
    ex = expand_fixture(fixture, 5, ctx)
    same_values_mod_equiv(ctx, five.values(), ex)
    assert len(five) == len(ex) == 178


def test_five_cell_catalog_text_is_pinned(five):
    # the exact bytes `scgames catalog -n 5 -o` writes
    text = json.dumps(catalog_to_json(five), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "6604f564edd6677966762be821ca09e07f06d6b5f5ae4bc56ac60c892456ea64"


def test_five_cell_witnesses_reevaluate_fresh(five):
    fresh = SolverContext()
    witnesses = [e for e in five.entries if e.cells == 5]
    assert len(witnesses) == 178 - 50
    for e in witnesses:
        assert e.board.size == 5
        assert eval_board(fresh, e.board) is e.value


def test_dedupe_values(mctx):
    gs = [parse(t) for t in
          ("{top|top}", "top", "{a,b|bot}", "{b,a|bot}", "a")]
    reps = dedupe_values(mctx, gs)
    assert [to_notation(g) for g in reps] == ["top", "{a,b|bot}", "a"]


def plain_index(ctx, gs):
    """The find-or-insert loop ValueIndex must agree with: every value
    scanned against every representative, oldest first.  Returns the
    filed flags, the representatives and the number of equiv calls."""
    reps, seen, filed, calls = [], set(), [], 0
    for g in gs:
        if g.uid in seen:
            filed.append(False)
            continue
        seen.add(g.uid)
        new = True
        for r in reps:
            calls += 1
            if equiv(ctx, g, r):
                new = False
                break
        if new:
            reps.append(g)
        filed.append(new)
    return filed, reps, calls


def test_value_index_scans_like_a_plain_loop(mctx, monkeypatch):
    # the same classes and representatives as a scan over all of them,
    # with equiv asked only where the signatures allow an equivalence
    calls = []

    def logged(ctx, g, h):
        calls.append((g, h))
        return equiv(ctx, g, h)

    monkeypatch.setattr(catalog_mod, "equiv", logged)
    # raw games, so some classes hold several uids; {a|b}, {b|a} and
    # {a|top} are not passable
    gs = [parse(t) for t in
          ("a", "{top|top}", "{a,b|bot}", "top", "{b,a|bot}", "{top|a}",
           "{a|b}", "a", "{{top|a}|a}", "{b|a}", "{top|{a|bot}}",
           "{a|top}", "{top|bot}", "bot")]
    before = mctx.stats["index_equiv"]
    index = ValueIndex(mctx)
    filed = [index.add(g) for g in gs]

    want_filed, reps, want_calls = plain_index(mctx, gs)
    assert filed == want_filed and index.values == reps
    assert len(reps) < len(set(g.uid for g in gs))
    assert 0 < len(calls) <= want_calls
    assert mctx.stats["index_equiv"] - before == len(calls)
    for g, r in calls:
        # one bucket per atom signature, non-passable values included
        assert (g.masks[2], g.masks[0]) == (r.masks[2], r.masks[0])
        assert r in reps
    assert any(not is_passable(mctx, g) for g, _ in calls)


def test_census_classes_share_one_signature():
    # equivalent games have the same atoms below and above them; every
    # census value is passable
    ctx = SolverContext()
    classes: list[list] = []
    for layer in census_layers(ctx, 4):
        for v in dict.fromkeys(layer):
            for cls in classes:
                if equiv(ctx, v, cls[0]):
                    if v not in cls:
                        cls.append(v)
                    break
            else:
                classes.append([v])
    assert len(classes) == 50
    assert sum(map(len, classes)) > 50    # some classes hold several uids
    sigs = set()
    for cls in classes:
        got = {(v.masks[2], v.masks[0]) for v in cls}
        assert len(got) == 1 and all(is_passable(ctx, v) for v in cls)
        sigs |= got
    assert len(sigs) == 11


def test_value_index_matches_plain_loop_on_sums():
    # seeded sums over P4xP4, simplified as the dedupe callers file them,
    # with raw non-passable games mixed in
    ctx = SolverContext()
    rng = random.Random(1013)

    def composite_passable():
        while True:
            g = random_passable_game(ctx, rng, P4, 2, 2)
            if g.atom is None:
                return g

    PP = product(P4, P4)
    lo, hi = bot(PP), top(PP)
    gs = []
    for i in range(300):
        s = simplify(ctx, sum_games(ctx, composite_passable(),
                                    composite_passable()))
        gs.append(s)
        if i % 10 == 0:
            gs.append(composite([lo], [hi]))
            gs.append(composite([s], [hi]) if i % 20 else
                      composite([lo], [s]))
    assert any(not is_passable(ctx, g) for g in gs)
    index = ValueIndex(ctx)
    filed = [index.add(g) for g in gs]
    want_filed, reps, want_calls = plain_index(ctx, gs)
    assert filed == want_filed and index.values == reps
    assert ctx.stats["index_equiv"] <= want_calls
    assert len(reps) < len(set(g.uid for g in gs))


# -- the shipped value table -----------------------------------------------------

def test_fixture_shape(fixture):
    assert all(e.game.poset is P4 and e.board.poset is P4
               for sec in fixture for e in sec.entries)
    assert [s.cells for s in fixture] == [0, 1, 2, 3, 4, 5]
    assert [s.closure_forms for s in fixture] == \
        [False, False, True, True, True, True]
    assert [len(s.entries) for s in fixture] == [4, 2, 1, 2, 6, 30]


def test_expand_fixture_small(mctx, fixture):
    ex0 = expand_fixture(fixture, 0, mctx)
    assert {to_notation(g) for g in ex0} == {"top", "a", "b", "bot"}
    ex1 = expand_fixture(fixture, 1, mctx)
    assert len(ex1) == 9
    # the swap/dual closure fills in what the table leaves implicit
    assert parse("{b|bot}") in ex1
    ex2 = expand_fixture(fixture, 2, mctx)
    assert parse("{{top|a},{top|b}|{a|bot},{b|bot}}") in ex2


def test_expand_fixture_range(mctx, fixture):
    with pytest.raises(ValueError):
        expand_fixture(fixture, 6, mctx)


def test_verify_appendix_all_pass(mctx, fixture):
    checks = verify_appendix(mctx, fixture)
    assert len(checks) == 45
    assert all(c.ok for c in checks)


def test_verify_appendix_flags_corruption(mctx, fixture):
    sections = list(fixture)
    sec1 = sections[1]
    # claim {top|a} for the board that always pays top
    first = sec1.entries[0]
    top_board = SetColoringGame(("c0",),
                                Threshold(P4, 1, {"a": ("0",), "b": ("0",)}))
    bad = FixtureEntry(first.value, first.game, top_board)
    sections[1] = FixtureSection(1, sec1.closure_forms,
                                 (bad,) + sec1.entries[1:])
    failures = [c for c in verify_appendix(mctx, tuple(sections)) if not c.ok]
    assert len(failures) == 1
    fail = failures[0]
    assert fail.cells == 1 and fail.claimed == "{top|a}" and fail.got == "top"


def test_fixture_parse_errors(tmp_path):
    def bad(obj):
        with pytest.raises(FixtureParseError):
            fixture_from_json(obj)

    bad([])
    bad({"poset": "P4"})
    bad({"poset": "Q9", "sections": []})
    bad({"poset": "P4", "sections": [{"cells": 1, "entries": []}]})
    bad({"poset": "P4", "sections": [
        {"cells": 0, "entries": [{"value": "top", "a": ["1"], "b": []}]}]})
    bad({"poset": "P4", "sections": [
        {"cells": 0, "entries": [{"value": "c", "a": [], "b": []}]}]})
    bad({"poset": "P4", "sections": [
        {"cells": 2, "cells_wrong": True}]})
    # non-antichain patterns
    bad({"poset": "P4", "sections": [
        {"cells": 0, "entries": []},
        {"cells": 1, "entries": []},
        {"cells": 2, "entries": [
            {"value": "top", "a": ["01", "11"], "b": []}]}]})
    # pattern lists are JSON lists of strings, and errors name the entry
    for pats in ("1", {"1": 0}, ["1", 1]):
        with pytest.raises(FixtureParseError,
                           match=r"section 1, '\{b\|bot\}'"):
            fixture_from_json({"poset": "P4", "sections": [
                {"cells": 0, "entries": []},
                {"cells": 1, "entries": [
                    {"value": "{b|bot}", "a": [], "b": pats}]}]})
    bad({"poset": "P4", "sections": 5})
    bad({"poset": "P4", "sections": [{"cells": False, "entries": []}]})
    bad({"poset": "P4", "sections": [{"cells": 0, "entries": 5}]})
    bad({"poset": "P4", "sections": [
        {"cells": 0, "entries": [{"value": 5, "a": [], "b": []}]}]})
    bad({"poset": ["P4"], "sections": []})

    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(FixtureParseError):
        load_fixture(p)


def test_fixture_pattern_lengths(fixture):
    for sec in fixture:
        for e in sec.entries:
            sets = e.board.payoff.sets
            assert e.board.size == sec.cells
            assert all(len(s) == sec.cells for s in sets["a"] + sets["b"])


def test_fixture_values_are_parsed_once_at_load(monkeypatch, mctx):
    fixture = load_fixture()
    monkeypatch.setattr(catalog_mod, "parse_game", None)
    assert all(c.ok for c in verify_appendix(mctx, fixture))
    assert len(expand_fixture(fixture, 5, mctx)) == 178
