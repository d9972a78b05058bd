"""Synthesizer round trips, size accounting, and the gift-horse path."""

import random

import pytest

from scgames.catalog import build_catalog
from scgames.games import (
    SolverContext,
    atomic,
    equiv,
    is_monotone,
    local_class,
    to_notation,
)
from scgames.poset import antichain_poset
from scgames.realize import (
    NotPassable,
    VerifiedHow,
    realize,
    size_bound,
    verify,
)
from scgames.sampling import random_passable_game
from scgames.setcolor import Compose, Dual, eval_board, sc_const
from conftest import BOWTIE6, CHAIN4, P4, parse


@pytest.fixture(scope="module")
def mctx():
    # shared across this module: realize/eval caches are append-only
    return SolverContext()


# -- size bound ----------------------------------------------------------------

def test_bound_is_zero_for_atoms(ctx):
    assert size_bound(ctx, atomic("a", P4)) == 0
    assert size_bound(ctx, atomic("top", P4)) == 0


def test_bound_passable_depth1_branch2(ctx):
    assert size_bound(ctx, parse("{a,b|bot}")) == 14


def test_bound_monotone_depth2_branch2(ctx):
    g = parse("{{top|a},{top|b}|{a|bot},{b|bot}}")
    assert is_monotone(ctx, g)
    assert size_bound(ctx, g) == 33


def test_bound_passable_depth2_branch2(ctx):
    g = parse("{a,{top|b}|{a|bot},b}")
    assert size_bound(ctx, g) == 42


def test_bound_log_floor_at_branch_one(ctx):
    # b=1: the log term vanishes instead of going negative
    assert size_bound(ctx, parse("{top|a}")) == 7


def test_bound_rejects_non_passable(ctx):
    with pytest.raises(NotPassable):
        size_bound(ctx, parse("{bot|top}"))


# -- pinned syntheses ----------------------------------------------------------

def test_atom_realizes_on_zero_cells(ctx):
    for name in ("a", "b", "top", "bot"):
        r = realize(ctx, atomic(name, P4))
        assert r.carrier_size == 0
        assert r.verified is VerifiedHow.BRUTE_FORCE
        assert eval_board(ctx, r.board) is atomic(name, P4)


def test_two_atom_one_sided_choice_is_three_cells(ctx):
    r = realize(ctx, parse("{a,b|bot}"))
    assert r.carrier_size == 3
    assert r.verified is VerifiedHow.BRUTE_FORCE
    assert r.good_option_used == {}


def test_forcing_forms_add_one_cell(ctx):
    assert realize(ctx, parse("{a|bot}")).carrier_size == 1
    assert realize(ctx, parse("{top|a}")).carrier_size == 1
    assert realize(ctx, parse("{top|bot}")).carrier_size == 1
    assert realize(ctx, parse("{top|{a|bot}}")).carrier_size == 2


def test_dual_one_sided_form(ctx):
    r = realize(ctx, parse("{top|a,b}"))
    assert r.carrier_size == 3
    assert r.verified is VerifiedHow.BRUTE_FORCE


def test_eight_antichain_atoms_on_seven_cells(mctx):
    A8 = antichain_poset(8)
    g = parse("{" + ",".join(A8.elements[1:-1]) + "|bot}", A8)
    r = realize(mctx, g)
    assert r.carrier_size == 7
    assert r.verified is VerifiedHow.BRUTE_FORCE


def test_example_coupling_game_realizes(mctx):
    g = parse("{a,{top|b}|{a|bot},b}")
    r = realize(mctx, g)
    assert r.carrier_size <= r.bound == 42
    assert r.verified is VerifiedHow.BRUTE_FORCE
    assert r.good_option_used == {}


def test_gift_horse_path_is_taken_and_logged(mctx):
    g = parse("{a,b|a}")
    assert local_class(mctx, g) == "passable"
    r = realize(mctx, g)
    assert r.verified is VerifiedHow.BRUTE_FORCE
    # the single right option [a] is good; the left side needed the horse
    assert r.good_option_used == {g.uid: ("R", 0)}
    assert r.carrier_size == 11 <= r.bound


def test_realize_rejects_non_passable(ctx):
    with pytest.raises(NotPassable):
        realize(ctx, parse("{bot|top}"))
    with pytest.raises(NotPassable):
        realize(ctx, parse("{bot|a}"))


def test_realize_rejects_a_negative_verify_cap(ctx):
    # a negative cap would label the board compositional with no check run
    with pytest.raises(ValueError, match="verify_cap"):
        realize(ctx, parse("{a,b|bot}"), verify_cap=-1)


# -- verification plumbing -----------------------------------------------------

def test_verify_negative_control(ctx):
    assert verify(ctx, sc_const("a", P4), atomic("a", P4))
    assert not verify(ctx, sc_const("b", P4), atomic("a", P4))


def test_verification_modes(mctx):
    g = parse("{a,{top|b}|{a|bot},b}")
    assert realize(mctx, g, verify_value=False).verified is VerifiedHow.SKIPPED
    low_cap = realize(mctx, g, verify_cap=5)
    assert low_cap.verified is VerifiedHow.COMPOSITIONAL
    assert low_cap.carrier_size > 5


def test_realization_is_memoized_per_context(ctx):
    g = parse("{a,b|bot}")
    r1 = realize(ctx, g)
    r2 = realize(ctx, g)
    assert r1.board is r2.board


def test_report_json(mctx):
    r = realize(mctx, parse("{a,b|a}"))
    obj = r.to_json()
    assert obj["carrier_size"] == len(obj["cells"]) == 11
    assert obj["verified"] == "brute_force"
    assert obj["input"] == "{a,b|a}"
    assert list(obj["good_options"].values()) == [["R", 0]]


# -- random round trips --------------------------------------------------------

def test_random_round_trips(mctx):
    rng = random.Random(5001)
    brute = 0
    for _ in range(30):
        G = random_passable_game(mctx, rng, P4, max_depth=2, max_branch=2)
        r = realize(mctx, G, verify_cap=12)
        assert r.carrier_size <= r.bound
        if r.verified is VerifiedHow.BRUTE_FORCE:
            brute += 1
            # realize() already checked equivalence; pin the value class too
            assert is_monotone(mctx, eval_board(mctx, r.board,
                                               max_cells=12))
    assert brute >= 15


def _payoff_nodes(expr):
    stack = [expr]
    while stack:
        e = stack.pop()
        yield e
        if isinstance(e, Dual):
            stack.append(e.child)
        elif isinstance(e, Compose):
            stack.extend(c for c, _ in e.children)


def test_realized_boards_hold_no_dual(mctx):
    rng = random.Random(5002)
    for _ in range(40):
        G = random_passable_game(mctx, rng, P4, max_depth=2, max_branch=3)
        board = realize(mctx, G, verify_value=False).board
        assert not any(isinstance(e, Dual)
                       for e in _payoff_nodes(board.payoff))


@pytest.mark.parametrize("poset, seed", [(CHAIN4, 7), (BOWTIE6, 3)],
                         ids=["chain4", "bowtie6"])
def test_random_round_trips_without_a_duality_map(poset, seed):
    assert poset.dual_atom_map() is None
    ctx = SolverContext()
    rng = random.Random(seed)
    brute = 0
    for _ in range(40):
        G = random_passable_game(ctx, rng, poset, max_depth=2, max_branch=2)
        r = realize(ctx, G, verify_cap=12)
        assert r.carrier_size <= r.bound
        if r.verified is VerifiedHow.BRUTE_FORCE:
            brute += 1
    assert brute >= 20


def test_round_trip_equivalence_spot_check(mctx):
    # explicit equiv call, independent of realize's internal verification
    for text in ("{a,b|a}", "{top|a,b}", "{{top|a},b|bot}"):
        g = parse(text)
        r = realize(mctx, g, verify_value=False)
        if r.carrier_size <= 13:
            assert equiv(mctx, eval_board(mctx, r.board, max_cells=13), g)


def test_census_values_round_trip_at_four_cells():
    # every value of the 4-cell census: the size bound holds on all 50,
    # the 46 boards of at most 14 cells are brute-forced, and the four
    # above the cap rest on the construction
    ctx = SolverContext()
    cat = build_catalog(ctx, 4)
    above = {}
    for v in cat.values():
        r = realize(ctx, v, verify_cap=14)
        assert r.carrier_size <= r.bound
        if r.carrier_size <= 14:
            assert r.verified is VerifiedHow.BRUTE_FORCE
        else:
            assert r.verified is VerifiedHow.COMPOSITIONAL
            above[to_notation(v)] = r.carrier_size
    assert len(cat) == 50
    assert above == {
        "{top|{{{top|a},{top|b}|{a|bot},{b|bot}}|bot}}": 15,
        "{{top|{{top|a},{top|b}|{a|bot},{b|bot}}}|bot}": 15,
        "{{top|a},{top|b}|{a,b|bot}}": 16,
        "{{top|a,b}|{a|bot},{b|bot}}": 16,
    }
