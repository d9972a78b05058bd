"""Argument checks across the package, each pinned to its exception."""

import pytest

from scgames.algebra import (NotAGiftHorse, add_gift_horse,
                             falsify_gadget_game, gadget_apply, map_sum)
from scgames.catalog import ValueIndex
from scgames.games import (NoDualityMap, NotAnOption, PosetMismatch,
                           SolverContext, atomic, is_good_right)
from scgames.poset import (MonotoneFn, NoTopOrBottom, identity_fn, make_poset,
                           product)
from scgames.setcolor import (Compose, Const, Dual, SetColoringGame,
                              Threshold, eval_position, normalize_position,
                              payoff_eval, payoff_to_json, sc_one_sided_choice,
                              sc_one_sided_choice_dual, sc_shared_choice)

from conftest import BOOL, BOWTIE6, P3, P4, parse


def _board(poset, n):
    return SetColoringGame(tuple(f"c{i}" for i in range(n)),
                           Threshold(poset, n, {"a": ("1" * n,)}))


def _index_across_posets():
    index = ValueIndex(SolverContext())
    index.add(atomic("top", P4))
    index.add(atomic("top", P3))


CASES = {
    "pair-on-a-non-product": (
        lambda: P4.pair("a", "b"), ValueError, "not a product poset"),
    "dual-of-a-product-with-a-factor-without-one": (
        lambda: Dual(Const(product(BOWTIE6, BOOL), "(top,top)")),
        NoDualityMap, "poset has no order-reversing self-map"),
    "empty-poset": (
        lambda: make_poset([], []), NoTopOrBottom, "empty poset"),
    "function-table-outside-the-domain": (
        lambda: MonotoneFn(BOOL, BOOL, {"bot": "bot", "top": "top",
                                        "x": "top"}),
        ValueError, "table mentions elements outside the domain"),
    "good-right-of-a-non-option": (
        lambda: is_good_right(SolverContext(), parse("{a|b}"),
                              parse("a")),
        NotAnOption, "not a right option of the game"),
    "map-sum-of-no-parts": (
        lambda: map_sum(SolverContext(), identity_fn(P4), []), ValueError,
        "map_sum needs at least one part"),
    "gadget-apply-to-no-games": (
        lambda: gadget_apply(SolverContext(), atomic("a", P3)), ValueError,
        "a gadget acts on one or two games, not 0"),
    "gadget-apply-to-three-games": (
        lambda: gadget_apply(SolverContext(), atomic("a", P4),
                             *[atomic("a", P4)] * 3),
        ValueError, "a gadget acts on one or two games, not 3"),
    "right-gift-horse-failing-tri": (
        lambda: add_gift_horse(SolverContext(), parse("{a|b}"), parse("a"),
                               "right"),
        NotAGiftHorse, "tri(G, H) fails"),
    "falsify-over-bool": (
        lambda: falsify_gadget_game(SolverContext(), atomic("top", BOOL)),
        PosetMismatch, "gadget candidates live over P3 or P4"),
    "value-index-across-posets": (
        _index_across_posets, PosetMismatch,
        "index values live over different posets"),
    # the blank is skipped, so the length matches and the dot is what fails
    "position-whitespace-is-skipped": (
        lambda: payoff_eval(_board(P4, 2), "1 ."), ValueError,
        "position still has empty cells"),
    "bad-position-character": (
        lambda: normalize_position("1?"), ValueError,
        "bad position character '?'"),
    "compose-without-children": (
        lambda: Compose(identity_fn(P4), ()), ValueError,
        "composition needs at least one child"),
    "compose-domain-not-the-children-product": (
        lambda: Compose(identity_fn(P4), ((Const(P3, "a"), ()),)),
        PosetMismatch, "function domain is not the product of the children"),
    "eval-position-wrong-length": (
        lambda: eval_position(SolverContext(), _board(P4, 2), "..."),
        ValueError, "position length differs from carrier size"),
    "shared-choice-across-posets": (
        lambda: sc_shared_choice(_board(P4, 1), _board(P3, 1)),
        PosetMismatch, "boards live over different posets"),
    "one-sided-choice-of-nothing": (
        lambda: sc_one_sided_choice([]), ValueError,
        "need at least one board"),
    "one-sided-choice-dual-of-nothing": (
        lambda: sc_one_sided_choice_dual([]), ValueError,
        "need at least one board"),
    "payoff-to-json-of-a-non-payoff": (
        lambda: payoff_to_json(5), TypeError, "not a payoff expression: 5"),
}


@pytest.mark.parametrize("call,exc,message", CASES.values(), ids=list(CASES))
def test_rejection(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc and str(info.value) == message
