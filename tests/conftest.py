import pytest
from hypothesis import strategies as st

from scgames.games import SolverContext, atomic, composite
from scgames.notation import parse_game
from scgames.poset import builtin, make_poset

P4 = builtin("P4")
P3 = builtin("P3")
BOOL = builtin("Bool")
CHAIN4 = make_poset(["bot", "x", "y", "top"],
                    [("bot", "x"), ("x", "y"), ("y", "top")])
# bot < x, y < z, w < top: x and y have no join, and no self-map reverses it
BOWTIE6 = make_poset(["bot", "x", "y", "z", "w", "top"],
                     [("bot", "x"), ("bot", "y"), ("x", "z"), ("x", "w"),
                      ("y", "z"), ("y", "w"), ("z", "top"), ("w", "top")])


@pytest.fixture
def ctx():
    return SolverContext()


@pytest.fixture
def p4():
    return P4


def parse(text, poset=P4):
    return parse_game(text, poset)


def games_over(poset, max_branch=2, max_leaves=8):
    """Hypothesis strategy for random games over one poset."""
    leaf = st.sampled_from(poset.elements).map(lambda a: atomic(a, poset))
    return st.recursive(
        leaf,
        lambda inner: st.builds(
            lambda ls, rs: composite(ls, rs, poset),
            st.lists(inner, min_size=1, max_size=max_branch),
            st.lists(inner, min_size=1, max_size=max_branch)),
        max_leaves=max_leaves)
