import random

import pytest

from scgames import poset as poset_mod
from scgames.poset import (
    MonotoneFn,
    NoTopOrBottom,
    NotAPartialOrder,
    SupremumUndefined,
    UnknownPoset,
    antichain_poset,
    builtin,
    builtin_name,
    identity_fn,
    make_poset,
    poset_from_json,
    poset_to_json,
    product,
    projector_f,
    projector_g,
)

from conftest import BOWTIE6, CHAIN4


def test_builtin_bool():
    b = builtin("Bool")
    assert b.elements == ("bot", "top")
    assert b.le("bot", "top") and not b.le("top", "bot")


def test_builtin_p3_chain():
    p = builtin("P3")
    assert p.le("bot", "a") and p.le("a", "top") and p.le("bot", "top")
    assert not p.le("top", "a")


def test_builtin_p4_diamond():
    p = builtin("P4")
    assert p.le("bot", "a") and p.le("a", "top")
    assert p.le("bot", "b") and p.le("b", "top")
    assert not p.le("a", "b") and not p.le("b", "a")
    assert p.top == "top" and p.bot == "bot"


def test_builtin_unknown():
    with pytest.raises(UnknownPoset):
        builtin("P5")


def test_builtin_is_cached_by_name(monkeypatch):
    # a builtin name is a dict lookup, with no closure recomputed
    p4 = builtin("P4")
    monkeypatch.setattr(poset_mod, "make_poset", None)
    assert builtin("P4") is p4 and builtin("Bool").elements == ("bot", "top")
    with pytest.raises(UnknownPoset):
        builtin("P5")


def test_interning_returns_same_object():
    assert builtin("P4") is builtin("P4")
    assert make_poset(["bot", "top"], [("bot", "top")]) is builtin("Bool")


def test_make_poset_transitive_closure():
    p = make_poset(["w", "x", "y", "z"], [("w", "x"), ("x", "y"), ("y", "z")])
    assert p.le("w", "z")
    assert p.top == "z" and p.bot == "w"


def _reachable(elements, pairs):
    """Naive reflexive-transitive closure: a search from every element."""
    succ = {e: [y for x, y in pairs if x == e] for e in elements}
    closure = set()
    for e in elements:
        seen, todo = {e}, [e]
        while todo:
            for y in succ[todo.pop()]:
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        closure |= {(e, y) for y in seen}
    return closure


def test_make_poset_closure_matches_reachability():
    # random acyclic relations between bot and top, listed in shuffled
    # order over elements in shuffled order, so no row is closed in one pass
    rng = random.Random(13)
    for _ in range(60):
        inner = [f"e{i}" for i in range(rng.randint(0, 7))]
        rank = rng.sample(inner, len(inner))    # a random linear extension
        pairs = [("bot", x) for x in inner] + [(x, "top") for x in inner]
        pairs += [(x, y) for i, x in enumerate(rank) for y in rank[i + 1:]
                  if rng.random() < 0.3]
        pairs.append(("bot", "top"))
        rng.shuffle(pairs)
        elements = rng.sample(["bot", "top", *inner], len(inner) + 2)
        p = make_poset(elements, pairs)
        closure = _reachable(elements, pairs)
        assert {(x, y) for x in elements for y in elements
                if p.le(x, y)} == closure
        assert make_poset(elements, sorted(closure)) is p


def test_make_poset_rejects_cycle():
    with pytest.raises(NotAPartialOrder):
        make_poset(["x", "y"], [("x", "y"), ("y", "x")])


def test_make_poset_requires_extrema():
    with pytest.raises(NoTopOrBottom):
        make_poset(["a", "b"], [])


def test_make_poset_rejects_duplicates():
    with pytest.raises(ValueError):
        make_poset(["a", "a", "b"], [("a", "b")])


def test_reflexive_antisymmetric_transitive():
    p = builtin("P4")
    els = p.elements
    for x in els:
        assert p.le(x, x)
        for y in els:
            if p.le(x, y) and p.le(y, x):
                assert x == y
            for z in els:
                if p.le(x, y) and p.le(y, z):
                    assert p.le(x, z)


def test_extrema_bound_everything():
    for name in ("Bool", "P3", "P4"):
        p = builtin(name)
        for x in p.elements:
            assert p.le(p.bot, x) and p.le(x, p.top)


def test_product_of_bools_is_diamond():
    d = product(builtin("Bool"), builtin("Bool"))
    assert len(d) == 4
    a, b = d.pair("top", "bot"), d.pair("bot", "top")
    assert not d.le(a, b) and not d.le(b, a)
    assert d.le(d.bot, a) and d.le(a, d.top)


def test_product_cardinality_and_order():
    pr = product(builtin("P3"), builtin("P4"))
    assert len(pr) == 12
    assert pr.le(pr.pair("bot", "a"), pr.pair("a", "a"))
    assert not pr.le(pr.pair("a", "bot"), pr.pair("bot", "top"))
    assert pr.split(pr.pair("a", "b")) == ("a", "b")
    assert pr is product(builtin("P3"), builtin("P4"))


def test_product_memo_keeps_factor_order_and_names():
    a, b = antichain_poset(3), builtin("P3")
    pr = product(a, b)
    pairs = {(x, y): pr.pair(x, y) for x in a.elements for y in b.elements}
    splits = {name: pr.split(name) for name in pr.elements}
    assert product(a, b) is pr
    assert product(b, a) is not pr
    assert product(b, a) is product(b, a)
    assert pr.components == (a, b)
    assert product(b, a).components == (b, a)
    assert {(x, y): pr.pair(x, y)
            for x in a.elements for y in b.elements} == pairs
    assert {name: pr.split(name) for name in pr.elements} == splits


def test_product_unit_law():
    one = make_poset(["e"], [])
    p = builtin("P4")
    pr = product(p, one)
    assert len(pr) == len(p)
    for x in p.elements:
        for y in p.elements:
            assert pr.le(pr.pair(x, "e"), pr.pair(y, "e")) == p.le(x, y)


def test_product_associative_up_to_repairing():
    a, b, c = builtin("Bool"), builtin("P3"), builtin("P4")
    left = product(product(a, b), c)
    right = product(a, product(b, c))
    ab = product(a, b)
    bc = product(b, c)

    def to_right(name):
        xy, z = left.split(name)
        x, y = ab.split(xy)
        return right.pair(x, bc.pair(y, z))

    for n1 in left.elements:
        for n2 in left.elements:
            assert left.le(n1, n2) == right.le(to_right(n1), to_right(n2))


def test_join_examples():
    p = builtin("P4")
    assert p.join2("a", "b") == "top"
    assert p.join2("bot", "a") == "a"
    assert p.is_lattice()


def test_join_undefined():
    # x and y share two minimal upper bounds, so no supremum
    p = make_poset(
        ["bot", "x", "y", "z", "w", "top"],
        [("bot", "x"), ("bot", "y"), ("x", "z"), ("x", "w"),
         ("y", "z"), ("y", "w"), ("z", "top"), ("w", "top")])
    ubs = [u for u in p.elements if p.le("x", u) and p.le("y", u)]
    assert [u for u in ubs if not any(p.le(v, u) and v != u for v in ubs)] \
        == ["z", "w"]
    with pytest.raises(SupremumUndefined):
        p.join2("x", "y")
    assert not p.is_lattice()


BRUTE_FORCE_POSETS = {
    "Bool": builtin("Bool"), "P3": builtin("P3"), "P4": builtin("P4"),
    "P4xP4": product(builtin("P4"), builtin("P4")),
    "CHAIN4": CHAIN4, "BOWTIE6": BOWTIE6, "antichain3": antichain_poset(3),
    "BOWTIE6xBool": product(BOWTIE6, builtin("Bool")),
}


@pytest.mark.parametrize("name", list(BRUTE_FORCE_POSETS))
def test_joins_pair_and_split_match_brute_force(name):
    p = BRUTE_FORCE_POSETS[name]
    every_pair_joins = True
    for x in p.elements:
        for y in p.elements:
            ubs = [z for z in p.elements if p.le(x, z) and p.le(y, z)]
            least = [z for z in ubs if all(p.le(z, u) for u in ubs)]
            if least:
                assert p.join2(x, y) == least[0]
            else:
                every_pair_joins = False
                with pytest.raises(SupremumUndefined):
                    p.join2(x, y)
    assert p.is_lattice() == every_pair_joins
    if p.components is None:
        with pytest.raises(ValueError, match="not a product"):
            p.split(p.top)
        return
    a, b = p.components
    assert [p.pair(*p.split(e)) for e in p.elements] == list(p.elements)
    for x in a.elements:
        for y in b.elements:
            assert p.split(p.pair(x, y)) == (x, y)
            for u in a.elements:
                for v in b.elements:
                    assert p.le(p.pair(x, y), p.pair(u, v)) == (
                        a.le(x, u) and b.le(y, v))


def test_antichain_poset():
    p = antichain_poset(8)
    assert len(p) == 10
    assert not p.le("a1", "a2")
    assert p.le("bot", "a5") and p.le("a5", "top")


def test_json_round_trip():
    p4 = builtin("P4")
    assert poset_to_json(p4) == {"builtin": "P4"}
    assert poset_from_json({"builtin": "P4"}) is p4
    pr = product(builtin("P3"), p4)
    assert poset_from_json(poset_to_json(pr)) is pr
    ac = antichain_poset(3)
    assert poset_from_json(poset_to_json(ac)) is ac
    assert poset_to_json(pr) == {"product": [{"builtin": "P3"},
                                             {"builtin": "P4"}]}
    with pytest.raises(ValueError):
        poset_from_json({"le": []})


def test_product_attaches_factors_to_a_poset_read_as_elements():
    # the elements/le spelling of a product interns a poset without
    # factors, whose dual map search gives up; product() then attaches the
    # factors and drops that stale answer; the atoms are named apart from
    # antichain_poset's, so no other test has built this product first
    a = make_poset(["bot", "dj1", "dj2", "top"],
                   [("bot", "dj1"), ("bot", "dj2"), ("dj1", "top"),
                    ("dj2", "top")])
    b = builtin("P3")
    names = {(x, y): f"({x},{y})" for x in a.elements for y in b.elements}
    spelled = make_poset(names.values(), [
        (names[x, y], names[u, v]) for x, y in names for u, v in names
        if a.le(x, u) and b.le(y, v)])
    assert spelled.components is None and spelled.dual_atom_map() is None
    pr = product(a, b)
    assert pr is spelled and pr.components == (a, b)
    d = pr.dual_atom_map()
    assert d is not None and d[pr.pair("dj1", "a")] == pr.pair("dj1", "a")
    assert all(pr.le(x, y) == pr.le(d[y], d[x])
               for x in pr.elements for y in pr.elements)


def test_builtin_name():
    assert builtin_name(builtin("P3")) == "P3"
    assert builtin_name(antichain_poset(2)) is None


def test_reprs():
    assert repr(builtin("P4")) == "AtomPoset(P4)"
    assert repr(antichain_poset(2)) == "AtomPoset(4 elements)"
    assert repr(BOWTIE6) == "AtomPoset(6 elements)"
    assert repr(projector_f(builtin("P4"))) == "MonotoneFn(12 -> 4)"


def test_monotone_fn_validation():
    p3, p4 = builtin("P3"), builtin("P4")
    with pytest.raises(ValueError):
        MonotoneFn(p3, p4, {"bot": "top", "a": "a", "top": "bot"})
    with pytest.raises(ValueError):
        MonotoneFn(p3, p4, {"bot": "bot", "a": "a"})
    with pytest.raises(ValueError):
        MonotoneFn(p3, p4, {"bot": "bot", "a": "c", "top": "top"})
    ok = MonotoneFn(p3, p4, {"bot": "bot", "a": "a", "top": "top"})
    assert ok("a") == "a"


def test_projector_f_table():
    p4 = builtin("P4")
    f = projector_f(p4)
    dom = f.domain
    for y in p4.elements:
        assert f(dom.pair("top", y)) == "top"
        assert f(dom.pair("bot", y)) == "bot"
        assert f(dom.pair("a", y)) == y


def test_projector_g_table():
    p4 = builtin("P4")
    g = projector_g(p4)
    inner = g.domain.components[0]
    for y in p4.elements:
        for z in p4.elements:
            assert g(g.domain.pair(inner.pair("top", y), z)) == "top"
            assert g(g.domain.pair(inner.pair("bot", y), z)) == "bot"
            assert g(g.domain.pair(inner.pair("a", y), z)) == y
            assert g(g.domain.pair(inner.pair("b", y), z)) == z


def test_projectors_cached():
    p4 = builtin("P4")
    assert projector_f(p4) is projector_f(p4)
    assert projector_g(p4) is projector_g(p4)
    assert identity_fn(p4)("b") == "b"


def test_dual_atom_map_builtin_and_product():
    p4 = builtin("P4")
    assert p4.dual_atom_map() == {"bot": "top", "top": "bot",
                                  "a": "a", "b": "b"}
    pr = product(p4, builtin("P3"))
    d = pr.dual_atom_map()
    assert d[pr.pair("bot", "a")] == pr.pair("top", "a")
    for x in pr.elements:
        for y in pr.elements:
            assert pr.le(x, y) == pr.le(d[y], d[x])


def test_dual_atom_map_heuristic_gives_up_on_chain4():
    # the 4-chain is self-dual only under a nontrivial relabeling,
    # which the fixed-point search does not attempt
    c4 = make_poset(["bot", "u", "v", "top"],
                    [("bot", "u"), ("u", "v"), ("v", "top")])
    assert c4.dual_atom_map() is None
