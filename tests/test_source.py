"""Checks on the program's source text."""

import ast
from pathlib import Path

import pytest

import scgames
from scgames.setcolor import Compose, Const, Dual, Threshold

SRC = Path(scgames.__file__).parent
TESTS = Path(__file__).parent
# the package's modules by name, the test files as tests/<name>
SOURCES = {p.name: p for p in sorted(SRC.glob("*.py"))
           if p.name != "__init__.py"}
SOURCES.update({f"tests/{p.name}": p for p in sorted(TESTS.glob("*.py"))})


@pytest.mark.parametrize("source", SOURCES.values(), ids=list(SOURCES))
def test_no_unused_imports(source):
    tree = ast.parse(source.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert {n: line for n, line in imported.items() if n not in used} == {}


def test_games_walks_recurse_only_where_pinned():
    # walks over a game's positions go through games.fold, on its own
    # stack; is_passable and is_monotone recurse on purpose (their
    # docstrings say why).  _leq is the order kernel: it asks each tri
    # clause's two disjuncts through itself, and only an explicit stack
    # of pending pairs would take that recursion out.  It calls no other
    # function of the module, so leq and tri are not mutually recursive
    tree = ast.parse((SRC / "games.py").read_text())

    def called(fn):
        return {n.func.id for n in ast.walk(fn)
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}

    fns = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
    recursive = {fn.name for fn in fns if fn.name in called(fn)}
    assert recursive == {"_leq", "is_passable", "is_monotone"}, (
        "walk a game's positions with games.fold, not by recursion")
    kernel, = [fn for fn in fns if fn.name == "_leq"]
    assert called(kernel) & {fn.name for fn in fns} == {"_leq"}


def test_games_are_built_only_where_their_masks_are_shared():
    # games.atomic and games._intern pass each new node's masks through
    # the shared table; a Game built anywhere else would skip it
    calls = []
    for name, source in SOURCES.items():
        tree = ast.parse(source.read_text())
        owner = {}      # node -> innermost enclosing function
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                owner.update((n, fn.name) for n in ast.walk(fn))
        calls += [(name, owner.get(n)) for n in ast.walk(tree)
                  if isinstance(n, ast.Call)
                  and "Game" in (getattr(n.func, "id", None),
                                 getattr(n.func, "attr", None))]
    assert sorted(calls) == [("games.py", "_intern"), ("games.py", "atomic")]


@pytest.mark.parametrize("cls", [Const, Threshold, Compose, Dual],
                         ids=lambda cls: cls.__name__)
def test_payoff_classes_bind_value_at_in_their_own_dict(cls):
    assert "value_at" in cls.__dict__, (
        f"{cls.__name__} must bind value_at in its own class dict: the "
        "perfbench trace hook (perfbench/spans.py install, the "
        "setcolor.payoff span) wraps cls.__dict__['value_at']")
