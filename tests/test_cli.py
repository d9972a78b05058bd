"""Exit codes and output of every CLI verb, run in-process."""

import contextlib
import copy
import io
import json
import os
import resource
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scgames
from scgames import games
from scgames.algebra import GadgetKind, sum_games
from scgames.cli import main
from scgames.games import SolverContext, equiv
from scgames.notation import MAX_NESTING
from scgames.poset import builtin, identity_fn, product, projector_f
from scgames.realize import realize
from scgames.setcolor import (Compose, Dual, SetColoringGame, Threshold, board_to_json,
                              eval_board, load_board, save_board, sc_base,
                              sc_const, sc_dual, sc_force_left, sc_map, sc_sum)

from conftest import P4, parse

HEX = str(resources.files("scgames") / "data" / "hex2x2.scg")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_value_of_notation(capsys):
    code, out, _ = run(capsys, "value", "{top|top}")
    assert code == 0 and out.strip() == "top"


def test_value_unicode(capsys):
    code, out, _ = run(capsys, "value", "{top|bot}", "--unicode")
    assert code == 0 and out.strip() == "{⊤|⊥}"


def test_value_rejects_a_board_file(capsys):
    # value reads notation only; a board is eval's
    code, out, err = run(capsys, "value", HEX)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_value_of_long_notation(capsys):
    # {G|G} is equivalent to G, so seven nestings of a stay a; the text is
    # longer than any file name the OS accepts, and is never probed as one
    text = "a"
    for _ in range(7):
        text = "{" + text + "|" + text + "}"
    assert len(text) > 300
    code, out, _ = run(capsys, "value", text)
    assert code == 0 and out.strip() == "a"


def test_eval_shipped_hex(capsys):
    code, out, _ = run(capsys, "eval", HEX)
    assert code == 0 and out.strip() == "{top|bot}"


# memo_sizes() of a context that filled no table
NO_MEMO = {"images": 0, "leq": 0, "realize": 0, "realize_good": 0,
           "simp": 0, "tri": 0}


def test_stats_flag_prints_counters_on_stderr(capsys):
    # a fresh interpreter, since `interned` counts against the process-wide
    # table; the line is the one README prints, byte for byte
    src = str(Path(scgames.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "scgames", "--stats", "eval",
                           HEX], capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stdout.strip() == "{top|bot}"
    assert json.loads(proc.stderr) == {
        "eval_dead": 10, "eval_flat_cells": 4, "eval_parts": 1,
        "eval_residuals": 9, "interned": 8,
        "memo": dict(NO_MEMO, leq=6, simp=8)}
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert proc.stderr.strip() + "   (on stderr)" in readme.splitlines()
    # a false predicate keeps its exit code, and the line is still printed;
    # two atoms are compared through their masks, not the pair memos
    code, out, err = run(capsys, "--stats", "leq", "top", "a")
    assert (code, out.strip()) == (1, "false")
    assert json.loads(err)["memo"] == NO_MEMO
    # a composite pair the masks leave open is memoized, and its atomic
    # options (a on the left, b on the right) are decided by the masks,
    # adding no entry
    code, out, err = run(capsys, "--stats", "leq", "{a|bot}", "{top|b}")
    memo = json.loads(err)["memo"]
    assert code == 0 and memo == dict(NO_MEMO, leq=1)
    # realize fills its own tables: a board for the root, for a and b, and
    # for the gift horse {top|a} made from the good right option a, which
    # the gift-horse log records
    code, out, err = run(capsys, "--stats", "realize", "{a,b|a}")
    memo = json.loads(err)["memo"]
    assert code == 0 and (memo["realize"], memo["realize_good"]) == (4, 1)
    # interned counts the games the verb added to the process-wide table:
    # a nine-level game no other test builds adds at least its eight outer
    # composites, and the same verb again adds none
    text = "a"
    for _ in range(9):
        text = "{" + text + ",b|a}"
    for fresh in (True, False):
        before = len(games._GAMES)
        code, out, err = run(capsys, "--stats", "value", text)
        interned = json.loads(err)["interned"]
        assert code == 0 and interned == len(games._GAMES) - before
        assert interned >= 8 if fresh else interned == 0


def test_stats_of_catalog_count_boards_and_option_set_pairs():
    # a fresh interpreter, since the simplified forms, and so the
    # distinct values of a layer, follow the process-wide interning
    # order: 445 boards of 1 to 3 cells and the 1,990 four-cell orbit
    # representatives are valued from their restrictions, and only their
    # 717 distinct pairs of option sets reach simplify.  Its checks store
    # 1,506 leq pairs and, since the order kernel asks tri only through
    # leq, no tri pair (the README quotes these figures)
    src = str(Path(scgames.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "scgames", "--stats",
                           "catalog", "-n", "4"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["entries"]) == 50
    stats = json.loads(proc.stderr)
    assert (stats["layer_boards"], stats["layer_pairs"]) == (2435, 717)
    assert (stats["memo"]["leq"], stats["memo"]["tri"]) == (1506, 0)


def test_stats_of_a_composed_board_count_its_images(capsys, tmp_path):
    # the realized coupling board is a composition of disjoint children,
    # valued as the image of their sum, and eval reports those images
    board = tmp_path / "coupling.scg"
    assert run(capsys, "realize", "{a,{top|b}|{a|bot},b}", "-o",
               str(board))[0] == 0
    code, out, err = run(capsys, "--stats", "eval", str(board))
    ctx = SolverContext()
    assert code == 0 and equiv(ctx, parse(out.strip()),
                               parse("{a,{top|b}|{a|bot},b}"))
    assert json.loads(err)["memo"]["images"] > 0


def test_leq_exit_codes(capsys):
    code, out, _ = run(capsys, "leq", "a", "top")
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run(capsys, "leq", "top", "a")
    assert (code, out.strip()) == (1, "false")


def test_equiv(capsys):
    code, out, _ = run(capsys, "equiv", "{top|top}", "top")
    assert (code, out.strip()) == (0, "true")


def test_check_predicates(capsys):
    code, out, _ = run(capsys, "check", "--passable", "{top|a}")
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run(capsys, "check", "--monotone", "{a,b|a}")
    assert (code, out.strip()) == (1, "false")


def test_check_flags_are_exclusive(capsys):
    with pytest.raises(SystemExit) as e:
        main(["check", "--passable", "--monotone", "a"])
    assert e.value.code == 2
    capsys.readouterr()


def test_realize_with_verify(capsys):
    code, out, _ = run(capsys, "realize", "{a,b|bot}", "--verify")
    assert code == 0
    report = json.loads(out)
    assert report["input"] == "{a,b|bot}"
    assert len(report["cells"]) == report["carrier_size"] == 3
    assert report["verified"] == "brute_force"
    assert report["carrier_size"] <= report["bound"]


def test_realize_over_a_chain_poset(capsys, tmp_path):
    # the chain bot<x<y<top has no order-reversing self-map
    p = tmp_path / "chain4.json"
    p.write_text(json.dumps({"elements": ["bot", "x", "y", "top"],
                             "le": [["bot", "x"], ["x", "y"], ["y", "top"]]}))
    code, out, _ = run(capsys, "realize", "--verify", "--poset", str(p),
                       "{top|x,{y|bot}}")
    assert code == 0
    assert json.loads(out)["verified"] == "brute_force"


def test_realize_writes_board(capsys, tmp_path):
    out_file = tmp_path / "choice.scg"
    code, out, err = run(capsys, "realize", "{a,b|bot}", "--verify",
                         "-o", str(out_file))
    assert code == 0 and str(out_file) in err
    S = load_board(out_file)
    ctx = SolverContext()
    assert equiv(ctx, eval_board(ctx, S), parse("{a,b|bot}"))


def test_realize_rejects_non_passable(capsys):
    code, _, err = run(capsys, "realize", "{bot|top}")
    assert code == 1 and "passable" in err


def test_parse_error_exit(capsys):
    code, _, err = run(capsys, "value", "{|a}")
    assert code == 2 and "error:" in err


def test_deep_notation_exit(capsys):
    # a fresh interpreter, so a crash would show as a traceback on stderr
    # and exit 1 instead of raising inside the test
    deep = "{" * 1200 + "top" + "|bot}" * 1200
    src = str(Path(scgames.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "scgames.cli", "value", deep],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and "nesting too deep" in proc.stderr

    at_cap = "{" * MAX_NESTING + "top" + "|bot}" * MAX_NESTING
    code, out, _ = run(capsys, "value", at_cap)
    assert code == 0 and out.strip() == "bot"


def test_deep_board_file_exit(tmp_path):
    # json and the payload parser recurse per level; past the recursion
    # limit that is unusable input, not a crash
    payoff = '{"dual": ' * 3000 + '{"const": "top"}' + "}" * 3000
    board = tmp_path / "deep.scg"
    board.write_text('{"poset": {"builtin": "P4"}, "cells": ["c0"], '
                     f'"payoff": {payoff}}}')
    src = str(Path(scgames.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "scgames.cli", "eval",
                           str(board)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error:")


def test_unknown_atom_exit(capsys):
    code, _, err = run(capsys, "value", "z")
    assert code == 2 and "z" in err


def test_unknown_poset_exit(capsys):
    code, _, err = run(capsys, "value", "a", "--poset", "Q7")
    assert code == 2 and "Q7" in err


def test_poset_json_file(capsys, tmp_path):
    p = tmp_path / "p3.json"
    p.write_text('{"builtin": "P3"}')
    code, out, _ = run(capsys, "value", "{a|a}", "--poset", str(p))
    assert code == 0 and out.strip() == "a"


def test_missing_board_file(capsys):
    code, _, err = run(capsys, "eval", "nosuch.scg")
    assert code == 2 and "nosuch" in err


def test_eval_rejects_bare_string_patterns(capsys, tmp_path):
    board = {"poset": {"builtin": "P4"}, "cells": ["c"],
             "payoff": {"threshold": {"a": "1"}}}
    p = tmp_path / "bare.scg"
    p.write_text(json.dumps(board))
    code, out, err = run(capsys, "eval", str(p))
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "list of strings" in err


def test_verify_appendix_default(capsys):
    code, out, _ = run(capsys, "verify-appendix")
    assert code == 0
    assert "45/45" in out
    assert "FAIL" not in out


def test_verify_appendix_flags_bad_table(capsys, tmp_path):
    bad = {"poset": "P4", "sections": [
        {"cells": 0, "closure_forms": False,
         "entries": [{"value": "top", "a": [], "b": []}]}]}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "verify-appendix", str(p))
    assert code == 1 and "FAIL" in out and "0/1" in out


def test_verify_appendix_malformed_table(capsys, tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "verify-appendix", str(p))
    assert code == 2 and "error:" in err


def test_catalog_json(capsys):
    code, out, _ = run(capsys, "catalog", "-n", "1")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["entries"]) == 9
    assert obj["poset"] == {"builtin": "P4"}


def test_catalog_to_file(capsys, tmp_path):
    out_file = tmp_path / "cat.json"
    code, out, _ = run(capsys, "catalog", "-n", "0", "-o", str(out_file))
    assert code == 0 and "4 values" in out
    assert len(json.loads(out_file.read_text())["entries"]) == 4


def test_catalog_cap(capsys):
    code, _, err = run(capsys, "catalog", "-n", "9")
    assert code == 2 and "cap" in err


def test_eval_past_the_old_cap_and_a_part_above_it(capsys, tmp_path):
    # a 20-cell sum of two 10-cell boards evaluates at its parts; a
    # 17-cell part beside a forced board is refused with one error line
    ctx = SolverContext()
    S, T = (realize(ctx, parse(t), verify_value=False).board
            for t in ("{{top|b}|b,top}", "{b|b,{bot|bot}}"))
    path = tmp_path / "sum.scg"
    save_board(sc_sum(S, T), path)
    code, out, err = run(capsys, "eval", str(path))
    assert code == 0 and err == ""
    assert equiv(ctx, parse(out.strip(), product(P4, P4)),
                 sum_games(ctx, eval_board(ctx, S), eval_board(ctx, T)))
    big = SetColoringGame(tuple(f"c{i}" for i in range(17)),
                          Threshold(P4, 17, {"a": ("1" * 17,)}))
    save_board(sc_sum(sc_force_left(sc_const("a", P4)), big), path)
    code, out, err = run(capsys, "eval", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: 17 empty cells exceeds the cap of 16 in "
                          "the part on r.c0 ")
    assert len(err.strip().splitlines()) == 1


def test_eval_of_an_interleaved_board_past_the_old_cap(capsys, tmp_path):
    # the same two 10-cell boards on the even and the odd cells of one
    # carrier: their cells interleave, but no cell is shared or unread, so
    # the board is still valued at its parts
    ctx = SolverContext()
    S, T = (realize(ctx, parse(t), verify_value=False).board
            for t in ("{{top|b}|b,top}", "{b|b,{bot|bot}}"))
    assert S.size == T.size == 10
    pr = product(S.poset, T.poset)
    embs = (tuple(range(0, 20, 2)), tuple(range(1, 20, 2)))
    path = tmp_path / "interleaved.scg"
    save_board(SetColoringGame(tuple(f"c{i}" for i in range(20)), Compose(
        identity_fn(pr), ((S.payoff, embs[0]), (T.payoff, embs[1])))), path)
    board = load_board(path)
    assert tuple(emb for _, emb in board.payoff.children) == embs
    want = sum_games(ctx, eval_board(ctx, S), eval_board(ctx, T))
    # the parts are those of the same sum laid out in order
    counts = []
    for B in (board, sc_sum(S, T)):
        fresh = SolverContext()
        assert equiv(ctx, eval_board(fresh, B), want)
        counts.append((fresh.stats["eval_parts"],
                       fresh.stats["eval_flat_cells"]))
    assert counts == [(9, 5)] * 2
    code, out, err = run(capsys, "eval", str(path))
    assert code == 0 and err == ""
    assert equiv(ctx, parse(out.strip(), pr), want)


def test_catalog_negative_cells(capsys):
    code, out, err = run(capsys, "catalog", "-n", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["eval", HEX, "--max-cells", "-1"],
    ["eval", "--unicode", "--max-cells", "-1", HEX],
    ["realize", "{top|bot}", "--max-cells", "-1"],
    ["realize", "{top|bot}", "--verify", "--max-cells", "-1"],
])
def test_negative_max_cells(capsys, argv):
    # a negative cap would skip the check and still label the result
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_python_m_scgames_runs_the_cli():
    src = str(Path(scgames.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "scgames", "eval", HEX],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.strip() == "{top|bot}"


def test_product_board_reads_back_in_a_fresh_process(tmp_path):
    # the dual payoff needs the factors of the product poset, which a
    # process that never built the product learns only from the file
    pr = product(builtin("Bool"), builtin("P3"))
    S = SetColoringGame(("c0", "c1"), Dual(Threshold(
        pr, 2, {"(top,a)": ("10",), "(bot,top)": ("01",)})))
    want = "{{top|(bot,a)},{top|(top,bot)}|{(bot,a)|bot},{(top,bot)|bot}}"
    assert games.to_notation(eval_board(SolverContext(), S)) == want
    path = tmp_path / "product.scg"
    path.write_text(json.dumps(board_to_json(S)))
    src = str(Path(scgames.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-m", "scgames", "eval", str(path)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, want + "\n", "")


def _nested_product(factor, k):
    obj = factor
    for _ in range(k - 1):
        obj = {"product": [obj, factor]}
    return obj


_BOOL = {"builtin": "Bool"}
_P4 = {"builtin": "P4"}
_CAPPED = ("a product of {} elements exceeds the cap of 4096 for a poset "
           "read from a file")


@pytest.mark.parametrize("name,payload,verb,want", [
    ("bool13.json", _nested_product(_BOOL, 13), "poset",
     (2, "", "error: " + _CAPPED.format(8192) + "\n")),
    ("dom13.scg", {"poset": _BOOL, "cells": [], "payoff": {"compose": {
        "fn": {"domains": [_BOOL] * 13, "codomain": _BOOL, "table": {}},
        "children": [{"payoff": {"const": "top"}, "cells": []}] * 13}}},
     "board", (2, "", "error: bad board JSON: " + _CAPPED.format(8192)
               + "\n")),
    ("p4x6.json", _nested_product(_P4, 6), "poset", (0, "{top|bot}\n", "")),
    ("named3.scg", {"poset": _nested_product(_P4, 3), "cells": [],
                    "payoff": {"compose": {"fn": "projector_g", "children": [
                        {"payoff": {"const": "top"}, "cells": []}] * 3}}},
     "board", (2, "", "error: bad board JSON: " + _CAPPED.format(16384)
               + "\n")),
    ("threshold6.scg", {"poset": _nested_product(_P4, 6), "cells": ["c"],
                        "payoff": {"threshold": {
                            "(((((a,a),a),a),a),a)": ["1"]}}},
     "board", (0, "{(((((a,a),a),a),a),a)|bot}\n", "")),
], ids=["13-bool-poset", "13-domain-table", "p4-to-the-6th-poset",
        "p4-cubed-named-projector", "p4-to-the-6th-threshold-board"])
def test_file_products_are_capped_before_they_are_built(tmp_path, name,
                                                        payload, verb, want):
    # a few hundred bytes of nested products ask for 2^13 elements, or a
    # named projector form asks for (P4 x P4^3) x P4^3; the cap refuses
    # them before product runs, in a fresh process and well under a second
    # of CPU, while P4^6 (4,096 elements) still loads, and a threshold board
    # over it evaluates
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    argv = {"poset": ["value", "--poset", str(path), "{top|bot}"],
            "board": ["eval", str(path)]}[verb]
    src = str(Path(scgames.__file__).resolve().parent.parent)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "-m", "scgames", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert (proc.returncode, proc.stdout, proc.stderr) == want
    cpu = (after.ru_utime + after.ru_stime
           - before.ru_utime - before.ru_stime)
    assert cpu < 1.0


def test_realize_caps_the_projector_over_a_file_poset(capsys, tmp_path):
    # a shared choice builds projector_g over (P4 x A) x A: 1,024 elements
    # for A = P4 x P4 realize, 16,384 for A = P4^3 are refused up front
    square = tmp_path / "p4x2.json"
    square.write_text(json.dumps(_nested_product(_P4, 2)))
    code, out, _ = run(capsys, "realize", "--verify", "--poset", str(square),
                       "{(a,a),(b,b)|bot}")
    assert code == 0
    assert json.loads(out)["verified"] == "brute_force"
    cube = tmp_path / "p4x3.json"
    cube.write_text(json.dumps(_nested_product(_P4, 3)))
    code, out, err = run(capsys, "realize", "--poset", str(cube),
                         "{((a,a),a),((b,b),b)|bot}")
    assert (code, out) == (2, "")
    assert err == "error: " + _CAPPED.format(16384) + "\n"


def test_there_is_no_seed_flag(capsys):
    # every command is deterministic, so there is nothing to seed
    with pytest.raises(SystemExit) as e:
        main(["--seed", "7", "value", "a"])
    assert e.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, named", [
    (["--seed", "7", "value", "a"], "--seed"),
    (["frob", "a"], "frob"),
    (["value"], "game"),
    (["eval", "F", "--max-cells", "x"], "--max-cells"),
], ids=["option-before-verb", "unknown-verb", "no-game", "bad-int"])
def test_a_usage_error_is_one_error_line(capsys, argv, named):
    with pytest.raises(SystemExit) as e:
        main(argv)
    out = capsys.readouterr()
    assert e.value.code == 2 and out.out == ""
    assert out.err.startswith("error:") and out.err.count("\n") == 1
    assert named in out.err


# -- malformed files and fuzzed input -----------------------------------------

def _board(cells, payoff):
    return {"poset": {"builtin": "P4"}, "cells": cells, "payoff": payoff}


def _one_cell_table(a, b):
    return {"poset": "P4", "sections": [
        {"cells": 0, "entries": []},
        {"cells": 1, "entries": [{"value": "{b|bot}", "a": a, "b": b}]}]}


_CONST_A = {"payoff": {"const": "a"}, "cells": []}

MALFORMED = [
    ("board", _board([], {"compose": 5}), "compose body must be an object"),
    ("board", _board(["c"], {"compose": {"fn": "projector_f",
                                         "children": [1, 2]}}),
     "a compose child is an object whose cells are a list of cell indices"),
    ("fixture", {"poset": "P4", "sections": 5}, "sections must be a list"),
    ("poset", {"elements": 5}, "poset elements must be a list of strings"),
    ("fixture", _one_cell_table("1", []),
     "section 1, '{b|bot}': patterns for 'a': patterns must be a list of "
     "strings, not '1'"),
    ("fixture", _one_cell_table([], {"1": 0}),
     "section 1, '{b|bot}': patterns for 'b': patterns must be a list of "
     "strings, not {'1': 0}"),
    ("board", _board("ab", {"threshold": {"a": ["10"]}}),
     "board cells must be a list of strings"),
    ("board", _board([1, 2], {"threshold": {"a": ["10"]}}),
     "board cells must be a list of strings"),
    ("board", _board(["c"], {"compose": {
        "fn": {"codomain": {"builtin": "P4"}, "table": {}},
        "children": [{"payoff": {"const": "a"}, "cells": []}]}}),
     "function table needs a domains list"),
    ("poset", {"builtin": {}}, "unknown builtin poset {}"),
    ("board", {"cells": [], "payoff": {"const": "a"}},
     "bad board JSON: missing key 'poset'"),
    # a payoff with two keys
    ("board", _board([], {"const": "a", "dual": {"const": "a"}}),
     "payoff must be a one-key object"),
    # a compose without a children list
    ("board", _board(["c"], {"compose": {"fn": "projector_f"}}),
     "compose needs a children list"),
    # a function table that lands in P3 on a P4 board
    ("board", _board([], {"compose": {
        "fn": {"domains": [{"builtin": "P3"}], "codomain": {"builtin": "P3"},
               "table": {"bot": "bot", "a": "a", "top": "top"}},
        "children": [_CONST_A]}}),
     "composed payoff lands in the wrong poset"),
    ("board", _board([], {"compose": {"fn": "projector_h",
                                      "children": [_CONST_A]}}),
     "unknown function spec 'projector_h'"),
    ("board", _board([], {"compose": {"fn": "projector_f",
                                      "children": [_CONST_A] * 3}}),
     "expected 2 children, got 3"),
    ("board", _board([], {"const": "z"}),
     "bad board JSON: atom 'z' not in poset"),
    ("board", _board(["c"], {"threshold": {"z": ["1"]}}),
     "bad board JSON: atom 'z' not in poset"),
    # a nested compose whose child reads cell 5 of an empty embedding
    ("board", _board([], {"compose": {"fn": "projector_f", "children": [
        _CONST_A,
        {"payoff": {"compose": {"fn": "projector_f", "children": [
            _CONST_A, {"payoff": {"const": "a"}, "cells": [5]}]}},
         "cells": []}]}}),
     "bad board JSON: child payoff does not fit its embedding"),
    ("notation", ("value", "(a"), "unbalanced parenthesis (at position 0)"),
    ("poset", {"product": 5}, "poset 'product' must be a list of two posets"),
    ("poset", {"product": [{"builtin": "P4"}]},
     "poset 'product' must be a list of two posets"),
    ("fixture", {"poset": "P3", "sections": []},
     "the table's poset must be 'P4', not 'P3'"),
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_case(directory, kind, payload):
    """Run the CLI on one input; returns (exit code, stderr)."""
    if kind == "notation":
        verb, text = payload
        argv = {"value": ["value", text],
                "leq": ["leq", text, "a"],
                "check": ["check", "--passable", text]}[verb]
    else:
        path = directory / {"board": "in.scg", "poset": "poset.json",
                            "fixture": "table.json"}[kind]
        path.write_text(json.dumps(payload))
        argv = {"board": ["eval", str(path)],
                "poset": ["value", "--poset", str(path), "{top|bot}"],
                "fixture": ["verify-appendix", str(path)]}[kind]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("kind,payload,message", MALFORMED, ids=[
    f"{kind}-payload{i}" for i, (kind, _, _) in enumerate(MALFORMED)])
def test_malformed_input_exits_2(fuzz_dir, kind, payload, message):
    # each input is pinned to the message of the check that rejects it
    assert run_case(fuzz_dir, kind, payload) == (2, f"error: {message}\n")


_TEMPLATES = {
    "board": [board_to_json(S) for S in (
        sc_base(GadgetKind.CHOICE),
        sc_force_left(sc_base(GadgetKind.CHOICE)),
        sc_dual(sc_base(GadgetKind.CHOICE)),
        sc_map(projector_f(P4), sc_sum(sc_base(GadgetKind.RIGHT_FORCE),
                                       sc_base(GadgetKind.CHOICE))),
    )],
    "poset": [{"builtin": "P3"},
              {"elements": ["bot", "x", "top"],
               "le": [["bot", "x"], ["x", "top"]]},
              {"product": [{"builtin": "Bool"}, {"builtin": "P3"}]}],
    "fixture": [_one_cell_table([], ["1"])],
}

_WORDS = ["P3", "P4", "a", "b", "top", "bot", "c", "", "0", "1", "01", "10",
          "projector_f", "projector_g", "poset", "cells", "payoff", "const",
          "threshold", "dual", "compose", "fn", "children", "builtin",
          "elements", "le", "domains", "codomain", "table", "sections",
          "entries", "value", "closure_forms"]

_leaf = (st.none() | st.booleans() | st.integers(-2, 40)
         | st.floats(-2, 40, allow_nan=False) | st.sampled_from(_WORDS)
         | st.text(max_size=3))
_junk = _leaf | st.recursive(
    _leaf, lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(_WORDS), kids, max_size=3),
    max_leaves=6)


def _paths(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield from _paths(v, path + (k,))


@st.composite
def _mutant(draw, kind):
    """A valid document of this kind with up to two subtrees replaced."""
    doc = copy.deepcopy(draw(st.sampled_from(_TEMPLATES[kind])))
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        new = draw(_junk)
        if not path:
            doc = new
            continue
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        parent[path[-1]] = new
    return kind, doc


_games = st.recursive(
    st.sampled_from(["a", "b", "top", "bot"]),
    lambda g: st.builds("{{{}|{}}}".format,
                        st.lists(g, min_size=1, max_size=2).map(",".join),
                        st.lists(g, min_size=1, max_size=2).map(",".join)),
    max_leaves=6)


@st.composite
def _notation(draw):
    """A game in notation, perhaps with one character inserted or cut."""
    text = draw(_games)
    at = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(["", "cut", "{", "}", "|", ",", "x", " "]))
    if edit == "cut":
        text = text[:at] + text[at + 1:]
    else:
        text = text[:at] + edit + text[at:]
    return "notation", (draw(st.sampled_from(["value", "leq", "check"])),
                        text)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=st.one_of(_notation(), _mutant("board"), _mutant("poset"),
                      _mutant("fixture")))
def test_cli_fuzz_exit_codes(fuzz_dir, case):
    # whatever the input, main answers with an exit code, never a
    # traceback, and bad input gets exit 2 with one error line
    code, err = run_case(fuzz_dir, *case)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1


for _kind, _payload, _ in MALFORMED:    # every run also tries them
    test_cli_fuzz_exit_codes = example(case=(_kind, _payload))(
        test_cli_fuzz_exit_codes)
