"""Command line front end.

One verb per task: print a value, compare two games, test a predicate,
evaluate or emit board files, rebuild the value census, or re-check the
shipped value table.  Everything reads and writes the brace notation,
ASCII by default.

Exit codes are script-friendly: 0 for success, 1 when a predicate comes
out false or a verification fails, 2 for unusable input (syntax errors,
unknown posets or atoms, missing or malformed files, caps exceeded or
negative, input nested deeper than the interpreter's recursion limit
allows: the order kernel takes two frames a level, is_passable,
is_monotone, algebra.map_sum (the walk behind sums and composed boards)
and the board-file reader recurse too, while printing and simplify walk
on games.fold's own stack).  Every exit-2 error, a usage error included,
is one ``error:`` line on stderr.  With ``--stats``
(before the verb), the counters of the verb's SolverContext, the size of
every table it holds (under ``memo``, from ``memo_sizes()``) and the
number of games the verb added to the intern table (``interned``) are
printed as one JSON line on stderr; stdout and the exit code stay as
they are.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import reduce
from itertools import takewhile
from pathlib import Path

from . import games
from .catalog import build_catalog, catalog_to_json, load_fixture, \
    verify_appendix
from .games import SolverContext, is_monotone, is_passable, leq, equiv, \
    simplify, to_notation
from .notation import parse_game
from .poset import UnknownPoset, builtin, poset_from_json, read_product
from .realize import DEFAULT_VERIFY_CAP, NotPassable, VerificationFailed, \
    realize
from .setcolor import DEFAULT_EVAL_CAP, eval_board, load_board, save_board


def _load_poset(spec: str):
    """A builtin name, or a JSON file describing the poset."""
    try:
        return builtin(spec)
    except UnknownPoset:
        pass
    p = Path(spec)
    if p.exists():
        return poset_from_json(json.loads(p.read_text()))
    raise UnknownPoset(f"{spec!r} is neither a builtin poset nor a file")


def _parse(args, text):
    return parse_game(text, _load_poset(args.poset))


def cmd_value(args, ctx: SolverContext) -> int:
    v = simplify(ctx, _parse(args, args.game))
    print(to_notation(v, unicode=args.unicode))
    return 0


def _answer(res: bool) -> int:
    """Print a yes/no answer; exit 0 for true, 1 for false."""
    print("true" if res else "false")
    return 0 if res else 1


def cmd_leq(args, ctx: SolverContext) -> int:
    return _answer(leq(ctx, _parse(args, args.left), _parse(args, args.right)))


def cmd_equiv(args, ctx: SolverContext) -> int:
    return _answer(equiv(ctx, _parse(args, args.left),
                         _parse(args, args.right)))


def cmd_check(args, ctx: SolverContext) -> int:
    G = _parse(args, args.game)
    return _answer(is_passable(ctx, G) if args.passable
                   else is_monotone(ctx, G))


def cmd_eval(args, ctx: SolverContext) -> int:
    v = eval_board(ctx, load_board(args.board), max_cells=args.max_cells)
    print(to_notation(v, unicode=args.unicode))
    return 0


def cmd_realize(args, ctx: SolverContext) -> int:
    G = _parse(args, args.game)
    # synthesis builds projector_g over (P4 x A) x A, so a poset A read
    # from a file must keep that domain under the file cap
    reduce(read_product, (builtin("P4"), G.poset, G.poset))
    report = realize(ctx, G, verify_value=args.verify,
                     verify_cap=args.max_cells)
    if args.out:
        save_board(report.board, args.out)
        print(f"board -> {args.out}", file=sys.stderr)
    print(json.dumps(report.to_json(), indent=2))
    return 0


def cmd_verify_appendix(args, ctx: SolverContext) -> int:
    checks = verify_appendix(ctx, load_fixture(args.fixture))
    for c in checks:
        line = f"{' ok ' if c.ok else 'FAIL'}  {c.cells}  {c.claimed}"
        if not c.ok:
            line += f"  ->  {c.got}"
        print(line)
    passed = sum(c.ok for c in checks)
    print(f"{passed}/{len(checks)} boards check out")
    return 0 if passed == len(checks) else 1


def cmd_catalog(args, ctx: SolverContext) -> int:
    cat = build_catalog(ctx, args.n)
    text = json.dumps(catalog_to_json(cat), indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"{len(cat)} values -> {args.out}")
    else:
        print(text)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line on stderr and exits 2,
    with no usage block; the verbs' subparsers inherit the class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _global_flags() -> argparse.ArgumentParser:
    """The options that go before the verb; none takes a value."""
    ap = _Parser(add_help=False)
    ap.add_argument("--stats", action="store_true",
                    help="print the solver's counters, memo sizes and "
                         "newly interned games as one JSON line on stderr "
                         "after the command")
    return ap


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="scgames", parents=[_global_flags()],
        description="Game values, set coloring boards, and realizations.")
    sub = ap.add_subparsers(dest="verb", required=True)

    poset_flag = _Parser(add_help=False)
    poset_flag.add_argument("--poset", default="P4",
                            help="builtin poset name or a JSON poset file "
                                 "(default P4)")
    uni_flag = _Parser(add_help=False)
    uni_flag.add_argument("--unicode", action="store_true",
                          help="print top/bot as symbols")

    p = sub.add_parser("value", parents=[poset_flag, uni_flag],
                       help="simplified value of a game notation")
    p.add_argument("game", help="game notation (a board file: use eval)")
    p.set_defaults(fn=cmd_value)

    p = sub.add_parser("leq", parents=[poset_flag],
                       help="is the first game below the second")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=cmd_leq)

    p = sub.add_parser("equiv", parents=[poset_flag],
                       help="are the two games equivalent")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("check", parents=[poset_flag],
                       help="test a game predicate")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--passable", action="store_true")
    which.add_argument("--monotone", action="store_true")
    p.add_argument("game")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("eval", parents=[uni_flag],
                       help="evaluate a .scg board file")
    p.add_argument("board")
    p.add_argument("--max-cells", type=int, default=DEFAULT_EVAL_CAP,
                   help="cap on the empty cells of each part that eval_board "
                        "brute-forces (default %(default)s)")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("realize", parents=[poset_flag],
                       help="build a board realizing a passable game")
    p.add_argument("game")
    p.add_argument("--verify", action="store_true",
                   help="re-evaluate the board and compare with the input")
    p.add_argument("-o", "--out", default=None, help="write the board here")
    p.add_argument("--max-cells", type=int, default=DEFAULT_VERIFY_CAP,
                   help="carrier cap for brute-force verification, and the "
                        "cap on the empty cells of each part brute-forced "
                        "during it (default %(default)s)")
    p.set_defaults(fn=cmd_realize)

    p = sub.add_parser("verify-appendix",
                       help="re-evaluate the printed boards of a value table")
    p.add_argument("fixture", nargs="?", default=None,
                   help="table JSON (default: the shipped one)")
    p.set_defaults(fn=cmd_verify_appendix)

    p = sub.add_parser("catalog",
                       help="census of all boards up to a cell count")
    p.add_argument("-n", type=int, required=True, dest="n")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(fn=cmd_catalog)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = build_parser()
    # argparse would read the word after an unknown option before the verb
    # as the verb, and reject that; name the option instead (a help flag
    # there prints the help first)
    head = list(takewhile(lambda a: a.startswith("-") and a != "--", argv))
    unknown = _global_flags().parse_known_args(head)[1]
    if unknown and not {"-h", "--help"} & set(head):
        ap.error(f"unrecognized arguments: {' '.join(unknown)}")
    args = ap.parse_args(argv)
    ctx = SolverContext()
    interned = len(games._GAMES)
    try:
        if getattr(args, "max_cells", 0) < 0:
            raise ValueError(f"--max-cells must be 0 or more, "
                             f"not {args.max_cells}")
        return args.fn(args, ctx)
    except (NotPassable, VerificationFailed) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply to process", file=sys.stderr)
        return 2
    finally:
        if args.stats:
            print(json.dumps(dict(ctx.stats, memo=ctx.memo_sizes(),
                                  interned=len(games._GAMES) - interned),
                             sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
