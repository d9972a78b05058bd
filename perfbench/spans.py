"""Spans recorded from outside the program, around each module's entry points.

The wrappers replace module attributes: every ``scgames`` module that holds
the function under a name (``scgames.setcolor.composite``,
``scgames.setcolor.simplify_game``, ``scgames.realize.eval_board``,
``scgames.algebra.product``, ...) gets the wrapper, because that is the name
its callers look up.  Payoff evaluation is wrapped on the four payoff classes.

A recursive entry point (simplify, leq/tri/equiv, value_at, sum_games) gives
one span per outermost call: while a span of a name is open, further calls of
that name run unwrapped and count toward the open span.

Spans are aggregated in memory as they close, per name: calls and self time,
where self time is the span's duration minus the part its child spans cover.
A census pass opens millions of spans, too many to keep one record each.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# Every span name, in report order; each gives <name>.calls and <name>.self_s.
SPANS = (
    "poset.product",
    "setcolor.payoff",
    "setcolor.eval_board",
    "games.composite",
    "games.simplify",
    "games.order",
    "algebra.sum_games",
    "realize.synthesize",
    "realize.verify",
    "catalog.build_catalog",
    "catalog.expand_fixture",
)

# Counters taken at the span boundaries.
COUNTERS = (
    "setcolor.positions",          # sum of 3^n over the boards evaluated
    "games.simplify.memo_new",     # ctx.simp growth during outermost calls
    "games.simplify.memo_hits",    # outermost calls answered by the memo
    "games.order.memo_new",        # ctx.leq + ctx.tri growth, likewise
    "catalog.dedupe.equiv_calls",  # equiv calls made by the catalog module
)


class Recorder:
    """Open spans on a stack; closed spans folded into per-name totals."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.open: set[str] = set()
        self._stack: list[list] = []   # [name, start, child coverage]

    def enter(self, name: str) -> None:
        self.open.add(name)
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        self.open.discard(name)
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration


def span(rec: Recorder, name: str, fn, before=None, after=None):
    """fn wrapped in an outermost-call span of the given name.

    ``before(args)`` runs just before the span opens and its result goes to
    ``after(state, args)``, which runs just after it closes; neither is
    counted in the span's own time.
    """
    def wrapper(*args, **kwargs):
        if name in rec.open:
            return fn(*args, **kwargs)
        state = before(args) if before else None
        rec.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.exit()
        if after:
            after(state, args)
        return out
    return wrapper


class Installation:
    """The wrappers in place on the loaded scgames modules, and their undo."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self._modules = [m for n, m in sorted(sys.modules.items())
                         if n == "scgames" or n.startswith("scgames.")]

    def put(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def everywhere(self, orig, wrapper, skip=()) -> None:
        """Replace orig by wrapper under every name a module binds it to."""
        for m in self._modules:
            if m in skip:
                continue
            for attr, val in list(vars(m).items()):
                if val is orig:
                    self.put(m, attr, wrapper)

    def remove(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def install(rec: Recorder) -> Installation:
    """Wrap the entry point of every layer; call .remove() to undo."""
    from scgames import algebra, catalog, games, poset, setcolor
    realize = importlib.import_module("scgames.realize")

    inst = Installation()
    counts = rec.counts

    def plain(mod, fn_name, name):
        orig = getattr(mod, fn_name)
        inst.everywhere(orig, span(rec, name, orig))

    plain(poset, "product", "poset.product")
    plain(games, "composite", "games.composite")
    plain(algebra, "sum_games", "algebra.sum_games")
    plain(realize, "_synthesize", "realize.synthesize")
    plain(realize, "verify", "realize.verify")
    plain(catalog, "build_catalog", "catalog.build_catalog")
    plain(catalog, "expand_fixture", "catalog.expand_fixture")

    for cls in (setcolor.Const, setcolor.Threshold, setcolor.Compose,
                setcolor.Dual):
        inst.put(cls, "value_at",
                 span(rec, "setcolor.payoff", cls.__dict__["value_at"]))

    def positions(args):
        counts["setcolor.positions"] += 3 ** args[1].size
    inst.everywhere(setcolor.eval_board,
                    span(rec, "setcolor.eval_board", setcolor.eval_board,
                         before=positions))

    def simp_before(args):
        ctx, G = args[0], args[1]
        return G.uid in ctx.simp, len(ctx.simp)

    def simp_after(state, args):
        hit, size = state
        counts["games.simplify.memo_hits"] += hit
        counts["games.simplify.memo_new"] += len(args[0].simp) - size
    inst.everywhere(games.simplify,
                    span(rec, "games.simplify", games.simplify,
                         before=simp_before, after=simp_after))

    def order_before(args):
        return len(args[0].leq) + len(args[0].tri)

    def order_after(size, args):
        counts["games.order.memo_new"] += (len(args[0].leq)
                                           + len(args[0].tri) - size)

    def catalog_before(args):
        counts["catalog.dedupe.equiv_calls"] += 1
        return order_before(args)

    for fn in (games.leq, games.tri, games.equiv):
        inst.everywhere(fn, span(rec, "games.order", fn, before=order_before,
                                 after=order_after), skip=(catalog,))
    inst.put(catalog, "equiv", span(rec, "games.order", games.equiv,
                                    before=catalog_before, after=order_after))
    return inst


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer figures of one traced pass, by metric name."""
    out: dict[str, float] = {}
    for name in SPANS:
        out[f"{name}.calls"] = rec.calls.get(name, 0)
        out[f"{name}.self_s"] = rec.self_s.get(name, 0.0)
    for name in COUNTERS:
        out[name] = rec.counts.get(name, 0)
    calls = rec.calls.get("games.simplify", 0)
    out["games.simplify.hit_ratio"] = (
        rec.counts.get("games.simplify.memo_hits", 0) / calls if calls else 0.0)
    return out
