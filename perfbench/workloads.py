"""The three workloads: seeded inputs, one timed pass, and output checks.

Each workload builds its inputs from the seed in ``setup``; the program
receives only the generated games.  ``ops`` lists the timed operations of
one pass, and ``outputs`` turns their results, after the timed phase, into
the text whose digests are compared with reference.json, plus the number of
results that break an invariant of the workload.

Calls go through module attributes (``realize_mod.realize``,
``catalog.build_catalog``, ...) so that the wrappers of a traced pass see
them.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable

from scgames import algebra, catalog, games, poset, sampling
from scgames import setcolor

# the package exports the function realize under the module's name
realize_mod = importlib.import_module("scgames.realize")

P4 = poset.builtin("P4")
VERIFY_CAP = 14


@dataclass
class Op:
    kind: str
    seconds: float
    result: Any          # None when the call raised
    ok: bool


def run_op(kind: str, thunk: Callable[[], Any],
           clock: Callable[[], float] = time.process_time) -> Op:
    """Time one call by clock (CPU seconds); an exception marks the op
    failed and is not raised."""
    t0 = clock()
    try:
        result = thunk()
    except Exception:
        seconds = clock() - t0
        traceback.print_exc(file=sys.stderr)
        return Op(kind, seconds, None, False)
    return Op(kind, clock() - t0, result, True)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def composite_passable(ctx, rng, branch: int):
    """A seeded passable game of depth 2 whose root is not an atom.

    Most raw samples are bare atoms, which say nothing about the layers
    measured here.
    """
    while True:
        g = sampling.random_passable_game(ctx, rng, P4, 2, branch)
        if not g.is_atomic:
            return g


# -- realize_verify ------------------------------------------------------------

class RealizeVerify:
    """realize + brute-force verify at 10 cells, synthesis above the cap.

    Pass p takes the p-th slice of each size class from the seeded pool, so
    the passes of a run time different games: one 10-cell game costs from
    about 0.8 to 1.1 times the median, and a run averages over 15 of them.
    12-cell games are left out: one costs 12-18 s, by the game, so a run
    could time only one or two and its figures would follow the seed.
    """

    name = "realize_verify"
    seeded = True
    per_pass = {"realize10": 5, "realize_large": 2}
    distinct_passes = 4
    # A fixed number of samples keeps set-up time the same across seeds;
    # 450 fill the pool at almost every seed (10 cells are ~7% of samples).
    samples = 450
    max_samples = 20000

    def setup(self, seed: int):
        ctx = games.SolverContext()
        rng = random.Random(seed)
        want = {k: n * self.distinct_passes for k, n in self.per_pass.items()}
        pool = {k: [] for k in self.per_pass}
        seen = set()
        for i in range(self.max_samples):
            if i >= self.samples and all(len(pool[k]) == n
                                         for k, n in want.items()):
                return pool
            g = composite_passable(ctx, rng, 2)
            if g.uid in seen:
                continue
            seen.add(g.uid)
            size = realize_mod.realize(ctx, g, verify_value=False).carrier_size
            if size > VERIFY_CAP:
                kind = "realize_large"
            else:
                kind = "realize10" if size == 10 else None
            if kind and len(pool[kind]) < want[kind]:
                pool[kind].append(g)
        raise RuntimeError("seeded pool not filled; sampling too sparse")

    def ops(self, pool, index: int):
        p = index % self.distinct_passes
        out = []
        for kind, n in self.per_pass.items():
            for g in pool[kind][p * n:(p + 1) * n]:
                out.append((kind, lambda g=g: realize_mod.realize(
                    games.SolverContext(), g, verify_cap=VERIFY_CAP)))
        return out

    def throughput(self, ops: list[Op]) -> int:
        return len(ops)

    def attempted(self, ops: list[Op]) -> int:
        return len(ops)

    def outputs(self, pool, ops: list[Op]) -> tuple[list[str], int]:
        texts, bad = [], 0
        for op in ops:
            rep = op.result
            if rep is None:
                texts.append("raised")
                continue
            want = (realize_mod.VerifiedHow.BRUTE_FORCE
                    if rep.carrier_size <= VERIFY_CAP
                    else realize_mod.VerifiedHow.COMPOSITIONAL)
            if rep.verified is not want or rep.carrier_size > rep.bound:
                bad += 1
            texts.append(json.dumps(rep.to_json(), sort_keys=True))
        return texts, bad


# -- census4 -------------------------------------------------------------------

class Census4:
    """Every threshold board with at most 4 cells, through build_catalog."""

    name = "census4"
    seeded = False
    cells = 4
    values = 50
    distinct_passes = 1

    def setup(self, seed: int):
        return None      # exhaustive: the seed chooses nothing

    def ops(self, _inputs, index: int):
        return [("build_catalog", lambda: catalog.build_catalog(
            games.SolverContext(), self.cells))]

    def boards(self) -> int:
        return sum(catalog.DEDEKIND[k] ** 2 for k in range(self.cells + 1))

    def throughput(self, ops: list[Op]) -> int:
        return self.boards()

    def attempted(self, ops: list[Op]) -> int:
        return self.boards()

    def outputs(self, _inputs, ops: list[Op]) -> tuple[list[str], int]:
        cat = ops[0].result
        if cat is None:
            return ["raised"], self.boards()
        texts = [f"{e.cells} {games.to_notation(e.value)} "
                 + json.dumps(setcolor.board_to_json(e.board), sort_keys=True)
                 for e in cat.entries]
        return texts, self.unmatched(cat.values())

    def unmatched(self, values) -> int:
        """Values and table entries without an equivalent partner."""
        ctx = games.SolverContext()
        table = list(catalog.expand_fixture(catalog.load_fixture(),
                                            self.cells, ctx))
        lonely = sum(not any(games.equiv(ctx, v, t) for t in table)
                     for v in values)
        lonely += sum(not any(games.equiv(ctx, v, t) for v in values)
                      for t in table)
        return lonely + abs(len(values) - self.values)


# -- algebra_sums --------------------------------------------------------------

class AlgebraSums:
    """Sums of consecutive seeded games, simplified, deduped; one table check.

    One context serves the whole pass, as for a user summing many games.
    """

    name = "algebra_sums"
    seeded = True
    games_per_pass = 2000
    fixture_cells = 5
    fixture_values = 178
    distinct_passes = 1

    def setup(self, seed: int):
        ctx = games.SolverContext()
        rng = random.Random(seed)
        gs = [composite_passable(ctx, rng, 3)
              for _ in range(self.games_per_pass)]
        return list(zip(gs[::2], gs[1::2])), catalog.load_fixture()

    def ops(self, inputs, index: int):
        pairs, fixture = inputs
        ctx = games.SolverContext()
        simplified: list = []

        def sum_simplify(g, h):
            raw = algebra.sum_games(ctx, g, h)
            simple = games.simplify(ctx, raw)
            simplified.append(simple)
            return raw, simple

        out = [("sum_simplify", lambda g=g, h=h: sum_simplify(g, h))
               for g, h in pairs]
        out.append(("dedupe", lambda: catalog.dedupe_values(ctx, simplified)))
        out.append(("expand_fixture", lambda: catalog.expand_fixture(
            fixture, self.fixture_cells, ctx)))
        return out

    def throughput(self, ops: list[Op]) -> int:
        return sum(op.kind == "sum_simplify" for op in ops)

    def attempted(self, ops: list[Op]) -> int:
        return len(ops)

    def outputs(self, inputs, ops: list[Op]) -> tuple[list[str], int]:
        pairs, _ = inputs
        texts, bad = [], 0
        memo: dict = {}
        for op, (g, h) in zip(ops, pairs):
            if op.result is None:
                texts.append("raised")
                continue
            raw, simple = op.result
            bad += raw is not naive_sum(g, h, memo)
            texts.append(games.to_notation(simple))
        dedupe, fixture = ops[-2], ops[-1]
        texts.append("raised" if dedupe.result is None else
                     "\n".join(games.to_notation(r) for r in dedupe.result))
        if fixture.result is None:
            texts.append("raised")
        else:
            texts.append("\n".join(sorted(games.to_notation(v)
                                          for v in fixture.result)))
            bad += len(fixture.result) != self.fixture_values
        return texts, bad


def naive_sum(G, H, memo: dict):
    """The disjunctive sum by its definition, as an interned raw tree."""
    key = (G.uid, H.uid)
    hit = memo.get(key)
    if hit is None:
        pr = poset.product(G.poset, H.poset)
        if G.is_atomic and H.is_atomic:
            hit = games.atomic(pr.pair(G.atom, H.atom), pr)
        else:
            hit = games.composite(
                [naive_sum(x, H, memo) for x in G.left]
                + [naive_sum(G, x, memo) for x in H.left],
                [naive_sum(x, H, memo) for x in G.right]
                + [naive_sum(G, x, memo) for x in H.right], pr)
        memo[key] = hit
    return hit


WORKLOADS = {w.name: w for w in (RealizeVerify(), Census4(), AlgebraSums())}
