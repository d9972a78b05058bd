#!/usr/bin/env python3
"""Sharded census of fixed-size threshold boards over the diamond.

The five-cell layer is 7581^2 boards, about 11 minutes on one core.  The
run splits it into contiguous index slices, one per shard with a
private solver context.  Each shard builds the layers below (a third of
a second) and values its slice through the catalog's restriction DP,
snapshots progress, and the shards merge at the end:

    python scripts/census.py run --cells 5 --shard 0 --num-shards 8 -o s0.json
    ...one invocation per shard, any order, resumable...
    python scripts/census.py merge s*.json -o catalog5.json

Snapshots are written atomically every --snapshot-every boards; an
interrupted shard picks up from its own --out file with --resume.
--stop-after bounds one invocation (snapshot and exit), which makes
budgeted slices easy to schedule.  Merging also accepts plain catalog
JSON (the scgames catalog command), so a merged file can fold in the
smaller cell counts and recover minimal witnesses.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from scgames.catalog import (DEDEKIND, CatalogEntry, ValueCatalog,
                             ValueIndex, board_at, catalog_from_json,
                             catalog_to_json, census_layers, layer_values,
                             merge_catalogs)
from scgames.games import SolverContext
from scgames.poset import builtin


def write_snapshot(path: Path, args_n, shard, num_shards, done, total,
                   entries, complete: bool) -> None:
    obj = {"cells": args_n, "shard": shard, "num_shards": num_shards,
           "done": done, "total": total, "complete": complete,
           "catalog": catalog_to_json(
               ValueCatalog(builtin("P4"), tuple(entries)))}
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(obj))
    tmp.replace(path)    # readers never see a half-written file


def cmd_run(args) -> int:
    n = args.cells
    if not 0 <= n < len(DEDEKIND):
        print(f"--cells must be 0..{len(DEDEKIND) - 1}", file=sys.stderr)
        return 2
    if not 0 <= args.shard < args.num_shards:
        print("--shard must be 0..--num-shards - 1", file=sys.stderr)
        return 2
    ctx = SolverContext()
    # the layers below come first, so their games are interned in the
    # same order as in build_catalog, resumed or not
    t0 = time.time()
    below = census_layers(ctx, n - 1)[-1] if n else None
    print(f"layers below {n} cells in {time.time() - t0:.1f}s",
          file=sys.stderr)
    out = Path(args.out)
    entries = []
    done = 0
    if args.resume:
        if not out.exists():
            print(f"nothing to resume at {out}", file=sys.stderr)
            return 2
        snap = json.loads(out.read_text())
        for key, want in (("cells", n), ("shard", args.shard),
                          ("num_shards", args.num_shards)):
            if snap[key] != want:
                print(f"snapshot {key}={snap[key]} does not match "
                      f"--{key.replace('_', '-')} {want}", file=sys.stderr)
                return 2
        if snap.get("complete"):
            print("shard already complete", file=sys.stderr)
            return 0
        entries = list(catalog_from_json(snap["catalog"], ctx).entries)
        done = snap["done"]
    index = ValueIndex(ctx, [e.value for e in entries])

    # a contiguous slice, so merging the shards in order keeps the first
    # witness of each value
    size = DEDEKIND[n] ** 2
    boards = range(size * args.shard // args.num_shards,
                   size * (args.shard + 1) // args.num_shards)
    total = len(boards)
    todo = boards[done:]
    if args.stop_after:
        todo = todo[:args.stop_after]
    t0 = time.time()
    for processed, (idx, v) in enumerate(
            zip(todo, layer_values(ctx, n, below, todo)), 1):
        if index.add(v):
            entries.append(CatalogEntry(v, board_at(n, idx), n))
        done += 1
        if processed % args.snapshot_every == 0:
            write_snapshot(out, n, args.shard, args.num_shards,
                           done, total, entries, complete=False)
            rate = processed / (time.time() - t0)
            print(f"{done}/{total} boards, {len(entries)} values, "
                  f"{rate:.0f}/s", file=sys.stderr)
    complete = done == total
    write_snapshot(out, n, args.shard, args.num_shards,
                   done, total, entries, complete=complete)
    if not complete:
        print(f"paused at {done}/{total} after --stop-after "
              f"{args.stop_after}", file=sys.stderr)
        return 0
    print(f"shard {args.shard}/{args.num_shards}: {done} boards, "
          f"{len(entries)} values in {time.time() - t0:.0f}s",
          file=sys.stderr)
    return 0


def cmd_merge(args) -> int:
    ctx = SolverContext()
    cats = []
    for f in args.files:
        obj = json.loads(Path(f).read_text())
        shard = -1                 # plain catalogs go first
        if "catalog" in obj:       # shard snapshot
            if not obj.get("complete"):
                print(f"warning: {f} is an incomplete shard "
                      f"({obj['done']}/{obj['total']})", file=sys.stderr)
            shard = obj["shard"]
            obj = obj["catalog"]
        cats.append((shard, catalog_from_json(obj, ctx)))
    # shards in index order, whatever order the shell listed the files in
    cats.sort(key=lambda sc: sc[0])
    merged = merge_catalogs(ctx, [c for _, c in cats])
    text = json.dumps(catalog_to_json(merged), indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    print(f"{len(merged)} values from {len(cats)} files", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("run", help="census one shard of one cell count")
    p.add_argument("--cells", type=int, required=True)
    p.add_argument("--shard", type=int, default=0)
    p.add_argument("--num-shards", type=int, default=1)
    p.add_argument("--snapshot-every", type=int, default=100_000)
    p.add_argument("--stop-after", type=int, default=0,
                   help="process at most this many boards, then snapshot")
    p.add_argument("--resume", action="store_true",
                   help="continue from the snapshot in --out")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("merge", help="combine shard snapshots or catalogs")
    p.add_argument("files", nargs="+")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(fn=cmd_merge)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
