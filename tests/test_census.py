"""The sharded census script agrees with the direct catalog build."""

import importlib.util
import json
from pathlib import Path

import pytest

from scgames.catalog import DEDEKIND, build_catalog, catalog_from_json
from scgames.games import SolverContext
from scgames.notation import parse_game
from scgames.poset import builtin
from scgames.setcolor import board_from_json, board_to_json, eval_board

P4 = builtin("P4")

_spec = importlib.util.spec_from_file_location(
    "census", Path(__file__).resolve().parent.parent / "scripts" / "census.py")
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)


def test_sharded_census_matches_direct_build(tmp_path, capsys):
    shards = []
    for n in range(4):
        for s in range(3):
            out = tmp_path / f"c{n}s{s}.json"
            assert census.main(["run", "--cells", str(n), "--shard", str(s),
                                "--num-shards", "3", "--snapshot-every", "7",
                                "-o", str(out)]) == 0
            snap = json.loads(out.read_text())
            assert snap["complete"] and snap["done"] == snap["total"]
            shards.append(str(out))
        assert sum(json.loads(Path(f).read_text())["done"]
                   for f in shards[-3:]) == DEDEKIND[n] ** 2

    # listed against shard order: merge restores it, so each value keeps
    # the first witness in enumeration order
    merged_file = tmp_path / "merged.json"
    assert census.main(["merge", *reversed(shards),
                        "-o", str(merged_file)]) == 0
    ctx = SolverContext()
    merged = catalog_from_json(json.loads(merged_file.read_text()), ctx)
    direct = build_catalog(ctx, 3)
    assert len(direct) == 22
    assert [e.value.uid for e in merged.entries] == \
        [e.value.uid for e in direct.entries]
    assert [board_to_json(e.board) for e in merged.entries] == \
        [board_to_json(e.board) for e in direct.entries]
    assert [e.cells for e in merged.entries] == \
        [e.cells for e in direct.entries]
    capsys.readouterr()


def test_census_five_cell_slice(tmp_path, capsys):
    # the last eighth of the layer, where the first 200 boards already
    # give values three levels deep
    out = tmp_path / "five.json"
    args = ["run", "--cells", "5", "--shard", "7", "--num-shards", "8",
            "-o", str(out)]
    assert census.main(args + ["--stop-after", "200"]) == 0
    snap = json.loads(out.read_text())
    size = DEDEKIND[5] ** 2
    assert snap["done"] == 200 and snap["total"] == size - size * 7 // 8
    assert not snap["complete"]
    first = snap["catalog"]["entries"]
    assert len(first) == 7
    fresh = SolverContext()
    for row in first:
        assert row["cells"] == 5
        board = board_from_json(row["board"])
        assert eval_board(fresh, board) is parse_game(row["value"], P4)

    assert census.main(args + ["--stop-after", "100", "--resume"]) == 0
    snap = json.loads(out.read_text())
    assert snap["done"] == 300 and not snap["complete"]
    assert snap["catalog"]["entries"][:len(first)] == first
    capsys.readouterr()


def test_census_resume_round_trip(tmp_path, capsys):
    out = tmp_path / "shard.json"
    args = ["run", "--cells", "2", "--shard", "0", "--num-shards", "1",
            "-o", str(out)]
    assert census.main(args + ["--stop-after", "10"]) == 0
    snap = json.loads(out.read_text())
    assert snap["done"] == 10 and not snap["complete"]

    assert census.main(args + ["--resume"]) == 0
    snap = json.loads(out.read_text())
    assert snap["complete"] and snap["done"] == 36

    fresh = tmp_path / "fresh.json"
    assert census.main(["run", "--cells", "2", "-o", str(fresh)]) == 0
    a = json.loads(out.read_text())["catalog"]
    b = json.loads(fresh.read_text())["catalog"]
    assert [r["value"] for r in a["entries"]] == \
        [r["value"] for r in b["entries"]]

    # resuming a complete shard is a no-op, mismatched flags are refused
    assert census.main(args + ["--resume"]) == 0
    assert census.main(["run", "--cells", "3", "--shard", "0",
                        "--num-shards", "1", "-o", str(out),
                        "--resume"]) == 2
    assert census.main(["run", "--cells", "2", "--resume",
                        "-o", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
