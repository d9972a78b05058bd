#!/usr/bin/env python3
"""Benchmark of the scgames solver: one workload per run, every metric by name.

    python3 perfbench/run.py --workload census4 --seed 1 --seconds 36 --trace 0

Workloads (see README.md for why each exists and which layers it loads):
realize_verify, census4, algebra_sums.  Each pass runs in a fresh
interpreter (worker.py), so caches start cold as for one scgames command.

With --trace 0, passes run while the next one is expected to end within
--seconds, and the run reports the end-to-end metrics: setup_s and cpu_s
(medians over set-ups and passes, in CPU seconds of the worker scaled to a
fixed host speed, see hostspeed.py), ops_per_s (ops of all passes over
their scaled CPU time) and peak_rss_mb.  Set-up is repeated at least
MIN_SETUPS times.  With --trace 1, pass 0 runs once untraced and
once traced, and the run reports the per-layer figures of the traced pass,
its wall time, the tracing overhead (traced minus untraced wall time) and
the glue (traced wall time not inside any span).

Every output is digested and compared with reference.json, recorded at
DEFAULT_SEED (at any seed for census4), and passes with the same inputs must
agree.  A mismatch, a broken invariant or an exception counts as a failed
op.  Human-readable lines come first; the last line of stdout is the JSON
result.  --record rewrites reference.json from the current program.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKLOADS = ("realize_verify", "census4", "algebra_sums")
DEFAULT_SEED = 1
MIN_SETUPS = 5
MAX_PASSES = 16
WORKER_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "cpu_s": "s", "ops_per_s": "1/s",
              "peak_rss_mb": "MB"}
OPS_UNIT = {"realize_verify": "realize calls", "census4": "boards",
            "algebra_sums": "game pairs"}


class HarnessError(RuntimeError):
    """A worker did not produce a result; the run has no figures."""


def spawn(workload: str, seed: int, index: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           str(index), "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{workload} pass {index} timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{workload} pass {index} exited with "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def load_reference() -> dict:
    if REFERENCE.exists():
        return json.loads(REFERENCE.read_text())
    return {}


def mismatches(want: list[str], got: list[str]) -> int:
    """Outputs whose digest differs, plus outputs missing on either side."""
    return (sum(a != b for a, b in zip(want, got))
            + abs(len(want) - len(got)))


def count_failed(workload: str, seed: int, passes: list[dict],
                 reference: dict) -> tuple[int, int]:
    """(attempted, failed) over passes, checked against the reference and
    against earlier passes of the same inputs."""
    ref = reference.get(workload, {})
    applies = ref.get("seed") in (None, seed)
    first: dict[int, list[str]] = {}
    attempted = failed = 0
    for res in passes:
        key = res["key"]
        bad = res["failed"]
        want = ref.get("passes", {}).get(str(key)) if applies else None
        if want is not None:
            bad += mismatches(want, res["digests"])
        bad += mismatches(first.setdefault(key, res["digests"]),
                          res["digests"])
        attempted += res["attempted"]
        failed += min(bad, res["attempted"])
    return attempted, failed


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, list]:
    passes: list[dict] = []
    setups: list[float] = []
    took: list[float] = []
    start = time.monotonic()
    while len(passes) < MAX_PASSES:
        t0 = time.monotonic()
        res = spawn(workload, seed, len(passes), trace=False)
        took.append(time.monotonic() - t0)
        passes.append(res)
        setups.append(res["setup_s"])
        # another pass only if at least half of it fits in the budget, so
        # the pass count does not flip with small changes in speed
        if time.monotonic() - start + statistics.median(took) / 2 > seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, -1, trace=False)["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "ops_per_s": (sum(p["throughput"] for p in passes)
                      / sum(p["cpu_s"] for p in passes)),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    return metrics, passes


def trace_run(workload: str, seed: int) -> tuple[dict, list]:
    plain = spawn(workload, seed, 0, trace=False)
    traced = spawn(workload, seed, 0, trace=True)
    layers = dict(traced["layers"])
    wall = traced["wall_s"]
    covered = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    layers["trace.wall_s"] = wall
    layers["trace.overhead_s"] = wall - plain["wall_s"]
    layers["trace.glue_s"] = wall - covered
    return layers, [plain, traced]


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def describe(workload: str, passes: list[dict], attempted: int,
             failed: int) -> list[str]:
    """Figures beside the JSON result: latency by op kind, the raw CPU and
    wall time and the host scale of a pass, failures."""
    by_kind: dict[str, list[float]] = {}
    for res in passes:
        for kind, sec in res["latency"]:
            by_kind.setdefault(kind, []).append(sec)
    lines = [f"# {workload}: {len(passes)} pass(es), ops_per_s counts "
             f"{OPS_UNIT[workload]}"]
    for kind, secs in by_kind.items():
        lines.append(f"{kind}_s {statistics.median(secs):.6g} s "
                     f"(CPU, median of {len(secs)})")
    for key, what in (("wall_s", "wall"), ("raw_cpu_s", "raw_cpu"),
                      ("host_scale", "host_scale")):
        mid = statistics.median(p[key] for p in passes)
        lines.append(f"pass_{what} {mid:.6g} (median of {len(passes)})")
    lines.append(f"failed_frac {failed / attempted:.6g} ratio "
                 f"({failed} of {attempted})")
    return lines


def record() -> None:
    """Write reference.json from every distinct pass at DEFAULT_SEED."""
    ref = {}
    for workload in WORKLOADS:
        first = spawn(workload, DEFAULT_SEED, 0, trace=False)
        runs = [first]
        while len(runs) < first["distinct_passes"]:
            runs.append(spawn(workload, DEFAULT_SEED, len(runs), False))
        ref[workload] = {
            "seed": DEFAULT_SEED if first["seeded"] else None,
            "passes": {str(r["key"]): r["digests"] for r in runs},
        }
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite reference.json and exit")
    args = ap.parse_args(argv)
    try:
        if args.record:
            record()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        if args.trace:
            metrics, passes = trace_run(args.workload, args.seed)
        else:
            metrics, passes = measure(args.workload, args.seed, args.seconds)
    except HarnessError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    attempted, failed = count_failed(args.workload, args.seed, passes,
                                     load_reference())
    timed = passes[:1] if args.trace else passes    # untraced passes only
    for line in describe(args.workload, timed, attempted, failed):
        print(line)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
