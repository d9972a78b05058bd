"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED INDEX TRACE

run.py starts this once per pass so that the global intern table and every
SolverContext memo start cold, as for a user running one scgames command.
Set-up time is the CPU time of this process up to the first timed call:
interpreter start, import and seeded input generation.  INDEX -1 sets up
and stops.

Timings are CPU seconds of this process's one thread, so time the host
gives to other work does not count, scaled to a fixed host speed by
hostspeed.Sampler (with TRACE 0).  The raw CPU and wall time of the pass are
reported beside them.  Prints one JSON line: timings, per-op latencies,
output digests, the count of failed ops, and with TRACE 1 the per-layer
figures.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_program():
    """Import scgames from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import scgames
    if Path(scgames.__file__).resolve().parent != SRC / "scgames":
        raise ImportError(f"scgames came from {scgames.__file__}, "
                          f"not from {SRC}")


def run(workload: str, seed: int, index: int, trace: bool) -> dict:
    sampler = hostspeed.Sampler()
    if not trace:       # spans time the traced pass by the wall clock
        sampler.start()
    load_program()
    import spans
    from scgames import games
    from workloads import WORKLOADS, digest, realize_mod, run_op

    w = WORKLOADS[workload]
    inputs = w.setup(seed)
    ops = w.ops(inputs, index) if index >= 0 else []
    setup_s = sampler.clock()
    if index < 0:
        sampler.stop()
        return {"setup_s": setup_s * sampler.scale()}

    rec = spans.Recorder()
    inst = spans.install(rec) if trace else None
    interned = len(games._GAMES)
    start, cpu_start = time.perf_counter(), sampler.clock()
    done = [run_op(kind, thunk, sampler.clock) for kind, thunk in ops]
    cpu = sampler.clock() - cpu_start
    wall = time.perf_counter() - start
    sampler.stop()
    scale = sampler.scale()
    interned = len(games._GAMES) - interned
    if inst:
        inst.remove()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    try:
        texts, bad = w.outputs(inputs, done)
        failed = sum(not op.ok for op in done) + bad
    except Exception:   # a check that cannot run fails the pass, not the run
        traceback.print_exc(file=sys.stderr)
        texts, failed = ["check raised"], w.attempted(done)
    out = {
        "setup_s": setup_s * scale,
        "cpu_s": cpu * scale,
        "raw_cpu_s": cpu,
        "wall_s": wall,
        "host_scale": scale,
        "rss_mb": rss_mb,
        "throughput": w.throughput(done),
        "attempted": w.attempted(done),
        "failed": failed,
        "key": index % w.distinct_passes,
        "distinct_passes": w.distinct_passes,
        "seeded": w.seeded,
        "latency": [[op.kind, op.seconds * scale] for op in done],
        "digests": [digest(t) for t in texts],
    }
    if trace:
        layers = spans.layer_metrics(rec)
        layers["games.interned"] = interned
        labels = [op.result.verified.value for op in done
                  if isinstance(op.result, realize_mod.RealizationReport)]
        for label in ("brute_force", "compositional"):
            layers[f"realize.{label}.count"] = labels.count(label)
        out["layers"] = layers
    return out


def main(argv: list[str]) -> int:
    workload, seed, index, trace = argv
    res = run(workload, int(seed), int(index), trace == "1")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
