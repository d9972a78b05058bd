#!/usr/bin/env python3
"""Fast self-test of the harness, in a second or two:

    python3 perfbench/selftest.py

Checks the span self-time arithmetic on a synthetic span tree, that one
altered output trips the digest comparison, and that a raised
VerificationFailed is counted as a failed op instead of propagating.
Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import sys

import run
import spans
import worker

worker.load_program()

import workloads  # noqa: E402  (needs the program on the path)
from scgames.notation import parse_game  # noqa: E402


def check_span_arithmetic() -> None:
    # A [0,10] holds B [1,4] and D [5,9]; B holds C [2,3].
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    rec = spans.Recorder(clock=lambda: next(ticks))
    for step in ("A", "B", "C", None, None, "D", None, None):
        rec.enter(step) if step else rec.exit()
    assert dict(rec.self_s) == {"A": 3.0, "B": 2.0, "C": 1.0, "D": 4.0}, \
        dict(rec.self_s)
    assert dict(rec.calls) == {"A": 1, "B": 1, "C": 1, "D": 1}

    # a recursive entry point gives one span per outermost call
    rec = spans.Recorder()

    def countdown(n):
        return 0 if n == 0 else 1 + traced(n - 1)
    traced = spans.span(rec, "f", countdown)
    assert traced(5) == 5 and traced(2) == 2
    assert rec.calls["f"] == 2 and not rec.open


def check_digest_trips() -> None:
    texts = ["{a|bot}", "{top|{b|bot}}", "a"]
    ref = {"w": {"seed": 7, "passes": {"0": [workloads.digest(t)
                                             for t in texts]}}}

    def result(outs):
        return {"key": 0, "failed": 0, "attempted": len(outs),
                "digests": [workloads.digest(t) for t in outs]}
    assert run.count_failed("w", 7, [result(texts)], ref) == (3, 0)
    altered = ["{a|bot}", "{top|{a|bot}}", "a"]
    assert run.count_failed("w", 7, [result(altered)], ref) == (3, 1)
    # another seed has no reference, but passes of one input must agree
    assert run.count_failed("w", 8, [result(texts), result(altered)],
                            ref) == (6, 1)


def check_failure_is_counted() -> None:
    w = workloads.RealizeVerify()
    g = parse_game("{a|bot}", workloads.P4)
    pool = {k: [g] * (n * w.distinct_passes) for k, n in w.per_pass.items()}
    real = workloads.realize_mod.realize

    def broken(ctx, G, **kw):
        raise workloads.realize_mod.VerificationFailed("injected")
    workloads.realize_mod.realize = broken
    log = io.StringIO()
    try:
        with contextlib.redirect_stderr(log):
            done = [workloads.run_op(kind, thunk)
                    for kind, thunk in w.ops(pool, 0)]
    finally:
        workloads.realize_mod.realize = real
    texts, bad = w.outputs(pool, done)
    assert len(done) == sum(w.per_pass.values())
    assert not any(op.ok for op in done) and texts == ["raised"] * len(done)
    assert bad == 0   # the raise is the failure; no output to judge
    assert log.getvalue().count("VerificationFailed: injected") == len(done)


def main() -> int:
    for check in (check_span_arithmetic, check_digest_trips,
                  check_failure_is_counted):
        check()
        print(f"ok {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
