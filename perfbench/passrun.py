"""One pass of one workload, in the interpreter that runs this file.

    python3 perfbench/passrun.py --workload W --seed N [--trace FILE] [--setup-only]

Started by ``run.py`` once per pass, so every pass begins with cold library
caches, as a command-line invocation does.  Sets up (imports, input
generation, monoid building), times each operation, checks each answer after
its timer stops, and prints one JSON line: the moment set-up ended on the
monotonic clock (the parent subtracts its own start time), the pass's wall
time, per-op latencies, failures, peak RSS and, when traced, the per-layer
metrics.  With ``--trace`` the spans are written to FILE when the pass ends.

An untraced pass runs a ``refload.Sampler`` from its first line to its last,
and reports its latencies and set-up at the reference speed; see
``refload``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import refload  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", metavar="FILE")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # untraced passes sample the host's speed throughout, from before the
    # library is imported; traced passes do not, so that no reference work
    # lands in the spans
    sampler = None if args.trace else refload.Sampler()
    with sampler or contextlib.nullcontext():
        result, setup, spans = run_pass(args)
    if sampler is None:
        raw = ref = [t1 - t0 for t0, t1 in spans]
    else:
        result["setup_chunk_s"] = sampler.chunk_time(*setup)
        raw = [t1 - t0 - sampler.chunk_time(t0, t1) for t0, t1 in spans]
        ref = [sampler.reference_time(t0, t1) for t0, t1 in spans]
    if not args.setup_only:
        # op_ms at the reference speed when sampled, raw_ms as measured,
        # less the reference chunks that ran inside the op
        result.update(wall_s=sum(ref), op_ms=[t * 1000 for t in ref],
                      raw_ms=[t * 1000 for t in raw])
    print(json.dumps(result))
    return 0


def run_pass(args):
    """Set up, run the ops and report; also the set-up window and op spans."""
    setup_t0 = time.perf_counter()
    import workloads  # imports the library from the source tree
    from spans import Tracer
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    ops = workloads.prepare(args.workload,
                            workloads.generate(args.workload, args.seed))
    result = {"ready_at": time.monotonic()}
    setup = (setup_t0, time.perf_counter())
    spans = []
    if not args.setup_only:
        spans, result["failures"] = run_ops(ops, tracer)
        result["rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.report()
        tracer.dump(args.trace)
    return result, setup, spans


def run_ops(ops, tracer):
    """Run the ops closed-loop, one after another; check each afterwards.

    Returns each op's (start, end) on ``perf_counter`` and the failures.
    """
    spans, failures = [], []
    clock = time.perf_counter
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            answer = op.run()
        except Exception as e:  # a raising op is a failed op, not a crash
            answer, error = None, f"{op.label}: {type(e).__name__}: {e}"
        else:
            error = None
        spans.append((t0, clock()))
        if error is None:
            error = op.check(answer)
        if error is not None:
            failures.append(error)
    return spans, failures

if __name__ == "__main__":
    sys.exit(main())
