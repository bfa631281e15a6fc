"""Layered benchmark for taumonoid: one command, four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json says why each was chosen):

* ``corpus``        every non-slow claim of the paper corpus via ``run_claim``
* ``construct``     Rees quotients of seeded words, J-triviality, aperiodicity
                    and the reversal anti-isomorphism
* ``scan-holds``    full identity scans that end in "holds"
* ``scan-violates`` identity scans that stop at the lex-first witness

Closed loop, one client: a run is a sequence of passes, each in a fresh
interpreter (``passrun.py``) so that the library's caches start cold, one
after another and never concurrently.  Passes repeat the same inputs until
``--seconds`` would be exceeded (at least ``MIN_PASSES``); extra
set-up-only interpreters bring the set-up samples to ``SETUP_SAMPLES``.

Each op's latency is its median over the run's passes, taken at the
reference speed (``refload``): the shared 2-CPU x86-64 virtual machine this
was measured on switches between speeds up to 1.8 times apart, for stretches
of seconds to minutes, so that the ten-run spread of a time as measured was
20-35% of its median whatever statistic summarised a run.  Each pass times a
fixed reference chunk every 5 ms from a timer signal, and each op's time,
less those chunks, is scaled by the reference speed around it.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (the sum of the ops'
latencies: the time to answer the whole question set), ``setup_s``
(median of interpreter start, imports, input generation and monoid
building, at the reference speed of the run's ops), ``op_ms_p50`` and
``op_ms_p90`` (over the ops' latencies; when fewer than ten ops lie beyond
p90 the highest percentile that has ten is used), ``peak_rss_mb`` (median
peak RSS of a pass) and ``ok_ratio`` (answers that passed their check over
ops attempted).  ``ok_ratio`` is
1 - failed_ratio: a bounded metric must never read 0, which the failed ratio
does on a correct program, so the failed ratio is printed only as a comment
line.  ``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics (median over traced passes), with ``trace.overhead_s`` =
traced minus untraced ``wall_s``, both as measured (traced passes run no
sampler, so that no reference work lands in their spans).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything else the
run produced (per-pass figures, spans, the machine's CPU count and the Python
and numpy versions) goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("corpus", "construct", "scan-holds", "scan-violates")
MIN_PASSES = 2
MAX_PASSES = 40
SETUP_SAMPLES = 5
# the whole run must end well inside the 180 s a run is allowed
DEADLINE_S = 170
TAIL_SAMPLES = 10


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "taumonoid" / "__init__.py").is_file():
        print(f"error: no taumonoid source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    started = time.monotonic()
    untraced, traced, setups = [], [], []
    longest = 0.0
    for i in range(MAX_PASSES):
        elapsed = time.monotonic() - started
        if i >= MIN_PASSES and elapsed + longest > args.seconds:
            break
        trace_file = None
        if args.trace and i % 2 == 1:
            trace_file = OUT / f"spans-{args.workload}-seed{args.seed}-pass{i}.json"
        res = run_pass(args.workload, args.seed, started, trace_file)
        longest = max(longest, time.monotonic() - started - elapsed)
        (traced if trace_file else untraced).append(res)
        if not trace_file:
            setups.append(res["setup_s"])
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_pass(args.workload, args.seed, started, None,
                               setup_only=True)["setup_s"])

    done = untraced + traced
    attempted = sum(len(r["op_ms"]) for r in done)
    failures = [f for r in done for f in r["failures"]]
    for f in failures[:20]:
        print(f"FAILED {f}")
    if args.trace:
        metrics = layer_metrics(untraced, traced)
    else:
        metrics = end_to_end_metrics(untraced, setups, attempted, len(failures))

    env = {"cpus": os.cpu_count(), "python": platform.python_version(),
           "numpy": metadata.version("numpy"), "platform": platform.platform()}
    print(f"# env {' '.join(f'{k}={v}' for k, v in env.items())}")
    print(f"# {args.workload} seed={args.seed} passes={len(done)} "
          f"ops={attempted} failed={len(failures)}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    summary = {"correct": not failures, "attempted": attempted,
               "failed": len(failures), "metrics": metrics}
    record = dict(summary, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, env=env,
                  setup_s=setups,
                  passes=[{k: v for k, v in r.items() if k != "layers"}
                          for r in done])
    out_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))
    print(json.dumps(summary))
    return 0


def run_pass(workload, seed, started, trace_file, setup_only=False) -> dict:
    """Run one pass in a fresh interpreter and return its parsed report."""
    cmd = [sys.executable, str(HERE / "passrun.py"),
           "--workload", workload, "--seed", str(seed)]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    if setup_only:
        cmd.append("--setup-only")
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise SystemExit("error: run exceeded its deadline")
    t0 = time.monotonic()
    # subprocess.run kills and reaps the child when the timeout expires
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=remaining)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: pass exited with code {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    # interpreter start counts; the reference chunks run during set-up do not
    res["setup_s"] = res.pop("ready_at") - t0 - res.pop("setup_chunk_s", 0.0)
    return res


def percentile(sorted_values, q: float) -> float:
    """Linear-interpolation percentile of an already sorted list."""
    pos = (len(sorted_values) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_quantile(n: int, wanted: float = 90.0) -> float:
    """The highest percentile <= ``wanted`` with ten samples beyond it."""
    return max(0.0, min(wanted, 100.0 * (1 - TAIL_SAMPLES / n)))


def op_latencies(passes, key="op_ms") -> list:
    """Each op's median latency (ms) over passes that ran the same inputs."""
    return [statistics.median(column)
            for column in zip(*(r[key] for r in passes))]


def end_to_end_metrics(passes, setups, attempted, failed) -> dict:
    lat = sorted(op_latencies(passes))
    q = tail_quantile(len(lat))
    # set-up is mostly interpreter start and imports, too short and too early
    # to be judged by the chunks that ran inside it: it is taken at the
    # speed of the run's ops instead
    speed = (sum(sum(r["op_ms"]) for r in passes)
             / sum(sum(r["raw_ms"]) for r in passes))
    print(f"# op latency: median of {len(passes)} passes for each of {len(lat)} "
          f"ops; op_ms_p90 is p{q:.1f}; reference speed {speed:.4f}")
    print(f"# failed_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    return {
        "wall_s": _m(sum(lat) / 1000, "s"),
        "setup_s": _m(statistics.median(setups) * speed, "s"),
        "op_ms_p50": _m(percentile(lat, 50), "ms"),
        "op_ms_p90": _m(percentile(lat, q), "ms"),
        "peak_rss_mb": _m(statistics.median(r["rss_mb"] for r in passes), "MB"),
        "ok_ratio": _m((attempted - failed) / attempted, "ratio"),
    }


def layer_metrics(untraced, traced) -> dict:
    out = {name: _m(statistics.median(r["layers"][name]["value"] for r in traced),
                    m["unit"])
           for name, m in traced[0]["layers"].items()}
    # as measured on both sides: traced passes run no reference sampler
    out["trace.overhead_s"] = _m(
        (sum(op_latencies(traced, "raw_ms"))
         - sum(op_latencies(untraced, "raw_ms"))) / 1000, "s")
    return out


def _m(value, unit) -> dict:
    return {"value": value, "unit": unit}


if __name__ == "__main__":
    sys.exit(main())
