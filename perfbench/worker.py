"""One measuring process of the benchmark; ``run.py`` starts it.

Sets up one workload, runs whole rounds of its operations until the run's
seconds are spent, checks every output outside the timed region, and prints
one JSON object as its last line of output.  With ``--setup-only`` it stops
after set-up and reports only the set-up time.  With ``--trace 1`` every
round is traced and it reports the per-layer metrics instead of the
end-to-end ones.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_round(ops, tracer):
    """Run one round; returns each operation's latency and failures.  With a
    tracer, each operation runs traced, as the root span of its calls."""
    latencies, failures = [], []
    for op in ops:
        with tracer or contextlib.nullcontext():
            if tracer is not None:
                op = tracer.wrap("op", op)
            start = time.perf_counter()
            try:
                out, check = op()
                problems = None
            except Exception as exc:  # the operation failed; record and go on
                problems = [f"operation raised {exc!r}"]
            latencies.append(time.perf_counter() - start)
        if problems is None:
            try:
                problems = check(out)
            except Exception as exc:  # a check that cannot run fails its operation
                problems = [f"check raised {exc!r}"]
        failures.append(problems)
    if tracer is not None:
        tracer.end_round()
    return latencies, failures


def percentile(values, k):
    """The k-th of the 9 cut points that split ``values`` into tenths."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.time() when the parent started this process")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads
    from tracing import LAYER_METRICS, Tracer

    workdir = tempfile.mkdtemp(prefix="work-", dir=args.out_dir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        ops = workload.round_ops()
        setup_s = time.time() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.calibrate()
        walls, latencies, failures = [], [], []
        start = time.perf_counter()
        # Whole rounds until the run's seconds are spent: the machine's speed
        # drifts over minutes, so a longer run steadies the medians.
        while not walls or time.perf_counter() - start < args.seconds:
            lat, fails = run_round(ops, tracer)
            walls.append(sum(lat))
            latencies.extend(lat)
            failures.extend(fails)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [f for f in failures if f]
    for problems in failed[:5]:
        print("FAILED: " + "; ".join(problems[:3]), file=sys.stderr)
    result = {"attempted": len(failures), "failed": len(failed), "rounds": len(walls)}
    if tracer is None:
        ms = [1000 * x for x in latencies]
        result.update({
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "op_ms_p50": statistics.median(ms),
            "op_ms_p90": percentile(ms, 9),
        })
    else:
        layers = tracer.layer_metrics(len(walls), statistics.mean(walls))
        result["metrics"] = {name: {"value": value, "unit": LAYER_METRICS[name]}
                             for name, value in layers.items()}
        spans = os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans)
        result["spans_file"] = spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
