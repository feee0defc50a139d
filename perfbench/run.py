"""The tricross benchmark.

    python3 perfbench/run.py --workload census-n3 --seed 1 --seconds 20 --trace 0

Runs one workload in a fresh single-threaded process, checks its outputs
and prints, as the last line of standard output, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Set-up
is measured in several fresh processes and reported as their median.  Run
it from the root of a source checkout; it imports ``tricross`` from ``src``
and writes only under ``.bench_out``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("census-n3", "projections-n4", "invariants-n4")
# Fresh processes that only set up, besides the measuring one.
SETUP_PROBES = 4
# All processes of a run must end well within the 180 s a run may take.
TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "op_ms_p50": "ms", "op_ms_p90": "ms"}


def worker(args, setup_only: bool, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.time())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tricross", "__init__.py")):
        print(f"run.py: no tricross sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + TIMEOUT_S
    try:
        setups = [] if args.trace else [
            worker(args, True, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        res = worker(args, False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"run.py: {args.workload}: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = res["metrics"]
    else:
        res["setup_s"] = statistics.median(setups + [res["setup_s"]])
        metrics = {name: {"value": res[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(f"{args.workload} seed {args.seed}: {res['rounds']} rounds, "
          f"{res['attempted']} operations, {res['failed']} failed")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        print(f"  spans written to {os.path.relpath(res['spans_file'], ROOT)}")
    correct = res["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
