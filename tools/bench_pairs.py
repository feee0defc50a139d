"""Paired benchmark runs of two source checkouts.

    python3 tools/bench_pairs.py PARENT CHANGE --label L --describe TEXT

Runs ``perfbench/run.py`` in the checkout ``PARENT`` and in the checkout
``CHANGE``, one run at a time, with the same workload and seed on both
sides of a pair.  Pairs alternate which side runs first.  The workloads,
the run length and the direction in which each metric is better come from
``BENCHMARK.json`` of ``CHANGE``.  Each workload gets ``PAIRS`` plain pairs
and ``TRACED_PAIRS`` traced pairs.  Workload ``i`` of ``w`` runs its plain
pairs on seeds ``1001 + 100 i`` onwards and its traced pairs on seeds
``1001 + 100 (w + i)`` onwards.

Writes ``BENCH_<label>.json`` to the current directory: ``summary`` and
``traced`` give, per workload and metric, the median and quartiles of each
side and the number of pairs in which the change reads better or worse;
``runs`` keeps the last line of every run.  Progress goes to stderr.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List

SIDES = ("parent", "change")
FIRST_SEED = 1001
PAIRS = 10
TRACED_PAIRS = 3


def run_once(checkout: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The JSON object that ``perfbench/run.py`` prints last."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{checkout}: {' '.join(cmd)} printed no result "
                         f"(exit {proc.returncode}): {proc.stderr.strip()}")


def quartiles(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarise(runs: List[dict], workload: str, trace: int,
              better: Dict[str, str]) -> dict:
    """Per metric, both sides' quartiles and the pairs each side wins."""
    by_pair = {(r["seed"], r["side"]): r["result"] for r in runs
               if r["workload"] == workload and r["trace"] == trace}
    seeds = sorted({seed for seed, _ in by_pair})
    out: dict = {
        "pairs": len(seeds),
        "seeds": seeds,
        "failed": {s: sum(by_pair[k, s]["failed"] for k in seeds) for s in SIDES},
        "attempted": {s: sum(by_pair[k, s]["attempted"] for k in seeds) for s in SIDES},
    }
    names = [name for name in by_pair[seeds[0], "parent"]["metrics"]
             if all(name in res["metrics"] for res in by_pair.values())]
    for name in names:
        values = {s: [by_pair[k, s]["metrics"][name]["value"] for k in seeds]
                  for s in SIDES}
        sign = -1 if better.get(name, "lower") == "lower" else 1
        diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        medians = {s: statistics.median(values[s]) for s in SIDES}
        out[name] = {
            "unit": by_pair[seeds[0], "parent"]["metrics"][name]["unit"],
            "parent": quartiles(values["parent"]),
            "change": quartiles(values["change"]),
            "change_better_pairs": sum(d > 0 for d in diffs),
            "change_worse_pairs": sum(d < 0 for d in diffs),
            "ratio_of_medians": (round(medians["change"] / medians["parent"], 4)
                                 if medians["parent"] else None),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    parser.add_argument("--describe", required=True, help="what the change does")
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]
    checkouts = {"parent": args.parent, "change": args.change}

    runs: List[dict] = []
    for trace, pairs, offset in ((0, PAIRS, 0), (1, TRACED_PAIRS, len(workloads))):
        for i, workload in enumerate(workloads):
            for k in range(pairs):
                seed = FIRST_SEED + 100 * (offset + i) + k
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                for side in order:
                    result = run_once(checkouts[side], workload, seed, seconds, trace)
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "first": order[0], "trace": trace, "result": result})
                    print(f"{workload} seed {seed} trace {trace} {side}: "
                          f"failed {result['failed']} of {result['attempted']}",
                          file=sys.stderr)

    record = {
        "label": args.label,
        "change": args.describe,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds}"
                   " --trace 0|1",
        "method": "parent and change from separate checkouts, one run at a time, pairs "
                  "alternating which side runs first; median and quartiles over the pairs",
        "machine": f"{os.cpu_count()} cores, {platform.system()} {platform.machine()}, "
                   f"Python {platform.python_version()}",
        "summary": {w: summarise(runs, w, 0, better) for w in workloads},
        "traced": {w: summarise(runs, w, 1, better) for w in workloads},
        "runs": runs,
    }
    out = f"BENCH_{args.label}.json"
    with open(out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
