"""Run each workload repeatedly and report how steady its metrics are.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 [--workloads xmark-cold,xmark-serve]
                                [--first-seed 1] [--traced 1]

Each run is its own process (``run.py``) with its own seed.  For every
metric the report gives the median, the quartiles (``statistics.
quantiles(n=4)``), the range, and the spread: the distance between the
quartiles as a share of the median.  End-to-end metrics are compared
with a third of their bound in ``BENCHMARK.json``.  The counts of failed
against attempted operations are listed per run.  ``--traced N`` adds N
traced runs per workload and reports the tracing overhead: the traced
median operation time over the untraced ``latency_p50_ms`` median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run's final JSON object and its ``detail`` line."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {completed.returncode}:\n"
                         f"{completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    detail = {}
    for line in lines:
        if line.startswith("detail: "):
            detail = json.loads(line[len("detail: "):])
    return json.loads(lines[-1]), detail


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0,
    }


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", type=int, default=0)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        results, details = [], []
        for k in range(args.runs):
            result, detail = run_once(workload, args.first_seed + k, args.seconds, 0)
            results.append(result)
            details.append(detail)
        print(f"== {workload}: {args.runs} runs of {args.seconds} s, seeds "
              f"{args.first_seed}..{args.first_seed + args.runs - 1}")
        print("   failed/attempted: " + " ".join(
            f"{r['failed']}/{r['attempted']}" for r in results))
        shares = {r["failed"] / r["attempted"] for r in results}
        wrong = [k for k, r in enumerate(results) if not r["correct"]]
        print(f"   failed share identical: {len(shares) == 1}; incorrect runs: {wrong or 'none'}")
        steady &= len(shares) == 1 and not wrong
        print(f"   {'metric':<24}{'median':>12}{'q1':>12}{'q3':>12}{'min':>12}"
              f"{'max':>12}{'spread':>9}{'bound/3':>9}")
        rows = {name: [r["metrics"][name]["value"] for r in results]
                for name in results[0]["metrics"]}
        for key in details[0]:
            rows["detail:" + key] = [d[key] for d in details]
        for name, values in rows.items():
            stats = summarize(values)
            third = bounds[name] / 3 if name in bounds else None
            flag = ""
            if third is not None and name != "setup_s":
                flag = " ok" if stats["spread"] <= third else " WIDE"
                steady &= stats["spread"] <= third
            print(f"   {name:<24}{stats['median']:>12.4f}{stats['q1']:>12.4f}"
                  f"{stats['q3']:>12.4f}{stats['min']:>12.4f}{stats['max']:>12.4f}"
                  f"{stats['spread']:>9.3f}"
                  f"{'' if third is None else format(third, '>9.3f')}{flag}")
        if args.traced:
            traced = [run_once(workload, args.first_seed + k, args.seconds, 1)[0]
                      for k in range(args.traced)]
            op_p50 = statistics.median(t["metrics"]["trace.op_p50_ms"]["value"] for t in traced)
            untraced = statistics.median(rows["latency_p50_ms"])
            print(f"   traced runs correct: {[t['correct'] for t in traced]}; "
                  f"tracing overhead (traced/untraced p50): {op_p50 / untraced:.3f}")
            for name, metric in traced[0]["metrics"].items():
                print(f"   trace {name:<30}{metric['value']:>14.4f} {metric['unit']}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
