"""Run one XMark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload xmark-serve --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with every layer wrapped (see ``tracing.py``) and prints the
per-layer metrics instead.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it, ``detail: {...}``, carries workload-specific figures.
The program is imported from ``src/`` of the same checkout; without it
the run fails with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: error: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"run.py: error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass
    problems = list(outcome.problems)
    if tracer is None:
        values = outcome.metrics()
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = {"setup_s": "s", "latency_p50_ms": "ms",
                 "throughput_qps": "queries/s", "peak_rss_mb": "MB"}
    else:
        tracer.uninstall()
        values, trace_problems = tracer.report(args.workload, outcome.ops)
        problems += trace_problems
        units = tracing.PER_LAYER
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print("detail: " + json.dumps(outcome.detail, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
