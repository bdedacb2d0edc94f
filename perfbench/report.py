"""The trace report: per-layer self time and counts, and tracing overhead.

    python3 perfbench/report.py [--seed 1] [--seconds 15] [--workloads a,b]

For each workload it makes one untraced and one traced run with the same
seed, prints every non-zero per-layer metric of the traced run grouped by
layer, and the tracing overhead: the traced run's median operation latency
over the untraced run's, minus one.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.compare import REPO, bench_once, load_spec  # noqa: E402


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args(argv)

    for workload in args.workloads.split(","):
        plain = bench_once(REPO, workload, args.seed, args.seconds, trace=0)
        traced = bench_once(REPO, workload, args.seed, args.seconds, trace=1)
        m = traced["metrics"]
        print(f"== {workload} (seed {args.seed}, {traced['attempted']} traced operations)")
        print(f"   {'layer':<12} {'metric':<28} {'value':>14}  unit")
        for name, v in m.items():
            if v["value"] == 0:
                continue
            layer, _, metric = name.partition(".")
            print(f"   {layer:<12} {metric:<28} {v['value']:>14.6g}  {v['unit']}")
        base = plain["metrics"]["op_ms_p50"]["value"]
        with_trace = m["trace.op_ms_p50"]["value"]
        print(f"   tracing overhead on op_ms_p50: {with_trace:.6g} ms traced / {base:.6g} ms untraced "
              f"= {with_trace / base - 1:+.1%}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
