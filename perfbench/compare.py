"""Steadiness checks and paired parent/change comparisons.

    # run-to-run spread of one checkout: N seeds per workload
    python3 perfbench/compare.py spread --runs 10 [--workloads a,b] [CHECKOUT]

    # a change against its parent, following the choosing-metrics rules
    python3 perfbench/compare.py pair --parent PARENT --change CHANGE --pairs 10

Both modes run ``perfbench/run.py`` with the run length of ``BENCHMARK.json``
and read the bounds from it.  ``pair`` copies this benchmark (``perfbench/``
and ``BENCHMARK.json``) into both checkouts first, so both sides run
identical benchmark code.  For every workload it makes ``--pairs`` pairs of
runs, one seed per pair, alternating which side runs first, and prints one
row per (workload, metric): each side's median and quartiles, the change's
wins, and a verdict:

* ``gain``       -- the change wins at least 9/10 of the pairs (ties count
  for neither) and the medians differ by more than the parent's IQR;
* ``regression`` -- the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` -- the parent's spread (IQR / median) is wider than the
  bound, unless every change run beats every parent run;
* ``same``       -- none of the above.

It also compares the failed share (failed / attempted) of both sides.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
REPO = HERE.parent


def load_spec(root: Path = REPO) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def bench_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """One run of the benchmark in ``checkout``; its result object."""
    spec = load_spec(checkout)
    cmd = [sys.executable] + spec["command"][1:] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=1200)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} exited {out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:  # the figures before scaling to the reference speed
        if "as measured:" in line:
            pairs = line.split("as measured:")[1].strip(" )").split(",")
            result["as_measured"] = {p.split()[0]: float(p.split()[1]) for p in pairs}
    return result


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(args) -> int:
    checkout = Path(args.checkout).resolve()
    spec = load_spec(checkout)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    worst = 0.0
    for workload in workloads:
        values: Dict[str, List[float]] = {}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.perf_counter()
            res = bench_once(checkout, workload, seed, spec["run_seconds"])
            walls.append(time.perf_counter() - t0)
            if not res["correct"]:
                print(f"{workload} seed {seed}: {res['failed']}/{res['attempted']} failed")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, v in res.get("as_measured", {}).items():
                values.setdefault(f"{name} (as measured)", []).append(v)
        for name, vs in values.items():
            q1, q2, q3 = quartiles(vs)
            share = (q3 - q1) / q2
            bound = bounds.get(name.split()[0], 0.0)
            flag = "" if name.startswith("setup_s") or share < bound / 3 else "  <-- above bound/3"
            if name in bounds and name != "setup_s":
                worst = max(worst, share / bound)
            print(f"{workload:<14} {name:<12} median {q2:12.6g}  iqr/median {share:7.4f}  bound {bound:.2f}{flag}")
            print(f"{'':<14} {'':<12} values {json.dumps([round(v, 6) for v in vs])}")
        print(f"{workload:<14} wall seconds per run: max {max(walls):.1f}, median {statistics.median(walls):.1f}")
        sys.stdout.flush()
    print(f"worst spread as a share of its bound: {worst:.3f}")
    return 0


def sync_benchmark(checkout: Path) -> None:
    if checkout == REPO:
        return
    target = checkout / "perfbench"
    if target.exists():
        shutil.rmtree(target)
    shutil.copytree(HERE, target, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(REPO / "BENCHMARK.json", checkout / "BENCHMARK.json")


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> Tuple[str, int]:
    """The verdict on one metric and the change's wins over the pairs."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, p2, p3 = quartiles(parent)
    c2 = statistics.median(change)
    if wins >= 0.9 * len(parent) and abs(c2 - p2) > p3 - p1:
        return "gain", wins
    every_run_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (p3 - p1) / p2 > bound and not every_run_better:
        return "unresolved", wins
    if -sign * (c2 - p2) / p2 > bound:
        return "regression", wins
    return "same", wins


def pair(args) -> int:
    parent, change = Path(args.parent).resolve(), Path(args.change).resolve()
    for side in (parent, change):
        sync_benchmark(side)
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    status = 0
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for k in range(args.pairs):
            seed = args.first_seed + k
            order = [("parent", parent), ("change", change)]
            if k % 2:
                order.reverse()
            for label, side in order:
                runs[label].append(bench_once(side, workload, seed, spec["run_seconds"]))
        for label in ("parent", "change"):
            att = sum(r["attempted"] for r in runs[label])
            bad = sum(r["failed"] for r in runs[label])
            print(f"{workload:<14} failed share {label:<6} {bad}/{att} = {bad / att:.4f}")
        for name, m in metrics.items():
            pv = [r["metrics"][name]["value"] for r in runs["parent"]]
            cv = [r["metrics"][name]["value"] for r in runs["change"]]
            v, wins = verdict(pv, cv, m["better"], m["bound"])
            if v == "regression":
                status = 1
            pq, cq = quartiles(pv), quartiles(cv)
            print(
                f"{workload:<14} {name:<12} parent {pq[1]:11.5g} [{pq[0]:.5g}, {pq[2]:.5g}]  "
                f"change {cq[1]:11.5g} [{cq[0]:.5g}, {cq[2]:.5g}]  wins {wins}/{len(pv)}  {v}"
            )
        sys.stdout.flush()
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="mode", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("checkout", nargs="?", default=str(REPO))
    sp.add_argument("--runs", type=int, default=10)
    sp.add_argument("--first-seed", type=int, default=1)
    sp.add_argument("--workloads", default="")
    pp = sub.add_parser("pair")
    pp.add_argument("--parent", required=True)
    pp.add_argument("--change", required=True)
    pp.add_argument("--pairs", type=int, default=10)
    pp.add_argument("--first-seed", type=int, default=101)
    pp.add_argument("--workloads", default="")
    args = ap.parse_args(argv)
    return spread(args) if args.mode == "spread" else pair(args)


if __name__ == "__main__":
    sys.exit(main())
