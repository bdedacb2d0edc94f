"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exec_dispatch --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` installs span
wrappers at the layer boundaries and reports the per-layer metrics instead
(see ``perfbench/metrics.py`` and ``perfbench/README.md``).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the same
figures for people, the run's provenance and any failed operation.

Each run works in a private directory under ``.perfbench_tmp/`` in the
checkout (artifact caches, service state, temporary files) and removes it
at exit.  Variables that would change what is measured (``REPRO_FAULTS``,
``REPRO_EXEC_BACKEND``, ``REPRO_EXEC_INLINE``, ``REPRO_GUARD*``,
``REPRO_NUM_THREADS``, ``REPRO_NATIVE_CACHE``) are dropped first.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    from perfbench.metrics import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def isolate(scratch: Path) -> list:
    """Scrub the environment and keep every temporary file in ``scratch``."""
    from perfbench.common import scrub_environment

    dropped = scrub_environment(os.environ)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    # NumPy references run in this process: keep OpenBLAS from starting a
    # thread pool that would compete with the measured kernels
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    return dropped


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}-{time.time_ns()}"
    scratch.mkdir(parents=True)
    dropped = isolate(scratch)
    try:
        return measure(args, scratch, dropped)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()


def at_reference_speed(run, result: dict) -> dict:
    """The end-to-end metrics with times taken to the reference CPU speed
    (see ``perfbench/common.py``); memory is reported as measured."""
    setup, measure = run.scale("setup"), run.scale("measure")
    return {
        "setup_s": result["setup_s"] * setup,
        "op_ms_p50": result["op_ms_p50"] * measure,
        "ops_per_s": result["ops_per_s"] / measure,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def measure(args, scratch: Path, dropped: list) -> int:
    from perfbench.common import Run, provenance
    from perfbench.metrics import END_TO_END, PER_LAYER

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, scratch)
    workload = importlib.import_module(f"perfbench.workloads.{args.workload}")
    t0 = time.perf_counter()
    result = workload.run(run)
    wall = time.perf_counter() - t0

    if args.trace:
        values = {name: 0.0 for name, *_ in PER_LAYER}
        values.update(run.layers)
        values.update(result.get("server_layers", {}))
        values.update(result["views"])
        values["trace.op_ms_p50"] = result["op_ms_p50"] * run.scale("measure")
        units = {name: unit for name, unit, *_ in PER_LAYER}
    else:
        values = at_reference_speed(run, result)
        units = {name: unit for name, unit, *_ in END_TO_END}
    unknown = set(values) - set(units)
    if unknown:
        raise RuntimeError(f"metrics missing from the catalogue: {sorted(unknown)}")

    info = provenance()
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                wall_s=wall, dropped_env=dropped)
    print(f"provenance {json.dumps(info, sort_keys=True)}")
    if "detail" in result:
        print(f"detail {json.dumps(result['detail'], sort_keys=True)}")
    if not args.trace:
        print(f"  (speed scale: setup {run.scale('setup'):.4f}, measure {run.scale('measure'):.4f}; "
              f"as measured: setup_s {result['setup_s']:.6g} s, op_ms_p50 {result['op_ms_p50']:.6g} ms, "
              f"ops_per_s {result['ops_per_s']:.6g} 1/s)")
        for name, value in result["views"].items():
            print(f"  ({name:<30} {value:.6g})")
    for name in units:
        print(f"  {name:<32} {values[name]:>14.6g} {units[name]}")
    print(f"  attempted {run.attempted}, failed {run.failed}")
    for what in run.failures:
        print(f"  failed: {what}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
