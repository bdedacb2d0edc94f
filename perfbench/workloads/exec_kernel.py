"""``exec_kernel``: warm ``run_proc(backend="c")`` on kernel-bound sizes.

Four scheduled kernels, each at threads=1 and threads=``nproc`` (eight
legs): sgemm 512^3 (``schedule_sgemm``), blur 2048x2048 (``blur_schedule``),
sgemv_n 4096x4096 (``level2_schedule``) and saxpy 2^24
(``level1_schedule``).  At these sizes the kernel dominates each call, so
code quality, vector instructions and ``par`` loops set the time.  The
window is split evenly between the legs; both legs of a kernel share its
inputs, which the calls keep updating in place.  The first and the last
call of each leg are checked against NumPy (sgemm, blur) or ``repro.blas.reference``
applied to the exact pre-call state; the copies this takes stay outside the
timed calls.

OpenBLAS (``scipy.linalg.blas``) is timed on the shapes it provides (sgemm,
sgemv, saxpy) after the window, in a child process per thread count with
``OPENBLAS_NUM_THREADS`` pinned to it.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..common import Run, child_env, fallback_total, geomean, host_isas, machine, median, peak_rss_mb

SETUP_REPEATS = 3
SHAPES = {
    "sgemm": {"M": 512, "N": 512, "K": 512},
    "blur": {"H": 2048, "W": 2048},
    "sgemv_n": {"M": 4096, "N": 4096},
    "saxpy": {"n": 1 << 24},
}
SMALL = {
    "sgemm": {"M": 24, "N": 32, "K": 8},
    "blur": {"H": 32, "W": 256},
    "sgemv_n": {"M": 16, "N": 16},
    "saxpy": {"n": 64},
}


def flops(name: str, s: Dict[str, int]) -> float:
    """Analytic floating-point operations of one call."""
    from repro.blas import kernel_flops_bytes

    if name == "blur":  # two adds and a divide per element, per stage
        return 3.0 * (s["H"] + 2) * s["W"] + 3.0 * s["H"] * s["W"]
    return kernel_flops_bytes(name, s)[0]


def _isa():
    return machine("AVX512" if "AVX512" in host_isas() else "AVX2")


def schedule_all() -> dict:
    from repro.blas import LEVEL1_KERNELS, LEVEL2_KERNELS, level1_schedule, level2_schedule, schedule_sgemm
    from repro.halide import blur_schedule, make_blur

    isa = _isa()
    return {
        "sgemm": schedule_sgemm(isa),
        "blur": blur_schedule(isa).apply(make_blur()),
        "sgemv_n": level2_schedule("i", "f32", isa).apply(LEVEL2_KERNELS["sgemv_n"]),
        "saxpy": level1_schedule("i", "f32", isa).apply(LEVEL1_KERNELS["saxpy"]),
    }


def setup_once(r: Run) -> dict:
    """Schedule every kernel, compile it into an empty artifact cache and make
    its first (quarantined) call on small inputs."""
    import repro.interp as interp
    from repro.backend.native import clear_memo
    from repro.interp import make_random_args

    os.environ["REPRO_NATIVE_CACHE"] = r.fresh_dir("native")
    clear_memo()
    procs = schedule_all()
    for name, p in procs.items():
        interp.run_proc(p, backend="c", threads=1, **make_random_args(p, SMALL[name], seed=0))
    return procs


def reference(name: str) -> Callable[[Dict[str, object]], None]:
    """The NumPy semantics of each kernel, applied in place."""
    from repro.blas import level1_reference, level2_reference

    def blur(a):
        inp = a["inp"]
        bx = (inp[:, :-2] + inp[:, 1:-1] + inp[:, 2:]) / np.float32(3.0)
        a["out"][...] = (bx[:-2] + bx[1:-1] + bx[2:]) / np.float32(3.0)

    def sgemm(a):
        a["C"] += a["A"] @ a["B"]

    return {
        "sgemm": sgemm,
        "blur": blur,
        "sgemv_n": lambda a: level2_reference("sgemv_n", a),
        "saxpy": lambda a: level1_reference("saxpy", a),
    }[name]


def _outputs(name: str) -> Tuple[str, ...]:
    return {"sgemm": ("C",), "blur": ("out",), "sgemv_n": ("y",), "saxpy": ("y",)}[name]


def openblas(r: Run, threads: int, repeats: int) -> Dict[str, float]:
    """Median OpenBLAS seconds per kernel, timed in a pinned child process."""
    env = child_env(r.root, r.scratch, {"OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)})
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent.parent / "openblas_child.py"),
         "--seed", str(r.seed), "--repeats", str(repeats)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def run(r: Run) -> dict:
    import repro.interp as interp
    from repro.interp import make_random_args

    rng = random.Random(r.seed)
    procs, setups = r.timed_setups(lambda: setup_once(r), SETUP_REPEATS)

    nproc = os.cpu_count() or 1
    thread_counts = sorted({1, nproc})
    kernels = list(SHAPES)
    rng.shuffle(kernels)

    def call(name: str, args: dict, threads: int, check: bool) -> float:
        """One timed call; with ``check``, the outputs are compared with the
        reference applied to the pre-call state."""
        want = None
        if check:
            want = {k: (v.copy() if k in _outputs(name) else v) for k, v in args.items()}
            reference(name)(want)
        fallbacks = fallback_total()
        r.attempted += 1
        what = f"{name} {SHAPES[name]} threads={threads}"
        try:
            with r.op():
                t0 = time.perf_counter()
                interp.run_proc(procs[name], backend="c", threads=threads, **args)
                t1 = time.perf_counter()
        except Exception as exc:  # noqa: BLE001 - any raise is a failed call
            r.fail(f"{what}: {type(exc).__name__}: {exc}")
            return -1.0
        if fallback_total() != fallbacks:
            r.fail(f"{what}: degraded off backend c")
        elif want is not None:
            for k in _outputs(name):
                if not np.allclose(args[k], want[k], rtol=1e-3, atol=1e-3):
                    r.fail(f"{what}: output {k!r} differs from the NumPy reference")
        return t1 - t0

    per_leg: Dict[Tuple[str, int], List[float]] = {}
    budget = r.seconds / (len(kernels) * len(thread_counts))
    with r.window():
        for name in kernels:
            # one kernel's inputs live at a time: the large shapes take
            # hundreds of MiB together
            args = make_random_args(procs[name], SHAPES[name], seed=rng.randrange(2**31))
            for threads in rng.sample(thread_counts, len(thread_counts)):
                times = per_leg[(name, threads)] = []
                end = time.perf_counter() + budget
                while True:
                    r.calibrate("measure")
                    last = time.perf_counter() >= end - (times[-1] if times else 0.0)
                    t = call(name, args, threads, check=not times or last)
                    if t > 0:
                        times.append(t)
                    if last or t < 0:
                        break
            del args
    for leg, times in per_leg.items():
        if not times:
            raise RuntimeError(f"exec_kernel leg {leg} made no successful call")

    leg_p50 = {leg: median(ts) for leg, ts in per_leg.items()}
    gflops = {leg: flops(leg[0], SHAPES[leg[0]]) / t / 1e9 for leg, t in leg_p50.items()}
    repeats = 7
    ratios = []
    for threads in thread_counts:
        for name, t in openblas(r, threads, repeats).items():
            ratios.append(t / leg_p50[(name, threads)])
    # the end-to-end figures come from the single-threaded legs: at
    # threads=nproc blur flips between two speeds from run to run on a shared
    # 2-vCPU VM (the OpenMP wait pathology the ROADMAP names), which the
    # per-layer kernel.gflops_tmax reports
    t1 = [ts for (_, t), ts in per_leg.items() if t == 1]
    return {
        "setup_s": median(setups),
        "op_ms_p50": geomean(median(ts) for ts in t1) * 1e3,
        "ops_per_s": geomean(len(ts) / sum(ts) for ts in t1),
        "peak_rss_mb": peak_rss_mb(),
        "views": {
            "kernel.gflops_t1": geomean(g for (n, t), g in gflops.items() if t == 1),
            "kernel.gflops_tmax": geomean(g for (n, t), g in gflops.items() if t == nproc),
            "kernel.openblas_ratio": geomean(ratios),
        },
        "detail": {f"{n}@t{t}": {"ms_p50": leg_p50[(n, t)] * 1e3, "gflops": gflops[(n, t)]} for n, t in leg_p50},
    }
