"""``exec_dispatch``: warm ``run_proc`` calls on small scheduled kernels.

A closed loop on one thread calls six scheduled BLAS kernels (level 1:
saxpy, sdot, srot, dscal; level 2: sgemv_n, dger) at n in {16, 64, 256}
(level 2: M = N = n).  Every round calls each (kernel, n) three times with
``backend="c"`` and once with ``backend="compiled"``, in a seeded order, on
seeded inputs.  At these sizes the kernel itself takes about a microsecond,
so the time is the per-call fixed cost of each engine.

Set-up schedules the kernels, compiles them to C into an empty artifact
cache and makes the first (quarantined) C call and the first compiled-engine
call; it is repeated three times from empty caches.  Before each timed call
the inputs are restored; after it the outputs are compared with
``repro.blas.reference`` (outside the timed call).
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List

import numpy as np

from ..common import Run, fallback_total, host_isas, machine, median, percentile, peak_rss_mb

KERNELS = ("saxpy", "sdot", "srot", "dscal", "sgemv_n", "dger")
SIZES = (16, 64, 256)
C_PER_COMPILED = 3
SETUP_REPEATS = 3


def _isa() -> str:
    return "AVX512" if "AVX512" in host_isas() else "AVX2"


def _scheduled(name: str):
    from repro.blas import LEVEL1_KERNELS, kernel, level1_schedule, level2_schedule

    prec = "f64" if name.startswith("d") else "f32"
    sched = (level1_schedule if name in LEVEL1_KERNELS else level2_schedule)("i", prec, machine(_isa()))
    return sched.apply(kernel(name))


def _sizes(name: str, n: int) -> Dict[str, int]:
    from repro.blas import LEVEL1_KERNELS

    return {"n": n} if name in LEVEL1_KERNELS else {"M": n, "N": n}


def setup_once(r: Run) -> dict:
    """Schedule, compile and make the first call of every kernel, from empty
    caches; returns the scheduled procedures."""
    import repro.interp as interp
    from repro.backend.native import clear_memo
    from repro.interp import clear_compile_cache, make_random_args

    os.environ["REPRO_NATIVE_CACHE"] = r.fresh_dir("native")
    clear_memo()
    clear_compile_cache()
    procs = {}
    for name in KERNELS:
        procs[name] = p = _scheduled(name)
        for backend in ("c", "compiled"):
            interp.run_proc(p, backend=backend, **make_random_args(p, _sizes(name, SIZES[0]), seed=0))
    return procs


class _Case:
    def __init__(self, name: str, proc, n: int, seed: int):
        from repro.blas import LEVEL1_KERNELS, level1_reference, level2_reference
        from repro.interp import make_random_args

        self.name, self.proc, self.n = name, proc, n
        self.pristine = make_random_args(proc, _sizes(name, n), seed=seed)
        self.args = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in self.pristine.items()}
        self.want = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in self.pristine.items()}
        (level1_reference if name in LEVEL1_KERNELS else level2_reference)(name, self.want)

    def restore(self) -> None:
        for k, v in self.pristine.items():
            if isinstance(v, np.ndarray):
                np.copyto(self.args[k], v)

    def mismatch(self, out) -> str:
        for k, w in self.want.items():
            if isinstance(w, np.ndarray) and not np.allclose(out[k], w, rtol=1e-4, atol=1e-4):
                return k
        return ""


def run(r: Run) -> dict:
    import repro.interp as interp

    rng = random.Random(r.seed)
    procs, setups = r.timed_setups(lambda: setup_once(r), SETUP_REPEATS)

    cases = [_Case(name, procs[name], n, rng.randrange(2**31)) for name in KERNELS for n in SIZES]
    plan = [(case, "c") for case in cases for _ in range(C_PER_COMPILED)] + [(case, "compiled") for case in cases]

    times: Dict[str, List[float]] = {"c": [], "compiled": []}
    end = time.perf_counter() + r.seconds
    with r.window():
        while time.perf_counter() < end:
            rng.shuffle(plan)
            for case, backend in plan:
                r.calibrate("measure")
                case.restore()
                fallbacks = fallback_total()
                r.attempted += 1
                what = f"{case.name} n={case.n} backend={backend}"
                try:
                    with r.op():
                        t0 = time.perf_counter()
                        out = interp.run_proc(case.proc, backend=backend, **case.args)
                        t1 = time.perf_counter()
                except Exception as exc:  # noqa: BLE001 - any raise is a failed call
                    r.fail(f"{what}: {type(exc).__name__}: {exc}")
                    continue
                times[backend].append(t1 - t0)
                if fallback_total() != fallbacks:
                    r.fail(f"{what}: degraded off its backend")
                elif case.mismatch(out):
                    r.fail(f"{what}: output {case.mismatch(out)!r} differs from blas.reference")
    calls = times["c"] + times["compiled"]
    return {
        "setup_s": median(setups),
        "op_ms_p50": median(calls) * 1e3,
        "ops_per_s": len(calls) / sum(calls),
        "peak_rss_mb": peak_rss_mb(),
        "views": {
            "dispatch.c_call_us_p50": median(times["c"]) * 1e6,
            "dispatch.c_call_us_p99": percentile(times["c"], 99) * 1e6,
            "dispatch.compiled_call_us_p50": median(times["compiled"]) * 1e6,
        },
    }
