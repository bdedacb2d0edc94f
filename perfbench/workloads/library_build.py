"""``library_build``: a cold build of a seeded draw from the BLAS library.

The 104 (level-1/level-2 kernel x {AVX2, AVX512}) pairs fall into 26
families of four: one operation in two precisions on two vector ISAs (the
``dsdot`` family holds ``sdsdot`` and ``dsdot``).  The seed picks one pair
per family, so every run covers every family and runs differ only in
precision and ISA.  Each pair is built from nothing, in the seeded order:

* parse the kernel's printed source (``repro.proc_from_source``);
* apply ``level1_schedule`` / ``level2_schedule`` with no replay cache;
* compile to C into an empty artifact cache, with an empty in-process memo,
  and make one call at small sizes through ``run_proc(backend="c")`` (code
  generation, cc, load, the quarantined first run and the real call).

One operation is one pair.  Passes are whole: while ``--seconds`` have not
passed, another pass draws again.  Outside the timed calls each output is
compared with ``repro.blas.reference`` and with the tree interpreter run on
the unscheduled kernel.
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List, Tuple

import numpy as np

from ..common import Run, fallback_total, host_isas, machine, median, peak_rss_mb

L1_SIZES = {"n": 100}
L2_SIZES = {"M": 36, "N": 36}
SETUP_REPEATS = 5


def families() -> List[List[str]]:
    """The 26 kernel families (each two kernels)."""
    from repro.blas import LEVEL1_KERNELS, LEVEL2_KERNELS

    out = []
    for names in (sorted(LEVEL1_KERNELS), sorted(LEVEL2_KERNELS)):
        by_op: Dict[str, List[str]] = {}
        for name in names:
            op = "dsdot" if name.endswith("dsdot") else name[1:]
            by_op.setdefault(op, []).append(name)
        out.extend(sorted(by_op.values()))
    return out


def draw(rng: random.Random, isas: List[str]) -> List[Tuple[str, str]]:
    """One (kernel, ISA) pair per family, in a seeded order."""
    pairs = [(rng.choice(fam), rng.choice(isas)) for fam in families()]
    rng.shuffle(pairs)
    return pairs


def setup_once(r: Run) -> None:
    """Load the scheduling library in a fresh interpreter: the import parses
    every kernel of the BLAS and Halide libraries."""
    import subprocess
    import sys

    from ..common import child_env

    subprocess.run(
        [sys.executable, "-c", "import repro, repro.blas, repro.halide"],
        env=child_env(r.root, r.scratch),
        check=True,
        timeout=120,
    )


class _Pair:
    def __init__(self, name: str, isa: str, seed: int):
        from repro.blas import LEVEL1_KERNELS, kernel
        from repro.interp import make_random_args

        self.name, self.isa = name, isa
        self.level1 = name in LEVEL1_KERNELS
        self.kernel = kernel(name)
        self.source = str(self.kernel)
        sizes = L1_SIZES if self.level1 else L2_SIZES
        self.inputs = make_random_args(self.kernel, sizes, seed=seed)

    def args(self) -> Dict[str, object]:
        return {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in self.inputs.items()}

    def references(self) -> List[Tuple[str, Dict[str, object]]]:
        """Expected outputs from the NumPy reference and the interpreter."""
        import repro.interp as interp
        from repro.blas import level1_reference, level2_reference

        ref = self.args()
        (level1_reference if self.level1 else level2_reference)(self.name, ref)
        oracle = interp.run_proc(self.kernel, backend="interp", **self.args())
        return [("blas.reference", ref), ("interp", oracle)]

    def schedule(self):
        from repro.blas import level1_schedule, level2_schedule

        prec = "f64" if self.name.startswith("d") else "f32"
        return (level1_schedule if self.level1 else level2_schedule)("i", prec, machine(self.isa))


def _mismatch(got: Dict[str, object], want: Dict[str, object]) -> str:
    for k, w in want.items():
        if isinstance(w, np.ndarray) and not np.allclose(got[k], w, rtol=1e-4, atol=1e-4):
            return k
    return ""


def run(r: Run) -> dict:
    import repro
    import repro.interp as interp
    from repro.backend.native import clear_memo

    rng = random.Random(r.seed)
    isas = host_isas()
    _, setups = r.timed_setups(lambda: setup_once(r), SETUP_REPEATS)

    ops, parse_t, sched_t, build_t, code_kb = [], [], [], [], []
    end = time.perf_counter() + r.seconds
    with r.window():
        while time.perf_counter() < end:
            for name, isa in draw(rng, isas):
                r.calibrate("measure", force=True)
                pair = _Pair(name, isa, rng.randrange(2**31))
                refs = pair.references()
                args = pair.args()
                sched = pair.schedule()
                cache = r.fresh_dir("native")
                os.environ["REPRO_NATIVE_CACHE"] = cache
                clear_memo()
                fallbacks = fallback_total()
                r.attempted += 1
                what = f"{name}/{isa} n={L1_SIZES if pair.level1 else L2_SIZES}"
                try:
                    with r.op():
                        t0 = time.perf_counter()
                        proc = repro.proc_from_source(pair.source)
                        t1 = time.perf_counter()
                        scheduled = sched.apply(proc)
                        t2 = time.perf_counter()
                        out = interp.run_proc(scheduled, backend="c", **args)
                        t3 = time.perf_counter()
                except Exception as exc:  # noqa: BLE001 - any raise is a failed build
                    r.fail(f"{what}: {type(exc).__name__}: {exc}")
                    continue
                parse_t.append(t1 - t0)
                sched_t.append(t2 - t1)
                build_t.append(t3 - t2)
                ops.append(t3 - t0)
                code_kb.append(sum(e.stat().st_size for e in os.scandir(cache) if e.name.endswith(".so")) / 1024)
                if fallback_total() != fallbacks:
                    r.fail(f"{what}: degraded off backend c")
                    continue
                for label, want in refs:
                    bad = _mismatch(out, want)
                    if bad:
                        r.fail(f"{what}: output {bad!r} differs from {label}")
                        break
    if not ops:
        raise RuntimeError("library_build built nothing")
    return {
        "setup_s": median(setups),
        "op_ms_p50": median(ops) * 1e3,
        "ops_per_s": len(ops) / sum(ops),
        "peak_rss_mb": peak_rss_mb(),
        "views": {
            "build.parse_s": sum(parse_t) / len(ops),
            "build.schedule_s": sum(sched_t) / len(ops),
            "build.compile_s": sum(build_t) / len(ops),
            "build.code_kb": sum(code_kb) / len(ops),
        },
    }
