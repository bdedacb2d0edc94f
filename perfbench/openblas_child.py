"""Time OpenBLAS (``scipy.linalg.blas``) on the ``exec_kernel`` shapes.

Runs in its own process, started with ``OPENBLAS_NUM_THREADS`` pinned to the
thread count of the leg it is compared with, so no thread pool left behind
by the OpenMP kernels (or by OpenBLAS itself) is shared with them.

    python3 perfbench/openblas_child.py --seed 1 --repeats 7

Prints one JSON object: ``{kernel: median seconds}``.  Arrays are row-major
like the scheduled kernels' and are passed as their Fortran-order
transposes, so no call copies its operands.
"""

from __future__ import annotations

import argparse
import json
import time

SHAPES = {
    "sgemm": {"M": 512, "N": 512, "K": 512},
    "sgemv_n": {"M": 4096, "N": 4096},
    "saxpy": {"n": 1 << 24},
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--repeats", type=int, required=True)
    args = ap.parse_args()

    import numpy as np
    from scipy.linalg import blas

    rng = np.random.default_rng(args.seed)

    def rand(*shape):
        return rng.uniform(-1.0, 1.0, size=shape).astype(np.float32)

    s = SHAPES["sgemm"]
    A, B, C = rand(s["M"], s["K"]), rand(s["K"], s["N"]), rand(s["M"], s["N"])
    s = SHAPES["sgemv_n"]
    Av, x, y = rand(s["M"], s["N"]), rand(s["N"]), rand(s["M"])
    n = SHAPES["saxpy"]["n"]
    xs, ys = rand(n), rand(n)
    calls = {
        # C^T = B^T A^T in column-major terms is C = A B in row-major terms
        "sgemm": lambda: blas.sgemm(1.0, B.T, A.T, beta=1.0, c=C.T, overwrite_c=1),
        "sgemv_n": lambda: blas.sgemv(0.5, Av.T, x, beta=1.0, y=y, overwrite_y=1, trans=1),
        "saxpy": lambda: blas.saxpy(xs, ys, a=0.5),
    }
    out = {}
    for name, call in calls.items():
        call()  # first call: thread start-up and page faults
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        times.sort()
        out[name] = times[len(times) // 2]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
