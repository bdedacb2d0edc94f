"""BLAS level 1 and level 2 vs OpenBLAS, BLIS and MKL (Figures 14-19 of the
paper).

Prints runtime ratios (comparator library / Exo 2) per size bucket, mirroring
the paper's heatmap rows; higher is better for Exo 2.  The pytest-benchmark
fixture times the cost-model evaluation of one representative kernel.  One
table row of :data:`FIGURES` drives each figure:

    PYTHONPATH=src python -m pytest benchmarks/bench_fig14_19_blas.py -s -k fig15
"""

from __future__ import annotations

import pytest

from harness import (
    LEVEL1_BENCH_KERNELS, LEVEL1_SIZES, LEVEL2_BENCH_KERNELS, LEVEL2_SIZES,
    level1_ratio_row, level2_ratio_row, print_heatmap,
    scheduled_level1, scheduled_level2,
)

#: figure -> (BLAS level, machines, comparator libraries)
FIGURES = {
    "fig14": (1, ("AVX2",), ("OpenBLAS", "BLIS")),
    "fig15": (1, ("AVX2", "AVX512"), ("MKL",)),
    "fig16": (1, ("AVX512",), ("OpenBLAS", "BLIS")),
    "fig17": (2, ("AVX2",), ("OpenBLAS", "BLIS")),
    "fig18": (2, ("AVX2", "AVX512"), ("MKL",)),
    "fig19": (2, ("AVX512",), ("OpenBLAS", "BLIS")),
}


@pytest.mark.parametrize("fig", FIGURES)
def test_table(fig):
    """Regenerate the figure's table and check the expected shape: Exo 2 is
    ahead at the smallest sizes (library call overhead) and within ~2x of the
    comparator rooflines at the largest sizes."""
    level, machines, baselines = FIGURES[fig]
    kernels = LEVEL1_BENCH_KERNELS if level == 1 else LEVEL2_BENCH_KERNELS
    sizes = LEVEL1_SIZES if level == 1 else LEVEL2_SIZES
    row_fn = level1_ratio_row if level == 1 else level2_ratio_row
    for machine in machines:
        for baseline in baselines:
            rows = {k: row_fn(k, machine, baseline, sizes) for k in kernels}
            print_heatmap(f"Runtime of {baseline} / Exo 2 ({machine})", rows, sizes)
            small = [v[0] for v in rows.values()]
            large = [v[-1] for v in rows.values()]
            # shape checks: Exo 2 wins for most kernels at the smallest sizes
            # on level 1, and is within a small factor of the comparator
            # rooflines at large sizes
            if level == 1:
                assert sum(s > 1.0 for s in small) >= len(small) * 0.6
            else:
                assert max(small) > 0.5
            assert all(l > 0.05 for l in large)
            if level == 1:
                assert sum(0.5 < l < 3.0 for l in large) >= len(large) * 0.6
            else:
                assert sum(l > 0.3 for l in large) >= len(large) * 0.25


@pytest.mark.parametrize("fig", FIGURES)
def test_benchmark(fig, benchmark):
    level, machines, _ = FIGURES[fig]
    benchmark.group = fig
    sched_fn = scheduled_level1 if level == 1 else scheduled_level2
    kernels = LEVEL1_BENCH_KERNELS if level == 1 else LEVEL2_BENCH_KERNELS
    sched = sched_fn(kernels[0], machines[0])
    from repro.perf import AVX2_SPEC, AVX512_SPEC, CostModel
    cm = CostModel(AVX2_SPEC if machines[0] == "AVX2" else AVX512_SPEC)
    size = {"n": 4096} if level == 1 else {"M": 256, "N": 256}
    benchmark(lambda: cm.runtime_cycles(sched, size))
