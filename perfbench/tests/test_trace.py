"""Tests of the benchmark's own tracing and catalogue.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench.trace import END, PARENT, START, Summary, Tracer, layer_metrics, self_times  # noqa: E402


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _top_level(spans):
    return [s for s in spans if s[PARENT] < 0]


def test_self_times_add_up_to_the_traced_wall_time_synthetic():
    tracer = Tracer()
    leaf = tracer.wrap(lambda: _spin(0.002), "leaf")
    mid = tracer.wrap(lambda: (leaf(), _spin(0.001), leaf()), "mid")
    t0 = time.perf_counter()
    for _ in range(5):
        with tracer.op():
            mid()
            leaf()
    wall = time.perf_counter() - t0
    spans = tracer.spans
    tops = _top_level(spans)
    assert len(tops) == 5 and len(spans) == 5 * 5
    assert all(s >= 0 for s in self_times(spans))
    total_top = sum(s[END] - s[START] for s in tops)
    assert sum(self_times(spans)) == pytest.approx(total_top, rel=1e-9)
    assert total_top <= wall
    assert total_top >= 0.95 * wall
    by_name = Summary(spans).by_name()
    assert by_name["leaf"]["calls"] == 15 and by_name["mid"]["calls"] == 5


def test_calls_outside_an_operation_leave_no_spans():
    tracer = Tracer()
    f = tracer.wrap(lambda: 1, "f")
    assert f() == 1
    assert tracer.spans == []


def test_self_times_add_up_on_a_traced_native_call(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    import repro.interp as interp
    from repro.backend.native import find_cc
    from repro.blas import LEVEL1_KERNELS, level1_schedule

    if find_cc() is None:
        pytest.skip("no C compiler")
    proc = level1_schedule("i", "f32").apply(LEVEL1_KERNELS["saxpy"])
    args = interp.make_random_args(proc, {"n": 64}, seed=0)
    interp.run_proc(proc, backend="c", **args)  # compile and validate first

    tracer = Tracer().install()
    try:
        t0 = time.perf_counter()
        for backend in ("c", "compiled", "c"):
            with tracer.op():
                interp.run_proc(proc, backend=backend, **args)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    spans = tracer.spans
    names = {s[0] for s in spans}
    assert {"op", "interp.run_proc", "native.compile", "codegen.emit", "native.key", "guard.call",
            "native.kernel", "interp.call"} <= names
    total_top = sum(s[END] - s[START] for s in _top_level(spans))
    assert sum(self_times(spans)) == pytest.approx(total_top, rel=1e-9)
    assert 0.9 * wall <= total_top <= wall
    m = layer_metrics(spans)
    assert m["native.dispatch_s"] > 0 and m["native.kernel_s"] > 0
    assert m["codegen.emit_per_warm_call"] == float(round(m["codegen.emit_per_warm_call"]))


def test_catalogue_matches_benchmark_json():
    from perfbench.metrics import END_TO_END, PER_LAYER, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [tuple(m) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [m[:3] for m in PER_LAYER]
