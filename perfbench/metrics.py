"""The benchmark's metric catalogue; ``BENCHMARK.json`` lists the same names.

End-to-end metrics are reported by every workload from an untraced run.
Each workload has one *operation*, the unit a user waits for:

=============== ==============================================================
library_build   one cold (kernel, ISA) build: parse, schedule, compile, call
exec_dispatch   one warm ``run_proc`` call on a small kernel
exec_kernel     one warm ``run_proc(backend="c")`` call on a large kernel
service_mix     one first-seen schedule request, as its client sees it
=============== ==============================================================

Per-layer metrics come from a traced run.  Times are self times (a span's
duration minus its child spans) per operation unless the name says
otherwise; counts are per operation; ``codegen``, ``native`` and ``guard``
figures are per operation that entered the native backend.  ``PER_LAYER``
records, for each, the end-to-end metric it should move and the workloads
where its layer works.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

WORKLOADS: Dict[str, str] = {
    "library_build": "cold build of a seeded draw of one (kernel, ISA) pair per BLAS family: parse, schedule, cc, first call",
    "exec_dispatch": "warm run_proc on small scheduled BLAS kernels, 3 C calls per compiled call: per-call fixed cost",
    "exec_kernel": "warm run_proc(backend=c) on sgemm, blur, sgemv_n, saxpy at threads 1 and nproc: generated code",
    "service_mix": "two clients against a fresh schedule server, 1 in 5 requests first-seen: replay cache hits and misses",
}

#: (name, unit, better, bound)
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
]

_BUILD = "library_build"
_DISPATCH = "exec_dispatch"
_KERNEL = "exec_kernel"
_SERVICE = "service_mix"

#: (name, unit, better, moves, workloads where the layer works)
PER_LAYER: List[Tuple[str, str, str, str, str]] = [
    ("frontend.parses", "count/op", "lower", "op_ms_p50", f"{_BUILD} {_SERVICE}"),
    ("frontend.parse_s", "s/op", "lower", "op_ms_p50 ops_per_s", f"{_BUILD} {_SERVICE}"),
    ("primitives.calls", "count/op", "lower", "op_ms_p50", f"{_BUILD} {_SERVICE}"),
    ("primitives.self_s", "s/op", "lower", "op_ms_p50 ops_per_s", f"{_BUILD} {_SERVICE}"),
    ("primitives.atomic_edits", "count/op", "lower", "op_ms_p50", f"{_BUILD} {_SERVICE}"),
    ("cursors.calls", "count/op", "lower", "op_ms_p50", f"{_BUILD} {_SERVICE}"),
    ("cursors.self_s", "s/op", "lower", "op_ms_p50 ops_per_s", f"{_BUILD} {_SERVICE}"),
    ("analysis.prove_calls", "count/op", "lower", "op_ms_p50", f"{_BUILD} {_SERVICE}"),
    ("analysis.prove_s", "s/op", "lower", "op_ms_p50 ops_per_s", f"{_BUILD} {_SERVICE}"),
    ("analysis.prove_declined", "count/op", "lower", "op_ms_p50", f"{_BUILD} {_SERVICE}"),
    ("ir.edit_sessions", "count/op", "lower", "op_ms_p50", f"{_BUILD} {_SERVICE}"),
    ("ir.finish_s", "s/op", "lower", "op_ms_p50 ops_per_s", f"{_BUILD} {_SERVICE}"),
    ("api.apply_s", "s/op", "lower", "op_ms_p50 ops_per_s", f"{_BUILD} {_SERVICE}"),
    ("api.replay_hits", "count/op", "higher", "op_ms_p50 ops_per_s", _SERVICE),
    ("api.replay_misses", "count/op", "lower", "ops_per_s", _SERVICE),
    ("api.hit_ratio", "ratio", "higher", "op_ms_p50 ops_per_s", _SERVICE),
    ("interp.precond_s", "s/op", "lower", "op_ms_p50", f"{_DISPATCH} {_KERNEL} {_BUILD}"),
    ("interp.compile_s", "s/op", "lower", "op_ms_p50", _DISPATCH),
    ("interp.call_s", "s/op", "lower", "op_ms_p50", _DISPATCH),
    ("interp.vector_loops", "count", "higher", "op_ms_p50", _DISPATCH),
    ("interp.fallback_stmts", "count", "lower", "op_ms_p50", _DISPATCH),
    ("interp.inlined_calls", "count", "higher", "op_ms_p50", _DISPATCH),
    ("parallel.par_loops", "count/op", "higher", "op_ms_p50", _DISPATCH),
    ("parallel.chunks", "count/op", "higher", "op_ms_p50", _DISPATCH),
    ("parallel.serial_degrades", "count/op", "lower", "op_ms_p50", _DISPATCH),
    ("codegen.emit_calls", "count/op", "lower", "op_ms_p50", f"{_BUILD} {_DISPATCH} {_KERNEL}"),
    ("codegen.emit_s", "s/op", "lower", "op_ms_p50 ops_per_s", f"{_BUILD} {_DISPATCH} {_KERNEL}"),
    ("codegen.c_bytes", "B", "lower", "op_ms_p50", f"{_BUILD} {_DISPATCH} {_KERNEL}"),
    ("codegen.emit_per_warm_call", "count", "lower", "op_ms_p50", f"{_DISPATCH} {_KERNEL}"),
    ("native.key_calls", "count/op", "lower", "op_ms_p50", f"{_DISPATCH} {_KERNEL} {_BUILD}"),
    ("native.key_s", "s/op", "lower", "op_ms_p50 ops_per_s", f"{_DISPATCH} {_KERNEL} {_BUILD}"),
    ("native.resolve_s", "s/op", "lower", "op_ms_p50", f"{_DISPATCH} {_KERNEL} {_BUILD}"),
    ("native.cc_s", "s/op", "lower", "op_ms_p50", _BUILD),
    ("native.compiles", "count/op", "lower", "op_ms_p50", _BUILD),
    ("native.memo_hits", "count/op", "higher", "op_ms_p50", f"{_DISPATCH} {_KERNEL}"),
    ("native.disk_hits", "count/op", "higher", "op_ms_p50", f"{_DISPATCH} {_KERNEL}"),
    ("native.kernel_s", "s/op", "lower", "op_ms_p50", f"{_KERNEL} {_DISPATCH}"),
    ("native.dispatch_s", "s/op", "lower", "op_ms_p50 ops_per_s", f"{_DISPATCH} {_KERNEL}"),
    ("guard.guarded_runs", "count/op", "lower", "op_ms_p50", _BUILD),
    ("guard.guard_s", "s/op", "lower", "op_ms_p50", f"{_BUILD} {_DISPATCH}"),
    ("guard.fallbacks", "count/op", "lower", "op_ms_p50", "none (0 without faults)"),
    ("guard.retries", "count/op", "lower", "op_ms_p50", "none (0 without faults)"),
    ("persist.writes", "count/op", "lower", "op_ms_p50 ops_per_s", f"{_SERVICE} {_BUILD}"),
    ("persist.write_s", "s/op", "lower", "op_ms_p50 ops_per_s", f"{_SERVICE} {_BUILD}"),
    ("service.server_ms_p50", "ms", "lower", "ops_per_s", _SERVICE),
    ("service.server_ms_p95", "ms", "lower", "op_ms_p50 ops_per_s", _SERVICE),
    ("service.wait_ms_p50", "ms", "lower", "ops_per_s", _SERVICE),
    ("service.queue_depth_max", "count", "lower", "ops_per_s", _SERVICE),
    ("service.errors", "count", "lower", "ops_per_s", "none (0 when healthy)"),
    ("service.hit_ms_p50", "ms", "lower", "ops_per_s", _SERVICE),
    ("service.req_ms_p50", "ms", "lower", "ops_per_s", _SERVICE),
    ("service.req_ms_p95", "ms", "lower", "ops_per_s", _SERVICE),
    ("build.parse_s", "s/op", "lower", "op_ms_p50", _BUILD),
    ("build.schedule_s", "s/op", "lower", "op_ms_p50", _BUILD),
    ("build.compile_s", "s/op", "lower", "op_ms_p50", _BUILD),
    ("build.code_kb", "KiB/op", "lower", "op_ms_p50", _BUILD),
    ("dispatch.c_call_us_p50", "us", "lower", "op_ms_p50", _DISPATCH),
    ("dispatch.c_call_us_p99", "us", "lower", "ops_per_s", _DISPATCH),
    ("dispatch.compiled_call_us_p50", "us", "lower", "op_ms_p50", _DISPATCH),
    ("kernel.gflops_t1", "GFLOP/s", "higher", "op_ms_p50", _KERNEL),
    ("kernel.gflops_tmax", "GFLOP/s", "higher", "op_ms_p50", _KERNEL),
    ("kernel.openblas_ratio", "ratio", "higher", "op_ms_p50", _KERNEL),
    ("trace.spans_per_op", "count/op", "lower", "none (tracing cost)", "all"),
    ("trace.op_self_s", "s/op", "lower", "none (benchmark's own share)", "all"),
    ("trace.op_ms_p50", "ms", "lower", "none (traced op_ms_p50; overhead = this / untraced)", "all"),
]
