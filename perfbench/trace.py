"""Span tracing at the program's layer boundaries, from outside the program.

A :class:`Tracer` replaces a fixed list of public functions with wrappers
that record one span per call: name, start, end, parent span and the id of
the benchmark operation (request) it belongs to.  Each wrapper sits at the
attribute the *calling* module looks up, so a function imported by name into
another module is wrapped there.  Only layer boundaries are wrapped, never
hot helpers such as tree walks.

Spans are recorded only inside an operation the benchmark opens with
:meth:`Tracer.op` (or, in a server, with a wrapped entry point), so set-up
and correctness checks leave no spans.  Spans stay in memory; a traced
server writes them out when it exits.  A span's self time is its duration
minus the durations of its child spans (children of one thread nest inside
their parent and never overlap).
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Set, Tuple

# a span: [name, start, end, parent index (-1 for an operation), op id, note]
NAME, START, END, PARENT, OP, NOTE = range(6)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self._tls = threading.local()
        self._ops = 0
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = self._tls.stack = []
        return st

    def open(self, name: str) -> int:
        """Open a span under the current one; -1 when no operation is open."""
        st = self._stack()
        if not st:
            return -1
        parent = st[-1]
        span = [name, perf_counter(), 0.0, parent, self.spans[parent][OP], None]
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        st.append(idx)
        return idx

    def close(self, idx: int, note=None) -> None:
        if idx < 0:
            return
        span = self.spans[idx]
        span[END] = perf_counter()
        span[NOTE] = note
        st = self._stack()
        if st and st[-1] == idx:
            st.pop()

    def begin_op(self) -> int:
        """Open a top-level operation span (one benchmark operation or one
        server request) on this thread."""
        with self._lock:
            self._ops += 1
            op = self._ops
            self.spans.append(["op", perf_counter(), 0.0, -1, op, None])
            idx = len(self.spans) - 1
        self._stack().append(idx)
        return idx

    def op(self):
        tracer = self

        class _Op:
            def __enter__(self):
                self.idx = tracer.begin_op()
                return self

            def __exit__(self, *exc):
                tracer.close(self.idx)
                return False

        return _Op()

    def wrap(self, fn: Callable, name: str, note: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around each call made inside an operation;
        ``note(result)`` may attach a value to the span (a size, a verdict)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not getattr(tracer._tls, "stack", None):
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(idx, note(result) if note is not None and result is not None else None)

        traced.__wrapped__ = fn
        return traced

    def wrap_op(self, fn: Callable) -> Callable:
        """``fn`` as an operation entry point (a server's request worker)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin_op()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    def patch(self, owner, attr: str, name: str, note: Optional[Callable] = None, op: bool = False) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap_op(original) if op else self.wrap(original, name, note))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- the program's layer boundaries ----------------------------------------

    def install(self, *, server: bool = False) -> "Tracer":
        """Wrap the public entry points of every layer (see README.md for the
        table of layers).  ``server`` also makes each schedule-service
        request worker an operation."""
        import repro
        import repro.analysis.effects as effects
        import repro.api.cache as api_cache
        import repro.backend.native as native
        import repro.guard.quarantine as quarantine
        import repro.halide.kernels as halide_kernels
        import repro.interp as interp
        import repro.interp.compile as icompile
        import repro.primitives.buffers as buffers
        import repro.primitives.loops as loops
        import repro.primitives.simplify_ops as simplify_ops
        from repro.api.cache import ReplayCache
        from repro.api.schedule import Schedule
        from repro.core.procedure import Procedure
        from repro.interp.compile import CompiledProc
        from repro.ir.edit import EditSession

        self.patch(repro, "proc_from_source", "frontend.parse")
        self.patch(halide_kernels, "proc_from_source", "frontend.parse")
        self._patch_apply(Schedule)
        self.patch(ReplayCache, "get", "api.cache_get", note=lambda r: "hit")
        self.patch(ReplayCache, "put", "api.cache_put")
        for attr in ("find", "find_loop", "find_alloc_or_arg", "forward"):
            self.patch(Procedure, attr, "cursors")
        declined = lambda r: "decided"  # noqa: E731 - a None verdict leaves no note
        for mod in (simplify_ops, loops, buffers, effects):
            if hasattr(mod, "prove"):
                self.patch(mod, "prove", "analysis.prove", note=declined)
        self.patch(EditSession, "finish", "ir.finish")
        self.patch(interp, "run_proc", "interp.run_proc")
        self.patch(icompile, "compile_proc", "interp.compile", note=lambda e: (id(e), e.stats()))
        self.patch(CompiledProc, "run", "interp.call")
        self.patch(native, "compile_native", "native.compile")
        self.patch(native, "emit_unit", "codegen.emit", note=lambda u: len(u.source))
        self.patch(native, "artifact_key", "native.key")
        self.patch(native, "_build", "native.cc")
        self.patch(native, "call_guarded", "guard.call")
        self.patch(quarantine, "run_guarded", "guard.run")
        self.patch(native.NativeProc, "__call__", "native.kernel")
        self.patch(api_cache, "write_record", "persist.write")
        self.patch(native, "write_record", "persist.write")
        if server:
            import repro.service.server as server_mod

            self.patch(server_mod, "proc_from_source", "frontend.parse")
            self.patch(server_mod.ScheduleService, "_do_schedule", "service.worker", op=True)
        return self

    def _patch_apply(self, schedule_cls) -> None:
        """``Schedule.apply_traced`` as a span, with a primitive recorder on
        the calling thread for its duration: the primitive decorator reports
        each outermost primitive to it (``begin`` / ``commit`` / ``fail``)."""
        from repro.primitives._base import active_trace_recorders, pop_trace_recorder, push_trace_recorder

        tracer = self
        recorder = _PrimitiveSpans(self)
        original = schedule_cls.apply_traced
        self._patches.append((schedule_cls, "apply_traced", original))

        @functools.wraps(original)
        def apply_traced(*args, **kwargs):
            if not getattr(tracer._tls, "stack", None):
                return original(*args, **kwargs)
            idx = tracer.open("api.apply")
            pushed = recorder not in active_trace_recorders()  # nested applies share it
            if pushed:
                push_trace_recorder(recorder)
            try:
                return original(*args, **kwargs)
            finally:
                if pushed:
                    pop_trace_recorder(recorder)
                tracer.close(idx)

        schedule_cls.apply_traced = apply_traced


class _PrimitiveSpans:
    """A primitive-trace recorder that opens a ``primitives`` span per
    outermost primitive call."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def begin(self, name, proc, args, kwargs):
        return self.tracer.open("primitives")

    def commit(self, entry, result):
        self.tracer.close(entry)

    def fail(self, entry, err):
        self.tracer.close(entry)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the summed durations of its children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


class Summary:
    """Per span name: call count, summed self time, summed duration and the
    notes, over all operations or a given set of them."""

    def __init__(self, spans: List[list]):
        self.spans = spans
        self.selfs = self_times(spans)

    def ops(self) -> int:
        return sum(1 for s in self.spans if s[PARENT] < 0)

    def ops_with(self, name: str) -> Set[int]:
        """The operations that made at least one ``name`` call."""
        return {s[OP] for s in self.spans if s[NAME] == name}

    def by_name(self, ops: Optional[Set[int]] = None) -> Dict[str, dict]:
        agg: Dict[str, dict] = defaultdict(_empty)
        for s, self_s in zip(self.spans, self.selfs):
            if ops is not None and s[OP] not in ops:
                continue
            a = agg[s[NAME]]
            a["calls"] += 1
            a["self_s"] += self_s
            a["dur_s"] += s[END] - s[START]
            if s[NOTE] is not None:
                a["notes"].append(s[NOTE])
        return agg


def _empty() -> dict:
    return {"calls": 0, "self_s": 0.0, "dur_s": 0.0, "notes": []}


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """The span-derived per-layer metrics (see README.md): per operation,
    except the native backend's, which are per operation that called it."""
    summary = Summary(spans)
    n = max(summary.ops(), 1)
    agg = defaultdict(_empty, summary.by_name())
    per = lambda v: v / n  # noqa: E731

    native_ops = summary.ops_with("native.compile")
    nat = defaultdict(_empty, summary.by_name(native_ops))
    n_nat = max(len(native_ops), 1)
    per_nat = lambda v: v / n_nat  # noqa: E731
    warm_ops = native_ops - summary.ops_with("native.cc")
    warm_emits = summary.by_name(warm_ops).get("codegen.emit", _empty())["calls"]

    prove = agg["analysis.prove"]
    cache_get = agg["api.cache_get"]
    hits = len(cache_get["notes"])
    emit = nat["codegen.emit"]
    engines = dict(agg["interp.compile"]["notes"])  # distinct compiled engines
    return {
        "frontend.parses": per(agg["frontend.parse"]["calls"]),
        "frontend.parse_s": per(agg["frontend.parse"]["self_s"]),
        "primitives.calls": per(agg["primitives"]["calls"]),
        "primitives.self_s": per(agg["primitives"]["self_s"]),
        "cursors.calls": per(agg["cursors"]["calls"]),
        "cursors.self_s": per(agg["cursors"]["self_s"]),
        "analysis.prove_calls": per(prove["calls"]),
        "analysis.prove_s": per(prove["self_s"]),
        "analysis.prove_declined": per(prove["calls"] - len(prove["notes"])),
        "ir.edit_sessions": per(agg["ir.finish"]["calls"]),
        "ir.finish_s": per(agg["ir.finish"]["self_s"]),
        "api.apply_s": per(sum(agg[k]["self_s"] for k in ("api.apply", "api.cache_get", "api.cache_put"))),
        "api.replay_hits": per(hits),
        "api.replay_misses": per(cache_get["calls"] - hits),
        "api.hit_ratio": hits / cache_get["calls"] if cache_get["calls"] else 0.0,
        "interp.precond_s": per(agg["interp.run_proc"]["self_s"]),
        "interp.compile_s": per(agg["interp.compile"]["self_s"]),
        "interp.call_s": per(agg["interp.call"]["self_s"]),
        "interp.vector_loops": float(sum(e["vector_loops"] for e in engines.values())),
        "interp.fallback_stmts": float(sum(e["fallback_stmts"] for e in engines.values())),
        "interp.inlined_calls": float(sum(e["inlined_calls"] for e in engines.values())),
        "codegen.emit_calls": per_nat(emit["calls"]),
        "codegen.emit_s": per_nat(emit["self_s"]),
        "codegen.c_bytes": sum(emit["notes"]) / len(emit["notes"]) if emit["notes"] else 0.0,
        "codegen.emit_per_warm_call": warm_emits / len(warm_ops) if warm_ops else 0.0,
        "native.key_calls": per_nat(nat["native.key"]["calls"]),
        "native.key_s": per_nat(nat["native.key"]["self_s"]),
        "native.resolve_s": per_nat(nat["native.compile"]["self_s"]),
        "native.cc_s": per_nat(nat["native.cc"]["self_s"]),
        "native.kernel_s": per_nat(nat["native.kernel"]["self_s"]),
        "native.dispatch_s": per_nat(nat["interp.run_proc"]["dur_s"] - nat["native.kernel"]["dur_s"]),
        "guard.guard_s": per_nat(nat["guard.call"]["self_s"] + nat["guard.run"]["self_s"]),
        "persist.writes": per(agg["persist.write"]["calls"]),
        "persist.write_s": per(agg["persist.write"]["self_s"]),
        "trace.spans_per_op": per(len(spans)),
        "trace.op_self_s": per(agg["op"]["self_s"]),
    }


class CounterDelta:
    """Program counters (native cache, guard, retries, fallbacks, parallel
    dispatch, atomic edits) over a window, per operation."""

    @staticmethod
    def snapshot() -> Dict[str, float]:
        from repro.backend.native import cache_stats
        from repro.guard.events import fallback_counts
        from repro.guard.quarantine import guard_stats
        from repro.guard.retry import retry_stats
        from repro.interp.parallel import par_stats
        from repro.primitives.counter import global_atomic_edit_count

        native = cache_stats()
        par = par_stats()
        return {
            "native.compiles": native["compiles"],
            "native.memo_hits": native["memo_hits"],
            "native.disk_hits": native["disk_hits"],
            "guard.guarded_runs": guard_stats()["guarded_runs"],
            "guard.fallbacks": sum(fallback_counts().values()),
            "guard.retries": sum(retry_stats().values()),
            "parallel.par_loops": par["par_loops"],
            "parallel.chunks": par["chunks"],
            "parallel.serial_degrades": par["serial_degrades"],
            "primitives.atomic_edits": global_atomic_edit_count(),
        }

    def __init__(self):
        self.before = self.snapshot()

    def per_op(self, spans: List[list]) -> Dict[str, float]:
        """The deltas since construction; ``native.*`` and ``guard.*`` per
        operation that entered the native backend, the rest per operation."""
        after = self.snapshot()
        summary = Summary(spans)
        ops = max(summary.ops(), 1)
        native_ops = max(len(summary.ops_with("native.compile")), 1)
        return {
            k: (after[k] - self.before[k]) / (native_ops if k.startswith(("native.", "guard.")) else ops)
            for k in after
        }
