"""The warm native path: a procedure already loaded in this process is resolved
from an in-process memo — no re-emission, printing, hashing or toolchain
probing — while the trust status, the fault sites and the argument checks
still apply on every call.  Work is counted with wrapped callables, never
with timings."""
from __future__ import annotations

import numpy as np
import pytest

from repro import proc_from_source
from repro.backend import native
from repro.blas import LEVEL1_KERNELS, optimize_level_1
from repro.guard.faults import inject
from repro.interp import clear_exec_stats, exec_stats, make_random_args, run_proc
from repro.ir import build
from repro.ir import nodes as N
from repro.machines import AVX2
from repro.primitives import parallelize_loop, set_precision

needs_cc = pytest.mark.skipif(native.find_cc() is None, reason="no C compiler on PATH")


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A private, empty artifact cache with fresh counters."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    native.clear_memo()
    clear_exec_stats()
    yield tmp_path
    native.clear_memo()
    clear_exec_stats()


def _counting(monkeypatch, owner, attr, calls, label):
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls[label] = calls.get(label, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)


def _saxpy():
    return optimize_level_1(LEVEL1_KERNELS["saxpy"], "i", "f32", AVX2, 2)


def _root(p):
    return p._root if hasattr(p, "_root") else p


def _saxpy_args(p, seed):
    args = make_random_args(p, {"n": 37}, seed=seed)
    return args, args["y"] + np.float32(args["alpha"]) * args["x"]


@needs_cc
def test_a_cold_build_emits_once_and_keys_once(cache, monkeypatch):
    calls = {}
    _counting(monkeypatch, native, "emit_unit", calls, "emit_unit")
    _counting(monkeypatch, native, "artifact_key", calls, "artifact_key")
    p = _saxpy()
    args, want = _saxpy_args(p, 0)
    run_proc(p, backend="c", **args)
    np.testing.assert_allclose(args["y"], want, rtol=1e-5, atol=1e-6)
    assert native.cache_stats()["compiles"] == 1
    assert calls == {"emit_unit": 1, "artifact_key": 1}


@needs_cc
def test_warm_run_proc_skips_emission_printing_hashing_and_probes(cache, monkeypatch):
    p = _saxpy()
    args, _ = _saxpy_args(p, 0)
    run_proc(p, backend="c", **args)  # cold: build + quarantined first run

    calls = {}
    _counting(monkeypatch, native, "emit_unit", calls, "emit_unit")
    _counting(monkeypatch, native, "artifact_key", calls, "artifact_key")
    _counting(monkeypatch, native, "proc_str", calls, "proc_str")
    _counting(monkeypatch, native.shutil, "which", calls, "which")
    _counting(monkeypatch, native.NativeProc, "__call__", calls, "kernel")
    memo_hits = native.cache_stats()["memo_hits"]

    args, want = _saxpy_args(p, 1)
    run_proc(p, backend="c", **args)
    np.testing.assert_allclose(args["y"], want, rtol=1e-5, atol=1e-6)
    assert calls == {"kernel": 1}
    assert native.cache_stats()["memo_hits"] == memo_hits + 1
    assert exec_stats()["fallbacks"] == {}


@needs_cc
def test_poisoning_a_memo_hit_artifact_refuses_it(cache, monkeypatch):
    p = _saxpy()
    for seed in (0, 1):
        args, _ = _saxpy_args(p, seed)
        run_proc(p, backend="c", **args)
    kernel = native.compile_native(_root(p))  # a memo hit: the loaded handle
    native.mark_poisoned(kernel.key, "kernel-segfault: test", str(cache))

    calls = {}
    _counting(monkeypatch, native.NativeProc, "__call__", calls, "kernel")
    args, want = _saxpy_args(p, 2)
    run_proc(p, backend="c", **args)
    np.testing.assert_allclose(args["y"], want, rtol=1e-5, atol=1e-6)
    assert calls == {}  # never executed in-process
    stats = exec_stats()
    assert stats["fallbacks"] == {"poisoned-artifact": 1}
    (ev,) = stats["events"]
    assert ev["stage"] == "c->compiled" and ev["artifact_key"] == kernel.key


@needs_cc
def test_cc_missing_after_a_warm_call_still_degrades(cache):
    p = _saxpy()
    args, _ = _saxpy_args(p, 0)
    run_proc(p, backend="c", **args)

    with inject("cc-missing"):
        args, want = _saxpy_args(p, 1)
        run_proc(p, backend="c", **args)
    np.testing.assert_allclose(args["y"], want, rtol=1e-5, atol=1e-6)
    assert exec_stats()["fallbacks"] == {"cc-missing": 1}

    # disarmed: the warm kernel serves again, with no further degradation
    memo_hits = native.cache_stats()["memo_hits"]
    args, want = _saxpy_args(p, 2)
    run_proc(p, backend="c", **args)
    np.testing.assert_allclose(args["y"], want, rtol=1e-5, atol=1e-6)
    assert native.cache_stats()["memo_hits"] == memo_hits + 1
    assert exec_stats()["fallbacks"] == {"cc-missing": 1}


@needs_cc
def test_omp_missing_after_a_warm_par_call_records_and_rekeys(cache):
    axpy = proc_from_source(
        "def axpy(n: size, alpha: f32, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        y[i] += alpha * x[i]\n"
    )
    p = parallelize_loop(axpy, "i")
    args, _ = _saxpy_args(p, 0)
    run_proc(p, backend="c", threads=2, **args)
    warm = native.compile_native(_root(p))
    clear_exec_stats()

    with inject("omp-missing"):
        args, want = _saxpy_args(p, 1)
        run_proc(p, backend="c", threads=2, **args)
        seq_kernel = native.compile_native(_root(p))
    np.testing.assert_allclose(args["y"], want, rtol=1e-5, atol=1e-6)
    stats = exec_stats()
    assert stats["fallbacks"].get("omp-missing", 0) >= 1
    assert any(e["stage"] == "c-par->c-seq" for e in stats["events"])
    assert seq_kernel._omp_set is None  # built without -fopenmp
    if native.openmp_supported(native.find_cc()):
        assert seq_kernel is not warm and seq_kernel.key != warm.key


@needs_cc
def test_procedures_differing_only_in_argument_precision_never_share(cache):
    p32 = _saxpy()
    p64 = set_precision(p32, "x", "f64")
    r32, r64 = _root(p32), _root(p64)
    assert build.struct_hash(r32) == build.struct_hash(r64)  # the trap
    assert build.proc_identity(r32) != build.proc_identity(r64)

    for p in (p32, p64, p32, p64):
        args, want = _saxpy_args(p, 3)
        run_proc(p, backend="c", **args)
        np.testing.assert_allclose(args["y"], want, rtol=1e-5, atol=1e-6)
    k32, k64 = native.compile_native(r32), native.compile_native(r64)
    assert k32 is not k64 and k32.key != k64.key
    assert exec_stats()["fallbacks"] == {}


def _shadowed_pair():
    """Two trees that print and struct-hash identically but bind ``x[i]`` to
    different loops: the inner ``i`` (y += n*x) or the outer one (y[j] +=
    sum(x))."""
    inner = proc_from_source(
        "def shadow(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        for i in seq(0, n):\n"
        "            y[i] += x[i]\n"
    )
    root = _root(inner)
    outer_i = root.body[0].iter
    red = root.body[0].body[0].body[0]
    rhs = N.Read(red.rhs.name, [N.Read(outer_i, [], red.rhs.idx[0].typ)], red.rhs.typ)
    path = (("body", 0), ("body", 0), ("body", 0), ("rhs", None))
    return root, build.set_node(root, path, rhs)


@needs_cc
def test_alpha_variants_never_share_a_kernel(cache):
    inner, outer = _shadowed_pair()
    assert build.struct_hash(inner) == build.struct_hash(outer)
    assert build.proc_identity(inner) != build.proc_identity(outer)

    for root in (inner, outer, inner, outer):
        args = make_random_args(root, {"n": 9}, seed=4)
        ref = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in args.items()}
        run_proc(root, backend="c", **args)
        run_proc(root, backend="interp", **ref)
        np.testing.assert_allclose(args["y"], ref["y"], rtol=1e-5, atol=1e-5)
    assert native.compile_native(inner) is not native.compile_native(outer)
    assert exec_stats()["fallbacks"] == {}


@needs_cc
def test_clear_memo_makes_the_next_call_a_disk_hit(cache):
    p = _saxpy()
    args, _ = _saxpy_args(p, 0)
    run_proc(p, backend="c", **args)
    native.clear_memo()

    args, want = _saxpy_args(p, 1)
    run_proc(p, backend="c", **args)
    np.testing.assert_allclose(args["y"], want, rtol=1e-5, atol=1e-6)
    stats = native.cache_stats()
    assert stats["compiles"] == 1 and stats["disk_hits"] == 1


@needs_cc
def test_find_cc_memoizes_hits_per_cc_and_path_but_never_misses(monkeypatch):
    calls = {}
    _counting(monkeypatch, native.shutil, "which", calls, "which")
    monkeypatch.setenv("CC", "repro-no-such-compiler")
    assert native.find_cc() is None and native.find_cc() is None
    assert calls["which"] == 2  # a miss is probed again
    monkeypatch.delenv("CC")
    first = native.find_cc()
    assert native.find_cc() == first and first is not None
    assert calls["which"] <= 3


def test_warm_compiled_run_reuses_the_procedure_identity(monkeypatch, axpy):
    args = make_random_args(axpy, {"n": 16}, seed=0)
    run_proc(axpy, backend="compiled", **args)

    calls = {}
    _counting(monkeypatch, build, "_arg_type_token", calls, "arg_types")
    _counting(monkeypatch, build, "_alias_sig", calls, "alias_sig")
    run_proc(axpy, backend="compiled", **args)
    assert calls == {}
