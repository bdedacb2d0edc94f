"""Persistent compiled-artifact cache: warm hits, corruption recovery,
cc-missing fallback, cross-process key stability and option-change eviction."""
from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.backend import native
from repro.backend.codegen import CodegenOptions
from repro.blas import LEVEL1_KERNELS, optimize_level_1
from repro.interp import clear_exec_stats, interpreter, make_random_args, run_proc
from repro.machines import AVX2

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


def _saxpy():
    return optimize_level_1(LEVEL1_KERNELS["saxpy"], "i", "f32", AVX2, 2)


def _run_native(proc, seed=0):
    args = make_random_args(proc, {"n": 173}, seed=seed)
    native.compile_native(proc._root if hasattr(proc, "_root") else proc)(args)
    return args


@needs_cc
def test_cold_then_warm_disk_hit(cache):
    sched = _saxpy()
    _run_native(sched)
    assert native.cache_stats()["compiles"] == 1
    assert native.cache_stats()["disk_hits"] == 0

    # same process, memo satisfies the second build
    _run_native(sched)
    assert native.cache_stats()["memo_hits"] == 1

    # simulate a new process: drop the memo, keep the disk artifacts
    native.clear_memo()
    _run_native(sched)
    stats = native.cache_stats()
    assert stats["compiles"] == 1  # no recompile
    assert stats["disk_hits"] == 1


@needs_cc
def test_warm_run_matches_interpreter(cache):
    sched = _saxpy()
    _run_native(sched)
    native.clear_memo()
    got = _run_native(sched, seed=3)
    ref = make_random_args(sched, {"n": 173}, seed=3)
    run_proc(sched, backend="interp", **ref)
    np.testing.assert_allclose(got["y"], ref["y"], rtol=1e-5, atol=1e-6)


@needs_cc
def test_corrupt_artifact_evicted_and_rebuilt(cache):
    # plant a truncated .so at the key's slot *before* any load, as if a
    # previous process died mid-download or the disk filled up
    sched = _saxpy()
    root = sched._root if hasattr(sched, "_root") else sched
    key = native.artifact_key(root)
    with open(cache / f"{key}.so", "wb") as f:
        f.write(b"\x7fELF not really")

    got = _run_native(sched, seed=5)
    stats = native.cache_stats()
    assert stats["corrupt_evicted"] == 1
    assert stats["disk_hits"] == 0
    assert stats["compiles"] == 1  # rebuilt after eviction

    ref = make_random_args(sched, {"n": 173}, seed=5)
    run_proc(sched, backend="interp", **ref)
    np.testing.assert_allclose(got["y"], ref["y"], rtol=1e-5, atol=1e-6)


def test_cc_missing_records_fallback_event(cache, monkeypatch, axpy):
    from repro.interp import clear_exec_stats, exec_stats

    monkeypatch.setattr(native, "find_cc", lambda: None)
    clear_exec_stats()
    args = make_random_args(axpy, {"n": 64}, seed=1)
    expect = args["y"] + args["a"] * args["x"]

    run_proc(axpy, backend="c", **args)
    np.testing.assert_allclose(args["y"], expect, rtol=1e-6)

    # the degradation is recorded as a structured event, not a warning
    stats = exec_stats()
    assert stats["fallbacks"].get("cc-missing") == 1
    (ev,) = [e for e in stats["events"] if e["reason"] == "cc-missing"]
    assert ev["stage"] == "c->compiled" and ev["proc"] == "_axpy"

    # every degraded call is counted — no once-per-process suppression
    args2 = make_random_args(axpy, {"n": 64}, seed=2)
    run_proc(axpy, backend="c", **args2)
    assert exec_stats()["fallbacks"]["cc-missing"] == 2
    clear_exec_stats()


@needs_cc
def test_artifact_key_stable_across_processes(cache):
    sched = _saxpy()
    root = sched._root if hasattr(sched, "_root") else sched
    here = native.artifact_key(root)

    script = (
        "from repro.blas import LEVEL1_KERNELS, optimize_level_1\n"
        "from repro.machines import AVX2\n"
        "from repro.backend.native import artifact_key\n"
        "s = optimize_level_1(LEVEL1_KERNELS['saxpy'], 'i', 'f32', AVX2, 2)\n"
        "print(artifact_key(s._root if hasattr(s, '_root') else s))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    there = out.stdout.strip()
    assert here == there


@needs_cc
def test_option_change_misses_and_prune_evicts_stale(cache, monkeypatch):
    sched = _saxpy()
    root = sched._root if hasattr(sched, "_root") else sched
    plain = CodegenOptions()
    noinstr = CodegenOptions(intrinsics=False)
    assert native.artifact_key(root, plain) != native.artifact_key(root, noinstr)

    # a changed codegen option is a different key → fresh compile, and with a
    # cache bound of one entry the stale artifact is evicted on the way out
    monkeypatch.setattr(native, "MAX_CACHE_ENTRIES", 1)
    native.compile_native(root, plain)
    native.compile_native(root, noinstr)
    stats = native.cache_stats()
    assert stats["compiles"] == 2
    assert stats["pruned"] == 1
    assert len([f for f in os.listdir(cache) if f.endswith(".so")]) == 1
