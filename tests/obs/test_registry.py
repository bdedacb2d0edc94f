"""The process-wide counter registry (repro.obs): exact totals under threads,
one reset that clears every group, and the readers outside the package."""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

from repro import obs
from repro.guard import record_fallback
from repro.interp import clear_exec_stats, exec_stats


@pytest.fixture(autouse=True)
def clean_registry():
    clear_exec_stats()
    yield
    clear_exec_stats()


def _hammer(n, fn):
    """Run ``fn(i)`` on ``n`` threads at once, switching threads as often as
    the interpreter allows so a lost update would show."""
    barrier = threading.Barrier(n)

    def run(i):
        barrier.wait()
        fn(i)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


def test_totals_are_exact_under_eight_threads():
    per_thread, n = 2000, 8

    def work(i):
        for k in range(per_thread):
            obs.add("guard", "ok")
            obs.add("retries", f"label-{i % 2}", 2)
            obs.add_max("parallel", "threads_max", i * per_thread + k)

    _hammer(n, work)
    assert obs.group("guard")["ok"] == per_thread * n
    assert obs.group("retries") == {"label-0": per_thread * n, "label-1": per_thread * n}
    assert obs.group("parallel")["threads_max"] == n * per_thread - 1


def test_reset_clears_every_group_and_the_event_log():
    for name, keys in obs.GROUPS.items():
        obs.add(name, keys[0] if keys else "some-reason", 3)
    record_fallback("p", "c->compiled", "cc-missing")
    assert all(any(counts.values()) for counts in obs.snapshot().values())
    assert obs.events()

    clear_exec_stats()
    assert not any(v for counts in obs.snapshot().values() for v in counts.values())
    assert obs.events() == []
    assert exec_stats()["events"] == []


def test_declared_keys_read_zero_after_reset():
    obs.add("native_cache", "compiles", 5)
    obs.add("fallbacks", "cc-missing")
    obs.reset()
    snap = obs.snapshot()
    assert set(snap) == set(obs.GROUPS)
    for name, keys in obs.GROUPS.items():
        assert snap[name] == dict.fromkeys(keys, 0), name
    # open groups are empty, not zero-filled
    assert snap["fallbacks"] == {} and snap["retries"] == {}


def test_event_log_is_bounded_but_counts_stay_exact():
    for i in range(obs.MAX_EVENTS + 10):
        record_fallback(f"p{i}", "c->compiled", "stress")
    events = obs.events()
    assert len(events) == obs.MAX_EVENTS
    assert events[-1].proc == f"p{obs.MAX_EVENTS + 9}"
    assert obs.group("fallbacks") == {"stress": obs.MAX_EVENTS + 10}


def test_perfbench_counter_delta_reads_the_registry():
    """The traced benchmark reads these counters by name through the
    per-module views; a renamed view or key must fail here, not there."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from perfbench.trace import CounterDelta

    snap = CounterDelta.snapshot()
    assert sorted(snap) == sorted([
        "native.compiles",
        "native.memo_hits",
        "native.disk_hits",
        "guard.guarded_runs",
        "guard.fallbacks",
        "guard.retries",
        "parallel.par_loops",
        "parallel.chunks",
        "parallel.serial_degrades",
        "primitives.atomic_edits",
    ])
    assert all(v == 0 for v in snap.values()), snap

    obs.add("native_cache", "compiles")
    obs.add("retries", "cc-invoke", 2)
    obs.add("primitives", "atomic_edits", 7)
    record_fallback("p", "c->compiled", "cc-missing")
    snap = CounterDelta.snapshot()
    assert snap["native.compiles"] == 1
    assert snap["guard.retries"] == 2
    assert snap["guard.fallbacks"] == 1
    assert snap["primitives.atomic_edits"] == 7
