"""Integration tests of the schedule service: warm cache answers, trace
replay, request coalescing, multi-client correctness, streamed tune progress,
and the observability surface."""

from __future__ import annotations

import threading

import pytest

from repro.api.knobs import KnobError
from repro.errors import ParseError
from repro.service import protocol as P

SAXPY = {"ref": "repro.blas:LEVEL1_KERNELS", "args": ["saxpy"]}
LEVEL1 = {"ref": "repro.blas:level1_schedule"}
BLUR = {"ref": "repro.halide:make_blur"}
BLUR_SCHED = {"ref": "repro.halide:blur_schedule"}

SCALE_SRC = (
    "def scale(n: size, x: f32[n]):\n"
    "    for i in seq(0, n):\n"
    "        x[i] = x[i] * 2.0\n"
)


def test_ping_and_stats_shape(server):
    with server.client() as c:
        assert c.ping()["pong"] is True
        stats = c.stats()
        for key in ("requests", "errors", "coalesced", "inflight", "queue_depth",
                    "latency_ms", "replay_cache", "native_cache", "guard", "retries"):
            assert key in stats, key


def test_schedule_miss_then_hit(server):
    with server.client() as c:
        out1 = c.schedule(proc=SAXPY, schedule=LEVEL1, knobs={"interleave": 2})
        out2 = c.schedule(proc=SAXPY, schedule=LEVEL1, knobs={"interleave": 2})
    assert out1["cache"] == "miss"
    assert out2["cache"] in ("hit", "coalesced")
    assert out1["state_hash"] == out2["state_hash"]
    assert out1["trace"] == out2["trace"]
    assert out1["proc_name"] == "saxpy"
    assert isinstance(out1["edit_epoch"], int) and out1["edit_epoch"] > 0


def test_distinct_knobs_are_distinct_entries(server):
    with server.client() as c:
        a = c.schedule(proc=SAXPY, schedule=LEVEL1, knobs={"interleave": 2})
        b = c.schedule(proc=SAXPY, schedule=LEVEL1, knobs={"interleave": 4})
    assert a["cache"] == b["cache"] == "miss"
    assert a["state_hash"] != b["state_hash"]


def test_trace_replay_reproduces_the_schedule(server):
    with server.client() as c:
        out = c.schedule(proc=SAXPY, schedule=LEVEL1, knobs={"interleave": 2})
        replayed = c.replay_trace(proc=SAXPY, trace=out["trace"])
    assert replayed["cache"] == "replay"
    assert replayed["state_hash"] == out["state_hash"]


def test_schedule_from_source_and_parse_errors(server):
    empty_trace = {"version": 1, "schedule": None, "fingerprint": None,
                   "proc": "scale", "initial": None, "final": None, "entries": []}
    with server.client() as c:
        out = c.schedule(proc={"source": SCALE_SRC}, schedule={"trace": empty_trace})
        assert out["proc_name"] == "scale"
        bad_dsl = "def broken(n: size, x: f32[n]):\n    for i in range(n):\n        x[i] = 0.0\n"
        with pytest.raises(ParseError):
            c.schedule(proc={"source": bad_dsl}, schedule={"trace": empty_trace})
        with pytest.raises(SyntaxError):
            c.schedule(proc={"source": "def broken(:\n"}, schedule={"trace": empty_trace})
        # the connection survives the failed request
        assert c.ping()["pong"] is True


def test_remote_knob_error_is_a_knob_error_here(server):
    with server.client() as c:
        # warm the cache first: unknown knobs must fail even when their
        # defaulted fingerprint would hit a cached entry
        c.schedule(proc=SAXPY, schedule=LEVEL1, knobs={"interleave": 2})
        with pytest.raises(KnobError) as err:
            c.schedule(proc=SAXPY, schedule=LEVEL1, knobs={"bogus": 1})
    assert "bogus" in str(err.value)


def test_streamed_schedule_emits_one_event_per_trace_entry(server):
    events = []
    with server.client() as c:
        out = c.schedule(
            proc=SAXPY, schedule=LEVEL1, knobs={"interleave": 2},
            stream=True, on_event=events.append,
        )
    entries = out["trace"]["entries"]
    assert len(events) == len(entries) > 0
    assert [e["entry"] for e in events] == entries
    assert all(e["kind"] == "trace-entry" for e in events)


def test_eight_concurrent_clients_zero_lost_or_torn_replies(server):
    n = 8
    results, errors = [None] * n, []
    barrier = threading.Barrier(n)

    def worker(i):
        try:
            with server.client() as c:
                barrier.wait()
                mine = []
                for k in (1, 2, 4):
                    mine.append(c.schedule(proc=SAXPY, schedule=LEVEL1, knobs={"interleave": k}))
                mine.append(c.stats())
                results[i] = mine
        except Exception as exc:  # noqa: BLE001
            errors.append((i, exc))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors, errors
    assert all(r is not None for r in results)
    # every client saw the same scheduled result for the same knobs
    for k_idx in range(3):
        hashes = {r[k_idx]["state_hash"] for r in results}
        assert len(hashes) == 1
    with server.client() as c:
        stats = c.stats()
    assert stats["requests"]["schedule"] == n * 3
    assert stats["errors"] == 0


def test_identical_inflight_requests_coalesce(server):
    n = 8
    results, errors = [None] * n, []
    barrier = threading.Barrier(n)

    def worker(i):
        try:
            with server.client() as c:
                barrier.wait()
                # a cold, heavy request: blur's full tiling+vectorization
                results[i] = c.schedule(proc=BLUR, schedule=BLUR_SCHED)
        except Exception as exc:  # noqa: BLE001
            errors.append((i, exc))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors, errors
    assert len({r["state_hash"] for r in results}) == 1
    with server.client() as c:
        stats = c.stats()
    # at least one follower shared the leader's computation
    assert stats["coalesced"] > 0
    assert stats["coalesced"] == sum(1 for r in results if r["cache"] == "coalesced")


def test_tune_streams_measurements_and_reports_the_best(server):
    spec = {
        "proc": "repro.blas:LEVEL1_KERNELS",
        "proc_args": ["saxpy"],
        "schedule": "repro.blas:level1_schedule",
        "size_env": {"n": 256},
        "repeats": 1,
    }
    events = []
    with server.client(timeout_s=300) as c:
        out = c.tune(spec=spec, configs=[{"interleave": 1}, {"interleave": 2}],
                     stream=True, on_event=events.append)
    assert out["ok"] == 2 and out["failed"] == 0
    assert len(events) == 2
    assert [e["index"] for e in events] == [0, 1]
    assert out["best"] is not None and out["best"]["status"] == "ok"
    assert out["warm"] is not None and out["warm"]["key"]


def test_tune_knob_errors_cost_only_their_candidate(server):
    spec = {
        "proc": "repro.blas:LEVEL1_KERNELS",
        "proc_args": ["saxpy"],
        "schedule": "repro.blas:level1_schedule",
        "size_env": {"n": 256},
        "repeats": 1,
    }
    with server.client(timeout_s=300) as c:
        out = c.tune(spec=spec, configs=[{"interleave": 1}, {"no_such": 9}])
    assert out["ok"] == 1 and out["failed"] == 1
    statuses = sorted(m["status"] for m in out["measurements"])
    assert statuses == ["knob-error", "ok"]


def test_malformed_frames_get_an_error_response_not_a_hangup(server):
    with server.client() as c:
        c._sock.sendall(b"this is not json\n")
        line = c._rfile.readline()
        msg = P.decode_message(line)
        assert msg["ok"] is False and msg["error"]["kind"] == "ProtocolError"
        # and the connection still works
        assert c.ping()["pong"] is True


def test_latency_percentiles_and_hit_rate_appear_in_stats(server):
    with server.client() as c:
        for _ in range(3):
            c.schedule(proc=SAXPY, schedule=LEVEL1, knobs={"interleave": 2})
        stats = c.stats()
    lat = stats["latency_ms"]
    assert lat["count"] >= 3
    assert lat["p50"] is not None and lat["p95"] is not None and lat["p50"] <= lat["p95"]
    rc = stats["replay_cache"]
    assert rc["hits"] >= 2 and rc["misses"] >= 1


def test_shutdown_unlinks_the_socket_and_journals_requests(tmp_path, make_server):
    import os

    state = tmp_path / "state"
    h = make_server()
    sock = h.address
    with h.client() as c:
        c.ping()
        c.shutdown()
    h._thread.join(timeout=10)
    assert not os.path.exists(sock)
    journal = state / "requests.jsonl"
    assert journal.exists()
    lines = [l for l in journal.read_text().splitlines() if l.strip()]
    assert len(lines) >= 2  # ping + shutdown


def test_stats_and_exec_stats_read_one_snapshot(server):
    """``/stats`` carries every process-wide group ``exec_stats()`` reports,
    ``parallel`` included, with equal values once the server is idle."""
    import numpy as np

    from repro import proc_from_source
    from repro.guard import record_fallback
    from repro.interp import clear_exec_stats, exec_stats, run_proc
    from repro.primitives import parallelize_loop

    clear_exec_stats()
    try:
        with server.client() as c:
            c.schedule(proc=SAXPY, schedule=LEVEL1, knobs={"interleave": 2})
        record_fallback("p", "c->compiled", "stats-parity")
        scale = parallelize_loop(proc_from_source(SCALE_SRC), "i")
        run_proc(scale, n=64, x=np.ones(64, np.float32), backend="compiled", threads=2)
        with server.client() as c:
            remote = c.stats()
        local = exec_stats()
        groups = [g for g in local if g != "events"]
        assert "parallel" in groups and remote["parallel"]["par_loops"] == 1
        assert local["primitives"]["rewrites"] > 0
        for group in groups:
            assert remote[group] == local[group], group
    finally:
        clear_exec_stats()
