"""The schedule service: a long-lived asyncio server over the replay cache.

One resident :class:`ScheduleService` amortizes everything the synchronous
entry points pay per call: parsed procedures, fingerprinted schedules, the
shared on-disk :class:`~repro.api.cache.ReplayCache`, native artifacts, and
tuning results are computed once and served to every client.

Architecture
------------
* **Transport** — newline-delimited JSON (:mod:`repro.service.protocol`)
  over a Unix socket or TCP; one asyncio task per connection, requests on a
  connection answered in order, connections served concurrently.
* **Workers** — pure scheduling (parse → fingerprint → apply/replay) runs on
  a bounded *thread* pool: it is Python-CPU work over now-thread-safe caches
  (see ir/interp refactor), and threads share the warm in-memory tiers.
  Tune measurements run on a bounded *process* pool via
  :func:`repro.tune.runner.evaluate_spec` — timing needs an undisturbed
  process, and a candidate that segfaults its worker costs its own
  measurement, never the server.
* **Warm path** — schedule requests are answered straight from the shared
  ``ReplayCache`` (memory tier, then the on-disk store other processes
  publish into); tune requests consult the persisted leaderboard before
  measuring anything.
* **Coalescing** — identical in-flight requests (same procedure, schedule,
  knobs) share one computation: followers await the leader's future instead
  of re-scheduling, counted in ``/stats`` as ``coalesced``.
* **Streaming** — ``"stream": true`` schedule requests receive one event per
  applied trace entry; tune requests receive one event per completed
  measurement, so a client renders progress while the sweep runs.
* **Degradation** — execution inherits the backend ladder: a fault (e.g. an
  injected ``kernel-segfault``) poisons the native artifact, the measurement
  degrades to the compiled engine, and the server keeps serving.
* **Observability** — every request emits one structured (JSON) log line
  and one journal entry (``requests.jsonl``, crash-tolerant, torn lines are
  fsck's business); the ``stats`` request type exposes cache hit rates,
  queue depth, in-flight and coalescing counts, and p50/p95 latencies.

Run standalone::

    python -m repro.service --socket /tmp/repro.sock --state-dir /tmp/repro
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import logging
import os
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..api.cache import ReplayCache
from ..api.trace import Trace, replay, state_hash
from ..core.procedure import Procedure
from ..frontend.decorators import proc_from_source
from ..persist import Journal
from ..tune.results import Leaderboard, board_key
from ..tune.runner import Measurement, _resolve_ref, evaluate_spec
from ..tune.space import GridSampler
from . import protocol as P

__all__ = ["ScheduleService", "SOCKET_NAME", "JOURNAL_NAME"]

log = logging.getLogger("repro.service")

#: Conventional file names inside a service state directory (what
#: ``tools/repro_fsck.py`` recognizes as service state).
SOCKET_NAME = "service.sock"
JOURNAL_NAME = "requests.jsonl"

_LATENCY_WINDOW = 2048
_PARSE_CACHE_LIMIT = 128


def _percentile(sorted_values: List[float], q: float) -> Optional[float]:
    if not sorted_values:
        return None
    idx = min(len(sorted_values) - 1, max(0, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[idx]


class ScheduleService:
    """The resident compile/tune server.

    ``state_dir`` roots all shared on-disk state: the replay-cache store
    (``replay/``), the leaderboard (``leaderboard.json``), the request
    journal (``requests.jsonl``) and, when serving a Unix socket without an
    explicit path, the socket file (``service.sock``).  Omitting it keeps
    everything in memory (tests).
    """

    def __init__(
        self,
        *,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: int = 0,
        state_dir: Optional[str] = None,
        scheduling_workers: int = 4,
        timing_workers: int = 2,
        journal: bool = True,
    ):
        if socket_path is None and host is None:
            if state_dir is not None:
                socket_path = os.path.join(state_dir, SOCKET_NAME)
            else:
                host = "127.0.0.1"
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.state_dir = state_dir

        cache_path = os.path.join(state_dir, "replay") if state_dir else None
        self.cache = ReplayCache(path=cache_path)
        self.leaderboard = (
            Leaderboard(os.path.join(state_dir, "leaderboard.json")) if state_dir else Leaderboard()
        )
        self.journal: Optional[Journal] = None
        if journal and state_dir:
            # observability, not correctness: skip the per-line fsync
            self.journal = Journal(os.path.join(state_dir, JOURNAL_NAME), fsync=False)

        self._sched_pool = ThreadPoolExecutor(
            max_workers=scheduling_workers, thread_name_prefix="repro-sched"
        )
        self._timing_workers = timing_workers
        self._timing_pool: Optional[ProcessPoolExecutor] = None
        self._timing_lock = threading.Lock()

        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping: Optional[asyncio.Event] = None
        self._inflight: Dict[str, asyncio.Future] = {}

        self._parse_cache: Dict[str, Procedure] = {}
        self._parse_lock = threading.Lock()

        self._t0 = time.monotonic()
        self._counts: Dict[str, int] = {}
        self._coalesced = 0
        self._errors = 0
        self._queued = 0
        self._latencies_ms: deque = deque(maxlen=_LATENCY_WINDOW)
        self._stats_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start accepting connections."""
        self._stopping = asyncio.Event()
        if self.socket_path is not None:
            os.makedirs(os.path.dirname(os.path.abspath(self.socket_path)) or ".", exist_ok=True)
            if os.path.exists(self.socket_path):
                # a previous server that died without cleanup leaves a stale
                # socket file; binding requires removing it (fsck reports
                # these when no listener is behind them)
                os.unlink(self.socket_path)
            self._server = await asyncio.start_unix_server(self._serve_connection, path=self.socket_path)
        else:
            self._server = await asyncio.start_server(self._serve_connection, host=self.host, port=self.port)
            self.port = self._server.sockets[0].getsockname()[1]
        log.info(json.dumps({"event": "listening", "address": self.address()}, sort_keys=True))

    def address(self) -> str:
        return self.socket_path if self.socket_path is not None else f"{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        """Serve until a ``shutdown`` request (or :meth:`stop`) arrives."""
        if self._server is None:
            await self.start()
        assert self._stopping is not None
        await self._stopping.wait()
        await self.stop()

    async def stop(self) -> None:
        if self._stopping is not None:
            self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._sched_pool.shutdown(wait=False)
        with self._timing_lock:
            if self._timing_pool is not None:
                self._timing_pool.shutdown(wait=False)
                self._timing_pool = None
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass

    # -- connection loop -----------------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    msg = P.decode_message(line)
                except P.ProtocolError as exc:
                    writer.write(P.encode_message(P.error_response(None, exc)))
                    await writer.drain()
                    continue
                await self._handle_request(msg, writer)
                if self._stopping is not None and self._stopping.is_set():
                    break
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def _handle_request(self, msg: dict, writer: asyncio.StreamWriter) -> None:
        req_id = msg.get("id")
        req_type = msg.get("type")
        t0 = time.monotonic()
        outcome, cache_state, coalesced = "ok", None, False
        try:
            if req_type == "ping":
                result = {"pong": True, "uptime_s": round(time.monotonic() - self._t0, 6)}
            elif req_type == "stats":
                result = self.stats()
            elif req_type == "shutdown":
                result = {"stopping": True}
                if self._stopping is not None:
                    self._stopping.set()
            elif req_type == "schedule":
                result, cache_state, coalesced = await self._handle_schedule(msg, writer)
            elif req_type == "tune":
                result = await self._handle_tune(msg, writer)
            else:
                raise P.ProtocolError(f"unknown request type {req_type!r} (valid: {P.REQUEST_TYPES})")
            writer.write(P.encode_message(P.response(req_id, result)))
        except Exception as exc:  # noqa: BLE001 — one bad request must not kill the server
            outcome = "error"
            writer.write(P.encode_message(P.error_response(req_id, exc)))
        await writer.drain()
        ms = (time.monotonic() - t0) * 1e3
        self._account(req_type, outcome, ms, coalesced)
        record = {
            "id": req_id,
            "request": req_type,
            "outcome": outcome,
            "ms": round(ms, 3),
            "cache": cache_state,
            "coalesced": coalesced,
        }
        log.info(json.dumps(record, sort_keys=True, default=repr))
        if self.journal is not None:
            try:
                self.journal.append(record)
            except OSError:  # a full disk must not take the service down
                pass

    def _account(self, req_type, outcome: str, ms: float, coalesced: bool) -> None:
        with self._stats_lock:
            key = req_type if isinstance(req_type, str) else "<invalid>"
            self._counts[key] = self._counts.get(key, 0) + 1
            if outcome != "ok":
                self._errors += 1
            if coalesced:
                self._coalesced += 1
            self._latencies_ms.append(ms)

    # -- schedule requests ---------------------------------------------------

    def _load_proc(self, spec) -> Procedure:
        if not isinstance(spec, dict) or not ("source" in spec or "ref" in spec):
            raise P.ProtocolError('schedule request needs "proc": {"source": ...} or {"ref": ...}')
        if "source" in spec:
            src = spec["source"]
            key = hashlib.sha256(src.encode()).hexdigest()[:32]
            with self._parse_lock:
                got = self._parse_cache.get(key)
            if got is not None:
                return got
            proc = proc_from_source(src)
            with self._parse_lock:
                if len(self._parse_cache) >= _PARSE_CACHE_LIMIT:
                    self._parse_cache.clear()
                self._parse_cache[key] = proc
            return proc
        obj = _resolve_ref(spec["ref"], tuple(spec.get("args", ())))
        if not isinstance(obj, Procedure):
            raise P.ProtocolError(f'proc ref {spec["ref"]!r} is not a Procedure')
        return obj

    def _do_schedule(self, msg: dict) -> Tuple[dict, str]:
        """The blocking half of a schedule request (thread-pool worker)."""
        proc = self._load_proc(msg.get("proc"))
        sched = msg.get("schedule")
        knobs = dict(msg.get("knobs") or {})
        if not isinstance(sched, dict) or not ("ref" in sched or "trace" in sched):
            raise P.ProtocolError('schedule request needs "schedule": {"ref": ...} or {"trace": ...}')
        if "trace" in sched:
            trace_dict = sched["trace"]
            out = replay(trace_dict, proc)
            trace = Trace.from_dict(trace_dict)
            cache_state = "replay"
        else:
            schedule = _resolve_ref(sched["ref"], tuple(sched.get("args", ())), sched.get("kwargs"))
            if knobs and (set(knobs) - {k.name for k in schedule.knobs()}):
                # unknown knobs must fail before the cache probe — the
                # fingerprint resolves them to defaults, which can collide
                # with a legitimately-warm entry and mask the mistake;
                # apply_traced raises the canonical did-you-mean KnobError
                schedule.apply_traced(proc, knobs)
                raise AssertionError("unreachable: apply_traced accepted unknown knobs")
            fp = schedule.fingerprint(knobs)
            hit = self.cache.get(proc, fp)
            if hit is not None:
                out, trace = hit
                cache_state = "hit"
            else:
                # apply *without* the cache (the probe above already counted
                # the miss) and publish the result for the next request
                out, trace = schedule.apply_traced(proc, knobs)
                self.cache.put(proc, fp, out, trace)
                cache_state = "miss"
        result = {
            "proc": str(out),
            "proc_name": out.name(),
            "state_hash": state_hash(out),
            "edit_epoch": out.edit_epoch(),
            "cache": cache_state,
            "trace": trace.to_dict(),
        }
        return result, cache_state

    @staticmethod
    def _coalesce_key(msg: dict) -> str:
        work = {k: msg.get(k) for k in ("type", "proc", "schedule", "knobs")}
        return hashlib.sha256(
            json.dumps(work, sort_keys=True, separators=(",", ":"), default=repr).encode()
        ).hexdigest()

    async def _handle_schedule(self, msg: dict, writer: asyncio.StreamWriter) -> Tuple[dict, str, bool]:
        loop = asyncio.get_running_loop()
        key = self._coalesce_key(msg)
        fut = self._inflight.get(key)
        coalesced = fut is not None
        if fut is None:
            fut = loop.run_in_executor(self._sched_pool, self._do_schedule, msg)
            self._inflight[key] = fut
            fut.add_done_callback(lambda _f, _k=key: self._inflight.pop(_k, None))
        try:
            result, cache_state = await asyncio.shield(fut)
        except asyncio.CancelledError:
            raise
        if coalesced:
            result = dict(result, cache="coalesced")
            cache_state = "coalesced"
        if msg.get("stream"):
            entries = (result.get("trace") or {}).get("entries", [])
            for i, entry in enumerate(entries):
                writer.write(
                    P.encode_message(
                        P.event(msg.get("id"), {"kind": "trace-entry", "index": i, "total": len(entries), "entry": entry})
                    )
                )
            await writer.drain()
        return result, cache_state, coalesced

    # -- tune requests -------------------------------------------------------

    def _timing(self) -> ProcessPoolExecutor:
        with self._timing_lock:
            if self._timing_pool is None:
                self._timing_pool = ProcessPoolExecutor(max_workers=self._timing_workers)
            return self._timing_pool

    def _reset_timing_pool(self) -> None:
        with self._timing_lock:
            if self._timing_pool is not None:
                self._timing_pool.shutdown(wait=False)
                self._timing_pool = None

    def _tune_configs(self, msg: dict) -> List[dict]:
        configs = msg.get("configs")
        if configs is not None:
            return [dict(c) for c in configs]
        space_spec = msg.get("space")
        if space_spec:
            space = _resolve_ref(
                space_spec["ref"], tuple(space_spec.get("args", ())), space_spec.get("kwargs")
            )
            return [dict(c) for c in GridSampler().sample(space)]
        return [{}]

    def _warm_best(self, spec: dict) -> Optional[dict]:
        """The leaderboard's champion for this (proc, schedule, machine), if
        any — the warm answer a re-tune starts from."""
        try:
            proc = _resolve_ref(spec["proc"], tuple(spec.get("proc_args", ())))
            schedule = _resolve_ref(
                spec["schedule"], tuple(spec.get("schedule_args", ())), spec.get("schedule_kwargs")
            )
            key = board_key(proc, schedule)
            return {"key": key, "best": self.leaderboard.best(key)}
        except Exception:  # noqa: BLE001 — warm lookup is best-effort
            return None

    async def _handle_tune(self, msg: dict, writer: asyncio.StreamWriter) -> dict:
        spec = dict(msg.get("spec") or {})
        if "proc" not in spec or "schedule" not in spec:
            raise P.ProtocolError('tune request needs "spec" with "proc" and "schedule" refs')
        loop = asyncio.get_running_loop()
        configs = await loop.run_in_executor(self._sched_pool, self._tune_configs, msg)
        warm = await loop.run_in_executor(self._sched_pool, self._warm_best, spec)
        stream = bool(msg.get("stream"))
        measurements: List[dict] = []
        for i, cfg in enumerate(configs):
            one = dict(spec, config=dict(cfg))
            try:
                m = await loop.run_in_executor(self._timing(), evaluate_spec, one)
            except BrokenProcessPool:
                # the candidate killed its worker; it costs its own
                # measurement, never the sweep or the server
                self._reset_timing_pool()
                m = {"config": dict(cfg), "status": "crash", "time_s": None, "repeats": 0,
                     "error": "candidate killed its worker process", "compile_stats": None}
            measurements.append(m)
            if stream:
                writer.write(
                    P.encode_message(
                        P.event(msg.get("id"), {"kind": "measurement", "index": i, "total": len(configs), "measurement": m})
                    )
                )
                await writer.drain()
        ok = [m for m in measurements if m.get("status") == "ok" and m.get("time_s") is not None]
        best = min(ok, key=lambda m: m["time_s"]) if ok else None
        if warm is not None and measurements:
            # publish the sweep into the shared leaderboard so the next tune
            # of this (proc, schedule, machine) starts from a warm champion
            try:
                self.leaderboard.record_many(
                    warm["key"], [Measurement.from_dict(m) for m in measurements]
                )
            except Exception:  # noqa: BLE001 — best-effort persistence
                log.warning(json.dumps({"event": "leaderboard-record-failed", "key": warm.get("key")}))
        return {
            "measurements": measurements,
            "best": best,
            "ok": len(ok),
            "failed": len(measurements) - len(ok),
            "warm": warm,
        }

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        """The ``/stats`` payload: this service's request counts, worker-queue
        depth, coalescing count, request-latency percentiles and replay-cache
        hit rate, plus every process-wide group of :func:`repro.obs.snapshot`
        (native cache, fallbacks, guard, retries, parallel, primitives)."""
        with self._stats_lock:
            counts = dict(self._counts)
            errors = self._errors
            coalesced = self._coalesced
            lat = sorted(self._latencies_ms)
        queue_depth = self._sched_pool._work_queue.qsize()
        return {
            "uptime_s": round(time.monotonic() - self._t0, 6),
            "requests": counts,
            "errors": errors,
            "coalesced": coalesced,
            "inflight": len(self._inflight),
            "queue_depth": queue_depth,
            "latency_ms": {
                "count": len(lat),
                "p50": _percentile(lat, 0.50),
                "p95": _percentile(lat, 0.95),
            },
            "replay_cache": self.cache.stats(),
            # the process-wide groups, as exec_stats() reports them
            **obs.snapshot(),
        }
