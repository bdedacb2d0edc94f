"""``service_mix``: a hit/miss stream of schedule requests to a fresh server.

A fresh ``python -m repro.service`` subprocess with a fresh state directory
(so the replay cache's disk tier is on) serves two client connections, each
in a closed loop on its own thread.  The requests cover the legal
(procedure, knob binding) pairs of the tuning spaces ``blur_space`` and
``unsharp_space`` (Halide blur and unsharp) and ``level1_space`` and
``level2_space`` (every BLAS level-1/level-2 kernel):

* the first connection sends first-seen pairs: each misses the cache, runs
  the scheduler and writes a replay record.  They visit the 28 kernel
  families (the 26 BLAS families of ``library_build`` plus blur and
  unsharp) in one fixed, evenly interleaved cycle; at its c-th visit a
  family takes knob binding (family index + 5c) of its space, and the seed
  picks the family member (precision).  So every run does the same mix of
  scheduling work, and bindings are covered cycle by cycle;
* the second connection repeats pairs whose first request was answered,
  drawn by the seed: they hit the in-memory tier.  It runs at most four
  requests ahead per first-seen request sent, so one request in five is
  first-seen, and hits share the interpreter lock with a miss in flight.

Legality is checked once during set-up: the BLAS kernels assert nothing, and
a Halide pair is legal when its tile sizes divide what the procedure asserts
about its image sizes.  After the window, every distinct pair is scheduled
in-process with ``Schedule.apply`` and each response's ``state_hash`` is
compared with it.  Set-up is starting a server and waiting for its first
answer, repeated five times.  The operation of ``op_ms_p50`` is a
first-seen request, the one that schedules: on a shared 2-vCPU VM the repeats'
latency flips between two regimes from run to run (about 10 and 40 ms, the
interpreter-lock hand-off with the miss in flight), so it is reported per
layer (``service.hit_ms_p50``).  The calibration loop runs on a thread of
its own during the window, beside the server's work.  The window is sized in work, not time:
``3 x --seconds`` first-seen requests and four repeats each, so runs do not
differ in how many cache entries the server holds.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..common import CALIBRATION_EVERY_S, Run, child_env, median, percentile, pid_peak_rss_mb

SETUP_REPEATS = 5
CLIENTS = 2
MISS_EVERY = 5
#: the window is sized in work, so every run does the same requests: on a
#: 2-vCPU AVX-512 VM, three first-seen requests (and twelve repeats) take
#: about a second
FIRST_SEEN_PER_SECOND = 3
#: a pair outside the stream, used to warm the server's code paths
WARMUP = ("l1", "sasum", (("interleave", 2),))

Pair = Tuple[str, str, Tuple[Tuple[str, object], ...]]  # (family, kernel, knobs)


def _divisors_asserted(proc) -> Dict[str, int]:
    """``{size arg: c}`` for every precondition ``arg % c == 0``."""
    from repro.ir import nodes as N

    out = {}
    for p in proc.preds():
        if (
            isinstance(p, N.BinOp) and p.op == "=="
            and isinstance(p.lhs, N.BinOp) and p.lhs.op == "%"
            and isinstance(p.lhs.lhs, N.Read) and isinstance(p.lhs.rhs, N.Const)
        ):
            out[p.lhs.lhs.name.name] = int(p.lhs.rhs.val)
    return out


def legal_families() -> List[List[Pair]]:
    """The legal pairs of the four tuning spaces, grouped into kernel
    families and listed in the cycle order of first-seen requests."""
    from repro.blas import LEVEL1_KERNELS, level1_space, level2_space
    from repro.halide import blur_space, make_blur, make_unsharp, unsharp_space

    from .library_build import families

    def points(space):
        return [tuple(space.point(i).items()) for i in range(space.size())]

    groups: List[List[List[Pair]]] = [[], [], []]
    for fam in families():
        level = "l1" if fam[0] in LEVEL1_KERNELS else "l2"
        space = level1_space() if level == "l1" else level2_space()
        pairs = [(level, name, knobs) for name in fam for knobs in points(space) if (level, name, knobs) != WARMUP]
        groups[0 if level == "l2" else 1].append(pairs)
    for fam, make, space in (("blur", make_blur, blur_space()), ("unsharp", make_unsharp, unsharp_space())):
        div = _divisors_asserted(make())
        groups[2].append([
            (fam, fam, knobs) for knobs in points(space)
            if div["H"] % dict(knobs)["tile_y"] == 0 and div["W"] % dict(knobs)["tile_x"] == 0
        ])
    # interleave the groups evenly: member i of a group of n sits at i / n
    ranked = [((i + 0.5) / len(g), k, fam) for k, g in enumerate(groups) for i, fam in enumerate(g)]
    return [fam for _, _, fam in sorted(ranked, key=lambda t: (t[0], t[1]))]


def request(pair: Pair) -> dict:
    """The wire form of a schedule request for ``pair``."""
    fam, name, knobs = pair
    if fam in ("blur", "unsharp"):
        proc = {"ref": f"repro.halide:make_{name}"}
        sched = {"ref": f"repro.halide:{name}_schedule"}
    else:
        level = fam[1]
        proc = {"ref": f"repro.blas:LEVEL{level}_KERNELS", "args": [name]}
        prec = "f64" if name.startswith("d") else "f32"
        sched = {"ref": f"repro.blas:level{level}_schedule", "kwargs": {"precision": prec}}
    return {"proc": proc, "schedule": sched, "knobs": dict(knobs)}


def expected_hash(pair: Pair) -> str:
    """The reference: the same schedule applied in this process."""
    import importlib

    from repro.api.trace import state_hash

    def resolve(ref: str):
        mod, attr = ref.split(":")
        return getattr(importlib.import_module(mod), attr)

    req = request(pair)
    proc, sched = resolve(req["proc"]["ref"]), resolve(req["schedule"]["ref"])
    proc = proc[req["proc"]["args"][0]] if "args" in req["proc"] else proc()
    sched = sched(**req["schedule"].get("kwargs", {}))
    return state_hash(sched.apply(proc, req["knobs"]))


class Stream:
    """The seeded request sequence of both connections.  A pair counts as
    seen once its first request has been answered."""

    def __init__(self, seed: int, families: List[List[Pair]], first_seen: int):
        self.rng = random.Random(seed)
        self.families = families
        self.total = first_seen
        self.sent: List[Optional[Pair]] = []  # None: a family with nothing left
        self.seen: List[Pair] = []
        self.hits = 0
        self.cond = threading.Condition()

    def first_seen(self) -> Optional[Pair]:
        """The next first-seen pair; ``None`` once all were sent."""
        with self.cond:
            while len(self.sent_pairs()) < self.total:
                visit = len(self.sent)
                i, c = visit % len(self.families), visit // len(self.families)
                fam = [p for p in self.families[i] if p not in self.sent]
                if not fam:  # every pair of this family was requested
                    self.sent.append(None)
                    continue
                bindings = list(dict.fromkeys(p[2] for p in self.families[i]))
                knobs = bindings[(i + 5 * c) % len(bindings)]
                pair = self.rng.choice([p for p in fam if p[2] == knobs] or fam)
                self.sent.append(pair)
                self.cond.notify_all()
                return pair
            return None

    def sent_pairs(self) -> List[Pair]:
        return [p for p in self.sent if p is not None]

    def answered(self, pair: Pair) -> None:
        with self.cond:
            self.seen.append(pair)
            self.cond.notify_all()

    def repeat(self) -> Optional[Pair]:
        """A seen pair, once the first-seen connection is far enough ahead;
        ``None`` once all repeats were sent."""
        with self.cond:
            if self.hits >= (MISS_EVERY - 1) * self.total:
                return None
            while not self.seen or self.hits >= (MISS_EVERY - 1) * len(self.sent_pairs()):
                self.cond.wait()
            self.hits += 1
            return self.rng.choice(self.seen)


class Server:
    def __init__(self, r: Run, traced: bool):
        self.state = r.fresh_dir("service")
        self.socket = os.path.join(self.state, "service.sock")
        self.spans_out = os.path.join(self.state, "layers.json")
        here = Path(__file__).resolve().parent.parent
        cmd = [sys.executable]
        cmd += [str(here / "serve_traced.py"), "--layers-out", self.spans_out] if traced else ["-m", "repro.service"]
        cmd += ["--state-dir", self.state, "--quiet"]
        self.proc = subprocess.Popen(
            cmd, env=child_env(r.root, r.scratch), cwd=self.state,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"service failed to start: {line!r}")

    def client(self):
        from repro.service import ServiceClient

        return ServiceClient(self.socket, timeout_s=120)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                with self.client() as c:
                    c.shutdown()
                self.proc.wait(timeout=30)
            except Exception:  # noqa: BLE001 - fall through to kill
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()


def start_ready(r: Run, traced: bool = False) -> Server:
    server = Server(r, traced)
    with server.client() as c:
        c.ping()
    return server


def run(r: Run) -> dict:
    families = legal_families()
    servers: List[Server] = []

    def setup() -> Server:
        if servers:
            servers.pop().stop()
        servers.append(start_ready(r, traced=r.trace))
        return servers[-1]

    server, setups = r.timed_setups(setup, SETUP_REPEATS)
    try:
        with server.client() as c:
            for _ in range(2):
                c.schedule(**request(WARMUP))
        stream = Stream(r.seed, families, round(FIRST_SEEN_PER_SECOND * r.seconds))
        results: List[Tuple[Pair, bool, float, dict]] = []
        errors: List[str] = []
        lock = threading.Lock()

        def client_loop(first_seen: bool) -> None:
            with server.client() as c:
                while True:
                    pair = stream.first_seen() if first_seen else stream.repeat()
                    if pair is None:
                        break
                    t0 = time.perf_counter()
                    try:
                        out = c.schedule(**request(pair))
                    except Exception as exc:  # noqa: BLE001 - a failed request
                        with lock:
                            errors.append(f"{pair}: {type(exc).__name__}: {exc}")
                        out = None
                    dt = time.perf_counter() - t0
                    if first_seen:
                        stream.answered(pair)  # even when it failed: its repeats fail too
                    if out is not None:
                        with lock:
                            results.append((pair, first_seen, dt, out))

        done = threading.Event()

        def calibrate_loop() -> None:
            # the clients mostly wait on their sockets; this thread times the
            # calibration loop beside the server's work (thread CPU time, so
            # waiting for the interpreter lock does not count)
            while not done.wait(CALIBRATION_EVERY_S):
                r.calibrate("measure", force=True)

        t_start = time.perf_counter()
        threads = [threading.Thread(target=client_loop, args=(k == 0,)) for k in range(CLIENTS)]
        calibrator = threading.Thread(target=calibrate_loop)
        for t in threads + [calibrator]:
            t.start()
        for t in threads:
            t.join(timeout=10 * r.seconds + 60)
        window = time.perf_counter() - t_start
        done.set()
        calibrator.join(timeout=30)
        if any(t.is_alive() for t in threads + [calibrator]):
            raise RuntimeError("a service client did not finish")
        with server.client() as c:
            stats = c.stats()
        rss = pid_peak_rss_mb(server.proc.pid)
    finally:
        server.stop()

    r.attempted += len(results) + len(errors)
    for e in errors:
        r.fail(f"request {e}")
    want = {pair: expected_hash(pair) for pair in {res[0] for res in results}}
    for pair, first, _dt, out in results:
        if out.get("state_hash") != want[pair]:
            r.fail(f"request {pair}: state_hash differs from the in-process Schedule.apply")
        elif out.get("cache") != ("miss" if first else "hit"):
            r.fail(f"request {pair}: answered {out.get('cache')!r} for a {'first-seen' if first else 'repeated'} pair")

    lat = [res[2] for res in results]
    hits = [res[2] for res in results if res[3].get("cache") == "hit"]
    misses = [res[2] for res in results if res[3].get("cache") == "miss"]
    server_ms = stats["latency_ms"]
    out = {
        "setup_s": median(setups),
        "op_ms_p50": median(misses) * 1e3,
        "ops_per_s": len(results) / window,
        "peak_rss_mb": rss,
        "views": {
            "service.hit_ms_p50": median(hits) * 1e3 if hits else 0.0,
            "service.req_ms_p50": median(lat) * 1e3,
            "service.req_ms_p95": percentile(lat, 95) * 1e3,
            "service.server_ms_p50": server_ms["p50"],
            "service.server_ms_p95": server_ms["p95"],
            "service.wait_ms_p50": median(lat) * 1e3 - server_ms["p50"],
            "service.errors": float(stats["errors"]),
        },
        "detail": {"requests": len(results), "misses": len(misses), "hits": len(hits),
                   "replay_cache": stats["replay_cache"]},
    }
    if r.trace:
        import json

        with open(server.spans_out) as f:
            out["server_layers"] = json.load(f)
    return out
