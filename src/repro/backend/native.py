"""Native execution backend: compile generated C, cache it, call it.

The pipeline is ``emit_unit`` (:mod:`repro.backend.codegen`) → system ``cc``
(``-O3 -march=native -fPIC -shared``) → ``ctypes.CDLL`` → a callable
:class:`NativeProc` that takes the same argument dict :func:`run_proc` builds
(NumPy buffers pass as data pointers plus explicit per-dimension *element*
strides, so views and transposes work without copies).

Compiled shared objects persist in an on-disk artifact cache keyed — with the
same discipline as the tuner leaderboard — on

    (codegen version, procedure digest, generated-source digest,
     codegen options, cc version, machine id)

where the procedure digest is the sha256 of the *printed* procedure (process
stable, unlike the in-memory ``struct_hash``).  Warm runs therefore skip the
compiler entirely, across processes.  Within a process, a loaded kernel is
memoized on the procedure identity (:func:`repro.ir.build.proc_identity`),
the resolved options and the compiler path, so a warm call does not even
recompute the key (see :func:`compile_native`).  Artifacts are written atomically
(temp file + rename), corrupt or truncated ``.so`` files are evicted and
rebuilt, and the cache is LRU-pruned so it cannot grow without bound.

Failures split into :class:`CodegenError` (the procedure cannot be lowered),
:class:`NativeUnavailableError` (no ``cc``, compile or load failed — the
interpreter falls back to the compiled NumPy engine),
:class:`NativeRunError` (argument mismatch at call time) and
:class:`ArtifactPoisonedError` (the artifact crashed or hung its quarantined
first run and is now banned on this machine).

Trust lifecycle (ISSUE 7)
-------------------------
Loading freshly generated machine code into the host process is a trust
decision, so every artifact carries a status in a ``<key>.meta.json``
sidecar: ``new`` (never executed here), ``validated`` (survived a clean
first run inside the forked quarantine guard — all later calls go in-process
at full speed), or ``poisoned`` (its guarded first run died on a signal or
hung past the watchdog; :func:`call_guarded` refuses it forever after
without re-entering the guard).  :func:`call_guarded` is the execution
entry point ``run_proc(backend="c")`` uses; calling a :class:`NativeProc`
directly bypasses the guard (appropriate only for already-trusted contexts
such as the differential test sweep).

Transient failures — the ``cc`` process failing to spawn, the atomic
artifact publish losing a filesystem race — are retried with bounded
exponential backoff (:func:`repro.guard.retry.with_retry`).  All of these
paths honour the named faults of :mod:`repro.guard.faults` (``cc-missing``,
``cc-transient``, ``artifact-corrupt``, ``publish-race``, ``omp-missing``).

OpenMP
------
Procedures containing a ``par`` loop automatically compile with ``-fopenmp``
when the toolchain supports it (:func:`openmp_supported`, probed once per
compiler and folded into the artifact key via ``CodegenOptions.openmp`` —
a parallel kernel and its sequential twin never share an artifact).  When
the probe fails, the kernel compiles sequentially and an ``omp-missing``
fallback event is recorded.  The worker count is set per call through the
shared object's own ``omp_set_num_threads`` (``call_guarded(threads=...)``).
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import subprocess
import threading
import tempfile
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..errors import BackendError
from ..guard import faults, quarantine
from ..guard.retry import with_retry
from ..ir import nodes as N
from ..ir.build import proc_identity, walk
from ..ir.printing import proc_str
from ..persist import CorruptRecordError, read_record, write_record, write_text_atomic
from .codegen import CODEGEN_VERSION, CodegenError, CodegenOptions, NativeUnit, emit_unit

__all__ = [
    "NativeError",
    "NativeUnavailableError",
    "NativeRunError",
    "ArtifactPoisonedError",
    "NativeProc",
    "artifact_key",
    "artifact_status",
    "artifact_meta",
    "mark_validated",
    "mark_poisoned",
    "clear_artifact_status",
    "call_guarded",
    "cache_dir",
    "cache_stats",
    "compile_native",
    "find_cc",
    "openmp_supported",
    "clear_memo",
    "MAX_CACHE_ENTRIES",
]


class NativeError(BackendError):
    """Base class of native-backend failures.

    ``reason`` (when set) is a stable identifier the degradation ladder
    records on its :class:`~repro.guard.events.FallbackEvent`;
    ``artifact_key`` names the cache entry involved, when one exists.
    """

    reason: Optional[str] = None
    artifact_key: Optional[str] = None


class NativeUnavailableError(NativeError):
    """The native backend cannot produce a callable here (no C compiler, or
    the compile/load step failed).  Callers degrade to the NumPy engine."""


class NativeRunError(NativeError):
    """A compiled kernel was called with arguments that do not fit its
    calling convention (wrong dtype, wrong rank, misaligned strides)."""

    reason = "native-run-error"


class ArtifactPoisonedError(NativeError):
    """The artifact crashed (SIGSEGV/SIGFPE/SIGBUS) or hung its quarantined
    first run; it is marked poisoned in the cache and will never be executed
    in-process on this machine.  Callers degrade to the NumPy engine."""

    def __init__(self, message: str, *, reason: str, artifact_key: str):
        super().__init__(message)
        self.reason = reason
        self.artifact_key = artifact_key


MAX_CACHE_ENTRIES = 256

# warm memo: (proc identity, resolved options key, cc path) -> loaded kernel
_memo: Dict[tuple, "NativeProc"] = {}
_cc_version_memo: Dict[str, str] = {}
_which_memo: Dict[Tuple[str, str], str] = {}  # (CC, PATH) -> compiler path
# one lock for the in-process memo maps, shared by every thread that
# compiles or trust-checks an artifact (e.g. schedule-service workers)
_lock = threading.Lock()


def cache_stats() -> Dict[str, int]:
    """Counters of the persistent artifact cache (process-wide, thread-safe)."""
    return obs.group("native_cache")


def clear_memo() -> None:
    """Drop the in-process memos — compiled handles and artifact trust
    stamps re-resolve from disk, as a fresh process would (cached ctypes
    handles stay loaded)."""
    with _lock:
        _memo.clear()
        _status_memo.clear()


def cache_dir() -> str:
    """The artifact cache directory (override with ``REPRO_NATIVE_CACHE``)."""
    env = os.environ.get("REPRO_NATIVE_CACHE")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "native")


def find_cc() -> Optional[str]:
    """Absolute path of the system C compiler, or None.

    The ``shutil.which`` lookup is memoized per ``($CC, $PATH)``; a miss is
    never memoized, so installing a compiler mid-process is noticed.

    Fault site: the ``cc-missing`` fault makes this report no compiler, so
    every consumer (execution ladder, differential leg, tuner, benchmarks)
    exercises its no-toolchain degradation path."""
    if faults.should_fire("cc-missing"):
        return None
    name = os.environ.get("CC") or "cc"
    probe = (name, os.environ.get("PATH", ""))
    with _lock:
        got = _which_memo.get(probe)
    if got is None:
        got = shutil.which(name)
        if got is not None:
            with _lock:
                _which_memo[probe] = got
    return got


_omp_memo: Dict[str, bool] = {}


def openmp_supported(cc: str) -> bool:
    """Whether ``cc`` can build with ``-fopenmp`` (probed once per compiler
    by compiling a one-line program, then memoized).

    Fault site: ``omp-missing`` forces False without touching the memo, so
    ``par`` kernels exercise their sequential-compile degradation and the
    probe result recovers as soon as the fault disarms."""
    if faults.should_fire("omp-missing"):
        return False
    with _lock:
        got = _omp_memo.get(cc)
    if got is not None:
        return got
    tmpdir = tempfile.mkdtemp(prefix="repro-omp-probe-")
    try:
        c_path = os.path.join(tmpdir, "probe.c")
        with open(c_path, "w") as f:
            f.write(
                "#include <omp.h>\n"
                "int main(void) { return omp_get_max_threads() > 0 ? 0 : 1; }\n"
            )
        try:
            proc = subprocess.run(
                [cc, "-fopenmp", c_path, "-o", os.path.join(tmpdir, "probe.out")],
                capture_output=True,
                text=True,
                timeout=60,
            )
            got = proc.returncode == 0
        except (OSError, subprocess.SubprocessError):
            got = False
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    with _lock:
        _omp_memo[cc] = got
    return got


def _has_par(root) -> bool:
    # memoised on the root, like its proc_identity (roots are immutable)
    cached = getattr(root, "_has_par_cache", None)
    if cached is None:
        cached = any(isinstance(n, N.For) and n.pragma == "par" for n, _ in walk(root))
        root._has_par_cache = cached
    return cached


def _resolve_openmp(
    root, options: CodegenOptions, cc: Optional[str], *, record: bool
) -> CodegenOptions:
    """The effective codegen options for ``root``: ``openmp=True`` when the
    procedure contains a ``par`` loop and the toolchain can honour it.  With
    ``record``, an unsupported toolchain logs an ``omp-missing`` fallback
    event (stage ``c-par->c-seq``) — the kernel still compiles, sequentially.
    """
    if options.openmp or not _has_par(root):
        return options
    if cc is not None and openmp_supported(cc):
        return replace(options, openmp=True)
    if record:
        from ..guard import record_fallback

        record_fallback(
            root.name,
            "c-par->c-seq",
            "omp-missing",
            detail="toolchain cannot build with -fopenmp; par loops compiled sequentially",
        )
    return options


def cc_version(cc: str) -> str:
    with _lock:
        got = _cc_version_memo.get(cc)
    if got is None:
        try:
            out = subprocess.run(
                [cc, "--version"], capture_output=True, text=True, timeout=30, check=True
            ).stdout
            got = out.splitlines()[0].strip() if out else "unknown"
        except (OSError, subprocess.SubprocessError):
            got = "unknown"
        with _lock:
            _cc_version_memo[cc] = got
    return got


@functools.lru_cache(maxsize=None)
def _machine_id() -> str:
    try:
        from ..tune.results import machine_id

        return machine_id()
    except Exception:
        return f"{platform.system()}-{platform.machine()}"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def artifact_key(
    procedure,
    options: Optional[CodegenOptions] = None,
    cc: Optional[str] = None,
    unit: Optional[NativeUnit] = None,
) -> str:
    """The persistent cache key for one procedure's compiled artifact.

    Stable across processes: every component is either a version constant, a
    digest of printed text, or a machine/toolchain identifier.  ``unit`` is
    the procedure's already-emitted C for these options, when the caller has
    it; otherwise it is emitted here.
    """
    root = procedure._root if hasattr(procedure, "_root") else procedure
    options = options or CodegenOptions()
    cc = cc or find_cc() or "cc"
    options = _resolve_openmp(
        root, options, cc if os.path.exists(cc) else None, record=False
    )
    if unit is None:
        unit = emit_unit(root, options)
    parts = "|".join(
        [
            f"codegen={CODEGEN_VERSION}",
            f"proc={_sha(proc_str(root))}",
            f"src={_sha(unit.source)}",
            f"opts={options.key()}",
            f"cc={cc_version(cc) if os.path.exists(cc) else cc}",
            f"machine={_machine_id()}",
        ]
    )
    return _sha(parts)[:32]


# ---------------------------------------------------------------------------
# Artifact trust metadata (the quarantine lifecycle)
# ---------------------------------------------------------------------------

STATUS_NEW = "new"
STATUS_VALIDATED = "validated"
STATUS_POISONED = "poisoned"

_status_memo: Dict[str, dict] = {}  # meta path -> parsed sidecar


def _meta_path(key: str, directory: Optional[str] = None) -> str:
    return os.path.join(directory or cache_dir(), f"{key}.meta.json")


def artifact_meta(key: str, directory: Optional[str] = None) -> dict:
    """The trust sidecar of one artifact: at least ``{"status": ...}``, plus
    ``"reason"`` for poisoned entries.  Missing or corrupt sidecars read as
    ``new`` (never executed on this machine)."""
    path = _meta_path(key, directory)
    with _lock:
        memo = _status_memo.get(path)
    if memo is not None:
        return dict(memo)
    meta = {"status": STATUS_NEW}
    try:
        data = read_record(path)
        if isinstance(data, dict) and data.get("status") in (
            STATUS_VALIDATED,
            STATUS_POISONED,
        ):
            meta = data
    except (OSError, CorruptRecordError):
        # a torn or missing trust stamp reads as "never executed here":
        # the artifact simply re-enters quarantine, which is safe
        pass
    with _lock:
        _status_memo[path] = dict(meta)
    return meta


def artifact_status(key: str, directory: Optional[str] = None) -> str:
    """``"new"`` | ``"validated"`` | ``"poisoned"`` for one artifact key."""
    return artifact_meta(key, directory)["status"]


def _write_meta(key: str, meta: dict, directory: Optional[str] = None) -> None:
    # a trust stamp is a real persistence decision (poisoned must survive
    # kill -9), so it goes through the checksummed crash-consistent store
    write_record(_meta_path(key, directory), meta)
    with _lock:
        _status_memo[_meta_path(key, directory)] = dict(meta)


def mark_validated(key: str, directory: Optional[str] = None) -> None:
    """Stamp the artifact trusted: its quarantined first run exited cleanly,
    so all later calls may go in-process at full speed."""
    _write_meta(key, {"status": STATUS_VALIDATED}, directory)


def mark_poisoned(key: str, reason: str, directory: Optional[str] = None) -> None:
    """Ban the artifact: its quarantined first run crashed or hung.  The
    guard is never re-entered for a poisoned key — callers degrade straight
    to the NumPy engine."""
    _write_meta(key, {"status": STATUS_POISONED, "reason": reason}, directory)


def clear_artifact_status(key: str, directory: Optional[str] = None) -> None:
    """Forget an artifact's trust stamp (tests / benchmarks re-measuring the
    quarantine path)."""
    path = _meta_path(key, directory)
    with _lock:
        _status_memo.pop(path, None)
    try:
        os.unlink(path)
    except OSError:
        pass


def _evict_meta(so_path: str) -> None:
    path = so_path[: -len(".so")] + ".meta.json"
    with _lock:
        _status_memo.pop(path, None)
    try:
        os.unlink(path)
    except OSError:
        pass


# ---------------------------------------------------------------------------
# The callable
# ---------------------------------------------------------------------------


_SCALAR_CTYPES = {
    "i64": ctypes.c_int64,
    "i32": ctypes.c_int32,
    "f64": ctypes.c_double,
    "bool": ctypes.c_bool,
}


@dataclass
class NativeProc:
    """A loaded, callable compiled kernel.

    ``key`` is the artifact's persistent cache key, which is also what the
    trust metadata (:func:`artifact_status`) hangs off.  Calling the object
    directly runs the machine code in-process with no guard; untrusted first
    runs go through :func:`call_guarded`.
    """

    name: str
    source: str
    argspec: Tuple[tuple, ...]
    so_path: str
    key: str = ""
    _fn: object = None
    # the shared object's own omp_set_num_threads, when it was linked
    # against the OpenMP runtime (par kernels built with -fopenmp)
    _omp_set: object = None

    def __call__(self, values: Dict[str, object], threads: Optional[int] = None) -> None:
        """Run the kernel on a ``{arg name: value}`` dict (tensors in place).

        ``threads`` bounds the OpenMP worker count of ``par`` loops; it is a
        no-op for artifacts built without OpenMP."""
        args: List[object] = []
        for spec in self.argspec:
            if spec[0] == "tensor":
                _tag, dtype_name, rank, name = spec
                v = values[name]
                if not isinstance(v, np.ndarray):
                    raise NativeRunError(f"{self.name}: argument {name!r} must be a numpy array")
                if v.dtype != np.dtype(dtype_name):
                    raise NativeRunError(
                        f"{self.name}: argument {name!r} has dtype {v.dtype}, expected {dtype_name}"
                    )
                if v.ndim != rank:
                    raise NativeRunError(
                        f"{self.name}: argument {name!r} has rank {v.ndim}, expected {rank}"
                    )
                args.append(ctypes.c_void_p(v.ctypes.data))
                for d in range(rank):
                    s = v.strides[d]
                    if s % v.itemsize != 0:
                        raise NativeRunError(
                            f"{self.name}: argument {name!r} has a sub-element stride"
                        )
                    args.append(ctypes.c_int64(s // v.itemsize))
            else:
                tag, name = spec
                v = values[name]
                if tag == "f64":
                    args.append(ctypes.c_double(float(v)))
                elif tag == "bool":
                    args.append(ctypes.c_bool(bool(v)))
                else:
                    args.append(_SCALAR_CTYPES[tag](int(v)))
        if threads is not None and self._omp_set is not None:
            self._omp_set(ctypes.c_int(int(threads)))
        self._fn(*args)


# ---------------------------------------------------------------------------
# Build + cache
# ---------------------------------------------------------------------------


def _load(unit: NativeUnit, so_path: str, key: str = "") -> NativeProc:
    lib = ctypes.CDLL(so_path)
    fn = getattr(lib, unit.name)
    fn.restype = None
    try:
        omp_set = lib.omp_set_num_threads
    except AttributeError:
        omp_set = None  # built without -fopenmp
    return NativeProc(unit.name, unit.source, unit.argspec, so_path, key, fn, omp_set)


def _build(cc: str, options: CodegenOptions, c_path: str, so_path: str) -> None:
    fd, tmp_so = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(so_path))
    os.close(fd)
    cmd = [cc, *options.cflags(), "-fPIC", "-shared", "-o", tmp_so, c_path, "-lm"]
    try:
        # spawning cc can fail transiently (resource pressure, racing PATH
        # changes); a nonzero exit is a deterministic compile error and is
        # NOT retried.  Fault site: cc-transient.
        def invoke():
            if faults.should_fire("cc-transient"):
                raise OSError("injected transient cc failure (fault: cc-transient)")
            return subprocess.run(cmd, capture_output=True, text=True, timeout=300)

        try:
            proc = with_retry(invoke, label="cc-invoke")
        except OSError as exc:
            raise NativeUnavailableError(f"cannot invoke {cc}: {exc}") from exc
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.splitlines()[-12:])
            raise NativeUnavailableError(f"cc failed for {os.path.basename(c_path)}:\n{tail}")

        # atomic publish; readers never see a torn .so.  The rename can lose
        # a transient race on some filesystems.  Fault site: publish-race.
        def publish():
            if faults.should_fire("publish-race"):
                raise OSError("injected cache publish race (fault: publish-race)")
            os.replace(tmp_so, so_path)

        try:
            with_retry(publish, label="artifact-publish")
        except OSError as exc:
            raise NativeUnavailableError(
                f"cannot publish artifact {os.path.basename(so_path)}: {exc}"
            ) from exc
    finally:
        if os.path.exists(tmp_so):
            os.unlink(tmp_so)


def _prune(directory: str, keep: int) -> None:
    """Drop the least-recently-used artifacts beyond ``keep`` entries (hits
    touch the ``.so`` mtime, so mtime order is use order)."""
    try:
        sos = [e for e in os.scandir(directory) if e.name.endswith(".so")]
    except OSError:
        return
    if len(sos) <= keep:
        return
    sos.sort(key=lambda e: e.stat().st_mtime)
    for e in sos[: len(sos) - keep]:
        stem = e.path[: -len(".so")]
        for victim in (e.path, stem + ".c"):
            try:
                os.unlink(victim)
            except OSError:
                pass
        _evict_meta(e.path)
        obs.add("native_cache", "pruned")


def compile_native(
    procedure,
    options: Optional[CodegenOptions] = None,
    directory: Optional[str] = None,
) -> NativeProc:
    """Compile (or fetch from cache) a procedure's native kernel.

    Raises :class:`CodegenError` when the procedure cannot be lowered to C
    and :class:`NativeUnavailableError` when no working toolchain is
    available; both are non-destructive (nothing half-built is left behind).

    A procedure already loaded in this process is returned from the warm
    memo, keyed on its :func:`~repro.ir.build.proc_identity`, the resolved
    options and the compiler path — without re-emitting, printing or hashing
    it.  The lookup comes after the ``cc-missing`` and ``omp-missing`` fault
    sites, which therefore still fire (and change the key) on warm calls;
    the artifact's trust status is checked per call by :func:`call_guarded`.
    """
    root = procedure._root if hasattr(procedure, "_root") else procedure
    options = options or CodegenOptions()
    cc = find_cc()
    if cc is None:
        err = NativeUnavailableError("no C compiler on PATH (set $CC or install cc)")
        err.reason = "cc-missing"
        raise err

    options = _resolve_openmp(root, options, cc, record=True)
    warm = (proc_identity(root), options.key(), cc)
    with _lock:
        memo = _memo.get(warm)
    if memo is not None:
        obs.add("native_cache", "memo_hits")
        return memo

    unit = emit_unit(root, options)  # may raise CodegenError
    key = artifact_key(root, options, cc, unit)
    directory = directory or cache_dir()
    os.makedirs(directory, exist_ok=True)
    so_path = os.path.join(directory, f"{key}.so")
    c_path = os.path.join(directory, f"{key}.c")

    # a poisoned artifact is never even dlopen'ed again (loading runs its
    # init sections — that is already execution)
    meta = artifact_meta(key, directory)
    if meta["status"] == STATUS_POISONED:
        raise ArtifactPoisonedError(
            f"artifact {key} is poisoned on this machine "
            f"({meta.get('reason', 'unknown reason')})",
            reason="poisoned-artifact",
            artifact_key=key,
        )

    proc = None
    if os.path.exists(so_path):
        try:
            # fault site: stand in for a truncated/garbled .so on disk.  The
            # corruption is simulated as the load failure it causes (dlopen
            # caches by path in-process, so physically corrupting the file
            # cannot fail a re-load of an already-mapped artifact).
            if faults.should_fire("artifact-corrupt"):
                raise OSError("injected corrupt artifact (fault: artifact-corrupt)")
            proc = _load(unit, so_path, key)
            obs.add("native_cache", "disk_hits")
            os.utime(so_path)  # LRU touch
        except OSError:
            # corrupt or truncated artifact: evict and rebuild.  The trust
            # stamp goes with it — a rebuilt binary re-enters quarantine.
            obs.add("native_cache", "corrupt_evicted")
            try:
                os.unlink(so_path)
            except OSError:
                pass
            _evict_meta(so_path)
    if proc is None:
        write_text_atomic(c_path, unit.source)
        _build(cc, options, c_path, so_path)
        obs.add("native_cache", "compiles")
        try:
            proc = _load(unit, so_path, key)
        except OSError as exc:
            raise NativeUnavailableError(f"cannot load freshly built {so_path}: {exc}") from exc
        _prune(directory, MAX_CACHE_ENTRIES)
    with _lock:
        _memo[warm] = proc
    return proc


# ---------------------------------------------------------------------------
# Guarded execution (the run_proc entry point)
# ---------------------------------------------------------------------------


def call_guarded(
    kernel: NativeProc,
    values: Dict[str, object],
    timeout_s: Optional[float] = None,
    directory: Optional[str] = None,
    threads: Optional[int] = None,
) -> None:
    """Execute ``kernel`` with first-run quarantine.

    * ``poisoned`` artifacts raise :class:`ArtifactPoisonedError` immediately
      — the guard is never re-entered for a known-bad kernel;
    * ``validated`` artifacts run in-process at full speed, no guard;
    * ``new`` artifacts first run inside the forked subprocess guard
      (:func:`repro.guard.quarantine.run_guarded`).  A clean exit stamps the
      artifact validated and re-executes in-process (the child's writes were
      copy-on-write and discarded); a signal death or watchdog timeout
      poisons it and raises :class:`ArtifactPoisonedError`; a Python-level
      exception in the child is deterministic, leaves the status untouched,
      and is re-raised as :class:`NativeRunError`.

    ``timeout_s`` overrides the ``REPRO_GUARD_TIMEOUT`` watchdog; setting
    ``REPRO_GUARD=off`` skips the quarantine entirely (no validation stamp
    is written — the next guarded-mode call will quarantine as usual).
    ``threads`` bounds the OpenMP worker count of ``par`` loops (no-op for
    artifacts built without OpenMP).
    """
    meta = artifact_meta(kernel.key, directory)
    if meta["status"] == STATUS_POISONED:
        raise ArtifactPoisonedError(
            f"{kernel.name}: artifact {kernel.key} is poisoned on this machine "
            f"({meta.get('reason', 'unknown reason')})",
            reason="poisoned-artifact",
            artifact_key=kernel.key,
        )
    if meta["status"] != STATUS_VALIDATED and quarantine.guard_enabled():
        # the guard forks, and libgomp is not fork-safe once the parent has
        # ever run a parallel region (the child inherits a thread pool whose
        # threads do not exist) — so the quarantined validation run of an
        # OpenMP artifact is forced serial; a 1-thread team runs inline on
        # the calling thread and never touches the pool
        guard_threads = 1 if kernel._omp_set is not None else threads
        report = quarantine.run_guarded(
            lambda: kernel(values, threads=guard_threads), timeout_s=timeout_s
        )
        if report.status == "ok":
            mark_validated(kernel.key, directory)
        elif report.status == "error":
            raise NativeRunError(
                f"{kernel.name}: guarded first run raised: {report.error}"
            )
        else:
            reason = "kernel-hang" if report.status == "timeout" else "kernel-segfault"
            mark_poisoned(kernel.key, f"{reason}: {report.error}", directory)
            raise ArtifactPoisonedError(
                f"{kernel.name}: quarantined first run failed ({report.error}); "
                f"artifact {kernel.key} poisoned",
                reason=reason,
                artifact_key=kernel.key,
            )
    kernel(values, threads=threads)
