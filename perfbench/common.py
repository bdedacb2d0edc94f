"""Helpers shared by the workloads: statistics, run isolation, provenance,
and the degradation counters every workload charges to ``failed``."""

from __future__ import annotations

import contextlib
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: Environment variables that would silently change what is measured: an
#: armed fault, a forced engine, a disabled inliner, a relaxed guard or a
#: pinned worker count.  Every measured process runs without them.
SCRUBBED_PREFIXES = ("REPRO_GUARD",)
SCRUBBED_VARS = (
    "REPRO_FAULTS",
    "REPRO_EXEC_BACKEND",
    "REPRO_EXEC_INLINE",
    "REPRO_NUM_THREADS",
    "REPRO_NATIVE_CACHE",
)


def scrub_environment(env: Dict[str, str]) -> List[str]:
    """Drop the variables above from ``env`` in place; return their names."""
    dropped = [
        k for k in list(env)
        if k in SCRUBBED_VARS or any(k.startswith(p) for p in SCRUBBED_PREFIXES)
    ]
    for k in dropped:
        del env[k]
    return dropped


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def geomean(values: Iterable[float]) -> float:
    xs = [v for v in values]
    if not xs or any(v <= 0 for v in xs):
        raise ValueError(f"geomean needs positive values, got {xs}")
    return math.exp(sum(math.log(v) for v in xs) / len(xs))


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Another live process's peak resident set size (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def host_isas() -> List[str]:
    """The vector extensions of the host that the machine models cover."""
    flags = set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    flags = set(line.split(":", 1)[1].split())
                    break
    except OSError:
        pass
    out = []
    if {"avx2", "fma"} <= flags:
        out.append("AVX2")
    if "avx512f" in flags:
        out.append("AVX512")
    return out


def machine(name: str):
    from repro.machines import AVX2, AVX512

    return {"AVX2": AVX2, "AVX512": AVX512}[name]


#: The CPU speed reference.  On a shared 2-vCPU AVX-512 virtual machine the
#: CPU speed drifts by about +-15% within a minute (frequency and shared-core
#: contention: a fixed loop's *thread CPU time* drifts with its wall time),
#: which would swamp the differences the benchmark must resolve.  So every time metric is scaled
#: to a reference speed: it is multiplied by ``CALIBRATION_REF_S / c``, where
#: ``c`` is the median thread CPU time of the calibration loop below, run
#: in-line between operations of the same phase.  At the reference speed the
#: loop takes ``CALIBRATION_REF_S`` (about that machine's median).
CALIBRATION_LOOPS = 25_000
CALIBRATION_REF_S = 2.0e-3
CALIBRATION_EVERY_S = 0.2


def calibration_loop() -> float:
    """Thread CPU seconds of a fixed pure-Python loop."""
    t0 = time.thread_time()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i
    return time.thread_time() - t0


def fallback_total() -> int:
    """Degradations recorded so far in this process (``FallbackEvent``s)."""
    from repro.guard.events import fallback_counts

    return sum(fallback_counts().values())


class Run:
    """One benchmark run: its arguments, private scratch directory, the
    tally of attempted and failed operations and, in a traced run, the
    tracer that is live during the measurement window."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, root: Path, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.root = root
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.tracer = None
        self.layers: Dict[str, float] = {}
        self.calibrations: Dict[str, List[float]] = {}
        self._last_calibration = 0.0
        self._dirs = 0

    def calibrate(self, phase: str, force: bool = False) -> None:
        """Run the calibration loop for ``phase`` if one is due; call it
        between operations, never inside a timed one."""
        now = time.perf_counter()
        if force or now - self._last_calibration >= CALIBRATION_EVERY_S:
            self.calibrations.setdefault(phase, []).append(calibration_loop())
            self._last_calibration = time.perf_counter()

    def scale(self, phase: str) -> float:
        """The factor that takes this phase's times to the reference speed."""
        return CALIBRATION_REF_S / median(self.calibrations[phase])

    def op(self):
        """Mark one operation (a top-level span when tracing)."""
        return self.tracer.op() if self.tracer is not None else contextlib.nullcontext()

    @contextlib.contextmanager
    def window(self):
        """The measurement window: in a traced run, the layer wrappers are
        installed for its duration and ``layers`` holds their metrics."""
        if not self.trace:
            yield
            return
        from .trace import CounterDelta, Tracer, layer_metrics

        self.tracer = Tracer().install()
        counters = CounterDelta()
        try:
            yield
        finally:
            self.tracer.uninstall()
            self.layers = layer_metrics(self.tracer.spans)
            self.layers.update(counters.per_op(self.tracer.spans))
            self.tracer = None

    def timed_setups(self, setup, repeats: int = 3):
        """Run ``setup`` ``repeats`` times, calibrating around each run;
        return its last result and the list of set-up times."""
        times = []
        out = None
        for _ in range(repeats):
            for _ in range(3):
                self.calibrate("setup", force=True)
            t0 = time.perf_counter()
            out = setup()
            times.append(time.perf_counter() - t0)
        for _ in range(3):
            self.calibrate("setup", force=True)
        return out, times

    def fresh_dir(self, label: str) -> str:
        """A new empty directory inside this run's scratch area."""
        self._dirs += 1
        path = self.scratch / f"{label}-{self._dirs}"
        path.mkdir(parents=True)
        return str(path)

    def fail(self, what: str) -> None:
        """Count one failed operation and say which one (kernel/size/seed)."""
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{what} (seed {self.seed})")
        print(f"FAILED: {what} (workload {self.workload}, seed {self.seed})", file=sys.stderr)


def provenance() -> Dict[str, object]:
    """The facts a result depends on besides the code: host, toolchain and
    numerical libraries."""
    from repro.backend.native import cc_version, find_cc, openmp_supported

    cc = find_cc()
    info: Dict[str, object] = {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "cc": cc_version(cc) if cc else None,
        "openmp": bool(cc and openmp_supported(cc)),
        "isas": host_isas(),
    }
    try:
        import numpy

        info["numpy"] = numpy.__version__
        cfg = numpy.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # noqa: BLE001 - provenance is best-effort
        info["numpy"] = f"unavailable: {exc}"
    try:
        import scipy

        info["scipy"] = scipy.__version__
    except ImportError:
        info["scipy"] = None
    info["omp_env"] = {k: v for k, v in os.environ.items() if k.startswith(("OMP_", "OPENBLAS_", "GOMP_"))}
    return info


def child_env(root: Path, scratch: Path, extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """The environment of a child process the benchmark starts: the scrubbed
    parent environment, the checkout's sources first on the path, and every
    temporary file inside the run's scratch directory."""
    env = dict(os.environ)
    scrub_environment(env)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = str(scratch)
    if extra:
        env.update(extra)
    return env
