"""Process-wide telemetry: one registry of counters under one lock.

Every counter the package keeps per *process* lives here, in a named group:
the native artifact cache, the first-run guard, parallel dispatch, primitive
rewrites, degradation reasons and retry labels.  The module that owns a
group records into it with :func:`add` / :func:`add_max` and reads it back
through a one-line view (``cache_stats()``, ``guard_stats()``, ...).
:func:`snapshot` is what :func:`repro.interp.exec_stats` and the schedule
service's ``/stats`` report, and :func:`reset` — behind
:func:`repro.interp.clear_exec_stats` — is the one reset.

Counters that belong to an *object* stay on it (a ``ReplayCache``'s hits, a
``ScheduleService``'s request counts, ``CompiledProc.stats()``): several of
those coexist in one process.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Dict, List, Tuple

__all__ = ["GROUPS", "MAX_EVENTS", "add", "add_max", "group", "events", "snapshot", "reset"]

#: every group and its declared keys, which read 0 until counted; a group
#: with no declared keys is open — any key may be counted
GROUPS: Dict[str, Tuple[str, ...]] = {
    "native_cache": ("memo_hits", "disk_hits", "compiles", "corrupt_evicted", "pruned"),
    "guard": ("guarded_runs", "ok", "crash", "timeout", "error"),
    "parallel": ("par_loops", "chunks", "threads_max", "serial_degrades"),
    "primitives": ("rewrites", "atomic_edits"),
    "fallbacks": (),  # degradation reason -> events
    "retries": (),  # operation label -> retried attempts
}

#: bound of the event log: a long-lived process must not leak memory
#: recording the same degradation forever (the counters stay exact)
MAX_EVENTS = 512

# increments are read-modify-write; one lock keeps every total exact when
# several threads record at once (e.g. schedule-service workers)
_lock = threading.Lock()
_counts: Dict[str, Dict[str, int]] = {name: dict.fromkeys(keys, 0) for name, keys in GROUPS.items()}
_events: deque = deque(maxlen=MAX_EVENTS)


def add(name: str, key: str, n: int = 1, event: Any = None) -> None:
    """Count ``n`` at ``name[key]``; ``event``, when given, joins the
    bounded event log in the same step."""
    with _lock:
        counts = _counts[name]
        counts[key] = counts.get(key, 0) + n
        if event is not None:
            _events.append(event)


def add_max(name: str, key: str, value: int) -> None:
    """Raise ``name[key]`` to ``value`` if it is larger (a high-water mark)."""
    with _lock:
        counts = _counts[name]
        if value > counts.get(key, 0):
            counts[key] = value


def group(name: str) -> Dict[str, int]:
    """A copy of one group's counters."""
    with _lock:
        return dict(_counts[name])


def events() -> List[Any]:
    """The logged events, newest last (at most :data:`MAX_EVENTS`)."""
    with _lock:
        return list(_events)


def snapshot() -> Dict[str, Dict[str, int]]:
    """A copy of every group, taken at one instant."""
    with _lock:
        return {name: dict(counts) for name, counts in _counts.items()}


def reset() -> None:
    """Zero every group and empty the event log."""
    with _lock:
        for name, keys in GROUPS.items():
            _counts[name] = dict.fromkeys(keys, 0)
        _events.clear()
