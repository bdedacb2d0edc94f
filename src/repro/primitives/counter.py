"""Primitive-rewrite and atomic-edit counting.

Figure 9b of the paper reports the number of primitive rewrites required to
optimise each kernel — a proxy for what a user of plain Exo would have had to
write by hand.  Every scheduling primitive reports itself here, and the
:class:`~repro.ir.edit.EditSession` engine additionally reports the number of
*atomic edits* (Section 5.2) each transformation decomposed into, so the
metrics reflect the real edit traffic rather than just call counts.  The
counter can be scoped with :class:`count_rewrites` to attribute rewrites to a
specific kernel's scheduling run.

Thread model: the *primitive stack* and the :class:`count_rewrites` scopes
are thread-local — a scope counts only the rewrites performed by the thread
that opened it, and nesting depth in one schedule-service worker never makes
another worker's outermost primitive look nested.  The process-wide totals
live in the ``primitives`` group of :mod:`repro.obs`.
"""

from __future__ import annotations

import threading
from contextlib import ContextDecorator
from typing import Dict, List, Optional

from .. import obs

__all__ = [
    "record_rewrite",
    "record_atomic_edits",
    "push_current_primitive",
    "pop_current_primitive",
    "current_primitive",
    "primitive_depth",
    "count_rewrites",
    "global_rewrite_count",
    "global_atomic_edit_count",
]


_tls = threading.local()


def _primitive_stack() -> List[str]:
    stack = getattr(_tls, "primitive_stack", None)
    if stack is None:
        stack = _tls.primitive_stack = []
    return stack


def _active_scopes() -> List["count_rewrites"]:
    scopes = getattr(_tls, "active_scopes", None)
    if scopes is None:
        scopes = _tls.active_scopes = []
    return scopes


def record_rewrite(primitive_name: str) -> None:
    """Record one application of a scheduling primitive."""
    obs.add("primitives", "rewrites")
    for scope in _active_scopes():
        scope.total += 1
        scope.by_primitive[primitive_name] = scope.by_primitive.get(primitive_name, 0) + 1


def push_current_primitive(primitive_name: str) -> None:
    """Mark ``primitive_name`` as the running primitive (for atomic-edit
    attribution).  Paired with :func:`pop_current_primitive` by the
    ``@scheduling_primitive`` decorator; nesting is supported."""
    _primitive_stack().append(primitive_name)


def pop_current_primitive() -> None:
    stack = _primitive_stack()
    if stack:
        stack.pop()


def current_primitive() -> Optional[str]:
    """The innermost primitive currently executing in this thread (or
    ``None``)."""
    stack = _primitive_stack()
    return stack[-1] if stack else None


def primitive_depth() -> int:
    """How many primitive invocations are on this thread's stack."""
    return len(_primitive_stack())


def record_atomic_edits(n: int) -> None:
    """Record ``n`` atomic edits finished by an :class:`EditSession`.

    Edits are attributed to the primitive currently running (``<direct>``
    for sessions opened by Procedure methods outside any primitive)."""
    if n <= 0:
        return
    name = current_primitive() or "<direct>"
    obs.add("primitives", "atomic_edits", n)
    for scope in _active_scopes():
        scope.atomic_edits += n
        scope.atomic_by_primitive[name] = scope.atomic_by_primitive.get(name, 0) + n


def global_rewrite_count() -> int:
    return obs.group("primitives")["rewrites"]


def global_atomic_edit_count() -> int:
    return obs.group("primitives")["atomic_edits"]


class count_rewrites(ContextDecorator):
    """Context manager counting primitive rewrites (and the atomic edits they
    decompose into) performed inside it, by the thread that opened it."""

    def __init__(self, label: Optional[str] = None):
        self.label = label
        self.total = 0
        self.atomic_edits = 0
        self.by_primitive: Dict[str, int] = {}
        self.atomic_by_primitive: Dict[str, int] = {}

    def __enter__(self) -> "count_rewrites":
        self.total = 0
        self.atomic_edits = 0
        self.by_primitive = {}
        self.atomic_by_primitive = {}
        _active_scopes().append(self)
        return self

    def __exit__(self, *exc) -> bool:
        try:
            _active_scopes().remove(self)
        except ValueError:
            pass
        return False
