"""Compiled execution engine: lower object code to NumPy and run it natively.

The reference interpreter (:mod:`repro.interp.interpreter`) re-dispatches on
every IR node of every iteration — ~0.3M scalar ops/s — which pins functional
equivalence checks to toy sizes.  This module instead *compiles* a procedure
once: the object code is lowered to generated Python source in which

* loop nests become ``range`` loops,
* innermost loops whose bodies are assignments/reductions with dense affine
  accesses are vectorised into whole-array NumPy statements
  (``y[0:n] += alpha * x[0:n]``), with loop-carried scalars expanded into
  vector temporaries and invariant-index reductions turned into ``.sum()``;
  affine ``if`` guards (masked ``@instr`` bodies) lower to peeled sub-range
  slices,
* call sites are *inlined* at compile time (``@instr`` bodies included) with
  fresh symbols and window/affine index composition, so the chunked loops
  scheduled kernels produce become ordinary affine loop nests
  (:func:`_inline_procedure`; calls the inliner declines compile recursively
  as opaque callees, and ``REPRO_EXEC_INLINE=0`` or ``inline=False`` disables
  inlining entirely),
* chunked loop nests left by inlining (``w*io + ii`` accesses over
  constant-width register temporaries) are folded across the *outer* loop
  into full-range strided/2-D whole-array statements — register temps expand
  to ``(chunks, lanes)`` matrices, regions become basic slices or
  bounds-checked ``as_strided`` views, invariant-index reductions become
  ``.sum(axis=0)`` (``_vec_lower_outer``), and
* windows become NumPy views.

The generated source is ``exec``-ed once and the callable cached.

Backend selection and fallback rules
------------------------------------
``run_proc(..., backend=...)`` selects the engine: ``"compiled"`` (the
default), ``"interp"`` (the tree-walking reference), or ``"differential"``
(run both and cross-check every tensor argument).  Within the compiled
engine, any *statement* the lowerer cannot handle (exotic window shapes,
uncompilable callees, constructs added to the IR later) automatically falls
back to the tree interpreter for just that statement: the generated code
packages the in-scope environment into a symbol dict, executes the original
statement node through ``_Interp.exec_stmt``, and writes scalar results back.
If a whole procedure cannot be lowered, ``run_proc`` silently runs the tree
interpreter instead, so ``backend="compiled"`` is always safe to request.

Semantics parity
----------------
The scalar lowering mirrors the interpreter operation-for-operation (same
NumPy scalar arithmetic, same integer-division rule, same dtype rounding on
scalar allocations); vectorised elementwise statements are bit-identical to
the sequential loop.  Only invariant-index reductions differ: NumPy's pairwise
summation reorders floating-point addition, which stays well within
``check_equiv`` tolerances (and is usually *more* accurate); the outer-loop
fold of chunked reductions (``.sum(axis=0)``) reorders in the same way.
Inlining is semantics-preserving by construction: tensor parameters are
by-reference views (index composition hits the same elements), scalar
parameters are only substituted when the actual is pure and the callee never
writes them, and window actuals must have provably non-negative bounds and
extents provably covering the callee's declared shape, so no
interpreter-side bounds error is skipped.  Negative buffer
indices raise :class:`InterpError` in both engines; positive out-of-bounds
accesses surface as :class:`InterpError` via NumPy's ``IndexError`` (checked
up front, per loop, for vectorised slices).  Like Exo's C backend, the engine
assumes distinct buffer arguments do not alias.

Caching
-------
Compiled callables are cached keyed by the procedure identity
(:func:`repro.ir.build.proc_identity`: structural hash, alpha-identity
signature and argument-type token — the same notion of "same procedure" the
native backend's in-process memo uses) plus the resolved inlining knob (the
two settings generate different code) plus the resolved ``par``-loop thread
count (the dispatch call sites embed it; see :mod:`repro.interp.parallel`).
Structurally identical procedures (e.g. one ``@instr`` called from many
scheduled kernels) share one compiled callable.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..backend.lowering import (
    InlineError,
    affine_decompose,
    biaffine_decompose,
    np_dtype_for,
    provably_nonneg,
    substitute_call_body,
)
from ..analysis.effects import accesses_of
from ..errors import ExoError
from ..ir import nodes as N
from ..ir.build import (
    alpha_rename_stmts,
    collect_allocs,
    collect_syms_written,
    proc_identity,
    structurally_equal,
    subst_expr,
    subst_stmts,
    used_syms_expr,
    walk,
)
from ..ir.externs import extern_by_name
from ..ir.syms import Sym
from ..ir.types import ScalarType, TensorType
from .interpreter import InterpError, _Interp
from .parallel import par_for, resolve_num_threads

__all__ = [
    "CompileError",
    "CompiledProc",
    "compile_proc",
    "compiled_source",
    "clear_compile_cache",
]


class CompileError(ExoError):
    """The procedure cannot be lowered to NumPy at all (the caller should run
    the tree interpreter instead)."""


class _CannotLower(Exception):
    """Internal: this statement needs the per-statement interpreter fallback."""


class _NoVec(Exception):
    """Internal: this loop cannot be vectorised; use the scalar lowering."""


# ---------------------------------------------------------------------------
# Runtime support referenced from generated code
# ---------------------------------------------------------------------------


def _rt_oob(buf: str, detail: str = "negative index") -> None:
    raise InterpError(f"out-of-bounds access to {buf} ({detail})")


def _intlike(v) -> bool:
    if isinstance(v, (bool, int, np.integer)):
        return True
    return isinstance(v, np.ndarray) and v.dtype.kind in "bui"


def _rt_div(a, b):
    """Object-language division: floor for integer operands, true otherwise
    (elementwise for arrays) — the interpreter's ``_binop`` rule."""
    if _intlike(a) and _intlike(b):
        return a // b
    return a / b


def _rt_stride(arr, dim: int) -> int:
    if not isinstance(arr, np.ndarray) or arr.ndim == 0:
        return 1
    return arr.strides[dim] // arr.itemsize


def _rt_astensor(v):
    return v if isinstance(v, np.ndarray) else np.asarray(v)


def _rt_strided2(arr, base: int, n: int, w: int, a: int, b: int, buf: str):
    """A bounds-checked ``(n, w)`` view of 1-D ``arr`` whose element ``(i, j)``
    is ``arr[base + a*i + b*j]`` — the access region of a chunked loop nest
    ``buf[a*io + b*ii + base]`` folded across the outer loop.  Rows are
    guaranteed disjoint by the caller's dependence analysis before the view is
    ever written through."""
    if base < 0 or base + a * (n - 1) + b * (w - 1) >= arr.shape[0]:
        _rt_oob(buf, "vector access out of range")
    s = arr.strides[0]
    return np.lib.stride_tricks.as_strided(arr[base:], shape=(n, w), strides=(a * s, b * s))


class _RunContext:
    """Per-execution state shared by a compiled procedure, its compiled
    callees, and any per-statement interpreter fallbacks (one config-state
    dict for everybody)."""

    __slots__ = ("interp",)

    def __init__(self, config_state: Optional[Dict] = None):
        self.interp = _Interp(config_state)

    def fb(self, stmt: N.Stmt, env: Dict[Sym, object]) -> None:
        """Execute one original statement node through the tree interpreter."""
        self.interp.exec_stmt(stmt, env)

    def cfg_read(self, key, label: str):
        state = self.interp.config_state
        if key not in state:
            raise InterpError(f"read of configuration field {label} before any write")
        return state[key]


class CompiledProc:
    """A procedure lowered to a Python/NumPy callable.

    ``source`` is the generated Python text (useful for debugging and tested
    directly), ``fallback_stmts`` counts statements that run through the tree
    interpreter, ``vector_loops`` counts loops lowered to whole-array NumPy
    statements (innermost or chunked outer loops), ``inlined_calls`` counts
    call sites substituted by the cross-procedure inliner before lowering,
    and ``par_loops`` counts ``pragma == "par"`` loops lowered to multicore
    chunk dispatch (:func:`repro.interp.parallel.par_for`).
    """

    __slots__ = (
        "name",
        "source",
        "fn",
        "fallback_stmts",
        "vector_loops",
        "inlined_calls",
        "par_loops",
    )

    def __init__(
        self,
        name: str,
        source: str,
        fn,
        fallback_stmts: int,
        vector_loops: int,
        inlined_calls: int = 0,
        par_loops: int = 0,
    ):
        self.name = name
        self.source = source
        self.fn = fn
        self.fallback_stmts = fallback_stmts
        self.vector_loops = vector_loops
        self.inlined_calls = inlined_calls
        self.par_loops = par_loops

    def stats(self) -> Dict[str, int]:
        """The compile statistics as a plain dict (benchmark plumbing)."""
        return {
            "vector_loops": self.vector_loops,
            "fallback_stmts": self.fallback_stmts,
            "inlined_calls": self.inlined_calls,
            "par_loops": self.par_loops,
        }

    def run(self, ctx: _RunContext, argvals: Sequence[object]) -> None:
        try:
            self.fn(ctx, *argvals)
        except IndexError as exc:
            raise InterpError(f"out-of-bounds access while executing compiled {self.name}: {exc}") from exc


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

# The compiled-code cache is content-addressed (procedure identity + inliner
# flag + thread count), so entries stay valid across edits — editing never
# mutates a published root in place (see ``struct_hash``'s contract in
# ir.build).  A lock guards the map itself so
# concurrent threads (e.g. schedule-service workers) can compile and run
# procedures in parallel; compilation happens *outside* the lock, so two
# threads may race to compile the same key and one result wins — wasted work,
# never a wrong answer.
_CACHE: Dict[Tuple[Tuple[int, int, int], bool, int], CompiledProc] = {}
_CACHE_LOCK = threading.Lock()
_CACHE_LIMIT = 512
# recursion detection is per call stack, hence per thread
_TLS = threading.local()


def _in_progress() -> Set[int]:
    ids = getattr(_TLS, "in_progress", None)
    if ids is None:
        ids = _TLS.in_progress = set()
    return ids


def _inline_enabled(flag: Optional[bool]) -> bool:
    """Resolve the cross-procedure inlining knob: an explicit ``inline=``
    argument wins, then the ``REPRO_EXEC_INLINE`` environment variable
    (``"0"`` disables), default on."""
    if flag is not None:
        return bool(flag)
    return os.environ.get("REPRO_EXEC_INLINE", "1") != "0"


def compile_proc(
    procedure, *, inline: Optional[bool] = None, threads: Optional[int] = None
) -> CompiledProc:
    """Compile a :class:`Procedure` (or raw ``ProcDef``) to NumPy, memoised.

    ``inline`` controls the cross-procedure inliner (see
    :func:`_inline_procedure`); ``None`` defers to ``REPRO_EXEC_INLINE``.
    ``threads`` is the worker count ``par`` loops dispatch over (``None``
    defers to ``REPRO_NUM_THREADS`` / the CPU count); the resolved count is
    embedded in the generated dispatch calls and is therefore part of the
    cache key.  Raises :class:`CompileError` when the procedure cannot be
    lowered at all.
    """
    root = getattr(procedure, "_root", procedure)
    inl = _inline_enabled(inline)
    nthreads = resolve_num_threads(threads)
    key = (proc_identity(root), inl, nthreads)
    with _CACHE_LOCK:
        hit = _CACHE.get(key)
    if hit is not None:
        return hit
    in_progress = _in_progress()
    if id(root) in in_progress:
        raise CompileError(f"recursive call cycle through {root.name}")
    in_progress.add(id(root))
    try:
        work, n_inlined = (_inline_procedure(root) if inl else (root, 0))
        engine = _Lowerer(work, inline=inl, threads=nthreads).compile()
        engine.inlined_calls = n_inlined
    except CompileError:
        raise
    except Exception as exc:  # defensive: never let lowering bugs kill a run
        raise CompileError(f"cannot lower {root.name}: {type(exc).__name__}: {exc}") from exc
    finally:
        in_progress.discard(id(root))
    with _CACHE_LOCK:
        if len(_CACHE) >= _CACHE_LIMIT:
            _CACHE.clear()
        _CACHE[key] = engine
    return engine


def compiled_source(
    procedure, *, inline: Optional[bool] = None, threads: Optional[int] = None
) -> str:
    """The generated Python source for a procedure (compiles if needed)."""
    return compile_proc(procedure, inline=inline, threads=threads).source


def clear_compile_cache() -> None:
    with _CACHE_LOCK:
        _CACHE.clear()


# ---------------------------------------------------------------------------
# Cross-procedure inlining (compile-time)
# ---------------------------------------------------------------------------

# Soft budget on the statement count added by inlining: once exhausted,
# remaining call sites stay calls (which still compile recursively).  Set far
# above any real scheduled kernel; this only guards pathological expansion.
_INLINE_STMT_BUDGET = 20_000


def _pure_scalar_actual(e: N.Expr) -> bool:
    """May a scalar actual be substituted textually into the callee body?

    Substitution re-evaluates the expression at every read site, so it must
    be pure and cheap: constants, (possibly indexed) reads, and arithmetic
    over them.  (Externs and config reads keep the call path instead.)
    """
    if isinstance(e, N.Const):
        return True
    if isinstance(e, N.Read):
        return all(_pure_scalar_actual(i) for i in e.idx)
    if isinstance(e, N.BinOp):
        return _pure_scalar_actual(e.lhs) and _pure_scalar_actual(e.rhs)
    if isinstance(e, N.USub):
        return _pure_scalar_actual(e.arg)
    if isinstance(e, N.StrideExpr):
        return True
    return False


def _extent_covers(lo: N.Expr, hi: N.Expr, shape_expr: N.Expr) -> bool:
    """Can we prove the window interval ``lo:hi`` spans at least
    ``shape_expr`` elements?

    The interpreter materialises windows as NumPy views, so a callee access
    past the window *extent* raises even when it stays inside the base
    buffer; composed (inlined) accesses only check the base.  Inlining is
    therefore only allowed when the extent provably covers the callee's
    declared parameter shape.  Two proofs are attempted: structural equality
    ``hi == lo + shape`` (the form ``vectorize``'s ``divide_loop`` windows
    take), and constant-difference comparison with identical symbolic
    residuals (symbols compared by identity).
    """
    for cand in (N.BinOp("+", lo, shape_expr), N.BinOp("+", shape_expr, lo)):
        if structurally_equal(hi, cand):
            return True
    ch, rh = _split_const_off(hi)
    cl, rl = _split_const_off(lo)
    cs, rs = _split_const_off(shape_expr)
    if rs is not None:
        return False
    if (rh is None) != (rl is None):
        return False
    if rh is not None and not structurally_equal(rh, rl):
        return False
    return ch - cl >= cs


def _stmt_count(stmts: Sequence[N.Stmt]) -> int:
    n = 0
    for s in stmts:
        n += 1
        if isinstance(s, N.For):
            n += _stmt_count(s.body)
        elif isinstance(s, N.If):
            n += _stmt_count(s.body) + _stmt_count(s.orelse)
    return n


def _inline_procedure(root: N.ProcDef) -> Tuple[N.ProcDef, int]:
    """Substitute compiled callee bodies (including ``@instr`` bodies) into
    ``root`` at compile time.

    Calls are inlined bottom-up: each callee's body is itself inlined first
    (memoised per callee), then alpha-renamed per call site and substituted
    with window/affine index composition
    (:func:`repro.backend.lowering.substitute_call_body`).  A call site is
    *declined* — left as a call, which still compiles recursively — when:

    * a tensor actual is not a whole-buffer read or a window expression
      (e.g. a scalar cell passed as a 1-element tensor),
    * a window actual has a bound not provably non-negative (the interpreter
      rejects negative window bounds at call time; inlining would lose that
      check),
    * a scalar actual is not a pure cheap expression, the callee writes the
      scalar parameter, or the actual (or a window bound) reads a buffer the
      call can write through a tensor actual — substitution re-evaluates the
      expression at every read site, so by-value call semantics would be
      lost to aliasing,
    * the statement budget is exhausted, or the call graph is cyclic.

    Returns the (possibly new) root and the number of call sites substituted,
    counting sites inside expanded callee bodies.
    """
    budget = [_INLINE_STMT_BUDGET - _stmt_count(root.body)]
    # callee ProcDef id -> (inlined body template, nested inline count, size,
    # symbols the template writes)
    memo: Dict[int, Optional[Tuple[List[N.Stmt], int, int, Set[Sym]]]] = {}
    in_progress: Set[int] = set()

    def callee_template(cdef: N.ProcDef):
        if id(cdef) in memo:
            return memo[id(cdef)]
        if id(cdef) in in_progress:
            memo[id(cdef)] = None  # call cycle: stop inlining through it
            return None
        in_progress.add(id(cdef))
        try:
            tensors = {a.name for a in cdef.args if isinstance(a.typ, TensorType)}
            nonneg = {
                a.name
                for a in cdef.args
                if isinstance(a.typ, ScalarType) and a.typ.name == "size"
            }
            counter = [0]
            body = xform_stmts(cdef.body, tensors, nonneg, {}, counter)
            memo[id(cdef)] = (body, counter[0], _stmt_count(body), collect_syms_written(body))
        finally:
            in_progress.discard(id(cdef))
        return memo[id(cdef)]

    def try_inline_call(
        s: N.Call, tensors: Set[Sym], nonneg: Set[Sym], wbase: Dict[Sym, Sym], counter
    ) -> Optional[List[N.Stmt]]:
        cdef = getattr(s.proc, "_root", s.proc)
        if len(cdef.args) != len(s.args):
            return None
        tpl = callee_template(cdef)
        if tpl is None:
            return None
        body_tpl, nested, size, written = tpl
        # every tensor actual's base buffer is conservatively writable by the
        # call (collect_syms_written cannot see writes the callee makes
        # through its own non-inlined calls)
        writable = {
            wbase.get(actual.name, actual.name)
            for fa, actual in zip(cdef.args, s.args)
            if isinstance(fa.typ, TensorType) and isinstance(actual, (N.Read, N.WindowExpr))
        }

        def aliases_writable(e: N.Expr) -> bool:
            return any(wbase.get(sym, sym) in writable for sym in used_syms_expr(e))

        scalar_map = {
            fa.name: actual
            for fa, actual in zip(cdef.args, s.args)
            if not isinstance(fa.typ, TensorType)
        }
        for fa, actual in zip(cdef.args, s.args):
            if isinstance(fa.typ, TensorType):
                if isinstance(actual, N.WindowExpr):
                    if actual.name not in tensors:
                        return None
                    for d in actual.idx:
                        lo = d.lo if isinstance(d, N.Interval) else d.pt
                        if not provably_nonneg(lo, nonneg):
                            return None
                        # bounds are re-evaluated at every composed access
                        if aliases_writable(lo) or (isinstance(d, N.Interval) and aliases_writable(d.hi)):
                            return None
                    # the window extent must provably cover the callee's
                    # declared shape: the interpreter errors on accesses past
                    # the window VIEW, composed accesses only past the base
                    intervals = [d for d in actual.idx if isinstance(d, N.Interval)]
                    if len(intervals) != len(fa.typ.shape):
                        return None
                    for d, se in zip(intervals, fa.typ.shape):
                        if not _extent_covers(d.lo, d.hi, subst_expr(se, scalar_map)):
                            return None
                elif isinstance(actual, N.Read) and not actual.idx:
                    # whole-buffer actuals need no extent check: composed
                    # accesses hit the same array with the same indices
                    if actual.name not in tensors:
                        return None
                else:
                    return None
            else:
                if fa.name in written or not _pure_scalar_actual(actual):
                    return None
                # the interpreter evaluates the actual ONCE at call time; the
                # substituted expression re-reads at every use, so it must
                # not observe the call's own writes
                if aliases_writable(actual):
                    return None
        if size > budget[0]:
            return None
        fresh = alpha_rename_stmts(body_tpl)
        try:
            out = substitute_call_body(cdef.args, s.args, fresh)
        except InlineError:
            return None
        budget[0] -= size
        counter[0] += 1 + nested
        return out

    def xform_stmts(
        stmts: Sequence[N.Stmt], tensors: Set[Sym], nonneg: Set[Sym], wbase: Dict[Sym, Sym], counter
    ) -> List[N.Stmt]:
        out: List[N.Stmt] = []
        for s in stmts:
            if isinstance(s, N.Call):
                repl = try_inline_call(s, tensors, nonneg, wbase, counter)
                if repl is not None:
                    out.extend(repl)
                else:
                    out.append(s)
                continue
            if isinstance(s, N.For):
                if provably_nonneg(s.lo, nonneg):
                    nonneg.add(s.iter)
                body = xform_stmts(s.body, tensors, nonneg, wbase, counter)
                if (
                    isinstance(s.lo, N.Const)
                    and s.lo.val == 0
                    and isinstance(s.hi, N.Const)
                    and s.hi.val == 1
                ):
                    # collapse constant trip-1 loops (`divide_loop` residue):
                    # they otherwise hide chunked nests from the outer-loop
                    # vectoriser one level up
                    out.extend(subst_stmts(body, {s.iter: N.Const(0)}))
                    continue
                out.append(N.For(s.iter, s.lo, s.hi, body, s.pragma))
                continue
            if isinstance(s, N.If):
                out.append(
                    N.If(
                        s.cond,
                        xform_stmts(s.body, tensors, nonneg, wbase, counter),
                        xform_stmts(s.orelse, tensors, nonneg, wbase, counter),
                    )
                )
                continue
            if isinstance(s, N.Alloc) and isinstance(s.typ, TensorType):
                tensors.add(s.name)
            elif isinstance(s, N.WindowStmt):
                tensors.add(s.name)
                if s.rhs is not None:
                    wbase[s.name] = wbase.get(s.rhs.name, s.rhs.name)
            out.append(s)
        return out

    tensors = {a.name for a in root.args if isinstance(a.typ, TensorType)}
    nonneg = {
        a.name for a in root.args if isinstance(a.typ, ScalarType) and a.typ.name == "size"
    }
    counter = [0]
    body = xform_stmts(root.body, tensors, nonneg, {}, counter)
    if counter[0] == 0:
        return root, 0
    return N.ProcDef(root.name, root.args, root.preds, body, root.instr), counter[0]


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name) or "v"


def _free_syms(s: N.Stmt) -> Set[Sym]:
    """Symbols a statement needs from the enclosing scope (reads, writes and
    shape references, minus anything the statement itself binds)."""
    free: Set[Sym] = set()
    bound: Set[Sym] = set()
    for n, _ in walk(s):
        if isinstance(n, (N.Read, N.WindowExpr, N.StrideExpr)):
            free.add(n.name)
        elif isinstance(n, (N.Assign, N.Reduce)):
            free.add(n.name)
        elif isinstance(n, N.Alloc):
            bound.add(n.name)
            if isinstance(n.typ, TensorType):
                for e in n.typ.shape:
                    free |= used_syms_expr(e)
        elif isinstance(n, N.For):
            bound.add(n.iter)
        elif isinstance(n, N.WindowStmt):
            bound.add(n.name)
    return free - bound


def _split_const_off(e: Optional[N.Expr]) -> Tuple[int, Optional[N.Expr]]:
    """Split an offset expression into ``(constant, residual)`` along its
    additive structure (the residual is ``None`` for a pure constant).  The
    outer-loop vectoriser compares accesses by (residual, constant) to prove
    chunked regions disjoint within one period of the outer stride."""
    if e is None:
        return 0, None
    if isinstance(e, N.Const) and isinstance(e.val, (int, np.integer)) and not isinstance(e.val, bool):
        return int(e.val), None
    if isinstance(e, N.BinOp) and e.op in ("+", "-"):
        cl, rl = _split_const_off(e.lhs)
        cr, rr = _split_const_off(e.rhs)
        c = cl + cr if e.op == "+" else cl - cr
        if rr is None:
            rest = rl
        elif rl is None:
            rest = rr if e.op == "+" else N.USub(rr)
        else:
            rest = N.BinOp(e.op, rl, rr)
        return c, rest
    if isinstance(e, N.USub):
        c, r = _split_const_off(e.arg)
        return -c, (None if r is None else N.USub(r))
    return 0, e


def _join_kind(a: str, b: str) -> str:
    """Join two 2-D operand axis kinds: 's'calar, 'r'ow (lanes), 'c'olumn
    (chunks), 'f'ull (chunks x lanes)."""
    if a == "s":
        return b
    if b == "s":
        return a
    if a == b:
        return a
    return "f"


class _Vec:
    """A lowered sub-expression inside a vectorised loop body."""

    __slots__ = ("src", "vec", "atom")

    def __init__(self, src: str, vec: bool, atom: bool = False):
        self.src = src
        self.vec = vec  # does it evaluate to a whole-array value?
        self.atom = atom  # may it be a *view* of a buffer (needs copy on bind)?


class _Lowerer:
    def __init__(self, root: N.ProcDef, inline: bool = True, threads: int = 1):
        self.root = root
        self.inline = inline  # propagate the knob to recursively compiled callees
        self.threads = threads  # par-loop dispatch width (also in the cache key)
        self.in_par = False  # inside a par chunk body: nested pars stay serial
        self.lines: List[str] = []
        self.indent = 1
        self.consts: List[object] = []
        self.const_ix: Dict[int, int] = {}
        self.bound: Dict[Sym, Tuple[str, str]] = {}  # sym -> (pyname, kind)
        self.window_base: Dict[Sym, Sym] = {}  # window sym -> root base buffer
        self.scalar_cast: Dict[Sym, int] = {}  # alloc'd scalars: const-ix of np type
        self.nonneg: Set[Sym] = set()
        self.cells: Set[Sym] = set()
        self.ntemp = 0
        self.n_fallback = 0
        self.n_vec = 0
        self.n_par = 0

    # -- small utilities ---------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def temp(self) -> str:
        self.ntemp += 1
        return f"__t{self.ntemp}"

    def const(self, obj) -> int:
        ix = self.const_ix.get(id(obj))
        if ix is None:
            ix = len(self.consts)
            self.consts.append(obj)
            self.const_ix[id(obj)] = ix
        return ix

    def bind(self, sym: Sym, kind: str) -> str:
        if sym in self.bound:
            name = self.bound[sym][0]
            self.bound[sym] = (name, kind)
            return name
        name = f"{_sanitize(sym.name)}_{len(self.bound)}"
        self.bound[sym] = (name, kind)
        return name

    # -- entry -------------------------------------------------------------------

    def compile(self) -> CompiledProc:
        root = self.root
        self.cells = self._find_cell_syms(root)
        params: List[str] = []
        for a in root.args:
            if isinstance(a.typ, TensorType):
                kind = "tensor"
            elif a.typ.is_indexable():
                kind = "index"
            else:
                kind = "scalar"
            params.append(self.bind(a.name, kind))
            if isinstance(a.typ, ScalarType) and a.typ.name == "size":
                self.nonneg.add(a.name)
        self.lower_stmts(root.body)
        if not self.lines:
            self.emit("pass")
        source = f"def __kernel(__ctx, {', '.join(params)}):\n" + "\n".join(self.lines)
        ns = {
            "np": np,
            "__K": self.consts,
            "_oob": _rt_oob,
            "_div": _rt_div,
            "_stride": _rt_stride,
            "_astensor": _rt_astensor,
            "_strided2": _rt_strided2,
            "_par_for": par_for,
        }
        code = compile(source, f"<repro.compiled:{root.name}>", "exec")
        exec(code, ns)
        return CompiledProc(
            root.name, source, ns["__kernel"], self.n_fallback, self.n_vec, par_loops=self.n_par
        )

    @staticmethod
    def _find_cell_syms(root: N.ProcDef) -> Set[Sym]:
        """Scalar allocations that must be represented as 0-d arrays because
        they are windowed, strided, or passed to a tensor parameter."""
        scalars = set()
        for n, _ in walk(root):
            if isinstance(n, N.Alloc) and isinstance(n.typ, ScalarType):
                scalars.add(n.name)
        cells: Set[Sym] = set()
        for n, _ in walk(root):
            if isinstance(n, (N.WindowExpr, N.StrideExpr)) and n.name in scalars:
                cells.add(n.name)
            elif isinstance(n, N.Call):
                cdef = getattr(n.proc, "_root", n.proc)
                for fa, actual in zip(cdef.args, n.args):
                    if (
                        isinstance(fa.typ, TensorType)
                        and isinstance(actual, N.Read)
                        and not actual.idx
                        and actual.name in scalars
                    ):
                        cells.add(actual.name)
        return cells

    # -- statements --------------------------------------------------------------

    def lower_stmts(self, stmts: Sequence[N.Stmt]) -> None:
        for s in stmts:
            mark = len(self.lines)
            try:
                self.lower_stmt(s)
            except _CannotLower:
                del self.lines[mark:]
                self.emit_fallback(s)

    def lower_stmt(self, s: N.Stmt) -> None:
        if isinstance(s, (N.Assign, N.Reduce)):
            self.stmt_assign(s, aug=isinstance(s, N.Reduce))
        elif isinstance(s, N.Alloc):
            self.stmt_alloc(s)
        elif isinstance(s, N.For):
            self.stmt_for(s)
        elif isinstance(s, N.If):
            self.stmt_if(s)
        elif isinstance(s, N.Pass):
            self.emit("pass")
        elif isinstance(s, N.Call):
            self.stmt_call(s)
        elif isinstance(s, N.WindowStmt):
            src = self.window_expr(s.rhs)
            base = self.window_base.get(s.rhs.name, s.rhs.name)
            self.emit(f"{self.bind(s.name, 'tensor')} = {src}")
            self.window_base[s.name] = base
        elif isinstance(s, N.WriteConfig):
            key = self.const((id(s.config), s.field_name))
            rhs = self.value_expr(s.rhs)
            self.emit(f"__ctx.interp.config_state[__K[{key}]] = {rhs}")
        else:
            raise _CannotLower(type(s).__name__)

    def guarded_indices(self, buf_sym: Sym, idx_exprs: Sequence[N.Expr]) -> List[str]:
        """Render scalar index expressions, inserting a negative-index guard
        for any index that is not provably non-negative (positive overflow is
        caught by NumPy's own IndexError)."""
        srcs: List[str] = []
        guards: List[str] = []
        for e in idx_exprs:
            src = self.int_expr(e)
            if provably_nonneg(e, self.nonneg):
                srcs.append(src)
            else:
                t = self.temp()
                self.emit(f"{t} = {src}")
                guards.append(t)
                srcs.append(t)
        if guards:
            cond = " or ".join(f"{g} < 0" for g in guards)
            self.emit(f"if {cond}:")
            self.emit(f"    _oob({buf_sym.name!r})")
        return srcs

    def stmt_assign(self, s, aug: bool) -> None:
        info = self.bound.get(s.name)
        if info is None:
            raise _CannotLower("write to unbound symbol")
        name, kind = info
        if kind in ("tensor", "cell"):
            if s.idx:
                idxs = self.guarded_indices(s.name, s.idx)
                target = f"{name}[{', '.join(idxs)}]"
            else:
                target = f"{name}[()]"
            rhs = self.value_expr(s.rhs)
            self.emit(f"{target} {'+=' if aug else '='} {rhs}")
            return
        # plain scalar (or index) local / argument
        if s.idx:
            raise _CannotLower("indexed write to scalar")
        rhs = self.value_expr(s.rhs)
        expr = f"{name} + ({rhs})" if aug else rhs
        cast = self.scalar_cast.get(s.name)
        if cast is not None:
            # mirror the interpreter's dtype rounding on scalar allocations
            expr = f"__K[{cast}]({expr})"
        self.emit(f"{name} = {expr}")

    def stmt_alloc(self, s: N.Alloc) -> None:
        if isinstance(s.typ, TensorType):
            name = self.bind(s.name, "tensor")
            dt = self.const(np_dtype_for(s.typ).type)
            dims = "".join(f"int({self.int_expr(d)}), " for d in s.typ.shape)
            self.emit(f"{name} = np.zeros(({dims}), dtype=__K[{dt}])")
            return
        dt_type = np_dtype_for(s.typ).type
        if s.name in self.cells:
            name = self.bind(s.name, "cell")
            self.emit(f"{name} = np.zeros((), dtype=__K[{self.const(dt_type)}])")
            return
        name = self.bind(s.name, "scalar")
        self.scalar_cast[s.name] = self.const(dt_type)
        zero = "0.0" if np.dtype(dt_type).kind == "f" else "0"
        self.emit(f"{name} = {zero}")

    def stmt_for(self, s: N.For) -> None:
        lo_t, hi_t = self.temp(), self.temp()
        self.emit(f"{lo_t} = int({self.int_expr(s.lo)})")
        self.emit(f"{hi_t} = int({self.int_expr(s.hi)})")
        if s.pragma == "par" and not self.in_par and self._try_parallel(s, lo_t, hi_t):
            self.n_par += 1
            return
        if self._try_vectorize(s, lo_t, hi_t):
            self.n_vec += 1
            return
        if self._try_vectorize_outer(s, lo_t, hi_t):
            self.n_vec += 1
            return
        name = self.bind(s.iter, "index")
        if provably_nonneg(s.lo, self.nonneg):
            self.nonneg.add(s.iter)
        else:
            self.nonneg.discard(s.iter)
        self.emit(f"for {name} in range({lo_t}, {hi_t}):")
        self.indent += 1
        mark = len(self.lines)
        self.lower_stmts(s.body)
        if len(self.lines) == mark:
            self.emit("pass")
        self.indent -= 1

    def stmt_if(self, s: N.If) -> None:
        cond = self.value_expr(s.cond)
        self.emit(f"if {cond}:")
        self.indent += 1
        mark = len(self.lines)
        self.lower_stmts(s.body)
        if len(self.lines) == mark:
            self.emit("pass")
        self.indent -= 1
        if s.orelse:
            self.emit("else:")
            self.indent += 1
            mark = len(self.lines)
            self.lower_stmts(s.orelse)
            if len(self.lines) == mark:
                self.emit("pass")
            self.indent -= 1

    def stmt_call(self, s: N.Call) -> None:
        cdef = getattr(s.proc, "_root", s.proc)
        try:
            callee = compile_proc(cdef, inline=self.inline, threads=self.threads)
        except CompileError as exc:
            raise _CannotLower(str(exc)) from None
        args_src = ["__ctx"]
        for fa, actual in zip(cdef.args, s.args):
            if isinstance(fa.typ, TensorType):
                args_src.append(self.tensor_arg_expr(actual))
            else:
                args_src.append(self.value_expr(actual))
        self.emit(f"__K[{self.const(callee.fn)}]({', '.join(args_src)})")

    def tensor_arg_expr(self, actual: N.Expr) -> str:
        if isinstance(actual, N.Read) and not actual.idx:
            info = self.bound.get(actual.name)
            if info is None:
                raise _CannotLower("unbound tensor argument")
            if info[1] in ("tensor", "cell"):
                return info[0]
            raise _CannotLower("scalar passed as tensor argument")
        if isinstance(actual, N.WindowExpr):
            return self.window_expr(actual)
        return f"_astensor({self.value_expr(actual)})"

    def emit_fallback(self, s: N.Stmt) -> None:
        """Per-construct fallback: run the original statement node through the
        tree interpreter with the current in-scope environment."""
        self.n_fallback += 1
        free = _free_syms(s)
        missing = [sym for sym in free if sym not in self.bound]
        if missing:
            raise CompileError(
                f"{self.root.name}: statement references out-of-scope symbols {missing}"
            )
        pairs = [
            f"__K[{self.const(sym)}]: {info[0]}"
            for sym, info in self.bound.items()
            if sym in free
        ]
        env = self.temp()
        self.emit(f"{env} = {{{', '.join(pairs)}}}")
        self.emit(f"__ctx.fb(__K[{self.const(s)}], {env})")
        if isinstance(s, N.Alloc):
            kind = "tensor" if isinstance(s.typ, TensorType) else "cell"
            self.emit(f"{self.bind(s.name, kind)} = {env}[__K[{self.const(s.name)}]]")
        elif isinstance(s, N.WindowStmt):
            self.emit(f"{self.bind(s.name, 'tensor')} = {env}[__K[{self.const(s.name)}]]")
            if s.rhs is not None:
                self.window_base[s.name] = self.window_base.get(s.rhs.name, s.rhs.name)
        else:
            for sym in collect_syms_written(s):
                info = self.bound.get(sym)
                if info is not None and info[1] in ("scalar", "index"):
                    self.emit(f"{info[0]} = {env}[__K[{self.const(sym)}]]")

    # -- expressions (scalar contexts) --------------------------------------------

    def int_expr(self, e: N.Expr) -> str:
        return self._expr(e, int_ctx=True)

    def value_expr(self, e: N.Expr) -> str:
        return self._expr(e, int_ctx=False)

    def _expr(self, e: N.Expr, int_ctx: bool) -> str:
        if isinstance(e, N.Const):
            if isinstance(e.val, bool):
                return "True" if e.val else "False"
            return repr(e.val)
        if isinstance(e, N.Read):
            info = self.bound.get(e.name)
            if info is None:
                raise _CannotLower(f"read of unbound symbol {e.name}")
            name, kind = info
            if kind == "tensor":
                if not e.idx:
                    return name
                idxs = self.guarded_indices(e.name, e.idx)
                return f"{name}[{', '.join(idxs)}]"
            if kind == "cell":
                if e.idx:
                    idxs = self.guarded_indices(e.name, e.idx)
                    return f"{name}[{', '.join(idxs)}]"
                return f"{name}[()]"
            if e.idx:
                raise _CannotLower("indexed read of scalar")
            return name
        if isinstance(e, N.BinOp):
            lhs = self._expr(e.lhs, int_ctx)
            rhs = self._expr(e.rhs, int_ctx)
            if e.op == "/":
                return f"(({lhs}) // ({rhs}))" if int_ctx else f"_div({lhs}, {rhs})"
            if e.op in ("and", "or"):
                return f"(bool({lhs}) {e.op} bool({rhs}))"
            return f"({lhs} {e.op} {rhs})"
        if isinstance(e, N.USub):
            return f"(-{self._expr(e.arg, int_ctx)})"
        if isinstance(e, N.Extern):
            impl = self.const(extern_by_name(e.fname).impl)
            args = ", ".join(self._expr(a, False) for a in e.args)
            return f"__K[{impl}]({args})"
        if isinstance(e, N.StrideExpr):
            info = self.bound.get(e.name)
            if info is None:
                raise _CannotLower("stride of unbound symbol")
            return f"_stride({info[0]}, {e.dim})"
        if isinstance(e, N.ReadConfig):
            key = self.const((id(e.config), e.field_name))
            label = f"{e.config.name()}.{e.field_name}"
            return f"__ctx.cfg_read(__K[{key}], {label!r})"
        if isinstance(e, N.WindowExpr):
            return self.window_expr(e)
        raise _CannotLower(type(e).__name__)

    def window_expr(self, w: N.WindowExpr) -> str:
        info = self.bound.get(w.name)
        if info is None:
            raise _CannotLower("window of unbound symbol")
        name, kind = info
        if kind == "cell":
            # the interpreter's scalar-window special case: x[0:1] -> 1-vector
            if (
                len(w.idx) == 1
                and isinstance(w.idx[0], N.Interval)
                and isinstance(w.idx[0].lo, N.Const)
                and w.idx[0].lo.val == 0
                and isinstance(w.idx[0].hi, N.Const)
                and w.idx[0].hi.val == 1
            ):
                return f"{name}.reshape(1)"
            raise _CannotLower("window of scalar cell")
        if kind != "tensor":
            raise _CannotLower("window of scalar")
        parts: List[str] = []
        guards: List[str] = []

        def rendered(e: N.Expr) -> str:
            src = self.int_expr(e)
            if provably_nonneg(e, self.nonneg):
                return src
            t = self.temp()
            self.emit(f"{t} = {src}")
            guards.append(t)
            return t

        for d in w.idx:
            if isinstance(d, N.Interval):
                parts.append(f"{rendered(d.lo)}:{rendered(d.hi)}")
            else:
                parts.append(rendered(d.pt))
        if guards:
            cond = " or ".join(f"{g} < 0" for g in guards)
            self.emit(f"if {cond}:")
            self.emit(f"    _oob({w.name.name!r})")
        return f"{name}[{', '.join(parts)}]"

    # -- parallel dispatch --------------------------------------------------------

    def _try_parallel(self, s: N.For, lo_t: str, hi_t: str) -> bool:
        """Lower a ``pragma == "par"`` loop to chunked multicore dispatch.

        Returns False (and records a ``par->seq`` fallback event) when the
        body cannot be dispatched safely, in which case the loop lowers
        through the ordinary sequential path."""
        mark = len(self.lines)
        try:
            self._par_lower(s, lo_t, hi_t)
            return True
        except (_NoVec, _CannotLower) as exc:
            del self.lines[mark:]
            from ..guard import record_fallback

            record_fallback(
                self.root.name,
                "par->seq",
                "par-unlowerable",
                detail=str(exc) or type(exc).__name__,
            )
            return False

    def _par_lower(self, s: N.For, lo_t: str, hi_t: str) -> None:
        """Emit ``def <chunk>(lo, hi, *privs): <sequential loop>`` plus a
        ``_par_for`` dispatch call.

        The chunk body is the *ordinary sequential lowering* of the same loop
        over a parametric sub-range — including its vectorisation — so each
        chunk runs the exact whole-array code the sequential build runs,
        just on a slice of the iteration space.  Buffers whose body accesses
        are all reductions at iteration-invariant cells are privatized (each
        chunk accumulates into a zeroed copy; :func:`par_for` combines the
        partials in chunk order); buffers whose writes are indexed by the
        iterator stay shared (iterations touch disjoint cells — the
        ``parallelize_loop`` safety check proved it).  Anything else declines.
        """
        it = s.iter
        body = list(s.body)
        body_written = collect_syms_written(body)
        if it in body_written:
            raise _NoVec("par loop writes its own iterator")
        for st in body:
            for n, _ in walk(st):
                if isinstance(n, (N.WriteConfig, N.ReadConfig)):
                    # the shared config-state dict is not synchronised
                    raise _NoVec("par body touches configuration state")
        local = {a.name for a in collect_allocs(body)}
        by_buf: Dict[Sym, List] = {}
        for a in accesses_of(body):
            if a.buf in local or a.buf is it:
                continue
            by_buf.setdefault(a.buf, []).append(a)

        priv_arrays: List[Sym] = []
        priv_scalars: List[Sym] = []
        outer_written = [sym for sym in body_written if sym in self.bound]
        for sym in sorted(outer_written, key=lambda sm: self.bound[sm][0]):
            kind = self.bound[sym][1]
            lst = by_buf.get(sym, [])
            allreduce = bool(lst) and all(a.kind == "reduce" for a in lst)
            if kind in ("tensor", "cell"):
                writes = [a for a in lst if a.is_write()]
                reads = [a for a in lst if a.kind == "read"]
                disjoint = bool(writes) and all(
                    a.idx is not None and any(it in used_syms_expr(ix) for ix in a.idx)
                    for a in writes
                )
                if disjoint and all(a.idx is not None for a in reads):
                    continue  # shared: distinct iterations touch distinct cells
                if allreduce:
                    priv_arrays.append(sym)  # privatize + ordered combine
                    continue
                raise _NoVec(f"cannot prove writes to {sym.name} race-free")
            if kind == "scalar" and allreduce:
                priv_scalars.append(sym)
                continue
            raise _NoVec(f"scalar {sym.name} written non-reductively in par body")

        lo_sym, hi_sym = Sym("__plo"), Sym("__phi")
        priv_names = [self.bound[sym][0] for sym in priv_arrays]
        params = [self.bind(lo_sym, "index"), self.bind(hi_sym, "index")] + priv_names
        if provably_nonneg(s.lo, self.nonneg):
            # chunk bounds lie inside [lo, hi), so both inherit lo's sign
            self.nonneg.add(lo_sym)
            self.nonneg.add(hi_sym)
        fn_t = self.temp()
        self.emit(f"def {fn_t}({', '.join(params)}):")
        self.indent += 1
        for sym in priv_scalars:
            # each chunk accumulates its delta from zero; par_for's caller
            # (below) folds the deltas back in chunk order
            name = self.bound[sym][0]
            cast = self.scalar_cast.get(sym)
            zero = "0" if cast is not None and np.dtype(self.consts[cast]).kind != "f" else "0.0"
            self.emit(f"{name} = {zero}")
        inner = N.For(it, N.Read(lo_sym, []), N.Read(hi_sym, []), body, "seq")
        prev_in_par, self.in_par = self.in_par, True
        try:
            self.stmt_for(inner)
        finally:
            self.in_par = prev_in_par
        rets = "".join(f"{self.bound[sym][0]}, " for sym in priv_scalars)
        self.emit(f"return ({rets})")
        self.indent -= 1
        res_t = self.temp()
        arrs = "".join(f"{nm}, " for nm in priv_names)
        self.emit(
            f"{res_t} = _par_for({fn_t}, {lo_t}, {hi_t}, {self.threads}, "
            f"({arrs}), {self.root.name!r}, {bool(priv_arrays or priv_scalars)})"
        )
        for j, sym in enumerate(priv_scalars):
            name = self.bound[sym][0]
            cast = self.scalar_cast.get(sym)
            chunk_t = self.temp()
            self.emit(f"for {chunk_t} in {res_t}:")
            expr = f"{name} + {chunk_t}[{j}]"
            if cast is not None:
                expr = f"__K[{cast}]({expr})"
            self.emit(f"    {name} = {expr}")

    # -- vectorisation ------------------------------------------------------------

    def _try_vectorize(self, s: N.For, lo_t: str, hi_t: str) -> bool:
        mark = len(self.lines)
        try:
            pre, body = self._vec_lower(s, lo_t, hi_t)
        except (_NoVec, _CannotLower):
            del self.lines[mark:]  # discard any partial emission from analysis
            return False
        self.emit(f"if {hi_t} > {lo_t}:")
        self.indent += 1
        for line in pre:
            self.emit(line)
        for line in body:
            self.emit(line)
        self.indent -= 1
        return True

    def _vec_lower(self, s: N.For, lo_t: str, hi_t: str) -> Tuple[List[str], List[str]]:
        """Lower an innermost map/reduction loop to whole-array statements.

        Returns ``(pre, body)`` line lists (offset temps + bounds guards, then
        the vector statements) or raises ``_NoVec``.  The rules:

        * the body may contain only scalar allocations, assignments and
          reductions (plus ``pass``);
        * every buffer index must be affine in the iterator with a constant
          non-negative coefficient and a loop-invariant offset;
        * a buffer that is written is either accessed *only* through one
          iterator-dependent index pattern (an elementwise map — exact), or
          reduced at an invariant index and never read (a ``.sum()``);
        * scalars allocated in the body become vector temporaries (classic
          scalar expansion); outer scalars may only be sum-reduced.
        """
        iv = s.iter
        body_written = collect_syms_written(s.body)
        if iv in body_written:
            raise _NoVec
        reads_in_body = {
            n.name
            for st in s.body
            for n, _ in walk(st)
            if isinstance(n, (N.Read, N.WindowExpr, N.StrideExpr))
        }

        vtemps: Dict[Sym, str] = {}  # alloc'd scalar -> local pyname
        vtemp_vec: Dict[Sym, bool] = {}  # does the temp currently hold a vector?
        vtemp_syms: Set[Sym] = set()
        # (stmt, clip) where clip is None or ("lt"|"ge", bound expr): the
        # statement only runs for iterations below / from `bound` — the
        # lowering of affine `if` guards (masked @instr bodies) as peeled
        # sub-ranges of the whole-array statements
        work: List[Tuple[N.Stmt, Optional[Tuple[str, N.Expr]]]] = []
        for st in s.body:
            if isinstance(st, N.Pass):
                continue
            if isinstance(st, N.Alloc):
                if isinstance(st.typ, TensorType) or st.name in self.cells:
                    raise _NoVec
                vtemp_syms.add(st.name)
                continue
            if isinstance(st, (N.Assign, N.Reduce)):
                work.append((st, None))
                continue
            if isinstance(st, N.If) and not st.orelse:
                clip = self._clip_from_cond(st.cond, iv)
                if clip is None:
                    raise _NoVec
                inner = [x for x in st.body if not isinstance(x, N.Pass)]
                if not inner or not all(isinstance(x, (N.Assign, N.Reduce)) for x in inner):
                    raise _NoVec
                for x in inner:
                    work.append((x, clip))
                continue
            raise _NoVec
        if not work:
            raise _NoVec

        # first-access discipline for expanded scalars: written (by Assign)
        # before ever read, and never used as an index.  Guarded statements
        # may not touch expanded scalars at all: a clipped vector temporary
        # would be misaligned against the full-range ones.
        seen_write: Set[Sym] = set()
        for st, clip in work:
            stmt_reads = {
                n.name
                for src in (list(st.idx) + [st.rhs] if st.idx else [st.rhs])
                for n, _ in walk(src)
                if isinstance(n, (N.Read, N.WindowExpr, N.StrideExpr))
            }
            if clip is not None:
                if st.name in vtemp_syms or stmt_reads & vtemp_syms:
                    raise _NoVec
                bsyms = used_syms_expr(clip[1])
                if bsyms & body_written or bsyms & vtemp_syms:
                    raise _NoVec
                for n, _ in walk(clip[1]):
                    if isinstance(n, N.Read) and n.idx or isinstance(n, N.WindowExpr):
                        raise _NoVec
            for sym in stmt_reads & vtemp_syms:
                if sym not in seen_write:
                    raise _NoVec
            if st.name in vtemp_syms:
                if isinstance(st, N.Assign):
                    seen_write.add(st.name)
                elif st.name not in seen_write:
                    raise _NoVec

        # outer scalars may only be sum-accumulated
        acc_syms: Set[Sym] = set()
        for sym in body_written:
            info = self.bound.get(sym)
            if sym in vtemp_syms or info is None:
                continue
            if info[1] in ("scalar", "index"):
                if sym in reads_in_body:
                    raise _NoVec
                for st, _clip in work:
                    if st.name is sym and isinstance(st, N.Assign):
                        raise _NoVec
                acc_syms.add(sym)

        pre: List[str] = []
        body_lines: List[str] = []
        off_cache: Dict[str, str] = {}
        slice_cache: Dict[Tuple, str] = {}
        elem_cache: Dict[Tuple, str] = {}
        guarded: Set[Tuple] = set()
        accesses: List[Tuple[Sym, Tuple, bool]] = []  # (buf, sig, is_write)
        need_iota = [False]
        clip_rng: Dict[Tuple[str, str], Tuple[str, str]] = {}
        # per-statement lowering context: the iteration sub-range and the line
        # sink for bounds guards (the shared `pre` for full-range statements, a
        # conditional block for clipped ones)
        cur = {"rng": (lo_t, hi_t), "sink": pre, "clipped": False}

        def off_temp(off_src: str) -> str:
            t = off_cache.get(off_src)
            if t is None:
                t = self.temp()
                off_cache[off_src] = t
                pre.append(f"{t} = {off_src}")
            return t

        def rng_for(clip: Optional[Tuple[str, N.Expr]]) -> Tuple[str, str]:
            if clip is None:
                return (lo_t, hi_t)
            kind, bexpr = clip
            bsrc = self.int_expr(bexpr)
            key = (kind, bsrc)
            hit = clip_rng.get(key)
            if hit is not None:
                return hit
            bt = self.temp()
            pre.append(f"{bt} = int({bsrc})")
            if kind == "lt":
                t = self.temp()
                pre.append(f"{t} = min({hi_t}, {bt})")
                rng = (lo_t, t)
            else:
                t = self.temp()
                pre.append(f"{t} = max({lo_t}, {bt})")
                rng = (t, hi_t)
            clip_rng[key] = rng
            return rng

        def dims_sig(idx_exprs: Sequence[N.Expr]) -> Tuple:
            dims = []
            for e in idx_exprs:
                dec = affine_decompose(e, iv)
                if dec is None:
                    raise _NoVec
                c, off = dec
                if c < 0:
                    raise _NoVec
                if c != 0 and any(cd for cd, _, _ in dims):
                    # iterator in two dimensions of one access (a diagonal):
                    # independent slices would turn it into an outer product
                    raise _NoVec
                if off is None:
                    off_src, off_nonneg = "0", True
                else:
                    osyms = used_syms_expr(off)
                    if osyms & body_written or osyms & vtemp_syms:
                        raise _NoVec
                    # no indirect addressing in offsets (their lowering would
                    # need guard emission, which the vector plan hoists)
                    for n, _ in walk(off):
                        if isinstance(n, N.Read) and n.idx or isinstance(n, N.WindowExpr):
                            raise _NoVec
                    off_src = self.int_expr(off)
                    off_nonneg = provably_nonneg(off, self.nonneg)
                dims.append((c, off_src, off_nonneg))
            return tuple(dims)

        def elem_src(buf: Sym, sig: Tuple) -> str:
            sink = cur["sink"]
            key = (buf, sig, cur["rng"])
            hit = elem_cache.get(key)
            if hit is not None:
                return hit
            name = self.bound[buf][0]
            idxs = []
            bad = []
            for c, off_src, off_nonneg in sig:
                t = off_temp(off_src)
                idxs.append(t)
                if not off_nonneg:
                    bad.append(t)
            if bad and key not in guarded:
                guarded.add(key)
                sink.append(f"if {' or '.join(f'{t} < 0' for t in bad)}:")
                sink.append(f"    _oob({buf.name!r})")
            src = f"{name}[{', '.join(idxs)}]" if sig else f"{name}[()]"
            elem_cache[key] = src
            return src

        def slice_src(buf: Sym, sig: Tuple) -> str:
            lo_r, hi_r = cur["rng"]
            sink = cur["sink"]
            key = (buf, sig, (lo_r, hi_r))
            hit = slice_cache.get(key)
            if hit is not None:
                return hit
            name = self.bound[buf][0]
            parts = []
            for d, (c, off_src, off_nonneg) in enumerate(sig):
                if c == 0:
                    t = off_temp(off_src)
                    parts.append(t)
                    if not off_nonneg:
                        sink.append(f"if {t} < 0:")
                        sink.append(f"    _oob({buf.name!r})")
                    continue
                base = "" if off_src == "0" else f"{off_temp(off_src)} + "
                if c == 1:
                    start, last = f"{base}{lo_r}", f"{base}{hi_r} - 1"
                    stop, step = f"{base}{hi_r}", ""
                else:
                    start = f"{base}{c} * {lo_r}"
                    last = f"{base}{c} * ({hi_r} - 1)"
                    stop, step = f"{last} + 1", f":{c}"
                sink.append(f"if ({start}) < 0 or ({last}) >= {name}.shape[{d}]:")
                sink.append(f"    _oob({buf.name!r}, 'vector access out of range')")
                parts.append(f"{start}:{stop}{step}")
            src = f"{name}[{', '.join(parts)}]"
            slice_cache[key] = src
            return src

        def vec_expr(e: N.Expr) -> _Vec:
            if isinstance(e, N.Const):
                if isinstance(e.val, bool):
                    return _Vec("True" if e.val else "False", False)
                return _Vec(repr(e.val), False)
            if isinstance(e, N.Read):
                sym = e.name
                if sym is iv and not e.idx:
                    if cur["clipped"]:
                        raise _NoVec  # iota is built for the full range only
                    need_iota[0] = True
                    return _Vec("__iota", True, atom=True)
                if sym in vtemps:
                    if e.idx:
                        raise _NoVec
                    # a temp assigned a loop-invariant RHS is still a scalar
                    isv = vtemp_vec.get(sym, False)
                    return _Vec(vtemps[sym], isv, atom=isv)
                if sym in vtemp_syms:  # read before any write: rejected above
                    raise _NoVec
                info = self.bound.get(sym)
                if info is None:
                    raise _NoVec
                name, kind = info
                if kind in ("scalar", "index"):
                    if e.idx or sym in acc_syms:
                        raise _NoVec
                    return _Vec(name, False)
                if kind == "cell":
                    if e.idx:
                        raise _NoVec
                    accesses.append((sym, (), False))
                    return _Vec(f"{name}[()]", False)
                if not e.idx:
                    raise _NoVec
                sig = dims_sig(e.idx)
                if any(c for c, _, _ in sig):
                    accesses.append((sym, sig, False))
                    return _Vec(slice_src(sym, sig), True, atom=True)
                accesses.append((sym, sig, False))
                return _Vec(elem_src(sym, sig), False)
            if isinstance(e, N.BinOp):
                if e.op in ("and", "or"):
                    raise _NoVec
                l, r = vec_expr(e.lhs), vec_expr(e.rhs)
                vec = l.vec or r.vec
                if e.op == "/":
                    return _Vec(f"_div({l.src}, {r.src})", vec)
                return _Vec(f"({l.src} {e.op} {r.src})", vec)
            if isinstance(e, N.USub):
                x = vec_expr(e.arg)
                return _Vec(f"(-{x.src})", x.vec)
            if isinstance(e, N.Extern):
                subs = [vec_expr(a) for a in e.args]
                defn = extern_by_name(e.fname)
                if any(x.vec for x in subs):
                    # the registry's whole-array template (np_template); an
                    # extern registered without one blocks vectorisation and
                    # the loop runs through the scalar lowering instead
                    rendered = defn.np_apply([x.src for x in subs])
                    if rendered is None:
                        raise _NoVec
                    return _Vec(rendered, True)
                impl = self.const(defn.impl)
                return _Vec(f"__K[{impl}]({', '.join(x.src for x in subs)})", False)
            raise _NoVec

        for st, clip in work:
            aug = isinstance(st, N.Reduce)
            tgt = st.name
            stmt_sink: List[str] = pre if clip is None else []
            stmt_lines: List[str] = []
            cur["rng"] = rng_for(clip)
            cur["sink"] = stmt_sink
            cur["clipped"] = clip is not None
            if tgt in vtemp_syms:
                r = vec_expr(st.rhs)
                name = vtemps.get(tgt)
                if name is None:
                    name = f"__v{len(vtemps)}"
                if aug:
                    stmt_lines.append(f"{name} = {name} + ({r.src})")
                    vtemp_vec[tgt] = vtemp_vec.get(tgt, False) or r.vec
                else:
                    # unary + copies: a bare slice must not stay a live view
                    # of a buffer that later statements may overwrite
                    src = f"(+{r.src})" if r.atom else r.src
                    stmt_lines.append(f"{name} = {src}")
                    vtemp_vec[tgt] = r.vec
                vtemps[tgt] = name
            elif tgt in acc_syms:
                r = vec_expr(st.rhs)
                if not r.vec:
                    raise _NoVec
                name = self.bound[tgt][0]
                expr = f"{name} + ({r.src}).sum()"
                cast = self.scalar_cast.get(tgt)
                if cast is not None:
                    expr = f"__K[{cast}]({expr})"
                stmt_lines.append(f"{name} = {expr}")
            else:
                info = self.bound.get(tgt)
                if info is None:
                    raise _NoVec
                name, kind = info
                if kind == "cell":
                    sig: Tuple = ()
                elif kind == "tensor":
                    if not st.idx:
                        raise _NoVec
                    sig = dims_sig(st.idx)
                else:
                    raise _NoVec
                r = vec_expr(st.rhs)
                if any(c for c, _, _ in sig):
                    accesses.append((tgt, sig, True))
                    stmt_lines.append(f"{slice_src(tgt, sig)} {'+=' if aug else '='} {r.src}")
                else:
                    if not aug or not r.vec:
                        raise _NoVec
                    accesses.append((tgt, sig, True))
                    tgt_src = elem_src(tgt, sig) if kind == "tensor" else f"{name}[()]"
                    stmt_lines.append(f"{tgt_src} += ({r.src}).sum(dtype={name}.dtype)")
            if clip is None:
                body_lines.extend(stmt_lines)
            else:
                # peeled sub-range: guards and the statement only run when the
                # clipped range is non-empty
                lo_r, hi_r = cur["rng"]
                body_lines.append(f"if {hi_r} > {lo_r}:")
                for line in stmt_sink:
                    body_lines.append(f"    {line}")
                for line in stmt_lines:
                    body_lines.append(f"    {line}")
        cur["rng"] = (lo_t, hi_t)
        cur["sink"] = pre
        cur["clipped"] = False

        # windows alias their base buffer: if any buffer in an alias group is
        # written while the group is accessed under more than one name, the
        # per-symbol analysis below would miss the dependence — reject
        per_base: Dict[Sym, Tuple[Set[Sym], List[bool]]] = {}
        for sym, _, is_write in accesses:
            syms, writes = per_base.setdefault(self.window_base.get(sym, sym), (set(), []))
            syms.add(sym)
            writes.append(is_write)
        for syms, writes in per_base.values():
            if len(syms) > 1 and any(writes):
                raise _NoVec

        # dependence validation per written buffer
        per_buf: Dict[Sym, List[Tuple[Tuple, bool]]] = {}
        for sym, sig, is_write in accesses:
            per_buf.setdefault(sym, []).append((sig, is_write))
        for sym, accs in per_buf.items():
            write_sigs = {sig for sig, w in accs if w}
            if not write_sigs:
                continue
            idep = {sig for sig in write_sigs if any(c for c, _, _ in sig)}
            iindep = write_sigs - idep
            if idep and iindep:
                raise _NoVec
            if len(idep) > 1:
                raise _NoVec
            read_sigs = {sig for sig, w in accs if not w}
            if read_sigs:
                if iindep:
                    raise _NoVec  # partial sums would be observable
                (wsig,) = idep
                if any(rs != wsig for rs in read_sigs):
                    raise _NoVec

        if need_iota[0]:
            pre.append(f"__iota = np.arange({lo_t}, {hi_t})")
        return pre, body_lines

    # -- outer-loop (chunked) vectorisation ---------------------------------------

    def _try_vectorize_outer(self, s: N.For, lo_t: str, hi_t: str) -> bool:
        mark = len(self.lines)
        try:
            pre, body = self._vec_lower_outer(s, lo_t, hi_t)
        except (_NoVec, _CannotLower):
            del self.lines[mark:]  # discard any partial emission from analysis
            return False
        self.emit(f"if {hi_t} > {lo_t}:")
        self.indent += 1
        for line in pre:
            self.emit(line)
        for line in body:
            self.emit(line)
        self.indent -= 1
        return True

    def _vec_lower_outer(self, s: N.For, lo_t: str, hi_t: str) -> Tuple[List[str], List[str]]:
        """Fold a chunked loop nest across its *outer* loop.

        After cross-procedure inlining, scheduled kernels are outer loops over
        chunks whose bodies are vector-register allocations plus constant-trip
        leaf loops accessing ``a*io + b*ii + off`` (the shape ``divide_loop``
        plus ``@instr`` substitution produces).  This lowering vectorises both
        levels at once:

        * constant-shape register temporaries expand to ``(chunks, lanes)``
          matrices (allocated zeroed once — each row is one iteration's
          private register, so per-iteration zero-fill semantics hold);
        * each leaf-loop statement becomes one whole-array statement over a
          2-D region of the base buffer — basic slicing when the outer and
          inner iterators stride different dimensions, a bounds-checked
          ``as_strided`` view when one dimension mixes both;
        * invariant-index reductions become ``.sum(axis=0)`` /  ``.sum()``.

        Safety: all accesses to a written buffer must stride the same
        dimension with the same coefficient and stay within one period of it
        (rows of distinct outer iterations are then disjoint), and every
        write/read signature pair must be identical or provably disjoint
        within a row (whole-statement evaluation then matches the sequential
        interleaving).  Anything else raises ``_NoVec`` and the loop falls
        back to the scalar (or inner-only vectorised) lowering.
        """
        iv_o = s.iter
        body_written = collect_syms_written(s.body)
        if iv_o in body_written:
            raise _NoVec

        # ---- classify the body ---------------------------------------------
        # plan entries carry a leaf-loop group id: statements of the SAME
        # leaf loop interleave per lane sequentially, so conflicting writes
        # within a group need extra validation; across groups the statement
        # barrier of the fold preserves order
        temps: Dict[Sym, Tuple[str, int, int]] = {}  # sym -> (pyname, lanes, dtype ix)
        plan: List[Tuple[Optional[Sym], int, N.Stmt, int]] = []
        gid = 0
        for st in s.body:
            if isinstance(st, N.Pass):
                continue
            if isinstance(st, N.Alloc):
                if (
                    isinstance(st.typ, TensorType)
                    and len(st.typ.shape) == 1
                    and isinstance(st.typ.shape[0], N.Const)
                    and isinstance(st.typ.shape[0].val, (int, np.integer))
                    and not isinstance(st.typ.shape[0].val, bool)
                    and int(st.typ.shape[0].val) >= 1
                    and st.name not in self.cells
                ):
                    temps[st.name] = (
                        f"__w{len(temps)}",
                        int(st.typ.shape[0].val),
                        self.const(np_dtype_for(st.typ).type),
                    )
                    continue
                raise _NoVec
            if isinstance(st, N.For):
                if not (isinstance(st.lo, N.Const) and st.lo.val == 0):
                    raise _NoVec
                if not (
                    isinstance(st.hi, N.Const)
                    and isinstance(st.hi.val, (int, np.integer))
                    and not isinstance(st.hi.val, bool)
                ):
                    raise _NoVec
                W = int(st.hi.val)
                if W <= 0:
                    continue
                if st.iter is iv_o:
                    raise _NoVec
                gid += 1
                for inner in st.body:
                    if isinstance(inner, N.Pass):
                        continue
                    if not isinstance(inner, (N.Assign, N.Reduce)):
                        raise _NoVec
                    plan.append((st.iter, W, inner, gid))
                continue
            if isinstance(st, (N.Assign, N.Reduce)):
                gid += 1
                plan.append((None, 1, st, gid))
                continue
            raise _NoVec
        if not plan:
            raise _NoVec
        # written scalars cannot be expanded at this level
        for sym in body_written:
            if sym in temps:
                continue
            info = self.bound.get(sym)
            if info is None:
                raise _NoVec
            if info[1] in ("scalar", "index"):
                raise _NoVec

        pre: List[str] = []
        body_lines: List[str] = []
        off_cache: Dict[str, str] = {}
        iotas: Dict[str, str] = {}
        region_cache: Dict[Tuple, Tuple[str, str, bool]] = {}
        # (sym, dims, lane count, is_write, is_reduce, leaf-loop group)
        accesses: List[Tuple[Sym, Tuple, int, bool, bool, int]] = []
        temp_accesses: List[Tuple[Sym, Tuple, int, bool, bool, int]] = []
        cur_gid = [0]  # group of the statement being lowered
        nt = self.temp()
        pre.append(f"{nt} = {hi_t} - {lo_t}")
        for _sym, (tname, lanes, dt) in temps.items():
            pre.append(f"{tname} = np.zeros(({nt}, {lanes}), dtype=__K[{dt}])")

        def off_temp(off_src: str) -> str:
            t = off_cache.get(off_src)
            if t is None:
                t = self.temp()
                off_cache[off_src] = t
                pre.append(f"{t} = {off_src}")
            return t

        def iota_o() -> str:
            t = iotas.get("o")
            if t is None:
                t = self.temp()
                iotas["o"] = t
                pre.append(f"{t} = np.arange({lo_t}, {hi_t})")
            return t

        def iota_i(W: int) -> str:
            t = iotas.get(f"i{W}")
            if t is None:
                t = self.temp()
                iotas[f"i{W}"] = t
                pre.append(f"{t} = np.arange(0, {W})")
            return t

        def dims_of(idx_exprs: Sequence[N.Expr], ii: Optional[Sym]) -> Tuple:
            """Per-dimension signature (a, b, const, resid src, off src,
            off provably non-negative) of a bi-affine access."""
            dims = []
            for e in idx_exprs:
                dec = biaffine_decompose(e, iv_o, ii)
                if dec is None:
                    raise _NoVec
                a, b, off = dec
                if a < 0 or b < 0:
                    raise _NoVec
                if off is None:
                    c, resid_src, off_src, off_nonneg = 0, "", "0", True
                else:
                    osyms = used_syms_expr(off)
                    if osyms & body_written or any(o in temps for o in osyms):
                        raise _NoVec
                    for n, _ in walk(off):
                        if isinstance(n, N.Read) and n.idx or isinstance(n, N.WindowExpr):
                            raise _NoVec
                    c, resid = _split_const_off(off)
                    resid_src = self.int_expr(resid) if resid is not None else ""
                    off_src = self.int_expr(off)
                    off_nonneg = provably_nonneg(off, self.nonneg)
                dims.append((a, b, c, resid_src, off_src, off_nonneg))
            return tuple(dims)

        def temp_region(sym: Sym, dims: Tuple, W: int) -> Tuple[str, str, bool]:
            tname, lanes, _dt = temps[sym]
            if len(dims) != 1:
                raise _NoVec
            a, b, c, resid_src, _off, _nn = dims[0]
            if a != 0 or resid_src != "":
                raise _NoVec  # rows are per-iteration private registers
            if b == 0 or W == 1:
                # single lane (including trip-1 leaf loops): keep the region
                # 1-D so it composes with other (chunks,)-shaped operands
                if c < 0 or c >= lanes:
                    raise _NoVec
                return (f"{tname}[:, {c}]", "c", True)
            last = c + b * (W - 1)
            if c < 0 or last >= lanes:
                raise _NoVec
            step = f":{b}" if b != 1 else ""
            return (f"{tname}[:, {c}:{last + 1}{step}]", "f", True)

        def buf_region(sym: Sym, dims: Tuple, W: int) -> Tuple[str, str, bool]:
            """(source, axis kind, plain-target?) for a buffer access region;
            binds view temporaries and emits bounds guards on first use."""
            key = (sym, dims, W)
            hit = region_cache.get(key)
            if hit is not None:
                return hit
            name, bkind = self.bound[sym]
            if bkind == "cell":
                if dims:
                    raise _NoVec
                res = (f"{name}[()]", "s", True)
                region_cache[key] = res
                return res
            if bkind != "tensor":
                raise _NoVec
            da = [d for d, t in enumerate(dims) if t[0] != 0]
            db = [d for d, t in enumerate(dims) if t[1] != 0]
            if len(da) > 1 or len(db) > 1:
                raise _NoVec
            guards: List[str] = []
            if da and db and da[0] == db[0]:
                # one dimension mixes both iterators: strided (chunks, lanes)
                # view of the (innermost) dimension via _strided2
                d = da[0]
                if d != len(dims) - 1:
                    raise _NoVec
                a, b, _c, _resid, off_src, _nn = dims[d]
                base_parts = []
                for t in dims[:-1]:
                    pt = off_temp(t[4])
                    if not t[5]:
                        guards.append(f"if {pt} < 0:")
                        guards.append(f"    _oob({sym.name!r})")
                    base_parts.append(pt)
                base = name if not base_parts else f"{name}[{', '.join(base_parts)}, :]"
                o0 = off_temp(off_src)
                vt = self.temp()
                pre.extend(guards)
                pre.append(
                    f"{vt} = _strided2({base}, {o0} + {a} * {lo_t}, {nt}, {W}, {a}, {b}, {sym.name!r})"
                )
                if W == 1:
                    # trip-1 leaf loop: flatten the (chunks, 1) view so it
                    # composes with (chunks,)-shaped operands
                    vtf = self.temp()
                    pre.append(f"{vtf} = {vt}[:, 0]")
                    res = (vtf, "c", False)
                else:
                    res = (vt, "f", False)
                region_cache[key] = res
                return res
            parts: List[str] = []
            axes: List[str] = []
            for d, (a, b, _c, _resid, off_src, off_nonneg) in enumerate(dims):
                if a == 0 and b == 0:
                    pt = off_temp(off_src)
                    if not off_nonneg:
                        guards.append(f"if {pt} < 0:")
                        guards.append(f"    _oob({sym.name!r})")
                    parts.append(pt)
                    continue
                base = "" if off_src == "0" else f"{off_temp(off_src)} + "
                if a != 0:
                    if a == 1:
                        start, last = f"{base}{lo_t}", f"{base}{hi_t} - 1"
                        stop, step = f"{base}{hi_t}", ""
                    else:
                        start = f"{base}{a} * {lo_t}"
                        last = f"{base}{a} * ({hi_t} - 1)"
                        stop, step = f"{last} + 1", f":{a}"
                    axes.append("o")
                else:
                    start = f"{off_temp(off_src)}" if off_src != "0" else "0"
                    last = f"{start} + {b * (W - 1)}" if b * (W - 1) else start
                    stop = f"{last} + 1"
                    step = f":{b}" if b != 1 else ""
                    axes.append("i")
                guards.append(f"if ({start}) < 0 or ({last}) >= {name}.shape[{d}]:")
                guards.append(f"    _oob({sym.name!r}, 'vector access out of range')")
                parts.append(f"{start}:{stop}{step}")
            pre.extend(guards)
            src = f"{name}[{', '.join(parts)}]"
            if axes == ["o", "i"] or axes == ["i", "o"]:
                vt = self.temp()
                pre.append(f"{vt} = {src}{'.T' if axes == ['i', 'o'] else ''}")
                if W == 1:
                    # trip-1 leaf loop: flatten the (chunks, 1) view so it
                    # composes with (chunks,)-shaped operands
                    vtf = self.temp()
                    pre.append(f"{vtf} = {vt}[:, 0]")
                    res = (vtf, "c", False)
                else:
                    res = (vt, "f", False)
            elif axes == ["o"]:
                vt = self.temp()
                pre.append(f"{vt} = {src}")
                res = (vt, "c", False)
            elif axes == ["i"]:
                res = (src, "r", True)
            else:
                res = (src, "s", True)
            region_cache[key] = res
            return res

        def vx(e: N.Expr, ii: Optional[Sym], W: int) -> Tuple[str, str]:
            """Lower an expression to (source, axis kind).  'c' sources are
            reshaped to (chunks, 1) whenever the statement has a lane axis so
            NumPy broadcasting matches the loop-nest semantics."""

            def col(src: str) -> Tuple[str, str]:
                return (f"{src}[:, None]" if W > 1 else src, "c")

            if isinstance(e, N.Const):
                if isinstance(e.val, bool):
                    return ("True" if e.val else "False", "s")
                return (repr(e.val), "s")
            if isinstance(e, N.Read):
                sym = e.name
                if sym is iv_o and not e.idx:
                    return col(iota_o())
                if ii is not None and sym is ii and not e.idx:
                    return (iota_i(W), "r")
                if sym in temps:
                    if not e.idx:
                        raise _NoVec
                    tdims = dims_of(e.idx, ii)
                    src, kind, _plain = temp_region(sym, tdims, W)
                    temp_accesses.append((sym, tdims, W, False, False, cur_gid[0]))
                    return col(src) if kind == "c" else (src, kind)
                info = self.bound.get(sym)
                if info is None:
                    raise _NoVec
                name, bkind = info
                if bkind in ("scalar", "index"):
                    if e.idx:
                        raise _NoVec
                    return (name, "s")
                if bkind == "cell":
                    if e.idx:
                        raise _NoVec
                    accesses.append((sym, (), 1, False, False, cur_gid[0]))
                    return (f"{name}[()]", "s")
                if not e.idx:
                    raise _NoVec
                dims = dims_of(e.idx, ii)
                src, kind, _plain = buf_region(sym, dims, W)
                accesses.append((sym, dims, W, False, False, cur_gid[0]))
                return col(src) if kind == "c" else (src, kind)
            if isinstance(e, N.BinOp):
                if e.op in ("and", "or"):
                    raise _NoVec
                l, lk = vx(e.lhs, ii, W)
                r, rk = vx(e.rhs, ii, W)
                kind = _join_kind(lk, rk)
                if e.op == "/":
                    return (f"_div({l}, {r})", kind)
                return (f"({l} {e.op} {r})", kind)
            if isinstance(e, N.USub):
                src, kind = vx(e.arg, ii, W)
                return (f"(-{src})", kind)
            if isinstance(e, N.Extern):
                subs = [vx(a, ii, W) for a in e.args]
                defn = extern_by_name(e.fname)
                if any(kind != "s" for _src, kind in subs):
                    rendered = defn.np_apply([src for src, _kind in subs])
                    if rendered is None:
                        raise _NoVec
                    out_kind = "s"
                    for _src, kind in subs:
                        out_kind = _join_kind(out_kind, kind)
                    return (rendered, out_kind)
                impl = self.const(defn.impl)
                return (f"__K[{impl}]({', '.join(src for src, _kind in subs)})", "s")
            raise _NoVec

        # ---- statement lowering --------------------------------------------
        for ii, W, st, g in plan:
            cur_gid[0] = g
            aug = isinstance(st, N.Reduce)
            tgt = st.name
            if tgt in temps:
                if not st.idx:
                    raise _NoVec
                tdims = dims_of(st.idx, ii)
                src, kind, _plain = temp_region(tgt, tdims, W)
                if kind == "c" and W > 1:
                    raise _NoVec  # every lane would write the same element
                temp_accesses.append((tgt, tdims, W, True, aug, cur_gid[0]))
                rhs, _rk = vx(st.rhs, ii, W)
                body_lines.append(f"{src} {'+=' if aug else '='} {rhs}")
                continue
            info = self.bound.get(tgt)
            if info is None:
                raise _NoVec
            name, bkind = info
            if bkind == "cell":
                dims: Tuple = ()
            elif bkind == "tensor":
                if not st.idx:
                    raise _NoVec
                dims = dims_of(st.idx, ii)
            else:
                raise _NoVec
            varying = any(t[0] for t in dims)
            src, kind, _plain = buf_region(tgt, dims, W)
            accesses.append((tgt, dims, W, True, aug, cur_gid[0]))
            rhs, rk = vx(st.rhs, ii, W)
            if varying:
                # varying regions are always view temps ('c'/'f'): write
                # through the view
                if kind == "c" and W > 1:
                    raise _NoVec  # every lane would write the same element
                if aug:
                    body_lines.append(f"{src} += {rhs}")
                else:
                    body_lines.append(f"{src}[...] = {rhs}")
                continue
            # invariant region: only whole-range sum reductions are sound
            if not aug or rk not in ("c", "f"):
                raise _NoVec
            if kind == "s":
                # a lane-invariant rhs is added once per LANE per chunk by the
                # sequential loop: scale the chunk sum by the lane count
                mult = f"{W} * " if rk == "c" and W > 1 else ""
                body_lines.append(f"{src} += {mult}({rhs}).sum(dtype={name}.dtype)")
            elif kind == "r":
                body_lines.append(f"{src} += ({rhs}).sum(axis=0, dtype={name}.dtype)")
            else:
                raise _NoVec

        # ---- dependence validation -----------------------------------------
        # windows alias their base buffer (same rule as the 1-D vectoriser)
        per_base: Dict[Sym, Tuple[Set[Sym], List[bool]]] = {}
        for sym, _dims, _W, is_write, _aug, _g in accesses:
            syms, writes = per_base.setdefault(self.window_base.get(sym, sym), (set(), []))
            syms.add(sym)
            writes.append(is_write)
        for syms, writes in per_base.values():
            if len(syms) > 1 and any(writes):
                raise _NoVec

        per_buf: Dict[Sym, List[Tuple]] = {}
        for acc in accesses:
            per_buf.setdefault(acc[0], []).append(acc)

        def a_dim_of(acc) -> Optional[int]:
            ds = [d for d, t in enumerate(acc[1]) if t[0] != 0]
            return ds[0] if len(ds) == 1 else None

        def same_sig(x, y) -> bool:
            return x[1] == y[1] and x[2] == y[2]

        def row_disjoint(x, y) -> bool:
            # provably disjoint footprints within one outer iteration
            for tx, ty in zip(x[1], y[1]):
                if tx[3] != ty[3]:
                    continue  # incomparable residual offsets in this dim
                lo1, hi1 = tx[2], tx[2] + tx[1] * (x[2] - 1) + 1
                lo2, hi2 = ty[2], ty[2] + ty[1] * (y[2] - 1) + 1
                if hi1 <= lo2 or hi2 <= lo1:
                    return True
            return False

        for sym, accs in per_buf.items():
            writes = [a for a in accs if a[3]]
            if not writes:
                continue
            inv_writes = [a for a in writes if not any(t[0] for t in a[1])]
            if inv_writes:
                # invariant-index reductions: every access to the buffer must
                # be such a reduce (sum reordering is the only divergence,
                # within check_equiv tolerances like the 1-D .sum() lowering)
                if len(inv_writes) != len(accs) or any(not a[4] for a in inv_writes):
                    raise _NoVec
                continue
            d0 = a_dim_of(writes[0])
            if d0 is None:
                raise _NoVec
            ref = writes[0][1][d0]
            for acc in accs:
                if a_dim_of(acc) != d0:
                    raise _NoVec
                t = acc[1][d0]
                if t[0] != ref[0] or t[3] != ref[3]:
                    raise _NoVec  # different outer stride or residual offset
            a_val = ref[0]
            cmin = min(acc[1][d0][2] for acc in accs)
            for acc in accs:
                t = acc[1][d0]
                span = t[1] * (acc[2] - 1) + 1
                if (t[2] - cmin) + span > a_val:
                    raise _NoVec  # escapes one period: rows would overlap
            reads = [a for a in accs if not a[3]]
            for w in writes:
                for r_ in reads:
                    if same_sig(w, r_) or row_disjoint(w, r_):
                        continue
                    raise _NoVec
            # statements of one leaf loop interleave per lane sequentially:
            # two writes in the SAME group must hit identical or disjoint
            # lanes, or the fold reverses their per-lane ordering (across
            # groups the statement barrier preserves order)
            for i, w1 in enumerate(writes):
                for w2 in writes[i + 1 :]:
                    if w1[5] != w2[5] or same_sig(w1, w2) or row_disjoint(w1, w2):
                        continue
                    raise _NoVec

        # register temps: rows are per-iteration private, but lane-shifted
        # write/read pairs within a row (e.g. w[i+1] = w[i]) would lose the
        # sequential propagation when folded — require identical lane
        # signatures or provably disjoint lane intervals, like buffers
        per_temp: Dict[Sym, List[Tuple]] = {}
        for acc in temp_accesses:
            per_temp.setdefault(acc[0], []).append(acc)
        for accs in per_temp.values():
            t_writes = [a for a in accs if a[3]]
            for w in t_writes:
                for r_ in (a for a in accs if not a[3]):
                    if same_sig(w, r_) or row_disjoint(w, r_):
                        continue
                    raise _NoVec
            for i, w1 in enumerate(t_writes):
                for w2 in t_writes[i + 1 :]:
                    if w1[5] != w2[5] or same_sig(w1, w2) or row_disjoint(w1, w2):
                        continue
                    raise _NoVec

        return pre, body_lines

    @staticmethod
    def _clip_from_cond(cond: N.Expr, iv: Sym) -> Optional[Tuple[str, N.Expr]]:
        """Derive an iteration sub-range from an affine guard condition.

        Returns ``("lt", B)`` when the guard is equivalent to ``iv < B`` or
        ``("ge", B)`` for ``iv >= B`` (``B`` loop-invariant), or ``None`` when
        the condition is not a single affine comparison with unit coefficient.
        This is how masked ``@instr`` bodies (``if base + i < bound: ...``)
        lower to peeled whole-array statements instead of scalar loops.
        """
        if not isinstance(cond, N.BinOp) or cond.op not in ("<", "<=", ">", ">="):
            return None
        dl = affine_decompose(cond.lhs, iv)
        dr = affine_decompose(cond.rhs, iv)
        if dl is None or dr is None:
            return None
        (cl, ol), (cr, orr) = dl, dr

        def sub(a: Optional[N.Expr], b: Optional[N.Expr]) -> N.Expr:
            if b is None:
                return a if a is not None else N.Const(0)
            if a is None:
                return N.USub(b)
            return N.BinOp("-", a, b)

        def add1(e: N.Expr) -> N.Expr:
            return N.BinOp("+", e, N.Const(1))

        if cl == 1 and cr == 0:
            # (iv + ol) OP orr  ->  iv OP (orr - ol)
            bound = sub(orr, ol)
            if cond.op == "<":
                return ("lt", bound)
            if cond.op == "<=":
                return ("lt", add1(bound))
            if cond.op == ">":
                return ("ge", add1(bound))
            return ("ge", bound)
        if cl == 0 and cr == 1:
            # ol OP (iv + orr)  ->  mirrored
            bound = sub(ol, orr)
            if cond.op == "<":
                return ("ge", add1(bound))
            if cond.op == "<=":
                return ("ge", bound)
            if cond.op == ">":
                return ("lt", bound)
            return ("lt", add1(bound))
        return None
